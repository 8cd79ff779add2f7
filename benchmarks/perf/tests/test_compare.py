"""Compare verdicts on synthetic samples."""

import compare

BOUND = 0.08


def call(a, b, a_spread=0.02, b_spread=0.02, better="lower"):
    return compare.verdict([a], [b], [a * 0.99, a * 1.01],
                           [b * 0.99, b * 1.01], a_spread, b_spread, BOUND,
                           better)


def test_within_the_bound_is_unchanged():
    assert call(10.0, 10.1) == compare.UNCHANGED
    assert call(10.0, 9.5) == compare.UNCHANGED  # a gain below the bound


def test_beyond_the_bound_is_regressed():
    assert call(10.0, 11.0) == compare.REGRESSED
    assert call(10.0, 9.0, better="higher") == compare.REGRESSED


def test_gain_beyond_the_bound_is_improved():
    assert call(10.0, 9.0) == compare.IMPROVED
    assert call(10.0, 11.0, better="higher") == compare.IMPROVED


def test_wide_spread_is_unresolved_unless_the_samples_separate():
    assert call(10.0, 10.2, a_spread=0.2) == compare.UNRESOLVED
    assert call(10.0, 10.2, b_spread=0.2) == compare.UNRESOLVED
    # every sample of B beats every sample of A: resolved despite the spread
    assert call(10.0, 5.0, a_spread=0.2) == compare.IMPROVED
    assert call(10.0, 20.0, a_spread=0.2) == compare.REGRESSED


def cell(value, spread=0.01, **extra):
    p25, p75 = value * (1 - spread / 2), value * (1 + spread / 2)
    return dict({"value": value, "p25": p25, "median": value, "p75": p75,
                 "samples": [p25, p75]}, **extra)


def one_set(task_us, hits=100, spread=0.01):
    return {"runs": [
        {"workload": "w", "metrics": {"task_us": cell(task_us, spread)}},
        {"workload": "w", "metrics": {"hits": cell(hits, exact=True)}},
    ]}


DECLARED = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "task_us", "better": "lower", "bound": BOUND}],
}


def test_rows_cover_end_to_end_metrics_and_exact_counts():
    table = compare.rows([one_set(10.0)], [one_set(10.1)], DECLARED)
    assert [(r[0], r[2]) for r in table] == [
        ("task_us", compare.UNCHANGED), ("hits", "exact")]
    assert compare.failing(table) == []
    table = compare.rows([one_set(10.0)], [one_set(12.0, hits=101)], DECLARED)
    assert [r[2] for r in table] == [compare.REGRESSED, "inexact"]
    assert len(compare.failing(table)) == 2


def test_side_spread_is_the_sets_own_disagreement():
    spread = compare.side_spread([cell(10.0), cell(11.0)])
    assert abs(spread - 1.0 / 10.5) < 1e-12
    table = compare.rows([one_set(10.0), one_set(12.0)], [one_set(10.5)],
                         DECLARED)
    assert table[0][2] == compare.UNRESOLVED


def test_a_single_set_spreads_by_its_cells_own_quartiles():
    assert abs(compare.side_spread([cell(10.0, spread=0.5)]) - 0.5) < 1e-12
    # one file a side: a cell wider than the bound leaves the row unresolved
    for a, b in ((one_set(10.0, spread=0.2), one_set(10.1)),
                 (one_set(10.0), one_set(10.1, spread=0.2))):
        assert compare.rows([a], [b], DECLARED)[0][2] == compare.UNRESOLVED


def test_same_code_sets_must_agree_either_way():
    def result(a, b):
        table = compare.rows([one_set(a)], [one_set(b)], DECLARED,
                             same_code=True)
        return table[0][2], compare.failing(table)

    assert result(10.0, 10.5) == (compare.AGREE, [])
    # a second set that reads faster by more than the bound is noise too
    for a, b in ((10.0, 12.0), (12.0, 10.0)):
        verdict, failing = result(a, b)
        assert verdict == compare.DISAGREE and len(failing) == 1


def test_an_unresolved_cell_makes_the_row_unresolved():
    a = {"runs": [{"workload": "w", "metrics": {
        "task_us": cell(10.0, unresolved=True)}}]}
    assert compare.rows([a], [one_set(10.0)], DECLARED)[0][2] == \
        compare.UNRESOLVED
