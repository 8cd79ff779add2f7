"""Quiet / noisy classification, the cell summary and the top-up rule."""

import gating

REF = 0.004  # a 4 ms canary


def sample(value, before=1.0, after=1.0):
    return (REF * before, value, REF * after)


def test_reference_is_the_lowest_decile():
    canaries = [0.004] * 3 + [0.0055] * 17
    assert gating.reference(canaries) == 0.004
    assert gating.reference([0.004] + [0.0055] * 19) == 0.0055


def test_a_sample_is_quiet_only_if_both_canaries_are():
    assert gating.is_quiet(sample(1, 1.0, 1.06), REF)
    assert not gating.is_quiet(sample(1, 1.0, 1.2), REF)
    assert not gating.is_quiet(sample(1, 1.3, 1.0), REF)


def test_a_long_sample_is_gated_on_the_canary_before_it():
    late = [sample(0.33, 1.0, 1.4), sample(0.34, 1.0, 1.0),
            sample(0.35, 1.02, 1.3), sample(0.50, 1.3, 1.0)]
    assert gating.quiet_count(late, REF) == 1
    assert gating.quiet_count(late, REF, gating.BEFORE) == 3
    cell = gating.summarise(late, REF, min_quiet=3, ends=gating.BEFORE)
    assert not cell["unresolved"] and cell["n_quiet"] == 3
    assert cell["value"] == 0.33 and cell["median"] == 0.34
    # short of quiet starts: the samples that started quietest are used
    cell = gating.summarise(late, REF, min_quiet=4, ends=gating.BEFORE)
    assert cell["unresolved"] and cell["p75"] > 0.35


def test_summary_is_the_lower_quartile_of_the_quiet_samples():
    quiet = [sample(v) for v in (7.0, 7.1, 7.2, 7.3, 7.4, 7.5, 7.6)]
    noisy = [sample(v, 1.35, 1.35) for v in (6.0, 11.5, 12.0)]
    cell = gating.summarise(quiet + noisy, REF, min_quiet=5)
    assert cell["value"] == cell["p25"] == 7.1
    assert (cell["median"], cell["p75"]) == (7.3, 7.5)
    assert (cell["n"], cell["n_quiet"], cell["unresolved"]) == (10, 7, False)
    assert cell["min"] == 6.0  # over all samples, noisy ones too


def test_quartiles_stay_inside_the_data():
    assert gating.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert gating.quartiles([7.0, 9.0]) == (7.0, 8.0, 9.0)
    assert gating.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_short_cell_is_unresolved_and_uses_the_quietest_samples():
    samples = [sample(7.0), sample(7.2), sample(9.0, 1.2, 1.2),
               sample(11.0, 1.4, 1.4), sample(12.0, 1.5, 1.5)]
    cell = gating.summarise(samples, REF, min_quiet=3)
    assert cell["unresolved"] and cell["n_quiet"] == 2
    assert cell["median"] == 7.2  # of the three quietest: 7.0, 7.2, 9.0
    assert cell["value"] == 7.0


def test_top_up_rule_counts_quiet_samples():
    samples = [sample(7.0)] * 4 + [sample(11.0, 1.4, 1.4)] * 6
    assert gating.quiet_count(samples, REF) == 4  # < 5: the cell is topped up
    samples += [sample(7.1)] * 2
    assert gating.quiet_count(samples, REF) == 6  # resolved: no more trials


def test_wait_quiet_gives_up_at_the_deadline():
    reading = gating.wait_quiet(limit=0.0, until=0.0)  # never quiet, no time
    assert reading > 0.0
    c0, wall, c1 = gating.timed(lambda: None)
    assert c0 > 0 and c1 > 0 and 0 <= wall < 0.01
