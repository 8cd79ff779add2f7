"""Span self time: duration minus what the children cover."""

import spans


def test_self_time_of_nested_spans():
    # outer 0..100 holds a 10..40 (which holds aa 20..30) and b 50..70.
    recorded = [
        (2, "aa", 20, 30, 1, "t"),
        (1, "a", 10, 40, 0, "t"),
        (3, "b", 50, 70, 0, "t"),
        (0, "outer", 0, 100, None, "t"),
    ]
    assert spans.self_times(recorded) == {
        "aa": 10, "a": 20, "b": 20, "outer": 50}


def test_ids_are_scoped_by_trial():
    recorded = [
        (1, "child", 0, 10, 0, "first"),
        (0, "parent", 0, 30, None, "first"),
        (0, "parent", 0, 30, None, "second"),
    ]
    assert spans.self_times(recorded) == {"child": 10, "parent": 20 + 30}


def test_recorder_links_parents():
    rec = spans.SpanRecorder("t")
    with rec.span("outer"):
        with rec.span("inner"):
            rec.leaf("leaf", spans.now())
    by_name = {s[1]: s for s in rec.spans}
    assert by_name["outer"][4] is None
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["leaf"][4] == by_name["inner"][0]
    own = spans.self_times(rec.spans)
    total = by_name["outer"][3] - by_name["outer"][2]
    assert sum(own.values()) == total  # self times partition the root


def test_fold_tracks_by_category_and_lane():
    records = [
        ("w0", "dispatch", 0, 100),
        ("w0", "kernel", 10, 30),
        ("w0", "publish", 20, 5),    # nested in the first kernel span
        ("w0", "kernel", 50, 30),
        ("net", "wire", 0, 40),      # a transport thread: not a lane
    ]
    folded = spans.fold_tracks(records)
    assert folded["self_ns"] == {
        "dispatch": 40, "kernel": 55, "publish": 5, "wire": 40}
    assert folded["lanes"] == 1
    assert folded["lane_self_ns"] == 100
