"""Self-time arithmetic on a synthetic span tree.

Run with ``python3 -m pytest inflexbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import SpanRecorder, covered_length, layer_totals, self_times  # noqa: E402


def span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "request_id": None, "tag": None}


# request [0, 10]
#   parse        [0, 1]
#   queue_wait   [1, 4]    overlaps execute: covered once
#   execute      [3, 7]
#     search     [3, 5]
#     search     [4, 6]    overlaps the first search
#   serialize    [9, 12]   runs past its parent: clipped to [9, 10]
TREE = [
    span(1, "serving.request", 0.0, 10.0),
    span(2, "serving.parse", 0.0, 1.0, 1),
    span(3, "serving.queue_wait", 1.0, 4.0, 1),
    span(4, "serving.execute", 3.0, 7.0, 1),
    span(5, "bbtree.search", 3.0, 5.0, 4),
    span(6, "bbtree.search", 4.0, 6.0, 4),
    span(7, "serving.serialize", 9.0, 12.0, 1),
]


def test_covered_length_merges_and_clips():
    assert covered_length(0, 10, []) == 0
    assert covered_length(0, 10, [(1, 3), (2, 5), (8, 9)]) == 5
    assert covered_length(2, 4, [(0, 3), (3.5, 10)]) == pytest.approx(1.5)
    assert covered_length(0, 1, [(2, 3)]) == 0


def test_self_times_of_the_tree():
    own = self_times(TREE)
    # Children cover [0, 7] and [9, 10] of the request: 8 of 10.
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    # The two searches cover [3, 6] of execute's [3, 7].
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(2.0)
    assert own[7] == pytest.approx(3.0)


def test_layer_totals_sum_by_name():
    totals = layer_totals(TREE)
    assert totals["bbtree.search"] == {
        "calls": 2, "inclusive_s": 4.0, "self_s": 4.0,
    }
    assert totals["serving.request"]["self_s"] == pytest.approx(2.0)


def test_recorder_nests_and_dumps(tmp_path):
    from spans import load

    recorder = SpanRecorder()
    with recorder.span("outer", "r1") as outer:
        with recorder.span("inner", "r1"):
            pass
    recorder.counts["x"] += 2
    recorder.dump(tmp_path / "spans.json")
    spans, counts = load(tmp_path / "spans.json")
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent"] == outer[0]
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["request_id"] == "r1"
    assert counts == {"x": 2}
    assert all(s["end"] >= s["start"] for s in spans)
