"""tools/bench_pairs: the verdicts of `summarize` on hand-made runs, and
the digests `run_once` keeps and `digest_line` prints."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(parent, change):
    # one run per pair, as run_once records it, with one metric "m"
    return [{"first": "parent",
             "parent": {"metrics": {"m": {"value": p}}},
             "change": {"metrics": {"m": {"value": c}}}}
            for p, c in zip(parent, change)]


def _summary(parent, change, better, bound=0.25):
    spec = {"name": "m", "unit": "u", "better": better, "bound": bound}
    return bench_pairs.summarize(_runs(parent, change), [spec])["m"]


# parent runs 10..19: median 14.5, quartiles 12.25 and 16.75, IQR 4.5
PARENT = [10 + i for i in range(10)]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_ties_count_for_neither_side(better):
    s = _summary(PARENT, PARENT, better)
    assert (s["wins"], s["pairs"], s["gain"]) == (0, 10, False)
    assert s["within_bound"]
    assert s["parent"] == s["change"] == {"q1": 12.25, "median": 14.5,
                                          "q3": 16.75}


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
@pytest.mark.parametrize("step, ties, wins, gain", [
    (5, 1, 9, True),    # 9/10 wins, median gap 5 > IQR 4.5
    (5, 2, 8, False),   # the same gap, but 8/10 wins
    (4.5, 1, 9, False),  # 9/10 wins, but the gap 4.5 is not over the IQR
])
def test_gain_needs_nine_tenths_of_wins_and_a_gap_over_the_iqr(
        better, sign, step, ties, wins, gain):
    # the first `ties` pairs tie; every other pair the change wins by `step`
    parent = [sign * p for p in PARENT]
    change = parent[:ties] + [p + sign * step for p in parent[ties:]]
    s = _summary(parent, change, better)
    assert (s["wins"], s["gain"]) == (wins, gain)


@pytest.mark.parametrize("better, at_bound, past_bound", [
    ("higher", 75.0, 74.5),
    ("lower", 125.0, 125.5),
])
def test_within_bound_holds_at_exactly_the_bound(better, at_bound,
                                                 past_bound):
    # parent median 100 and bound 0.25: 25 worse is within, more is not
    parent = [100.0] * 4
    s = _summary(parent, [at_bound] * 4, better)
    assert (s["wins"], s["gain"], s["within_bound"]) == (0, False, True)
    s = _summary(parent, [past_bound] * 4, better)
    assert (s["wins"], s["gain"], s["within_bound"]) == (0, False, False)


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
@pytest.mark.parametrize("bound, unresolved", [
    (0.19, True),   # IQR 20 is wider than 0.19 * 100
    (0.2, False),   # IQR 20 is not wider than 0.2 * 100
])
def test_unresolved_when_the_parent_spread_is_wider_than_the_bound(
        better, sign, bound, unresolved):
    # parent median 100, quartiles 90 and 110; the change ties every run
    parent = [100 + sign * x for x in (-20, -10, 0, 10, 20)]
    s = _summary(parent, parent, better, bound)
    assert s["within_bound"]
    assert s["unresolved"] is unresolved


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_resolved_when_every_change_run_beats_every_parent_run(better, sign):
    # IQR 20 against a bound of 0.1 * 100: unresolved unless the change's
    # worst run beats the parent's best one, 120 (80 when lower is better)
    parent = [100 + sign * x for x in (-20, -10, 0, 10, 20)]
    apart = [100 + sign * x for x in (21, 22, 23, 24, 25)]
    s = _summary(parent, apart, better, bound=0.1)
    assert (s["wins"], s["unresolved"]) == (5, False)
    # one change run level with the parent's best: no longer apart, though
    # the change still wins every other pair
    level = apart[:4] + [100 + sign * 20]
    s = _summary(parent, level, better, bound=0.1)
    assert (s["wins"], s["unresolved"]) == (4, True)


_RECORD = {"record": {"workload": "w", "digest_sha256": "d" * 64,
                      "source_sha256": "5" * 64, "failed": 0}}
_RESULT = {"correct": True, "attempted": 3, "failed": 0,
           "metrics": {"m": {"value": 1.5, "unit": "u"}}}


def test_run_once_keeps_the_output_and_source_digests(tmp_path):
    # a stub checkout whose bench/run.py prints a fixed record and result
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json\nprint('setup line')\nprint(json.dumps(%r))\n"
        "print(json.dumps(%r))\n" % (_RECORD, _RESULT))
    out = bench_pairs.run_once(tmp_path, "w", 1, 0.1, 0, "parent")
    assert out == {**_RESULT, "digest_sha256": "d" * 64,
                   "source_sha256": "5" * 64}


def test_digest_line_names_both_sides_sources():
    def side(digest, source, failed):
        return {"digest_sha256": digest * 64, "source_sha256": source * 64,
                "failed": failed}

    runs = [{"parent": side("a", "1", 0), "change": side("a", "2", 1)},
            {"parent": side("a", "1", 0), "change": side("b", "3", 2)}]
    assert bench_pairs.digest_line("w", runs) == (
        "w: digests parent aaaaaaaa, change aaaaaaaa,bbbbbbbb; "
        "sources parent 11111111, change 22222222,33333333; "
        "failed ops parent 0, change 3")
