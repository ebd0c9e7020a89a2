"""tools/bench_pairs: the verdicts of `summarize` on hand-made runs, the
digests `run_once` keeps and `digest_line` prints, and the `--trajectory`
chains of hand-written records."""

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


_METRICS = [{"name": "m", "unit": "u", "better": "higher", "bound": 0.25}]


def _record(ratio, gain, parent_source=None, change_source=None):
    # a BENCH record of one workload "w" and one metric "m": parent median
    # 10, change median 10 * ratio, and one run with the given digests
    def side(source):
        return {} if source is None else {"source_sha256": source * 64}

    return {"workloads": {"w": {
        "summary": {"m": {"parent": {"median": 10.0},
                          "change": {"median": 10.0 * ratio},
                          "gain": gain}},
        "runs": [{"parent": side(parent_source),
                  "change": side(change_source)}]}}}


def _chain(*records):
    named = [("BENCH_%d" % (i + 1), r) for i, r in enumerate(records)]
    return bench_pairs.chains(named), bench_pairs.trajectory_lines(
        named, _METRICS)


def test_trajectory_multiplies_an_unbroken_chain():
    # 1 -> 2 -> 3 -> 4: every link checked, one chain of three records;
    # a record without digests leaves its links unchecked, not broken
    chains, lines = _chain(_record(2.0, True, "1", "2"),
                           _record(1.5, True, "2", "3"),
                           _record(0.5, True, "3", "4"),
                           _record(4.0, True))
    assert [[name for name, _ in chain] for chain in chains] == [
        ["BENCH_1", "BENCH_2", "BENCH_3", "BENCH_4"]]
    assert lines == [
        "BENCH_1 .. BENCH_4: 4 records (1 of 3 links unchecked: no source "
        "digests), change/parent medians chained",
        "  w        m                  all x6.00 (4)  resolved x6.00 (4)"]


def test_trajectory_names_a_break_and_does_not_bridge_it():
    # BENCH_2's parent ran source 9, not the 2 that BENCH_1's change ran
    chains, lines = _chain(_record(2.0, True, "1", "2"),
                           _record(1.5, True, "9", "3"),
                           _record(3.0, True, "3", "4"))
    assert [len(chain) for chain in chains] == [1, 2]
    assert lines == [
        "BENCH_1 .. BENCH_1: 1 records (0 of 0 links unchecked: no source "
        "digests), change/parent medians chained",
        "  w        m                  all x2.00 (1)  resolved x2.00 (1)",
        "break before BENCH_2: parent sources 99999999, previous change "
        "sources 22222222",
        "BENCH_2 .. BENCH_3: 2 records (0 of 1 links unchecked: no source "
        "digests), change/parent medians chained",
        "  w        m                  all x4.50 (2)  resolved x4.50 (2)"]


def test_trajectory_resolved_chain_skips_unresolved_records():
    # the unresolved x1.1 (say 5/10 wins) enters the all-medians chain
    # only; the resolved chain multiplies the two gains
    chains, lines = _chain(_record(1.25, True, "1", "2"),
                           _record(1.1, False, "2", "3"),
                           _record(1.2, True, "3", "4"))
    row = bench_pairs.chained([r for _, r in chains[0]], _METRICS)["w"]["m"]
    assert row["all"] == [pytest.approx(1.25 * 1.1 * 1.2), 3]
    assert row["resolved"] == [pytest.approx(1.5), 2]
    assert lines[1] == ("  w        m                  all x1.65 (3)  "
                        "resolved x1.50 (2)")


def test_trajectory_reproduces_the_recorded_throughput_chain(capsys):
    # the committed records BENCH_21-BENCH_30: the chained throughput
    # ratios that the ROADMAP Baseline worked out by hand
    root = _PATH.parent.parent
    paths = [str(root / ("BENCH_%d.json" % i)) for i in range(21, 31)]
    assert bench_pairs.main(["--trajectory", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("BENCH_21 .. BENCH_30: 10 records")
    assert [line.split()[3] for line in lines
            if "throughput_ops_s" in line] == ["x1.96", "x1.02", "x1.49",
                                               "x1.28"]
