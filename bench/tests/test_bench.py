"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

They cover the seeded inputs, the output checks that feed `failed`, and
the traced run's metric names against BENCHMARK.json.
"""

import json
import sys
from itertools import islice
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (WORKLOADS, Props, _run_cli, answer_ok,  # noqa: E402
                       witness_ok)

import hkmoduli.cli  # noqa: E402
import hkmoduli.moduli  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    def first(seed):
        return list(islice(WORKLOADS[name]().items(seed), 200))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_check_inputs_built_nonempty_satisfy_the_congruence():
    for family, n, d, t, built in islice(WORKLOADS["check"]().items(3), 400):
        m = n - 1 if family == "k3n" else n + 1
        assert t >= 3 and (2 * m) % t == 0 and d >= 1
        if built:
            assert any((d + b * b * m) % (t * t) == 0
                       for b in range(1, t + 1) if gcd(b, t) == 1)


def test_integer_checks():
    # (k3n, n=2, d=3, t=2) has the witness a=2, b=1, e=1
    assert witness_ok("k3n", 2, 3, 2, 2, 1, 1)
    assert not witness_ok("k3n", 2, 3, 2, 2, 1, 2)      # wrong square
    assert not witness_ok("k3n", 2, 3, 1, 2, 1, 1)      # wrong divisibility
    assert not witness_ok("k3n", 2, 12, 2, 4, 2, 1)     # not primitive
    assert answer_ok("k3n", 2, 3, 2, True, 1, (2, 1, 1), True)
    assert not answer_ok("k3n", 2, 3, 2, False, 1, (2, 1, 1), False)
    assert not answer_ok("k3n", 2, 3, 2, True, 0, (2, 1, 1), False)
    assert not answer_ok("k3n", 2, 3, 2, True, 1, None, False)
    assert not answer_ok("k3n", 2, 3, 2, False, 0, None, True)


def _corrupting_main(edit):
    def main(argv):
        rc, text = _run_cli(hkmoduli.cli.main, argv)
        sys.stdout.write(edit(text))
        return rc
    return main


def _flip_nonempty(text):
    return text.replace('"non_empty": true', '"non_empty": false', 1)


def _bump_witness_e(text):
    doc = json.loads(text)
    if doc["witness"]:
        doc["witness"][2] += 1
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("edit", [_flip_nonempty, _bump_witness_e])
def test_corrupted_check_output_counts_as_failed(edit):
    workload = WORKLOADS["check"]()
    items = [i for i in islice(workload.items(5), 40) if i[4]][:5]
    good = {"hkmoduli.cli.main": hkmoduli.cli.main}
    bad = {"hkmoduli.cli.main": _corrupting_main(edit)}
    for item in items:
        outcome, _ = run.run_item(workload, good, item, Props())
        assert outcome.failed == 0
        outcome, _ = run.run_item(workload, bad, item, Props())
        assert outcome.failed == 1


def test_corrupted_table_row_counts_as_failed():
    workload = WORKLOADS["table"]()
    item = next(workload.items(2))

    def corrupt(text):
        lines = text.splitlines(keepends=True)
        for k, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[4] == "1":
                cells[8] = str(int(cells[8]) + 1)
                lines[k] = ",".join(cells)
                break
        return "".join(lines)

    ok, _ = run.run_item(workload, {"hkmoduli.cli.main": hkmoduli.cli.main},
                         item, Props())
    bad, _ = run.run_item(workload,
                          {"hkmoduli.cli.main": _corrupting_main(corrupt)},
                          item, Props())
    assert ok.failed == 0 and bad.failed == 1
    assert ok.ops == bad.ops == workload.ops_of(item)


def test_failed_frac_counts_wrong_and_raising_calls():
    workload = WORKLOADS["verify"]()
    workload.digest_items = 60
    api, missing = run._resolve_api(workload)
    assert not missing
    metrics, ops, failed, _ = run.measure(workload, api, 1, 0)
    assert ops == 60 and failed == 0

    def flipped(q):
        return not hkmoduli.moduli.is_nonempty(q)

    def raising(q):
        raise RuntimeError("boom")

    for fake in (flipped, raising):
        bad_api = dict(api, **{"hkmoduli.moduli.is_nonempty": fake})
        _, ops, failed, _ = run.measure(workload, bad_api, 1, 0)
        assert ops == 60 and failed == 60


def test_digest_repeats_for_a_seed():
    workload = WORKLOADS["gram"]()
    workload.digest_items = 3
    api, _ = run._resolve_api(workload)
    digests = {run.measure(workload, api, 4, 0)[3]["digest_sha256"]
               for _ in range(2)}
    assert len(digests) == 1


def test_traced_run_reports_every_per_layer_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    called = set()
    originals = {name: layers.resolve(c)[0] for name, c, _ in layers.STAGES}
    for name, size in (("table", 3), ("check", 6), ("verify", 40),
                       ("gram", 2)):
        workload = WORKLOADS[name]()
        workload.digest_items = size
        metrics, ops, failed, record = run.trace(workload, 1, 0)
        assert set(metrics) == names
        assert failed == 0 and record["traced_output_matches"]
        assert not record["missing_stages"]
        called |= {stage for stage, _, _ in layers.STAGES
                   if metrics[stage + ".calls"][0] > 0}
        share = record["props"]["non_empty_share"]
        # no oracle search outside verify: its ratios have no base there
        assert (("oracle.enumerate_witnesses.hit_ratio"
                 in record["undefined_ratios"]) == (name != "verify"))
        if name == "verify":
            # one oracle search and two residue scans per query
            for ratio in ("oracle.enumerate_witnesses.hit_ratio",
                          "moduli.nonempty_residue.hit_ratio"):
                assert metrics[ratio][0] == pytest.approx(share)
        if name == "table":
            # report scans once, and once more for the witness if non-empty
            assert metrics["moduli.nonempty_residue.calls_per_report"][0] \
                == pytest.approx(1 + share)
    # every stage is reached on some workload, so the rebinding works
    assert called == {stage for stage, _, _ in layers.STAGES}
    # and the tracer put the original functions back
    assert originals == {name: layers.resolve(c)[0]
                         for name, c, _ in layers.STAGES}
    assert hkmoduli.cli.report is hkmoduli.moduli.report


def test_self_time_subtracts_direct_children_only():
    names = [name for name, _, _ in layers.STAGES]
    oracle = names.index("oracle.enumerate_witnesses")
    bbf = names.index("lattice.bbf_square")
    div = names.index("lattice.divisibility")
    spans = [(oracle, 0, 100, -1, True),
             (bbf, 10, 30, 0, False),
             (div, 12, 20, 1, False),
             (bbf, 40, 50, 0, False),
             (bbf, 200, 210, -1, False)]
    summary = layers.summarize(names, spans)
    assert summary["self_ns"]["oracle.enumerate_witnesses"] == 70
    assert summary["self_ns"]["lattice.bbf_square"] == 12 + 10 + 10
    assert summary["self_ns"]["lattice.divisibility"] == 8
    assert summary["calls"]["lattice.bbf_square"] == 3
    assert summary["bbf_square_in_oracle"] == 2
    value, base = layers.ratios(summary)[
        "lattice.bbf_square.calls_per_oracle_query"]
    assert (value, base) == (2.0, 1)


def test_missing_function_is_reported_not_fatal():
    stages = layers.STAGES + (
        ("moduli.gone", ("hkmoduli.moduli.no_such_function",), False),)
    tracer = layers.Tracer(stages)
    assert tracer.missing == ["moduli.gone"]
    tracer.install()
    tracer.uninstall()


def test_lookup_falls_back_to_the_second_module():
    obj, where = layers.resolve(("hkmoduli.oracle.no_such_model",
                                 "hkmoduli.lattice.rank3_model"))
    assert where == "hkmoduli.lattice.rank3_model" and callable(obj)
