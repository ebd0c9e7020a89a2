"""Benchmark of the hkmoduli calculator: four workloads, one layer trace.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload check --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One client, one thread, closed loop: the next call starts when the last one
has returned.  The benchmark imports `hkmoduli` from `src/` of the checkout
it sits in and drives it only through its public functions.  Every output
is checked by the integer checks in `workloads.py`.

With `--trace 0` it measures for `--seconds` seconds and reports, by name
and unit, the end-to-end metrics:

    throughput_ops_s   ops completed per second of time spent in calls
    latency_p50_ms     median time of one call (a sweep, a query or a
                       Gram row; see workloads.py), with the sample count
    latency_p95_ms     95th percentile of the same samples
    setup_s            median time for a fresh interpreter to import
                       hkmoduli and hkmoduli.cli, over 24 spawns, half
                       before and half after the measured loop

`failed / attempted` (failed_frac) is in the last line's `failed` and
`attempted` and in the run record.  With `--trace 1` it reports, per stage
`<module>.<function>`, the calls and self time of one pass over the first
items of the stream, plus four ratios and the tracing overhead.  A ratio
whose base is 0 on a workload reads 0 and is named in the run record's
`undefined_ratios`.

The second-to-last line of output is the run record (interpreter, CPU
count, commit, source digest, seed, input properties, sha256 of the output
bytes of the first items); the last line is the result object.
`--workload all` runs every workload in a fresh interpreter and prints a
table of all metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from itertools import islice
from math import ceil
from pathlib import Path
from time import perf_counter, perf_counter_ns

from layers import Tracer, ratios, resolve, summarize
from workloads import WORKLOADS, Outcome, Props

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 12  # before and again after the measured loop


def _load_program():
    """Import hkmoduli from this checkout's src/, or exit 2."""
    if not (SRC / "hkmoduli" / "__init__.py").is_file():
        sys.exit("bench: no hkmoduli sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import hkmoduli
    import hkmoduli.cli  # noqa: F401
    if Path(hkmoduli.__file__).resolve().parent != SRC / "hkmoduli":
        sys.exit("bench: imported hkmoduli from %s, not from %s"
                 % (hkmoduli.__file__, SRC))


def _resolve_api(workload):
    """The workload's public functions by dotted name; missing ones are
    listed and left out, so the items that need them fail."""
    api, missing = {}, []
    for entry in workload.api:
        candidates = (entry,) if isinstance(entry, str) else entry
        obj, _ = resolve(candidates)
        if obj is None:
            missing.append(candidates[0])
        else:
            api[candidates[0]] = obj
    return api, missing


_IMPORT_TIMER = (
    "import time; t0 = time.perf_counter(); import hkmoduli, hkmoduli.cli; "
    "print(repr(time.perf_counter() - t0))")


def time_imports(spawns=SETUP_SPAWNS):
    """Times a fresh interpreter spends importing hkmoduli and hkmoduli.cli,
    timed inside each of `spawns` spawned interpreters.

    The interpreter's own start-up is left out: it does not depend on this
    program and varies with the machine's site packages.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", _IMPORT_TIMER]
    times = []
    for _ in range(spawns):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        times.append(float(proc.stdout))
    return times


def run_item(workload, api, item, props):
    """Time one call, then check its output outside the timed region.

    Returns (Outcome, ns).  A call that raises, or output the checks cannot
    even parse, fails every op of the item.
    """
    t0 = perf_counter_ns()
    try:
        raw = workload.call(api, item)
    except Exception as exc:  # the loop must go on; the item is counted failed
        ns = perf_counter_ns() - t0
        ops = workload.ops_of(item)
        return Outcome(ops, ops, ("error: %r\n" % (exc,)).encode()), ns
    ns = perf_counter_ns() - t0
    try:
        return workload.check(item, raw, props), ns
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        ops = workload.ops_of(item)
        return Outcome(ops, ops, ("bad output: %r\n" % (exc,)).encode()), ns


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, ceil(p / 100 * len(sorted_values)) - 1)]


def measure(workload, api, seed, seconds):
    """Closed loop over the item stream for `seconds` (and at least the
    first `digest_items` items, whose output bytes are hashed)."""
    props = Props()
    digest = hashlib.sha256()
    samples, ops, failed, busy = [], 0, 0, 0
    start = perf_counter()
    for i, item in enumerate(workload.items(seed)):
        if i >= workload.digest_items and perf_counter() - start >= seconds:
            break
        outcome, ns = run_item(workload, api, item, props)
        samples.append(ns)
        busy += ns
        ops += outcome.ops
        failed += outcome.failed
        if i < workload.digest_items:
            digest.update(outcome.output)
    samples.sort()
    metrics = {
        "throughput_ops_s": (ops / (busy / 1e9), "ops/s"),
        "latency_p50_ms": (percentile(samples, 50) / 1e6, "ms"),
        "latency_p95_ms": (percentile(samples, 95) / 1e6, "ms"),
    }
    record = {
        "latency_samples": len(samples),
        "samples_beyond_p95": len(samples) - ceil(0.95 * len(samples)),
        "props": props.as_dict(),
        "digest_sha256": digest.hexdigest(),
    }
    return metrics, ops, failed, record


def _run_pass(workload, api, items):
    props = Props()
    digest = hashlib.sha256()
    busy = ops = failed = 0
    for item in items:
        outcome, ns = run_item(workload, api, item, props)
        busy += ns
        ops += outcome.ops
        failed += outcome.failed
        digest.update(outcome.output)
    return busy, ops, failed, digest.hexdigest(), props


def trace(workload, seed, seconds):
    """Alternate untraced and traced passes over the first `digest_items`
    items until `seconds` have passed (at least one pair).

    Calls repeat exactly from pass to pass; self times are the median over
    the traced passes; the overhead is the median traced pass time over
    the median untraced one.
    """
    items = list(islice(workload.items(seed), workload.digest_items))
    tracer = Tracer()
    plain_api, _ = _resolve_api(workload)
    plain_ns, traced_ns, summaries, digests = [], [], [], []
    ops = failed = 0
    start = perf_counter()
    while True:
        busy, n, bad, digest, props = _run_pass(workload, plain_api, items)
        plain_ns.append(busy)
        ops, failed = ops + n, failed + bad
        digests.append(digest)
        tracer.install()
        try:
            traced_api, _ = _resolve_api(workload)
            busy, n, bad, digest, _ = _run_pass(workload, traced_api, items)
        finally:
            tracer.uninstall()
        traced_ns.append(busy)
        ops, failed = ops + n, failed + bad
        digests.append(digest)
        summaries.append(summarize(tracer.names, tracer.take_spans()))
        if perf_counter() - start >= seconds:
            break
    first = summaries[0]
    metrics = {}
    for name in tracer.names:
        metrics[name + ".calls"] = (first["calls"][name], "count")
        metrics[name + ".self_s"] = (statistics.median(
            s["self_ns"][name] for s in summaries) / 1e9, "s")
    ratio_bases = {}
    for name, (value, base) in ratios(first).items():
        metrics[name] = (value, "ratio")
        ratio_bases[name] = base
    overhead = statistics.median(traced_ns) / statistics.median(plain_ns)
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    self_total = sum(metrics[n + ".self_s"][0] for n in tracer.names) or 1.0
    shares = sorted(((metrics[n + ".self_s"][0] / self_total, n)
                     for n in tracer.names), reverse=True)
    record = {
        "passes": len(summaries),
        "items": len(items),
        "calls_repeat_exactly": all(s["calls"] == first["calls"]
                                    for s in summaries),
        "traced_output_matches": len(set(digests)) == 1,
        "digest_sha256": digests[0],
        "props": props.as_dict(),
        "ratio_bases": ratio_bases,
        "undefined_ratios": sorted(n for n, b in ratio_bases.items() if not b),
        "self_time_shares": {n: round(s, 4) for s, n in shares[:6]},
        "missing_stages": tracer.missing,
        "stages_found_at": tracer.found,
    }
    return metrics, ops, failed, record


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "hkmoduli").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_one(name, seed, seconds, traced):
    workload = WORKLOADS[name]()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "commit": _commit(), "source_sha256": _source_sha256(),
    }
    if traced:
        metrics, ops, failed, extra = trace(workload, seed, seconds)
    else:
        # the first spawn may write the bytecode cache; a CLI user pays that
        # once.  The spawns before and after the loop see the machine at two
        # times, so a short slow spell moves their median less.
        setup = time_imports(SETUP_SPAWNS + 1)[1:]
        api, missing = _resolve_api(workload)
        metrics, ops, failed, extra = measure(workload, api, seed, seconds)
        setup += time_imports()
        metrics["setup_s"] = (statistics.median(setup), "s")
        extra["setup_spawns"] = len(setup)
        extra["missing_api"] = missing
    record.update(extra)
    record["attempted"] = ops
    record["failed"] = failed
    record["failed_frac"] = failed / ops if ops else 1.0
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        # tracing that changes an output invalidates the traced run
        "correct": (failed == 0 and ops > 0
                    and record.get("traced_output_matches", True)),
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def run_all(seed, seconds, traced):
    """Each workload in a fresh interpreter; a table, then one JSON line."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=175)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit("bench: workload %s exited with %d"
                     % (name, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            results["%s.%s" % (name, metric)] = entry
        results["%s.failed_frac" % name] = {
            "value": record["failed_frac"], "unit": "ratio"}
        if not traced:
            results["%s.latency_samples" % name] = {
                "value": record["latency_samples"], "unit": "count"}
    width = max(map(len, results))
    for key, entry in results.items():
        print("%-*s %14.6g %s" % (width, key, entry["value"], entry["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": results}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
