"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads table,check --seeds 1-10 --seconds 10

Runs `run.py --trace 0` once per (workload, seed), one run at a time, and
prints one JSON object: per workload and metric the ten values, their
median, quartiles (`statistics.quantiles(values, n=4)`) and the
interquartile range as a share of the median, plus the output digest of
every seed.  Each of the `sets` in `bench/baseline.json` is one output of
this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="table,check,verify,gram")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    out = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads.split(","):
        values, digests, failed = {}, {}, 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=175, check=True)
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            failed += result["failed"]
            digests[seed] = record["digest_sha256"]
            out.setdefault("commit", record["commit"])
            out.setdefault("source_sha256", record["source_sha256"])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, ([], entry["unit"]))[0].append(
                    entry["value"])
        summary = {}
        for metric, (vals, unit) in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {
                "unit": unit, "median": statistics.median(vals),
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "values": vals,
            }
        out["workloads"][name] = {"failed": failed, "metrics": summary,
                                  "digests": digests}
        print("%s: %s" % (name, ", ".join(
            "%s %.4g (spread %.3f)" % (m, s["median"], s["spread"])
            for m, s in summary.items())), file=sys.stderr)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
