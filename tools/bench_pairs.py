"""Alternating benchmark pairs: a parent revision against the working tree.

Usage, from the root of a source checkout:

    python3 tools/bench_pairs.py --parent HEAD --workload table,check \\
        --seed 1 --seconds 5 --pairs 10 --out BENCH.json

The parent revision is extracted with `git archive` into a temporary
directory.  For each workload, each pair runs

    python3 bench/run.py --workload W --seed S --seconds X --trace 0

once in the parent's copy and once in the working tree, each in a fresh
interpreter, which side goes first alternating from pair to pair, so slow
drift of the machine falls on both sides alike.  Each side runs its own
bench/ and its own src/.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, and in how many pairs the working tree was better (ties
count for neither side).  `gain` says the working tree won at least nine
tenths of the pairs and its median beats the parent's by more than the
spread of the parent's runs (the distance between their quartiles);
`within_bound` says its median is no worse than the parent's by more than
the metric's bound; `unresolved` says that bound cannot be told from the
noise: the spread of the parent's runs is wider than the bound (times the
parent's median), and not every run of the working tree beats every run of
the parent.  The output digests and the source digests (`source_sha256` of
bench/run.py, a hash of src/hkmoduli) of both sides are printed and kept
in every run, so a change of output bytes shows, and so does which source
each side ran.  `--out` receives every run and the summary as
JSON.

    python3 tools/bench_pairs.py --trajectory [BENCH_21.json ...]

reads the records this script wrote, in the order given (by default
every BENCH_<n>.json at the root of the checkout, in the order of n), and
prints, per workload and end-to-end metric, the product of the
change/parent medians over all of them and over the resolved ones only
(`gain` true).  Each record was measured in one session, so its ratio
holds even when the machine drifted between sessions; the raw medians of
two records do not compare.  A break is named wherever a record's parent
sources (its runs' `source_sha256`) differ from the previous record's
change sources, and the products start again after it.  A link where
either record carries no source digests is not checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(revision: str, into: Path) -> str:
    """The commit `revision` names, with its files extracted under `into`."""
    commit = subprocess.run(["git", "rev-parse", "--verify", revision],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             pair: int, side: str) -> dict:
    """One untraced benchmark run in `checkout`: its result object, with the
    run record's output digest and source digest added.  A run that exits non-zero ends the
    whole comparison with exit 1, after writing which run it was, its exit
    code and its stderr to stderr."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write("%s: pair %d, %s side: bench/run.py exited %d\n%s"
                         % (workload, pair, side, proc.returncode,
                            proc.stderr))
        sys.exit(1)
    *_, record, result = proc.stdout.splitlines()
    out = json.loads(result)
    record = json.loads(record)["record"]
    for key in ("digest_sha256", "source_sha256"):
        out[key] = record[key]
    return out


def digest_line(workload: str, runs: list[dict]) -> str:
    """The per-workload line: each side's output digests, source digests
    (the first 8 hex digits of each distinct one) and failed operations."""
    def seen(side: str, key: str) -> str:
        return ",".join(sorted({r[side][key][:8] for r in runs}))

    return ("%s: digests parent %s, change %s; sources parent %s, change %s; "
            "failed ops parent %d, change %d" % (
                workload, seen("parent", "digest_sha256"),
                seen("change", "digest_sha256"),
                seen("parent", "source_sha256"),
                seen("change", "source_sha256"),
                sum(r["parent"]["failed"] for r in runs),
                sum(r["change"]["failed"] for r in runs)))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the pair wins and the verdicts."""
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        sides = {side: [r[side]["metrics"][name]["value"] for r in runs]
                 for side in ("parent", "change")}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: quartiles(values) for side, values in sides.items()}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gain = change - parent if higher else parent - change
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        if higher:
            separated = min(sides["change"]) > max(sides["parent"])
        else:
            separated = max(sides["change"]) < min(sides["parent"])
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], **stats,
            "wins": wins, "pairs": len(runs),
            "gain": wins >= 0.9 * len(runs) and gain > iqr,
            "within_bound": gain >= -spec["bound"] * parent,
            "unresolved": iqr > spec["bound"] * parent and not separated,
        }
    return out


def sources(record: dict, side: str) -> frozenset:
    """The source digests `side` ran over every workload and run of a
    record; empty for a record written before runs kept them."""
    return frozenset(run[side]["source_sha256"]
                     for entry in record["workloads"].values()
                     for run in entry["runs"] if "source_sha256" in run[side])


def chains(records: list[tuple[str, dict]]) -> list[list[tuple[str, dict]]]:
    """The named records, in order, cut into chains: a new chain starts
    where a record's parent sources differ from the previous record's
    change sources."""
    out = [records[:1]]
    for (_, before), named in zip(records, records[1:]):
        change, parent = sources(before, "change"), sources(named[1], "parent")
        if change and parent and change != parent:
            out.append([])
        out[-1].append(named)
    return out


def chained(records: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, [product, records] of the change/parent
    medians over all records (`all`) and over those with a gain
    (`resolved`)."""
    out: dict = {}
    for record in records:
        for workload, entry in record["workloads"].items():
            for spec in metrics:
                s = entry["summary"][spec["name"]]
                row = out.setdefault(workload, {}).setdefault(
                    spec["name"], {"all": [1.0, 0], "resolved": [1.0, 0]})
                for kind in ("all", "resolved") if s["gain"] else ("all",):
                    row[kind][0] *= s["change"]["median"] / s["parent"][
                        "median"]
                    row[kind][1] += 1
    return out


def trajectory_lines(records: list[tuple[str, dict]],
                     metrics: list[dict]) -> list[str]:
    """The `--trajectory` report of the named records, one line a row."""
    def short(digests: frozenset) -> str:
        return ",".join(sorted(d[:8] for d in digests))

    lines: list[str] = []
    last = None
    for chain in chains(records):
        first_name, first = chain[0]
        if last is not None:
            lines.append("break before %s: parent sources %s, previous "
                         "change sources %s" % (
                             first_name, short(sources(first, "parent")),
                             short(sources(last, "change"))))
        last = chain[-1][1]
        unchecked = sum(not (sources(a, "change") and sources(b, "parent"))
                        for (_, a), (_, b) in zip(chain, chain[1:]))
        lines.append("%s .. %s: %d records (%d of %d links unchecked: no "
                     "source digests), change/parent medians chained" % (
                         first_name, chain[-1][0], len(chain), unchecked,
                         len(chain) - 1))
        for workload, rows in chained([r for _, r in chain],
                                      metrics).items():
            for name, row in rows.items():
                lines.append("  %-8s %-18s all x%.2f (%d)  resolved x%.2f "
                             "(%d)" % (workload, name, *row["all"],
                                       *row["resolved"]))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent",
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", help="comma separated workload names")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trajectory", type=Path, nargs="*",
                        metavar="RECORD",
                        help="chain the ratios of these records, in this "
                        "order (default: every BENCH_<n>.json, by n) "
                        "instead of running pairs")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.trajectory is not None:
        numbered = {int(path.stem[6:]): path
                    for path in ROOT.glob("BENCH_*.json")
                    if path.stem[6:].isdigit()}
        paths = args.trajectory or [numbered[i] for i in sorted(numbered)]
        if not paths:
            parser.error("no BENCH_*.json records under %s" % ROOT)
        records = [(path.stem, json.loads(path.read_text()))
                   for path in paths]
        print("\n".join(trajectory_lines(records, metrics)))
        return 0
    missing = [name for name in ("parent", "workload", "seed", "seconds",
                                 "out") if getattr(args, name) is None]
    if missing:
        parser.error("the following arguments are required: %s"
                     % ", ".join("--" + name for name in missing))
    if args.pairs < 2:
        parser.error("need at least 2 pairs, got %d" % args.pairs)
    report = {"parent": None, "change": "working tree", "seed": args.seed,
              "seconds": args.seconds, "pairs": args.pairs,
              "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": Path(tmp), "change": ROOT}
        report["parent"] = extract(args.parent, checkouts["parent"])
        for workload in args.workload.split(","):
            runs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change",
                                                                "parent")
                runs.append({"first": order[0], **{
                    side: run_once(checkouts[side], workload, args.seed,
                                   args.seconds, i, side)
                    for side in order}})
            summary = summarize(runs, metrics)
            report["workloads"][workload] = {"summary": summary,
                                             "runs": runs}
            print(digest_line(workload, runs))
            for name, s in summary.items():
                print("  %-18s parent %12.6g [%.6g, %.6g]  change %12.6g "
                      "[%.6g, %.6g]  wins %d/%d  gain %s  within bound %s  "
                      "unresolved %s"
                      % (name, s["parent"]["median"], s["parent"]["q1"],
                         s["parent"]["q3"], s["change"]["median"],
                         s["change"]["q1"], s["change"]["q3"], s["wins"],
                         s["pairs"], s["gain"], s["within_bound"],
                         s["unresolved"]))
            sys.stdout.flush()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
