"""Layer lookup by dotted name and an outside-in span tracer.

The layers are the modules of the `hkmoduli` package.  The benchmark never
edits them: `Tracer` wraps each public function named in `STAGES` from
outside, by rebinding the module attribute in every `hkmoduli` module that
holds the same function object (`factorize` is bound in both `arith` and
`moduli`, `report` in both `moduli` and `cli`), so calls made inside the
package are seen as well as calls made by the benchmark.

Stage names have the form `<module>.<function>`.  Each stage lists the
dotted names it may live under, in order: a function that moved keeps its
stage name, and one that no longer exists anywhere is reported as missing
instead of stopping the run.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

# (stage name, candidate dotted names, whether its result counts as a hit)
STAGES = (
    ("arith.factorize", ("hkmoduli.arith.factorize",), False),
    ("arith.is_quadratic_residue", ("hkmoduli.arith.is_quadratic_residue",), False),
    ("arith.qr_of_ratio", ("hkmoduli.arith.qr_of_ratio",), False),
    ("arith.euler_phi", ("hkmoduli.arith.euler_phi",), False),
    ("arith.rho", ("hkmoduli.arith.rho",), False),
    ("lattice.bbf_square", ("hkmoduli.lattice.bbf_square",), False),
    ("lattice.divisibility", ("hkmoduli.lattice.divisibility",), False),
    ("lattice.is_primitive", ("hkmoduli.lattice.is_primitive",), False),
    ("lattice.gram_divisibility", ("hkmoduli.lattice.gram_divisibility",
                                   "hkmoduli.oracle.gram_divisibility"), False),
    ("moduli.decompose", ("hkmoduli.moduli.decompose",), False),
    ("moduli.component_count_detail",
     ("hkmoduli.moduli.component_count_detail",), False),
    ("moduli.nonempty_residue", ("hkmoduli.moduli.nonempty_residue",), True),
    ("moduli.is_nonempty", ("hkmoduli.moduli.is_nonempty",), False),
    ("moduli.witness", ("hkmoduli.moduli.witness",), False),
    ("moduli.thresholds", ("hkmoduli.moduli.thresholds",), False),
    ("moduli.report", ("hkmoduli.moduli.report",), False),
    ("oracle.enumerate_witnesses", ("hkmoduli.oracle.enumerate_witnesses",), True),
    ("oracle.verify_witness", ("hkmoduli.oracle.verify_witness",), False),
    ("cli.main", ("hkmoduli.cli.main",), False),
)

def resolve(candidates):
    """First of the dotted names that exists, as (object, dotted name).

    Returns (None, None) when none does.
    """
    for dotted in candidates:
        module_name, _, attr = dotted.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        obj = getattr(module, attr, None)
        if obj is not None:
            return obj, dotted
    return None, None


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "hkmoduli" or name.startswith("hkmoduli."))]


class Tracer:
    """Records one span per call of each stage, in memory.

    A span is (stage index, start ns, end ns, index of the enclosing span or
    -1, hit).  `install` rebinds the stage functions, `uninstall` restores
    them; `take_spans` hands over the spans recorded so far and clears them.
    """

    def __init__(self, stages=STAGES):
        self.names = [name for name, _, _ in stages]
        self.found = {}
        self.missing = []
        self._originals = []
        self._bound = []
        self._spans = []
        self._stack = [-1]
        for idx, (name, candidates, counts_hits) in enumerate(stages):
            fn, where = resolve(candidates)
            if fn is None:
                self.missing.append(name)
                continue
            self.found[name] = where
            self._originals.append((idx, fn, counts_hits))

    def _wrap(self, idx, fn, counts_hits):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            hit = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                hit = counts_hits and bool(result)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[pos] = (idx, t0, t1, parent, hit)

        return traced

    def install(self):
        modules = _package_modules()
        for idx, fn, counts_hits in self._originals:
            wrapper = self._wrap(idx, fn, counts_hits)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._bound.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in self._bound:
            setattr(mod, attr, fn)
        self._bound = []

    def take_spans(self):
        spans = self._spans[:]
        self._spans.clear()
        return spans


def summarize(names, spans):
    """Per-stage calls, hits and self time (ns) from one list of spans.

    A stage's self time is its span's duration minus the durations of its
    direct child spans; calls are single-threaded, so children nest inside
    their parent and never overlap.
    """
    calls = [0] * len(names)
    hits = [0] * len(names)
    total = [0] * len(names)
    child = [0] * len(spans)
    bbf_in_oracle = 0
    bbf = names.index("lattice.bbf_square")
    oracle = names.index("oracle.enumerate_witnesses")
    for idx, t0, t1, parent, hit in spans:
        calls[idx] += 1
        hits[idx] += hit
        total[idx] += t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
            if idx == bbf and spans[parent][0] == oracle:
                bbf_in_oracle += 1
    self_ns = list(total)
    for pos, (idx, _, _, _, _) in enumerate(spans):
        self_ns[idx] -= child[pos]
    return {
        "calls": dict(zip(names, calls)),
        "hits": dict(zip(names, hits)),
        "self_ns": dict(zip(names, self_ns)),
        "bbf_square_in_oracle": bbf_in_oracle,
    }


def ratios(summary):
    """The four ratios, each with its base, from one `summarize` result.

    A ratio whose base is 0 on this workload is undefined.  Its value is
    given as 0, because every per-layer metric must be a number in every
    traced run; the caller lists it as undefined next to the bases.
    """
    calls, hits = summary["calls"], summary["hits"]

    def share(num, base):
        return (num / base if base else 0.0), base

    return {
        "moduli.nonempty_residue.calls_per_report": share(
            calls["moduli.nonempty_residue"], calls["moduli.report"]),
        "moduli.nonempty_residue.hit_ratio": share(
            hits["moduli.nonempty_residue"], calls["moduli.nonempty_residue"]),
        "oracle.enumerate_witnesses.hit_ratio": share(
            hits["oracle.enumerate_witnesses"],
            calls["oracle.enumerate_witnesses"]),
        "lattice.bbf_square.calls_per_oracle_query": share(
            summary["bbf_square_in_oracle"],
            calls["oracle.enumerate_witnesses"]),
    }
