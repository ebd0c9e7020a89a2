"""The four workloads: seeded inputs, the timed call, the output checks.

Each workload turns a seed into an endless, deterministic stream of items.
An item is one call a user makes and waits for; it is made of one or more
ops, the unit `throughput_ops_s` counts:

    table   item: one `cli.main(["table", ..., "--format", "csv"])` sweep;
            op: one CSV row.
    check   item and op: one `cli.main(["check", ..., "--format", "json"])`.
    verify  item and op: one query checked against the brute-force oracle.
    gram    item: one row a of the criterion-1 grid at one (family, n);
            op: one Gram-matrix divisibility check.

Inputs are stratified so that every seed sees nearly the same mix of the
properties the cost depends on (the family and n of a sweep, the size of
t, emptiness), while the concrete queries differ from seed to seed.

The checks below are plain integer arithmetic written here; they call
nothing in `hkmoduli`, so a wrong answer cannot vouch for itself.
"""

from __future__ import annotations

import csv
import io
import json
import random
from bisect import bisect_right
from contextlib import redirect_stdout
from math import gcd
from typing import NamedTuple

FAMILIES = ("k3n", "kum")
_GOLDEN = (5 ** 0.5 - 1) / 2


def m_of(family, n):
    return n - 1 if family == "k3n" else n + 1


def divisors(x):
    return [k for k in range(1, x + 1) if x % k == 0]


def t_bucket(t):
    """Histogram bucket of t: the smallest power of two >= t."""
    return "t<=%d" % (1 << (t - 1).bit_length())


def witness_ok(family, n, d, t, a, b, e):
    """The class a(f + eg) + b delta has square 2d, divisibility t and is
    primitive, with e >= 1."""
    m = m_of(family, n)
    return (e >= 1 and 2 * a * a * e - 2 * b * b * m == 2 * d
            and gcd(a, 2 * b * m) == t and gcd(a, b) == 1)


def answer_ok(family, n, d, t, non_empty, components, wit, must_be_nonempty):
    """Consistency of one reported answer: components >= 1 exactly when the
    space is non-empty, exactly when a witness is given, and the witness is
    a valid class; a query built to be non-empty must be reported so."""
    if not isinstance(non_empty, bool) or not isinstance(components, int):
        return False
    if (components >= 1) != non_empty or (wit is not None) != non_empty:
        return False
    if must_be_nonempty and not non_empty:
        return False
    return wit is None or witness_ok(family, n, d, t, *wit)


class Props:
    """Input properties of the items measured: non-empty share, t sizes."""

    def __init__(self):
        self.queries = 0
        self.non_empty = 0
        self.max_t = 0
        self.t_hist = {}

    def add(self, t, non_empty):
        """Count one query; non_empty is None where emptiness is not asked
        (the gram workload, whose t is the divisibility of a class)."""
        if non_empty is not None:
            self.queries += 1
            self.non_empty += non_empty
        self.max_t = max(self.max_t, t)
        key = t_bucket(t)
        self.t_hist[key] = self.t_hist.get(key, 0) + 1

    def as_dict(self):
        hist = sorted(self.t_hist.items(), key=lambda kv: int(kv[0][3:]))
        return {
            "queries": self.queries,
            "non_empty_share": (self.non_empty / self.queries
                                if self.queries else None),
            "max_t": self.max_t,
            "t_hist": dict(hist),
        }


class Outcome(NamedTuple):
    """What the checks made of one item: ops, failed ops, output bytes."""

    ops: int
    failed: int
    output: bytes


def _run_cli(main, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------- table

_CSV_HEADER = [
    "family", "n", "d", "t", "non_empty", "components",
    "witness_a", "witness_b", "witness_e",
    "bpf_some_component", "va_some_component",
    "fujita_power", "applies_to_all_components",
]


def _table_row_ok(family, n, d, t, row):
    """One CSV row answers the (d, t) cell it should, consistently."""
    if len(row) != len(_CSV_HEADER) or row[:4] != [family, str(n), str(d),
                                                   str(t)]:
        return False
    try:
        non_empty = {"0": False, "1": True}[row[4]]
        components = int(row[5])
        cells = row[6:9]
        wit = None if cells == ["", "", ""] else tuple(map(int, cells))
    except (KeyError, ValueError):
        return False
    return answer_ok(family, n, d, t, non_empty, components, wit, False)


class Table:
    name = "table"
    api = ("hkmoduli.cli.main",)
    digest_items = 46
    n_range = (2, 24)
    d_lo_max = 300
    d_width = 40

    def items(self, seed):
        """Every round sweeps each (family, n) once, in a shuffled order,
        over a seeded window of 40 values of d and every t | 2m."""
        rng = random.Random(seed)
        combos = [(f, n) for f in FAMILIES
                  for n in range(self.n_range[0], self.n_range[1] + 1)]
        while True:
            rng.shuffle(combos)
            for family, n in combos:
                lo = rng.randint(1, self.d_lo_max)
                ts = divisors(2 * m_of(family, n))
                yield (family, n, lo, lo + self.d_width - 1, ts)

    def call(self, api, item):
        family, n, lo, hi, ts = item
        return _run_cli(api["hkmoduli.cli.main"], [
            "table", "--family", family, "--n", str(n),
            "--d-range", "%d..%d" % (lo, hi),
            "--t", ",".join(map(str, ts)), "--format", "csv"])

    def ops_of(self, item):
        _, _, lo, hi, ts = item
        return (hi - lo + 1) * len(ts)

    def check(self, item, raw, props):
        family, n, lo, hi, ts = item
        rc, text = raw
        expected = [(t, d) for t in ts for d in range(lo, hi + 1)]
        rows = list(csv.reader(io.StringIO(text)))
        if rc != 0 or not rows or rows[0] != _CSV_HEADER:
            return Outcome(len(expected), len(expected), text.encode())
        body = rows[1:]
        failed = abs(len(body) - len(expected))
        for (t, d), row in zip(expected, body):
            ok = _table_row_ok(family, n, d, t, row)
            failed += not ok
            props.add(t, ok and row[4] == "1")
        return Outcome(len(expected), min(failed, len(expected)),
                       text.encode())


# ---------------------------------------------------------------- check

class Check:
    name = "check"
    api = ("hkmoduli.cli.main",)
    digest_items = 72
    n_range = (2, 400)

    def __init__(self):
        # Every (family, n, t) with t >= 3 dividing 2m, weighted as "pick the
        # family, then n, then a divisor >= 3 of 2m, uniformly", sorted by t.
        self.pop = []
        n_lo, n_hi = self.n_range
        for family in FAMILIES:
            for n in range(n_lo, n_hi + 1):
                ts = [t for t in divisors(2 * m_of(family, n)) if t >= 3]
                self.pop.extend((t, family, n, 1.0 / len(ts)) for t in ts)
        self.pop.sort()
        self.cum, acc = [], 0.0
        for entry in self.pop:
            acc += entry[3]
            self.cum.append(acc)

    def items(self, seed):
        """Queries alternate between a d built to make the space non-empty
        and a random d.  (family, n, t) follows a golden-ratio sequence with
        a seeded start over the weighted population, so every seed covers
        the t range evenly and in the same proportions."""
        rng = random.Random(seed)
        phase = rng.random()
        total = self.cum[-1]
        k = 0
        while True:
            u = (phase + k * _GOLDEN) % 1.0
            pos = min(bisect_right(self.cum, u * total), len(self.pop) - 1)
            t, family, n, _ = self.pop[pos]
            yield self._query(rng, family, n, t, k % 2 == 0)
            k += 1

    @staticmethod
    def _query(rng, family, n, t, built):
        tsq = t * t
        if not built:
            return (family, n, rng.randint(1, 3 * tsq), t, False)
        b = rng.randint(1, tsq)
        while gcd(b, t) != 1:
            b = rng.randint(1, tsq)
        base = (-b * b * m_of(family, n)) % tsq
        d = base + tsq * rng.randint(0 if base else 1, 2)
        return (family, n, d, t, True)

    def call(self, api, item):
        family, n, d, t, _ = item
        return _run_cli(api["hkmoduli.cli.main"], [
            "check", "--family", family, "--n", str(n), "--d", str(d),
            "--t", str(t), "--format", "json"])

    def ops_of(self, item):
        return 1

    def check(self, item, raw, props):
        family, n, d, t, built = item
        rc, text = raw
        ok = False
        non_empty = False
        if rc == 0:
            try:
                doc = json.loads(text)
                non_empty = doc["non_empty"]
                wit = doc["witness"]
                ok = ([doc["family"], doc["n"], doc["d"], doc["t"]]
                      == [family, n, d, t]
                      and (wit is None or len(wit) == 3)
                      and answer_ok(family, n, d, t, non_empty,
                                    doc["components"],
                                    None if wit is None else tuple(wit),
                                    built))
            except (ValueError, KeyError, TypeError):
                ok = False
        props.add(t, bool(ok and non_empty))
        return Outcome(1, not ok, text.encode())


# --------------------------------------------------------------- verify

class Verify:
    name = "verify"
    api = ("hkmoduli.lattice.Family", "hkmoduli.moduli.ModuliQuery",
           "hkmoduli.moduli.is_nonempty", "hkmoduli.moduli.witness",
           "hkmoduli.oracle.enumerate_witnesses",
           "hkmoduli.oracle.verify_witness")
    digest_items = 360
    n_range = (2, 10)
    d_max = 200

    def items(self, seed):
        """Seeded sample of the acceptance-criterion-2 grid: every round
        visits each (family, n, t | 2m) once, in a shuffled order, with a
        random d."""
        rng = random.Random(seed)
        combos = [(f, n, t) for f in FAMILIES
                  for n in range(self.n_range[0], self.n_range[1] + 1)
                  for t in divisors(2 * m_of(f, n))]
        while True:
            rng.shuffle(combos)
            for family, n, t in combos:
                yield (family, n, rng.randint(1, self.d_max), t)

    def call(self, api, item):
        family, n, d, t = item
        q = api["hkmoduli.moduli.ModuliQuery"](
            api["hkmoduli.lattice.Family"](family), n, d, t)
        formula = api["hkmoduli.moduli.is_nonempty"](q)
        hits = api["hkmoduli.oracle.enumerate_witnesses"](q, stop_after=1)
        wit = api["hkmoduli.moduli.witness"](q)
        verified = (wit is not None
                    and api["hkmoduli.oracle.verify_witness"](wit, q))
        return formula, hits, wit, verified

    def ops_of(self, item):
        return 1

    def check(self, item, raw, props):
        family, n, d, t = item
        formula, hits, wit, verified = raw
        hit = tuple(hits[0]) if hits else None
        wit = None if wit is None else tuple(wit)
        ok = (isinstance(formula, bool) and formula == bool(hits)
              and (wit is not None) == formula and verified == formula
              and (hit is None or witness_ok(family, n, d, t, *hit))
              and (wit is None or witness_ok(family, n, d, t, *wit)))
        props.add(t, bool(ok and formula))
        line = "%s,%d,%d,%d,%d,%s,%s\n" % (family, n, d, t, formula,
                                           hit, wit)
        return Outcome(1, not ok, line.encode())


# ----------------------------------------------------------------- gram

class Gram:
    name = "gram"
    api = ("hkmoduli.lattice.Family", "hkmoduli.lattice.LatticeClass",
           "hkmoduli.lattice.divisibility",
           ("hkmoduli.lattice.rank3_model", "hkmoduli.oracle.rank3_model"),
           ("hkmoduli.lattice.gram_divisibility",
            "hkmoduli.oracle.gram_divisibility"))
    digest_items = 82
    n_range = (2, 20)
    bound = 20

    def items(self, seed):
        """Criterion 1 on a seeded order of (family, n) pairs; each pair is
        split into one item per a in [-20, 20]."""
        rng = random.Random(seed)
        pairs = [(f, n) for f in FAMILIES
                 for n in range(self.n_range[0], self.n_range[1] + 1)]
        while True:
            rng.shuffle(pairs)
            for family, n in pairs:
                for a in range(-self.bound, self.bound + 1):
                    yield (family, n, a)

    def call(self, api, item):
        family, n, a = item
        fam = api["hkmoduli.lattice.Family"](family)
        lattice_class = api["hkmoduli.lattice.LatticeClass"]
        closed = api["hkmoduli.lattice.divisibility"]
        gram = api["hkmoduli.lattice.gram_divisibility"]
        model = api["hkmoduli.lattice.rank3_model"](fam, n)
        es = range(1, self.bound + 1)
        out = []
        for b in range(-self.bound, self.bound + 1):
            if a == 0 and b == 0:
                continue
            out.append((b, closed(lattice_class(fam, n, a, b, 1)),
                        [gram(model, (a, a * e, b)) for e in es]))
        return out

    def ops_of(self, item):
        width = 2 * self.bound + 1
        return (width - (item[2] == 0)) * self.bound

    def check(self, item, raw, props):
        family, n, a = item
        two_m = 2 * m_of(family, n)
        ops = self.ops_of(item)
        failed = abs(ops - sum(len(gs) for _, _, gs in raw))
        for b, closed, grams in raw:
            expected = gcd(a, two_m * b)
            failed += sum(g != closed or g != expected for g in grams)
            props.add(expected, None)
        text = "".join("%s,%d,%d,%d,%d,%s\n" % (family, n, a, b, closed,
                                                ",".join(map(str, grams)))
                       for b, closed, grams in raw)
        return Outcome(ops, min(failed, ops), text.encode())


WORKLOADS = {w.name: w for w in (Table, Check, Verify, Gram)}
