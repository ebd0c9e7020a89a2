"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
without -s pytest still shows them for failing criteria.  Grid criteria
collect every offender before failing, so a red run names the first few
counterexamples instead of just dying.
"""

import time
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

from hkmoduli.arith import is_quadratic_residue
from hkmoduli.bundles import BundleSpec, SurfaceKind, induced_bundle_status, \
    max_k_very_ample
from hkmoduli.lattice import Family, LatticeClass, divisibility, \
    full_model, gram_divisibility, rank3_model
from hkmoduli.moduli import ModuliQuery, _is_class, component_count, \
    is_nonempty, prime_power_connected, report, thresholds, witness
from hkmoduli.oracle import class_count, enumerate_witnesses, verify_witness


def divisors(m):
    # the positive divisors of m, increasing
    low = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    return low + [m // k for k in reversed(low) if k * k != m]


K3 = Family.K3HILB
KUM = Family.KUMMER
FAMILIES = (K3, KUM)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print("CRITERION %d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def _query_grid(n_max: int):
    for family in FAMILIES:
        for n in range(2, n_max + 1):
            for t in divisors(2 * family.m(n)):
                for d in range(1, 201):
                    yield ModuliQuery(family, n, d, t)


def test_criterion_1_divisibility_agrees_with_gram_oracle():
    # Two checks per (family, n, a, b, e), both against the Gram path:
    # the closed-form divisibility of `lattice`, and the class check that
    # the calculator and the oracle run, `moduli._is_class`, which must hold
    # at the Gram square and divisibility exactly when the class is
    # primitive.  `LatticeClass` and `divisibility` stay until the benchmark,
    # which names them, stops doing so.
    start = time.perf_counter()
    offenders = []
    checks = 0
    for family in FAMILIES:
        for n in range(2, 21):
            model = rank3_model(family, n)
            m = family.m(n)
            for a in range(-20, 21):
                for b in range(-20, 21):
                    if a == 0 and b == 0:
                        continue
                    # the closed form does not involve e; the Gram vector
                    # does, so it is recomputed for every e
                    dv = divisibility(LatticeClass(family, n, a, b, 1))
                    primitive = gcd(a, b) == 1
                    # v = u + e*g' with u = (a, 0, b) and g' = (0, a, 0), so
                    # v.v = s0 + 2e*s1 + e^2*s2 from three pairings
                    u, g = (a, 0, b), (0, a, 0)
                    s0, s1, s2 = (model.pair(u, u), model.pair(u, g),
                                  model.pair(g, g))
                    for e in range(1, 21):
                        t_gram = gram_divisibility(model, (a, a * e, b))
                        d_gram = (s0 + 2 * e * s1 + e * e * s2) // 2
                        if (t_gram != dv or _is_class(a, b, e, m, d_gram,
                                                      t_gram) != primitive):
                            offenders.append((family, n, a, b, e))
                        checks += 1
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 5.0
    _verdict(1, ok, "%d checks, %d disagreements, %.2fs (budget 5s)%s"
             % (checks, len(offenders), elapsed,
                "; first: %r" % offenders[:3] if offenders else ""))


def test_criterion_2_nonemptiness_matches_oracle_search():
    start = time.perf_counter()
    offenders = []
    bad_witnesses = []
    queries = 0
    for q in _query_grid(30):
        formula = is_nonempty(q)
        oracle = bool(enumerate_witnesses(q, stop_after=1))
        if formula != oracle:
            offenders.append((q, formula, oracle))
        if formula:
            w = witness(q)
            if w is None or not verify_witness(w, q):
                bad_witnesses.append((q, w))
        queries += 1
    elapsed = time.perf_counter() - start
    ok = not offenders and not bad_witnesses and elapsed < 60.0
    _verdict(2, ok,
             "%d queries, %d formula/oracle splits, %d bad witnesses, "
             "%.2fs (budget 60s)%s"
             % (queries, len(offenders), len(bad_witnesses), elapsed,
                "; first: %r" % (offenders + bad_witnesses)[:3]
                if offenders or bad_witnesses else ""))


def test_criterion_3_low_divisibility_spaces_connected():
    offenders = []
    checked = 0
    for family in FAMILIES:
        for n in range(2, 13):
            for t in (1, 2):
                for d in range(1, 201):
                    q = ModuliQuery(family, n, d, t)
                    if is_nonempty(q):
                        checked += 1
                        if component_count(q) != 1:
                            offenders.append((q, component_count(q)))
    _verdict(3, not offenders,
             "%d non-empty t<=2 spaces, %d with count != 1%s"
             % (checked, len(offenders),
                "; first: %r" % offenders[:3] if offenders else ""))


def test_criterion_4_prime_power_divisibility_connected():
    offenders = []
    applicable = 0
    for q in _query_grid(10):
        if prime_power_connected(q) and is_nonempty(q):
            applicable += 1
            if component_count(q) != 1:
                offenders.append((q, component_count(q)))
    _verdict(4, not offenders,
             "%d applicable queries, %d violations%s"
             % (applicable, len(offenders),
                "; first: %r" % offenders[:3] if offenders else ""))


def test_criterion_5_count_positive_iff_nonempty():
    offenders = []
    queries = 0
    for q in _query_grid(10):
        c = component_count(q)
        ne = is_nonempty(q)
        if (c >= 1) != ne:
            offenders.append((q, c, ne))
        queries += 1
    for q, c, ne in offenders[:10]:
        print("count/non-emptiness offender: %r count=%d non_empty=%r"
              % (q, c, ne))
    _verdict(5, not offenders, "%d queries, %d count/non-emptiness splits"
             % (queries, len(offenders)))


def test_criterion_6_threshold_pins():
    problems = []

    def expect(cond, label):
        if not cond:
            problems.append(label)

    for family in FAMILIES:
        for n in range(2, 13):
            th = thresholds(ModuliQuery(family, n, 1, 2))
            expect(th.tau == Fraction(2), "tau(2) at n=%d" % n)
            expect(th.d_min_bpf == n + 3,
                   "%s t=2 d_min_bpf n=%d" % (family.value, n))
            expect(th.d_min_va == n + 5,
                   "%s t=2 d_min_va n=%d" % (family.value, n))
            for d_min, attr in ((n + 3, "bpf"), (n + 5, "very_ample")):
                lo = thresholds(ModuliQuery(family, n, d_min - 1, 2))
                mid = thresholds(ModuliQuery(family, n, d_min, 2))
                hi = thresholds(ModuliQuery(family, n, d_min + 1, 2))
                expect(not getattr(lo, attr) and getattr(mid, attr)
                       and getattr(hi, attr),
                       "%s t=2 %s boundary n=%d" % (family.value, attr, n))
    # t = 3 at n = 2: bounds 23/4 and 8 for K3HILB, 6 and 33/4 for KUMMER
    th = thresholds(ModuliQuery(K3, 2, 1, 3))
    expect(th.tau == Fraction(9, 4), "tau(3)")
    expect((th.d_min_bpf, th.d_min_va) == (6, 8), "k3n t=3 n=2 d_mins")
    expect(not thresholds(ModuliQuery(K3, 2, 5, 3)).bpf, "k3n t3 d5")
    expect(thresholds(ModuliQuery(K3, 2, 6, 3)).bpf, "k3n t3 d6")
    expect(not thresholds(ModuliQuery(K3, 2, 7, 3)).very_ample, "k3n t3 d7")
    expect(thresholds(ModuliQuery(K3, 2, 8, 3)).very_ample, "k3n t3 d8")
    th = thresholds(ModuliQuery(KUM, 2, 1, 3))
    expect((th.d_min_bpf, th.d_min_va) == (6, 9), "kum t=3 n=2 d_mins")
    expect(not thresholds(ModuliQuery(KUM, 2, 5, 3)).bpf, "kum t3 d5")
    expect(thresholds(ModuliQuery(KUM, 2, 6, 3)).bpf, "kum t3 d6")
    expect(not thresholds(ModuliQuery(KUM, 2, 8, 3)).very_ample, "kum t3 d8")
    expect(thresholds(ModuliQuery(KUM, 2, 9, 3)).very_ample, "kum t3 d9")
    # tau pins
    expect(thresholds(ModuliQuery(K3, 2, 1, 4)).tau == Fraction(8, 3),
           "tau(4)")
    expect(thresholds(ModuliQuery(K3, 2, 1, 5)).tau == Fraction(25, 8),
           "tau(5)")
    # t = 1 branches
    for n in range(2, 13):
        th = thresholds(ModuliQuery(K3, n, 1, 1))
        expect(th.tau is None and th.bpf,
               "k3n t=1 bpf unconditional n=%d" % n)
        expect(th.d_min_va == n + 1, "k3n t=1 d_min_va n=%d" % n)
        expect(not thresholds(ModuliQuery(K3, n, n, 1)).very_ample
               and thresholds(ModuliQuery(K3, n, n + 1, 1)).very_ample,
               "k3n t=1 va boundary n=%d" % n)
        th = thresholds(ModuliQuery(KUM, n, 2, 1))
        expect(th.d_min_bpf == 3 and not th.bpf,
               "kum t=1 bpf boundary below n=%d" % n)
        expect(thresholds(ModuliQuery(KUM, n, 3, 1)).bpf,
               "kum t=1 bpf at 3 n=%d" % n)
        expect(thresholds(ModuliQuery(KUM, n, 1, 1)).d_min_va == n + 4,
               "kum t=1 d_min_va n=%d" % n)
        expect(not thresholds(ModuliQuery(KUM, n, n + 3, 1)).very_ample
               and thresholds(ModuliQuery(KUM, n, n + 4, 1)).very_ample,
               "kum t=1 va boundary n=%d" % n)
    # Fujita power
    for family in FAMILIES:
        for n in (2, 7, 12):
            for t in (1, 2, 3):
                expect(thresholds(ModuliQuery(family, n, 4, t)).fujita_power
                       == n + 2, "fujita %s n=%d t=%d" % (family.value, n, t))
    _verdict(6, not problems, "threshold pins%s"
             % ("" if not problems else "; failed: %r" % problems[:6]))


def test_criterion_7_k_very_ampleness_pins():
    problems = []

    def expect(cond, label):
        if not cond:
            problems.append(label)

    expect(max_k_very_ample(BundleSpec(SurfaceKind.K3, 1, 4)) == 2,
           "k3 a=1 e=4")
    for e in range(1, 61):
        expect(max_k_very_ample(BundleSpec(SurfaceKind.K3, 1, e)) == e // 2,
               "k3 a=1 e=%d" % e)
        expect(max_k_very_ample(BundleSpec(SurfaceKind.ABELIAN, 1, e))
               == (e - 3) // 2, "abelian a=1 e=%d" % e)
    for e in (1, 2):
        expect(max_k_very_ample(BundleSpec(SurfaceKind.ABELIAN, 1, e)) < 0,
               "abelian a=1 e=%d negative" % e)
        for n in range(2, 9):
            status = induced_bundle_status(
                BundleSpec(SurfaceKind.ABELIAN, 1, e), n)
            expect(status == (False, False),
                   "abelian a=1 e=%d n=%d not bpf" % (e, n))
    for kind in SurfaceKind:
        for a in range(2, 31):
            for e in range(1, 31):
                expect(max_k_very_ample(BundleSpec(kind, a, e))
                       == 2 * (a - 1) * e - 2,
                       "%s a=%d e=%d" % (kind.value, a, e))
        for a in range(1, 30):
            for e in range(1, 30):
                k00 = max_k_very_ample(BundleSpec(kind, a, e))
                expect(max_k_very_ample(BundleSpec(kind, a, e + 1)) >= k00,
                       "monotone in e at %s a=%d e=%d" % (kind.value, a, e))
                expect(max_k_very_ample(BundleSpec(kind, a + 1, e)) >= k00,
                       "monotone in a at %s a=%d e=%d" % (kind.value, a, e))
    # induced-status cutoffs are shifts of the k-very-ampleness bound
    for a in range(1, 13):
        for e in range(1, 13):
            for n in range(2, 9):
                k = max_k_very_ample(BundleSpec(SurfaceKind.K3, a, e))
                status = induced_bundle_status(BundleSpec(SurfaceKind.K3, a, e), n)
                expect(status == (n - 1 <= k, n <= k),
                       "k3 induced a=%d e=%d n=%d" % (a, e, n))
                k = max_k_very_ample(BundleSpec(SurfaceKind.ABELIAN, a, e))
                status = induced_bundle_status(
                    BundleSpec(SurfaceKind.ABELIAN, a, e), n)
                expect(status == (n <= k, n <= k - 1),
                       "abelian induced a=%d e=%d n=%d" % (a, e, n))
    _verdict(7, not problems, "k-very-ampleness pins%s"
             % ("" if not problems else "; failed: %r" % problems[:6]))


def test_criterion_8_quadratic_residue_oracles():
    limit = 10 ** 4
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    odd_primes = [p for p in range(3, limit) if sieve[p]]

    euler_splits = []
    for p in odd_primes:
        half = (p - 1) // 2
        for x in range(p):
            euler = x == 0 or pow(x, half, p) == 1
            if is_quadratic_residue(x, p) != euler:
                euler_splits.append((x, p))

    exhaustive_splits = []
    for m in range(1, 2001):
        squares = bytearray(m)
        for y in range(m):
            squares[(y * y) % m] = 1
        for x in range(m):
            if is_quadratic_residue(x, m) != bool(squares[x]):
                exhaustive_splits.append((x, m))

    ok = not euler_splits and not exhaustive_splits
    _verdict(8, ok,
             "%d odd primes < 10^4 vs Euler criterion (%d splits), "
             "all moduli <= 2000 vs exhaustive squares (%d splits)%s"
             % (len(odd_primes), len(euler_splits), len(exhaustive_splits),
                "; first: %r" % (euler_splits + exhaustive_splits)[:3]
                if not ok else ""))


def test_criterion_9_verification_boundary_documented():
    # The base-point-freeness / very-ampleness claims are arithmetic
    # threshold statements about some connected component; nothing here
    # constructs the geometry.  That boundary must be stated in the docs,
    # and the statement is the acceptance condition for this criterion.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    has_section = "## Verification boundary" in text
    has_scope = "some connected component" in text
    _verdict(9, has_section and has_scope,
             "README states the verification boundary (threshold-level "
             "guarantees on some connected component; geometric facts are "
             "used as statements, not re-verified)")


def test_criterion_10_component_count_matches_class_count():
    # The value of the count, not just its sign, against the classes of v/t
    # in the discriminant group, up to sign, over the oracle's hits (one
    # default search per cell, which finds every class; oracle module
    # docstring).  By Eichler's criterion these classes are the orbits of
    # O+(L) elements acting as +-1 on it.  For K3^[n] type that group is
    # the monodromy group (Gritsenko-Hulek-Sankaran 2009).  For Kummer type
    # the monodromy group is its index-2 subgroup of Mongardi 2016, but a
    # reflection in the second U lies outside it and fixes every witness,
    # so no orbit splits (`oracle.class_count`, checked by criterion 12).
    offenders = []
    queries = 0
    for q in _query_grid(30):
        count = component_count(q)
        classes = class_count(q, enumerate_witnesses(q))
        if count != classes:
            offenders.append((q, count, classes))
        queries += 1
    _verdict(10, not offenders,
             "%d queries, %d component/class count splits%s"
             % (queries, len(offenders),
                "; first: %r" % offenders[:3] if offenders else ""))


def test_criterion_11_thresholds_match_the_bundle_status():
    # An independent check of the thresholds through `bundles`.  Take t >= 2,
    # e >= 1 and d = t^2*e - m: the class t*(f + e*g) + delta, i.e.
    # t*L_n + delta with L^2 = 2e on a surface with Pic = Z*L, has square
    # 2d and a = t (when also t | 2m it is the witness (t, 1, e)).  The
    # status of the bundle t*L induced on the Hilbert scheme of n points
    # (K3) or on the generalized Kummer variety (abelian surface) must be
    # what the thresholds say at (family, n, d, t).  t = 1 is off this slice:
    # there the a = 1 bundle rule and the t = 1 threshold rules disagree.
    # The a >= 2 bundle bound is a sufficient condition, so agreement shows
    # that the thresholds are exactly what this class certifies; it does not
    # reprove the "iff" of the threshold notes.
    surfaces = {K3: SurfaceKind.K3, KUM: SurfaceKind.ABELIAN}
    offenders = []
    cells = 0
    for family in FAMILIES:
        for n in range(2, 40):
            m = family.m(n)
            for t in range(2, 40):
                for e in range(1, 60):
                    d = t * t * e - m
                    if d < 1:
                        continue
                    th = thresholds(ModuliQuery(family, n, d, t))
                    status = induced_bundle_status(
                        BundleSpec(surfaces[family], t, e), n)
                    if (th.bpf, th.very_ample) != status:
                        offenders.append((family.value, n, d, t, e))
                    cells += 1
    _verdict(11, not offenders,
             "%d cells (t >= 2, d = t^2 e - m), %d threshold/bundle splits%s"
             % (cells, len(offenders),
                "; first: %r" % offenders[:3] if offenders else ""))


def _det(rows):
    # exact Gaussian elimination over the rationals
    a = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for i in range(len(a)):
        piv = next((r for r in range(i, len(a)) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            out = -out
        out *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return out


def test_criterion_12_kummer_reflection_fixes_the_witnesses():
    # The Kummer-type count is the count of orbits under O+(L) elements
    # acting as +-1 on the discriminant group, because the reflection
    # s(x) = x + (x.u)u in u = f2 - g2 lies in that group, outside the
    # monodromy group, and fixes every witness (`oracle.class_count`).
    # Checked on the Gram matrix of the full lattice U^3 + <-2m>, basis
    # (f1, g1, f2, g2, f3, g3, delta): u^2 = -2, s is an integral isometry
    # of det -1, s fixes report's witness t*(f1 + e*g1) + b*delta, and
    # s(delta/2m) - delta/2m lies in L, so s acts trivially on L*/L.
    offenders = []
    witnesses = 0
    for n in range(2, 15):
        gram = full_model(KUM, n).gram
        rank = len(gram)
        u = (0, 0, 1, -1, 0, 0, 0)
        gu = [sum(g * x for g, x in zip(row, u)) for row in gram]
        r = [[(i == j) + u[i] * gu[j] for j in range(rank)]
             for i in range(rank)]
        rt_g_r = [[sum(r[k][i] * gram[k][l] * r[l][j]
                       for k in range(rank) for l in range(rank))
                   for j in range(rank)] for i in range(rank)]
        if (sum(map(int.__mul__, u, gu)) != -2 or rt_g_r != [
                list(row) for row in gram] or _det(r) != -1):
            offenders.append(("isometry", n))
        m = KUM.m(n)
        dual = [Fraction(0)] * (rank - 1) + [Fraction(1, 2 * m)]
        moved = [sum(x * y for x, y in zip(row, dual)) - z
                 for row, z in zip(r, dual)]
        if any(x.denominator != 1 for x in moved):
            offenders.append(("discriminant", n))
        for t in divisors(2 * m):
            for d in range(1, 80):
                w = report(ModuliQuery(KUM, n, d, t)).witness
                if w is None:
                    continue
                a, b, e = w
                v = [a, a * e, 0, 0, 0, 0, b]
                if [sum(map(int.__mul__, row, v)) for row in r] != v:
                    offenders.append((n, d, t, w))
                witnesses += 1
    _verdict(12, not offenders and witnesses > 1000,
             "n in [2,14]: s = reflection in f2 - g2 is an isometry of det "
             "-1, trivial on L*/L, fixing %d Kummer witnesses; %d failures%s"
             % (witnesses, len(offenders),
                "; first: %r" % offenders[:3] if offenders else ""))
