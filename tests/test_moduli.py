import itertools
import math
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkmoduli import moduli
from hkmoduli.arith import qr_of_ratio
from hkmoduli.lattice import Family, LatticeClass, bbf_square, divisibility
from hkmoduli.moduli import (
    Decomposition,
    DivisibilityViolation,
    InternalInconsistency,
    ModuliQuery,
    Witness,
    component_count,
    component_count_detail,
    decompose,
    is_nonempty,
    nonempty_residue,
    prime_power_connected,
    report,
    reports,
    thresholds,
    witness,
)
from hkmoduli.oracle import verify_witness


def divisors(m):
    # the positive divisors of m, increasing
    low = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    return low + [m // k for k in reversed(low) if k * k != m]


K3 = Family.K3HILB
KUM = Family.KUMMER


# --------------------------------------------------------------- decompose

def test_decompose_pins():
    dec = decompose(ModuliQuery(K3, 10, 27, 3))
    assert dec == Decomposition(big_gcd=18, d1=3, n1=1, g=6, w=3, g1=2,
                                t1=1, w_plus=1, w_minus=3)
    dec = decompose(ModuliQuery(KUM, 3, 12, 4))
    assert dec == Decomposition(big_gcd=8, d1=3, n1=1, g=2, w=2, g1=1,
                                t1=2, w_plus=2, w_minus=1)
    # w_plus takes the full 2-part of w once 2 divides t1
    dec = decompose(ModuliQuery(K3, 25, 24, 4))
    assert gcd(dec.w_minus, dec.t1) == 1
    assert dec.w_plus * dec.w_minus == dec.w


def test_decompose_rejects_bad_t():
    with pytest.raises(DivisibilityViolation):
        decompose(ModuliQuery(K3, 2, 1, 4))
    with pytest.raises(DivisibilityViolation):
        decompose(ModuliQuery(K3, 2, 1, 3))
    with pytest.raises(ValueError):
        decompose(ModuliQuery(K3, 1, 1, 1))


# ---------------------------------------------------------- component count

def test_count_pins_k3():
    # frozen values, derived once by independent evaluation of the cases
    assert component_count(ModuliQuery(K3, 10, 27, 3)) == 1
    assert component_count(ModuliQuery(K3, 9, 8, 4)) == 1
    assert component_count(ModuliQuery(K3, 16, 210, 15)) == 2
    assert component_count(ModuliQuery(K3, 28, 54, 9)) == 3
    assert component_count(ModuliQuery(K3, 7, 30, 6)) == 1
    assert component_count(ModuliQuery(K3, 2, 3, 2)) == 1


def test_count_pins_kummer():
    assert component_count(ModuliQuery(KUM, 14, 210, 15)) == 2
    assert component_count(ModuliQuery(KUM, 3, 12, 4)) == 1
    assert component_count(ModuliQuery(KUM, 3, 28, 8)) == 1
    assert component_count(ModuliQuery(KUM, 2, 1, 2)) == 1


def test_count_zero_for_empty_spaces():
    assert component_count(ModuliQuery(K3, 2, 1, 2)) == 0
    assert component_count(ModuliQuery(K3, 2, 2, 2)) == 0
    assert component_count(ModuliQuery(KUM, 2, 3, 3)) == 0
    assert component_count(ModuliQuery(K3, 28, 27, 9)) == 0
    # t does not divide gcd(2d, 2m): count 0, no exception
    assert component_count(ModuliQuery(K3, 2, 1, 4)) == 0


def test_count_detail_branches_and_halving():
    det = component_count_detail(ModuliQuery(K3, 10, 27, 3))
    assert (det.count, det.branch, det.halved) == (1, "i", True)
    det = component_count_detail(ModuliQuery(K3, 9, 8, 4))
    assert (det.count, det.branch, det.halved) == (1, "ii", True)
    det = component_count_detail(ModuliQuery(KUM, 3, 12, 4))
    assert (det.count, det.branch, det.halved) == (1, "iv", True)
    det = component_count_detail(ModuliQuery(K3, 16, 210, 15))
    assert (det.count, det.branch, det.halved) == (2, "i", False)
    det = component_count_detail(ModuliQuery(K3, 2, 3, 2))
    assert (det.count, det.branch) == (1, "iv")
    assert det.branch == "iv"
    det = component_count_detail(ModuliQuery(K3, 2, 1, 2))
    assert det == (0, None, False, det.decomposition)


def test_t1_spaces_are_connected():
    for family in (K3, KUM):
        for n in range(2, 9):
            for d in range(1, 61):
                q = ModuliQuery(family, n, d, 1)
                assert is_nonempty(q)
                assert component_count(q) == 1


def test_halving_never_hits_odd_base():
    # direct check of the guard; the public path cannot reach it
    with pytest.raises(InternalInconsistency):
        moduli._two_power_value(3, -1, ModuliQuery(K3, 2, 1, 1))
    assert moduli._two_power_value(6, -1, ModuliQuery(K3, 2, 1, 1)) == (3, True)
    assert moduli._two_power_value(5, 0, ModuliQuery(K3, 2, 1, 1)) == (5, False)
    assert moduli._two_power_value(5, 2, ModuliQuery(K3, 2, 1, 1)) == (20, False)


# ------------------------------------------------------------ non-emptiness

def test_nonempty_residue_pins():
    assert nonempty_residue(ModuliQuery(K3, 2, 3, 2)) == 1
    assert nonempty_residue(ModuliQuery(KUM, 3, 28, 8)) == 3
    assert nonempty_residue(ModuliQuery(KUM, 2, 3, 3)) is None
    assert nonempty_residue(ModuliQuery(K3, 5, 4, 4)) is None
    assert nonempty_residue(ModuliQuery(K3, 2, 1, 3)) is None  # t not | 2m
    assert nonempty_residue(ModuliQuery(K3, 4, 7, 1)) == 1


def _smallest_residue_up_to_t_squared(family, n, d, t):
    # Reference for nonempty_residue: the plain scan of [1, t^2], which does
    # not rely on the reduction of b mod t.
    m = family.m(n)
    return next((b for b in range(1, t * t + 1)
                 if gcd(b, t) == 1 and (d + b * b * m) % (t * t) == 0), None)


def test_nonempty_matches_direct_congruence_scan():
    for family in (K3, KUM):
        for n in (2, 3, 5):
            m = family.m(n)
            for t in divisors(2 * m):
                for d in range(1, 80):
                    expected = _smallest_residue_up_to_t_squared(
                        family, n, d, t)
                    q = ModuliQuery(family, n, d, t)
                    assert nonempty_residue(q) == expected, q
                    assert is_nonempty(q) == (expected is not None), q


@st.composite
def residue_queries(draw):
    family = draw(st.sampled_from([K3, KUM]))
    n = draw(st.integers(min_value=2, max_value=60))
    t = draw(st.sampled_from(divisors(2 * family.m(n))))
    d = draw(st.integers(min_value=1, max_value=4 * t * t))
    return ModuliQuery(family, n, d, t)


@settings(max_examples=300)
@given(residue_queries())
def test_nonempty_residue_is_smallest_in_t_squared(q):
    assert nonempty_residue(q) == _smallest_residue_up_to_t_squared(*q)


def _smallest_b_by_residue(family, n, t):
    # Reference for the t | 2d early exit: the full scan of b in [1, t],
    # run once per t, mapping each residue -b^2*m mod t^2 it reaches to
    # the smallest such b.  Nothing here tests whether t divides 2d.
    m, tsq = family.m(n), t * t
    first = {}
    for b in range(1, t + 1):
        if gcd(b, t) == 1:
            first.setdefault((-b * b * m) % tsq, b)
    return first


def test_nonempty_residue_matches_full_scan_when_t_does_not_divide_2d():
    skipped = 0
    for family in (K3, KUM):
        for n in range(2, 41):
            for t in divisors(2 * family.m(n)):
                first = _smallest_b_by_residue(family, n, t)
                tsq = t * t
                for d in range(1, 4 * tsq + 1):
                    q = ModuliQuery(family, n, d, t)
                    assert nonempty_residue(q) == first.get(d % tsq), q
                    skipped += (2 * d) % t != 0
    # the grid reaches the early exit, not only the scan
    assert skipped


def test_large_t_empty_report_is_fast():
    # a scan of [1, t^2] takes about 100 s on this query (Python 3.11,
    # 2 CPUs); the scan of [1, t] takes milliseconds
    q = ModuliQuery(K3, 10001, 10000, 20000)
    start = time.perf_counter()
    rep = report(q)
    elapsed = time.perf_counter() - start
    assert not rep.non_empty and rep.witness is None
    assert rep.components == 0
    assert elapsed < 1.0, elapsed


def test_large_t_nonempty_report_witness_verifies():
    # built as the benchmark builds a non-empty query: d = -b^2*m (mod t^2)
    family, n, t, b = K3, 1001, 2000, 1999
    m = family.m(n)
    d = (-b * b * m) % (t * t) + t * t
    q = ModuliQuery(family, n, d, t)
    rep = report(q)
    assert rep.non_empty and rep.components >= 1
    assert rep.witness.a == t and 1 <= rep.witness.b <= t
    assert verify_witness(rep.witness, q)


def test_report_finds_the_residue_once(monkeypatch):
    calls = []
    original = moduli._residue

    def counted(m, d, t):
        # every query below is K3HILB, where n = m + 1
        calls.append(ModuliQuery(K3, m + 1, d, t))
        return original(m, d, t)

    monkeypatch.setattr(moduli, "_residue", counted)
    for q, ne in ((ModuliQuery(K3, 2, 5, 2), False),
                  (ModuliQuery(K3, 2, 3, 2), True)):
        calls.clear()
        assert report(q).non_empty is ne
        assert calls == [q]


# ----------------------------------------------------------------- witness

def test_witness_pins():
    assert witness(ModuliQuery(K3, 2, 3, 2)) == Witness(2, 1, 1)
    assert witness(ModuliQuery(K3, 4, 7, 1)) == Witness(1, 1, 10)
    assert witness(ModuliQuery(KUM, 3, 28, 8)) == Witness(8, 3, 1)
    assert witness(ModuliQuery(KUM, 2, 1, 2)) == Witness(2, 1, 1)
    assert witness(ModuliQuery(KUM, 2, 3, 3)) is None
    assert witness(ModuliQuery(K3, 2, 2, 2)) is None


def test_witness_is_refused_when_the_lattice_rejects_it(monkeypatch):
    # the lattice's class check, the one function the re-verification calls,
    # rejecting every class
    monkeypatch.setattr(moduli, "_is_class", lambda a, b, e, m, d, t: False)
    with pytest.raises(InternalInconsistency, match="fails verification"):
        witness(ModuliQuery(K3, 2, 3, 2))
    # inside a sweep: the empty cells d = 1, 2 build no class
    sweep = reports(K3, 2, 2, range(1, 10))
    assert [rep.d for rep in itertools.islice(sweep, 2)] == [1, 2]
    with pytest.raises(InternalInconsistency,
                       match=r"fails verification at .*n=2, d=3, t=2\)"):
        next(sweep)


def test_witness_t1_closed_form():
    # t = 1 always admits (1, 1, d + m)
    for family in (K3, KUM):
        for n in (2, 3, 7):
            for d in (1, 5, 12):
                m = family.m(n)
                assert witness(ModuliQuery(family, n, d, 1)) == \
                    Witness(1, 1, d + m)


families = st.sampled_from([K3, KUM])


@settings(max_examples=400)
@given(families, st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=150),
       st.integers(min_value=1, max_value=24))
def test_witness_invariants(family, n, d, t):
    q = ModuliQuery(family, n, d, t)
    w = witness(q)
    if w is None:
        assert not is_nonempty(q)
        return
    assert w.a == t and 1 <= w.b <= t and w.e >= 1
    assert gcd(w.b, t) == 1
    c = LatticeClass(family, n, w.a, w.b, w.e)
    assert bbf_square(c) == 2 * d
    assert divisibility(c) == t


# -------------------------------------------------------------- thresholds

def test_thresholds_t2_pins():
    # tau = 2: both families need d >= n+3 for bpf, d >= n+5 for very ample
    for family in (K3, KUM):
        for n in range(2, 13):
            th = thresholds(ModuliQuery(family, n, 1, 2))
            assert th.tau == Fraction(2)
            assert th.d_min_bpf == n + 3
            assert th.d_min_va == n + 5
            assert th.tau is not None
            assert thresholds(ModuliQuery(family, n, n + 2, 2)).bpf is False
            assert thresholds(ModuliQuery(family, n, n + 3, 2)).bpf is True
            assert thresholds(ModuliQuery(family, n, n + 4, 2)).very_ample \
                is False
            assert thresholds(ModuliQuery(family, n, n + 5, 2)).very_ample \
                is True


def test_thresholds_t3_n2_pins():
    th = thresholds(ModuliQuery(K3, 2, 5, 3))
    assert th.tau == Fraction(9, 4)
    assert th.d_min_bpf == 6 and th.bpf is False
    th = thresholds(ModuliQuery(K3, 2, 6, 3))
    assert th.bpf is True and th.very_ample is False
    assert th.d_min_va == 8
    assert thresholds(ModuliQuery(K3, 2, 8, 3)).very_ample is True
    # Kummer at t=3, n=2: bpf bound is exactly 6, very ample bound 33/4
    th = thresholds(ModuliQuery(KUM, 2, 6, 3))
    assert th.d_min_bpf == 6 and th.bpf is True
    assert th.d_min_va == 9
    assert thresholds(ModuliQuery(KUM, 2, 8, 3)).very_ample is False
    assert thresholds(ModuliQuery(KUM, 2, 9, 3)).very_ample is True


def test_thresholds_t1_pins():
    for n in (2, 5, 9):
        th = thresholds(ModuliQuery(K3, n, 1, 1))
        assert th.tau is None
        assert th.bpf is True and th.d_min_bpf == 1
        assert th.d_min_va == n + 1
        assert thresholds(ModuliQuery(K3, n, n, 1)).very_ample is False
        assert thresholds(ModuliQuery(K3, n, n + 1, 1)).very_ample is True
        th = thresholds(ModuliQuery(KUM, n, 2, 1))
        assert th.bpf is False and th.d_min_bpf == 3
        assert thresholds(ModuliQuery(KUM, n, 3, 1)).bpf is True
        assert thresholds(ModuliQuery(KUM, n, n + 3, 1)).very_ample is False
        assert thresholds(ModuliQuery(KUM, n, n + 4, 1)).very_ample is True


def test_thresholds_fujita_power():
    for family in (K3, KUM):
        for n in (2, 4, 11):
            for t in (1, 2, 5):
                th = thresholds(ModuliQuery(family, n, 7, t))
                assert th.fujita_power == n + 2


@settings(max_examples=300)
@given(families, st.integers(min_value=2, max_value=30),
       st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=30))
def test_thresholds_monotone_in_d(family, n, d, t):
    th1 = thresholds(ModuliQuery(family, n, d, t))
    th2 = thresholds(ModuliQuery(family, n, d + 1, t))
    assert th2.bpf >= th1.bpf and th2.very_ample >= th1.very_ample
    assert not th1.very_ample or th1.bpf
    # d_min is the exact cutoff
    assert th1.bpf == (d >= th1.d_min_bpf)
    assert th1.very_ample == (d >= th1.d_min_va)


def _bounds(family, n, t):
    # the (bpf, very ample) bounds as Fractions
    if t == 1:
        return ((Fraction(1), Fraction(n + 1)) if family is K3
                else (Fraction(3), Fraction(n + 4)))
    tau = Fraction(t * t, 2 * (t - 1))
    if family is K3:
        return (tau - 1) * n + tau + 1, (tau - 1) * n + 2 * tau + 1
    return (tau - 1) * n + 2 * tau - 1, (tau - 1) * n + 3 * tau - 1


def _fraction_thresholds(family, n, d, t):
    # Reference for thresholds: the bounds as exact Fractions, compared and
    # rounded up directly and rendered with str(Fraction); no common
    # denominator, no integer cross-multiplication.
    notes = []
    if t == 1:
        if family is K3:
            bpf_min, va_min = 1, n + 1
            notes.append("t = 1: base point free for every d on some component")
        else:
            bpf_min, va_min = 3, n + 4
            notes.append(
                "t = 1: base point free on some component iff d >= 3")
        bpf, va = d >= bpf_min, d >= va_min
        notes.append("very ample on some component iff d >= %d; d = %d: %s"
                     % (va_min, d, "satisfied" if va else "not satisfied"))
        tau = None
    else:
        tau = Fraction(t * t, 2 * (t - 1))
        bpf_bound, va_bound = _bounds(family, n, t)
        bpf_min, va_min = math.ceil(bpf_bound), math.ceil(va_bound)
        bpf, va = d >= bpf_bound, d >= va_bound
        notes.append("tau = t^2/(2(t-1)) = %s" % (tau,))
        for name, bound, d_min, ok in (
                ("base point free", bpf_bound, bpf_min, bpf),
                ("very ample", va_bound, va_min, va)):
            notes.append(
                "%s on some component iff d >= %s "
                "(minimal integer d = %d); d = %d: %s"
                % (name, bound, d_min, d,
                   "satisfied" if ok else "not satisfied"))
    if bpf:
        notes.append("H^%d is very ample on the base point free component"
                     % (n + 2))
    return bpf, va, bpf_min, va_min, tau, tuple(notes)


def _threshold_fields(th):
    return (th.bpf, th.very_ample, th.d_min_bpf, th.d_min_va, th.tau,
            th.notes)


def test_thresholds_match_fraction_reference():
    on_bound = 0
    for family in (K3, KUM):
        for n in range(2, 41):
            for t in range(1, 61):
                ds = set()
                for bound in _bounds(family, n, t):
                    ds.update(range(max(1, math.floor(bound) - 2),
                                    math.ceil(bound) + 3))
                    on_bound += t > 1 and bound.denominator == 1
                for d in sorted(ds):
                    th = thresholds(ModuliQuery(family, n, d, t))
                    assert _threshold_fields(th) == _fraction_thresholds(
                        family, n, d, t), (family, n, d, t)
    # the grid puts d exactly on an integral bound, d * 2(t-1) == num
    assert on_bound


@st.composite
def near_bound_queries(draw):
    family = draw(families)
    n = draw(st.integers(min_value=2, max_value=10 ** 6))
    t = draw(st.integers(min_value=2, max_value=10 ** 6))
    bound = draw(st.sampled_from(_bounds(family, n, t)))
    d = math.ceil(bound) + draw(st.integers(min_value=-2, max_value=2))
    return ModuliQuery(family, n, max(d, 1), t)


@settings(max_examples=300)
@given(near_bound_queries())
def test_thresholds_match_fraction_reference_at_large_t(q):
    assert _threshold_fields(thresholds(q)) == _fraction_thresholds(*q)


def _stated_cases(dec):
    # The four counting conditions exactly as the module docstring states
    # them, case (iii) included, each evaluated on its own.
    d1, n1, g1, t1, w = dec.d1, dec.n1, dec.g1, dec.t1, dec.w
    holds = []
    if (g1 % 2 == 0 and gcd(d1, t1) == 1 and gcd(n1, t1) == 1
            and qr_of_ratio(-d1, n1, t1)):
        holds.append("i")
    if (g1 % 2 and t1 % 2 and d1 % 2 and gcd(d1, t1) == 1
            and gcd(n1, 2 * t1) == 1 and qr_of_ratio(-d1, n1, 2 * t1)):
        holds.append("ii")
    if (g1 % 2 and t1 % 2 and w % 2 and d1 % 2 == 0 and gcd(d1, t1) == 1
            and gcd(n1, 2 * t1) == 1 and qr_of_ratio(-d1, 4 * n1, t1)):
        holds.append("iii")
    if (g1 % 2 and t1 % 2 == 0 and gcd(d1, t1) == 1
            and gcd(n1, 2 * t1) == 1 and qr_of_ratio(-d1, n1, 2 * t1)):
        holds.append("iv")
    return holds


def test_counting_cases_are_disjoint():
    # (i) needs g1 even and (ii)-(iv) g1 odd; (iv) needs t1 even and
    # (ii)-(iii) t1 odd; (ii) needs d1 odd and (iii) d1 even.  Case (iii)
    # never holds (g1, t1, w odd force g1 even), so the code leaves it out.
    decomposed = 0
    for family in (K3, KUM):
        for n in range(2, 41):
            for t in divisors(2 * family.m(n)):
                for d in range(1, 101):
                    q = ModuliQuery(family, n, d, t)
                    branch = component_count_detail(q).branch
                    if (2 * d) % t:
                        assert branch is None, q
                        continue
                    decomposed += 1
                    holds = _stated_cases(decompose(q))
                    assert len(holds) <= 1 and "iii" not in holds, q
                    assert holds == ([] if branch is None else [branch]), q
    assert decomposed


# ------------------------------------------------- prime power connectivity

def test_prime_power_connected_pins():
    assert prime_power_connected(ModuliQuery(K3, 2, 5, 2)) is True
    assert prime_power_connected(ModuliQuery(KUM, 9, 7, 2)) is True
    assert prime_power_connected(ModuliQuery(K3, 4, 1, 3)) is True
    assert prime_power_connected(ModuliQuery(K3, 10, 27, 3)) is False
    assert prime_power_connected(ModuliQuery(K3, 2, 5, 1)) is False
    assert prime_power_connected(ModuliQuery(K3, 5, 12, 4)) is False
    assert prime_power_connected(ModuliQuery(K3, 7, 30, 6)) is False
    # odd prime power t = 9 with 27 dividing gcd(2d, 2m): no claim
    assert prime_power_connected(ModuliQuery(K3, 28, 54, 9)) is False
    assert prime_power_connected(ModuliQuery(K3, 28, 9, 9)) is True


# ------------------------------------------------------------------ report

def test_report_nonempty_query():
    rep = report(ModuliQuery(K3, 2, 3, 2))
    assert rep.non_empty and rep.components == 1
    assert rep.witness == Witness(2, 1, 1)
    assert not rep.bpf_some_component and not rep.va_some_component
    assert rep.applies_to_all_components
    assert rep.fujita_power == 4


def test_report_masks_thresholds_on_empty_spaces():
    # d = 5 clears the t=2 bpf bound at n=2, but the space is empty
    assert thresholds(ModuliQuery(K3, 2, 5, 2)).bpf is True
    rep = report(ModuliQuery(K3, 2, 5, 2))
    assert not rep.non_empty
    assert rep.components == 0 and rep.witness is None
    assert rep.bpf_some_component is False
    assert rep.va_some_component is False
    assert rep.applies_to_all_components is False


def test_report_disconnected_space():
    rep = report(ModuliQuery(K3, 16, 210, 15))
    assert rep.components == 2
    assert rep.non_empty
    assert not rep.applies_to_all_components


def test_report_notes_mention_halving():
    rep = report(ModuliQuery(K3, 10, 27, 3))
    assert any("halving" in note for note in rep.threshold_notes)
    rep = report(ModuliQuery(K3, 2, 3, 2))
    assert not any("halving" in note for note in rep.threshold_notes)


def test_report_internal_inconsistency_guard(monkeypatch):
    def broken(dec, t):
        return 0, None, False

    monkeypatch.setattr(moduli, "_count_detail", broken)
    with pytest.raises(InternalInconsistency):
        moduli.report(ModuliQuery(K3, 2, 3, 2))
    # inside a sweep: the empty cells d = 1, 2 agree with count 0, the
    # non-empty cell d = 3 does not
    sweep = reports(K3, 2, 2, range(1, 10))
    assert [rep.d for rep in itertools.islice(sweep, 2)] == [1, 2]
    with pytest.raises(InternalInconsistency, match=r"n=2, d=3, t=2\)"):
        next(sweep)


def test_report_fields_match_their_public_definitions():
    # `report`, `reports` and the csv table read every answer field from one
    # cell loop, so comparing them with each other compares one copy.  Here
    # each field of both is held against the public function that defines
    # it, cell by cell: both families, n <= 12, every t | 2m and the
    # smallest t that does not divide 2m, d <= 120.
    halving = ("component count used exact halving (rho = 0 case)",)
    ds = range(1, 121)
    seen = set()
    for family in (K3, KUM):
        for n in range(2, 13):
            two_m = 2 * family.m(n)
            ts = divisors(two_m)
            ts.append(next(t for t in range(3, two_m + 3) if two_m % t))
            for t in ts:
                swept = list(reports(family, n, t, ds))
                assert [rep.d for rep in swept] == list(ds)
                for rep in swept:
                    q = ModuliQuery(family, n, rep.d, t)
                    ne = is_nonempty(q)
                    th = thresholds(q)
                    detail = component_count_detail(q)
                    notes = th.notes + (halving if detail.halved else ())
                    for r in (rep, report(q)):
                        assert tuple(r[:4]) == q
                        assert r.non_empty == ne, q
                        assert r.components == component_count(q), q
                        assert r.witness == witness(q), q
                        assert r.bpf_some_component == (ne and th.bpf), q
                        assert r.va_some_component == (
                            ne and th.very_ample), q
                        assert r.fujita_power == th.fujita_power, q
                        assert r.applies_to_all_components == (
                            r.components == 1), q
                        assert r.halved == detail.halved, q
                        assert r.threshold_notes == notes, q
                    seen.add("non-empty" if ne else "empty")
                    if th.bpf:
                        seen.add("bpf" if ne else "bpf masked")
                    if th.very_ample:
                        seen.add("va" if ne else "va masked")
                    if detail.halved:
                        seen.add("halved")
                    if rep.components > 1:
                        seen.add("several components")
    # the mask bites: d clears a bound on some empty cells
    assert seen == {"empty", "non-empty", "bpf", "bpf masked", "va",
                    "va masked", "halved", "several components"}


@settings(max_examples=300)
@given(families, st.integers(min_value=2, max_value=14),
       st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=28))
def test_report_never_inconsistent(family, n, d, t):
    rep = report(ModuliQuery(family, n, d, t))
    assert rep.non_empty == (rep.components >= 1)
    assert (rep.witness is not None) == rep.non_empty


# ------------------------------------------------------------------ sweep

def _report_reference(q):
    # The per-cell composition `report` used before the sweep, kept as the
    # reference: witness, count detail and thresholds, notes included, for
    # every cell, with no shortcut for t not dividing 2m or 2d.
    w = witness(q)
    ne = w is not None
    detail = component_count_detail(q)
    assert (detail.count >= 1) == ne, q
    th = thresholds(q)
    notes = th.notes
    if detail.halved:
        notes += ("component count used exact halving (rho = 0 case)",)
    return (q.family, q.n, q.d, q.t, ne, detail.count, w, th.bpf and ne,
            th.very_ample and ne, th.fujita_power, detail.count == 1, notes)


def _sweep_rows(family, n, t, ds):
    return [tuple(rep[:-1]) + (rep.threshold_notes,)
            for rep in reports(family, n, t, ds)]


def test_sweep_matches_per_cell_reference():
    on_bound = 0
    for family in (K3, KUM):
        for n in range(2, 31):
            two_m = 2 * family.m(n)
            ts = divisors(two_m)
            ts.append(next(t for t in range(3, two_m + 3) if two_m % t))
            for t in ts:
                ds = set(range(1, 31))
                for bound in _bounds(family, n, t):
                    ds.update(range(max(1, math.floor(bound) - 2),
                                    math.ceil(bound) + 3))
                ds = sorted(ds)
                expected = [_report_reference(ModuliQuery(family, n, d, t))
                            for d in ds]
                assert _sweep_rows(family, n, t, ds) == expected, \
                    (family, n, t)
                assert report(ModuliQuery(family, n, ds[-1], t)) \
                    == reports(family, n, t, ds[-1:]).__next__()
                bounds = [b for b in _bounds(family, n, t)
                          if t > 1 and b.denominator == 1]
                on_bound += sum(row[4] and row[2] in bounds
                                for row in expected)
    # a non-empty cell sits exactly on an integral bound, d * 2(t-1) == num
    assert on_bound


@st.composite
def sweep_queries(draw):
    family = draw(families)
    n = draw(st.integers(min_value=2, max_value=10 ** 4))
    m = family.m(n)
    t = draw(st.one_of(st.sampled_from(divisors(2 * m)),
                       st.integers(min_value=1, max_value=10 ** 4)))
    ds = {max(1, math.ceil(bound) + draw(st.integers(-2, 2)))
          for bound in _bounds(family, n, t)}
    # d built non-empty when t | 2m: d = -b^2*m (mod t^2) with gcd(b, t) = 1
    b = draw(st.integers(min_value=1, max_value=t))
    if gcd(b, t) == 1:
        d = (-b * b * m) % (t * t)
        ds.add(d + t * t * draw(st.integers(0 if d else 1, 3)))
    ds.add(draw(st.integers(min_value=1, max_value=4 * t * t)))
    return family, n, t, sorted(ds)


@settings(max_examples=150, deadline=None)
@given(sweep_queries())
def test_sweep_matches_per_cell_reference_at_large_n_and_t(sweep):
    family, n, t, ds = sweep
    assert _sweep_rows(family, n, t, ds) == [
        _report_reference(ModuliQuery(family, n, d, t)) for d in ds]


def test_sweep_validates_before_the_first_report():
    with pytest.raises(ValueError, match="n must be >= 2"):
        reports(K3, 1, 2, range(1, 5))
    with pytest.raises(ValueError, match="t must be >= 1"):
        reports(KUM, 3, 0, range(1, 5))
    sweep = reports(K3, 2, 2, [3, 0])
    assert next(sweep).non_empty
    with pytest.raises(ValueError, match="d must be >= 1"):
        next(sweep)


def test_sweep_validates_once(monkeypatch):
    calls = []
    original = moduli._validate

    def counted(q):
        calls.append(q)
        original(q)

    monkeypatch.setattr(moduli, "_validate", counted)
    assert len(list(reports(K3, 10, 3, range(1, 200)))) == 199
    assert len(calls) == 1


def test_sweep_reads_a_one_pass_iterator():
    # reports takes any iterable of d, so each d is read once, as it is met
    for family, n, t in ((K3, 10, 3), (K3, 16, 15), (KUM, 5, 12)):
        ds = list(range(1, 300))
        assert list(reports(family, n, t, iter(ds))) == list(
            reports(family, n, t, ds)), (family, n, t)


def test_sweep_matches_per_cell_reference_where_every_class_recurs():
    # Both keys of the sweep, -d mod t^2 for the residue and (gcd(d, m),
    # d/gcd(d, m) mod 2t) for the count, have period 2mt in d (t | 2m, so
    # t^2 | 2mt).  Each window holds two periods, so every class met is met
    # again, and a key that dropped part of what its value reads would give
    # a later cell of its class another cell's answer.
    for family in (K3, KUM):
        for n in range(2, 13):
            m = family.m(n)
            for t in divisors(2 * m):
                ds = range(1, 4 * m * t + 1)
                assert _sweep_rows(family, n, t, ds) == [
                    _report_reference(ModuliQuery(family, n, d, t))
                    for d in ds], (family, n, t)


def test_sweep_scans_and_counts_once_per_class(monkeypatch):
    residue, count_detail = moduli._residue, moduli._count_detail
    scans, counts = [], []

    def counted_residue(m, d, t):
        scans.append(-d % (t * t))
        return residue(m, d, t)

    def counted_count_detail(dec, t):
        counts.append((dec.big_gcd, dec.d1 % (2 * t)))
        return count_detail(dec, t)

    monkeypatch.setattr(moduli, "_residue", counted_residue)
    monkeypatch.setattr(moduli, "_count_detail", counted_count_detail)
    # m = 9: gcd(2d, 2m) is 2, 6 or 18, and d1 mod 2t takes every value
    for t, n_scans, n_counts in ((1, 1, 3 * 2), (2, 4, 3 * 4)):
        scans.clear()
        counts.clear()
        assert len(list(reports(K3, 10, t, range(1, 1001)))) == 1000
        assert len(scans) == len(set(scans)) == n_scans
        assert len(counts) == len(set(counts)) == n_counts
