import time
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkmoduli import oracle
from hkmoduli.bundles import BundleSpec, SurfaceKind, induced_bundle_status
from hkmoduli.lattice import Family, LatticeClass, bbf_square, divisibility
from hkmoduli.moduli import (ModuliQuery, Witness, component_count,
                             is_nonempty, report, witness)
from hkmoduli.oracle import (
    SearchBounds,
    bundle_status,
    class_count,
    default_bounds,
    enumerate_witnesses,
    verify_witness,
)


def divisors(m):
    # the positive divisors of m, increasing
    low = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    return low + [m // k for k in reversed(low) if k * k != m]


K3 = Family.K3HILB
KUM = Family.KUMMER


def test_default_bounds():
    q = ModuliQuery(K3, 2, 3, 2)
    assert default_bounds(q) == SearchBounds(2, 4, 3 + 4 * 1)
    q = ModuliQuery(KUM, 5, 7, 1)
    assert default_bounds(q) == SearchBounds(1, 2, 7 + 4 * 6)


def test_bounds_and_hits_are_their_named_tuples():
    # both are built with tuple.__new__, which skips the generated __new__
    q = ModuliQuery(KUM, 3, 12, 4)
    bounds = default_bounds(q)
    assert type(bounds) is SearchBounds
    assert bounds == SearchBounds(max_a=4, max_b=8, max_e=12 + 4 * 4)
    assert (bounds.max_a, bounds.max_b, bounds.max_e) == (4, 8, 28)
    assert bounds._asdict() == {"max_a": 4, "max_b": 8, "max_e": 28}
    for search in (None, SearchBounds(8, 10, 60)):
        hits = enumerate_witnesses(q, search)
        assert hits and all(type(w) is Witness for w in hits), hits
        assert [(w.a, w.b, w.e) for w in hits] == [tuple(w) for w in hits]


def test_no_wider_search_changes_a_verdict():
    # The default bounds are complete (module docstring): a hit (a, b, e) of
    # any search gives the hit (t, b mod 2t, ...) inside them, with the same
    # class b mod t.  So the bounds (t, t^2, d + t^4*(n+1)), which were the
    # default ones until |b| <= 2t was shown complete, and a search with
    # four times their max_a and max_b and sixteen times their max_e find a
    # witness exactly where the default search does, and the t^2 search
    # finds the same classes.
    cells = 0
    for family in (K3, KUM):
        for n in range(2, 13):
            for t in divisors(2 * family.m(n)):
                for d in range(1, 61):
                    q = ModuliQuery(family, n, d, t)
                    square = SearchBounds(t, t * t, d + t ** 4 * (n + 1))
                    wide = SearchBounds(4 * t, 4 * t * t, 16 * square.max_e)
                    hits = enumerate_witnesses(q)
                    square_hits = enumerate_witnesses(q, square)
                    assert (bool(hits) == bool(square_hits)
                            == bool(enumerate_witnesses(q, wide,
                                                        stop_after=1))), q
                    assert (class_count(q, hits)
                            == class_count(q, square_hits)), q
                    cells += 1
    assert cells == 6180


def _classes(q):
    return class_count(q, enumerate_witnesses(q))


def test_class_count_pins():
    # roots b = 1, 4 mod 15 and b = 1, 2, 4 mod 9, each up to sign
    assert _classes(ModuliQuery(K3, 16, 210, 15)) == 2
    assert _classes(ModuliQuery(K3, 28, 54, 9)) == 3
    # t = 2: the one root b = 1 is its own negative class m mod 2m
    assert _classes(ModuliQuery(K3, 2, 3, 2)) == 1
    assert _classes(ModuliQuery(K3, 2, 2, 2)) == 0
    # t = 3 does not divide 2m = 2, although b = 1 solves b^2*m = -d mod 9
    assert _classes(ModuliQuery(K3, 2, 8, 3)) == 0


def test_class_count_reads_b_mod_t_up_to_sign():
    # m = 3, t = 6: the class of v/t is b mod 6, so b and b + 6 fall
    # together, and b = 1 with b = -1 = 5; the class of b = 0 mod t is 0
    q = ModuliQuery(K3, 4, 3, 6)
    assert class_count(q, [Witness(6, 1, 1), Witness(6, 7, 4),
                           Witness(6, -1, 1), Witness(6, 5, 3)]) == 1
    assert class_count(q, [Witness(6, 1, 1), Witness(12, 6, 1)]) == 2
    assert class_count(q, []) == 0


def test_component_count_needs_the_full_p_part_of_w():
    # gcd(2d, 2m) = 32, g = 4, w = gcd(g, t) = 4 and t1 = t/w = 2, so
    # w_plus is the full 2-part 2^2 of w.  That matters only when p^2 | w and
    # p | t1, which needs 32 | 2m at p = 2: outside the n <= 10 grid of
    # criterion 10.  A count that keeps one factor p instead of p^k reads 1.
    q = ModuliQuery(K3, 17, 48, 8)
    assert component_count(q) == _classes(q) == 2


@st.composite
def count_queries(draw):
    """n <= 200, any t | 2m and 1 <= d <= 4t^2; half the d are drawn with
    t | 2d, the cells where a residue b can exist."""
    family = draw(st.sampled_from([K3, KUM]))
    n = draw(st.integers(min_value=2, max_value=200))
    t = draw(st.sampled_from(divisors(2 * family.m(n))))
    if draw(st.booleans()):
        step = t // gcd(t, 2)   # the d with t | 2d are its multiples
        d = step * draw(st.integers(min_value=1, max_value=4 * t * t // step))
    else:
        d = draw(st.integers(min_value=1, max_value=4 * t * t))
    return ModuliQuery(family, n, d, t)


@settings(max_examples=500, deadline=None)
@given(count_queries())
@example(ModuliQuery(K3, 17, 48, 8))
def test_component_count_matches_class_count(q):
    # the count by value beyond criterion 10's grid (n <= 10, d <= 200)
    assert component_count(q) == _classes(q)


def test_enumerate_contains_known_classes():
    hits = enumerate_witnesses(ModuliQuery(K3, 2, 1, 1), SearchBounds(5, 5, 5))
    assert Witness(1, 0, 1) in hits
    hits = enumerate_witnesses(ModuliQuery(K3, 2, 3, 2),
                               SearchBounds(10, 10, 10))
    assert Witness(2, 1, 1) in hits
    assert Witness(2, -1, 1) in hits


def test_enumerate_is_sorted_and_verified():
    q = ModuliQuery(K3, 3, 6, 2)
    hits = enumerate_witnesses(q, SearchBounds(6, 6, 40))
    assert hits == sorted(hits)
    assert hits, "expected at least one witness in these bounds"
    for w in hits:
        assert verify_witness(w, q)
        assert gcd(w.a, w.b) == 1 and w.a >= 1


def test_enumerate_empty_space_finds_nothing():
    assert enumerate_witnesses(ModuliQuery(KUM, 2, 3, 3)) == []
    assert enumerate_witnesses(ModuliQuery(K3, 2, 2, 2)) == []


def test_stop_after_is_a_prefix():
    q = ModuliQuery(K3, 2, 1, 1)
    bounds = SearchBounds(4, 4, 20)
    full = enumerate_witnesses(q, bounds)
    probe = enumerate_witnesses(q, bounds, stop_after=1)
    assert len(probe) == 1
    assert probe[0] in full


def test_stop_after_zero_finds_nothing_and_a_negative_one_is_refused():
    q = ModuliQuery(K3, 3, 2, 2)
    assert enumerate_witnesses(q, stop_after=1) == [Witness(2, -3, 5)]
    assert enumerate_witnesses(q, stop_after=0) == []
    for bad in (-1, -5):
        with pytest.raises(ValueError, match="stop_after must be >= 0, "
                                             "got %d" % bad):
            enumerate_witnesses(q, stop_after=bad)


def test_malformed_queries_and_bounds_are_refused():
    # before the cell is skipped: t = 3 divides neither 2m = 4 nor 2d = 4
    q = ModuliQuery(K3, 3, 2, 3)
    for t in (0, -2):
        with pytest.raises(ValueError, match="t must be >= 1, got %d" % t):
            enumerate_witnesses(q._replace(t=t))
    with pytest.raises(ValueError, match="n must be >= 2"):
        enumerate_witnesses(q._replace(n=1))
    with pytest.raises(ValueError, match="not enough values"):
        enumerate_witnesses(q, (3, 6))


def test_d_and_t_below_one_are_refused_by_every_entry_point():
    # with the text of `moduli`: the completeness proof needs d >= 1, and
    # the skip and the cap divide by t
    q = ModuliQuery(K3, 3, 2, 2)
    calls = (enumerate_witnesses, default_bounds,
             lambda q: oracle.cross_check(q, None))
    for field, bad in (("d", 0), ("d", -3), ("t", 0), ("t", -2)):
        for call in calls:
            with pytest.raises(ValueError,
                               match="%s must be >= 1, got %d" % (field, bad)):
                call(q._replace(**{field: bad}))


def test_sign_symmetry_in_b():
    q = ModuliQuery(KUM, 3, 12, 4)
    hits = enumerate_witnesses(q, SearchBounds(8, 10, 60))
    assert hits
    for w in hits:
        assert Witness(w.a, -w.b, w.e) in hits


def test_verify_witness_rejects_bad_classes():
    q = ModuliQuery(K3, 2, 3, 2)
    assert verify_witness(Witness(2, 1, 1), q)
    assert not verify_witness(Witness(2, 1, 2), q)   # wrong square
    assert not verify_witness(Witness(2, 4, 1), q)   # not primitive
    assert not verify_witness(Witness(1, 1, 4), q)   # divisibility 1, not 2
    assert not verify_witness(Witness(2, 1, 0), q)   # e out of range


@pytest.mark.parametrize("family, n, d, t, w", [
    (K3, 2, 3, 2, Witness(2, 1, 1)),
    (K3, 5, 7, 1, Witness(1, 1, 11)),
    (KUM, 2, 1, 2, Witness(2, 1, 1)),
    (KUM, 3, 28, 8, Witness(8, 3, 1)),
])
def test_verify_witness_edge_inputs(family, n, d, t, w):
    a, b, e = w
    q = ModuliQuery(family, n, d, t)
    assert verify_witness(w, q)
    assert not verify_witness(Witness(0, 0, 1), q)
    for bad_e in (0, -1, -e):
        assert not verify_witness(Witness(a, b, bad_e), q)
    # 2v has square 4*2d and divisibility 2t but is not primitive
    assert not verify_witness(Witness(2 * a, 2 * b, e),
                              ModuliQuery(family, n, 4 * d, 2 * t))
    for wrong in (ModuliQuery(family, n, d + 1, t),
                  ModuliQuery(family, n, d, 2 * t),
                  ModuliQuery(family, n, d, t + 1)):
        assert not verify_witness(w, wrong)
    # below n = 2 there is no lattice: every witness is refused as input,
    # the valid-looking and the invalid alike
    for bad_n in (1, 0):
        for v in (w, Witness(0, 0, 1), Witness(a, b, 0),
                  Witness(2 * a, 2 * b, e)):
            with pytest.raises(ValueError, match="n must be >= 2"):
                verify_witness(v, ModuliQuery(family, bad_n, d, t))


families = st.sampled_from([K3, KUM])


@settings(max_examples=150, deadline=None)
@given(families, st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=10))
def test_oracle_agrees_with_formula(family, n, d, t):
    q = ModuliQuery(family, n, d, t)
    hit = bool(enumerate_witnesses(q, stop_after=1))
    assert hit == is_nonempty(q)
    w = witness(q)
    if w is not None:
        assert verify_witness(w, q)
        full = enumerate_witnesses(q)
        assert w in full


@st.composite
def large_t_queries(draw):
    """(query, built_non_empty): t | 2m with t <= 60, half the d built as
    -b^2*m (mod t^2) for a unit b, so that the space is non-empty."""
    family = draw(families)
    n = draw(st.integers(min_value=2, max_value=200))
    m = family.m(n)
    t = draw(st.sampled_from([t for t in divisors(2 * m) if t <= 60]))
    tsq = t * t
    built = draw(st.booleans())
    if built:
        b = draw(st.sampled_from([b for b in range(1, t + 1)
                                  if gcd(b, t) == 1]))
        d = (-b * b * m - 1) % tsq + 1 + tsq * draw(st.integers(0, 3))
    else:
        d = draw(st.integers(min_value=1, max_value=4 * tsq))
    return ModuliQuery(family, n, d, t), built


@settings(max_examples=200, deadline=None)
@given(large_t_queries())
def test_oracle_agrees_with_formula_at_larger_t(case):
    q, built = case
    hits = enumerate_witnesses(q)
    assert bool(hits) == is_nonempty(q)
    if built:
        assert hits
    w = witness(q)
    if w is not None:
        assert w in hits


def _enumerate_every_a(q, bounds=None):
    """Reference: the search that tries every a in [1, max_a], not only the
    multiples of t, and every b in [-max_b, max_b]."""
    if bounds is None:
        bounds = default_bounds(q)
    family, n, d, t = q
    m = family.m(n)
    max_a, max_b, max_e = bounds
    found = []
    for a in range(1, max_a + 1):
        for b in range(-max_b, max_b + 1):
            num = d + b * b * m
            if num % (a * a):
                continue
            e = num // (a * a)
            if e < 1 or e > max_e or gcd(a, b) != 1:
                continue
            c = LatticeClass(family, n, a, b, e)
            if bbf_square(c) != 2 * d or divisibility(c) != t:
                continue
            found.append(Witness(a, b, e))
    found.sort()
    return found


def _window_bounds(q):
    """Bounds that place max_b against two periods of b at a = t: t^2, and
    the one the oracle tests, P = t^2 / gcd(m, t^2)."""
    t = q.t
    m = q.family.m(q.n)
    wide_e = q.d + 2 * t * t * m
    bounds = [SearchBounds(t, 0, 40)]   # no b but 0
    for period in (t * t, t * t // gcd(m, t * t)):
        bounds += (
            # under half a period; one period less one
            SearchBounds(t, period // 2, 40),
            SearchBounds(t, period - 1, 40),
            # several translates of a window that is not a whole number of
            # periods, with a max_e that cuts the range of b off midway
            SearchBounds(t, 3 * period + 2, wide_e),
        )
    return bounds


def test_multiples_of_t_match_every_a_reference():
    searches = hits = 0
    for family in (K3, KUM):
        for n in range(2, 7):
            for t in divisors(2 * family.m(n)):
                for d in range(1, 31):
                    q = ModuliQuery(family, n, d, t)
                    # default bounds; max_a off a multiple of t (t = 1 has
                    # none); max_a < t; then the windows of b
                    for bounds in (None, SearchBounds(2 * t + 1, 3 * t, 40),
                                   SearchBounds(t - 1, t * t, 40),
                                   *_window_bounds(q)):
                        # a search stopped after k hits is the first k of
                        # the full one
                        full = _enumerate_every_a(q, bounds)
                        for stop_after in (None, 0, 1, 2, 3):
                            got = enumerate_witnesses(q, bounds, stop_after)
                            assert got == full[:stop_after], (
                                q, bounds, stop_after)
                            searches += 1
                            hits += bool(got)
    assert hits and hits < searches


@settings(max_examples=300, deadline=None)
@given(families, st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=80),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=20),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([None, 0, 1, 2, 3]))
def test_window_matches_every_a_reference(family, n, d, t, max_a, max_b,
                                          max_e, stop_after):
    q = ModuliQuery(family, n, d, t)
    bounds = SearchBounds(max_a, max_b, max_e)
    full = _enumerate_every_a(q, bounds)
    assert enumerate_witnesses(q, bounds, stop_after) == full[:stop_after]


def test_only_multiples_of_t_reach_the_lattice(monkeypatch):
    seen = []
    is_class = oracle._is_class

    def recording_is_class(a, b, e, m, d, t):
        seen.append(a)
        return is_class(a, b, e, m, d, t)

    monkeypatch.setattr(oracle, "_is_class", recording_is_class)
    checked = 0
    # at (K3, 2, 8, 2) the a = 3 of the wider bounds solves a^2 | d + b^2*m
    # (b = 1, e = 1), so a search that tried it would check it
    for q in (ModuliQuery(K3, 4, 3, 6), ModuliQuery(KUM, 3, 28, 8),
              ModuliQuery(K3, 2, 3, 2), ModuliQuery(KUM, 2, 3, 3),
              ModuliQuery(K3, 2, 8, 2)):
        for bounds in (None, SearchBounds(3 * q.t + 1, 2 * q.t, 60)):
            seen.clear()
            enumerate_witnesses(q, bounds)
            assert all(a % q.t == 0 for a in seen), (q, bounds, seen[:5])
            checked += len(seen)
    assert checked


def _every_b(m, d, asq, max_b):
    return [b for b in range(-max_b, max_b + 1) if (d + b * b * m) % asq == 0]


def test_square_hits_match_every_b():
    # m sharing a large factor with asq (m = asq, asq / 4, prime-power
    # multiples of a) and m prime to asq, with max_b against the period
    cases = hits = 0
    for a in (1, 2, 3, 4, 6, 8, 9, 12, 16, 27):
        asq = a * a
        ms = {asq, max(1, asq // 4), 2 * asq, a, 2 * a, 7}
        ms |= {p ** k for p in (2, 3) if a % p == 0 for k in range(1, 7)}
        ms |= {a * p ** k for p in (2, 3) for k in range(3)}
        ms.add(next(k for k in range(5, 100) if gcd(k, asq) == 1))
        for m in sorted(ms):
            period = asq // gcd(m, asq)
            # every d that makes b = 0..11 a hit, and three that may not
            ds = {(-b * b * m) % asq or asq for b in range(12)} | {1, 2, 3}
            for d in sorted(ds):
                for max_b in {0, 1, period // 2, period - 1, period,
                              3 * period + 2, asq + 1}:
                    got = list(oracle._square_hits(m, d, asq, max_b))
                    assert got == _every_b(m, d, asq, max_b), (m, d, asq,
                                                                max_b)
                    cases += 1
                    hits += bool(got)
    assert hits and hits < cases



def test_only_a_with_gcd_2m_equal_to_t_are_tested(monkeypatch):
    # m = 3, t = 3: a = 6 and a = 12 have gcd(a, 2m) = 6, so no primitive
    # class with that a has divisibility 3 and none of its b is tested
    tested = []
    square_hits = oracle._square_hits

    def recording(m, d, asq, max_b):
        tested.append(asq)
        return square_hits(m, d, asq, max_b)

    monkeypatch.setattr(oracle, "_square_hits", recording)
    enumerate_witnesses(ModuliQuery(K3, 4, 6, 3), SearchBounds(12, 30, 100))
    assert tested == [9, 81]
    # t = 3161 does not divide 2m = 2: no a at all
    tested.clear()
    assert enumerate_witnesses(ModuliQuery(K3, 2, 1, 3161)) == []
    assert tested == []


def test_cells_without_t_dividing_2m_and_2d_make_no_test(monkeypatch):
    # A hit needs t | 2m and t | 2d (module docstring), so on every other
    # cell the oracle returns [] before it tests any b or checks any class,
    # within the default bounds and within wider ones; the every-a reference
    # finds nothing there either.
    calls = []
    square_hits, is_class = oracle._square_hits, oracle._is_class

    def counting_square_hits(*args):
        calls.append("square")
        return square_hits(*args)

    def counting_is_class(*args):
        calls.append("class")
        return is_class(*args)

    monkeypatch.setattr(oracle, "_square_hits", counting_square_hits)
    monkeypatch.setattr(oracle, "_is_class", counting_is_class)
    skipped = searched = 0
    for family in (K3, KUM):
        for n in range(2, 13):
            two_m = 2 * family.m(n)
            # every t | 2m, the three smallest t that do not divide it, and
            # 2m + 1
            others = [t for t in range(2, two_m) if two_m % t][:3]
            for t in divisors(two_m) + others + [two_m + 1]:
                for d in range(1, 61):
                    q = ModuliQuery(family, n, d, t)
                    for bounds in (None, SearchBounds(2 * t + 1, 2 * t + 1,
                                                      2 * d + 8 * two_m)):
                        calls.clear()
                        hits = enumerate_witnesses(q, bounds)
                        if two_m % t == 0 and 2 * d % t == 0:
                            searched += bool(calls)
                            continue
                        assert calls == [] and hits == [], (q, bounds)
                        assert _enumerate_every_a(q, bounds) == [], (q,
                                                                     bounds)
                        skipped += 1
    assert skipped > 10000 and searched > 1000, (skipped, searched)


def test_check_with_oracle_where_t_does_not_divide_2m_is_fast(capsys):
    # The end-to-end `check --oracle` answer, and its time budget, where t
    # does not divide 2m (m = 2, t = 3161): the space is empty and the oracle
    # agrees.  It does not pin the gcd(a, 2m) = t skip, since without it the
    # |b| <= 2t search still ends in a few ms;
    # test_only_a_with_gcd_2m_equal_to_t_are_tested does.
    from hkmoduli import cli

    start = time.perf_counter()
    code = cli.main(["check", "--oracle", "--family", "k3n", "--n", "2",
                     "--d", "1", "--t", "3161"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0 and "non-empty: no" in out
    assert elapsed < 0.05, elapsed


def test_bundle_status_is_the_status_of_the_class_on_its_slice():
    # criterion 11's direct computation: on d = t^2 e - m with t >= 2 the
    # class t*L_n + delta has L^2 = 2e; every other cell is off the slice.
    # Every witness on the slice is that class, (t, 1, e), and its report's
    # two flags are the status (what `check --oracle` compares wherever
    # there is a witness and a status).
    surfaces = {K3: SurfaceKind.K3, KUM: SurfaceKind.ABELIAN}
    on_slice = witnessed = 0
    for family in (K3, KUM):
        for n in range(2, 17):
            m = family.m(n)
            for t in range(1, 15):
                for d in range(1, 250):
                    q = ModuliQuery(family, n, d, t)
                    status = bundle_status(q)
                    e, r = divmod(d + m, t * t)
                    if t == 1 or r:
                        assert status is None, q
                        continue
                    on_slice += 1
                    assert status == induced_bundle_status(
                        BundleSpec(surfaces[family], t, e), n), q
                    rep = report(q)
                    if rep.witness is not None:
                        witnessed += 1
                        assert rep.witness == (t, 1, e), q
                        assert status == (rep.bpf_some_component,
                                          rep.va_some_component), q
    assert on_slice > 1000 and witnessed > 100
