import copy
import doctest
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkmoduli import lattice, moduli
from hkmoduli.lattice import (
    DimensionMismatch,
    Family,
    GramLattice,
    LatticeClass,
    bbf_square,
    direct_sum,
    divisibility,
    e8_minus,
    full_model,
    gram_divisibility,
    hyperbolic_plane,
    is_primitive,
    rank3_model,
)


def det(rows):
    # plain fraction Gaussian elimination; exact, fast enough for 23 x 23
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            out = -out
        out *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return out


def test_doctests():
    assert doctest.testmod(lattice).failed == 0


# ----------------------------------------------------------------- families

def test_family_m():
    assert Family.K3HILB.m(2) == 1
    assert Family.K3HILB.m(10) == 9
    assert Family.KUMMER.m(2) == 3
    assert Family.KUMMER.m(10) == 11
    # delta^2 = -2m is the last diagonal entry of the rank 3 model
    assert rank3_model(Family.K3HILB, 5).gram[2][2] == -8
    assert rank3_model(Family.KUMMER, 5).gram[2][2] == -12
    with pytest.raises(ValueError):
        Family.K3HILB.m(1)


def test_family_tags():
    assert Family("k3n") is Family.K3HILB
    assert Family("kum") is Family.KUMMER


# ------------------------------------------------------------- closed forms

def test_bbf_square_examples():
    assert bbf_square(LatticeClass(Family.K3HILB, 2, 2, 1, 1)) == 6
    assert bbf_square(LatticeClass(Family.KUMMER, 2, 2, 1, 1)) == 2
    assert bbf_square(LatticeClass(Family.K3HILB, 4, 1, 1, 10)) == 14
    # negative squares happen for non-ample classes; the form is indefinite
    assert bbf_square(LatticeClass(Family.K3HILB, 10, 1, 3, 1)) == -160


def test_divisibility_examples():
    assert divisibility(LatticeClass(Family.K3HILB, 2, 2, 1, 1)) == 2
    assert divisibility(LatticeClass(Family.KUMMER, 2, 2, 1, 7)) == 2
    assert divisibility(LatticeClass(Family.K3HILB, 10, 3, 1, 1)) == 3
    assert divisibility(LatticeClass(Family.K3HILB, 2, 0, 1, 1)) == 2
    # div is e-independent and sign-independent
    for e in (1, 2, 9):
        for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            c = LatticeClass(Family.KUMMER, 3, 8 * sa, 3 * sb, e)
            assert divisibility(c) == 8


def test_validation():
    with pytest.raises(ValueError):
        bbf_square(LatticeClass(Family.K3HILB, 2, 0, 0, 1))
    with pytest.raises(ValueError):
        bbf_square(LatticeClass(Family.K3HILB, 2, 1, 1, 0))
    with pytest.raises(ValueError):
        divisibility(LatticeClass(Family.K3HILB, 1, 1, 1, 1))


def test_is_primitive():
    assert is_primitive(2, 1)
    assert is_primitive(1, 0)
    assert is_primitive(0, 1)
    assert not is_primitive(2, 4)
    assert not is_primitive(0, 2)
    assert not is_primitive(0, 0)


# ------------------------------------------------------------- gram lattices

def test_gram_validation():
    with pytest.raises(ValueError):
        GramLattice(((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        GramLattice(((0, 1),))
    with pytest.raises(ValueError):
        hyperbolic_plane()._replace(gram=((0, 1), (2, 0)))


def test_hyperbolic_plane():
    u = hyperbolic_plane()
    assert u.rank == 2
    assert det(u.gram) == -1
    assert u.pair((1, 1), (1, 1)) == 2
    assert u.pair((1, 0), (1, 0)) == 0


def test_e8_minus_shape():
    e8 = e8_minus()
    assert e8.rank == 8
    assert all(e8.gram[i][i] == -2 for i in range(8))
    # even negative definite unimodular
    assert det(e8.gram) == 1
    for k in range(1, 9):
        minor = det([row[:k] for row in e8.gram[:k]])
        assert (-1) ** k * minor > 0, k
    assert all(e8.pair(v, v) % 2 == 0
               for v in [(1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 1, 0, 1)])


def test_direct_sum_and_full_models():
    assert full_model(Family.K3HILB, 2).rank == 23
    assert full_model(Family.KUMMER, 2).rank == 7
    m = direct_sum(hyperbolic_plane(), GramLattice(((-4,),)))
    assert m.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -4))
    assert m.gram == rank3_model(Family.K3HILB, 3).gram
    # discriminant 2m for both families: det(U)^3 * det(<-2m>) = 2m
    assert det(full_model(Family.K3HILB, 4).gram) == 6
    assert det(full_model(Family.KUMMER, 4).gram) == 10


def test_gram_terms_are_derived_from_the_matrix():
    u = hyperbolic_plane()
    assert u.terms == (((1, 1),), ((0, 1),))
    assert rank3_model(Family.K3HILB, 3).terms == (
        ((1, 1),), ((0, 1),), ((2, -4),))
    # 3 * 2 entries in the U's, 2 * (8 + 2 * 7) in the E8(-1)'s, and delta
    assert sum(map(len, full_model(Family.K3HILB, 2).terms)) == 51
    # two lattices from one matrix are equal, and so are their rows
    assert GramLattice(((0, 1), (1, 0))) == u
    assert direct_sum(hyperbolic_plane(), GramLattice(((-4,),))) == (
        rank3_model(Family.K3HILB, 3))
    # _replace and _make take the matrix and derive its rows again
    w = u._replace(gram=((2, -1), (-1, 0)))
    assert w.terms == (((0, 2), (1, -1)), ((0, -1),))
    assert GramLattice._make((((0, 3), (3, 0)), u.terms)).terms == (
        ((1, 3),), ((0, 3),))
    assert u._replace(terms=((), ())) == u
    with pytest.raises(ValueError):
        GramLattice._make((((0, 1), (2, 0)), u.terms))
    assert copy.copy(u) == u
    assert pickle.loads(pickle.dumps(e8_minus())) == e8_minus()


def test_gram_divisibility_basics():
    model = rank3_model(Family.K3HILB, 2)
    assert gram_divisibility(model, (2, 2, 1)) == 2
    with pytest.raises(DimensionMismatch):
        gram_divisibility(model, (1, 2))
    with pytest.raises(ValueError, match="pairs to 0 with every basis"):
        gram_divisibility(model, (0, 0, 0))
    with pytest.raises(DimensionMismatch):
        model.pair((1, 0), (0, 1, 0))


def test_gram_divisibility_of_a_radical_vector():
    # a degenerate matrix is a valid GramLattice; a nonzero v in its radical
    # pairs to 0 with every basis vector, so it has no divisibility either
    lat = GramLattice(((1, -1), (-1, 1)))
    assert lat.pair((1, 1), (1, 0)) == lat.pair((1, 1), (0, 1)) == 0
    with pytest.raises(ValueError, match="pairs to 0 with every basis"):
        gram_divisibility(lat, (1, 1))
    assert gram_divisibility(lat, (3, -3)) == 6
    with pytest.raises(ValueError, match="pairs to 0 with every basis"):
        gram_divisibility(GramLattice(((0, 0), (0, 0))), (1, 2))


families = st.sampled_from([Family.K3HILB, Family.KUMMER])
small_n = st.integers(min_value=2, max_value=40)
coeff = st.integers(min_value=-50, max_value=50)
small_e = st.integers(min_value=1, max_value=50)


@settings(max_examples=400)
@given(families, small_n, coeff, coeff, small_e)
def test_closed_forms_match_rank3_gram(family, n, a, b, e):
    if a == 0 and b == 0:
        return
    c = LatticeClass(family, n, a, b, e)
    model = rank3_model(family, n)
    v = (a, a * e, b)
    m = family.m(n)
    assert model.pair(v, v) == bbf_square(c) == moduli._square(a, b, e, m)
    assert gram_divisibility(model, v) == divisibility(c)
    # the class check against the Gram model's own square and divisibility,
    # at e and at 1 - e <= 0
    for e_ in (e, 1 - e):
        v = (a, a * e_, b)
        assert (moduli._is_class(a, b, e_, m, model.pair(v, v) // 2,
                                 gram_divisibility(model, v))
                == (e_ >= 1 and gcd(a, b) == 1))


@pytest.mark.parametrize("family, n, a, b, e", [
    (Family.K3HILB, 2, 2, 1, 1),
    (Family.K3HILB, 10, 3, 1, 4),
    (Family.KUMMER, 2, 2, 1, 1),
    (Family.KUMMER, 3, 8, 3, 1),
    (Family.KUMMER, 3, 0, 1, 5),
])
def test_is_class_fails_on_each_condition_alone(family, n, a, b, e):
    m = family.m(n)
    c = LatticeClass(family, n, a, b, e)
    d, t = bbf_square(c) // 2, divisibility(c)
    assert moduli._is_class(a, b, e, m, d, t)
    # e out of range; the square and divisibility at e' <= 0 are those of
    # the closed forms, so only e >= 1 fails
    for bad_e in (0, -1):
        assert not moduli._is_class(a, b, bad_e, m,
                                    moduli._square(a, b, bad_e, m) // 2, t)
    # k*v, k > 1: square k^2*2d and divisibility k*t, but not primitive
    for k in (2, 3):
        assert not moduli._is_class(k * a, k * b, e, m, k * k * d, k * t)
    # the square one step off either way
    assert not moduli._is_class(a, b, e, m, d + 1, t)
    assert not moduli._is_class(a, b, e, m, d - 1, t)
    # a proper multiple of the divisibility, and a proper divisor of it
    for bad_t in (2 * t, 3 * t) + ((t // 2,) if t % 2 == 0 else ()):
        assert not moduli._is_class(a, b, e, m, d, bad_t)


@settings(max_examples=200, deadline=None)
@given(families, small_n, coeff, coeff, small_e)
def test_full_rank_models_agree_with_rank3(family, n, a, b, e):
    if a == 0 and b == 0:
        return
    c = LatticeClass(family, n, a, b, e)
    full = full_model(family, n)
    # (a, a*e) in the first U, b on delta (the last basis vector)
    v = [0] * full.rank
    v[0], v[1], v[-1] = a, a * e, b
    assert full.pair(v, v) == bbf_square(c)
    assert gram_divisibility(full, v) == divisibility(c)


@settings(max_examples=200, deadline=None)
@given(families, st.integers(min_value=2, max_value=5), st.data())
def test_gram_divisibility_off_the_rank3_span(family, n, data):
    # every other test feeds vectors (a, a*e, b); here v has negative entries
    # and weight outside U + Z*delta (E8(-1) for K3HILB, the other two U's
    # for KUMMER), checked against the pairings with the standard basis
    lat = full_model(family, n)
    v = data.draw(st.lists(coeff, min_size=lat.rank, max_size=lat.rank))
    assume(any(x < 0 for x in v))
    assume(any(v[6:22]) if family is Family.K3HILB else any(v[2:6]))
    basis = [[int(i == j) for j in range(lat.rank)] for i in range(lat.rank)]
    expected = gcd(*(lat.pair(e, v) for e in basis))
    assert gram_divisibility(lat, v) == expected


mostly_zero = st.one_of(st.just(0), st.just(0), st.just(0),
                        st.integers(min_value=-30, max_value=30))


@st.composite
def sparse_symmetric(draw):
    r = draw(st.integers(min_value=1, max_value=10))
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            g[i][j] = g[j][i] = draw(mostly_zero)
    return GramLattice(tuple(map(tuple, g)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(sparse_symmetric(), st.builds(full_model, families, small_n),
                 st.just(e8_minus())), st.data())
def test_gram_divisibility_matches_dense_reference(lat, data):
    # the gcd of the pairings of v with the basis, every entry of every row
    # multiplied, zeros included; 0 when v pairs to 0 with all of them
    v = data.draw(st.lists(coeff, min_size=lat.rank, max_size=lat.rank))
    expected = gcd(*(sum(gij * vj for gij, vj in zip(row, v))
                     for row in lat.gram))
    if expected == 0:
        with pytest.raises(ValueError, match="pairs to 0 with every basis"):
            gram_divisibility(lat, v)
    else:
        assert gram_divisibility(lat, v) == expected


@settings(max_examples=200)
@given(st.lists(coeff, min_size=8, max_size=8),
       st.integers(min_value=-30, max_value=30))
def test_gram_divisibility_unimodular_e8(v, k):
    # E8(-1) is unimodular, so a primitive v has divisibility 1 and k*v has |k|
    assume(gcd(*v) == 1 and k != 0)
    e8 = e8_minus()
    assert gram_divisibility(e8, v) == 1
    assert gram_divisibility(e8, [k * x for x in v]) == abs(k)


@settings(max_examples=200)
@given(families, small_n, coeff, coeff, small_e)
def test_divisibility_divides_square(family, n, a, b, e):
    # v.v is an integer combination of the pairings (v, basis vector),
    # each of which is divisible by div(v)
    if a == 0 and b == 0:
        return
    c = LatticeClass(family, n, a, b, e)
    assert bbf_square(c) % divisibility(c) == 0
