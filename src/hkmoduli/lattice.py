"""BBF squares and divisibilities of polarization classes.

For the two families handled here the second cohomology carries the
Beauville-Bogomolov-Fujiki form:

    K3HILB (Hilbert schemes of n points on a K3 surface, n >= 2):
        H^2 = U^3 + E8(-1)^2 + Z*delta,   delta^2 = -2(n-1),  rank 23
    KUMMER (generalized Kummer varieties, n >= 2):
        H^2 = U^3 + Z*delta,              delta^2 = -2(n+1),  rank 7

A polarization candidate is a class v = a*(f + e*g) + b*delta where f, g is
a standard basis of one hyperbolic plane U (f^2 = g^2 = 0, f.g = 1), e >= 1,
and gcd(a, b) = 1 so that v is primitive.  Its square and divisibility (the
positive generator of the pairing ideal (v, H^2)) have closed forms, with
m = n-1 resp. n+1:

    v^2 = 2*a^2*e - 2*b^2*m
    div(v) = gcd(a, 2*b*m)

`bbf_square` and `divisibility` check a `LatticeClass` and evaluate these
closed forms on its fields; the class check of the calculator,
`moduli._is_class`, evaluates them on plain ints.  The Gram-matrix path
(`rank3_model` / `full_model` + `gram_divisibility`) recomputes the same
quantities from an explicit bilinear form, with no shared code, as an
oracle.  Only tests and the benchmark read this module; the calculator and
`oracle` do not import it.
A `GramLattice` keeps the nonzero entries of each row, found once when it
is built, and `gram_divisibility` pairs through those alone.

Why a rank 3 model is faithful: v lies in the sublattice M = U + Z*delta,
and M splits off H^2 as a direct summand, H^2 = M + N with N orthogonal to
M.  Every pairing of v against H^2 is then a pairing against M (the N part
contributes 0), so the ideal (v, H^2) equals (v, M) and the divisibility of
v computed in the 3 x 3 Gram matrix of M is the divisibility in the full
lattice; the square is an evaluation of the same form and does not see N at
all.  This needs only the direct sum decomposition, not unimodularity of N.
The full-rank models are still provided (23 x 23 and 7 x 7) so tests can
check the reduction instead of assuming it.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .moduli import Family, _square

__all__ = [
    "DimensionMismatch",
    "GramLattice",
    "LatticeClass",
    "bbf_square",
    "direct_sum",
    "divisibility",
    "e8_minus",
    "full_model",
    "gram_divisibility",
    "hyperbolic_plane",
    "is_primitive",
    "rank3_model",
]


class DimensionMismatch(ValueError):
    """Vector length does not match the rank of the Gram matrix."""


class LatticeClass(NamedTuple):
    """The class a*(f + e*g) + b*delta in the lattice of `family` at `n`."""

    family: Family
    n: int
    a: int
    b: int
    e: int


def _check(c: LatticeClass) -> None:
    if c.n < 2:
        raise ValueError("n must be >= 2, got %r" % (c.n,))
    if c.e < 1:
        raise ValueError("e must be >= 1, got %r" % (c.e,))
    if c.a == 0 and c.b == 0:
        raise ValueError("(a, b) = (0, 0) is the zero class")


def bbf_square(c: LatticeClass) -> int:
    """BBF square of the class: 2*a^2*e - 2*b^2*m.

    >>> bbf_square(LatticeClass(Family.K3HILB, 2, 2, 1, 1))
    6
    >>> bbf_square(LatticeClass(Family.KUMMER, 2, 2, 1, 1))
    2
    """
    _check(c)
    return _square(c.a, c.b, c.e, c.family.m(c.n))


def divisibility(c: LatticeClass) -> int:
    """Positive generator of the pairing ideal: gcd(a, 2*b*m).

    Independent of e, like the pairing ideal itself.

    >>> divisibility(LatticeClass(Family.K3HILB, 2, 2, 1, 1))
    2
    """
    _check(c)
    # the closed form, written out here and in moduli._is_class, not called:
    # the benchmark's gram workload calls this next to the Gram path, and
    # there a nested call measured ~1% of its throughput
    return gcd(c.a, 2 * c.b * c.family.m(c.n))


def is_primitive(a: int, b: int) -> bool:
    """True iff a*(f + e*g) + b*delta is primitive, i.e. gcd(a, b) = 1."""
    return gcd(a, b) == 1


class _GramFields(NamedTuple):
    gram: tuple[tuple[int, ...], ...]
    # per row, the (column, entry) pairs of its nonzero entries, from gram
    terms: tuple[tuple[tuple[int, int], ...], ...]


class GramLattice(_GramFields):
    """A lattice given by an explicit integer Gram matrix."""

    # Validation needs __new__, which a NamedTuple body cannot override, so
    # it lives in this subclass; empty slots keep instances immutable.
    __slots__ = ()

    def __new__(cls, gram: tuple[tuple[int, ...], ...]) -> GramLattice:
        r = len(gram)
        for row in gram:
            if len(row) != r:
                raise ValueError("Gram matrix must be square")
        for i in range(r):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        terms = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                      for row in gram)
        return super().__new__(cls, gram, terms)

    @classmethod
    def _make(cls, iterable) -> GramLattice:
        # the inherited _make (and so _replace) would skip __new__ and keep
        # the terms given; they are derived, so only the matrix is taken
        gram, *_ = iterable
        return cls(gram)

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild through __new__, which takes the matrix
        return (self.gram,)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Bilinear pairing u.v, from the full matrix."""
        if len(u) != self.rank or len(v) != self.rank:
            raise DimensionMismatch(
                "expected vectors of length %d" % self.rank)
        return sum(ui * sum(gij * vj for gij, vj in zip(row, v))
                   for ui, row in zip(u, self.gram))


def gram_divisibility(lat: GramLattice, v: Sequence[int]) -> int:
    """gcd of the pairings of v with a basis; ValueError when v pairs to 0
    with every basis vector (v = 0, or v in the radical of a degenerate
    matrix).

    This is the divisibility of v in `lat`, computed with no reference to
    the closed forms above.
    """
    terms = lat.terms
    if len(v) != len(terms):
        raise DimensionMismatch(
            "vector of length %d in a rank %d lattice" % (len(v), len(terms)))
    # plain loops: a comprehension or generator per row costs more than the
    # one to three products of a typical row
    g = 0
    for row in terms:
        s = 0
        for j, x in row:
            s += x * v[j]
        g = gcd(g, s)
    if g == 0:
        raise ValueError("divisibility is undefined: v pairs to 0 with "
                         "every basis vector")
    return g


def hyperbolic_plane() -> GramLattice:
    """U: the even unimodular rank 2 lattice of signature (1, 1)."""
    return GramLattice(((0, 1), (1, 0)))


# E8 Cartan matrix (nodes numbered so that 1-3-4-5-6-7-8 is the chain and
# node 2 hangs off node 4), then negated to get the negative definite E8(-1).
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8_minus() -> GramLattice:
    """E8(-1): negative definite, even, unimodular, rank 8."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in _E8_EDGES:
        g[i - 1][j - 1] = g[j - 1][i - 1] = 1
    return GramLattice(tuple(tuple(row) for row in g))


def direct_sum(*parts: GramLattice) -> GramLattice:
    """Orthogonal direct sum, blocks in the given order."""
    rank = sum(p.rank for p in parts)
    g = [[0] * rank for _ in range(rank)]
    off = 0
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                g[off + i][off + j] = p.gram[i][j]
        off += p.rank
    return GramLattice(tuple(tuple(row) for row in g))


def rank3_model(family: Family, n: int) -> GramLattice:
    """U + <-2m> with basis (f, g, delta): the summand containing every
    class this package handles, a*(f + e*g) + b*delta at (a, a*e, b)."""
    return GramLattice(((0, 1, 0), (1, 0, 0), (0, 0, -2 * family.m(n))))


def full_model(family: Family, n: int) -> GramLattice:
    """The full BBF lattice: rank 23 for K3HILB, rank 7 for KUMMER.

    U comes first and delta last, so a*(f + e*g) + b*delta is (a, a*e, 0,
    ..., 0, b)."""
    u = hyperbolic_plane()
    span = GramLattice(((-2 * family.m(n),),))
    if family is Family.K3HILB:
        e8 = e8_minus()
        return direct_sum(u, u, u, e8, e8, span)
    return direct_sum(u, u, u, span)

