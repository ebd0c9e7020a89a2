"""Brute-force lattice search, used to cross-verify the closed formulas.

The oracle knows nothing about congruence criteria or counting cases.  It
scans classes v = a*(f + e*g) + b*delta inside finite bounds and keeps
those that the class check of `moduli` accepts: primitive, e >= 1, square
2d and divisibility t, from the closed forms.  Since v and -v
generate the same polarization data, a is restricted to a >= 1 while b
runs over both signs.

Only multiples of t are tried for a: (v, g) = a, because f.g = 1, g^2 = 0
and delta is orthogonal to U, and div(v) divides every pairing of v, so
div(v) = t forces t | a.  Of those, only the a with gcd(a, 2m) = t are
tried: a primitive class has gcd(a, b) = 1, so div(v) = gcd(a, 2*b*m) =
gcd(a, 2m) (`lattice.divisibility`), and a cell with t not dividing 2m makes
no test at all.  Nor does a cell with t not dividing 2d: a hit also has
a^2 | d + b^2*m, so t | d + b^2*m, and t | 2*b^2*m because t | 2m, so
t | 2d.  Both skips hold for any bounds (`_no_hit`).  For each a that is
tried, only one period of b is tested: with
h = gcd(m, a^2) and P = a^2/h, the condition a^2 | d + b^2*m depends on b
only through b mod P, since (b + P)^2*m - b^2*m = 2*b*a^2*(m/h) +
a^2*(a^2/h)*(m/h) is a multiple of a^2.  So the hits past the lowest P
values of b are translates of the hits among them.  A search makes at most
P tests per a, and at a = t that is at most 2t (below).  Only these
identities of the lattice are used, which hold for any a, b and m.  Of
`moduli` the search reads only the class check, whose closed forms `lattice`
checks against Gram matrices: not its residue criterion, nor its counting
cases, nor its lemma that puts the smallest residue b in [1, t].

The default bounds (max_a = t, max_b = 2t, max_e = d + 4m) hold a hit
whenever any search finds one, so "no hit within default bounds" genuinely
means "empty", and no wider search can change that verdict.  A hit
(a, b, e) of any bounds has t | a, gcd(a, 2m) = t, gcd(a, b) = 1 and
a^2 | d + b^2*m.  So t | 2m, t^2 | d + b^2*m and gcd(t, b) = 1.  At a = t
the period P = t^2/gcd(m, t^2) divides 2t: t divides 2m and 2t^2, hence
2*gcd(m, t^2), so t^2 divides 2t*gcd(m, t^2).  With b' = b mod 2t, b' = b
(mod P) gives t^2 | d + b'^2*m, and b' = b (mod t) gives gcd(t, b') = 1, so
(t, b') is primitive with divisibility gcd(t, 2*b'*m) = gcd(t, 2m) = t.
Its e' = (d + b'^2*m)/t^2 is a positive integer because d >= 1, and
e' <= d + 4m because b'^2 < 4t^2.  So (t, b', e') is a hit inside the
default bounds.

The same hits give the component count (`class_count`): the class of v/t
in the discriminant group is 2m*b/t mod 2m, which depends only on b mod t,
and b' = b (mod t) above.  So every class that any search finds, the
default search finds too.

`bundle_status` is the oracle of the threshold flags: it reads the surface
bounds of `bundles`, not the threshold formulas of `moduli`.  On the slice
t >= 2, t^2 | d + m it gives the status of the bundle that the class
t*L_n + delta induces.

`cross_check(rep)` is the whole of `--oracle`, for `check` and `witness`
alike: one search within the default bounds of the report's query,
refused above ORACLE_MAX_CANDIDATES pairs (a, b), whose hits must agree
with the report's verdict, its witness, its component count and its two
flags.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Optional

from .bundles import (BundleSpec, BundleStatus, SurfaceKind,
                      induced_bundle_status)
from .moduli import (Family, InternalInconsistency, ModuliQuery,
                     ModuliReport, Witness, _is_class, _validate)

__all__ = [
    "SearchBounds",
    "bundle_status",
    "class_count",
    "cross_check",
    "default_bounds",
    "enumerate_witnesses",
    "verify_witness",
]


class SearchBounds(NamedTuple):
    max_a: int
    max_b: int
    max_e: int


def default_bounds(q: ModuliQuery) -> SearchBounds:
    """Bounds guaranteed to contain a witness whenever one exists at all,
    and one of every class that `class_count` counts (module docstring).
    ValueError for n < 2, d < 1 or t < 1."""
    return _default_bounds(q.d, q.t, _validate(q))


def _default_bounds(d: int, t: int, m: int) -> SearchBounds:
    # tuple.__new__ builds the same SearchBounds as its generated keyword
    # __new__, at about a third of the cost (the idiom of `moduli`)
    return tuple.__new__(SearchBounds, (t, 2 * t, d + 4 * m))


def enumerate_witnesses(
    q: ModuliQuery,
    bounds: Optional[SearchBounds] = None,
    stop_after: Optional[int] = None,
) -> list[Witness]:
    """All witnesses with 1 <= a <= max_a, |b| <= max_b, 1 <= e <= max_e.

    Returned sorted by (a, b, e).  With stop_after = k >= 0 the scan stops
    once k witnesses are found (the result is then the first k of the full
    sorted enumeration, which is what existence probes need); k = 0 scans
    nothing.  ValueError for n < 2, d < 1, t < 1 or a negative stop_after.

    A cell with t not dividing 2m or t not dividing 2d returns [] with no
    scan, whatever the bounds: a hit has t | a and gcd(a, 2m) = t, so
    t | 2m, and a^2 | d + b^2*m, so t | d + b^2*m; with t | 2*b^2*m that
    gives t | 2d (module docstring).
    """
    family, n, d, t = q
    m = family.m(n)
    if bounds is None:
        bounds = _default_bounds(d, t, m)
    max_a, max_b, max_e = bounds
    if d < 1 or t < 1:
        _validate(q)  # raises, with the text of `moduli`
    found: list[Witness] = []
    if stop_after is not None and stop_after < 1:
        if stop_after:
            raise ValueError("stop_after must be >= 0, got %r" % (stop_after,))
        return found
    if _no_hit(m, d, t):
        return found
    # t | a and gcd(a, 2m) = t for every hit (see the module docstring).
    # Hits come out sorted by (a, b), and e is a function of (a, b).
    for a in range(t, max_a + 1, t):
        if gcd(a, 2 * m) != t:
            continue
        asq = a * a
        for b in _square_hits(m, d, asq, max_b):
            # e is forced by requiring the square to be 2d:
            # 2*a^2*e - 2*b^2*m = 2d  <=>  e = (d + b^2*m) / a^2.
            e = (d + b * b * m) // asq
            if e > max_e or not _is_class(a, b, e, m, d, t):
                continue
            # tuple.__new__ as in `_default_bounds`
            found.append(tuple.__new__(Witness, (a, b, e)))
            if stop_after is not None and len(found) >= stop_after:
                return found
    return found


def _no_hit(m: int, d: int, t: int) -> bool:
    # t does not divide 2m or 2d: no bounds hold a hit (module docstring)
    return 2 * m % t != 0 or 2 * d % t != 0


def _square_hits(m, d, asq, max_b):
    """The b in [-max_b, max_b] with asq | d + b^2*m, in ascending order.

    Whether b is a hit depends only on b mod P, P = asq / gcd(m, asq):
    (b + P)^2*m - b^2*m = 2*b*P*m + P^2*m, and both terms are multiples of
    asq, because P*m = asq*(m/h) and P^2*m = asq*P*(m/h) with h = gcd(m, asq).
    So only the lowest min(P, 2*max_b + 1) values of b, the window, are
    tested; every later hit is a translate b + k*P of a hit in the window,
    and the translates by k*P all lie below those by (k + 1)*P.  Hits are
    yielded as they are found, so a caller that stops early pays only for
    the window up to its stop.
    """
    period = asq // gcd(m, asq)
    target = -d % asq
    roots = []
    for b in range(-max_b, min(period - max_b, max_b + 1)):
        if b * b * m % asq == target:
            roots.append(b)
            yield b
    for shift in range(period, 2 * max_b + 1, period):
        for b in roots:
            b += shift
            if b > max_b:
                break
            yield b


def verify_witness(w: Witness, q: ModuliQuery) -> bool:
    """True iff w really is a polarization class for q: primitive, e >= 1,
    square 2d, divisibility t, all checked by the class check of `moduli`.
    ValueError for n < 2, d < 1 or t < 1, whatever w is."""
    family, n, d, t = q
    if d < 1 or t < 1:
        _validate(q)  # raises, with the text of `moduli`
    a, b, e = w
    return _is_class(a, b, e, family.m(n), d, t)


def class_count(q: ModuliQuery, hits: Iterable[Witness]) -> int:
    """The number of classes of v/t in A = L*/L = Z/2m, up to sign, over
    the hits v = a*(f + e*g) + b*delta of a search for q.

    div(v) = t, so v/t lies in the dual lattice L*, and A is generated by
    delta/2m: v/t = (a/t)*(f + e*g) + (2m*b/t)*(delta/2m), with t | a, so
    the class of v/t is 2m*b/t mod 2m.  It is folded to min(c, -c mod 2m).
    Over the hits of the default bounds this counts every class that any
    search finds (module docstring), with no special case at t <= 2 (there
    every class is its own negative).  ValueError for n < 2, d < 1 or t < 1.

    By Eichler's criterion (the lattice L of either family contains U + U)
    the orbit of a primitive v under the isometries of O+(L) that act as +1
    or -1 on A is fixed by v^2 and the class of v/t up to sign; both signs
    occur.  For K3^[n] type that group is the monodromy group, so this is
    the number of connected components (Gritsenko-Hulek-Sankaran 2009).

    For Kummer type the count is the same by the following argument.  It
    consumes Mongardi's description (2016) of the monodromy group,
    Mon^2(Kum_n) = {g in W : det(g)*chi(g) = 1} for W = {g in O+(L) : g
    acts as +-1 on A} and chi(g) = +-1 the sign of that action, as a
    statement; it was not checked against the source here.  Take
    u = f2 - g2 in the second copy of U: u^2 = -2 and u is orthogonal to
    v, which lies in the first U + <delta>.  The reflection
    s(x) = x + (x.u)*u is an integral isometry of det -1; as a reflection
    in a negative vector it keeps the orientation of positive 3-planes, so
    it lies in O+(L); x.u is an integer for every x in L*, so s acts as
    +1 on A; and s(v) = v.  So s lies in W but not in Mon^2, which has
    index 2 in W: every g in W is g' or g'*s with g' in Mon^2, and
    g'*s(v) = g'(v).  So no W-orbit splits into two monodromy orbits, and
    the count of W-orbits is the component count.
    Acceptance criterion 12 checks s on the full Kummer-type lattice.
    """
    family, n, d, t = q
    if d < 1 or t < 1:
        _validate(q)  # raises, with the text of `moduli`
    two_m = 2 * family.m(n)
    classes = (two_m // t * w.b % two_m for w in hits)
    return len({min(c, -c % two_m) for c in classes})


_SURFACES = {Family.K3HILB: SurfaceKind.K3, Family.KUMMER: SurfaceKind.ABELIAN}


def bundle_status(q: ModuliQuery) -> Optional[BundleStatus]:
    """Base point freeness and very ampleness of the bundle induced by the
    class t*L_n + delta, or None off the slice t >= 2, t^2 | d + m.

    On the slice d = t^2*e - m with e = (d + m)/t^2 >= 1, and the class
    t*(f + e*g) + delta, i.e. t*L_n + delta with L^2 = 2e on a K3 surface
    (K3^[n] type) or an abelian surface (Kummer type) with Pic = Z*L, has
    square 2d.  When also t | 2m, b = 1 is the smallest residue and this
    class is the witness (t, 1, e).  The status is
    `induced_bundle_status(BundleSpec(surface, t, e), n)`.

    The a >= 2 bound of `bundles` is a sufficient condition only, so a
    match with the threshold flags shows that they are exactly what this
    class certifies; it does not prove the "iff" of the threshold notes.
    t = 1 is left out: there the a = 1 bundle rule and the t = 1 threshold
    rules disagree, so they are not the status of this class.  ValueError
    for n < 2, d < 1 or t < 1.
    """
    family, n, d, t = q
    if d < 1 or t < 1:
        _validate(q)  # raises, with the text of `moduli`
    e, r = divmod(d + family.m(n), t * t)
    if t < 2 or r:
        return None
    return induced_bundle_status(BundleSpec(_SURFACES[family], t, e), n)


# The cap counts the pairs (a, b) of the default search, (max_a // t) *
# (2*max_b + 1) = 4*t + 1, or 0 on a cell that `_no_hit` skips: it is
# reached at t = 62501 on a cell with t | 2m and t | 2d.  Every pair of the
# window can be a hit that is checked through the class check (t prime,
# t^2 | m, t^2 | d: all b prime to t), so the cap is set from that cell;
# t = 62497 takes about 0.3 s (README).
ORACLE_MAX_CANDIDATES = 250_001


def cross_check(rep: ModuliReport) -> SearchBounds:
    """Check a report against one search within `default_bounds` of its
    query; return those bounds.

    The search must find a hit exactly when the report has a witness, the
    witness must be among its hits, `rep.components` must be `class_count`
    over the hits and, when there is a witness and `bundle_status` is not
    None, the two `*_some_component` flags must be that status: on that
    slice a non-empty space has b = 1 as its smallest residue, so its
    witness is (t, 1, e), the class t*L_n + delta.  Raises ValueError,
    before any search, for n < 2, d < 1 or t < 1, or when the search would
    test more than ORACLE_MAX_CANDIDATES pairs (a, b); a cell that
    `_no_hit` skips tests none.  Raises InternalInconsistency on any
    disagreement.
    """
    family, n, d, t, _, count, w, bpf, va = rep[:9]
    q = ModuliQuery(family, n, d, t)
    bounds = default_bounds(q)
    pairs = (0 if _no_hit(family.m(n), d, t)
             else bounds.max_a // t * (2 * bounds.max_b + 1))
    if pairs > ORACLE_MAX_CANDIDATES:
        raise ValueError(
            "oracle search over its default bounds, a = %d and |b| <= %d, "
            "would scan 4*t + 1 = %d candidate pairs (a, b), above the cap "
            "of %d" % (*bounds[:2], pairs, ORACLE_MAX_CANDIDATES))
    hits = enumerate_witnesses(q, bounds)
    if (((w not in hits) if w else hits) or count != class_count(q, hits)
            or w and bundle_status(q) not in (None, (bpf, va))):
        raise InternalInconsistency(
            "oracle (search within %r, class count, bundle status) disagrees "
            "with the formulas at %r" % (bounds, q))
    return bounds
