"""Moduli spaces of polarized pairs: non-emptiness, components, thresholds.

A query (family, n, d, t) asks about the moduli space of polarized pairs
(X, H) where X deforms to the Hilbert scheme of n points on a K3 surface
(family K3HILB) or to a generalized Kummer variety of dimension 2n (family
KUMMER), H is primitive ample with BBF square 2d and divisibility t.  Write
m = n-1 for K3HILB and m = n+1 for KUMMER throughout.

The class check.  A class a*(f + e*g) + b*delta, with f, g a standard basis
of one hyperbolic plane (f^2 = g^2 = 0, f.g = 1) and delta^2 = -2m, has
square 2*a^2*e - 2*b^2*m and divisibility gcd(a, 2*b*m) (the closed forms
of `lattice`).  `_is_class(a, b, e, m, d, t)` is the one check, on plain
ints and unvalidated, that (a, b, e) is a primitive such class with e >= 1,
square 2d and divisibility t: every witness built here is re-verified
through it, and `oracle` checks every hit and every witness it is given
through it.  Its independent check is the Gram-matrix path of `lattice`,
which recomputes both quantities from an explicit bilinear form with no
shared code; the tests compare the two.

Non-emptiness.  The space is non-empty iff t divides 2m and there is an
integer b, coprime to t, with d = -b^2*m (mod t^2).  When such b exists the
class a*(f + e*g) + b*delta with a = t and e = (d + b^2*m) / t^2 has square
2d and divisibility t, giving an explicit witness; `witness` returns it with
the smallest valid b.

Both conditions on b depend only on b mod t.  Since t | 2m,

    (b + t)^2 * m = b^2*m + t*(2*b*m) + t^2*m = b^2*m  (mod t^2),

and gcd(b + t, t) = gcd(b, t).  Every valid b therefore has a valid
representative in [1, t], so the smallest valid b in [1, t^2] already lies
in [1, t] and a scan of [1, t] decides non-emptiness in O(t) steps.

Component count.  With G = gcd(2d, 2m), t | G, set

    d1 = 2d / G,  n1 = 2m / G,  g = G / t,  w = gcd(g, t),
    g1 = g / w,   t1 = t / w,
    w+ = product of the full p-parts of w over primes p | gcd(w, t1),
    w- = w / w+.

For t > 2 the number of connected components is

    w+ * phi(w-) * 2^(rho(t1) - 1)        in cases (i)-(iii)
    w+ * phi(w-) * 2^(rho(t1/2) - 1)      in case (iv)

when exactly one of the following holds (as stated; case (iii) never does,
see below), and 0 otherwise:

    (i)   g1 even,  gcd(d1, t1) = gcd(n1, t1) = 1,
          -d1/n1 a square mod t1;
    (ii)  g1, t1, d1 odd,  gcd(d1, t1) = 1,  gcd(n1, 2*t1) = 1,
          -d1/n1 a square mod 2*t1;
    (iii) g1, t1, w odd,  d1 even,  gcd(d1, t1) = 1,  gcd(n1, 2*t1) = 1,
          -d1/(4*n1) a square mod t1;
    (iv)  g1 odd,  t1 even,  gcd(d1, t1) = 1,  gcd(n1, 2*t1) = 1,
          -d1/n1 a square mod 2*t1.

For t <= 2 the count is 1 when one of the same four conditions holds and 0
otherwise.  Two implementation notes, both forced by consistency with the
non-emptiness criterion (the equivalence count >= 1 <=> non-empty is grid
tested in the acceptance suite):

* The power of two is taken with exact division: when rho(t1) = 0 (resp.
  rho(t1/2) = 0 in case (iv)) the remaining factor w+ * phi(w-) is halved.
  That factor is provably even whenever the exponent is negative (t1 = 1
  forces w = t >= 3, and phi of anything >= 3 is even, while 2-adic parts
  land in w+), so the division is exact; `InternalInconsistency` is raised
  if it ever were not.  Rounding the exponent up to 0 instead would double
  the count of, e.g., (K3HILB, n=10, d=27, t=3) from the correct 1 to 2.

* In case (iv) the parity condition is on t1 for both families.  Reading it
  as a parity condition on d1 for KUMMER would contradict non-emptiness on
  hundreds of small queries (already (KUMMER, n=2, d=1, t=2), which has the
  explicit witness a=2, b=1, e=1 but would be assigned count 0, since
  gcd(d1, t1) = 1 forces d1 odd when t1 is even).

Case (iii) is vacuous as stated: g1, t1, w all odd forces t odd, hence
g = G/t even (G is a gcd of even numbers), hence g1 even.  The code
therefore evaluates only (i), (ii) and (iv); a grid test evaluates all four
stated conditions and checks that (iii) never holds.

Thresholds.  For t >= 2 let tau = t^2 / (2*(t-1)), an exact rational.  On
some connected component of a non-empty moduli space the polarization is

    K3HILB:  base point free if d >= (tau-1)*n + tau + 1,
             very ample     if d >= (tau-1)*n + 2*tau + 1;
    KUMMER:  base point free if d >= (tau-1)*n + 2*tau - 1,
             very ample     if d >= (tau-1)*n + 3*tau - 1.

For t = 1: on some component, K3HILB polarizations are always base point
free and very ample iff d >= n+1; KUMMER polarizations are base point free
iff d >= 3 and very ample iff d >= n+4.  Whenever H is base point free on a
component, H^(n+2) is very ample there.  All guarantees are per-component;
they extend to the whole space exactly when the component count is 1.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from .arith import euler_phi, factorize, qr_of_ratio, rho

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ComponentCountDetail",
    "Decomposition",
    "DivisibilityViolation",
    "Family",
    "InternalInconsistency",
    "ModuliQuery",
    "ModuliReport",
    "ThresholdDecision",
    "Witness",
    "component_count",
    "component_count_detail",
    "decompose",
    "is_nonempty",
    "nonempty_residue",
    "prime_power_connected",
    "report",
    "reports",
    "thresholds",
    "witness",
]


class Family(Enum):
    """The two deformation families, tagged by their CLI names."""

    K3HILB = "k3n"
    KUMMER = "kum"

    def m(self, n: int) -> int:
        """The integer m with delta^2 = -2m: n-1 for K3HILB, n+1 for KUMMER."""
        if n < 2:
            raise ValueError("n must be >= 2, got %r" % (n,))
        return n - 1 if self is Family.K3HILB else n + 1


def _square(a: int, b: int, e: int, m: int) -> int:
    # the square of a*(f + e*g) + b*delta, delta^2 = -2m
    return 2 * a * a * e - 2 * b * b * m


def _is_class(a: int, b: int, e: int, m: int, d: int, t: int) -> bool:
    # a*(f + e*g) + b*delta, delta^2 = -2m, is a polarization class of square
    # 2d and divisibility t: e >= 1, primitive, and both closed forms
    return (e >= 1 and gcd(a, b) == 1 and _square(a, b, e, m) == 2 * d
            and gcd(a, 2 * b * m) == t)


class DivisibilityViolation(ValueError):
    """t does not divide gcd(2d, 2m)."""


class InternalInconsistency(RuntimeError):
    """The counting formula and the non-emptiness criterion disagree."""


class ModuliQuery(NamedTuple):
    family: Family
    n: int
    d: int
    t: int


class Witness(NamedTuple):
    """Coordinates (a, b, e) of a polarization class a*(f + e*g) + b*delta."""

    a: int
    b: int
    e: int


def _validate(q: ModuliQuery) -> None:
    if q.n < 2:
        raise ValueError("n must be >= 2, got %r" % (q.n,))
    if q.d < 1:
        raise ValueError("d must be >= 1, got %r" % (q.d,))
    if q.t < 1:
        raise ValueError("t must be >= 1, got %r" % (q.t,))


class Decomposition(NamedTuple):
    """The derived quantities the counting cases are stated in.

    big_gcd = gcd(2d, 2m), d1 = 2d/big_gcd, n1 = 2m/big_gcd, g = big_gcd/t,
    w = gcd(g, t), g1 = g/w, t1 = t/w; w_plus collects the full p-part of w
    for every prime p dividing gcd(w, t1) and w_minus = w / w_plus.
    """

    big_gcd: int
    d1: int
    n1: int
    g: int
    w: int
    g1: int
    t1: int
    w_plus: int
    w_minus: int


class ComponentCountDetail(NamedTuple):
    count: int
    branch: Optional[str]
    halved: bool
    decomposition: Optional[Decomposition]


class ThresholdDecision(NamedTuple):
    """Per-component ampleness guarantees for a query (see module docstring).

    The booleans say whether d clears the bound; they are statements about
    components and are vacuous when the space is empty.  d_min_bpf/d_min_va
    are the smallest integers d clearing each bound at this (family, n, t).
    Each bound is bpf_num/den resp. va_num/den with den = 2(t-1), and
    den = 1 at t = 1.
    """

    bpf: bool
    very_ample: bool
    fujita_power: int
    t: int
    d_min_bpf: int
    d_min_va: int
    d: int
    bpf_num: int
    va_num: int

    @property
    def tau(self) -> Optional[Fraction]:
        """t^2 / (2(t-1)) as a Fraction, built when read; None at t = 1."""
        if self.t == 1:
            return None
        from fractions import Fraction
        return Fraction(self.t * self.t, 2 * (self.t - 1))

    @property
    def notes(self) -> tuple[str, ...]:
        """The decision in words, rendered from the integers when read."""
        return tuple(_notes_text(self.t, self.d, max(2 * self.t - 2, 1),
                                 self.bpf_num, self.va_num, self.fujita_power,
                                 False, "\n").split("\n"))


class ModuliReport(NamedTuple):
    """Full answer for one query; `halved` says whether the component count
    used exact halving (see the module docstring)."""

    family: Family
    n: int
    d: int
    t: int
    non_empty: bool
    components: int
    witness: Optional[Witness]
    bpf_some_component: bool
    va_some_component: bool
    fujita_power: int
    applies_to_all_components: bool
    halved: bool

    @property
    def threshold_notes(self) -> tuple[str, ...]:
        """The threshold notes of the query, and one more when the count
        used exact halving; rendered when read."""
        return tuple(_report_notes(self, "\n").split("\n"))


def decompose(q: ModuliQuery) -> Decomposition:
    """Split the query into the gcd data the counting cases use.

    Raises DivisibilityViolation when t does not divide gcd(2d, 2m).
    """
    _validate(q)
    return _decompose(q.family.m(q.n), q.d, q.t)


def _decompose(m: int, d: int, t: int) -> Decomposition:
    big = gcd(2 * d, 2 * m)
    if big % t:
        raise DivisibilityViolation(
            "t = %d does not divide gcd(2d, 2m) = %d" % (t, big))
    g = big // t
    w = gcd(g, t)
    t1 = t // w
    w_plus = 1
    for p, k in factorize(w):
        if t1 % p == 0:
            w_plus *= p ** k
    # tuple.__new__: the generated __new__ costs more than twice as much
    return tuple.__new__(Decomposition, (big, 2 * d // big, 2 * m // big, g,
                                         w, g // w, t1, w_plus, w // w_plus))


def _matched_case(dec: Decomposition) -> Optional[str]:
    # The case that holds, or None.  At most one can: (i) needs g1 even, the
    # others g1 odd; (ii) needs t1 odd, (iv) t1 even.  Case (iii) never holds
    # (module docstring).  Parity and gcd conditions are evaluated before the
    # quadratic residue tests, whose invertibility preconditions they secure.
    d1, n1, g1, t1 = dec.d1, dec.n1, dec.g1, dec.t1
    if (g1 % 2 == 0 and gcd(d1, t1) == 1 and gcd(n1, t1) == 1
            and qr_of_ratio(-d1, n1, t1)):
        return "i"
    if (g1 % 2 and t1 % 2 and d1 % 2 and gcd(d1, t1) == 1
            and gcd(n1, 2 * t1) == 1 and qr_of_ratio(-d1, n1, 2 * t1)):
        return "ii"
    if (g1 % 2 and t1 % 2 == 0 and gcd(d1, t1) == 1
            and gcd(n1, 2 * t1) == 1 and qr_of_ratio(-d1, n1, 2 * t1)):
        return "iv"
    return None


def _two_power_value(base: int, exponent: int,
                     where: object) -> tuple[int, bool]:
    # base * 2^exponent with exact division when exponent = -1 (the only
    # negative value rho can produce).  See the module docstring.  `where`
    # only names the failing input in the error.
    if exponent >= 0:
        return base << exponent, False
    if base % 2:
        raise InternalInconsistency(
            "odd branch value %d cannot be halved at %r" % (base, where))
    return base // 2, True


def component_count_detail(q: ModuliQuery) -> ComponentCountDetail:
    """Component count plus which case fired and whether halving was used."""
    try:
        dec = decompose(q)
    except DivisibilityViolation:
        return ComponentCountDetail(0, None, False, None)
    count, branch, halved = _count_detail(dec, q.t)
    return ComponentCountDetail(count, branch, halved, dec)


def _count_detail(dec: Decomposition,
                  t: int) -> tuple[int, Optional[str], bool]:
    # (count, branch, halved) of the decomposition at divisibility t
    branch = _matched_case(dec)
    if branch is None:
        return 0, None, False
    if t <= 2:
        return 1, branch, False
    base = dec.w_plus * euler_phi(dec.w_minus)
    r = rho(dec.t1 // 2) if branch == "iv" else rho(dec.t1)
    count, halved = _two_power_value(base, r - 1, (t, dec))
    return count, branch, halved


def component_count(q: ModuliQuery) -> int:
    """Number of connected components of the moduli space (0 when empty)."""
    return component_count_detail(q).count


def nonempty_residue(q: ModuliQuery) -> Optional[int]:
    """Smallest b >= 1 with gcd(b, t) = 1 and d = -b^2*m (mod t^2), or None
    when the space is empty (including when t does not divide 2m).

    Once t | 2m both conditions depend only on b mod t (see the module
    docstring), so the smallest valid b lies in [1, t] and only that range
    is scanned.  No b exists unless t also divides 2d: d = -b^2*m (mod t^2)
    gives 2d = -b^2*(2m) = 0 (mod t), so the scan is skipped when t does
    not divide 2d.
    """
    _validate(q)
    return _residue(q.family.m(q.n), q.d, q.t)


def _residue(m: int, d: int, t: int) -> Optional[int]:
    if (2 * m) % t or (2 * d) % t:
        return None
    tsq = t * t
    target = (-d) % tsq
    for b in range(1, t + 1):
        # the congruence first: it rarely holds, and the unit test is a gcd
        if (b * b * m) % tsq == target and gcd(b, t) == 1:
            return b
    return None


def is_nonempty(q: ModuliQuery) -> bool:
    """True iff the moduli space is non-empty."""
    return nonempty_residue(q) is not None


def witness(q: ModuliQuery) -> Optional[Witness]:
    """An explicit polarization class for a non-empty space, None otherwise.

    Returns (a, b, e) = (t, b, (d + b^2*m) / t^2) with the smallest valid b.
    That it is primitive with e >= 1, square 2d and divisibility t is
    re-verified through the class check (module docstring), not assumed
    from the construction.
    """
    _validate(q)
    m = q.family.m(q.n)
    b = _residue(m, q.d, q.t)
    return None if b is None else _witness(q.family, q.n, m, q.d, q.t, b)


def _witness(family: Family, n: int, m: int, d: int, t: int,
             b: int) -> Witness:
    # the class (t, b, e) for the residue b, re-verified through
    # `_is_class`; tuple.__new__ as in `_decompose`
    e = (d + b * b * m) // (t * t)
    w = tuple.__new__(Witness, (t, b, e))
    if not _is_class(t, b, e, m, d, t):
        raise InternalInconsistency(
            "constructed witness %r fails verification at %r"
            % (w, ModuliQuery(family, n, d, t)))
    return w


def _ratio(num: int, den: int) -> str:
    # num/den in lowest terms (den > 0), as str(Fraction(num, den)) prints it
    g = gcd(num, den)
    return "%d" % (num // g) if g == den else "%d/%d" % (num // g, den // g)


def _bounds(family: Family, n: int, t: int) -> tuple[int, int, int]:
    # (den, bpf_num, va_num): the base point free and very ample bounds are
    # bpf_num/den and va_num/den, with den = 2(t-1) for t >= 2 and 1 at t = 1
    if t == 1:
        return (1, 1, n + 1) if family is Family.K3HILB else (1, 3, n + 4)
    # den * tau = t^2 and den * (tau - 1) = t^2 - den
    den, tsq = 2 * (t - 1), t * t
    base = (tsq - den) * n
    if family is Family.K3HILB:
        return den, base + tsq + den, base + 2 * tsq + den
    return den, base + 2 * tsq - den, base + 3 * tsq - den


def thresholds(q: ModuliQuery) -> ThresholdDecision:
    """Per-component base point freeness / very ampleness guarantees.

    Pure threshold arithmetic, no emptiness check; combine with
    non-emptiness via `report`.  Every bound is an integer over a common
    denominator (2(t-1), or 1 at t = 1), so d is compared and the bounds are
    rounded in exact integers.  The notes are rendered only when read.
    """
    _validate(q)
    family, n, d, t = q
    den, bpf_num, va_num = _bounds(family, n, t)
    return ThresholdDecision(d * den >= bpf_num, d * den >= va_num, n + 2, t,
                             -(-bpf_num // den), -(-va_num // den), d,
                             bpf_num, va_num)


# The notes, one format for t >= 2 and one for t = 1; `_notes_text` fills in
# the separator between two notes.  No note holds a newline.
_NOTES = ("tau = t^2/(2(t-1)) = %s%sbase point free on some component iff "
          "d >= %s (minimal integer d = %d); d = %d: %ssatisfied%svery ample "
          "on some component iff d >= %s (minimal integer d = %d); d = %d: "
          "%ssatisfied")
_NOTES_T1 = ("t = 1: base point free %s%svery ample on some component iff "
             "d >= %d; d = %d: %ssatisfied")
_NOT = ("not ", "")  # the word before "satisfied", by whether d clears it


def _notes_text(t: int, d: int, den: int, bpf_num: int, va_num: int,
                fujita: int, halved: bool, sep: str) -> str:
    # The notes of d at divisibility t, from the bounds bpf_num/den and
    # va_num/den of `_bounds`, joined with sep; the H^k note follows the
    # unmasked d*den >= bpf_num, as the words do.
    bpf, va = d * den >= bpf_num, d * den >= va_num
    if t == 1:  # the base point free bound is 1 (every d) or 3
        text = _NOTES_T1 % ("for every d on some component" if bpf_num == 1
                            else "on some component iff d >= %d" % bpf_num,
                            sep, va_num, d, _NOT[va])
    else:
        text = _NOTES % (
            _ratio(t * t, den), sep, _ratio(bpf_num, den), -(-bpf_num // den),
            d, _NOT[bpf], sep, _ratio(va_num, den), -(-va_num // den), d,
            _NOT[va])
    if bpf:
        text += ("%sH^%d is very ample on the base point free component"
                 % (sep, fujita))
    if halved:
        text += sep + "component count used exact halving (rho = 0 case)"
    return text


def _report_notes(rep: ModuliReport, sep: str) -> str:
    # the notes of a report, `threshold_notes`, joined with sep
    family, n, d, t = rep[:4]
    return _notes_text(t, d, *_bounds(family, n, t), rep.fujita_power,
                       rep.halved, sep)


def prime_power_connected(q: ModuliQuery) -> bool:
    """Sufficient condition for connectedness by the shape of t alone.

    True when t = 2, or t = p^a for an odd prime p with p^(a+1) not
    dividing gcd(2d, 2m).  False otherwise (in particular for t = 1 and
    for t a higher power of 2: no claim is made there, even though t = 1
    spaces are in fact connected whenever non-empty).
    """
    _validate(q)
    if q.t == 2:
        return True
    fac = factorize(q.t)
    if len(fac) != 1:
        return False
    p, a = fac[0]
    if p == 2:
        return False
    m = q.family.m(q.n)
    return gcd(2 * q.d, 2 * m) % p ** (a + 1) != 0


def reports(family: Family, n: int, t: int,
            ds: Iterable[int]) -> Iterator[ModuliReport]:
    """Full answers for the queries (family, n, d, t), d running over ds.

    n and t are validated here, once, before the first report; each d when
    it is reached.  The parts that depend only on (family, n, t) are
    computed once per sweep: m, whether t divides 2m, and the two threshold
    bounds.  The cells then run the helpers behind `nonempty_residue`,
    `witness`, `decompose` and `component_count_detail` on these integers,
    so no cell validates its query again or builds one.

    A cell where t does not divide both 2m and 2d is empty and is answered
    without a scan: t does not divide gcd(2d, 2m), so `decompose` raises
    DivisibilityViolation and the count is 0, and no residue b exists (see
    `nonempty_residue`).  Every other cell finds the residue b once, builds
    and re-verifies the witness from it as `witness` does (the space is
    non-empty exactly when there is one) and cross-checks the counting
    formula against it, raising InternalInconsistency when they disagree.
    The per-component guarantees are masked with non-emptiness (no
    component, no claim) and apply to every component exactly when the
    count is 1.  The guard and the mask live in `_cells`, the one cell loop
    behind `report`, `reports` and every `table` format: it yields each
    cell's witness, count, halving and both masked flags, and the rest is
    formatting.

    Within one sweep the residue and the count are each computed once per
    class of d they read; the witness and the cross-check still run on
    every cell.  Once t divides 2m and 2d, the scan for b reads d only
    through its target -d mod t^2.  The count reads d only through
    h = gcd(d, m) and d1 mod 2t, where gcd(2d, 2m) = 2h and d1 = d/h: every
    other field of the decomposition is a function of m, t and 2h, and the
    cases read d1 only through gcd(d1, t1), d1 mod 2 and quadratic residue
    tests mod t1 or 2*t1, each a divisor of 2t.
    """
    _validate(ModuliQuery(family, n, 1, t))
    return _reports(family, n, t, ds)


def _reports(family: Family, n: int, t: int,
             ds: Iterable[int]) -> Iterator[ModuliReport]:
    # tuple.__new__ builds the same ModuliReport as its generated 12-argument
    # __new__, at about half the cost (`report` builds its one report alike)
    new = tuple.__new__
    for d, w, count, halved, bpf, va in _cells(family, n, t, ds):
        yield new(ModuliReport, (family, n, d, t, w is not None, count, w,
                                 bpf, va, n + 2, count == 1, halved))


def _cells(family: Family, n: int, t: int, ds: Iterable[int]
           ) -> Iterator[tuple[int, Optional[Witness], int, bool, bool, bool]]:
    # (d, witness or None, count, halved, bpf, va) for each d of ds, as
    # `reports` describes: the answer fields of one cell, computed here and
    # nowhere else.  bpf and va say whether d clears the base point free and
    # very ample bounds, masked with non-emptiness, so both are False on
    # every empty cell.  n and t are already valid.
    m = family.m(n)
    t_divides_2m = (2 * m) % t == 0
    tsq, two_t = t * t, 2 * t
    den, bpf_num, va_num = _bounds(family, n, t)
    # b (None when empty) by -d mod t^2, the count detail by h and d1 mod 2t
    # packed in one int; `reports` says why each key determines its value
    residues, counts = {}, {}
    for d in ds:
        if d < 1:
            _validate(ModuliQuery(family, n, d, t))
        if not t_divides_2m or (2 * d) % t:
            yield d, None, 0, False, False, False
            continue
        target = -d % tsq
        b = residues.get(target, 0)  # b >= 1, so 0 means not yet seen
        if b == 0:
            b = residues[target] = _residue(m, d, t)
        w = None if b is None else _witness(family, n, m, d, t, b)
        h = gcd(d, m)
        key = h * two_t + d // h % two_t
        detail = counts.get(key)
        if detail is None:
            detail = counts[key] = _count_detail(_decompose(m, d, t), t)
        count, _, halved = detail
        ne = w is not None
        if (count >= 1) != ne:
            raise InternalInconsistency(
                "non_empty = %r but component count = %d at %r"
                % (ne, count, ModuliQuery(family, n, d, t)))
        yield (d, w, count, halved, ne and d * den >= bpf_num,
               ne and d * den >= va_num)


def report(q: ModuliQuery) -> ModuliReport:
    """Full answer for one query: the one-cell case of `reports`."""
    # checks d before t, so a query with several bad values names the first
    _validate(q)
    family, n, d, t = q
    # the cell read directly, not through `reports`: one generator, not two
    d, w, count, halved, bpf, va = next(_cells(family, n, t, (d,)))
    return tuple.__new__(ModuliReport, (family, n, d, t, w is not None,
                                        count, w, bpf, va, n + 2, count == 1,
                                        halved))
