"""Exact arithmetic on lens-space parameters and negative continued fractions.

All values are plain integers or ``fractions.Fraction``; nothing in this
module (or the rest of the package) ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterable, NamedTuple

# A negative continued fraction string [a1,...,an]^- with every term >= 2.
# The empty tuple is the rank-0 string (the value attached to S^3).
CF = tuple[int, ...]


class FnWitness(NamedTuple):
    """Witness (n, m, k) that p/q = n*m**2 / (n*m*k + 1) with m > k > 0 coprime."""

    n: int
    m: int
    k: int

    def fraction(self) -> Fraction:
        return Fraction(self.n * self.m * self.m, self.n * self.m * self.k + 1)


@dataclass(frozen=True, order=True)
class LensSpace:
    """Normalized oriented lens-space parameters: p >= 1, 0 <= q < p, coprime.

    The pair (1, 0) is the 3-sphere.  Orientation reversal is always done
    through :meth:`reverse`, never by storing a negative q.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"lens space needs p >= 1, got p={self.p}")
        if not 0 <= self.q < max(self.p, 1):
            raise ValueError(f"lens space parameters not normalized: ({self.p}, {self.q})")
        if self.q == 0 and self.p != 1:
            raise ValueError(f"q = 0 requires p = 1, got p={self.p}")
        if gcd(self.p, self.q) != 1 and not self.is_s3:
            raise ValueError(f"parameters not coprime: ({self.p}, {self.q})")

    @property
    def is_s3(self) -> bool:
        return self.p == 1

    def fraction(self) -> Fraction | None:
        """The surgery fraction p/q, or None for S^3 (rank-0 sentinel)."""
        if self.is_s3:
            return None
        return Fraction(self.p, self.q)

    def reverse(self) -> LensSpace:
        """Orientation reversal: -L(p, q) = L(p, p - q)."""
        if self.is_s3:
            return self
        return LensSpace(self.p, self.p - self.q)

    def cf(self) -> CF:
        """Negative continued fraction string of p/q (empty for S^3)."""
        if self.is_s3:
            return ()
        return cf_expand(Fraction(self.p, self.q))

    def __str__(self) -> str:
        return "S3" if self.is_s3 else f"L({self.p},{self.q})"


def lens_normalize(p: int, q: int) -> LensSpace:
    """Reduce (p, q) to the canonical representative with 0 <= q < p."""
    if p < 1:
        raise ValueError(f"not a rational homology sphere parameter: p={p}")
    q %= p
    if p == 1:
        return LensSpace(1, 0)
    if gcd(p, q) != 1:
        raise ValueError(f"parameters not coprime: ({p}, {q})")
    return LensSpace(p, q)


def lens_homeomorphic(a: LensSpace, b: LensSpace, oriented: bool = True) -> bool:
    """Homeomorphism test: q2 = q1 or q1*q2 = 1 (mod p); unoriented also allows
    q2 = -q1 or q1*q2 = -1 (mod p)."""
    if a.p != b.p:
        return False
    p = a.p
    if a.q == b.q or (a.q * b.q - 1) % p == 0:
        return True
    if not oriented:
        if (a.q + b.q) % p == 0 or (a.q * b.q + 1) % p == 0:
            return True
    return False


def cf_expand(f: Fraction, expired: Callable[[], bool] | None = None) -> CF | None:
    """Expand f > 1 as [a1,...,an]^- = a1 - 1/(a2 - 1/(...)), all terms >= 2.

    The expansion with every term >= 2 is unique.  An ``expired`` callable is
    asked every 2,048 terms, and the expansion is None once it answers True.
    """
    if f <= 1:
        raise ValueError(f"negative continued fraction expansion needs f > 1, got {f}")
    p, q = f.numerator, f.denominator
    terms = []
    while q > 0:
        a = -(-p // q)  # ceil(p / q)
        terms.append(a)
        p, q = q, a * q - p
        if expired is not None and not len(terms) & 2047 and expired():
            return None
    return tuple(terms)


def cf_length(f: Fraction) -> int:
    """len(cf_expand(f)) in O(log f) steps, for expansions too long to build:
    a run of terms 2 keeps p - q fixed, so it is counted in one step."""
    if f <= 1:
        raise ValueError(f"negative continued fraction expansion needs f > 1, got {f}")
    p, q = f.numerator, f.denominator
    n = 0
    while q > 0:
        if 2 * q >= p:
            run = q // (p - q)
            n += run
            p, q = p - run * (p - q), q - run * (p - q)
        else:
            n += 1
            p, q = q, -(-p // q) * q - p
    return n


def cf_evaluate(terms: Iterable[int]) -> Fraction | None:
    """Evaluate [a1,...,an]^-; the empty string yields the rank-0 sentinel None."""
    value: Fraction | None = None
    for a in reversed(tuple(terms)):
        value = Fraction(a) if value is None else a - 1 / value
    return value


def continuant(terms: Iterable[int]) -> int:
    """Numerator of [a1,...,an]^-, i.e. the Gram determinant of the chain lattice."""
    # the tridiagonal determinant, expanded along the last row
    prev, value = 0, 1
    for a in terms:
        prev, value = value, a * value - prev
    return value


def fn_membership(f: Fraction) -> list[FnWitness]:
    """The witness (n, m, k), n >= 2, with f = n*m**2 / (n*m*k + 1), if any.

    The list holds at most one entry; an empty list certifies that f lies in
    no such family.
    """
    p, q = f.numerator, f.denominator
    if not p > q > 0:
        raise ValueError(f"need p > q > 0, got {f}")
    # A witness gives gcd(p, q - 1) = gcd(n*m*m, n*m*k) = n*m, as gcd(m, k) = 1,
    # so n = g**2 / p, m = p / g, k = (q - 1) / g with g = gcd(p, q - 1).
    # Conversely these values satisfy the identity, with gcd(m, k) = 1 and
    # 0 < k < m whenever 1 < q < p; so the witness is unique.
    g = gcd(p, q - 1)
    n, rest = divmod(g * g, p)
    if q == 1 or rest or n < 2:
        return []
    return [FnWitness(n, p // g, (q - 1) // g)]


def h1_order(summands: Iterable[LensSpace]) -> int:
    """Order of the first homology of a sum: the product of the summands' p values."""
    order = 1
    for lens in summands:
        order *= lens.p
    return order


def square_index(p1: int, p2: int) -> int | None:
    """The n >= 1 with p2 = n**2 * p1, or None; p1 >= 1.

    A ribbon rational homology cobordism from Y1 to Y2 needs
    |H1(Y2)| = n**2 * |H1(Y1)|.  In lattice terms, a sublattice l2 of Z^N
    has det(l2) = [sat(l2) : l2]**2 * det(l2^perp), so with det(l2) = p2 its
    complement has determinant p1 exactly when the index is n; p1 = 1 is the
    full-rank case, where the complement is 0.
    """
    ratio, rest = divmod(p2, p1)
    if rest or ratio < 1:
        return None
    n = isqrt(ratio)
    return n if n * n == ratio else None


def square_ratio_check(y1: Iterable[LensSpace], y2: Iterable[LensSpace]) -> bool:
    """True iff :func:`square_index` finds |H1(Y2)| = n**2 * |H1(Y1)|, each
    side given by its summands.

    A failure obstructs any ribbon cobordism from Y1 to Y2.
    """
    return square_index(h1_order(y1), h1_order(y2)) is not None


def _d_levels(p: int, q: int) -> tuple[list[tuple[int, int, int, int]], int]:
    """The levels (p_k, q_k) of Euclid's algorithm from L(p, q) down to L(1, 0),
    for the common denominator D = p_0 p_1 ..., each as the constants
    (p_k + q_k - 1, p_k * q_k, (-1)**k * D / (p_k * q_k), q_k) of its term:
    q_k is p_(k+1), or 1 at the last level."""
    pairs, denominator = [], 1
    while q:
        pairs.append((p, q))
        denominator *= p
        p, q = q, p % q
    levels = [(pk + qk - 1, pk * qk, (-1) ** k * denominator // (pk * qk), qk) for k, (pk, qk) in enumerate(pairs)]
    return levels, denominator


def _d_numerator(levels, i: int) -> int:
    """4 * D * d(L(p, q), i) for the levels and D of :func:`_d_levels`."""
    total = 0
    for c, pq, weight, qk in levels:
        s = 2 * i - c
        total += weight * (s * s - pq)
        i %= qk
    return total


def d_invariant(p: int, q: int, i: int) -> Fraction:
    """The d-invariant of L(p, q) in the spin^c structure labelled 0 <= i < p.

    The recursion of Ozsvath-Szabo (Absolutely graded Floer homologies,
    Prop. 4.8), d(L(p, q), i) = -1/4 + (2i+1-p-q)**2 / (4pq) - d(L(q, r), j)
    with r = p mod q and j = i mod q, runs along Euclid's algorithm to
    d(L(1, 0), 0) = 0; its terms are summed in integers over one denominator.
    """
    levels, denominator = _d_levels(p, q)
    return Fraction(_d_numerator(levels, i), 4 * denominator)


def d_obstruction(p1: int, q1: int, p2: int, q2: int, expired: Callable[[], bool]) -> bool | None:
    """Do the d-invariants rule out a ribbon rational homology cobordism from
    L(p1, q1) to L(p2, q2), where p2 = n**2 * p1?  At L(1, 0) = S^3 this asks
    whether L(p2, q2) bounds a rational homology ball.  True when d obstructs,
    False when some coset passes, None when ``expired()``, asked before each
    d, says so first.  Orders p1 >= 1 with no such n are a ValueError.

    Cutting an arc between the two ends out of such a cobordism W leaves a
    rational homology ball B with boundary -L1 # L2.  The spin^c structures
    that extend over B form a coset of K = ker(H1(-L1 # L2) -> H1(B)), of
    order n*p1, and d(-L1 # L2) = d(L2) - d(L1) vanishes on it
    (Ozsvath-Szabo, ibid., Prop. 9.9).  W is ribbon, so H1(L2) -> H1(W) is
    onto (Gordon 1981, Ribbon concordance of knots in the 3-sphere;
    Daemi-Lidman-Vela-Vick-Wong 2019, Ribbon homology cobordisms); hence K
    projects onto H1(L1), and K = <(1, n*b), (0, n*p1)> for some b < p1.  So
    W needs b and j0 < n*p1 with d(L1, x) = d(L2, j0 + n*b*x + n*p1*k) for
    all labels x of L1 and all k.  Prop. 9.9 and the surjectivity are cited,
    not checked.

    Only cosets closed under conjugation are tried.  Restriction of spin^c
    structures commutes with conjugation, so the structures on the boundary
    that extend over B form a coset closed under it; d itself is invariant
    under conjugation, as HF^+ is (Ozsvath-Szabo 2004, Holomorphic disks
    and three-manifold invariants: properties and applications).  In the
    labels of Prop. 4.8 conjugation on L(p, q) is i -> q - 1 - i (mod p):
    it negates c1, hence the first term (2i + 1 - p - q)**2 of the
    recursion, and the second term goes to the smaller lens's own
    reflection j -> r - 1 - j.  This label map is not cited: tier-1 checks
    that for every p <= 100 it is the one reflection i -> c - i that keeps
    d.  The coset above is closed under conjugation
    exactly when 2*j0 = q2 - 1 - n*b*(q1 - 1) (mod n*p1), hence
    2*j0 = q2 - 1 (mod n): j0 runs over that class, in steps of
    n / gcd(2, n), and each b that breaks the congruence is skipped.  A
    ball (p1 = 1, n = m) so costs at most two cosets, not m.  The coset
    x = 0 does not depend on b: it is tried first, and b and the cosets
    x >= 1 only for a j0 where it passes.
    """
    n = square_index(p1, p2)
    if n is None:
        raise ValueError(f"need p2 = n**2 * p1, got p1 = {p1}, p2 = {p2}")
    levels1, denominator1 = _d_levels(p1, q1)
    levels2, denominator2 = _d_levels(p2, q2)
    # 4 * D2 * d(L1, x), exact: p1 divides p2, hence D2, and 4 * p1 * d is an integer
    targets = [_d_numerator(levels1, x) * denominator2 // denominator1 for x in range(p1)]
    step = n * p1
    # solve 2*j0 = q2 - 1 (mod n); for even n the order p2 is even, so q2 is odd
    h = n // gcd(2, n)
    first = (q2 - 1 + (q2 - 1) % 2 * n) // 2 % h
    for j0 in range(first, step, h):
        for i in range(j0, p2, step):
            if expired():
                return None
            if _d_numerator(levels2, i) != targets[0]:
                break
        else:
            for b in range(p1):
                if (2 * j0 - q2 + 1 + n * b * (q1 - 1)) % step:
                    continue
                for x in range(1, p1):
                    for i in range((j0 + n * b * x) % step, p2, step):
                        if expired():
                            return None
                        if _d_numerator(levels2, i) != targets[x]:
                            break
                    else:
                        continue
                    break
                else:
                    return False
    return True
