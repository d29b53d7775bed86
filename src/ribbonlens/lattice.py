"""Exact integer-lattice kernel.

Gram matrices, one column reduction A V = [H | 0] that gives integer
kernels, spans and primitivity, orthogonal complements inside Z^N, short
vectors by norm, and one chain backtracker over candidate vectors of Z^N,
:func:`chain_among`, which finds chain bases of a given linear isometry type.
Everything is integer or Fraction exact; matrices are tuples of tuples of
ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .arith import CF, continuant

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def dot(v: Vector, w: Vector) -> int:
    return sum(a * b for a, b in zip(v, w))


def det(matrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class GramLattice:
    """Abstract lattice given by a symmetric integer Gram matrix."""

    gram: Matrix

    def __post_init__(self) -> None:
        g = self.gram
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class EmbeddedLattice:
    """Sublattice of Z^N spanned by an ordered tuple of integer vectors.

    The vectors are required to be linearly independent over Q.
    """

    ambient_rank: int
    vectors: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.ambient_rank:
                raise ValueError("vector length does not match ambient rank")
        if len(self.vectors) > self.ambient_rank:
            raise ValueError("more vectors than the ambient rank")
        if len(_column_reduce(self.vectors, self.ambient_rank)[0]) != len(self.vectors):
            raise ValueError("vectors are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.vectors)


def _column_reduce(rows, width: int) -> tuple[list[int], list[Vector]]:
    """Unimodular column operations V with A V = [H | 0], H lower-triangular
    on the pivot rows (the kernel by column echelon form, Cohen 1993, 2.4).

    Row by row, the smallest nonzero entry right of the pivots so far moves
    to the next pivot column and reduces the others, until it is the only
    one; a row with none left depends on the rows above it.  Each column of
    A travels stacked over its column of V.  Returns the pivots, the
    diagonal of H (their number is the rank), and V's columns.
    """
    m = len(rows)
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(width)] for j in range(width)]
    pivots: list[int] = []
    for i in range(m):
        t = len(pivots)
        while True:
            live = [j for j in range(t, width) if cols[j][i]]
            if not live:
                break
            j = min(live, key=lambda k: abs(cols[k][i]))
            cols[t], cols[j] = cols[j], cols[t]
            if len(live) == 1:
                pivots.append(cols[t][i])
                break
            pivot = cols[t]
            for j in range(t + 1, width):
                q = cols[j][i] // pivot[i]
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], pivot)]
    return pivots, [tuple(col[m:]) for col in cols]


def gram_of(embedded: EmbeddedLattice) -> GramLattice:
    vs = embedded.vectors
    return GramLattice(tuple(tuple(dot(v, w) for w in vs) for v in vs))


def integer_kernel(rows, width: int) -> tuple[Vector, ...]:
    """Basis of {x in Z^width : A x = 0}, V's columns from the rank on; the
    span is saturated because V is unimodular."""
    pivots, v = _column_reduce(rows, width)
    return tuple(v[len(pivots) :])


def orthogonal_complement(embedded: EmbeddedLattice) -> EmbeddedLattice:
    """All of Z^N orthogonal to the given vectors; always a primitive sublattice."""
    basis = integer_kernel(embedded.vectors, embedded.ambient_rank)
    return EmbeddedLattice(embedded.ambient_rank, basis)


def in_span(rows, x: Vector) -> bool:
    """Is x an integer combination of the given linearly independent rows?

    x V = c [H | 0] is solved for c from the last pivot up.  Where x is in
    the span every division is exact, and elsewhere no integer c reaches x,
    so x is in the span exactly when x - c A ends at zero.
    """
    pivots, v = _column_reduce(rows, len(x))
    if len(pivots) != len(rows):
        raise ValueError("in_span needs linearly independent rows")
    x = list(x)
    for row, pivot, col in reversed(list(zip(rows, pivots, v))):
        c = dot(x, col) // pivot
        x = [a - c * b for a, b in zip(x, row)]
    return not any(x)


def saturation(embedded: EmbeddedLattice) -> EmbeddedLattice:
    """(span_Q of the vectors) intersected with Z^N, via a double complement."""
    return orthogonal_complement(orthogonal_complement(embedded))


def saturation_index(rows, width: int) -> int:
    """[sat : span] for linearly independent rows in Z^width, sat the span over
    Q intersected with Z^width: |product of pivots|, as A V = [H | 0] with V
    unimodular puts the span at H's rows and the saturation at Z^rank."""
    pivots, _ = _column_reduce(rows, width)
    return abs(prod(pivots))


def primitivity_test(embedded: EmbeddedLattice) -> bool:
    """True iff Z^N modulo the span is torsion-free: the span is its saturation."""
    return saturation_index(embedded.vectors, embedded.ambient_rank) == 1


def primitivity_test_saturation(embedded: EmbeddedLattice) -> bool:
    """Independent route: the saturation must already lie in the integer span."""
    sat = saturation(embedded)
    return all(in_span(embedded.vectors, v) for v in sat.vectors)


# -- short vectors -----------------------------------------------------------


def _ldl(gram: Matrix) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Quadratic completion Q(x) = sum_i c_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    c = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        c[i] = q[i][i]
        if c[i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = q[i][j] / c[i]
        for k in range(i + 1, n):
            for L in range(k, n):
                q[k][L] -= c[i] * u[i][k] * u[i][L]
    return c, u


def _floor_sqrt_minus(r: Fraction, s: Fraction) -> int:
    """floor(sqrt(r) - s) for rationals r >= 0, computed exactly."""
    rn, rd = r.numerator, r.denominator
    sn, sd = s.numerator, s.denominator
    t = isqrt(rn * rd * sd * sd)
    candidate = (t - sn * rd) // (sd * rd)
    # isqrt undershoots by < 1, so at most one correction step upward
    nxt = candidate + 1
    if (nxt + s) * (nxt + s) <= r:
        candidate = nxt
    return candidate


def enumerate_short_vectors(lattice: GramLattice, bound: int, tick=None) -> dict[int, list[Vector]]:
    """All x != 0 with x^T G x <= bound, one representative per +/- pair,
    bucketed by exact norm in enumeration order.

    Exact Fincke-Pohst style enumeration over the rational quadratic
    completion, depth first from the last coordinate down, on per-level
    arrays; rejects non-positive-definite input.  left[i] is what the bound
    leaves after x[i]..x[n-1] are chosen, so a vector's norm is
    bound - left[0].  An optional tick callable is invoked once per
    enumeration node: on entry to each level and at each completed vector.
    """
    n = lattice.rank
    if n == 0:
        return {}
    c, u = _ldl(lattice.gram)  # raises if not positive definite
    out: dict[int, list[Vector]] = {}
    x = [0] * n
    lo = [0] * n
    s = [Fraction(0)] * n
    left = [Fraction(0)] * n + [Fraction(bound)]
    zero = [True] * (n + 1)  # zero[i]: x[i]..x[n-1] are all 0
    i = n  # the current level; n is above the root, where left and zero start
    while True:
        if i < n:
            # step x[i] down, and climb once its range is spent
            x[i] -= 1
            if x[i] < lo[i]:
                i += 1
                if i == n:
                    return out
                continue
            left[i] = left[i + 1] - c[i] * (x[i] + s[i]) * (x[i] + s[i])
            zero[i] = zero[i + 1] and x[i] == 0
            if i == 0:
                if tick is not None:
                    tick()
                if not zero[0]:
                    out.setdefault(int(bound - left[0]), []).append(tuple(x))
                continue
        i -= 1
        if tick is not None:
            tick()
        s[i] = sum(u[i][j] * x[j] for j in range(i + 1, n))
        r = left[i + 1] / c[i]
        lo[i] = 0 if zero[i + 1] else -_floor_sqrt_minus(r, -s[i])
        x[i] = _floor_sqrt_minus(r, s[i]) + 1


# -- chain bases ----------------------------------------------------------------


def chain_among(by_norm: dict[int, list[Vector]], terms: CF, tick=None) -> tuple[Vector, ...] | None:
    """Vectors v1..vn drawn from by_norm, with v_i.v_i = terms[i], consecutive
    pairings 1 and all other pairings 0; None if there are none.

    by_norm lists the candidates of each norm as Z^N vectors, one of each
    +/- pair.  The backtracking search, on an explicit stack, takes the
    candidates as listed at the first position and the sign the pairing
    forces after it, so it is exhaustive up to a global sign.  An optional
    tick callable is invoked on entry, once every norm has a candidate, and
    per vector placed.
    """
    terms = tuple(terms)
    if not terms:
        return ()
    if not all(by_norm.get(norm) for norm in set(terms)):
        return None
    if tick is not None:
        tick()
    chain: list[Vector] = []
    stack = [iter(by_norm[terms[0]])]
    while stack:
        cand = next(stack[-1], None)
        if cand is None:
            stack.pop()
            if chain:
                chain.pop()
            continue
        if chain:
            # exactly one of cand and -cand can pair to 1 with the previous vector
            sign = dot(cand, chain[-1])
            if sign not in (1, -1) or any(dot(cand, w) for w in chain[:-1]):
                continue
            cand = tuple(sign * x for x in cand)
        if tick is not None:
            tick()
        chain.append(cand)
        if len(chain) == len(terms):
            return tuple(chain)
        stack.append(iter(by_norm[terms[len(chain)]]))
    return None


def chain_basis_for(basis: tuple[Vector, ...], terms: CF, tick=None) -> tuple[Vector, ...] | None:
    """A chain basis for terms, in Z^N, of the lattice the given Z^N vectors
    span; None if there is none.

    Rank and determinant are checked first, so any such chain spans the
    lattice.  Its short vectors are enumerated in the basis's coordinates
    and lifted to Z^N for :func:`chain_among`.  A chain read backwards
    realizes the reversed string, so this one search decides both
    orientations.  An optional tick callable is invoked per short-vector
    enumeration node and as :func:`chain_among` invokes it, so callers can
    meter the work against their own budgets.
    """
    terms = tuple(terms)
    if len(basis) != len(terms):
        return None
    if not basis:
        return ()
    gram = tuple(tuple(dot(a, b) for b in basis) for a in basis)
    if det(gram) != continuant(terms):
        return None
    by_norm = enumerate_short_vectors(GramLattice(gram), max(terms), tick)
    if by_norm.get(1):
        # chain lattices with all terms >= 2 have minimum norm 2
        return None
    cols = tuple(zip(*basis))
    lifted = {norm: [tuple(dot(x, col) for col in cols) for x in by_norm.get(norm, ())] for norm in set(terms)}
    return chain_among(lifted, terms, tick)
