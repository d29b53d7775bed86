"""Exact integer-lattice kernel.

One column reduction A V = [H | 0] that gives, for integer rows in Z^width,
the integer kernel (the orthogonal complement inside Z^width), span
membership and the saturation index (primitive means index 1), with the
saturation as the kernel of the kernel for an independent primitivity route.
Every function here takes a sublattice as its rows and a width; there is no
lattice object.  Then short vectors of a Gram matrix by norm, and one chain
backtracker over candidate vectors of Z^N, :func:`chain_among`, which finds
chain bases of a given linear isometry type.  Everything is integer or
Fraction exact; matrices are tuples of tuples of ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

from .arith import CF

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def dot(v: Vector, w: Vector) -> int:
    return sum(a * b for a, b in zip(v, w))


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


def integer_kernel(rows, width: int) -> tuple[Vector, ...]:
    """Basis of {x in Z^width : A x = 0}, V's columns from the rank on; the
    span is saturated because V is unimodular."""
    pivots, v = _column_reduce(rows, width)
    return tuple(v[len(pivots) :])


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


def saturation_index(rows, width: int) -> int:
    """[sat : span] for linearly independent rows in Z^width, sat the span over
    Q intersected with Z^width: |product of pivots|, as A V = [H | 0] with V
    unimodular puts the span at H's rows and the saturation at Z^rank."""
    pivots, _ = _column_reduce(rows, width)
    return abs(prod(pivots))


def primitivity_test_saturation(rows, width: int) -> bool:
    """Is the span of the given linearly independent rows in Z^width
    primitive?  The route independent of :func:`saturation_index`: the
    saturation, the kernel of the kernel, must already lie in the span."""
    return all(in_span(rows, v) for v in integer_kernel(integer_kernel(rows, width), width))


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


def enumerate_short_vectors(gram: Matrix, bound: int, tick=None) -> dict[int, list[Vector]]:
    """All x != 0 with x^T G x <= bound, one representative per +/- pair,
    bucketed by exact norm in enumeration order.

    Exact Fincke-Pohst style enumeration over the rational quadratic
    completion, depth first from the last coordinate down, on per-level
    arrays; rejects a Gram matrix that is not square, not symmetric or not
    positive definite.  left[i] is what the bound leaves after x[i]..x[n-1]
    are chosen, so a vector's norm is bound - left[0].  An optional tick
    callable is invoked once per enumeration node: on entry to each level
    and at each completed vector.
    """
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("Gram matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix must be symmetric")
    if n == 0:
        return {}
    c, u = _ldl(gram)  # raises if not positive definite
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
    """A chain basis for terms, in Z^N, of the lattice the given linearly
    independent Z^N vectors span; None if there is none, and ValueError,
    from the enumeration, for dependent vectors.

    The rank is checked first.  Short vectors are enumerated in the basis's
    coordinates and lifted to Z^N for :func:`chain_among`, whose chain lies
    in the lattice and is kept only when it spans it, i.e. has the basis's
    saturation index.  That is exact: every chain of the string has
    determinant continuant(terms), so the first one found spans the lattice
    exactly when any does.  A chain read backwards realizes the reversed
    string, so this one search decides both orientations.  An optional tick
    callable is invoked per short-vector enumeration node and as
    :func:`chain_among` invokes it, so callers can meter the work against
    their own budgets.
    """
    terms = tuple(terms)
    if len(basis) != len(terms):
        return None
    if not basis:
        return ()
    gram = tuple(tuple(dot(a, b) for b in basis) for a in basis)
    by_norm = enumerate_short_vectors(gram, max(terms), tick)
    if by_norm.get(1):
        # chain lattices with all terms >= 2 have minimum norm 2
        return None
    cols = tuple(zip(*basis))
    lifted = {norm: [tuple(dot(x, col) for col in cols) for x in by_norm.get(norm, ())] for norm in set(terms)}
    chain = chain_among(lifted, terms, tick)
    width = len(basis[0])
    if chain is None or saturation_index(chain, width) != saturation_index(basis, width):
        return None
    return chain
