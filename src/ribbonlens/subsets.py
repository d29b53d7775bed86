"""Combinatorics of linear subsets of Z^N.

A linear subset is an ordered tuple of at most N integer rows of one
length N realizing a chain Gram pattern (norms >= 2, consecutive pairings
0 or 1, all other pairings zero).  There is no subset object: every
function here takes the rows and reads N as the length of a row.  This
module implements the move calculus on such subsets: contractions,
2-final expansions, intersection-graph components and bad-component
detection with complement computation.

The 2-final expansion (Lisca 2007) is stated once, on sparse vectors:
:func:`two_final_coordinates` finds where it applies and
:func:`two_final_step` takes it.  :func:`two_final_expansions` lists a
component's expansions with them, and :mod:`ribbonlens.search` grows
chains' certificates with them.  Contractions stay on dense vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Matrix, Vector, chain_among, dot, integer_kernel, saturation_index


def _pairing_violation(vectors: tuple[Vector, ...]) -> str | None:
    for i, v in enumerate(vectors):
        if dot(v, v) < 2:
            return f"vector {i} has norm {dot(v, v)} < 2"
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            p = dot(vectors[i], vectors[j])
            if j == i + 1:
                if p not in (0, 1):
                    return f"adjacent pairing v{i}.v{j} = {p} not in {{0, 1}}"
            elif p != 0:
                return f"distant pairing v{i}.v{j} = {p} != 0"
    return None


def is_linear_subset(vectors) -> bool:
    vectors = tuple(tuple(v) for v in vectors)
    return _pairing_violation(vectors) is None


def linear_subset(vectors) -> Matrix:
    """The vectors as a tuple of rows, checked to be a linear subset: the
    rows have one length N, there are at most N of them, and they follow the
    chain pairing pattern.  ValueError names the condition that fails."""
    rows = tuple(tuple(v) for v in vectors)
    if len({len(v) for v in rows}) > 1:
        raise ValueError("rows of different lengths")
    if rows and len(rows) > len(rows[0]):
        raise ValueError("more vectors than coordinates")
    reason = _pairing_violation(rows)
    if reason is not None:
        raise ValueError(f"not a linear subset: {reason}")
    return rows


def core_triple(m: int) -> Matrix:
    """The minimal bad-component triple with central norm m + 1 in Z^(m+2):
    e_m + e_(m+1), e_0 + ... + e_m and e_m - e_(m+1)."""
    if m < 2:
        raise ValueError("central norm m + 1 needs m >= 2")
    return linear_subset([(0,) * m + (1, 1), (1,) * (m + 1) + (0,), (0,) * m + (1, -1)])


def components(rows: Matrix) -> tuple[tuple[int, ...], ...]:
    """The components of the intersection graph (one vertex per vector, an
    edge where the pairing equals 1): the runs of consecutive indices."""
    runs, run = [], []
    for i, v in enumerate(rows):
        run.append(i)
        if i + 1 == len(rows) or dot(v, rows[i + 1]) != 1:
            runs.append(tuple(run))
            run = []
    return tuple(runs)


# -- canonical form under signed coordinate permutations ----------------------


def canonical_matrix(vectors: tuple[Vector, ...]) -> Matrix:
    """Order-preserving canonical form: sign-fix every column so its first
    nonzero entry is positive, then sort columns.  Two subsets with the same
    vector order are related by a signed coordinate permutation iff their
    canonical matrices agree."""
    if not vectors:
        return ()
    cols = []
    for j in range(len(vectors[0])):
        col = tuple(v[j] for v in vectors)
        for x in col:
            if x:
                if x < 0:
                    col = tuple(-y for y in col)
                break
        cols.append(col)
    cols.sort()
    return tuple(zip(*cols))


# -- contractions and 2-final expansions --------------------------------------


def contract(rows: Matrix, h: int, s: int, t: int) -> Matrix:
    """Remove vector s, strip coordinate h from vector t, drop coordinate h.

    Preconditions reported individually: indices in range (s and t first,
    then h against the length of row s), unit coefficient bound, central
    norm above 2, and coordinate h supported on exactly {s, t}.
    """
    if s not in range(len(rows)) or t not in range(len(rows)) or h not in range(len(rows[s])):
        raise ValueError(f"contraction indices out of range: h={h}, s={s}, t={t}")
    if s == t:
        raise ValueError("contraction needs distinct indices s and t")
    for i, v in enumerate(rows):
        for j, coeff in enumerate(v):
            if abs(coeff) > 1:
                raise ValueError(f"coefficient bound violated: |v{i}[{j}]| = {abs(coeff)} > 1")
    if dot(rows[t], rows[t]) <= 2:
        raise ValueError(f"norm bound violated: v{t}.v{t} = {dot(rows[t], rows[t])} <= 2")
    support = tuple(i for i, v in enumerate(rows) if v[h])
    if support != tuple(sorted((s, t))):
        raise ValueError(
            f"coordinate support condition violated: e_{h} meets {support}, expected {tuple(sorted((s, t)))}"
        )
    new_t = tuple(0 if j == h else x for j, x in enumerate(rows[t]))
    out = []
    for i, v in enumerate(rows):
        if i == s:
            continue
        row = new_t if i == t else v
        out.append(tuple(x for j, x in enumerate(row) if j != h))
    reason = _pairing_violation(tuple(out))
    if reason is not None:
        raise ValueError(f"contraction result is not a linear subset: {reason}")
    return tuple(out)


def _two_final_move(vecs: Matrix, component: tuple[int, ...]):
    """The 2-final contraction (h, s, t) inside the given component, or None.

    s and t have degree 1, so they are the component's two ends, and the
    norms |s|^2 = 2 < |t|^2 say which end is s.  With unit coefficients
    s = +-e_a +-e_b, and s pairs to 1 with its neighbour r.  If r is not t,
    r meets a or b, so that coordinate is not supported on {s, t} alone; if
    r is t, s.t = 1 is odd, so t misses a or b.  So at most one h qualifies,
    and a component has at most one 2-final move.
    """
    if any(abs(c) > 1 for v in vecs for c in v):
        return None
    for s, t in ((component[0], component[-1]), (component[-1], component[0])):
        if dot(vecs[s], vecs[s]) == 2 < dot(vecs[t], vecs[t]):
            for h, x in enumerate(vecs[s]):
                if x and vecs[t][h] and all(not v[h] for i, v in enumerate(vecs) if i not in (s, t)):
                    return h, s, t
    return None


def two_final_coordinates(a: dict, b: dict, use: list[int]) -> list[int]:
    """The coordinates h at which ends a and b, sparse vectors, admit a
    2-final expansion: both are units there and no other vector is nonzero,
    as ``use`` counts per coordinate.  Found on the smaller support."""
    small, large = sorted((a, b), key=len)
    return [h for h, x in small.items() if use[h] == 2 and x * x == 1 == large.get(h, 0) ** 2]


def two_final_step(a: dict, b: dict, use: list[int], h: int) -> dict:
    """One 2-final expansion (Lisca 2007) at a coordinate h of
    :func:`two_final_coordinates`.  With tau = b[h], a gains the entry
    -tau a[h] at the new coordinate e = len(use), and the returned vector
    tau e_h + e goes beside b: it pairs to 0 with the grown a, to tau^2 = 1
    with b and to 0 with every other vector.  Grows ``a`` and ``use`` in
    place.  Contracting at e, with the new vector as s and a as t, gives the
    vectors back."""
    e, tau = len(use), b[h]
    a[e] = -tau * a[h]
    use[h] += 1
    use.append(2)
    return {h: tau, e: 1}


def two_final_expansions(rows: Matrix, component: tuple[int, ...]) -> list[Matrix]:
    """Every linear subset in Z^(N+1) whose 2-final contraction at the new
    coordinate gives the rows back, one per signed coordinate permutation
    of the same rows, told apart by :func:`canonical_matrix`.
    The new vector s = sigma e_c + e_N and the grown t are the grown
    component's two ends, so with unit coefficients s pairs to 1 with the
    end b other than t, and c is a coordinate of t and b alone.  So the
    expansions are :func:`two_final_step` at each of
    :func:`two_final_coordinates`, the step that builds chains in
    :mod:`ribbonlens.search`: for each end t, the first end first, ordered
    by (t[h] b[h], h).  A single vector t has no other end: s = e_c + e_N,
    with c the first unused coordinate, goes in front of t + e_N.
    """
    if tuple(component) not in components(rows):
        raise ValueError(f"{tuple(component)} is not a component of the subset")
    n, lo, hi = len(rows[0]), component[0], component[-1]
    if any(x * x > 1 for v in rows for x in v):
        return []
    vecs = [{k: x for k, x in enumerate(v) if x} for v in rows]
    use = [sum(k in v for v in vecs) for k in range(n)]
    steps = []  # (t, grown t, the new vector, its index)
    for t, s in ((lo, hi + 1), (hi, lo)) if lo < hi else ():
        a, b = vecs[t], vecs[lo + hi - t]
        for h in sorted(two_final_coordinates(a, b, use), key=lambda h: (a[h] * b[h], h)):
            grown = dict(a)
            steps.append((t, grown, two_final_step(grown, b, use[:], h), s))
    if lo == hi and 0 in use:
        steps.append((lo, {**vecs[lo], n: 1}, {use.index(0): 1, n: 1}, lo))
    kept: dict = {}
    for t, grown, new, s in steps:
        expanded = [tuple(v.get(k, 0) for k in range(n + 1)) for v in (*vecs[:t], grown, *vecs[t + 1 :])]
        expanded.insert(s, tuple(new.get(k, 0) for k in range(n + 1)))
        kept.setdefault(canonical_matrix(expanded), tuple(expanded))
    return list(kept.values())


# -- bad components ------------------------------------------------------------


@dataclass(frozen=True)
class BadComponent:
    """A component contractible to a norm-(m+1)-centered triple.

    ``trace`` lists the 2-final contractions (h, s, t), each in the index
    convention of the state it was applied to.
    """

    component: tuple[int, ...]
    central_norm: int
    trace: tuple[tuple[int, int, int], ...]

    @property
    def m(self) -> int:
        return self.central_norm - 1


def _triple_witness(vecs: Matrix, comp: tuple[int, ...]):
    if len(comp) != 3:
        return None
    x, y, z = comp
    if dot(vecs[x], vecs[x]) != 2 or dot(vecs[z], vecs[z]) != 2:
        return None
    if dot(vecs[y], vecs[y]) <= 2:
        return None
    for j in range(len(vecs[0])):
        support = tuple(i for i, v in enumerate(vecs) if v[j])
        if support == (x, y, z):
            return dot(vecs[y], vecs[y])
    return None


def detect_bad_components(rows: Matrix) -> list[BadComponent]:
    """Bad components of the subset, each with a contraction trace to its core."""
    out = []
    for comp in components(rows):
        if len(comp) < 3:
            continue
        witness = _search_bad(rows, comp)
        if witness is not None:
            trace, norm = witness
            out.append(BadComponent(comp, norm, trace))
    return out


def _search_bad(rows: Matrix, comp: tuple[int, ...]):
    """Follow the component's one 2-final contraction at a time until it is
    a triple (bad) or has no move left (not bad)."""
    trace = ()
    while (norm := _triple_witness(rows, comp)) is None:
        move = _two_final_move(rows, comp) if len(comp) > 3 else None  # from 3 vectors no triple is left
        if move is None:
            return None
        s = move[1]
        rows = contract(rows, *move)
        comp = tuple(p - (p > s) for p in comp if p != s)
        trace += (move,)
    return trace, norm


def bad_component_complement(rows: Matrix, bad: BadComponent) -> tuple[Vector, ...]:
    """A basis of the orthogonal complement C of the bad component's span
    inside Z^N, N the length of a row, in Lisca's form Z^k + (chain of
    m - 1 twos): the k units, then the chain.  It is checked in Z^N before
    it is returned, and RuntimeError is raised where C has no such basis.

    C's units are the e_i of the k coordinates that no component vector
    meets, and its norm-2 vectors on the others are the e_i +- e_j there that
    pair to 0 with every component vector.  Those vectors lie in C, and C is
    primitive, so the units and a chain of m - 1 of those twos are a basis of
    C exactly when they number its rank, the size of an integer kernel, and
    span a saturated sublattice; where the lemma holds, every such chain has
    the determinant m of C's non-unit part, so the first one found decides.
    """
    n = len(rows[0])
    vecs = tuple(rows[i] for i in bad.component)
    used = [k for k in range(n) if any(v[k] for v in vecs)]
    units = tuple(tuple(int(k == i) for k in range(n)) for i in range(n) if i not in used)
    twos = [
        tuple(1 if k == i else sign if k == j else 0 for k in range(n))
        for a, i in enumerate(used)
        for j in used[a + 1 :]
        for sign in (1, -1)
        if all(v[i] + sign * v[j] == 0 for v in vecs)
    ]
    chain = chain_among({2: twos}, (2,) * (bad.m - 1))
    if chain is None or len(units + chain) != len(integer_kernel(vecs, n)) or saturation_index(units + chain, n) != 1:
        raise RuntimeError(f"bad-component complement is not stably the chain of {bad.m - 1} twos")
    return units + chain
