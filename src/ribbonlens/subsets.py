"""Combinatorics of linear subsets of Z^N.

A linear subset is an ordered tuple of integer vectors realizing a chain
Gram pattern (norms >= 2, consecutive pairings 0 or 1, all other pairings
zero).  This module implements the move calculus on such subsets:
contractions, 2-final expansions, intersection-graph components and
bad-component detection with complement computation.

The 2-final expansion (Lisca 2007) is stated once, on sparse vectors:
:func:`two_final_coordinates` finds where it applies and
:func:`two_final_step` takes it.  :func:`two_final_expansions` lists a
component's expansions with them, and :mod:`ribbonlens.search` grows
chains' certificates with them.  Contractions stay on dense vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import EmbeddedLattice, Matrix, Vector, chain_among, dot, orthogonal_complement, saturation_index


@dataclass(frozen=True)
class LinearSubset:
    """Ordered vectors in Z^N with a chain pairing pattern.

    Cardinality below the ambient rank is allowed; a subset standing for a
    full-rank configuration has cardinality equal to the ambient rank.
    Construct through :func:`linear_subset` to get pairing validation.
    """

    ambient_rank: int
    vectors: tuple[Vector, ...]


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


def linear_subset(vectors, ambient_rank: int | None = None) -> LinearSubset:
    vectors = tuple(tuple(v) for v in vectors)
    if ambient_rank is None:
        if not vectors:
            raise ValueError("ambient rank required for an empty subset")
        ambient_rank = len(vectors[0])
    for v in vectors:
        if len(v) != ambient_rank:
            raise ValueError("vector length does not match ambient rank")
    if len(vectors) > ambient_rank:
        raise ValueError("more vectors than coordinates")
    reason = _pairing_violation(vectors)
    if reason is not None:
        raise ValueError(f"not a linear subset: {reason}")
    return LinearSubset(ambient_rank, vectors)


def core_triple(m: int, ambient_rank: int | None = None) -> LinearSubset:
    """The minimal bad-component triple with central norm m + 1 in Z^(m+2)."""
    if m < 2:
        raise ValueError("central norm m + 1 needs m >= 2")
    n = m + 2 if ambient_rank is None else ambient_rank
    if n < m + 2:
        raise ValueError("ambient rank too small for the triple")
    e = lambda i: tuple(1 if j == i else 0 for j in range(n))

    def add(*vs):
        return tuple(sum(col) for col in zip(*vs))

    v_mid = tuple(1 if j <= m else 0 for j in range(n))
    v_left = add(e(m), e(m + 1))
    v_right = tuple(a - 2 * b for a, b in zip(v_left, e(m + 1)))
    return linear_subset([v_left, v_mid, v_right], n)


def components(subset: LinearSubset) -> tuple[tuple[int, ...], ...]:
    """The components of the intersection graph (one vertex per vector, an
    edge where the pairing equals 1): the runs of consecutive indices."""
    vecs = subset.vectors
    runs, run = [], []
    for i, v in enumerate(vecs):
        run.append(i)
        if i + 1 == len(vecs) or dot(v, vecs[i + 1]) != 1:
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


def subset_key(subset: LinearSubset):
    return (subset.ambient_rank, canonical_matrix(subset.vectors))


# -- contractions and 2-final expansions --------------------------------------


def contract(subset: LinearSubset, h: int, s: int, t: int) -> LinearSubset:
    """Remove vector s, strip coordinate h from vector t, drop coordinate h.

    Preconditions reported individually: indices in range, unit coefficient
    bound, central norm above 2, and coordinate h supported on exactly {s, t}.
    """
    vecs = subset.vectors
    if h not in range(subset.ambient_rank) or s not in range(len(vecs)) or t not in range(len(vecs)):
        raise ValueError(f"contraction indices out of range: h={h}, s={s}, t={t}")
    if s == t:
        raise ValueError("contraction needs distinct indices s and t")
    for i, v in enumerate(vecs):
        for j, coeff in enumerate(v):
            if abs(coeff) > 1:
                raise ValueError(f"coefficient bound violated: |v{i}[{j}]| = {abs(coeff)} > 1")
    if dot(vecs[t], vecs[t]) <= 2:
        raise ValueError(f"norm bound violated: v{t}.v{t} = {dot(vecs[t], vecs[t])} <= 2")
    support = tuple(i for i, v in enumerate(vecs) if v[h])
    if support != tuple(sorted((s, t))):
        raise ValueError(
            f"coordinate support condition violated: e_{h} meets {support}, expected {tuple(sorted((s, t)))}"
        )
    new_t = tuple(0 if j == h else x for j, x in enumerate(vecs[t]))
    rows = []
    for i, v in enumerate(vecs):
        if i == s:
            continue
        row = new_t if i == t else v
        rows.append(tuple(x for j, x in enumerate(row) if j != h))
    reason = _pairing_violation(tuple(rows))
    if reason is not None:
        raise ValueError(f"contraction result is not a linear subset: {reason}")
    return LinearSubset(subset.ambient_rank - 1, tuple(rows))


def _two_final_move(subset: LinearSubset, component: tuple[int, ...]):
    """The 2-final contraction (h, s, t) inside the given component, or None.

    s and t have degree 1, so they are the component's two ends, and the
    norms |s|^2 = 2 < |t|^2 say which end is s.  With unit coefficients
    s = +-e_a +-e_b, and s pairs to 1 with its neighbour r.  If r is not t,
    r meets a or b, so that coordinate is not supported on {s, t} alone; if
    r is t, s.t = 1 is odd, so t misses a or b.  So at most one h qualifies,
    and a component has at most one 2-final move.
    """
    vecs = subset.vectors
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


def two_final_expansions(subset: LinearSubset, component: tuple[int, ...]) -> list[LinearSubset]:
    """Every linear subset in Z^(N+1) whose 2-final contraction at the new
    coordinate gives the subset back, one per signed coordinate permutation.
    The new vector s = sigma e_c + e_N and the grown t are the grown
    component's two ends, so with unit coefficients s pairs to 1 with the
    end b other than t, and c is a coordinate of t and b alone.  So the
    expansions are :func:`two_final_step` at each of
    :func:`two_final_coordinates`, the step that builds chains in
    :mod:`ribbonlens.search`: for each end t, the first end first, ordered
    by (t[h] b[h], h).  A single vector t has no other end: s = e_c + e_N,
    with c the first unused coordinate, goes in front of t + e_N.
    """
    if tuple(component) not in components(subset):
        raise ValueError(f"{tuple(component)} is not a component of the subset")
    n, lo, hi = subset.ambient_rank, component[0], component[-1]
    if any(x * x > 1 for v in subset.vectors for x in v):
        return []
    vecs = [{k: x for k, x in enumerate(v) if x} for v in subset.vectors]
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
        rows = [tuple(v.get(k, 0) for k in range(n + 1)) for v in (*vecs[:t], grown, *vecs[t + 1 :])]
        rows.insert(s, tuple(new.get(k, 0) for k in range(n + 1)))
        candidate = LinearSubset(n + 1, tuple(rows))
        kept.setdefault(subset_key(candidate), candidate)
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


def _triple_witness(subset: LinearSubset, comp: tuple[int, ...]):
    if len(comp) != 3:
        return None
    x, y, z = comp
    vecs = subset.vectors
    if dot(vecs[x], vecs[x]) != 2 or dot(vecs[z], vecs[z]) != 2:
        return None
    if dot(vecs[y], vecs[y]) <= 2:
        return None
    for j in range(subset.ambient_rank):
        support = tuple(i for i, v in enumerate(vecs) if v[j])
        if support == (x, y, z):
            return dot(vecs[y], vecs[y])
    return None


def detect_bad_components(subset: LinearSubset) -> list[BadComponent]:
    """Bad components of the subset, each with a contraction trace to its core."""
    out = []
    for comp in components(subset):
        if len(comp) < 3:
            continue
        witness = _search_bad(subset, comp)
        if witness is not None:
            trace, norm = witness
            out.append(BadComponent(comp, norm, trace))
    return out


def _search_bad(subset: LinearSubset, comp: tuple[int, ...]):
    """Follow the component's one 2-final contraction at a time until it is
    a triple (bad) or has no move left (not bad)."""
    trace = ()
    while (norm := _triple_witness(subset, comp)) is None:
        move = _two_final_move(subset, comp) if len(comp) > 3 else None  # from 3 vectors no triple is left
        if move is None:
            return None
        s = move[1]
        subset = contract(subset, *move)
        comp = tuple(p - (p > s) for p in comp if p != s)
        trace += (move,)
    return trace, norm


def bad_component_complement(subset: LinearSubset, bad: BadComponent) -> EmbeddedLattice:
    """Orthogonal complement C of the bad component's span inside Z^N,
    checked in Z^N to be Z^k + (chain of m - 1 twos) before it is returned.

    C's units are the e_i of the k coordinates that no component vector
    meets, and its norm-2 vectors on the others are the e_i +- e_j there that
    pair to 0 with every component vector.  C is primitive, so a chain of
    m - 1 of those twos and the units are a basis of C exactly when they
    number its rank and span a saturated sublattice; where the lemma holds,
    every such chain has the determinant m of C's non-unit part, so the first
    one found decides.
    """
    n = subset.ambient_rank
    vecs = tuple(subset.vectors[i] for i in bad.component)
    complement = orthogonal_complement(EmbeddedLattice(n, vecs))
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
    if chain is None or len(chain + units) != complement.rank or saturation_index(chain + units, n) != 1:
        raise RuntimeError(f"bad-component complement is not stably the chain of {bad.m - 1} twos")
    return complement
