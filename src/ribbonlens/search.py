"""Brute-force isometric-embedding search into Z^N with verified certificates.

A single plain chain is first built where it can be: it is grown by 2-final
expansions (Lisca 2007), one :func:`~ribbonlens.subsets.two_final_step` at a
time, from one shorter string on its contraction path, its base, whose
embedding is asked for like any problem's and so searched once per cache.  A chain that its base does not grow into is searched whole, so
"absent" still only comes from an exhausted search.  Every certificate that
a query builds or finds is verified before it is stored.

The engine places each chain from its cheaper end (the smaller end term, then
the longer run of 2s), since a reversed chain spans the same lattice.  It
assigns one chain vector at a time, propagating the required pairings; a used
coordinate where an earlier vector's support ends must pay that vector's
pairing in full, which forces it.  It breaks the signed-permutation symmetry
of Z^N by (a) consuming fresh coordinates in order with positive
non-increasing coefficients and (b) forcing non-increasing coefficients on any
block of coordinates whose columns over the partial assignment coincide.  So
the used coordinates are a prefix and such blocks are contiguous runs, which
the engine carries down an explicit stack; nothing in it recurses, and
:func:`find_embedding` re-enters itself only to ask for a base, once.  The
pruned tree still contains a representative of every solution orbit, so an
exhausted search is a proof of absence.  Exceeding a budget turns into a
distinct "inconclusive" outcome, never into "absent".
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import isqrt, prod

from .arith import (
    CF,
    LensSpace,
    cf_expand,
    cf_length,
    continuant,
    d_obstruction,
    square_index,
)
from .lattice import Vector, chain_basis_for, integer_kernel, saturation_index
from .subsets import two_final_coordinates, two_final_step

ENGINE_VERSION = "6"
CACHE_SCHEMA = "ribbonlens-cache/4"


class BudgetExceededError(Exception):
    pass


@dataclass(frozen=True)
class SearchBudget:
    """A node cap per search problem and a wall-clock cap per query: each
    public entry point starts the clock and hands the running budget down."""

    max_nodes: int = 10**8
    max_seconds: float = 60.0
    deadline: float | None = field(default=None, init=False, compare=False)

    def started(self) -> SearchBudget:
        """This budget with its clock running; a running one is returned as is."""
        if self.deadline is not None:
            return self
        running = SearchBudget(self.max_nodes, self.max_seconds)
        object.__setattr__(running, "deadline", time.monotonic() + self.max_seconds)
        return running

    def expired(self) -> bool:
        return time.monotonic() > self.deadline

    @classmethod
    def from_env(cls) -> SearchBudget:
        """Budget from RIBBONLENS_MAX_NODES / RIBBONLENS_MAX_SECONDS; ValueError
        naming the variable when one is set to anything but a positive number."""
        return cls(
            max_nodes=_env_positive("RIBBONLENS_MAX_NODES", int, cls.max_nodes),
            max_seconds=_env_positive("RIBBONLENS_MAX_SECONDS", float, cls.max_seconds),
        )


def _env_positive(name: str, kind, default):
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = kind(raw)
        if value > 0:
            return value
    except ValueError:
        pass
    raise ValueError(f"{name} must be a positive number, got {raw!r}")


@dataclass(frozen=True)
class SearchProblem:
    """Chain lattices to embed into Z^N, N the total rank of the summands.

    ``ribbon_split`` is None for a plain full-rank embedding; the value 1
    marks the constrained mode where the first summand must coincide with the
    orthogonal complement of the second.
    """

    summands: tuple[CF, ...]
    ribbon_split: int | None = None

    def __post_init__(self) -> None:
        for terms in self.summands:
            if any(a < 2 for a in terms):
                raise ValueError("all chain terms must be >= 2")
        if self.ribbon_split is not None and (len(self.summands) != 2 or self.ribbon_split != 1):
            raise ValueError("constrained mode takes exactly two summands split at 1")

    @property
    def ambient_rank(self) -> int:
        return sum(len(t) for t in self.summands)

    @property
    def placed(self) -> tuple[CF, ...]:
        """The chains the engine places: every summand in plain mode, the
        second in constrained mode, where the first is their complement."""
        return self.summands if self.ribbon_split is None else self.summands[1:]

    @property
    def key(self) -> str:
        mode = "plain" if self.ribbon_split is None else "ribbon"
        return mode + "|" + ";".join(",".join(str(a) for a in t) for t in self.summands)


def plain_problem(summands) -> SearchProblem:
    return SearchProblem(tuple(tuple(t) for t in summands))


def ribbon_problem(lambda1: CF, lambda2: CF) -> SearchProblem:
    return SearchProblem((tuple(lambda1), tuple(lambda2)), 1)


# a certificate vector: its (coordinate, value) pairs with nonzero values, by
# increasing coordinate
SparseVector = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Certificate:
    """Embedding witness: one :data:`SparseVector` per chain element, per summand."""

    groups: tuple[tuple[SparseVector, ...], ...]
    nodes: int

    def to_json(self) -> dict:
        """The JSON object of the CLI's output and of a cache entry."""
        return {
            "groups": [[[[str(k), str(x)] for k, x in v] for v in group] for group in self.groups],
            "nodes": str(self.nodes),
        }

    @classmethod
    def from_json(cls, doc: dict) -> Certificate:
        """Parse :meth:`to_json`'s object; a negative node count is a ValueError."""
        nodes = int(doc["nodes"])
        if nodes < 0:
            raise ValueError(f"negative node count: {nodes}")
        groups = tuple(tuple(tuple((int(k), int(x)) for k, x in v) for v in group) for group in doc["groups"])
        return cls(groups, nodes)


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "absent" | "inconclusive"
    certificate: Certificate | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"


class _Meter:
    """One search problem's node count, with its node cap and the query's
    deadline.  The engine, the ribbon leaf and each expansion step tick it
    once per node; a tick over the cap, or past the deadline, which it reads
    every 2,048 nodes, raises :class:`BudgetExceededError`."""

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = budget.deadline

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError
        if not (self.nodes & 2047) and time.monotonic() > self.deadline:
            raise BudgetExceededError


class _Engine:
    """DFS over chain-vector assignments; first hit wins, in canonical order."""

    def __init__(self, summands: tuple[CF, ...], ambient: int, meter: _Meter):
        self.N = ambient
        # (pairs with the previous vector, norm), in the order placed
        self.flat = [(ti > 0, a) for terms in summands for ti, a in enumerate(terms)]
        self.n = len(self.flat)
        self.meter = meter

    def run(self, leaf_check):
        # frame d holds the remaining candidates for vector d together with
        # the used prefix u and the run starts left by vectors 0..d-1
        vecs: list[Vector] = []
        tails: list[list[int]] = []
        # per coordinate, (coefficient, index) of the vectors nonzero there
        support: list[list[tuple[int, int]]] = [[] for _ in range(self.N)]
        frames = []
        u, starts = 0, ()
        while True:
            # a frame or a leaf can cost seconds on a long chain or in a
            # ribbon leaf, where the tick's every 2,048 nodes come far apart
            if time.monotonic() > self.meter.deadline:
                raise BudgetExceededError
            if len(vecs) == self.n:
                got = leaf_check(tuple(vecs))
                if got is not None:
                    return got
            else:
                frames.append((self._candidates(tails, support, u, starts), u, starts))
            while frames:
                cands, u, starts = frames[-1]
                while len(vecs) >= len(frames):
                    tails.pop()
                    for k, c in enumerate(vecs.pop()):
                        if c:
                            support[k].pop()
                vec = next(cands, None)
                if vec is not None:
                    break
                frames.pop()
            else:
                return None
            for k, c in enumerate(vec):
                if c:
                    support[k].append((c, len(vecs)))
            vecs.append(vec)
            tails.append([*accumulate(x * x for x in reversed(vec))][::-1] + [0])
            # vec[u:] holds its positive fresh coefficients, then zeros
            fresh_end = self.N - vec[u:].count(0)
            # a run starts where a column differs from its left neighbour
            starts = tuple(
                k == u or (k < u and starts[k]) or vec[k] != vec[k - 1] for k in range(fresh_end)
            )
            u = fresh_end

    def _candidates(self, tails, support, u: int, starts):
        """Vectors of the next norm, one at a time: non-increasing inside each
        run of [0, u), then fresh coordinates in order with positive
        non-increasing coefficients."""
        i = len(tails)
        pairs, norm = self.flat[i]
        N = self.N
        # the pairings still owed to the earlier vectors, nonzero ones only
        owed = {i - 1: 1} if pairs else {}
        # odometer over coordinates: x[k] runs down from its top to lo[k] and
        # is 0 while level k is closed; lefts[k] is the norm left for k..
        x = [0] * N
        lo = [0] * N
        lefts = [norm] * (N + 1)

        def shift(k: int, step: int) -> None:
            # only the vectors nonzero at coordinate k change their pairing
            x[k] += step
            for c, j in support[k]:
                g = owed.pop(j, 0) - step * c
                if g:
                    owed[j] = g

        k = 0
        while True:
            self.meter.tick()
            left = lefts[k]
            # Cauchy-Schwarz: coordinates k.. must still supply each pairing
            # owed; a pairing already paid passes whatever k and left are.
            # No earlier vector reaches a fresh coordinate, so from u on
            # every pairing must be paid.
            if all(g * g <= left * tails[j][k] for j, g in owed.items()):
                if k < u or (left and k < N):
                    cmax = isqrt(left)
                    top = cmax if k == u or (k < u and starts[k]) else min(cmax, x[k - 1])
                    # the N - k fresh parts from k on are each at most x[k],
                    # which forces the last one
                    lo[k] = -cmax if k < u else isqrt((left - 1) // (N - k)) + 1
                    # an earlier vector whose support ends at k is paid here
                    # or never: any other value fails Cauchy-Schwarz at k + 1
                    # (no earlier vector reaches a fresh coordinate)
                    for c, j in support[k]:
                        if not tails[j][k + 1]:
                            forced, rest = divmod(owed.get(j, 0), c)
                            if rest or not lo[k] <= forced <= top:
                                top = lo[k] - 1
                            else:
                                lo[k] = top = forced
                            break
                    if top >= lo[k]:
                        shift(k, top)
                        lefts[k + 1] = left - top * top
                        k += 1
                        continue
                elif not left:
                    yield tuple(x)
            # the deepest level with a value left takes its next value
            k -= 1
            while k >= 0 and x[k] <= lo[k]:
                if x[k]:
                    shift(k, -x[k])
                k -= 1
            if k < 0:
                return
            shift(k, -1)
            lefts[k + 1] = lefts[k] - x[k] * x[k]
            k += 1


def _end_cost(terms: CF) -> tuple:
    """The cost of placing a chain from its first term: that term, then the
    run of 2s it starts, longer being cheaper."""
    twos = next((i for i, a in enumerate(terms) if a != 2), len(terms))
    return terms[:1], -twos


def _ribbon_leaf(problem: SearchProblem, tick):
    lambda1 = problem.summands[0]
    N = problem.ambient_rank

    def leaf(vecs: tuple[Vector, ...]):
        # chain_basis_for compares the determinant with lambda1's continuant first
        chain = chain_basis_for(integer_kernel(vecs, N), lambda1, tick=tick)
        return None if chain is None else (chain, vecs)

    return leaf


def _run_problem(problem: SearchProblem, meter: _Meter) -> SearchOutcome:
    ribbon = problem.ribbon_split is not None
    placed = problem.placed
    # each chain is placed from its cheaper end; a reversed chain spans the
    # same lattice, so the search stays exhaustive
    flips = [_end_cost(t[::-1]) < _end_cost(t) for t in placed]
    engine = _Engine(
        tuple(t[::-1] if flip else t for t, flip in zip(placed, flips)), problem.ambient_rank, meter
    )
    ends = list(accumulate(len(t) for t in placed))

    def given_order(vecs: tuple[Vector, ...]):
        """The engine's vectors, one group per placed chain in string order."""
        groups = (vecs[end - len(t) : end] for t, end in zip(placed, ends))
        return tuple(group[::-1] if flip else group for group, flip in zip(groups, flips))

    if not ribbon:
        leaf = given_order
    else:
        ribbon_leaf = _ribbon_leaf(problem, meter.tick)

        def leaf(vecs: tuple[Vector, ...]):
            return ribbon_leaf(*given_order(vecs))

    try:
        groups = engine.run(leaf)
    except BudgetExceededError:
        return SearchOutcome("inconclusive", None, meter.nodes)
    if groups is None:
        return SearchOutcome("absent", None, meter.nodes)
    # the engine's vectors are dense; a certificate keeps their nonzero entries
    groups = tuple(tuple(tuple((k, x) for k, x in enumerate(v) if x) for v in group) for group in groups)
    return SearchOutcome("found", Certificate(groups, meter.nodes), meter.nodes)


def _square_refuted(problem: SearchProblem) -> bool:
    """The square-index rule: the placed chains' determinant is index^2 times
    their complement's, the first chain's in constrained mode, 1 at full rank."""
    p1 = 1 if problem.ribbon_split is None else continuant(problem.summands[0])
    return square_index(p1, prod(continuant(t) for t in problem.placed)) is None


def _bases(terms: CF):
    """(det, base, steps) for each string on the chain's contraction path that
    is shorter than the chain and longer than one term, shortest first: its
    continuant, a function that builds it, and the expansion steps that grow
    it back into the chain (1 where the new 2 goes last).  A string that ends
    in 2 and whose other end is at least 3 contracts: it drops the 2 and
    lowers the other end by one.  The path is walked on its end indices and
    end terms; inner terms are the chain's, and their continuant matrix is
    carried up the path, so a base's determinant costs O(1) and no string is
    built unless asked for."""
    if len(terms) < 3:
        return  # no string of two or more terms is shorter
    lo, hi, first, last = 0, len(terms) - 1, terms[0], terms[-1]
    path = bytearray()
    while lo < hi:
        if last == 2 and first >= 3:
            hi, first = hi - 1, first - 1
            last = terms[hi] if hi > lo else first
            path.append(1)
        elif first == 2 and last >= 3:
            lo, last = lo + 1, last - 1
            first = terms[lo] if lo < hi else last
            path.append(0)
        else:
            break
    # the product of the det-1 transfer matrices [[a, -1], [1, 0]] of the
    # inner terms, the first term's rightmost: it takes continuant's
    # (value, prev) = (first, 1) after the first term to the pair before the last
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in terms[lo + 1 : hi]:
        m00, m01, m10, m11 = a * m00 - m10, a * m01 - m11, m00, m01
    for i in range(len(path), 0, -1):
        if lo < hi:
            det = last * (m00 * first + m01) - (m10 * first + m11)
            yield (
                det,
                lambda lo=lo, hi=hi, first=first, last=last: (first, *terms[lo + 1 : hi], last),
                (path[j] for j in range(i - 1, -1, -1)),
            )
        # undo step i - 1: the lowered end goes back up, and the 2 returns;
        # the end beside the 2 keeps its term and joins the inner terms
        if path[i - 1]:
            if lo < hi:
                m00, m01, m10, m11 = last * m00 - m10, last * m01 - m11, m00, m01
            hi, first, last = hi + 1, first + 1, 2
        else:
            if lo < hi:
                m00, m01, m10, m11 = first * m00 + m01, -m00, first * m10 + m11, -m10
            lo, first, last = lo - 1, 2, last + 1


def _expand(base: tuple[SparseVector, ...], steps, tick) -> tuple[SparseVector, ...] | None:
    """Grow a base's vectors by one :func:`~ribbonlens.subsets.two_final_step`
    per step, at the least of its ends' :func:`two_final_coordinates`: a step
    of 1 adds one to the first vector's norm and puts a new 2 after the last,
    a step of 0 is the mirror image.  None when a step finds no such
    coordinate."""
    vecs = deque(dict(v) for v in base)
    use = [0] * len(base)  # per coordinate, how many vectors are nonzero there
    for v in vecs:
        for k in v:
            use[k] += 1
    for step in steps:
        tick()
        # a grows, and the new 2 sits beside b
        a, b = (vecs[0], vecs[-1]) if step else (vecs[-1], vecs[0])
        shared = two_final_coordinates(a, b, use)
        if not shared:
            return None
        new = two_final_step(a, b, use, min(shared))
        if step:
            vecs.append(new)
        else:
            vecs.appendleft(new)
    # coordinates join each vector in increasing order, so its items are sorted
    return tuple(tuple(v.items()) for v in vecs)


def _built(problem: SearchProblem, budget: SearchBudget, cache: EmbeddingCache) -> SearchOutcome:
    """A plain problem of one chain, built from the shortest base on its
    contraction path that passes the square-index rule, when that base is
    found and expands all the way; else searched whole.  The base is asked
    through :func:`find_embedding` on the query's budget, so it is looked
    up, searched and stored like any problem.  The chain's one meter starts
    at the base's nodes, stored or searched, and every expansion step and
    then the whole search, when the build fails, tick it on, so the node
    cap bounds the three together and a built chain of n vectors costs at
    least n nodes.  The build ends inconclusive when the base is, or when
    the base's nodes exceed ``max_nodes``; then at ``max_nodes + 1``, as a
    search that ran out would, so under a node budget no answer depends on
    the cache.  A clock already spent is inconclusive at 0 nodes, before
    the base is asked."""
    (terms,) = problem.summands
    meter = _Meter(budget)
    try:
        # a spent clock answers before the base is asked, so the answer and
        # its 0 nodes do not depend on whether the base is cached
        if budget.expired():
            raise BudgetExceededError
        passing = ((base, steps) for det, base, steps in _bases(terms) if square_index(1, det) is not None)
        first = next(passing, None)
        if first is not None:
            base, steps = first
            # no shorter string on the path passes the rule, so the base's own
            # query searches it whole: find_embedding re-enters once, no deeper
            outcome = find_embedding(plain_problem((base(),)), budget, cache)
            meter.nodes = min(outcome.nodes, budget.max_nodes + 1)
            if outcome.status == "inconclusive" or meter.nodes > budget.max_nodes:
                raise BudgetExceededError
            group = outcome.found and _expand(outcome.certificate.groups[0], steps, meter.tick)
            if group:
                return SearchOutcome("found", Certificate((group,), meter.nodes), meter.nodes)
    except BudgetExceededError:
        return SearchOutcome("inconclusive", None, meter.nodes)
    return _run_problem(problem, meter)


def verify_certificate(problem: SearchProblem, cert: Certificate) -> bool:
    """Independent checker: recomputes every pairing and, in constrained mode,
    the complement condition.  Run by :func:`find_embedding` on every outcome
    it finds or builds, and on the first use of each cache entry loaded from
    a file."""
    groups = cert.groups
    if len(groups) != len(problem.summands):
        return False
    N = problem.ambient_rank
    flat: list[tuple[bool, int]] = []  # (pairs with the previous, norm)
    # the Gram matrix from each coordinate's nonzero entries, by index pair
    columns: list[list[tuple[int, int]]] = [[] for _ in range(N)]
    for terms, group in zip(problem.summands, groups):
        if len(group) != len(terms):
            return False
        for ti, (a, v) in enumerate(zip(terms, group)):
            # the one form: coordinates increasing inside [0, N), values nonzero
            last = -1
            for k, x in v:
                if not (last < k < N and x):
                    return False
                columns[k].append((len(flat), x))
                last = k
            flat.append((ti > 0, a))
    gram: dict[tuple[int, int], int] = {}
    for column in columns:
        for s, (idx, x) in enumerate(column):
            for jdx, y in column[s:]:
                gram[idx, jdx] = gram.get((idx, jdx), 0) + x * y
    # each norm, each pairing with the previous vector of a chain, and 0 else
    for idx, (pairs, a) in enumerate(flat):
        if gram.pop((idx, idx), 0) != a or (pairs and gram.pop((idx - 1, idx), 0) != 1):
            return False
    if any(gram.values()):
        return False
    # the realized Gram matrix is positive definite, so the vectors are
    # automatically linearly independent; in plain mode they fill Z^N by count
    if problem.ribbon_split is None:
        return len(flat) == N
    # group1 sits inside the complement of group2 (cross pairings vanish) with
    # equal rank, and the pairings above make their determinants p1 and p2;
    # the complement's is p2 / index^2, and equal determinants force equality
    p1, p2 = (continuant(t) for t in problem.summands)
    rows = [[dict(v).get(k, 0) for k in range(N)] for v in groups[1]]
    return saturation_index(rows, N) == square_index(p1, p2)


class EmbeddingCache:
    """In-memory cache of search outcomes with an optional JSON file behind it.

    It holds searched problems only: :func:`find_embedding` answers a problem
    that the square-index rule refutes before it asks the cache, and stores
    every other outcome it did not take from here, verified.  Besides the
    problems asked, it holds the base of each one-chain problem, which is
    asked through :func:`find_embedding` too, so a base is searched once per
    cache, not once per chain.  Inconclusive outcomes are never stored, and
    absent ones stay in memory: the file holds certificates only, and a file
    written by a different engine version loads nothing.  A loaded certificate is verified when
    :meth:`get` first asks for its problem, so a session pays only for the
    entries it uses; one that fails is dropped and its problem searched again.
    An entry whose key names no problem, or a problem the square-index rule
    refutes, is never asked for and is kept as read.
    """

    def __init__(self) -> None:
        self._entries: dict[str, SearchOutcome] = {}
        # certificate objects from a file, by key, not yet verified
        self._unverified: dict[str, object] = {}
        # the certificates object of the file this cache loaded, as read
        self._read: dict | None = None

    def __len__(self) -> int:
        return len(self._entries) + len(self._unverified)

    @property
    def changed(self) -> bool:
        """True unless the certificates :meth:`save` would write equal those of
        the file this cache loaded; a cache that loaded no file is changed."""
        return self._certificates() != self._read

    def get(self, problem: SearchProblem) -> SearchOutcome | None:
        key = problem.key
        if key in self._unverified:
            try:
                cert = Certificate.from_json(self._unverified.pop(key))
            except (ValueError, KeyError, TypeError, OverflowError):
                cert = None
            if cert is None or not verify_certificate(problem, cert):
                return None
            self._entries[key] = SearchOutcome("found", cert, cert.nodes)
        return self._entries.get(key)

    def put(self, problem: SearchProblem, outcome: SearchOutcome) -> None:
        if outcome.status != "inconclusive":
            self._entries[problem.key] = outcome

    def _certificates(self) -> dict:
        """The certificates object that :meth:`save` writes."""
        certificates = dict(self._unverified)
        certificates.update(
            (key, outcome.certificate.to_json()) for key, outcome in self._entries.items() if outcome.found
        )
        return certificates

    def save(self, path) -> None:
        """Write the verified certificates and the unverified entries as loaded."""
        doc = {"schema": CACHE_SCHEMA, "engine": ENGINE_VERSION, "certificates": self._certificates()}
        # write beside the target and rename over it, so a run killed
        # mid-write leaves the previous file intact; json.dumps, as json.dump
        # always takes the pure-Python encoder
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    def load(self, path) -> int:
        """Read a cache file into this fresh cache; returns how many entries the
        file holds.  Keys and certificates are taken as read: a certificate is
        parsed and verified on first use, so the count includes any that will
        fail then, and any whose key names no problem.

        Raises OSError or ValueError when the file cannot be read as a cache
        document.  A file of another schema or engine loads nothing.
        """
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except RecursionError:
                raise ValueError("cache document is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError("cache document is not a JSON object")
        if doc.get("schema") != CACHE_SCHEMA or doc.get("engine") != ENGINE_VERSION:
            return 0
        certificates = doc.get("certificates", {})
        if not isinstance(certificates, dict):
            raise ValueError("cache certificates are not a JSON object")
        self._read = certificates
        self._unverified.update(certificates)
        return len(certificates)


_shared_cache = EmbeddingCache()


def find_embedding(
    problem: SearchProblem,
    budget: SearchBudget | None = None,
    cache: EmbeddingCache | None = None,
) -> SearchOutcome:
    """Embedding of the problem's chains into Z^N: full rank in plain mode; in
    constrained mode, the second chain with the first as its complement.

    Exhaustive up to signed coordinate permutation: "absent" is a proof.
    A plain problem of one chain is built by 2-final expansions where it can
    be, and searched otherwise; its base is asked for here too, so the cache
    holds the problem asked and its base.  Each problem counts its nodes on
    one meter against ``max_nodes``: a built chain's base, expansion steps
    and whole search together.  A problem whose determinants break the
    square-index rule is "absent" with 0 nodes before the cache is asked or
    the clock started, and is never stored.  Every found outcome not taken
    from the cache is verified before it is stored; one that fails is a
    RuntimeError that stores nothing.  Without a cache the process-wide one
    serves, without a budget the one from the environment; its clock starts
    here unless it is running.
    """
    if _square_refuted(problem):
        return SearchOutcome("absent", None, 0)
    cache = cache if cache is not None else _shared_cache
    hit = cache.get(problem)
    if hit is not None:
        return hit
    budget = (budget if budget is not None else SearchBudget.from_env()).started()
    if problem.ribbon_split is None and len(problem.summands) == 1:
        outcome = _built(problem, budget, cache)
    else:
        outcome = _run_problem(problem, _Meter(budget))
    if outcome.found and not verify_certificate(problem, outcome.certificate):
        raise RuntimeError(f"internal error: unverifiable certificate for {problem.key}")
    cache.put(problem, outcome)
    return outcome


def find_ribbon_embedding(
    lambda1: CF,
    lambda2: CF,
    budget: SearchBudget | None = None,
    cache: EmbeddingCache | None = None,
) -> SearchOutcome:
    """Embedding of the second chain into Z^N (N = total rank) whose orthogonal
    complement realizes the first chain exactly."""
    return find_embedding(ribbon_problem(lambda1, lambda2), budget, cache)


def two_sided_embeddings(
    l1: LensSpace,
    l2: LensSpace,
    cache: EmbeddingCache | None = None,
) -> tuple[SearchOutcome, SearchOutcome]:
    """The lattice condition for a ribbon cobordism from the lens space l1 to
    l2, in both orientations: the ribbon embedding of l2's chain whose
    complement is -l1's chain, for (l1, l2) and then for (-l1, -l2).  A
    reversed ribbon cobordism is ribbon, so a ribbon cobordism needs both
    found.  Both searches share one clock of the environment's budget."""
    budget = SearchBudget.from_env().started()
    return tuple(
        find_ribbon_embedding(a.reverse().cf(), b.cf(), budget, cache)
        for a, b in ((l1, l2), (l1.reverse(), l2.reverse()))
    )


@dataclass(frozen=True)
class RMembershipResult:
    """Tri-state oracle answer with the underlying search outcomes."""

    fraction: Fraction
    outcome: str  # "member" | "non-member" | "inconclusive"
    reason: str
    searches: tuple[tuple[str, SearchOutcome], ...] = ()


def r_membership(
    f: Fraction | int,
    budget: SearchBudget | None = None,
    cache: EmbeddingCache | None = None,
) -> RMembershipResult:
    """Does the lens space of this fraction bound a rational homology ball?

    Operational criterion: the order must be a perfect square, and the chains
    of both p/q and p/(p-q) must admit full-rank embeddings.  The d-invariant
    test, the S^3 case of the pair test, runs before the searches: a
    necessary condition, so an obstruction is a proof of "non-member", and
    a fraction that passes is searched.  The test and both searches share
    the query's one clock; exhaustion makes "non-member" a proof, and a
    spent budget surfaces as "inconclusive", a side that finds it spent
    with 0 nodes and no chain expanded.
    """
    f = Fraction(f)
    if f == 1:
        return RMembershipResult(f, "member", "trivial: the 3-sphere bounds a ball")
    p, q = f.numerator, f.denominator
    if not p > q > 0:
        raise ValueError(f"need p > q > 0 or the trivial fraction, got {f}")
    if square_index(1, p) is None:
        return RMembershipResult(f, "non-member", f"order {p} is not a perfect square")
    budget = (budget if budget is not None else SearchBudget.from_env()).started()
    if d_obstruction(1, 0, p, q, budget.expired):
        return RMembershipResult(f, "non-member", "d-invariant obstruction")
    searches = []
    statuses = []
    for g in (Fraction(p, q), Fraction(p, p - q)):
        # every chain vector costs a node, so a longer chain cannot be found
        # within the budget, nor any chain on a spent clock; neither is expanded
        if budget.expired():
            outcome = SearchOutcome("inconclusive", None, 0)
        elif cf_length(g) > budget.max_nodes:
            outcome = SearchOutcome("inconclusive", None, budget.max_nodes + 1)
        else:
            outcome = find_embedding(plain_problem((cf_expand(g),)), budget, cache)
        searches.append((str(g), outcome))
        statuses.append(outcome.status)
    if "absent" in statuses:
        side = searches[statuses.index("absent")][0]
        result = "non-member"
        reason = f"no full-rank embedding for {side}"
    elif "inconclusive" in statuses:
        result = "inconclusive"
        reason = "search budget exhausted"
    else:
        result = "member"
        reason = "both orientations embed"
    return RMembershipResult(f, result, reason, tuple(searches))
