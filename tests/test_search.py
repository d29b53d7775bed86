import hashlib
import io
import itertools
import json
import random
import re
import sys
import time
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt

import pytest

from ribbonlens import cli, search, subsets
from ribbonlens.arith import LensSpace, cf_expand, continuant, d_obstruction, square_ratio_check
from ribbonlens.search import (
    ENGINE_VERSION,
    Certificate,
    EmbeddingCache,
    SearchBudget,
    SearchOutcome,
    SearchProblem,
    find_embedding,
    find_ribbon_embedding,
    plain_problem,
    r_membership,
    ribbon_problem,
    two_sided_embeddings,
    verify_certificate,
)
from ribbonlens.subsets import linear_subset

from reference import fraction_det, gram_of_rows


def fresh_cache():
    return EmbeddingCache()


def sparse(v):
    """A vector's (coordinate, value) pairs with nonzero values."""
    return tuple((k, x) for k, x in enumerate(v) if x)


def dense(v, N):
    """The N entries of a vector given by its (coordinate, value) pairs."""
    x = [0] * N
    for k, c in v:
        x[k] = c
    return tuple(x)


def naive_embedding_exists(blocks, ambient):
    """Independent oracle: raw DFS over all vectors, no symmetry breaking."""
    flat = [(bi, ti, a) for bi, terms in enumerate(blocks) for ti, a in enumerate(terms)]

    def vectors_of_norm(a):
        def rec(pos, left):
            if pos == ambient:
                if left == 0:
                    yield ()
                return
            m = isqrt(left)
            for c in range(-m, m + 1):
                for rest in rec(pos + 1, left - c * c):
                    yield (c,) + rest

        return rec(0, a)

    def assign(i, chosen):
        if i == len(flat):
            return True
        bi, ti, a = flat[i]
        for v in vectors_of_norm(a):
            good = True
            for j, w in enumerate(chosen):
                bj, tj, _ = flat[j]
                want = 1 if (bj == bi and tj == ti - 1) else 0
                if sum(x * y for x, y in zip(v, w)) != want:
                    good = False
                    break
            if good and assign(i + 1, chosen + [v]):
                return True
        return False

    return assign(0, [])


class TestPlainSearch:
    def test_norm_four_in_rank_one(self):
        outcome = find_embedding(plain_problem([(4,)]), cache=fresh_cache())
        assert outcome.found
        assert outcome.certificate.groups == ((((0, 2),),),)

    def test_three_chain_of_twos(self):
        outcome = find_embedding(plain_problem([(2, 2, 2)]), cache=fresh_cache())
        assert outcome.found
        assert verify_certificate(plain_problem([(2, 2, 2)]), outcome.certificate)

    def test_single_two_has_no_room(self):
        outcome = find_embedding(plain_problem([(2,)]), cache=fresh_cache())
        assert outcome.status == "absent"

    def test_agrees_with_naive_oracle(self):
        cases = []
        for p in range(2, 9):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    cases.append([cf_expand(Fraction(p, q))])
        cases += [[(2,), (2,)], [(2, 2, 2), (4,)], [(3,), (3,)], [(2, 2), (2, 2)]]
        for blocks in cases:
            ambient = sum(len(b) for b in blocks)
            if ambient > 5:
                continue
            engine = find_embedding(plain_problem(blocks), cache=fresh_cache()).found
            assert engine == naive_embedding_exists(blocks, ambient), blocks

    def test_eight_twos_absent_by_index_three_argument(self):
        # engine claim: the chain of eight twos has no full-rank embedding
        outcome = find_embedding(plain_problem([(2,) * 8]), cache=fresh_cache())
        assert outcome.status == "absent"
        # independent argument: a full-rank copy would be an index-3 sublattice
        # of Z^8, i.e. the kernel of x -> sum over a support of size k mod 3
        # (up to signed permutation).  k < 8 leaves a unit vector, impossible
        # for a chain of twos; k = 8 has too few norm-2 vectors.
        chain_pairs = 8 * 9 // 2  # 36 norm-2 pairs in the chain lattice
        kernel_pairs = 0
        for i, j in itertools.combinations(range(8), 2):
            for s in (1, -1):
                if (1 + s) % 3 == 0:
                    kernel_pairs += 1
        assert kernel_pairs != chain_pairs

    def test_budget_gives_inconclusive(self):
        outcome = find_embedding(
            plain_problem([(2, 2, 2)]),
            budget=SearchBudget(max_nodes=3, max_seconds=60),
            cache=fresh_cache(),
        )
        assert outcome.status == "inconclusive"

    def test_determinism(self):
        first = find_embedding(plain_problem([(2, 2, 2), (4,)]), cache=fresh_cache())
        second = find_embedding(plain_problem([(2, 2, 2), (4,)]), cache=fresh_cache())
        assert first.certificate.groups == second.certificate.groups
        assert first.nodes == second.nodes


# sha256 of engine_fingerprint(), per engine version; "1" was computed with
# this function on the last version-1 engine, which also searched the
# reversed string when a ribbon leaf's chain had no basis, and "2" on the
# last version-2 engine, which filled fresh coordinates eagerly and did not
# tick in a ribbon leaf's short-vector enumeration, and "3" on the last
# version-3 engine, which placed every chain in string order and forced no
# used coordinate, and "4" on the last version-4 engine, which searched every
# plain chain whole instead of building it by 2-final expansions.  "6" equals
# "5": version 5 also searched the later bases on a chain's contraction path
# that pass the square-index rule, but no chain of this problem set has a
# first such base that fails to build it; TestTwoFinalBuild pins chains that do
ENGINE_FINGERPRINTS = {
    "1": "f395473241b65e366d7bdd7642e6a6225fc98c6d5502df3c0c1c6380cd77a937",
    "2": "d7555422bc235f5ecf312b5cd0805caada9482dde4527dab9d6250f78e10fc08",
    "3": "5529d775b3bcb988a7f49d4bf8fb76bcccf77efe92799b5dc2d13fd11a5ca464",
    "4": "9a313c0ca0bbc9e21fbe667de1e3f3628192083e269d1abf376935f0cad9528f",
    "5": "07beb6b83bec65e9712cd5ee5af0e39fdcd0a4946ba57ca0257366eb5457f670",
    "6": "07beb6b83bec65e9712cd5ee5af0e39fdcd0a4946ba57ca0257366eb5457f670",
}


def engine_fingerprint() -> str:
    """(key, status, groups, nodes) of a fixed problem set, with and without a
    tight node budget: plain chains of p/q for square p <= 64 and ribbon pairs
    with p <= 12, where the ribbon leaf meets strings with no chain basis.
    Each vector is written out to its N entries, the form the hashes of every
    engine version were taken on."""
    from ribbonlens.selfcheck import all_lens_spaces

    problems = [
        plain_problem((cf_expand(Fraction(p, q)),))
        for p in range(2, 65)
        if isqrt(p) ** 2 == p
        for q in range(1, p)
        if gcd(p, q) == 1
    ]
    spaces = all_lens_spaces(12)
    problems += [ribbon_problem(l1.reverse().cf(), l2.cf()) for l1 in spaces for l2 in spaces]
    rows = []
    for budget in (SearchBudget(), SearchBudget(max_nodes=50)):
        for problem in problems:
            outcome = find_embedding(problem, budget=budget, cache=fresh_cache())
            groups = None
            if outcome.found:
                groups = [[dense(v, problem.ambient_rank) for v in group] for group in outcome.certificate.groups]
            rows.append((problem.key, outcome.status, groups, outcome.nodes))
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class TestEngine:
    def test_fingerprint(self):
        assert engine_fingerprint() == ENGINE_FINGERPRINTS.get(ENGINE_VERSION), (
            "search outcomes changed: bump ENGINE_VERSION, run scripts/regenerate_golden.py "
            "and record the new fingerprint"
        )

    def test_long_chain_under_low_recursion_limit(self):
        # the engine keeps no frame per chain vector or per coordinate
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            outcome = find_embedding(
                plain_problem([(2,) * 120]), SearchBudget(20000, 60), cache=fresh_cache()
            )
        finally:
            sys.setrecursionlimit(limit)
        # exhausted in 7,979 nodes; engine version 3 needed 22,735 and so
        # read inconclusive under the cap
        assert outcome.status == "absent"

    def test_node_budget_caps_candidates_of_one_vector(self):
        # (a, 2 x a) has determinant a^2; its first vector alone has
        # thousands of candidates for a = 100, and each odometer step ticks
        outcome = find_embedding(
            plain_problem([(100,) + (2,) * 100]), SearchBudget(max_nodes=10), cache=fresh_cache()
        )
        assert (outcome.status, outcome.nodes) == ("inconclusive", 11)


def square_partitions(total, max_len):
    """Non-increasing positive integers whose squares sum to total, in
    decreasing lexicographic order, at most max_len of them; the last part
    is forced, so it is taken at once."""
    parts = []
    left, c = total, isqrt(total)
    while True:
        if left == 0:
            yield tuple(parts)
        elif len(parts) == max_len - 1:
            if c * c == left:
                yield (*parts, c)
        elif c and len(parts) < max_len:
            parts.append(c)
            left -= c * c
            c = min(c, isqrt(left))
            continue
        if not parts:
            return
        c = parts.pop()
        left += c * c
        c -= 1


def eager_candidates(engine, tails, support, u, starts):
    """Reference for the order of _Engine._candidates: the engine version 2
    list, which walks the used prefix [0, u) and then fills the fresh
    coordinates from square_partitions; it counts no nodes."""
    i = len(tails)
    pairs, norm = engine.flat[i]
    owed = {i - 1: 1} if pairs else {}
    fresh = engine.N - u
    x = [0] * u
    lo = [0] * u
    lefts = [norm] * (u + 1)
    out = []

    def shift(k, step):
        x[k] += step
        for c, j in support[k]:
            g = owed.pop(j, 0) - step * c
            if g:
                owed[j] = g

    k = 0
    while True:
        left = lefts[k]
        if all(g * g <= left * tails[j][k] for j, g in owed.items()):
            if k == u:
                prefix = tuple(x)
                for fill in square_partitions(left, fresh):
                    out.append(prefix + fill + (0,) * (fresh - len(fill)))
            else:
                cmax = isqrt(left)
                top = cmax if starts[k] else min(cmax, x[k - 1])
                lo[k] = -cmax
                if top >= -cmax:
                    shift(k, top)
                    lefts[k + 1] = left - top * top
                    k += 1
                    continue
        k -= 1
        while k >= 0 and x[k] <= lo[k]:
            if x[k]:
                shift(k, -x[k])
            k -= 1
        if k < 0:
            return out
        shift(k, -1)
        lefts[k + 1] = lefts[k] - x[k] * x[k]
        k += 1


def full_scan_candidates(engine, vecs, tails, u, starts):
    """Reference for _Engine._candidates: the same odometer over all N
    coordinates with a full scan, which re-checks every assigned vector at
    every node and rebuilds every partial pairing on every step, and forces
    a used coordinate where an earlier vector's support ends."""
    i = len(vecs)
    N = engine.N
    pairs, norm = engine.flat[i]
    req = [0] * i
    if pairs:
        req[-1] = 1
    x = [0] * N
    lo = [0] * N
    lefts = [norm] * (N + 1)
    parts = [(0,) * i] * (N + 1)
    k = 0
    while True:
        engine.meter.tick()
        left, part = lefts[k], parts[k]
        if all((r - p) ** 2 <= left * t[k] for r, p, t in zip(req, part, tails)):
            if k < u:
                cmax = isqrt(left)
                x[k] = (cmax if starts[k] else min(cmax, x[k - 1])) + 1
                lo[k] = -cmax
                # the first vector whose support ends at k is owed its whole
                # rest here; a level with no such value takes none
                for v, r, p, t in zip(vecs, req, part, tails):
                    if v[k] and not t[k + 1]:
                        forced, rest = divmod(r - p, v[k])
                        if rest or not lo[k] <= forced < x[k]:
                            x[k] = lo[k]
                        else:
                            x[k], lo[k] = forced + 1, forced
                        break
                k += 1
            elif left == 0:
                yield tuple(x)
            elif k < N:
                # fresh parts are positive and non-increasing from k on
                x[k] = (isqrt(left) if k == u else min(isqrt(left), x[k - 1])) + 1
                lo[k] = next(c for c in itertools.count(1) if c * c * (N - k) >= left)
                k += 1
        k -= 1
        while k >= 0 and x[k] <= lo[k]:
            x[k] = 0
            k -= 1
        if k < 0:
            return
        x[k] -= 1
        val = x[k]
        lefts[k + 1] = lefts[k] - val * val
        parts[k + 1] = tuple(p + val * v[k] for p, v in zip(parts[k], vecs))
        k += 1


def drawn(candidates, engine):
    """Every candidate a frame yields with the node count at its yield, then
    the count at exhaustion, or at the budget's raise with None."""
    events = []
    try:
        for vec in candidates:
            events.append((vec, engine.meter.nodes))
    except search.BudgetExceededError:
        return events, (None, engine.meter.nodes)
    return events, ("end", engine.meter.nodes)


def checked_against_references(monkeypatch):
    """Make every _candidates frame also drain itself and the full-scan
    reference on the same engine state, requiring the same candidates at
    the same node counts, and, where the budget lets the frame finish, the
    order of the eager reference; the search itself then draws from a fresh
    frame, so its nodes are those of an unchecked run.  Returns the list of
    checked frame sizes."""
    lazy = search._Engine._candidates
    handed_out: list = []  # the candidate each open frame handed out last
    frames: list = []

    def checked(self, tails, support, u, starts):
        # the references see only the vectors this wrapper handed out
        i = len(tails)
        vecs = handed_out[:i]
        ref_tails = [[*accumulate(c * c for c in reversed(v))][::-1] + [0] for v in vecs]
        start = self.meter.nodes
        want = drawn(full_scan_candidates(self, vecs, ref_tails, u, starts), self)
        self.meter.nodes = start
        got = drawn(lazy(self, tails, support, u, starts), self)
        self.meter.nodes = start
        assert got == want
        events, (end, _) = got
        if end is not None:
            eager = eager_candidates(self, tails, support, u, starts)
            assert [vec for vec, _ in events] == eager
        frames.append(len(events))

        def hand_out():
            for vec in lazy(self, tails, support, u, starts):
                handed_out[i:] = [vec]
                yield vec

        return hand_out()

    monkeypatch.setattr(search._Engine, "_candidates", checked)
    return frames


# the fractions of the benchmark's oracle workload: q < p/2 for five square orders
ORACLE_FRACTIONS = [
    Fraction(p, q) for p in (49, 64, 81, 100, 121) for q in range(1, (p + 1) // 2) if gcd(p, q) == 1
]
assert len(ORACLE_FRACTIONS) == 139


class TestIncrementalPruning:
    BUDGETS = (SearchBudget(max_seconds=600), SearchBudget(max_nodes=50, max_seconds=600))

    def test_oracle_searches_match_full_scan(self, monkeypatch):
        # both orientations of each fraction, searched directly: the
        # d-invariant test in r_membership would skip most absent ones
        frames = checked_against_references(monkeypatch)
        for budget in self.BUDGETS:
            nodes = {"found": 0, "absent": 0, "inconclusive": 0}
            for f in ORACLE_FRACTIONS:
                p, q = f.numerator, f.denominator
                for g in (f, Fraction(p, p - q)):
                    problem = plain_problem((cf_expand(g),))
                    outcome = find_embedding(problem, budget, cache=fresh_cache())
                    nodes[outcome.status] += outcome.nodes
            if budget.max_nodes == SearchBudget.max_nodes:
                # engine version 2 filled each vector's fresh coordinates
                # before descending, and took 52,291 nodes on found searches;
                # version 3 placed each chain in string order and forced no
                # coordinate, and took 37,137 and 149,498; version 4 searched
                # every chain whole, and took 11,757 and 49,280.  An absent
                # chain now also pays for its base's search before its own
                assert (nodes["found"], nodes["absent"]) == (6_049, 50_198)
        assert len(frames) > 3_000

    def test_seeded_plain_problems_match_full_scan(self, monkeypatch):
        frames = checked_against_references(monkeypatch)
        rng = random.Random(6)

        def chain(p):
            q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
            return cf_expand(Fraction(p, q))

        statuses = set()
        for _ in range(200):
            # equal orders, or a square third order, keep the determinant square
            p = rng.randrange(2, 12)
            summands = [chain(p), chain(p)]
            if rng.random() < 0.5:
                summands.append(chain(rng.choice((4, 9, 16))))
            for budget in self.BUDGETS:
                outcome = find_embedding(plain_problem(summands), budget, cache=fresh_cache())
                statuses.add(outcome.status)
        assert statuses == {"found", "absent", "inconclusive"}
        assert len(frames) > 1_000


class TestTimeBudget:
    BUDGET = SearchBudget(max_nodes=10**6, max_seconds=0.5)

    def test_huge_norm_is_found_within_a_second(self):
        # the fresh-coordinate bound forces the last fresh part, and the end
        # of an earlier vector's support forces a used coordinate, so the
        # huge norm's odometer walks neither down, whichever end is placed first
        for terms in ((333334, 2, 2), (2, 2, 333334)):
            outcome = find_embedding(plain_problem([terms]), SearchBudget(max_seconds=1), cache=fresh_cache())
            assert outcome.found

    def test_deadline_holds_while_fresh_coordinates_fill(self):
        # the huge norm's odometer still steps O(sqrt(norm)) times between a
        # few candidates: about 2.3 million nodes here, while norm
        # 3,333,333,334 is found in 231,902, too close to the budget
        problem = plain_problem([(333333333334, 2, 2)])
        start = time.monotonic()
        outcome = find_embedding(problem, self.BUDGET, cache=fresh_cache())
        assert time.monotonic() - start < 2.5
        assert outcome.status == "inconclusive"

    def test_deadline_holds_on_a_long_chain(self):
        # a node of this 333,333-term chain costs O(N)
        problem = plain_problem([cf_expand(Fraction(10**6, 10**6 - 3))])
        start = time.monotonic()
        outcome = find_embedding(problem, self.BUDGET, cache=fresh_cache())
        assert time.monotonic() - start < 2.5
        assert outcome.status == "inconclusive"

    def test_deadline_holds_in_ribbon_leaves(self):
        # 1,471 leaves, each with a kernel, a determinant and sometimes a
        # short-vector enumeration of seconds
        problem = SearchProblem(((2,) * 30, (124,)), 1)
        start = time.monotonic()
        outcome = find_embedding(problem, SearchBudget(max_seconds=1), cache=fresh_cache())
        assert time.monotonic() - start < 2.5
        assert outcome.status == "inconclusive"

    def test_clock_starts_once_per_query(self):
        budget = SearchBudget(max_seconds=0.5)
        assert budget.deadline is None and budget == budget.started()
        running = budget.started()
        assert running.started() is running and not running.expired()
        with pytest.raises(TypeError):
            SearchBudget(deadline=0.0)

    def test_two_sided_embeddings_share_one_clock(self, monkeypatch):
        budgets = []
        real = search.find_ribbon_embedding

        def spy(lambda1, lambda2, budget, cache):
            budgets.append(budget)
            return real(lambda1, lambda2, budget, cache)

        monkeypatch.setattr(search, "find_ribbon_embedding", spy)
        outcomes = two_sided_embeddings(LensSpace(2, 1), LensSpace(8, 5), cache=fresh_cache())
        assert [outcome.status for outcome in outcomes] == ["found", "found"]
        assert len(budgets) == 2 and budgets[0] is budgets[1] and budgets[0].deadline is not None

    def test_deadline_is_checked_before_every_leaf(self):
        # (5, 5) has two leaves under one frame, and the first outlasts the budget
        engine = search._Engine(((5,), (5,)), 2, search._Meter(SearchBudget(max_seconds=0.1).started()))
        leaves = []
        with pytest.raises(search.BudgetExceededError):
            engine.run(lambda vecs: leaves.append(time.sleep(0.2)))
        assert len(leaves) == 1

    def test_chain_longer_than_node_budget_is_not_expanded(self, monkeypatch):
        # the chains of m**2/(m-1), a member for every m, have m - 1 and
        # m + 1 terms, and its d-invariant test passes; so m = 10**4 puts
        # the second one just above the node budget
        budget = SearchBudget(max_nodes=10**4, max_seconds=0.5)
        f = Fraction(10**8, 10**4 - 1)
        assert d_obstruction(1, 0, f.numerator, f.denominator, lambda: False) is False
        expanded = []
        expand = search.cf_expand
        monkeypatch.setattr(search, "cf_expand", lambda f: expanded.append(f) or expand(f))
        start = time.monotonic()
        result = r_membership(f, budget, cache=fresh_cache())
        assert time.monotonic() - start < 2.5
        assert result.outcome == "inconclusive"
        (_, short), (_, long) = result.searches
        # the short side may be built from (5, 2) within its nodes; found, it
        # carries a certificate that verifies
        assert short.status in ("inconclusive", "found")
        if short.found:
            assert verify_certificate(plain_problem((cf_expand(f),)), short.certificate)
        assert long.status == "inconclusive"
        assert long.nodes == budget.max_nodes + 1
        assert expanded == [f]

    def test_no_chain_is_expanded_on_a_spent_clock(self, monkeypatch):
        # 9/2 is a member, but its d-invariant test outlasts the 0.1 s budget,
        # so both sides are inconclusive at 0 nodes, as the engine would
        # answer, and neither chain is expanded
        real = search.d_obstruction
        monkeypatch.setattr(search, "d_obstruction", lambda *args: time.sleep(0.2) or real(*args))
        expanded = []
        monkeypatch.setattr(search, "cf_expand", lambda f: expanded.append(f) or cf_expand(f))
        result = r_membership(Fraction(9, 2), SearchBudget(max_seconds=0.1), cache=fresh_cache())
        assert result.outcome == "inconclusive"
        assert [(outcome.status, outcome.nodes) for _, outcome in result.searches] == [("inconclusive", 0)] * 2
        assert expanded == []


class TestOrientation:
    def test_stalled_members_are_found(self):
        # engine version 3 was inconclusive on both at 5 s
        for f in (Fraction(10**4, 101), Fraction(9 * 10**4, 301)):
            result = r_membership(f, SearchBudget(max_seconds=5), cache=fresh_cache())
            assert result.outcome == "member", f

    def test_square_over_mk_plus_or_minus_one_are_members(self):
        # L(m^2, mk +- 1) bounds a rational ball whenever gcd(m, k) = 1
        members = 0
        for m in range(2, 31):
            for k in range(1, m):
                if gcd(m, k) != 1:
                    continue
                for q in (m * k - 1, m * k + 1):
                    result = r_membership(Fraction(m * m, q), cache=fresh_cache())
                    assert result.outcome == "member", (m, q)
                    members += 1
        assert members == 554

    def test_orientation_keeps_every_status(self):
        # a reversed chain spans the same lattice: the engine run directly on
        # the given string agrees with the oriented search on every chain
        searched = found = 0
        for m in range(2, 16):
            p = m * m
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                terms = cf_expand(Fraction(p, q))
                oriented = find_embedding(plain_problem((terms,)), cache=fresh_cache())
                engine = search._Engine((terms,), len(terms), search._Meter(SearchBudget().started()))
                forward = engine.run(lambda vecs: vecs)
                assert oriented.status == ("absent" if forward is None else "found"), (p, q)
                searched += 1
                found += oriented.found
        assert (searched, found) == (734, 466)

    def test_certificate_is_in_the_given_order(self):
        # 9/2 and 9/7 are placed from their last terms, the reversed strings
        # from their first; a flipped group is turned back
        for terms in ((5, 2), (2, 5), (2, 2, 2, 3), (3, 2, 2, 2)):
            problem = plain_problem([terms, (4,)])
            outcome = find_embedding(problem, cache=fresh_cache())
            assert outcome.found and verify_certificate(problem, outcome.certificate), terms
            norms = [sum(x * x for _, x in v) for v in outcome.certificate.groups[0]]
            assert norms == list(terms)


def member_sides(max_p):
    """The chains p/q of every ball-oracle member with square p <= max_p that
    the d-invariant test lets through: both sides of each member, since
    p/(p - q) is a member with it."""
    for m in range(2, isqrt(max_p) + 1):
        p = m * m
        for q in range(1, p):
            if gcd(p, q) == 1 and not d_obstruction(1, 0, p, q, lambda: False):
                yield cf_expand(Fraction(p, q))


def expansion_steps(monkeypatch, terms):
    """(vectors before, vectors after, direction) of each expansion step that
    built the chain's certificate, or None when it was searched whole."""
    expand = search._expand
    calls = []

    def recorded(base, steps, tick):
        steps = list(steps)
        calls.append((base, steps))
        return expand(base, steps, tick)

    monkeypatch.setattr(search, "_expand", recorded)
    outcome = find_embedding(plain_problem((terms,)), cache=fresh_cache())
    monkeypatch.setattr(search, "_expand", expand)
    if not calls or expand(*calls[-1], lambda: None) is None:
        return None
    base, steps = calls[-1]
    grown = [base] + [expand(base, steps[: k + 1], lambda: None) for k in range(len(steps))]
    assert grown[-1] == outcome.certificate.groups[0]
    return [(grown[k], grown[k + 1], steps[k]) for k in range(len(steps))]


class TestTwoFinalBuild:
    def test_contraction_path_walks_back_to_the_chain(self):
        # (5, 2, 2, 2) -> (4, 2, 2) -> (3, 2) -> (2), whose one term cannot
        # expand; a string with both ends 2, or neither, does not contract
        assert [(det, base(), list(steps)) for det, base, steps in search._bases((5, 2, 2, 2))] == [
            (5, (3, 2), [1, 1]),
            (10, (4, 2, 2), [1]),
        ]
        for terms in ((2, 2, 2), (3, 4), (2, 3, 2), (4,), (3, 2), ()):
            assert list(search._bases(terms)) == []
        for terms in ((2, 2, 3, 4), (3, 3, 2, 2), (2, 4, 2, 5), (7, 2, 3, 2, 2, 2)):
            lengths = []
            for _, base, steps in search._bases(terms):
                base = base()
                lengths.append(len(base))
                # undoing a contraction: grow one end, put a 2 beside the other
                for step in steps:
                    base = (base[0] + 1, *base[1:], 2) if step else (2, *base[:-1], base[-1] + 1)
                assert base == terms
            # one term shorter per step, shortest first
            assert lengths and lengths == list(range(len(terms) - len(lengths), len(terms))), terms

    def test_members_up_to_900_keep_their_statuses(self, monkeypatch):
        # every side is found, by a build or a whole search, with a certificate
        # that verifies, and agrees with the whole-string search
        whole = []
        run_problem = search._run_problem

        def counted(problem, meter):
            whole.append(problem.key)
            return run_problem(problem, meter)

        monkeypatch.setattr(search, "_run_problem", counted)
        sides = built = 0
        for terms in member_sides(900):
            problem = plain_problem((terms,))
            whole.clear()
            outcome = find_embedding(problem, cache=fresh_cache())
            assert outcome.found and verify_certificate(problem, outcome.certificate), terms
            built += problem.key not in whole
            assert run_problem(problem, search._Meter(SearchBudget().started())).status == outcome.status, terms
            sides += 1
        assert sides == 890
        assert built > 650

    def test_each_step_is_the_two_final_move_it_undoes(self, monkeypatch):
        # the new coordinate e is supported on the new 2 (s) and the grown end
        # (t) alone, and contracting there gives the previous step back;
        # subsets takes unit coefficients only, which bases such as (2, 5)
        # cannot have, so it is asked where every coefficient is a unit
        sides = unit_sides = 0
        for terms in member_sides(121):
            steps = expansion_steps(monkeypatch, terms)
            if steps is None:
                continue
            sides += 1
            unit = all(x * x == 1 for v in steps[-1][1] for _, x in v)
            unit_sides += unit
            for before, after, step in steps:
                n = len(after)
                # the new coordinate is the last one
                e = max(k for v in after for k, _ in v)
                s, t = (n - 1, 0) if step else (0, n - 1)
                assert [i for i, v in enumerate(after) if dict(v).get(e)] == sorted((s, t))
                assert sum(x * x for _, x in after[s]) == 2 < sum(x * x for _, x in after[t])
                stripped = [tuple((k, x) for k, x in v if k != e) for i, v in enumerate(after) if i != s]
                assert tuple(stripped) == before
                if unit:
                    grown = linear_subset([dense(v, n) for v in after])
                    assert subsets._two_final_move(grown, tuple(range(n))) == (e, s, t)
                    back = subsets.contract(grown, e, s, t)
                    assert back == tuple(dense(v, n - 1) for v in before)
                    # the enumeration holds every step the build takes
                    expansions = subsets.two_final_expansions(back, tuple(range(n - 1)))
                    assert subsets.canonical_matrix(grown) in {subsets.canonical_matrix(x) for x in expansions}
        assert (sides, unit_sides) == (94, 48)

    def test_long_member_is_built(self):
        # 10**8/10001 builds from (2, 2, 2) and (2, 5): 10,001 and 9,999 terms
        f = Fraction(10**8, 10001)
        result = r_membership(f, SearchBudget(max_seconds=10), cache=fresh_cache())
        assert result.outcome == "member"
        for g, outcome in result.searches:
            terms = cf_expand(Fraction(g))
            assert verify_certificate(plain_problem((terms,)), outcome.certificate)
            assert outcome.nodes >= len(terms)

    def test_long_member_under_fewer_nodes_than_terms_is_inconclusive(self):
        # each expansion step ticks a node, so a chain longer than the node
        # budget is never built
        terms = cf_expand(Fraction(10**8, 10001))
        for max_nodes in (len(terms) - 1, len(terms) // 2):
            budget = SearchBudget(max_nodes=max_nodes, max_seconds=10)
            outcome = find_embedding(plain_problem((terms,)), budget, cache=fresh_cache())
            assert (outcome.status, outcome.nodes) == ("inconclusive", max_nodes + 1)

    def test_chains_of_rank_zero_and_one(self):
        # nothing to build from: the search answers as it always did
        for terms, status in (((), "found"), ((4,), "found"), ((2,), "absent"), ((3, 2), "absent")):
            outcome = find_embedding(plain_problem([terms]), cache=fresh_cache())
            assert outcome.status == status, terms
        assert find_embedding(plain_problem([()]), cache=fresh_cache()).certificate.groups == ((),)

    def test_carried_determinants_are_the_continuants(self):
        # _bases carries the inner terms' continuant matrix up the path; each
        # base's determinant must be the continuant of the string it builds
        rng = random.Random(2028)
        chains = [(5, 2, 2, 2), (3, 3, 2, 2), (2, 4, 2, 5), (7, 2, 3, 2, 2, 2), (2,) * 40 + (81,)]
        chains += [cf_expand(Fraction(p, q)) for p, q in ((10000, 101), (10000, 9899), (144, 35), (225, 179))]
        chains += [tuple(rng.choice((2, 2, 2, 3, 4, 5, 9)) for _ in range(rng.randint(3, 14))) for _ in range(2000)]
        bases = 0
        for terms in chains:
            for det, base, _ in search._bases(terms):
                assert det == continuant(base()), (terms, base())
                bases += 1
        assert bases > 1500

    def test_first_base_is_searched_once_per_cache(self, monkeypatch):
        # (4, 2, 2, 2, 2) and (3, 2, 2, 2) both build from (2, 2, 2): the
        # second query takes it from the cache, which holds it with both chains
        chains = ((4, 2, 2, 2, 2), (3, 2, 2, 2))
        fresh = [fresh_answer(terms) for terms in chains]
        searched = record_searches(monkeypatch)
        cache = fresh_cache()
        base = plain_problem([(2, 2, 2)])
        for terms, want in zip(chains, fresh):
            outcome = find_embedding(plain_problem([terms]), cache=cache)
            assert outcome.found and outcome.nodes > len(terms)
            assert (outcome.status, outcome.nodes, outcome.certificate.groups) == want
        assert searched == ["plain|2,2,2"]
        assert len(cache) == 3 and cache.get(base).found

    def test_base_from_a_file_is_verified_and_not_searched(self, monkeypatch, tmp_path):
        path = tmp_path / "cache.json"
        cache = fresh_cache()
        find_embedding(plain_problem([(4, 2, 2, 2, 2)]), cache=cache)
        cache.save(path)
        assert "plain|2,2,2" in json.loads(path.read_text())["certificates"]
        searched = record_searches(monkeypatch)
        verified = []
        verify = search.verify_certificate

        def recorded(problem, cert):
            verified.append(problem.key)
            return verify(problem, cert)

        monkeypatch.setattr(search, "verify_certificate", recorded)
        loaded = fresh_cache()
        assert loaded.load(path) == 2
        outcome = find_embedding(plain_problem([(3, 2, 2, 2)]), cache=loaded)
        assert searched == []
        assert verified == ["plain|2,2,2", "plain|3,2,2,2"]  # the base's, then the built one's
        assert (outcome.status, outcome.nodes, outcome.certificate.groups) == fresh_answer((3, 2, 2, 2))

    def test_tampered_base_entry_is_searched_again(self, monkeypatch, tmp_path):
        path = tmp_path / "cache.json"
        cache = fresh_cache()
        find_embedding(plain_problem([(2, 2, 2)]), cache=cache)
        cache.save(path)
        doc = json.loads(path.read_text())
        doc["certificates"]["plain|2,2,2"]["groups"][0][0][0][1] = "2"
        path.write_text(json.dumps(doc))
        searched = record_searches(monkeypatch)
        loaded = fresh_cache()
        assert loaded.load(path) == 1
        outcome = find_embedding(plain_problem([(3, 2, 2, 2)]), cache=loaded)
        assert searched == ["plain|2,2,2"]
        assert (outcome.status, outcome.nodes, outcome.certificate.groups) == fresh_answer((3, 2, 2, 2))
        assert loaded.get(plain_problem([(2, 2, 2)])).certificate == find_embedding(
            plain_problem([(2, 2, 2)]), cache=fresh_cache()
        ).certificate

    def test_one_base_per_chain(self, monkeypatch):
        # 144/35 has no embedding; its first base that passes the square-index
        # rule, (3, 2, ..., 2, 3), does not grow into it, so the chain is
        # searched whole next, and (4, 2, ..., 2, 3, 2), a later base that
        # passes, is never searched
        chain = cf_expand(Fraction(144, 35))
        assert chain == (5,) + (2,) * 7 + (3, 2, 2)
        base = (3,) + (2,) * 7 + (3,)
        fresh = [fresh_answer(terms) for terms in (chain, base)]
        searched = record_searches(monkeypatch)
        cache = fresh_cache()
        outcome = find_embedding(plain_problem([chain]), cache=cache)
        assert searched == [plain_problem([t]).key for t in (base, chain)]
        # version 5 also searched the later base, and took 576 nodes
        assert (outcome.status, outcome.nodes) == ("absent", 431)
        for terms, want in zip((chain, base), fresh):
            assert fresh_answer(terms, cache) == want, terms
        assert len(searched) == 2  # both answered from the cache

    def test_chains_up_to_400_search_one_base_at_most(self, monkeypatch):
        # every chain m**2/q with p <= 400, searched directly: at most its
        # first passing base and then the chain itself, with the whole
        # search's status.  Version 5 searched 225/44 and 225/179 four times
        run_problem = search._run_problem
        searched = record_searches(monkeypatch)
        chains = 0
        for m in range(2, 21):
            for q in range(1, m * m):
                if gcd(m, q) != 1:
                    continue
                problem = plain_problem([cf_expand(Fraction(m * m, q))])
                searched.clear()
                outcome = find_embedding(problem, cache=fresh_cache())
                assert len(searched) <= 2 and searched[1:] in ([], [problem.key]), (m * m, q)
                meter = search._Meter(SearchBudget().started())
                assert run_problem(problem, meter).status == outcome.status, (m * m, q)
                chains += 1
        assert chains == 1744

    def test_built_chains_take_the_whole_search_certificate(self):
        # the first base of each does not expand, so the chain is searched
        # whole; version 5 built them from a later base in 156 and 280 nodes
        for f, nodes in ((Fraction(529, 6), 109), (Fraction(1024, 11), 132)):
            problem = plain_problem([cf_expand(f)])
            outcome = find_embedding(problem, cache=fresh_cache())
            assert (outcome.status, outcome.nodes) == ("found", nodes), f
            assert verify_certificate(problem, outcome.certificate), f

    def test_ball_oracle_answers_do_not_depend_on_the_cache(self):
        # every m**2/q with p <= 900: one cache shared by all of them gives
        # each side the status, nodes and certificate of a fresh cache
        fractions = [Fraction(m * m, q) for m in range(2, 31) for q in range(1, m * m) if gcd(m, q) == 1]
        assert len(fractions) == 5600
        shared = fresh_cache()

        def sides(result):
            return [(g, o.status, o.nodes, o.certificate and o.certificate.groups) for g, o in result.searches]

        for f in fractions:
            assert sides(r_membership(f, cache=shared)) == sides(r_membership(f, cache=fresh_cache())), f
        assert shared.get(plain_problem([(2, 2, 2)])) is not None

    def test_cached_base_under_every_node_budget(self):
        # with the chain's first square base in the cache, every node cap up
        # to the fresh count + 1 answers as a fresh cache does, a cap below
        # the base's own nodes included; a cap below the count is spent at
        # cap + 1, base, expansion steps and whole search counted together
        for f, base, status, nodes in (
            # built from (2, 2, 2)
            (Fraction(10000, 101), (2, 2, 2), "found", 109),
            # the base does not expand, so the chain is searched whole on the
            # same node count: found, and absent with an absent base
            (Fraction(529, 6), (85, 2), "found", 109),
            (Fraction(144, 35), (3,) + (2,) * 7 + (3,), "absent", 431),
        ):
            terms = cf_expand(f)
            base = plain_problem([base])
            stored = find_embedding(base, cache=fresh_cache())
            assert stored.nodes > 1 and fresh_answer(terms)[:2] == (status, nodes), f
            for max_nodes in range(nodes + 2):
                budget = SearchBudget(max_nodes=max_nodes, max_seconds=10)
                cache = fresh_cache()
                cache.put(base, stored)
                got = find_embedding(plain_problem([terms]), budget, cache)
                want = find_embedding(plain_problem([terms]), budget, fresh_cache())
                assert (got.status, got.nodes) == (want.status, want.nodes), (f, max_nodes)
                assert got.certificate == want.certificate, (f, max_nodes)
                if max_nodes < nodes:
                    assert (got.status, got.nodes) == ("inconclusive", max_nodes + 1), (f, max_nodes)
                else:
                    assert (got.status, got.nodes) == (status, nodes), (f, max_nodes)

    def test_spent_clock_answers_before_the_base_is_asked(self, monkeypatch):
        # (3, 2, 2, 2) builds from (2, 2, 2): on a clock already spent the
        # chain is inconclusive at 0 nodes, with its base cached or not, and
        # the base is neither looked up nor searched
        chain, base = plain_problem([(3, 2, 2, 2)]), plain_problem([(2, 2, 2)])
        stored = find_embedding(base, cache=fresh_cache())
        warm = CountingCache()
        warm.put(base, stored)
        searched = record_searches(monkeypatch)
        for cache in (CountingCache(), warm):
            cache.asked.clear()
            budget = SearchBudget(max_seconds=0.001).started()
            time.sleep(0.01)
            outcome = find_embedding(chain, budget, cache)
            assert (outcome.status, outcome.nodes, outcome.certificate) == ("inconclusive", 0, None)
            assert cache.asked == [chain.key, chain.key]
        assert searched == []


def record_searches(monkeypatch):
    """The keys of the problems _run_problem searches from here on."""
    searched = []
    run_problem = search._run_problem

    def counted(problem, meter):
        searched.append(problem.key)
        return run_problem(problem, meter)

    monkeypatch.setattr(search, "_run_problem", counted)
    return searched


def fresh_answer(terms, cache=None):
    """(status, nodes, certificate groups) of the chain, with a fresh cache
    unless one is given."""
    outcome = find_embedding(plain_problem([terms]), cache=cache if cache is not None else fresh_cache())
    return outcome.status, outcome.nodes, outcome.certificate and outcome.certificate.groups


class TestRibbonSearch:
    def test_family_example(self):
        outcome = find_ribbon_embedding((2,), (2, 3, 2), cache=fresh_cache())
        assert outcome.found
        assert verify_certificate(ribbon_problem((2,), (2, 3, 2)), outcome.certificate)

    def test_degenerate_split(self):
        outcome = find_ribbon_embedding((), (2, 2, 2), cache=fresh_cache())
        assert outcome.found
        assert outcome.certificate.groups[0] == ()

    def test_small_absent(self):
        outcome = find_ribbon_embedding((2,), (3,), cache=fresh_cache())
        assert outcome.status == "absent"

    def test_complement_really_is_the_whole_complement(self):
        outcome = find_ribbon_embedding((2,), (2, 3, 2), cache=fresh_cache())
        group1, group2 = outcome.certificate.groups
        for v in group1:
            for w in group2:
                assert sum(x * dict(w).get(k, 0) for k, x in v) == 0

    def test_leaf_gate_is_the_determinant_test(self, monkeypatch):
        # every placement of lambda2 that reaches a ribbon leaf, over the
        # ordered lens pairs with p <= 12 in both orientations: the leaf's
        # gate, the verifier's saturation_index(vecs, N) == problem.index,
        # holds exactly where the kernel's Gram determinant is lambda1's
        # continuant, and only a placement that passes it reaches the kernel
        from ribbonlens.lattice import integer_kernel, saturation_index
        from ribbonlens.selfcheck import all_lens_spaces

        calls = []

        def recorded(name):
            original = getattr(search, name)

            def record(rows, width):
                calls.append((name, tuple(map(tuple, rows))))
                return original(rows, width)

            monkeypatch.setattr(search, name, record)

        recorded("saturation_index")
        recorded("integer_kernel")
        spaces = all_lens_spaces(12)
        problems = dict.fromkeys(
            ribbon_problem(a.reverse().cf(), b.cf())
            for l1 in spaces
            for l2 in spaces
            for a, b in ((l1, l2), (l1.reverse(), l2.reverse()))
        )
        leaves = passed = 0
        for problem in problems:
            calls.clear()
            outcome = find_embedding(problem, cache=fresh_cache())
            if outcome.found:
                # the verifier's one call, on the certificate's second group
                assert calls.pop()[0] == "saturation_index"
            N = problem.ambient_rank
            gated = [vecs for name, vecs in calls if name == "saturation_index"]
            kernels = [vecs for name, vecs in calls if name == "integer_kernel"]
            passing = []
            for vecs in gated:
                gate = saturation_index(vecs, N) == problem.index
                kernel = integer_kernel(vecs, N)
                reference = fraction_det(gram_of_rows(kernel)) == continuant(problem.summands[0])
                assert gate == reference, (problem.key, vecs)
                if gate:
                    passing.append(vecs)
            assert kernels == passing, problem.key
            leaves += len(gated)
            passed += len(passing)
        assert (len(problems), leaves, passed) == (2116, 385, 329)


def has_square_ratio(p1: int, p2: int) -> bool:
    return p2 % p1 == 0 and isqrt(p2 // p1) ** 2 == p2 // p1


def prefilter_problems():
    """The ribbon problems of every ordered lens pair with p <= 12 in both
    orientations, and plain problems of one or two chains of p/q, p <= 16,
    split by whether the orders break the square-index rule (p2 = n^2 * p1,
    with p1 = 1 in plain mode): (refuted, searched), each without repeats."""
    from ribbonlens.selfcheck import all_lens_spaces

    refuted, searched = [], []
    spaces = all_lens_spaces(12)
    for l1 in spaces:
        for l2 in spaces:
            for a, b in ((l1, l2), (l1.reverse(), l2.reverse())):
                problem = ribbon_problem(a.reverse().cf(), b.cf())
                (searched if has_square_ratio(a.p, b.p) else refuted).append(problem)
    fractions = [Fraction(p, q) for p in range(2, 17) for q in range(1, p) if gcd(p, q) == 1]
    for summands in [(f,) for f in fractions] + list(itertools.combinations(fractions[:24], 2)):
        problem = plain_problem(tuple(cf_expand(f) for f in summands))
        order = 1
        for f in summands:
            order *= f.numerator
        (searched if has_square_ratio(1, order) else refuted).append(problem)
    return list(dict.fromkeys(refuted)), list(dict.fromkeys(searched))


class CountingCache(EmbeddingCache):
    """Records the key of every get and put."""

    def __init__(self) -> None:
        super().__init__()
        self.asked: list[str] = []

    def get(self, problem):
        self.asked.append(problem.key)
        return super().get(problem)

    def put(self, problem, outcome):
        self.asked.append(problem.key)
        super().put(problem, outcome)


class TestSquareIndexPrefilter:
    """find_embedding answers a problem that breaks the square-index rule
    before the cache and the clock."""

    def test_refuted_problems_touch_neither_cache_nor_clock(self, monkeypatch):
        refuted, searched = prefilter_problems()
        assert len(refuted) > len(searched) > 200
        cache = CountingCache()

        def no_clock(*args):
            raise AssertionError("clock started for a refuted problem")

        with monkeypatch.context() as patched:
            patched.setattr(SearchBudget, "started", no_clock)
            patched.setattr(SearchBudget, "from_env", no_clock)
            for problem in refuted:
                outcome = find_embedding(problem, cache=cache)
                assert (outcome.status, outcome.certificate, outcome.nodes) == ("absent", None, 0)
        assert cache.asked == [] and len(cache) == 0
        # a searched problem is looked up and stored once each
        for problem in searched[:200]:
            find_embedding(problem, cache=cache)
        assert cache.asked == [key for problem in searched[:200] for key in (problem.key,) * 2]

    def test_the_search_alone_proves_them_absent(self):
        # _run_problem has no prefilter: its exhausted search must agree
        refuted, _ = prefilter_problems()
        budget = SearchBudget().started()
        for problem in refuted:
            assert search._run_problem(problem, search._Meter(budget)).status == "absent", problem.key

    def test_file_entry_under_a_refuted_key_survives_the_next_save(self, tmp_path):
        # no query asks the cache for a refuted problem, so the entry is
        # neither verified nor dropped, and the save writes it back as read
        refuted = [plain_problem([(2, 2)]), ribbon_problem((3,), (2, 2, 2))]
        entries = {
            problem.key: {"groups": [[[["0", "1"]]] * len(t) for t in problem.summands], "nodes": "7"}
            for problem in refuted
        }
        path = tmp_path / "cache.json"
        doc = {"schema": search.CACHE_SCHEMA, "engine": ENGINE_VERSION, "certificates": entries}
        path.write_text(json.dumps(doc))
        cache = fresh_cache()
        assert cache.load(path) == 2
        for problem in refuted:
            assert find_embedding(problem, cache=cache).status == "absent"
        assert not cache.changed
        found = find_embedding(plain_problem([(2, 2, 2)]), cache=cache)
        assert cache.changed
        cache.save(path)
        doc["certificates"]["plain|2,2,2"] = found.certificate.to_json()
        assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"


def naive_ribbon_exists(lambda1, lambda2):
    """Independent constrained-mode oracle.

    Enumerates raw full-rank embeddings of both chains and accepts when the
    first block is a primitive sublattice: a primitive orthogonal partner of
    full corank is automatically the whole orthogonal complement.
    """
    from ribbonlens.lattice import primitivity_test_saturation

    ambient = len(lambda1) + len(lambda2)
    flat = [(0, ti, a) for ti, a in enumerate(lambda1)]
    flat += [(1, ti, a) for ti, a in enumerate(lambda2)]

    def vectors_of_norm(a):
        def rec(pos, left):
            if pos == ambient:
                if left == 0:
                    yield ()
                return
            m = isqrt(left)
            for c in range(-m, m + 1):
                for rest in rec(pos + 1, left - c * c):
                    yield (c,) + rest

        return rec(0, a)

    def assign(i, chosen):
        if i == len(flat):
            block1 = tuple(chosen[: len(lambda1)])
            if not block1:
                return True
            return primitivity_test_saturation(block1, ambient)
        bi, ti, a = flat[i]
        for v in vectors_of_norm(a):
            good = True
            for j, w in enumerate(chosen):
                bj, tj, _ = flat[j]
                want = 1 if (bj == bi and tj == ti - 1) else 0
                if sum(x * y for x, y in zip(v, w)) != want:
                    good = False
                    break
            if good and assign(i + 1, chosen + [v]):
                return True
        return False

    return assign(0, [])


class TestRibbonAgainstNaiveOracle:
    def test_small_cases(self):
        cases = [
            ((2,), (2, 3, 2)),
            ((2,), (3,)),
            ((3,), (3,)),
            ((2,), (2,)),
            ((4,), (4,)),
            ((), (2, 2, 2)),
            ((), (4,)),
            ((2, 2), (2, 2)),
            ((3,), (2, 2, 2)),
            ((2, 2), (4, 2)),
        ]
        for lambda1, lambda2 in cases:
            if len(lambda1) + len(lambda2) > 5:
                continue
            engine = find_ribbon_embedding(lambda1, lambda2, cache=fresh_cache()).found
            assert engine == naive_ribbon_exists(lambda1, lambda2), (lambda1, lambda2)


class TestNecessityChain:
    def test_classifier_yes_implies_embedding_up_to_twenty(self):
        # the constrained embedding is a necessary condition, so the
        # classifier's yes-set must land inside the search engine's yes-set
        from ribbonlens.classify import ribbon_leq_lens
        from ribbonlens.selfcheck import all_lens_spaces

        cache = fresh_cache()
        spaces = all_lens_spaces(20)
        yes_pairs = 0
        for l1 in spaces:
            lam1 = l1.reverse().cf()
            for l2 in spaces:
                verdict = ribbon_leq_lens(l1, l2, cache=cache)
                if not verdict.yes:
                    continue
                yes_pairs += 1
                outcome = find_ribbon_embedding(lam1, l2.cf(), cache=cache)
                assert outcome.found, (str(l1), str(l2))
        assert yes_pairs > 120  # diagonal alone contributes one per space

    def test_two_sided_condition_is_the_classifier_up_to_sixteen(self):
        # a reversed ribbon cobordism is ribbon, so the lattice condition holds
        # for (L1, L2) and for (-L1, -L2); on lens pairs with p <= 16 the two
        # together say yes exactly where the classifier does, while the first
        # alone lets 66 more pairs through; the d-invariant pair test, a third
        # route, agrees with both searches on every pair
        from ribbonlens.classify import ribbon_leq_lens
        from ribbonlens.selfcheck import all_lens_spaces

        cache = fresh_cache()
        spaces = all_lens_spaces(16)
        yes_pairs = one_sided = 0
        for l1 in spaces:
            for l2 in spaces:
                verdict = ribbon_leq_lens(l1, l2, cache=cache)
                forward, backward = two_sided_embeddings(l1, l2, cache=cache)
                assert "inconclusive" not in (verdict.answer, forward.status, backward.status)
                assert verdict.yes == (forward.found and backward.found), (str(l1), str(l2))
                d_passes = square_ratio_check([l1], [l2]) and not d_obstruction(l1.p, l1.q, l2.p, l2.q, lambda: False)
                assert d_passes == (forward.found and backward.found), (str(l1), str(l2))
                yes_pairs += verdict.yes
                one_sided += forward.found and not verdict.yes
        assert (yes_pairs, one_sided) == (140, 66)


def dense_verify(problem, cert):
    """Reference for verify_certificate: the engine version 3 checker, which
    takes the dot product of every pair of vectors, each written out to its N
    entries."""
    from ribbonlens.lattice import dot, integer_kernel

    groups = cert.groups
    if len(groups) != len(problem.summands):
        return False
    N = problem.ambient_rank
    flat = []
    for terms, group in zip(problem.summands, groups):
        if len(group) != len(terms):
            return False
        for ti, (a, v) in enumerate(zip(terms, group)):
            # a vector in the one sparse form survives writing out and back
            if not all(0 <= k < N for k, _ in v) or sparse(dense(v, N)) != v:
                return False
            flat.append((dense(v, N), ti > 0, a))
    for idx, (v, pairs, a) in enumerate(flat):
        if dot(v, v) != a:
            return False
        for jdx, (w, _, _) in enumerate(flat[:idx]):
            if dot(v, w) != (1 if pairs and jdx == idx - 1 else 0):
                return False
    if problem.ribbon_split is None:
        return len(flat) == N
    group1, group2 = groups
    kernel = integer_kernel([dense(v, N) for v in group2], N)
    return len(group1) == len(kernel) and fraction_det(gram_of_rows(kernel)) == search.continuant(problem.summands[0])


def mutations(cert, N, rng):
    """Certificates one entry away from cert, three of each kind: an entry
    moved by one, a nonzero entry negated, a vector an entry short or long,
    each made on the vector written out to its N entries."""
    spots = [(g, i) for g, group in enumerate(cert.groups) for i in range(len(group))]
    for kind in ("step", "negate", "length") * 3 if spots else ():
        g, i = rng.choice(spots)
        v = list(dense(cert.groups[g][i], N))
        k = rng.randrange(len(v))
        if kind == "step":
            v[k] += rng.choice((-1, 1))
        elif kind == "negate":
            k = rng.choice([k for k, x in enumerate(v) if x])
            v[k] = -v[k]
        elif rng.random() < 0.5:
            del v[k]
        else:
            v.insert(k, rng.choice((-1, 0, 1)))
        groups = [list(group) for group in cert.groups]
        groups[g][i] = sparse(v)
        yield Certificate(tuple(map(tuple, groups)), cert.nodes)


class TestVerifier:
    def test_sparse_checker_agrees_with_dense_reference(self):
        # every certificate of the oracle workload and of the ribbon pairs
        # with p <= 8, and nine single-entry mutations of each
        from ribbonlens.selfcheck import all_lens_spaces

        rng = random.Random(23)
        cases = []
        for f in ORACLE_FRACTIONS:
            for g, outcome in r_membership(f, cache=fresh_cache()).searches:
                if outcome.found:
                    cases.append((plain_problem((cf_expand(Fraction(g)),)), outcome.certificate))
        assert len(cases) == 96
        spaces = all_lens_spaces(8)
        for l1, l2 in itertools.product(spaces, spaces):
            problem = ribbon_problem(l1.reverse().cf(), l2.cf())
            outcome = find_embedding(problem, cache=fresh_cache())
            if outcome.found:
                cases.append((problem, outcome.certificate))
        verdicts = {True: 0, False: 0}
        for problem, cert in cases:
            assert verify_certificate(problem, cert) and dense_verify(problem, cert)
            for bad in mutations(cert, problem.ambient_rank, rng):
                verdict = verify_certificate(problem, bad)
                assert verdict == dense_verify(problem, bad), (problem.key, bad.groups)
                verdicts[verdict] += 1
        # a negated entry that no other vector shares keeps a certificate valid
        assert verdicts[True] > 0 and verdicts[False] > 9 * len(cases) // 2

    def test_complement_condition_alone_rejects(self):
        # group 2 spans D3 inside Z^3 + 0, of index 2 in its saturation, so
        # its complement is 0 + Z, of determinant 1, not 4; every norm and
        # pairing is right, and only the complement condition decides
        problem = ribbon_problem((4,), (2, 2, 2))
        group2 = tuple(map(sparse, ((1, -1, 0, 0), (0, -1, -1, 0), (-1, -1, 0, 0))))
        bad = Certificate(((((3, 2),),), group2), 0)
        assert not verify_certificate(problem, bad)
        assert not dense_verify(problem, bad)
        cert = find_embedding(problem, cache=fresh_cache()).certificate
        assert verify_certificate(problem, cert) and dense_verify(problem, cert)

    def test_sparse_checker_is_fast_on_a_long_certificate(self):
        # dense_verify takes about half a second on these 301 vectors
        problem = plain_problem((cf_expand(Fraction(90000, 301)),))
        cert = find_embedding(problem, cache=fresh_cache()).certificate
        start = time.process_time()
        assert verify_certificate(problem, cert)
        assert time.process_time() - start < 0.05

    def test_sign_flip_is_caught(self):
        problem = plain_problem([(2, 2, 2)])
        cert = find_embedding(problem, cache=fresh_cache()).certificate
        (k, x), *rest = cert.groups[0][0]
        flipped = ((k, -x), *rest)
        bad = Certificate(((flipped, *cert.groups[0][1:]),), cert.nodes)
        assert not verify_certificate(problem, bad)

    def test_dependent_vectors_are_caught(self):
        problem = plain_problem([(2,), (2,)])
        duplicated = Certificate(((((0, 1), (1, 1)),), (((0, 1), (1, 1)),)), 0)
        assert not verify_certificate(problem, duplicated)

    def test_wrong_shape_is_caught(self):
        problem = plain_problem([(2, 2)])
        assert not verify_certificate(problem, Certificate(((((0, 1), (1, 1)),),), 0))

    def test_vectors_not_in_the_sparse_form_are_caught(self):
        # each defect turns the valid 2,2,2 certificate into an invalid one:
        # a coordinate outside [0, 3) on either side, coordinates out of
        # order, or a zero value
        problem = plain_problem([(2, 2, 2)])
        cert = find_embedding(problem, cache=fresh_cache()).certificate
        (k, x), (l, y) = cert.groups[0][0]
        for first in (((k, x), (3, y)), ((-1, x), (l, y)), ((l, y), (k, x)), ((k, x), (l, y), (2, 0))):
            bad = Certificate(((first, *cert.groups[0][1:]),), cert.nodes)
            assert not verify_certificate(problem, bad) and not dense_verify(problem, bad), first
        # a repeated coordinate would be summed into the Gram table as a
        # norm of 3, which no vector of Z^1 has
        repeated = Certificate(((((0, 1), (0, 1)),),), 0)
        assert not verify_certificate(plain_problem([(3,)]), repeated)
        assert not dense_verify(plain_problem([(3,)]), repeated)


def doubled_first_value(group):
    """The group with the first value of its first vector doubled."""
    (k, x), *rest = group[0]
    return (((k, 2 * x), *rest), *group[1:])


class TestOneVerificationSite:
    """find_embedding verifies every found outcome it did not take from the
    cache, built or searched, before it stores it."""

    def bad_expansions(self, monkeypatch):
        expand = search._expand

        def corrupted(base, steps, tick):
            group = expand(base, steps, tick)
            return group and doubled_first_value(group)

        monkeypatch.setattr(search, "_expand", corrupted)
        return (3, 2, 2, 2)  # built from (2, 2, 2): the chain's certificate is bad

    def bad_searches(self, monkeypatch):
        run_problem = search._run_problem

        def corrupted(problem, meter):
            outcome = run_problem(problem, meter)
            if not outcome.found:
                return outcome
            group, *rest = outcome.certificate.groups
            cert = Certificate((doubled_first_value(group), *rest), outcome.certificate.nodes)
            return SearchOutcome("found", cert, outcome.nodes)

        monkeypatch.setattr(search, "_run_problem", corrupted)
        return (2, 2, 2)  # the base of (3, 2, 2, 2), searched first

    @pytest.mark.parametrize("corrupt", ["bad_expansions", "bad_searches"])
    def test_an_unverifiable_certificate_is_an_internal_error(self, corrupt, monkeypatch, tmp_path):
        bad = plain_problem([getattr(self, corrupt)(monkeypatch)])
        problem = plain_problem([(3, 2, 2, 2)])
        cache = fresh_cache()
        with pytest.raises(RuntimeError, match=f"unverifiable certificate for {re.escape(bad.key)}$"):
            find_embedding(problem, cache=cache)
        assert cache.get(problem) is None and cache.get(bad) is None
        # the CLI reports it as exit 70 and one line, and saves no cache
        path = tmp_path / "cache.json"
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(["--cache", str(path), "embed", "--summands", "3,2,2,2"], stdout=out, stderr=err)
        assert code == cli.EXIT_SOFTWARE == 70
        assert not out.getvalue() and err.getvalue().startswith("internal error:")
        assert err.getvalue().count("\n") == 1 and bad.key in err.getvalue()
        assert not path.exists()


class TestRMembership:
    def test_trivial_fraction(self):
        assert r_membership(1, cache=fresh_cache()).outcome == "member"

    def test_non_square_order(self):
        result = r_membership(Fraction(2, 1), cache=fresh_cache())
        assert result.outcome == "non-member"
        assert result.searches == ()

    def test_four_thirds(self):
        result = r_membership(Fraction(4, 3), cache=fresh_cache())
        assert result.outcome == "member"
        assert len(result.searches) == 2

    def test_nine_over_one_fails_on_the_long_chain(self):
        result = r_membership(Fraction(9, 1), cache=fresh_cache())
        assert result.outcome == "non-member"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            r_membership(Fraction(3, 4), cache=fresh_cache())


class TestDInvariantTest:
    def test_passes_exactly_when_both_orientations_embed(self):
        # the searches run directly, not through r_membership, so the
        # engine and the d-invariant test check each other
        cache = fresh_cache()
        fractions = members = 0
        for m in range(2, 14):
            p = m * m
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                problems = [plain_problem((cf_expand(g),)) for g in (Fraction(p, q), Fraction(p, p - q))]
                embeds = all(find_embedding(problem, cache=cache).found for problem in problems)
                assert (d_obstruction(1, 0, p, q, lambda: False) is False) == embeds, (p, q)
                fractions += 1
                members += embeds
        assert (fractions, members) == (530, 174)

    def test_obstruction_is_a_non_member_without_search(self, monkeypatch):
        monkeypatch.setattr(search, "find_embedding", None)
        result = r_membership(Fraction(9, 8), cache=fresh_cache())
        assert (result.outcome, result.reason, result.searches) == (
            "non-member",
            "d-invariant obstruction",
            (),
        )

    def test_members_are_still_searched(self):
        result = r_membership(Fraction(9, 2), cache=fresh_cache())
        assert result.outcome == "member"
        assert [outcome.status for _, outcome in result.searches] == ["found", "found"]

    def test_clock_bounds_the_coset_loop(self):
        # m**2/(mk+1) with m = 10**9 bounds a ball, so one coset of 10**9
        # labels passes; the loop and the two searches share one clock and
        # stop at it, and the answer is never "non-member" on a spent budget
        m = 10**9
        start = time.monotonic()
        result = r_membership(Fraction(m * m, 123456789 * m + 1), SearchBudget(max_seconds=1), cache=fresh_cache())
        assert time.monotonic() - start < 1 + 1
        assert result.outcome in ("inconclusive", "member")


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = fresh_cache()
        problem = plain_problem([(2, 2, 2)])
        outcome = find_embedding(problem, cache=cache)
        absent = find_embedding(plain_problem([(2, 2)]), cache=cache)
        assert absent.status == "absent"
        path = tmp_path / "cache.json"
        cache.save(path)

        # only the certificate is written; the absent outcome stays in memory
        reloaded = fresh_cache()
        assert reloaded.load(path) == 1
        hit = reloaded.get(problem)
        assert hit is not None and hit.certificate == outcome.certificate
        assert hit.nodes == outcome.nodes
        assert reloaded.get(plain_problem([(2, 2)])) is None

    def test_inconclusive_is_never_cached(self):
        cache = fresh_cache()
        find_embedding(
            plain_problem([(2, 2, 2)]),
            budget=SearchBudget(max_nodes=3, max_seconds=60),
            cache=cache,
        )
        assert len(cache) == 0

    def test_corrupt_certificates_are_dropped(self, tmp_path, monkeypatch):
        # a loaded certificate is verified on its first use: the corrupt one is
        # never returned, its problem is searched again, and the next save
        # holds the new certificate in its place
        cache = fresh_cache()
        problem = plain_problem([(2, 2, 2)])
        found = find_embedding(problem, cache=cache).certificate
        path = tmp_path / "cache.json"
        cache.save(path)
        doc = json.loads(path.read_text())
        doc["certificates"][problem.key]["groups"][0][0][0][1] = "5"
        corrupt = doc["certificates"][problem.key]
        path.write_text(json.dumps(doc))
        reloaded = fresh_cache()
        reloaded.load(path)
        assert not reloaded.changed
        assert reloaded.get(problem) is None
        assert reloaded.changed and reloaded.get(problem) is None

        searched = []
        run_problem = search._run_problem

        def counted(*args):
            searched.append(args)
            return run_problem(*args)

        monkeypatch.setattr(search, "_run_problem", counted)
        outcome = find_embedding(problem, cache=reloaded)
        assert len(searched) == 1
        assert outcome.found and verify_certificate(problem, outcome.certificate)
        assert outcome.certificate == found

        reloaded.save(path)
        saved = json.loads(path.read_text())["certificates"]
        assert saved == {problem.key: found.to_json()} and saved[problem.key] != corrupt

    def test_save_keeps_unused_entries_as_loaded(self, tmp_path):
        # an entry no one asked for is written back unverified and unchanged,
        # even one that would fail verification on first use
        cache = fresh_cache()
        used, unused = plain_problem([(2, 2, 2)]), plain_problem([(4,)])
        for problem in (used, unused):
            find_embedding(problem, cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        doc = json.loads(path.read_text())
        doc["certificates"][unused.key]["groups"] = [[[["0", "3"]]]]
        path.write_text(json.dumps(doc))

        reloaded = fresh_cache()
        assert reloaded.load(path) == len(reloaded) == 2
        assert reloaded.get(used).found
        find_embedding(plain_problem([(5,)]), cache=reloaded)  # absent: not written
        find_embedding(plain_problem([(2, 5)]), cache=reloaded)
        assert reloaded.changed
        reloaded.save(path)
        saved = json.loads(path.read_text())["certificates"]
        assert sorted(saved) == sorted([used.key, unused.key, "plain|2,5"])
        assert saved[unused.key] == doc["certificates"][unused.key]

    def test_load_leaves_the_cache_unchanged_only_if_it_holds_the_file(self, tmp_path):
        cache = fresh_cache()
        problem = plain_problem([(2, 2, 2)])
        find_embedding(problem, cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        fresh = fresh_cache()
        assert fresh.load(path) == 1 and not fresh.changed
        # a cache with entries of its own holds more than the file
        other = fresh_cache()
        find_embedding(plain_problem([(4,)]), cache=other)
        other.load(path)
        assert other.changed
        # an entry whose key names no problem is counted, never returned, and
        # written back as read, so it does not change the cache
        doc = json.loads(path.read_text())
        doc["certificates"]["banana|2,2,2"] = doc["certificates"][problem.key]
        path.write_text(json.dumps(doc))
        reloaded = fresh_cache()
        assert reloaded.load(path) == len(reloaded) == 2 and not reloaded.changed
        assert reloaded.get(problem).found and not reloaded.changed
        reloaded.save(path)
        assert json.loads(path.read_text())["certificates"] == doc["certificates"]

    def test_stale_engine_version_is_ignored(self, tmp_path):
        cache = fresh_cache()
        find_embedding(plain_problem([(2, 2, 2)]), cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        doc = json.loads(path.read_text())
        doc["engine"] = "0-stale"
        path.write_text(json.dumps(doc))
        assert fresh_cache().load(path) == 0

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        cache = fresh_cache()
        find_embedding(plain_problem([(2, 2, 2)]), cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        before = path.read_bytes()
        find_embedding(plain_problem([(2, 2)]), cache=cache)

        def fail(doc, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dumps", fail)
        with pytest.raises(OSError):
            cache.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert fresh_cache().load(path) == 1
        assert list(tmp_path.iterdir()) == [path]
