import hashlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt

import pytest

from ribbonlens import search
from ribbonlens.arith import cf_expand
from ribbonlens.search import (
    ENGINE_VERSION,
    Certificate,
    EmbeddingCache,
    SearchBudget,
    SearchProblem,
    find_embedding,
    find_ribbon_embedding,
    plain_problem,
    r_membership,
    ribbon_problem,
    verify_certificate,
)


def fresh_cache():
    return EmbeddingCache()


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
        assert outcome.certificate.groups == (((2,),),)

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
# reversed string when a ribbon leaf's chain had no basis
ENGINE_FINGERPRINTS = {
    "1": "f395473241b65e366d7bdd7642e6a6225fc98c6d5502df3c0c1c6380cd77a937",
    "2": "d7555422bc235f5ecf312b5cd0805caada9482dde4527dab9d6250f78e10fc08",
}


def engine_fingerprint() -> str:
    """(key, status, groups, nodes) of a fixed problem set, with and without a
    tight node budget: plain chains of p/q for square p <= 64 and ribbon pairs
    with p <= 12, where the ribbon leaf meets strings with no chain basis."""
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
            groups = outcome.certificate.groups if outcome.found else None
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
        assert outcome.status == "inconclusive"

    def test_node_budget_caps_candidates_of_one_vector(self, monkeypatch):
        # (a, 2 x a) has determinant a^2; its first vector alone has
        # thousands of candidates for a = 100
        drawn = []
        partitions = search._square_partitions

        def counting(*args):
            for part in partitions(*args):
                drawn.append(part)
                yield part

        monkeypatch.setattr(search, "_square_partitions", counting)
        outcome = find_embedding(
            plain_problem([(100,) + (2,) * 100]), SearchBudget(max_nodes=10), cache=fresh_cache()
        )
        assert outcome.status == "inconclusive"
        assert outcome.nodes == 11
        assert len(drawn) <= 10


def full_scan_candidates(engine, vecs, tails, u, starts):
    """Reference for _Engine._candidates: the same odometer with a full scan,
    which re-checks every assigned vector at every node and rebuilds every
    partial pairing on every step."""
    i = len(vecs)
    pairs, norm = engine.flat[i]
    req = [0] * i
    if pairs:
        req[-1] = 1
    fresh = engine.N - u
    x = [0] * u
    lo = [0] * u
    lefts = [norm] * (u + 1)
    parts = [(0,) * i] * (u + 1)
    out = []
    k = 0
    while True:
        engine._tick()
        left, part = lefts[k], parts[k]
        if all((r - p) ** 2 <= left * t[k] for r, p, t in zip(req, part, tails)):
            if k == u:
                for fill in search._square_partitions(left, fresh, engine.deadline):
                    out.append(tuple(x) + fill + (0,) * (fresh - len(fill)))
                    if engine.nodes + len(out) > engine.budget.max_nodes:
                        engine.nodes = engine.budget.max_nodes + 1
                        raise search.BudgetExceededError
            else:
                cmax = isqrt(left)
                x[k] = (cmax if starts[k] else min(cmax, x[k - 1])) + 1
                lo[k] = -cmax
                k += 1
        k -= 1
        while k >= 0 and x[k] <= lo[k]:
            k -= 1
        if k < 0:
            return out
        x[k] -= 1
        val = x[k]
        lefts[k + 1] = lefts[k] - val * val
        parts[k + 1] = tuple(p + val * v[k] for p, v in zip(parts[k], vecs))
        k += 1


def checked_against_full_scan(monkeypatch):
    """Make every _candidates frame also run the reference on the same engine
    state and require the same candidates and the same node count; returns
    the list of checked frame sizes."""
    incremental = search._Engine._candidates
    handed_out: list = []  # the candidate each open frame handed out last
    frames: list = []

    def outcome(candidates, engine, *args):
        try:
            return candidates(engine, *args)
        except search.BudgetExceededError:
            return None

    def checked(self, tails, support, u, starts):
        # the reference sees only the vectors this wrapper handed out
        i = len(tails)
        vecs = handed_out[:i]
        ref_tails = [[*accumulate(c * c for c in reversed(v))][::-1] + [0] for v in vecs]
        start = self.nodes
        want = outcome(full_scan_candidates, self, vecs, ref_tails, u, starts)
        want_nodes, self.nodes = self.nodes, start
        got = outcome(incremental, self, tails, support, u, starts)
        assert (got, self.nodes) == (want, want_nodes)
        if got is None:
            raise search.BudgetExceededError
        frames.append(len(got))

        def hand_out():
            for vec in got:
                handed_out[i:] = [vec]
                yield vec

        return hand_out()

    monkeypatch.setattr(search._Engine, "_candidates", checked)
    return frames


class TestIncrementalPruning:
    BUDGETS = (SearchBudget(max_seconds=600), SearchBudget(max_nodes=50, max_seconds=600))

    def test_oracle_searches_match_full_scan(self, monkeypatch):
        frames = checked_against_full_scan(monkeypatch)
        orders = (49, 64, 81, 100, 121)
        fractions = [Fraction(p, q) for p in orders for q in range(1, (p + 1) // 2) if gcd(p, q) == 1]
        assert len(fractions) == 139
        for budget in self.BUDGETS:
            nodes = 0
            for f in fractions:
                result = r_membership(f, budget, cache=fresh_cache())
                nodes += sum(outcome.nodes for _, outcome in result.searches)
            if budget.max_nodes == SearchBudget.max_nodes:
                assert nodes == 199_636
        assert len(frames) > 3_000

    def test_seeded_plain_problems_match_full_scan(self, monkeypatch):
        frames = checked_against_full_scan(monkeypatch)
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


def square_partitions_by_walk(total, max_len):
    """Reference for _square_partitions: the odometer that also walks the
    last part down one value at a time."""
    parts = []
    left, c = total, isqrt(total)
    while True:
        if left == 0:
            yield tuple(parts)
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


class TestSquarePartitions:
    def test_matches_the_walk(self):
        for total in range(300):
            for max_len in range(5):
                got = list(search._square_partitions(total, max_len, time.monotonic() + 60))
                assert got == list(square_partitions_by_walk(total, max_len)), (total, max_len)

    def test_forced_last_part_is_taken_at_once(self):
        # walking the last part down takes about 0.18 * 333334**1.5 steps
        got = list(search._square_partitions(333334, 3, time.monotonic() + 2))
        assert len(got) == 77
        assert all(sum(c * c for c in parts) == 333334 for parts in got)
        assert got == sorted(got, reverse=True)


class TestTimeBudget:
    BUDGET = SearchBudget(max_nodes=10**6, max_seconds=0.5)

    def test_deadline_holds_while_fresh_coordinates_fill(self):
        # the first vector's fill steps O(norm) times between a few partitions,
        # even with its last part forced
        problem = plain_problem([(3333333334, 2, 2)])
        outcome = find_embedding(problem, self.BUDGET, cache=fresh_cache())
        assert (outcome.status, outcome.nodes) == ("inconclusive", 1)
        assert outcome.seconds < 2.5

    def test_deadline_holds_on_a_long_chain(self):
        # a node of this 333,333-term chain costs O(N)
        problem = plain_problem([cf_expand(Fraction(10**6, 10**6 - 3))])
        outcome = find_embedding(problem, self.BUDGET, cache=fresh_cache())
        assert outcome.status == "inconclusive"
        assert outcome.seconds < 2.5

    def test_chain_longer_than_node_budget_is_not_expanded(self, monkeypatch):
        expanded = []
        expand = search.cf_expand
        monkeypatch.setattr(search, "cf_expand", lambda f: expanded.append(f) or expand(f))
        result = r_membership(Fraction(10**10, 3), self.BUDGET, cache=fresh_cache())
        assert result.outcome == "inconclusive"
        assert [outcome.nodes for _, outcome in result.searches] == [1, 10**6 + 1]
        assert expanded == [Fraction(10**10, 3)]


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
                assert sum(a * b for a, b in zip(v, w)) == 0


def naive_ribbon_exists(lambda1, lambda2):
    """Independent constrained-mode oracle.

    Enumerates raw full-rank embeddings of both chains and accepts when the
    first block is a primitive sublattice: a primitive orthogonal partner of
    full corank is automatically the whole orthogonal complement.
    """
    from ribbonlens.lattice import EmbeddedLattice, primitivity_test_saturation

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
            return primitivity_test_saturation(EmbeddedLattice(ambient, block1))
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


class TestVerifier:
    def test_sign_flip_is_caught(self):
        problem = plain_problem([(2, 2, 2)])
        cert = find_embedding(problem, cache=fresh_cache()).certificate
        tampered = [[list(v) for v in group] for group in cert.groups]
        tampered[0][0][0] *= -1
        bad = Certificate(
            tuple(tuple(tuple(v) for v in group) for group in tampered), cert.nodes
        )
        assert not verify_certificate(problem, bad)

    def test_dependent_vectors_are_caught(self):
        problem = plain_problem([(2,), (2,)])
        duplicated = Certificate((((1, 1),), ((1, 1),)), 0)
        assert not verify_certificate(problem, duplicated)

    def test_wrong_shape_is_caught(self):
        problem = plain_problem([(2, 2)])
        assert not verify_certificate(problem, Certificate((((1, 1),),), 0))


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


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = fresh_cache()
        problem = plain_problem([(2, 2, 2)])
        outcome = find_embedding(problem, cache=cache)
        absent = find_embedding(plain_problem([(2, 2)]), cache=cache)
        assert absent.status == "absent"
        path = tmp_path / "cache.json"
        cache.save(path)

        reloaded = fresh_cache()
        assert reloaded.load(path) == len(cache)
        hit = reloaded.get(problem)
        assert hit is not None and hit.certificate == outcome.certificate

    def test_inconclusive_is_never_cached(self):
        cache = fresh_cache()
        find_embedding(
            plain_problem([(2, 2, 2)]),
            budget=SearchBudget(max_nodes=3, max_seconds=60),
            cache=cache,
        )
        assert len(cache) == 0

    def test_corrupt_certificates_are_dropped(self, tmp_path):
        cache = fresh_cache()
        problem = plain_problem([(2, 2, 2)])
        find_embedding(problem, cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["vectors"][0][0][0] = "5"
        path.write_text(json.dumps(doc))
        reloaded = fresh_cache()
        assert reloaded.load(path) == 0

    def test_stale_engine_version_is_ignored(self, tmp_path):
        cache = fresh_cache()
        find_embedding(plain_problem([(2, 2, 2)]), cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        doc = json.loads(path.read_text())
        doc["engine"] = "0-stale"
        path.write_text(json.dumps(doc))
        assert fresh_cache().load(path) == 0

    def test_problem_keys_round_trip(self):
        for problem in (
            plain_problem([(2, 2, 2), (4,)]),
            ribbon_problem((2,), (2, 3, 2)),
            plain_problem([()]),
        ):
            assert SearchProblem.from_key(problem.key) == problem

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        cache = fresh_cache()
        find_embedding(plain_problem([(2, 2, 2)]), cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        before = path.read_bytes()
        find_embedding(plain_problem([(2, 2)]), cache=cache)

        def dump_then_fail(doc, handle, **kwargs):
            handle.write('{"schema": "ribbonlens-cache/1", "entr')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError):
            cache.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert fresh_cache().load(path) == 1
        assert list(tmp_path.iterdir()) == [path]
