import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from ribbonlens.arith import (
    FnWitness,
    LensSpace,
    d_obstruction,
    fn_membership,
    lens_homeomorphic,
    lens_normalize,
    square_ratio_check,
)
from ribbonlens import classify, search
from ribbonlens.classify import (
    ConnectedSum,
    PairType,
    TwoBridgeLink,
    Verdict,
    _first_pair_option,
    chi_leq_bridge,
    replay_witness,
    ribbon_leq_lens,
    ribbon_leq_sum,
    two_summand_ball,
)
from ribbonlens.cli import verdict_to_json
from ribbonlens.search import EmbeddingCache, SearchBudget
from ribbonlens.selfcheck import all_lens_spaces

L = lens_normalize
CACHE = EmbeddingCache()  # shared across this module to avoid repeated searches


def _sum(*pairs):
    return ConnectedSum.of(*(L(p, q) for p, q in pairs))


class TestRibbonLeqLens:
    def test_identity(self):
        verdict = ribbon_leq_lens(L(3, 1), L(3, 1), cache=CACHE)
        assert verdict.yes and verdict.witness[0].tag == "T1"

    def test_classifier_is_the_d_invariant_test_up_to_twenty(self):
        # a third route on lens pairs: yes exactly where the orders differ by
        # a square factor and the d-invariant pair test passes
        spaces = all_lens_spaces(20)
        yes_pairs = 0
        for l1 in spaces:
            for l2 in spaces:
                verdict = ribbon_leq_lens(l1, l2, cache=CACHE)
                assert verdict.answer != "inconclusive", (str(l1), str(l2))
                d_passes = square_ratio_check([l1], [l2]) and not d_obstruction(l1.p, l1.q, l2.p, l2.q, lambda: False)
                assert verdict.yes == d_passes, (str(l1), str(l2))
                yes_pairs += d_passes
        assert (len(spaces) ** 2, yes_pairs) == (16384, 232)

    def test_classifier_is_the_d_invariant_test_up_to_sixty(self):
        # the same route on every pair whose orders differ by a square factor
        spaces = all_lens_spaces(60)
        pairs = yes_pairs = 0
        for l1 in spaces:
            for l2 in spaces:
                if not square_ratio_check([l1], [l2]):
                    continue
                verdict = ribbon_leq_lens(l1, l2, cache=CACHE)
                assert verdict.answer != "inconclusive", (str(l1), str(l2))
                d_passes = not d_obstruction(l1.p, l1.q, l2.p, l2.q, lambda: False)
                assert verdict.yes == d_passes, (str(l1), str(l2))
                pairs += 1
                yes_pairs += d_passes
        assert (len(spaces), pairs, yes_pairs) == (1102, 32410, 2126)

    def test_family_case(self):
        verdict = ribbon_leq_lens(L(2, 1), L(8, 5), cache=CACHE)
        pair = verdict.witness[0]
        assert verdict.yes and pair.tag == "T2" and pair.n == 2
        assert pair.witness == (2, 2, 1)

    def test_square_ratio_obstruction(self):
        verdict = ribbon_leq_lens(L(8, 5), L(2, 1), cache=CACHE)
        assert verdict.answer == "no"
        assert verdict.obstruction == "square-ratio"
        # 6/3 is not a square; 2/4 is not an integer, so the orders must divide
        for y1, y2 in ((_sum((3, 1)), _sum((6, 1))), (_sum((4, 1)), _sum((2, 1)))):
            verdict = ribbon_leq_sum(y1, y2, cache=CACHE)
            assert (verdict.answer, verdict.obstruction) == ("no", "square-ratio")

    def test_ball_case_records_oracle(self):
        verdict = ribbon_leq_lens(L(1, 0), L(4, 3), cache=CACHE)
        assert verdict.yes and verdict.witness[0].tag == "T3"
        assert ("4/3", "member") in verdict.oracle_trace

    def test_reversed_family_case(self):
        # L(2,1) is self-reverse; the partner's reversal lies in the family
        verdict = ribbon_leq_lens(L(2, 1), L(8, 3), cache=CACHE)
        pair = verdict.witness[0]
        assert verdict.yes and pair.tag == "T2" and pair.reversed

    def test_sphere_to_sphere_keeps_t1_piece(self):
        verdict = ribbon_leq_lens(L(1, 0), L(1, 0), cache=CACHE)
        assert verdict.yes
        assert verdict.witness == (PairType("T1", (L(1, 0),), (L(1, 0),)),)

    def test_no_names_the_single_case(self):
        verdict = ribbon_leq_lens(L(3, 1), L(12, 5), cache=CACHE)
        assert verdict.answer == "no"
        assert verdict.obstruction == "no-matching-case"

    def test_sphere_to_non_ball_asks_the_oracle_once(self):
        # r_membership already searches 9/1 and 9/8, so 9/8 is not asked again
        verdict = ribbon_leq_lens(L(1, 0), L(9, 1), cache=CACHE)
        assert verdict.answer == "no"
        assert verdict.oracle_trace == (("9", "non-member"),)

    def test_trichotomy_on_yes_pairs(self):
        spaces = all_lens_spaces(14)
        for l1, l2 in itertools.product(spaces, spaces):
            verdict = ribbon_leq_lens(l1, l2, cache=CACHE)
            assert verdict.answer in ("yes", "no")
            if not verdict.yes:
                continue
            pair = verdict.witness[0]
            a, b = (l1, l2) if not pair.reversed else (l1.reverse(), l2.reverse())
            if pair.tag == "T1":
                assert lens_homeomorphic(a, b, oriented=True)
            elif pair.tag == "T2":
                assert a.q == 1 and a.p == pair.n
                assert any(w.n == pair.n for w in fn_membership(b.fraction()))
                assert not fn_membership(Fraction(pair.n, 1))
            else:
                assert pair.tag == "T3" and a.is_s3


def two_summand_ball_asking_twice(m1, m2):
    """Reference for two_summand_ball: every shape tried under both overall
    orientations, T6 included, with T5's summand-order flag."""

    def fn_witness(lens):
        witnesses = fn_membership(lens.fraction())
        return witnesses[0] if witnesses else None

    pair = (m1, m2)
    if lens_homeomorphic(m2, m1.reverse(), oriented=True):
        return Verdict("yes", (PairType("T4", (), pair),))
    for rev in (False, True):
        a, b = pair if not rev else (m1.reverse(), m2.reverse())
        for x, y, swapped in ((a, b, False), (b, a, True)):
            if x.q == x.p - 1 and x.p >= 2:
                wit = fn_witness(y)
                if wit is not None and wit.n == x.p:
                    return Verdict(
                        "yes", (PairType("T5", (), pair, reversed=rev, n=x.p, witness=wit),)
                    )
    for rev in (False, True):
        a, b = pair if not rev else (m1.reverse(), m2.reverse())
        for x, y in ((a, b), (b, a)):
            wit_x, wit_y = fn_witness(x.reverse()), fn_witness(y)
            if wit_x is not None and wit_y is not None and wit_x.n == wit_y.n:
                return Verdict(
                    "yes", (PairType("T6", (), pair, reversed=rev, n=wit_x.n, witness=wit_y),)
                )
    for rev in (False, True):
        a, b = pair if not rev else (m1.reverse(), m2.reverse())
        wit_a, wit_b = fn_witness(a), fn_witness(b)
        if wit_a is not None and wit_a.n == 2 and wit_b is not None and wit_b.n == 2:
            return Verdict("yes", (PairType("T7", (), pair, reversed=rev, n=2),))
    return Verdict("no", obstruction="no-two-summand-shape")


class TestTwoSummandBall:
    def test_matches_asking_twice(self):
        spaces = [lens for lens in all_lens_spaces(20) if not lens.is_s3]
        for m1 in spaces:
            for m2 in spaces:
                want = verdict_to_json(two_summand_ball_asking_twice(m1, m2))
                assert verdict_to_json(two_summand_ball(m1, m2)) == want, (m1, m2)

    def test_mirror_pair(self):
        verdict = two_summand_ball(L(7, 4), L(7, 3))
        assert verdict.yes and verdict.witness[0].tag == "T4"

    def test_family_pair(self):
        verdict = two_summand_ball(L(2, 1), L(8, 5))
        pair = verdict.witness[0]
        assert verdict.yes and pair.tag == "T5" and pair.n == 2

    def test_no_shape(self):
        assert two_summand_ball(L(2, 1), L(3, 1)).answer == "no"

    def test_double_family_pair(self):
        verdict = two_summand_ball(L(8, 3), L(8, 5))
        assert verdict.yes and verdict.witness[0].tag in ("T4", "T6")

    def test_reversed_family_member_with_family_member(self):
        # -L(8,3) = L(8,5) has witness (2,2,1) and L(18,7) has (2,3,1)
        verdict = two_summand_ball(L(8, 3), L(18, 7))
        assert verdict.yes and verdict.witness == (
            PairType("T6", (), (L(8, 3), L(18, 7)), n=2, witness=FnWitness(2, 3, 1)),
        )

    def test_two_family_members_without_reversal(self):
        verdict = two_summand_ball(L(8, 5), L(8, 5))
        assert verdict.yes and verdict.witness[0].tag == "T7"

    def test_rejects_trivial_summands(self):
        with pytest.raises(ValueError):
            two_summand_ball(L(1, 0), L(2, 1))


class TestRibbonLeqSum:
    def test_two_against_two(self):
        verdict = ribbon_leq_sum(_sum((2, 1), (3, 1)), _sum((8, 5), (3, 1)), cache=CACHE)
        assert verdict.yes
        assert sorted(p.tag for p in verdict.witness) == ["T1", "T2"]
        assert replay_witness(verdict) == (_sum((2, 1), (3, 1)), _sum((8, 5), (3, 1)))

    def test_sphere_to_mirror_pair(self):
        verdict = ribbon_leq_sum(_sum(), _sum((7, 4), (7, 3)), cache=CACHE)
        assert verdict.yes and [p.tag for p in verdict.witness] == ["T4"]

    def test_sphere_to_single_two(self):
        verdict = ribbon_leq_sum(_sum(), _sum((2, 1)), cache=CACHE)
        assert verdict.answer == "no" and verdict.obstruction == "square-ratio"

    def test_left_summand_must_be_consumed(self):
        verdict = ribbon_leq_sum(_sum((5, 1)), _sum((7, 1)), cache=CACHE)
        assert verdict.answer == "no"

    def test_long_sum_under_low_recursion_limit(self):
        # the decomposition search keeps no Python frame per summand consumed
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            verdict = ribbon_leq_sum(_sum(), _sum(*[(4, 1)] * 1200), cache=CACHE)
        finally:
            sys.setrecursionlimit(limit)
        assert verdict.yes
        assert [p.tag for p in verdict.witness] == ["T3"] * 1200
        assert verdict.oracle_trace == (("4", "member"),)

    def test_reflexivity_on_small_sums(self):
        # every sum of at most three summands with p <= 12 reaches itself
        spaces = [lens for lens in all_lens_spaces(12) if not lens.is_s3]
        sums = [ConnectedSum.of()]
        sums += [ConnectedSum.of(a) for a in spaces]
        sums += [ConnectedSum.of(*pair) for pair in itertools.combinations_with_replacement(spaces, 2)]
        sums += [ConnectedSum.of(*triple) for triple in itertools.combinations_with_replacement(spaces, 3)]
        for y in sums:
            verdict = ribbon_leq_sum(y, y, cache=CACHE)
            assert verdict.yes, str(y)
            assert replay_witness(verdict) == (y, y)

    def test_never_yes_against_square_ratio(self):
        spaces = [lens for lens in all_lens_spaces(8) if not lens.is_s3]
        rng = random.Random(11)
        for _ in range(40):
            y1 = ConnectedSum.of(*(rng.choice(spaces) for _ in range(rng.randint(0, 2))))
            y2 = ConnectedSum.of(*(rng.choice(spaces) for _ in range(rng.randint(0, 2))))
            verdict = ribbon_leq_sum(y1, y2, cache=CACHE)
            if verdict.yes:
                assert square_ratio_check(y1.summands, y2.summands)

    def test_monotone_under_composition(self):
        instances = [
            (_sum((2, 1)), _sum((8, 5))),
            (_sum((3, 1)), _sum((3, 1))),
            (_sum(), _sum((7, 4), (7, 3))),
            (_sum(), _sum((4, 3))),
        ]
        for (a1, b1), (a2, b2) in itertools.combinations(instances, 2):
            composed = ribbon_leq_sum(
                ConnectedSum.of(*(a1.summands + a2.summands)),
                ConnectedSum.of(*(b1.summands + b2.summands)),
                cache=CACHE,
            )
            assert composed.yes


def ribbon_leq_sum_three_loops(y1, y2, budget=None, cache=None):
    """Reference for ribbon_leq_sum: the decomposition search with the
    yield-and-judge step written out once per piece kind (T1/T2, T3, T4-T7)
    and no budget of its own."""
    if not square_ratio_check(y1.summands, y2.summands):
        return Verdict("no", obstruction="square-ratio")
    memo = {}
    calls = {}

    def solve(rem1, rem2):
        blocked = False
        result = ("no", None)
        if not rem1 and not rem2:
            result = ("yes", ())
        elif len(rem1) > len(rem2):
            result = ("no", None)
        elif rem1:
            a, rest1 = rem1[0], rem1[1:]
            for idx, b in enumerate(rem2):
                if idx and rem2[idx] == rem2[idx - 1]:
                    continue
                option = _first_pair_option(a, b)
                if option is None:
                    continue
                sub, wit = yield (rest1, rem2[:idx] + rem2[idx + 1 :])
                if sub == "yes":
                    result = ("yes", (option,) + wit)
                    break
                if sub == "inconclusive":
                    blocked = True
        else:
            b, rest = rem2[0], rem2[1:]
            f = b.fraction()
            if str(f) not in calls:
                calls[str(f)] = search.r_membership(f, budget=budget, cache=cache).outcome
            outcome = calls[str(f)]
            if outcome == "member":
                sub, wit = yield ((), rest)
                if sub == "yes":
                    result = ("yes", (PairType("T3", (), (b,)),) + wit)
                elif sub == "inconclusive":
                    blocked = True
            elif outcome == "inconclusive":
                blocked = True
            if result[0] != "yes":
                for jdx in range(len(rest)):
                    if jdx and rest[jdx] == rest[jdx - 1]:
                        continue
                    pair_verdict = two_summand_ball(b, rest[jdx])
                    if not pair_verdict.yes:
                        continue
                    sub, wit = yield ((), rest[:jdx] + rest[jdx + 1 :])
                    if sub == "yes":
                        result = ("yes", pair_verdict.witness + wit)
                        break
                    if sub == "inconclusive":
                        blocked = True
        if result[0] == "no" and blocked:
            result = ("inconclusive", None)
        return result

    root = (y1.summands, y2.summands)
    stack = [(root, solve(*root))]
    result = None
    while stack:
        key, frame = stack[-1]
        try:
            sub = frame.send(result)
        except StopIteration as stop:
            result = memo[key] = stop.value
            stack.pop()
            continue
        result = memo.get(sub)
        if result is None:
            stack.append((sub, solve(*sub)))

    answer, witness = result
    trace = tuple(calls.items())
    if answer == "yes":
        return Verdict("yes", witness, oracle_trace=trace)
    if answer == "inconclusive":
        return Verdict("inconclusive", obstruction="oracle-budget", oracle_trace=trace)
    return Verdict("no", obstruction="no-decomposition", oracle_trace=trace)


def ribbon_leq_lens_three_loops(l1, l2, cache):
    """ribbon_leq_lens over the reference search."""
    if l1.is_s3 and l2.is_s3:
        return Verdict("yes", (PairType("T1", (l1,), (l2,)),))
    verdict = ribbon_leq_sum_three_loops(ConnectedSum.of(l1), ConnectedSum.of(l2), cache=cache)
    if verdict.obstruction == "no-decomposition":
        return Verdict("no", obstruction="no-matching-case", oracle_trace=verdict.oracle_trace)
    return verdict


# 20 distinct members of the second square-multiple family 2m^2/(2mk+1), then
# two summands that pair with nothing: S^3 against the sum is a "no" that the
# search proves only by trying every matching of the family members
F2_22 = [
    (8, 5), (18, 7), (18, 13), (32, 9), (32, 25), (50, 11), (50, 21), (50, 31), (50, 41),
    (72, 13), (72, 61), (98, 15), (98, 29), (98, 43), (98, 57), (98, 71), (98, 85),
    (128, 17), (128, 49), (128, 81), (1009, 2), (1009, 3),
]
F2_18 = F2_22[:16] + F2_22[-2:]


class TestAgainstThreeLoops:
    """ribbon_leq_sum gives the reference search's verdict JSON, oracle trace
    order included."""

    def test_lens_pairs_up_to_sixteen(self):
        spaces = all_lens_spaces(16)
        for l1, l2 in itertools.product(spaces, spaces):
            want = verdict_to_json(ribbon_leq_lens_three_loops(l1, l2, CACHE))
            assert verdict_to_json(ribbon_leq_lens(l1, l2, cache=CACHE)) == want, (l1, l2)

    def test_seeded_sums(self):
        spaces = [lens for lens in all_lens_spaces(12) if not lens.is_s3]
        rng = random.Random(12)
        answers = set()
        for _ in range(3000):
            y1 = ConnectedSum.of(*(rng.choice(spaces) for _ in range(rng.randint(0, 3))))
            y2 = ConnectedSum.of(*(rng.choice(spaces) for _ in range(rng.randint(0, 5))))
            want = verdict_to_json(ribbon_leq_sum_three_loops(y1, y2, cache=CACHE))
            assert verdict_to_json(ribbon_leq_sum(y1, y2, cache=CACHE)) == want, (str(y1), str(y2))
            answers.add(want["answer"])
        assert answers == {"yes", "no"}

    def test_inconclusive_oracle(self, monkeypatch):
        # the oracle cannot tell for order 4, so some branches are blocked
        real = search.r_membership

        def r_membership(f, budget=None, cache=None):
            if Fraction(f).numerator == 4:
                return search.RMembershipResult(Fraction(f), "inconclusive", "search budget exhausted")
            return real(f, budget, cache)

        monkeypatch.setattr(search, "r_membership", r_membership)
        spaces = [lens for lens in all_lens_spaces(9) if not lens.is_s3]
        rng = random.Random(12)
        answers = set()
        for _ in range(600):
            y1 = ConnectedSum.of(*(rng.choice(spaces) for _ in range(rng.randint(0, 1))))
            y2 = ConnectedSum.of(*(rng.choice(spaces) for _ in range(rng.randint(1, 4))))
            want = verdict_to_json(ribbon_leq_sum_three_loops(y1, y2, cache=CACHE))
            assert verdict_to_json(ribbon_leq_sum(y1, y2, cache=CACHE)) == want, (str(y1), str(y2))
            answers.add(want["answer"])
        assert answers == {"yes", "no", "inconclusive"}


class TestDecompositionBudget:
    """Each subproblem costs one node and the clock runs for the whole call;
    a spent budget is inconclusive, never "no"."""

    def test_node_budget(self):
        verdict = ribbon_leq_sum(_sum(), _sum(*F2_18), SearchBudget(max_nodes=50), cache=CACHE)
        assert (verdict.answer, verdict.obstruction) == ("inconclusive", "decomposition-budget")

    def test_one_node_per_subproblem_entered(self):
        # warm the cache first, so that the oracle searches spend no nodes
        # of the small budgets below
        assert ribbon_leq_sum(_sum(), _sum(*F2_18), cache=CACHE).answer == "no"
        verdict = ribbon_leq_sum(_sum(), _sum(*F2_18), SearchBudget(max_nodes=1597), cache=CACHE)
        assert (verdict.answer, verdict.obstruction) == ("no", "no-decomposition")
        verdict = ribbon_leq_sum(_sum(), _sum(*F2_18), SearchBudget(max_nodes=1596), cache=CACHE)
        assert (verdict.answer, verdict.obstruction) == ("inconclusive", "decomposition-budget")

    def test_oracle_gets_the_budget(self):
        # the chains of 25/7 have more terms than the budget has nodes
        verdict = ribbon_leq_sum(_sum(), _sum((25, 7)), SearchBudget(max_nodes=3), cache=EmbeddingCache())
        assert (verdict.answer, verdict.obstruction) == ("inconclusive", "oracle-budget")
        assert verdict.oracle_trace == (("25/7", "inconclusive"),)

    def test_default_budget_still_answers_no(self):
        verdict = ribbon_leq_sum(_sum(), _sum(*F2_18), cache=CACHE)
        assert (verdict.answer, verdict.obstruction) == ("no", "no-decomposition")
        want = ribbon_leq_sum_three_loops(_sum(), _sum(*F2_18), cache=CACHE)
        assert verdict_to_json(verdict) == verdict_to_json(want)

    def test_two_summand_ball_is_asked_once_per_pair(self, monkeypatch):
        # the subproblems that share a first right summand ask the same
        # two-summand questions; one call asks each pair once
        asked = []
        real = classify.two_summand_ball
        monkeypatch.setattr(classify, "two_summand_ball", lambda a, b: asked.append((a, b)) or real(a, b))
        verdict = ribbon_leq_sum(_sum(), _sum(*F2_18), cache=CACHE)
        assert (verdict.answer, verdict.obstruction) == ("no", "no-decomposition")
        assert len(asked) == len(set(asked)) == 151
        asked.clear()
        verdict = ribbon_leq_sum(_sum(), _sum((7, 4), (7, 3), (8, 5), (2, 1)), cache=CACHE)
        assert verdict.yes
        assert len(asked) == len(set(asked)) > 0

    def test_clock(self):
        budget = SearchBudget(max_seconds=0.2)
        start = time.monotonic()
        verdict = ribbon_leq_sum(_sum(), _sum(*F2_22), budget, cache=CACHE)
        assert time.monotonic() - start < budget.max_seconds + 1
        assert (verdict.answer, verdict.obstruction) == ("inconclusive", "decomposition-budget")

    def test_oracle_shares_the_clock(self, monkeypatch):
        # the ball oracle on m**2/(123456789 m + 1), m = 10**9, outlasts half
        # a second: its d-invariant coset loop alone takes longer, and stops
        # at the classifier's deadline
        budgets = []
        real = search.r_membership

        def spy(f, budget, cache):
            budgets.append(budget)
            return real(f, budget, cache)

        monkeypatch.setattr(search, "r_membership", spy)
        start = time.monotonic()
        m = 10**9
        verdict = ribbon_leq_lens(
            L(1, 0), L(m * m, 123456789 * m + 1), SearchBudget(max_seconds=0.5), cache=EmbeddingCache()
        )
        assert time.monotonic() - start < 1
        assert verdict.answer == "inconclusive"
        # the oracle is handed the classifier's budget with its clock running
        assert len(budgets) == 1 and budgets[0].deadline is not None

    def test_clock_starts_with_the_query(self):
        # a budget built once and reused, as a benchmark does, runs its
        # clock from each query's start, not from its construction
        budget = SearchBudget(max_seconds=0.2)
        time.sleep(0.3)
        assert search.r_membership(Fraction(9, 2), budget, cache=EmbeddingCache()).outcome == "member"
        assert ribbon_leq_lens(L(1, 0), L(9, 2), budget, cache=EmbeddingCache()).yes


class TestBridgeLinks:
    def test_unknot_and_mirrors(self):
        assert TwoBridgeLink(1, 0).is_unknot
        assert TwoBridgeLink(7, 3).double_cover() == LensSpace(7, 3)

    def test_same_validity_as_lens_spaces(self):
        # a 2-bridge link is valid exactly when its double cover is
        for cls in (LensSpace, TwoBridgeLink):
            for p, q in ((0, 0), (5, 5), (8, 2), (5, 0)):
                with pytest.raises(ValueError):
                    cls(p, q)
            assert cls(1, 0).p == 1

    def test_examples(self):
        K = TwoBridgeLink
        assert chi_leq_bridge([K(2, 1)], [K(8, 5)], cache=CACHE).yes
        assert chi_leq_bridge([K(1, 0)], [K(7, 4), K(7, 3)], cache=CACHE).yes
        assert chi_leq_bridge([K(3, 1)], [K(3, 1)], cache=CACHE).yes

    def test_mirror_coherence(self):
        from math import gcd

        K = TwoBridgeLink
        rng = random.Random(3)
        pool = [K(p, q) for p in range(2, 9) for q in range(1, p) if gcd(p, q) == 1]
        for _ in range(30):
            k1 = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            k2 = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            direct = chi_leq_bridge(k1, k2, cache=CACHE)
            mirrored = chi_leq_bridge(
                [K(k.p, k.p - k.q) for k in k1], [K(k.p, k.p - k.q) for k in k2], cache=CACHE
            )
            assert direct.answer == mirrored.answer


class TestConnectedSum:
    def test_strips_spheres_and_sorts(self):
        y = ConnectedSum.of(L(3, 1), L(1, 0), L(2, 1))
        assert y.summands == (L(2, 1), L(3, 1))
        assert not y.is_s3

    def test_reverse(self):
        y = ConnectedSum.of(L(7, 3), L(4, 1))
        assert y.reverse() == ConnectedSum.of(L(7, 4), L(4, 3))

    def test_raw_construction_equals_of(self):
        for summands in ((L(3, 1), L(2, 1)), (L(3, 1), L(1, 0), L(2, 1)), (L(1, 0),)):
            assert ConnectedSum(summands) == ConnectedSum.of(*summands)
