import itertools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribbonlens.arith import (
    FnWitness,
    LensSpace,
    cf_evaluate,
    cf_expand,
    cf_length,
    continuant,
    d_invariant,
    d_obstruction,
    fn_membership,
    h1_order,
    lens_homeomorphic,
    lens_normalize,
    square_index,
    square_ratio_check,
    _d_levels,
    _d_numerator,
)


@st.composite
def coprime_fractions(draw, max_p=300):
    p = draw(st.integers(min_value=2, max_value=max_p))
    q = draw(st.integers(min_value=1, max_value=p - 1).filter(lambda q: gcd(p, q) == 1))
    return Fraction(p, q)


def canonical_cf(terms):
    """Reference: the representative of a string under reversal (lexicographic min)."""
    return min(terms, terms[::-1])


def lens_spaces(max_p=30):
    return st.builds(
        lambda f: lens_normalize(f.numerator, f.denominator),
        coprime_fractions(max_p),
    ) | st.just(LensSpace(1, 0))


class TestContinuedFractions:
    def test_integer_input_gives_single_term(self):
        assert cf_expand(Fraction(3, 1)) == (3,)

    def test_seven_fourths(self):
        # 2 - 1/4 = 7/4
        assert cf_expand(Fraction(7, 4)) == (2, 4)

    def test_eight_fifths(self):
        # 2 - 1/(3 - 1/2) = 8/5
        assert cf_expand(Fraction(8, 5)) == (2, 3, 2)

    def test_evaluate_examples(self):
        assert cf_evaluate((3,)) == Fraction(3)
        assert cf_evaluate((2, 4)) == Fraction(7, 4)
        assert cf_evaluate((2, 2, 2)) == Fraction(4, 3)

    def test_empty_string_is_rank_zero_sentinel(self):
        assert cf_evaluate(()) is None
        assert continuant(()) == 1

    def test_rejects_small_fractions(self):
        with pytest.raises(ValueError):
            cf_expand(Fraction(1, 1))
        with pytest.raises(ValueError):
            cf_expand(Fraction(3, 4))

    @given(coprime_fractions())
    def test_round_trip(self, f):
        terms = cf_expand(f)
        assert all(a >= 2 for a in terms)
        assert cf_evaluate(terms) == f

    @given(coprime_fractions())
    def test_continuant_is_numerator(self, f):
        assert continuant(cf_expand(f)) == f.numerator

    def test_continuant_quotient_is_the_fold(self):
        # the CLI checks its round trip by continuant(a1..an) / continuant(a2..an);
        # it must equal the reference fold on the fractions of cf-round-trip
        # and on long strings, runs of 2 included
        def quotient(terms):
            return Fraction(continuant(terms), continuant(itertools.islice(terms, 1, None)))

        fractions = [Fraction(p, q) for p in range(2, 201) for q in range(1, p) if gcd(p, q) == 1]
        assert len(fractions) == 12231
        for f in fractions:
            terms = cf_expand(f)
            assert quotient(terms) == cf_evaluate(terms) == f
        rng = random.Random(35)
        for _ in range(200):
            top = rng.choice((2, 3, 10, 1000))
            terms = tuple(rng.randint(2, top) for _ in range(rng.randint(1, 2000)))
            assert quotient(terms) == cf_evaluate(terms), terms[:10]

    @given(coprime_fractions())
    def test_length_without_expanding(self, f):
        terms = cf_expand(f)
        assert cf_length(f) == len(terms)
        # the expansions of p/q and p/(p-q) are Riemenschneider duals
        dual = Fraction(f.numerator, f.numerator - f.denominator)
        assert cf_length(dual) == sum(terms) - 2 * len(terms) + 1

    def test_expansion_reads_the_clock_every_2048_terms(self):
        # (n + 1)/n is a run of n terms 2
        reads = []

        def expired():
            reads.append(1)
            return False

        assert cf_expand(Fraction(2048, 2047), expired) == (2,) * 2047 and reads == []
        assert cf_expand(Fraction(4097, 4096), expired) == (2,) * 4096 and len(reads) == 2
        assert cf_expand(Fraction(4097, 4096), lambda: True) is None


class TestLensSpaces:
    def test_normalize_examples(self):
        assert lens_normalize(5, 7) == LensSpace(5, 2)
        assert lens_normalize(1, 0) == LensSpace(1, 0)
        assert lens_normalize(4, -1) == LensSpace(4, 3)

    def test_normalize_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lens_normalize(0, 1)
        with pytest.raises(ValueError):
            lens_normalize(-3, 1)
        with pytest.raises(ValueError):
            lens_normalize(4, 2)

    def test_reverse_examples(self):
        assert LensSpace(4, 1).reverse() == LensSpace(4, 3)
        assert LensSpace(1, 0).reverse() == LensSpace(1, 0)
        assert LensSpace(7, 3).reverse() == LensSpace(7, 4)

    @given(lens_spaces())
    def test_reverse_is_involution(self, lens):
        assert lens.reverse().reverse() == lens

    def test_homeomorphism_examples(self):
        assert lens_homeomorphic(LensSpace(7, 2), LensSpace(7, 4), oriented=True)
        assert not lens_homeomorphic(LensSpace(7, 2), LensSpace(7, 5), oriented=True)
        assert lens_homeomorphic(LensSpace(7, 2), LensSpace(7, 5), oriented=False)
        assert lens_homeomorphic(LensSpace(3, 1), LensSpace(3, 1), oriented=True)

    @given(lens_spaces(), lens_spaces(), lens_spaces())
    def test_oriented_homeomorphism_is_equivalence(self, a, b, c):
        assert lens_homeomorphic(a, a)
        if lens_homeomorphic(a, b):
            assert lens_homeomorphic(b, a)
        if lens_homeomorphic(a, b) and lens_homeomorphic(b, c):
            assert lens_homeomorphic(a, c)

    @given(lens_spaces(), lens_spaces())
    def test_oriented_implies_unoriented(self, a, b):
        if lens_homeomorphic(a, b, oriented=True):
            assert lens_homeomorphic(a, b, oriented=False)

    @given(lens_spaces(), lens_spaces())
    def test_homeomorphism_matches_chain_string_reversal(self, a, b):
        # independent route: equality of expansion strings up to reversal
        same_strings = canonical_cf(a.cf()) == canonical_cf(b.cf())
        assert lens_homeomorphic(a, b, oriented=True) == same_strings


def fn_membership_by_search(f):
    """Reference: every witness found by trying each m with m*m <= p."""
    p, q = f.numerator, f.denominator
    found = []
    m = 2
    while m * m <= p:
        if p % (m * m) == 0:
            n = p // (m * m)
            if n >= 2 and q > 1 and (q - 1) % (n * m) == 0:
                k = (q - 1) // (n * m)
                if 0 < k < m and gcd(m, k) == 1:
                    found.append(FnWitness(n, m, k))
        m += 1
    return sorted(found)


class TestFnMembership:
    def test_eight_fifths(self):
        assert fn_membership(Fraction(8, 5)) == [FnWitness(2, 2, 1)]

    def test_twelve_sevenths(self):
        assert fn_membership(Fraction(12, 7)) == [FnWitness(3, 2, 1)]

    def test_integers_never_belong(self):
        for n in range(2, 40):
            assert fn_membership(Fraction(n, 1)) == []

    def test_matches_search_for_small_p(self):
        for p in range(2, 401):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    f = Fraction(p, q)
                    assert fn_membership(f) == fn_membership_by_search(f), f

    def test_huge_non_member_is_instant(self):
        assert fn_membership(Fraction(10**32 + 1, 3)) == []

    @given(
        st.integers(min_value=2, max_value=10**6),
        st.integers(min_value=2, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_witness_reconstruction(self, n, m, k):
        if not (m > k > 0 and gcd(m, k) == 1):
            return
        f = Fraction(n * m * m, n * m * k + 1)
        assert fn_membership(f) == [FnWitness(n, m, k)]
        assert FnWitness(n, m, k).fraction() == f


class TestHomologyOrder:
    def test_examples(self):
        assert h1_order([LensSpace(1, 0)]) == 1
        assert h1_order([LensSpace(4, 1)]) == 4
        assert h1_order([LensSpace(2, 1), LensSpace(3, 1)]) == 6

    def test_square_ratio_examples(self):
        assert square_ratio_check([LensSpace(2, 1)], [LensSpace(8, 5)])
        assert not square_ratio_check([LensSpace(8, 5)], [LensSpace(2, 1)])
        assert not square_ratio_check([LensSpace(1, 0)], [LensSpace(2, 1)])

    @given(lens_spaces())
    def test_square_ratio_reflexive(self, lens):
        assert square_ratio_check([lens], [lens])

    def test_square_index(self):
        # brute force: the n >= 1 with p2 = n**2 * p1, or None
        for p1 in range(1, 30):
            index = {n * n * p1: n for n in range(1, 40)}
            for p2 in range(1500):
                assert square_index(p1, p2) == index.get(p2), (p1, p2)


def d_invariant_by_fractions(p, q, i):
    """Reference: the recursion of Ozsvath-Szabo in Fractions, as stated."""
    if p == 1:
        return Fraction(0)
    return (
        Fraction(-1, 4)
        + Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q)
        - d_invariant_by_fractions(q, p % q, i % q)
    )



def units(p):
    """The labels q of the lens spaces L(p, q): 0 <= q < p coprime to p."""
    return [q for q in range(p) if gcd(p, q) == 1]


def d_obstruction_full_scan(p1, q1, p2, q2):
    """Reference: the d-invariant pair test over every coset j0 < n*p1 and
    every b < p1, conjugation-invariant or not, with no clock."""
    n = square_index(p1, p2)
    levels1, denominator1 = _d_levels(p1, q1)
    levels2, denominator2 = _d_levels(p2, q2)
    targets = [_d_numerator(levels1, x) * denominator2 // denominator1 for x in range(p1)]
    step = n * p1
    for j0 in range(step):
        if all(_d_numerator(levels2, i) == targets[0] for i in range(j0, p2, step)):
            for b in range(p1):
                if all(
                    _d_numerator(levels2, i) == targets[x]
                    for x in range(1, p1)
                    for i in range((j0 + n * b * x) % step, p2, step)
                ):
                    return False
    return True


class TestDInvariants:
    def test_matches_the_fraction_recursion(self):
        for p in range(2, 50):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    for i in range(p):
                        assert d_invariant(p, q, i) == d_invariant_by_fractions(p, q, i), (p, q, i)

    def test_matches_the_fraction_recursion_on_huge_orders(self):
        rng = random.Random(19)
        for _ in range(300):
            p = rng.randrange(2, 10**rng.choice((6, 18, 40)))
            q = rng.randrange(1, p)
            if gcd(p, q) == 1:
                i = rng.randrange(p)
                assert d_invariant(p, q, i) == d_invariant_by_fractions(p, q, i), (p, q, i)

    def test_lens_space_p_1(self):
        # d(L(p, 1), i) = ((2i - p)**2 - p) / 4p
        for p in range(2, 30):
            for i in range(p):
                assert d_invariant(p, 1, i) == Fraction((2 * i - p) ** 2 - p, 4 * p)

    def test_values_are_invariants(self):
        # the multiset of values is that of the homeomorphic L(p, q^-1), and
        # reversing the orientation negates it
        for p in range(2, 40):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    values = sorted(d_invariant(p, q, i) for i in range(p))
                    assert values == sorted(d_invariant(p, pow(q, -1, p), i) for i in range(p))
                    assert values == sorted(-d_invariant(p, p - q, i) for i in range(p))
                    # 4p * d is an integer
                    assert all((4 * p * v).denominator == 1 for v in values)

    def test_coset_test_examples(self):
        # L(4, 1) bounds a ball: d vanishes at 1 and 3; L(9, 1) does not
        assert d_obstruction(1, 0, 4, 1, lambda: False) is False
        assert d_obstruction(1, 0, 9, 1, lambda: False) is True
        assert d_obstruction(1, 0, 9, 8, lambda: False) is True
        assert d_obstruction(1, 0, 9, 2, lambda: False) is False

    def test_coset_test_against_the_fraction_recursion(self):
        for m in range(2, 12):
            p = m * m
            for q in range(1, p):
                if gcd(p, q) == 1:
                    want = not any(
                        all(d_invariant_by_fractions(p, q, i0 + m * k) == 0 for k in range(m))
                        for i0 in range(m)
                    )
                    assert d_obstruction(1, 0, p, q, lambda: False) is want, (p, q)

    def test_expired_clock_answers_none(self):
        asked = []
        assert d_obstruction(1, 0, 10**18, 10**9 + 1, lambda: asked.append(1) or len(asked) > 5) is None
        assert len(asked) == 6
        # L(2, 1) -> L(8, 5): the coset 0 + 4Z passes x = 0 (labels 0 and 4),
        # b = 0 fails x = 1 at label 0 and b = 1 passes it at labels 2 and 6
        asked.clear()
        assert d_obstruction(2, 1, 8, 5, lambda: asked.append(1) and False) is False
        assert len(asked) == 5
        asked.clear()
        assert d_obstruction(2, 1, 8, 5, lambda: asked.append(1) or len(asked) == 5) is None
        assert len(asked) == 5

    def test_pair_orders_must_differ_by_a_square_factor(self):
        for p1, q1, p2, q2 in ((2, 1, 6, 1), (4, 1, 2, 1), (2, 1, 3, 1), (3, 1, 24, 5)):
            with pytest.raises(ValueError):
                d_obstruction(p1, q1, p2, q2, lambda: False)

    def test_pair_test_against_the_formula(self):
        # passes iff some b < p1 and j0 < n*p1 give d(L1, x) =
        # d(L2, j0 + n*b*x + n*p1*k) for every x and k, in Fractions; on every
        # square-ratio pair with p1 < p2 <= 100 and every pair of equal
        # orders p <= 30
        tables = {}

        def d_table(p, q):
            if (p, q) not in tables:
                tables[p, q] = [d_invariant_by_fractions(p, q, i) for i in range(p)]
            return tables[p, q]

        def passes_by_formula(p1, q1, p2, q2):
            n = isqrt(p2 // p1)
            d1, d2 = d_table(p1, q1), d_table(p2, q2)
            return any(
                # the coset x = 0 does not depend on b, so it is asked once per j0
                all(d1[0] == d2[j0 + n * p1 * k] for k in range(n))
                and any(
                    all(d1[x] == d2[(j0 + n * b * x + n * p1 * k) % p2] for x in range(p1) for k in range(n))
                    for b in range(p1)
                )
                for j0 in range(n * p1)
            )

        pairs = pass_count = 0
        for p1 in range(1, 101):
            for n in range(1 if p1 <= 30 else 2, isqrt(100 // p1) + 1):
                p2 = n * n * p1
                for q1, q2 in itertools.product(units(p1), units(p2)):
                    passes = passes_by_formula(p1, q1, p2, q2)
                    assert d_obstruction(p1, q1, p2, q2, lambda: False) is not passes, (p1, q1, p2, q2)
                    pairs += 1
                    pass_count += passes
        assert (pairs, pass_count) == (11886, 722)

    def test_conjugation_is_the_one_reflection_that_keeps_d(self):
        # the premise of the coset restriction: in the labels of Prop. 4.8,
        # i -> q - 1 - i (mod p) keeps every d of L(p, q), and no other
        # reflection i -> c - i does
        for p in range(1, 101):
            for q in units(p):
                d = [d_invariant(p, q, i) for i in range(p)]
                keeping = [c for c in range(p) if all(d[(c - i) % p] == d[i] for i in range(p))]
                assert keeping == [(q - 1) % p], (p, q)

    def test_cosets_not_closed_under_conjugation_are_skipped(self):
        # L(3, 2) -> L(3, 2): j0 = 0 passes x = 0 at label 0; b = 0 gives the
        # coset {(x, 0)}, which conjugation (x, i) -> (1 - x, 1 - i) moves,
        # so it is skipped unread, and b = 1, the identity, passes x = 1 and
        # x = 2 at labels 1 and 2: three d-invariants, where the full scan
        # reads five
        asked = []
        assert d_obstruction(3, 2, 3, 2, lambda: asked.append(1) and False) is False
        assert len(asked) == 3

    def test_conjugation_invariant_cosets_give_the_full_scan(self):
        # every ball L(m**2, q) with m <= 40 and every pair with p1 <= p2 <=
        # 30 whose orders differ by a square factor: trying only the cosets
        # closed under conjugation answers as trying all of them
        balls = [(1, 0, m * m, q) for m in range(2, 41) for q in units(m * m)]
        pairs = [
            (p1, q1, n * n * p1, q2)
            for p1 in range(1, 31)
            for n in range(1, isqrt(30 // p1) + 1)
            for q1 in units(p1)
            for q2 in units(n * n * p1)
        ]
        assert (len(balls), len(pairs)) == (13110, 4116)
        for args in balls + pairs:
            assert d_obstruction(*args, lambda: False) is d_obstruction_full_scan(*args), args
