import random

import pytest

from ribbonlens import lattice
from ribbonlens.lattice import (
    EmbeddedLattice,
    GramLattice,
    chain_basis_for,
    dot,
    enumerate_short_vectors,
    gram_of,
    integer_kernel,
    orthogonal_complement,
)
from ribbonlens.subsets import (
    BadComponent,
    LinearSubset,
    _triple_witness,
    _two_final_move,
    bad_component_complement,
    canonical_matrix,
    components,
    contract,
    core_triple,
    detect_bad_components,
    is_linear_subset,
    linear_subset,
    subset_key,
    two_final_expansions,
)

# the two displayed expansions of the minimal central-norm-3 triple, in the
# path order used throughout: new coordinate appended last
EXPANSION_A = ((0, 0, 0, 1, 1), (0, 0, 1, 1, 0), (1, 1, 1, 0, 0), (0, 0, 1, -1, 1))
EXPANSION_B = ((0, 0, 1, 1, 1), (1, 1, 1, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, -1, 1))


def pairing_degrees(vecs):
    """Each vector's degree in the intersection graph, counted from the
    consecutive pairings."""
    linked = [dot(vecs[i], vecs[i + 1]) == 1 for i in range(len(vecs) - 1)]
    return [sum(linked[max(i - 1, 0) : i + 1]) for i in range(len(vecs))]


def reference_expansions(subset, component):
    """Reference enumeration of 2-final expansions, with the degree, neighbour
    and run-end rules stated by hand instead of through the 2-final move."""
    n = subset.ambient_rank
    vecs = subset.vectors
    if any(abs(c) > 1 for v in vecs for c in v):
        return []
    deg = pairing_degrees(vecs)
    comp = tuple(component)
    comp_set = set(comp)
    runs = {c: (c[0], c[-1]) for c in components(subset)}

    results = []
    seen = set()
    for t_pos in comp:
        if deg[t_pos] > 1:
            continue
        w = vecs[t_pos]
        for eps in (1, -1):
            v_t = tuple(w) + (eps,)
            for c in range(n):
                for sigma in (1, -1):
                    v_s = tuple(sigma if j == c else 0 for j in range(n)) + (1,)
                    # pairings of the new vector against the modified set
                    pair_t = eps + sigma * w[c]
                    pairs = {}
                    ok = True
                    for j, v in enumerate(vecs):
                        p = pair_t if j == t_pos else sigma * v[c]
                        if p not in (0, 1):
                            ok = False
                            break
                        if p:
                            pairs[j] = p
                    if not ok or len(pairs) != 1:
                        continue
                    neighbor = next(iter(pairs))
                    if neighbor not in comp_set:
                        continue
                    # the modified target must end up with degree exactly 1
                    if deg[t_pos] + (1 if neighbor == t_pos else 0) != 1:
                        continue
                    extended = [tuple(v) + (0,) for v in vecs]
                    extended[t_pos] = v_t
                    lo, hi = next(r for comp_run, r in runs.items() if neighbor in comp_run)
                    if neighbor == lo:
                        insert_at = lo
                    elif neighbor == hi:
                        insert_at = hi + 1
                    else:
                        continue
                    extended.insert(insert_at, v_s)
                    rows = tuple(extended)
                    if not is_linear_subset(rows):
                        continue
                    candidate = LinearSubset(n + 1, rows)
                    key = subset_key(candidate)
                    if key in seen:
                        continue
                    seen.add(key)
                    results.append(candidate)
    return results


def reference_two_final_moves(subset, component):
    """Reference list of 2-final moves (h, s, t) inside a component: every
    coordinate is tried, with the degree and norm rules stated by hand."""
    vecs = subset.vectors
    if any(abs(c) > 1 for v in vecs for c in v):
        return []
    deg = pairing_degrees(vecs)
    comp = set(component)
    moves = []
    for h in range(subset.ambient_rank):
        support = [i for i, v in enumerate(vecs) if v[h]]
        if len(support) != 2 or not set(support) <= comp:
            continue
        for s, t in (support, support[::-1]):
            if deg[s] != 1 or deg[t] != 1:
                continue
            if dot(vecs[s], vecs[s]) == 2 and dot(vecs[t], vecs[t]) > 2:
                moves.append((h, s, t))
    return moves


def reference_bad_components(subset):
    """(component, central_norm, trace) of each bad component, by a
    depth-first search over every sequence of 2-final contractions with a
    seen set of canonical states."""
    out = []
    for comp in components(subset):
        if len(comp) < 3:
            continue
        seen = set()
        stack = [(subset, tuple(comp), ())]
        while stack:
            cur, cpos, trace = stack.pop()
            key = (subset_key(cur), cpos)
            if key in seen:
                continue
            seen.add(key)
            norm = _triple_witness(cur, cpos)
            if norm is not None:
                out.append((comp, norm, trace))
                break
            if len(cpos) == 3:
                continue
            for h, s, t in reference_two_final_moves(cur, cpos):
                nxt = contract(cur, h, s, t)
                new_cpos = tuple(sorted(p if p < s else p - 1 for p in cpos if p != s))
                stack.append((nxt, new_cpos, trace + ((h, s, t),)))
    return out


def selfcheck_frontier():
    """Every subset the triple-expansion-stability suite expands, and one
    level further: m = 2..5, depth 3."""
    for m in (2, 3, 4, 5):
        frontier = [core_triple(m)]
        for _ in range(4):
            yield from frontier
            grown = []
            for subset in frontier:
                comp = components(subset)[0]
                grown += two_final_expansions(subset, comp)
            frontier = grown


def random_linear_subsets(count, seed):
    """Seeded linear subsets with entries in {-1, 0, 1}, n <= 5 and k <= 4,
    grown one random vector at a time."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(1, 5)
        k = rng.randint(1, min(4, n))
        vecs = []
        for _ in range(50):
            v = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
            if is_linear_subset(vecs + [v]):
                vecs.append(v)
                if len(vecs) == k:
                    made += 1
                    yield linear_subset(vecs, n)
                    break


def random_expanded_subsets(count, seed):
    """Seeded subsets with a bad component: a core triple (m = 2..4, up to
    two spare coordinates), up to three random 2-final expansions, then a
    random signed coordinate permutation."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 4)
        subset = core_triple(m, m + 2 + rng.randint(0, 2))
        for _ in range(rng.randint(0, 3)):
            subset = rng.choice(two_final_expansions(subset, components(subset)[0]))
        n = subset.ambient_rank
        perm = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        yield linear_subset([tuple(signs[j] * v[perm[j]] for j in range(n)) for v in subset.vectors], n)


def two_disjoint_triples():
    a, b = core_triple(2), core_triple(3)
    return linear_subset([v + (0,) * 5 for v in a.vectors] + [(0,) * 4 + v for v in b.vectors])


class TestLinearSubsets:
    def test_linear_subset_example(self):
        assert is_linear_subset([(1, 1, 0), (0, 1, -1), (-1, 1, 0)])

    def test_unit_vector_is_not_linear(self):
        assert not is_linear_subset([(1, 0)])

    def test_pairing_two_is_not_linear(self):
        assert not is_linear_subset([(1, 1, 0), (1, 1, 1)])

    def test_constructor_reports_reason(self):
        with pytest.raises(ValueError, match="norm"):
            linear_subset([(1, 0)])
        with pytest.raises(ValueError, match="adjacent pairing"):
            linear_subset([(1, 1, 0), (1, 1, 1)])

    def test_intersection_graph_of_triple(self):
        assert components(core_triple(2)) == ((0, 1, 2),)

    def test_two_separate_strings(self):
        subset = linear_subset([(1, 1, 0, 0), (0, 0, 1, 1)])
        assert len(components(subset)) == 2

    def test_single_vector(self):
        subset = linear_subset([(1, 1)])
        assert len(components(subset)) == 1


class TestMoves:
    def test_contract_rejects_coordinate_out_of_range(self):
        e = two_final_expansions(core_triple(2), (0, 1, 2))[0]
        for h in (-1, 99):
            with pytest.raises(ValueError, match="out of range"):
                contract(e, h, 3, 0)

    def test_contract_rejects_vector_index_out_of_range(self):
        e = two_final_expansions(core_triple(2), (0, 1, 2))[0]
        for s, t in ((-1, 0), (3, 4), (9, 0)):
            with pytest.raises(ValueError, match="out of range"):
                contract(e, 4, s, t)

    def test_expansion_rejects_index_outside_subset(self):
        with pytest.raises(ValueError, match="not a component"):
            two_final_expansions(core_triple(2), (5,))

    def test_expansion_rejects_part_of_a_component(self):
        with pytest.raises(ValueError, match="not a component"):
            two_final_expansions(core_triple(2), (0, 2))

    def test_contract_rejects_bad_coordinate(self):
        # coordinate 2 is used by all three vectors of the triple
        with pytest.raises(ValueError, match="support"):
            contract(core_triple(2), 2, 0, 1)

    def test_contract_rejects_big_coefficients(self):
        subset = linear_subset([(2, 0), (0, 3)], ambient_rank=2)
        with pytest.raises(ValueError, match="coefficient"):
            contract(subset, 0, 0, 1)

    def test_triple_has_exactly_two_expansions(self):
        triple = core_triple(2)
        expansions = two_final_expansions(triple, (0, 1, 2))
        assert len(expansions) == 2
        assert {e.vectors for e in expansions} == {EXPANSION_A, EXPANSION_B}

    def test_expansions_are_linear_subsets(self):
        for m in (2, 3, 4):
            triple = core_triple(m)
            for expanded in two_final_expansions(triple, (0, 1, 2)):
                assert is_linear_subset(expanded.vectors)

    def test_expansion_contracts_back(self):
        for m in (2, 3, 4):
            frontier = [core_triple(m)]
            for _ in range(2):
                grown = []
                for subset in frontier:
                    comp = components(subset)[0]
                    for expanded in two_final_expansions(subset, comp):
                        h = expanded.ambient_rank - 1
                        support = [i for i, v in enumerate(expanded.vectors) if v[h]]
                        assert len(support) == 2
                        s, t = support
                        if dot(expanded.vectors[s], expanded.vectors[s]) != 2:
                            s, t = t, s
                        back = contract(expanded, h, s, t)
                        assert subset_key(back) == subset_key(subset)
                        grown.append(expanded)
                frontier = grown

    def test_no_eligible_coordinate_gives_empty_list(self):
        # a full-cardinality single vector leaves no room to attach the new
        # norm-2 end: both signs clash with the forced pairing values
        stuck = linear_subset([(1, 1)])
        assert two_final_expansions(stuck, (0,)) == []
        # big coefficients block every move outright
        coarse = linear_subset([(2,)])
        assert two_final_expansions(coarse, (0,)) == []

    def test_every_contractible_subset_is_reached_by_expansion(self):
        # converse inverse direction: scramble an expanded subset by a signed
        # coordinate permutation, contract it, and recover it (up to signed
        # permutation) from the expansion enumeration of the contraction
        for scramble in (
            lambda v: (v[2], -v[0], v[4], -v[1], v[3]),
            lambda v: (-v[4], v[3], v[0], v[2], -v[1]),
        ):
            scrambled = linear_subset([scramble(v) for v in EXPANSION_A])
            # the removable coordinate is the unique one meeting two vectors
            h = next(
                j for j in range(5) if sum(1 for v in scrambled.vectors if v[j]) == 2
            )
            s, t = (i for i, v in enumerate(scrambled.vectors) if v[h])
            if dot(scrambled.vectors[s], scrambled.vectors[s]) != 2:
                s, t = t, s
            contracted = contract(scrambled, h, s, t)
            expansions = two_final_expansions(
                contracted, components(contracted)[0]
            )
            assert any(subset_key(e) == subset_key(scrambled) for e in expansions)

    def test_counts_stable_under_expansion(self):
        triple = core_triple(3)
        runs = components(triple)
        for expanded in two_final_expansions(triple, runs[0]):
            assert len(components(expanded)) == len(runs)
            assert len(detect_bad_components(expanded)) == len(detect_bad_components(triple)) == 1


class TestReferenceExpansions:
    """two_final_expansions returns the reference enumeration's list: the same
    vectors in the same order, for every component of every input."""

    @staticmethod
    def assert_same_on_every_component(subsets):
        for subset in subsets:
            for comp in components(subset):
                got = [e.vectors for e in two_final_expansions(subset, comp)]
                want = [e.vectors for e in reference_expansions(subset, comp)]
                assert got == want, (subset, comp)

    def test_selfcheck_frontier(self):
        self.assert_same_on_every_component(selfcheck_frontier())

    def test_spare_coordinates(self):
        self.assert_same_on_every_component(
            core_triple(m, m + 2 + spare) for m in (2, 3, 4, 5) for spare in (1, 2)
        )

    def test_two_disjoint_triples(self):
        self.assert_same_on_every_component([two_disjoint_triples()])

    def test_random_subsets(self):
        self.assert_same_on_every_component(random_linear_subsets(1200, seed=12))


REFERENCE_INPUTS = {
    "selfcheck_frontier": selfcheck_frontier,
    "spare_coordinates": lambda: (
        core_triple(m, m + 2 + spare) for m in (2, 3, 4, 5) for spare in (1, 2)
    ),
    "two_disjoint_triples": lambda: [two_disjoint_triples()],
    "random_subsets": lambda: random_linear_subsets(1200, seed=14),
    "random_expanded_subsets": lambda: random_expanded_subsets(300, seed=14),
    # a vector with a coefficient 2 blocks every contraction in the subset
    "big_coefficient": lambda: (
        linear_subset([v + (0,) for v in s.vectors] + [(0,) * s.ambient_rank + (2,)])
        for s in random_expanded_subsets(100, seed=15)
    ),
}


@pytest.mark.parametrize("family", REFERENCE_INPUTS)
class TestReferenceBadComponents:
    """detect_bad_components follows one forced contraction at a time and
    agrees with the reference search, which tries every contraction."""

    def test_same_bad_components(self, family):
        for subset in REFERENCE_INPUTS[family]():
            got = [(b.component, b.central_norm, b.trace) for b in detect_bad_components(subset)]
            assert got == reference_bad_components(subset), subset

    def test_at_most_one_move(self, family):
        # the lemma, on every component and on every state its moves reach
        for subset in REFERENCE_INPUTS[family]():
            for comp in components(subset):
                cur, cpos = subset, comp
                while True:
                    moves = reference_two_final_moves(cur, cpos)
                    assert len(moves) <= 1, (cur, cpos)
                    assert _two_final_move(cur, cpos) == (moves[0] if moves else None)
                    if not moves:
                        break
                    h, s, t = moves[0]
                    cur = contract(cur, h, s, t)
                    cpos = tuple(p - (p > s) for p in cpos if p != s)


class TestBadComponents:
    def test_core_triples(self):
        for m in (2, 3, 4, 5):
            bad = detect_bad_components(core_triple(m))
            assert len(bad) == 1
            assert bad[0].central_norm == m + 1
            assert bad[0].m == m

    def test_expanded_still_bad(self):
        triple = core_triple(2)
        for expanded in two_final_expansions(triple, (0, 1, 2)):
            bad = detect_bad_components(expanded)
            assert len(bad) == 1 and bad[0].central_norm == 3
            assert bad[0].trace  # one contraction recorded

    def test_all_twos_is_never_bad(self):
        chain = linear_subset(
            [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)], ambient_rank=4
        )
        assert detect_bad_components(chain) == []

    def test_b_at_most_c(self):
        subjects = [core_triple(2), core_triple(3)]
        subjects += two_final_expansions(core_triple(2), (0, 1, 2))
        subjects.append(linear_subset([(1, 1, 0, 0), (0, 0, 1, 1)]))
        for subset in subjects:
            assert len(detect_bad_components(subset)) <= len(components(subset))

    def test_complement_types(self):
        for m in (2, 3, 4):
            triple = core_triple(m)
            bad = detect_bad_components(triple)[0]
            complement = bad_component_complement(triple, bad)
            # rank (m + 2) - 3 with the chain of (m - 1) twos inside
            assert complement.rank == m - 1
            if m == 2:
                assert gram_of(complement).gram == ((2,),)

    def test_unused_coordinates_become_units(self):
        triple = core_triple(2, ambient_rank=6)
        bad = detect_bad_components(triple)[0]
        complement = bad_component_complement(triple, bad)
        assert complement.rank == 3  # chain of one two plus two unit vectors


def reference_stably_linear(embedded, target):
    """The route the Z^N check replaced: is the lattice (chain of target) +
    Z^k?  Its units are enumerated on its Gram matrix and split off in Gram
    coordinates (they pair to 0 with each other, by Cauchy-Schwarz); the rest
    is lifted to Z^N and must have the chain's rank, determinant and no
    units, and a chain basis among its enumerated short vectors."""
    gram = gram_of(embedded).gram
    units = enumerate_short_vectors(GramLattice(gram), 1).get(1, [])
    core = integer_kernel([[dot(row, u) for row in gram] for u in units], embedded.rank)
    cols = tuple(zip(*embedded.vectors))
    lifted = tuple(tuple(dot(x, col) for col in cols) for x in core)
    return chain_basis_for(lifted, target) is not None


def complement_is_stable(subset, bad):
    try:
        bad_component_complement(subset, bad)
    except RuntimeError:
        return False
    return True


def bad_components_with_controls():
    """Every bad component of the selfcheck frontier, of 2,000 expanded
    subsets and of two disjoint triples, then every 20th of them with its
    central norm one too high and one too low (above 2)."""
    subsets = [*selfcheck_frontier(), *random_expanded_subsets(2000, seed=7), two_disjoint_triples()]
    found = [(s, b) for s in subsets for b in detect_bad_components(s)]
    controls = [
        (s, BadComponent(b.component, norm, b.trace))
        for s, b in found[::20]
        for norm in (b.central_norm + 1, b.central_norm - 1)
        if norm > 2
    ]
    return found, controls


class TestComplementCheck:
    def test_agrees_with_the_gram_route(self):
        found, controls = bad_components_with_controls()
        assert len(found) == 2062 and len(controls) == 174
        # the lemma: every bad component passes both routes, and no wrong m does
        for cases, stable in ((found, True), (controls, False)):
            for subset, bad in cases:
                vectors = tuple(subset.vectors[i] for i in bad.component)
                complement = orthogonal_complement(EmbeddedLattice(subset.ambient_rank, vectors))
                reference = reference_stably_linear(complement, (2,) * (bad.m - 1))
                assert complement_is_stable(subset, bad) == reference == stable, (subset, bad)

    def test_enumerates_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the complement check reached the short-vector layer")

        for name in ("enumerate_short_vectors", "_ldl", "det"):
            monkeypatch.setattr(lattice, name, forbidden)
        for m in (2, 3, 4, 5):
            for subset in (core_triple(m), *two_final_expansions(core_triple(m), (0, 1, 2))):
                bad_component_complement(subset, detect_bad_components(subset)[0])

    def test_wrong_type_of_the_right_rank_raises(self):
        # the complement is span(1, 1, 1), of rank 1 but norm 3, not 2
        subset = linear_subset([(1, -1, 0), (0, -1, 1)])
        with pytest.raises(RuntimeError):
            bad_component_complement(subset, BadComponent((0, 1), 3, ()))

    def test_central_norm_one_too_high_raises(self):
        for m in (2, 3, 4, 5):
            with pytest.raises(RuntimeError):
                bad_component_complement(core_triple(m), BadComponent((0, 1, 2), m + 2, ()))


class TestCanonicalForm:
    def test_signed_permutation_equivalence(self):
        a = linear_subset([(1, 1, 0), (0, 1, 1)])
        b = linear_subset([(0, -1, 1), (1, -1, 0)])  # flip e2, swap e1 and e3
        assert canonical_matrix(a.vectors) == canonical_matrix(b.vectors)
        assert subset_key(a) == subset_key(b)

    def test_order_matters(self):
        # distinct norm sequences cannot be matched by any coordinate move
        a = linear_subset([(1, 1, 0, 0), (0, 1, 1, 1)])
        c = linear_subset([(0, 1, 1, 1), (1, 1, 0, 0)])
        assert subset_key(a) != subset_key(c)
