import ast
import itertools
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ribbonlens.arith import cf_expand, continuant
from ribbonlens.lattice import (
    _column_reduce,
    _floor_sqrt_minus,
    _ldl,
    chain_among,
    chain_basis_for,
    enumerate_short_vectors,
    in_span,
    integer_kernel,
    primitivity_test_saturation,
    saturation_index,
)
from ribbonlens.search import find_embedding, plain_problem

from reference import fraction_det, gram_of_rows


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def mat_mul(a, b):
    if not a or not b:
        return tuple(tuple() for _ in a)
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


@st.composite
def integer_matrices(draw, max_dim=5, lo=-6, hi=6):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    return tuple(
        tuple(draw(st.integers(min_value=lo, max_value=hi)) for _ in range(n))
        for _ in range(m)
    )


@st.composite
def sublattices(draw, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    k = draw(st.integers(min_value=1, max_value=n))
    rows = tuple(
        tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(n))
        for _ in range(k)
    )
    if len(_column_reduce(rows, n)[0]) != k:
        return rows[:0], n
    return rows, n


def random_unimodular(rng, n):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return freeze(rows)


def fraction_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions: the reference."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][j] / a[rank][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


class TestColumnReduction:
    def test_examples(self):
        assert _column_reduce(((2,),), 1) == ([2], [(1,)])
        assert _column_reduce(((2, 0), (0, 3)), 2) == ([2, 3], [(1, 0), (0, 1)])
        assert _column_reduce(((1, 1, 0),), 3) == ([1], [(1, 0, 0), (-1, 1, 0), (0, 0, 1)])
        assert _column_reduce((), 2) == ([], [(1, 0), (0, 1)])

    @given(integer_matrices())
    def test_triangularizes_unimodularly(self, matrix):
        pivots, v = _column_reduce(matrix, len(matrix[0]))
        r = len(pivots)
        assert r == fraction_rank(matrix)
        # V is unimodular and A V vanishes from the rank on, so those columns
        # of V span the kernel
        assert abs(fraction_det(tuple(zip(*v)))) == 1
        av = mat_mul(matrix, tuple(zip(*v)))
        assert all(row[j] == 0 for row in av for j in range(r, len(v)))
        if r == len(matrix):
            # independent rows: H is lower-triangular with the pivots on its diagonal
            assert all(av[i][j] == 0 for i in range(r) for j in range(i + 1, r))
            assert [av[i][i] for i in range(r)] == pivots
            if r == len(v):
                assert abs(math.prod(pivots)) == abs(fraction_det(matrix))

    @given(integer_matrices(max_dim=3, lo=-2, hi=2))
    def test_in_span_matches_brute_force(self, matrix):
        k, n = len(matrix), len(matrix[0])
        assume(k <= 2 and fraction_rank(matrix) == k)
        # by Cramer's rule on a nonsingular k x k minor, a combination that
        # lands in [-2, 2]^n has coefficients of size at most 8
        box = range(-8, 9)
        reach = {
            tuple(sum(c * row[j] for c, row in zip(coeffs, matrix)) for j in range(n))
            for coeffs in itertools.product(box, repeat=k)
        }
        for x in itertools.product(range(-2, 3), repeat=n):
            assert in_span(matrix, x) == (x in reach), x

    def test_in_span_rejects_dependent_rows(self):
        with pytest.raises(ValueError):
            in_span(((1, 2), (2, 4)), (1, 2))
        assert in_span((), (0, 0)) and not in_span((), (0, 1))


class TestComplementAndPrimitivity:
    def test_gram_examples(self):
        assert gram_of_rows(((1,),)) == ((1,),)
        assert gram_of_rows(((1, 1, 0), (0, 1, -1))) == ((2, 1), (1, 2))
        assert gram_of_rows(((2,),)) == ((4,),)

    def test_complement_examples(self):
        comp = integer_kernel(((1, 1),), 2)
        assert gram_of_rows(comp) == ((2,),)
        assert len(integer_kernel(((1,),), 1)) == 0

    def test_triple_complement_from_minimal_bad_component(self):
        # central norm 3 in ambient rank 4: complement is a single norm-2
        # vector, the chain of one two
        comp = integer_kernel(((0, 0, 1, 1), (1, 1, 1, 0), (0, 0, 1, -1)), 4)
        assert len(comp) == 1
        assert chain_basis_for(comp, (2,)) is not None

    def test_primitivity_examples(self):
        assert saturation_index(((2,),), 1) != 1
        assert saturation_index(((1, 1),), 2) == 1

    @given(sublattices())
    def test_two_routes_agree(self, lattice):
        rows, n = lattice
        assert (saturation_index(rows, n) == 1) == primitivity_test_saturation(rows, n)

    @given(sublattices())
    def test_complements_are_primitive(self, lattice):
        rows, n = lattice
        comp = integer_kernel(rows, n)
        assert saturation_index(comp, n) == 1
        assert primitivity_test_saturation(comp, n)

    @given(sublattices())
    def test_double_complement_is_saturation(self, lattice):
        rows, n = lattice
        sat = integer_kernel(integer_kernel(rows, n), n)
        assert len(sat) == len(rows)
        # the saturation contains the lattice; primitivity means equality
        for v in rows:
            assert in_span(sat, v)
        if saturation_index(rows, n) == 1:
            for v in sat:
                assert in_span(rows, v)

    def test_full_rank_primitive_is_everything(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                u = random_unimodular(rng, n)
                assert saturation_index(u, n) == 1
                assert all(in_span(u, tuple(int(i == j) for j in range(n))) for i in range(n))

    def test_kernel_of_nothing_is_everything(self):
        assert integer_kernel((), 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def reference_short_vectors(gram, bound, tick=None):
    """The recursive enumeration the explicit-stack walk replaced, with its
    norms recomputed from the Gram matrix: the reference for order and ticks."""
    n = len(gram)
    if n == 0:
        return {}
    c, u = _ldl(gram)
    out = []
    x = [0] * n

    def descend(i, remaining, all_zero_above):
        if tick is not None:
            tick()
        if i < 0:
            if not all_zero_above:
                out.append(tuple(x))
            return
        s = sum(u[i][j] * x[j] for j in range(i + 1, n))
        r = remaining / c[i]
        hi = _floor_sqrt_minus(r, s)
        lo = 0 if all_zero_above else -_floor_sqrt_minus(r, -s)
        for value in range(hi, lo - 1, -1):
            x[i] = value
            spent = c[i] * (value + s) * (value + s)
            descend(i - 1, remaining - spent, all_zero_above and value == 0)
        x[i] = 0

    descend(n - 1, Fraction(bound), True)
    by_norm = {}
    for v in out:
        norm = sum(v[i] * sum(gram[i][j] * v[j] for j in range(n)) for i in range(n))
        by_norm.setdefault(norm, []).append(v)
    return by_norm


def seeded_lattices():
    """Gram matrices of rank <= 6: conjugated chain lattices' and random
    positive-definite ones."""
    rng = random.Random(9)
    lattices = []
    for terms in [(2,), (3,), (2, 2), (2, 3), (4, 2, 2), (2, 2, 2), (5, 3), (2, 2, 3, 2, 3), (2, 3, 2, 2, 4, 2)]:
        for _ in range(3):
            u = random_unimodular(rng, len(terms))
            lattices.append(freeze(mat_mul(mat_mul(u, chain_gram(terms)), tuple(zip(*u)))))
    while len(lattices) < 60:
        n = rng.randint(1, 6)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = rng.randint(1, 6)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-2, 2)
        if all(fraction_det([row[:k] for row in gram[:k]]) > 0 for k in range(1, n + 1)):
            lattices.append(freeze(gram))
    return lattices


def recursion_headroom(frames):
    """A recursion limit that leaves the caller only the given number of frames."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth + frames


class TestShortVectors:
    def test_examples(self):
        assert enumerate_short_vectors(((2,),), 2) == {2: [(1,)]}
        assert enumerate_short_vectors(((1, 0), (0, 1)), 1) == {1: [(0, 1), (1, 0)]}
        assert enumerate_short_vectors(((1, 0), (0, 1)), 2) == {
            2: [(1, 1), (-1, 1)],
            1: [(0, 1), (1, 0)],
        }
        found = enumerate_short_vectors(((2, 1), (1, 2)), 2)
        assert found == {2: [(0, 1), (-1, 1), (1, 0)]}
        assert enumerate_short_vectors((), 5) == {}

    def test_tick_meets_every_enumeration_node(self):
        # x = 1 and x = 0 under the root; x = 0 is the zero vector, dropped
        ticks = []
        assert enumerate_short_vectors(((2,),), 2, lambda: ticks.append(1)) == {2: [(1,)]}
        assert len(ticks) == 3

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            enumerate_short_vectors(((0, 1), (1, 0)), 2)
        with pytest.raises(ValueError):
            enumerate_short_vectors(((-2,),), 2)

    def test_rejects_a_matrix_that_is_no_gram_matrix(self):
        with pytest.raises(ValueError, match="square"):
            enumerate_short_vectors(((2, 1),), 2)
        with pytest.raises(ValueError, match="square"):
            enumerate_short_vectors(((2, 1), (1,)), 2)
        with pytest.raises(ValueError, match="symmetric"):
            enumerate_short_vectors(((2, 1), (0, 2)), 2)

    @given(st.integers(min_value=1, max_value=12))
    def test_counts_on_square_lattice(self, bound):
        # Z^2 norms are sums of two squares; count one vector per +/- pair
        by_norm = enumerate_short_vectors(((1, 0), (0, 1)), bound)
        found = [v for vs in by_norm.values() for v in vs]
        assert all(x * x + y * y == norm for norm, vs in by_norm.items() for x, y in vs)
        brute = set()
        for x in range(-4, 5):
            for y in range(-4, 5):
                if (x, y) != (0, 0) and x * x + y * y <= bound:
                    brute.add(max((x, y), (-x, -y)))
        assert len(found) == len(brute)
        assert {max(v, tuple(-c for c in v)) for v in found} == brute

    def test_matches_the_recursive_walk(self):
        # same buckets, same keys in the same order, same lists, same ticks
        for gram in seeded_lattices():
            for bound in range(9):
                ticks, reference_ticks = [], []
                found = enumerate_short_vectors(gram, bound, lambda: ticks.append(1))
                reference = reference_short_vectors(gram, bound, lambda: reference_ticks.append(1))
                assert list(found.items()) == list(reference.items()), (gram, bound)
                assert len(ticks) == len(reference_ticks), (gram, bound)

    def test_rank_sixty_under_a_low_recursion_limit(self):
        identity = freeze([[int(i == j) for j in range(60)] for i in range(60)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(recursion_headroom(30))
        try:
            units = enumerate_short_vectors(identity, 1)
        finally:
            sys.setrecursionlimit(limit)
        assert list(units) == [1] and len(units[1]) == 60


def test_nothing_in_the_package_recurses():
    """No function, nested ones included, calls itself by name or via self."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "ribbonlens"
    recursive = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                by_name = isinstance(f, ast.Name) and f.id == node.name
                by_self = (
                    isinstance(f, ast.Attribute)
                    and f.attr == node.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "self"
                )
                if by_name or by_self:
                    recursive.append(f"{path.name}:{call.lineno} {node.name}")
    assert recursive == []


# definitions that something outside the repository's code calls by name
CALLED_FROM_OUTSIDE = {
    "_Parser.error": "argparse calls it when parsing fails",
    "verdict_from_json": "README documents it as the parser of the verdict JSON",
}


def test_every_definition_in_the_package_is_referenced():
    """Every function, class and method in the package is named somewhere
    else in src/, scripts/ or perfbench/: as a name, an attribute, an import
    (a re-export in ribbonlens/__init__.py is the public API) or a string
    (getattr-style lookups).  A name only tests call is dead code, so tests/
    is not scanned.  Dunder methods are called by Python itself."""
    root = pathlib.Path(__file__).resolve().parents[1]
    defined = []
    for path in sorted((root / "src" / "ribbonlens").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(tree, "")]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((f"{prefix}{node.name}", node.name, f"{path.name}:{node.lineno}"))
                    scopes.append((node, f"{prefix}{node.name}."))
                else:
                    scopes.append((node, prefix))
    referenced = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    referenced.add(node.value)
    unreferenced = [
        f"{where} {qualified}"
        for qualified, name, where in defined
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))
        and qualified not in CALLED_FROM_OUTSIDE
    ]
    assert unreferenced == []


def chain_gram(terms):
    n = len(terms)
    return freeze(
        [[terms[i] if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    )


def chain_rows(terms):
    """The chain of the string as rows of Z^N: find_embedding's certificate
    for it beside the chain of its dual string, which fills out Z^N."""
    p, q = continuant(terms), continuant(terms[1:])
    problem = plain_problem([terms, cf_expand(Fraction(p, p - q))])
    groups = find_embedding(problem).certificate.groups
    return tuple(tuple(dict(v).get(k, 0) for k in range(problem.ambient_rank)) for v in groups[0])


def conjugated_chain(terms, rng):
    """A Z^N basis of the chain lattice of the string: its rows, mixed by a
    random unimodular matrix."""
    return freeze(mat_mul(random_unimodular(rng, len(terms)), chain_rows(terms)))


class TestChainAmong:
    def test_examples(self):
        # the second vector takes the sign that pairs it to 1 with the first
        assert chain_among({2: [(1, -1, 0), (0, 1, -1)]}, (2, 2)) == ((1, -1, 0), (0, -1, 1))
        assert chain_among({2: [(1, -1, 0), (0, 0, 2)]}, (2, 2)) is None
        assert chain_among({2: [(1, -1, 0)]}, (2, 3)) is None
        assert chain_among({}, ()) == ()

    def test_ticks_on_entry_and_per_vector_placed(self):
        ticks = []
        by_norm = {2: [(1, -1, 0), (0, 1, -1)]}
        assert chain_among(by_norm, (2, 2), lambda: ticks.append(1)) is not None
        assert len(ticks) == 3
        ticks.clear()
        assert chain_among({2: [(1, -1, 0)]}, (2, 3), lambda: ticks.append(1)) is None
        assert ticks == []


class TestRecognition:
    def test_examples(self):
        assert chain_basis_for(((1, 1, 0), (0, 1, 1)), (2, 2)) is not None
        assert chain_basis_for(((1, 1, 1),), (3,)) == ((1, 1, 1),)
        assert chain_basis_for(((1, 1, 0, 0), (0, 0, 1, 1)), (2, 2)) is None
        assert chain_basis_for((), ()) == ()
        with pytest.raises(ValueError):
            chain_basis_for(((1, 1, 0), (2, 2, 0)), (2, 2))

    @given(st.sampled_from([(2, 2), (3,), (2, 3), (4, 2, 2), (2, 2, 2), (5, 3)]), st.integers(0, 2**30))
    def test_invariant_under_unimodular_conjugation(self, terms, seed):
        basis = conjugated_chain(terms, random.Random(seed))
        assert chain_basis_for(basis, terms) is not None

    @given(st.sampled_from([(2, 2), (3,), (2, 3), (4, 2, 2), (2, 2, 2), (5, 3)]), st.integers(0, 2**30))
    def test_one_search_decides_both_orientations(self, terms, seed):
        # read backwards, a basis for either string is one for the other
        rows = conjugated_chain(terms, random.Random(seed))
        for string in (terms, terms[::-1]):
            basis = chain_basis_for(rows, string)
            assert basis is not None
            assert gram_of_rows(basis[::-1]) == chain_gram(string[::-1])
            # the chain is written in Z^N, inside the lattice the rows span
            assert all(in_span(rows, v) for v in basis)

    @given(st.integers(2, 3), st.integers(0, 2**30))
    def test_no_basis_for_a_string_means_none_for_its_reverse(self, n, seed):
        rng = random.Random(seed)
        rows = freeze([[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(n)])
        assume(fraction_rank(rows) == n)
        gram_det = fraction_det(gram_of_rows(rows))
        for terms in itertools.product(range(2, 7), repeat=n):
            if continuant(terms) == gram_det:
                found = chain_basis_for(rows, terms) is not None
                assert found == (chain_basis_for(rows, terms[::-1]) is not None), terms

    def test_conjugated_rank_five_chain(self):
        # a rank-5 chain the unpruned search needed minutes to recognize
        terms = (2, 2, 3, 2, 3)
        basis = conjugated_chain(terms, random.Random(5))
        assert gram_of_rows(basis) != chain_gram(terms) and fraction_det(gram_of_rows(basis)) == 26
        assert chain_basis_for(basis, terms) is not None

    def test_a_chain_that_does_not_span_is_refused(self):
        # A2 (determinant 3) holds the (2, 14) chain (1, -1, 0), (-1, -2, 3)
        # of determinant 27, so of index 3 in A2: no (2, 14) chain spans it
        a2 = ((1, -1, 0), (0, 1, -1))
        chain = ((1, -1, 0), (-1, -2, 3))
        assert gram_of_rows(chain) == chain_gram((2, 14)) and all(in_span(a2, v) for v in chain)
        assert chain_basis_for(a2, (2, 14)) is None

    def test_chain_basis_for_targets(self):
        a3 = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1))
        assert chain_basis_for(a3, (2, 2, 2)) is not None
        assert chain_basis_for(a3, (2, 2)) is None
        assert chain_basis_for(a3, (2, 2, 3)) is None
