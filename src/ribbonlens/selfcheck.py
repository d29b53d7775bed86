"""Cross-validation suites behind `ribbonlens selfcheck` and the acceptance tests.

Each suite checks one exactness property of the package at desk scale:
round trips, two-route agreements, move stability, converse constructions,
classifier/search agreement, oracle invariances, witness replay and frozen
CLI transcripts.  All checks are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import io
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import cli, search
from .arith import LensSpace, cf_evaluate, cf_expand, fn_membership, lens_normalize, square_index
from .classify import ConnectedSum, ribbon_leq_lens, ribbon_leq_sum, replay_witness
from .lattice import EmbeddedLattice, orthogonal_complement, primitivity_test, primitivity_test_saturation
from .subsets import (
    bad_component_complement,
    components,
    core_triple,
    detect_bad_components,
    two_final_expansions,
)

GOLDEN_COMMANDS: dict[str, list[str]] = {
    "ribbon-2-1-8-5": ["--format", "json", "ribbon", "2/1", "8/5"],
    "ribbon-8-5-2-1": ["--format", "json", "ribbon", "8/5", "2/1"],
    "cf-7-4": ["--format", "json", "cf", "7/4"],
    "in-r-4-3": ["--format", "json", "in-r", "4/3"],
    "ribbon-sum-s3-7-4-7-3": ["--format", "json", "ribbon-sum", "", "7/4,7/3"],
}

SEED = 20260808
PRIMITIVITY_SAMPLES = 200
REPLAY_SAMPLES = 60
TRIPLE_DEPTH = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _coprime_fractions(max_p: int):
    for p in range(2, max_p + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def all_lens_spaces(max_p: int) -> list[LensSpace]:
    """S^3 plus every normalized L(p, q) with p up to the bound."""
    return [LensSpace(1, 0)] + [lens_normalize(p, q) for p, q in _coprime_fractions(max_p)]


def check_cf_round_trip(max_p: int = 200) -> tuple[bool, str]:
    count = 0
    for p, q in _coprime_fractions(max_p):
        terms = cf_expand(Fraction(p, q))
        if any(a < 2 for a in terms) or cf_evaluate(terms) != Fraction(p, q):
            return False, f"round trip failed at {p}/{q}"
        count += 1
    return True, f"{count} fractions round-tripped, all terms >= 2"


def check_primitivity_routes() -> tuple[bool, str]:
    rng = random.Random(SEED)
    accepted = 0
    while accepted < PRIMITIVITY_SAMPLES:
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)
        )
        try:
            embedded = EmbeddedLattice(n, rows)
        except ValueError:  # dependent rows
            continue
        via_pivots = primitivity_test(embedded)
        via_sat = primitivity_test_saturation(embedded)
        if via_pivots != via_sat:
            return False, f"routes disagree on {rows}"
        complement = orthogonal_complement(embedded)
        if not primitivity_test(complement) or not primitivity_test_saturation(complement):
            return False, f"complement of {rows} is not primitive"
        accepted += 1
    return True, f"{PRIMITIVITY_SAMPLES} sublattices agreed on both primitivity routes"


def check_triple_stability() -> tuple[bool, str]:
    checked = 0
    for m in (2, 3, 4, 5):
        frontier = [core_triple(m)]
        for _ in range(TRIPLE_DEPTH):
            grown = []
            for subset in frontier:
                runs = components(subset)
                for expanded in two_final_expansions(subset, runs[0]):
                    if len(components(expanded)) != len(runs):
                        return False, f"component count changed at m={m}"
                    bad = detect_bad_components(expanded)
                    if len(bad) != 1 or bad[0].central_norm != m + 1:
                        return False, f"bad-component count broke at m={m}"
                    bad_component_complement(expanded, bad[0])  # raises if unstable
                    grown.append(expanded)
                    checked += 1
            frontier = grown
    return True, f"{checked} expanded subsets kept the stable complement type"


def check_family_converse() -> tuple[bool, str]:
    checked = 0
    for n in (2, 3, 4):
        for m in (2, 3):
            for k in range(1, m):
                if gcd(m, k) != 1:
                    continue
                p, q = n * m * m, n * m * k + 1
                f = Fraction(p, q)
                witnesses = fn_membership(f)
                if not any(w == (n, m, k) for w in witnesses):
                    return False, f"missing witness ({n},{m},{k}) for {f}"
                verdict = ribbon_leq_lens(lens_normalize(n, 1), lens_normalize(p, q))
                if not verdict.yes or verdict.witness[0].tag != "T2" or verdict.witness[0].n != n:
                    return False, f"classifier missed L({n},1) <= L({p},{q})"
                outcome = search.find_ribbon_embedding((2,) * (n - 1), cf_expand(f))
                if not outcome.found:
                    return False, f"no constrained embedding for L({n},1) <= L({p},{q})"
                problem = search.ribbon_problem((2,) * (n - 1), cf_expand(f))
                if not search.verify_certificate(problem, outcome.certificate):
                    return False, f"certificate failed verification for {f}"
                checked += 1
    return True, f"{checked} family members verified end to end"


def check_oracle_classifier_agreement(max_p: int = 12) -> tuple[bool, str]:
    # the classifier says yes exactly when both embeddings of the two-sided
    # lattice condition exist
    spaces = all_lens_spaces(max_p)
    pairs = 0
    yes_pairs = 0
    for l1 in spaces:
        for l2 in spaces:
            verdict = ribbon_leq_lens(l1, l2)
            outcomes = search.two_sided_embeddings(l1, l2)
            if verdict.answer == "inconclusive" or any(o.status == "inconclusive" for o in outcomes):
                return False, f"inconclusive at ({l1}, {l2}); budgets are undersized"
            if verdict.yes != all(o.found for o in outcomes):
                embeds = "does not embed" if verdict.yes else "embeds"
                return False, f"classifier {verdict.answer} but {embeds} in both orientations at ({l1}, {l2})"
            yes_pairs += verdict.yes
            pairs += 1
    return True, f"{pairs} ordered pairs agreed in both orientations ({yes_pairs} yes instances)"


def check_r_oracle_invariance(max_p: int = 36) -> tuple[bool, str]:
    outcomes: dict[tuple[int, int], str] = {}
    for p, q in _coprime_fractions(max_p):
        result = search.r_membership(Fraction(p, q))
        if result.outcome == "inconclusive":
            return False, f"inconclusive at {p}/{q}; budgets are undersized"
        outcomes[(p, q)] = result.outcome
    members = 0
    for (p, q), outcome in outcomes.items():
        inv = pow(q, -1, p)
        if outcome != outcomes[(p, inv)]:
            return False, f"not invariant under inversion at {p}/{q}"
        if outcome != outcomes[(p, p - q)]:
            return False, f"not invariant under reversal at {p}/{q}"
        if outcome == "member":
            members += 1
            if square_index(1, p) is None:
                return False, f"member with non-square order at {p}/{q}"
    return True, f"{len(outcomes)} fractions invariant ({members} members)"


def _yes_generators(max_p: int) -> list[tuple[ConnectedSum, ConnectedSum]]:
    spaces = [lens for lens in all_lens_spaces(max_p) if not lens.is_s3]
    pairs: list[tuple[ConnectedSum, ConnectedSum]] = []
    for lens in spaces:
        pairs.append((ConnectedSum.of(lens), ConnectedSum.of(lens)))
    for n in (2, 3):
        for m in (2,):
            p, q = n * m * m, n * m + 1
            if p <= max_p:
                pairs.append((ConnectedSum.of(lens_normalize(n, 1)), ConnectedSum.of(lens_normalize(p, q))))
    for lens in spaces:
        result = search.r_membership(lens.fraction())
        if result.outcome == "member":
            pairs.append((ConnectedSum.of(), ConnectedSum.of(lens)))
    for lens in spaces[: max_p]:
        pairs.append((ConnectedSum.of(), ConnectedSum.of(lens, lens.reverse())))
    if max_p >= 8:
        l85 = lens_normalize(8, 5)
        pairs.append((ConnectedSum.of(), ConnectedSum.of(lens_normalize(2, 1), l85)))
        pairs.append((ConnectedSum.of(), ConnectedSum.of(l85.reverse(), l85)))
        pairs.append((ConnectedSum.of(), ConnectedSum.of(l85, l85)))
    return pairs


def check_witness_replay(max_p: int = 12) -> tuple[bool, str]:
    generators = _yes_generators(max_p)
    yes_checked = 0
    for y1, y2 in generators:
        verdict = ribbon_leq_sum(y1, y2)
        if not verdict.yes:
            return False, f"expected yes for ({y1}, {y2})"
        if replay_witness(verdict) != (y1, y2):
            return False, f"witness does not replay for ({y1}, {y2})"
        yes_checked += 1
    rng = random.Random(SEED)
    for _ in range(REPLAY_SAMPLES):
        a1, b1 = rng.choice(generators)
        a2, b2 = rng.choice(generators)
        if len(a1.summands) + len(a2.summands) > 3 or len(b1.summands) + len(b2.summands) > 3:
            continue
        composed1 = ConnectedSum.of(*(a1.summands + a2.summands))
        composed2 = ConnectedSum.of(*(b1.summands + b2.summands))
        verdict = ribbon_leq_sum(composed1, composed2)
        if not verdict.yes:
            return False, f"composition not yes: ({composed1}, {composed2})"
        if replay_witness(verdict) != (composed1, composed2):
            return False, f"composition witness broken: ({composed1}, {composed2})"
        yes_checked += 1
    # random pairs: any yes must replay
    spaces = [lens for lens in all_lens_spaces(max_p) if not lens.is_s3]
    for _ in range(REPLAY_SAMPLES):
        y1 = ConnectedSum.of(*(rng.choice(spaces) for _ in range(rng.randint(0, 2))))
        y2 = ConnectedSum.of(*(rng.choice(spaces) for _ in range(rng.randint(0, 3))))
        verdict = ribbon_leq_sum(y1, y2)
        if verdict.answer == "inconclusive":
            return False, f"inconclusive at ({y1}, {y2})"
        if verdict.yes and replay_witness(verdict) != (y1, y2):
            return False, f"random witness broken: ({y1}, {y2})"
    return True, f"{yes_checked} yes-verdicts replayed, compositions stayed yes"


def golden_path(name: str):
    from importlib.resources import files

    return files("ribbonlens") / "golden" / f"{name}.json"


def render_golden(name: str) -> bytes:
    out = io.StringIO()
    code = cli.run(GOLDEN_COMMANDS[name], stdout=out, stderr=out)
    if code not in (0, 1, 2):
        raise RuntimeError(f"golden command {name} exited {code}")
    return out.getvalue().encode()


def check_golden_transcripts() -> tuple[bool, str]:
    for name in GOLDEN_COMMANDS:
        expected = golden_path(name).read_bytes()
        actual = render_golden(name)
        if actual != expected:
            return False, f"transcript drifted for {name}"
    return True, f"{len(GOLDEN_COMMANDS)} transcripts byte-identical"


CRITERIA = (
    ("cf-round-trip", check_cf_round_trip, "max_p"),
    ("primitivity-two-routes", check_primitivity_routes, None),
    ("triple-expansion-stability", check_triple_stability, None),
    ("family-converse", check_family_converse, None),
    ("oracle-classifier-agreement", check_oracle_classifier_agreement, "max_p"),
    ("r-oracle-invariance", check_r_oracle_invariance, "max_p"),
    ("witness-replay-monotonicity", check_witness_replay, "max_p"),
    ("golden-transcripts", check_golden_transcripts, None),
)


def run_all(max_p: int | None = None) -> list[CheckResult]:
    results = []
    for name, func, takes_scale in CRITERIA:
        start = time.monotonic()
        try:
            if takes_scale and max_p is not None:
                passed, detail = func(max_p)
            else:
                passed, detail = func()
        except Exception as exc:  # a crash is a failed check, not a crashed CLI
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.monotonic() - start))
    return results
