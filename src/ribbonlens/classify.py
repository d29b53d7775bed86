"""Decision procedures for ribbon rational homology cobordisms.

Answers whether one (connected sum of) lens space(s) admits a ribbon
rational homology cobordism to another, and the induced question for ribbon
chi-concordance of 2-bridge links through the branched double cover
dictionary.  Every yes comes with a replayable decomposition witness; every
no names the obstruction; oracle-dependent branches degrade to
"inconclusive" instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from . import search
from .arith import (
    FnWitness,
    LensSpace,
    fn_membership,
    lens_homeomorphic,
    square_ratio_check,
)

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConnectedSum:
    """Multiset of lens-space summands; the empty sum is the 3-sphere."""

    summands: tuple[LensSpace, ...]

    def __post_init__(self) -> None:
        # the normal form: S^3 summands stripped, the rest sorted
        object.__setattr__(self, "summands", tuple(sorted(lens for lens in self.summands if not lens.is_s3)))

    @classmethod
    def of(cls, *summands: LensSpace) -> ConnectedSum:
        return cls(summands)

    @property
    def is_s3(self) -> bool:
        return not self.summands

    def reverse(self) -> ConnectedSum:
        return ConnectedSum.of(*(lens.reverse() for lens in self.summands))

    def __str__(self) -> str:
        return "S3" if self.is_s3 else "#".join(str(lens) for lens in self.summands)


@dataclass(frozen=True)
class PairType:
    """One decomposition summand of a ribbon cobordism, tagged T1 through T7.

    ``reversed`` records that the defining condition holds after reversing
    the orientation of both sides of this pair simultaneously.
    """

    tag: str
    left: tuple[LensSpace, ...]
    right: tuple[LensSpace, ...]
    reversed: bool = False
    n: int | None = None
    witness: FnWitness | None = None


@dataclass(frozen=True)
class Verdict:
    answer: str
    witness: tuple[PairType, ...] = ()
    obstruction: str | None = None
    oracle_trace: tuple[tuple[str, str], ...] = ()

    @property
    def yes(self) -> bool:
        return self.answer == YES


def _is_ln1(lens: LensSpace) -> int | None:
    """The n >= 2 with lens oriented-homeomorphic to L(n, 1), if any."""
    if not lens.is_s3 and lens.q == 1:
        return lens.p
    return None


def _fn_witness(lens: LensSpace) -> FnWitness | None:
    """The unique square-multiple family witness of the lens fraction, if any."""
    f = lens.fraction()
    witnesses = fn_membership(f) if f is not None else ()
    return witnesses[0] if witnesses else None


def _first_pair_option(a: LensSpace, b: LensSpace) -> PairType | None:
    """The first T1/T2 pairing consuming the left summand a against the right
    summand b, if any; every such pairing leaves the same subproblem."""
    if lens_homeomorphic(a, b, oriented=True):
        return PairType("T1", (a,), (b,))
    for rev in (False, True):
        aa, bb = (a, b) if not rev else (a.reverse(), b.reverse())
        n = _is_ln1(aa)
        if n is None:
            continue
        wit = _fn_witness(bb)
        if wit is not None and wit.n == n:
            return PairType("T2", (a,), (b,), reversed=rev, n=n, witness=wit)
    return None


def ribbon_leq_lens(
    l1: LensSpace,
    l2: LensSpace,
    budget: search.SearchBudget | None = None,
    cache: search.EmbeddingCache | None = None,
) -> Verdict:
    """Is there a ribbon cobordism from one lens space to the other?

    The one-summand case of :func:`ribbon_leq_sum`: yes exactly when, up to
    simultaneous reversal, the spaces agree, or the source is L(n, 1) with the
    target fraction in the n-th square-multiple family, or the source is S^3
    and the target bounds a rational ball.  S^3 -> S^3 keeps an explicit T1
    piece, and a "no" past the necessary conditions is "no-matching-case".
    """
    if l1.is_s3 and l2.is_s3:
        return Verdict(YES, (PairType("T1", (l1,), (l2,)),))
    verdict = ribbon_leq_sum(ConnectedSum.of(l1), ConnectedSum.of(l2), budget=budget, cache=cache)
    if verdict.obstruction == "no-decomposition":
        return replace(verdict, obstruction="no-matching-case")
    return verdict


def two_summand_ball(m1: LensSpace, m2: LensSpace) -> Verdict:
    """Does the two-summand sum bound a ribbon rational homology ball, via one
    of the four sanctioned shapes (up to overall reversal and summand order)?

    Callers route summands that individually bound to the singleton case
    instead; this check is purely arithmetic.
    """
    if m1.is_s3 or m2.is_s3:
        raise ValueError("two-summand check needs nontrivial summands")
    pair = (m1, m2)
    # the mirror pair L(p,p-q) # L(p,q) (T4) and L(n,n-1) beside the n-th
    # family (T5) are the T1 and T2 pairings of -x with y
    for x, y in ((m1, m2), (m2, m1)):
        option = _first_pair_option(x.reverse(), y)
        if option is not None:
            tag = "T4" if option.tag == "T1" else "T5"
            return Verdict(YES, (replace(option, tag=tag, left=(), right=pair),))
    # fn(-m1) against fn(m2) and fn(-m2) against fn(m1); the reversed pair
    # asks the same two questions with the roles swapped
    for x, y in ((m1, m2), (m2, m1)):
        wit_x, wit_y = _fn_witness(x.reverse()), _fn_witness(y)
        if wit_x is not None and wit_y is not None and wit_x.n == wit_y.n:
            return Verdict(YES, (PairType("T6", (), pair, n=wit_x.n, witness=wit_y),))
    for rev in (False, True):
        a, b = pair if not rev else (m1.reverse(), m2.reverse())
        wit_a, wit_b = _fn_witness(a), _fn_witness(b)
        if wit_a is not None and wit_a.n == 2 and wit_b is not None and wit_b.n == 2:
            return Verdict(YES, (PairType("T7", (), pair, reversed=rev, n=2),))
    return Verdict(NO, obstruction="no-two-summand-shape")


def ribbon_leq_sum(
    y1: ConnectedSum,
    y2: ConnectedSum,
    budget: search.SearchBudget | None = None,
    cache: search.EmbeddingCache | None = None,
) -> Verdict:
    """Ribbon cobordism between connected sums, by exact decomposition matching.

    Every left summand must pair with a distinct right summand (T1/T2); the
    leftover right summands split into rational-ball singletons (T3) and
    two-summand shapes (T4-T7).  Each piece leaves a smaller subproblem, so a
    decomposition is a path from (y1, y2) to the empty pair, and a
    depth-first search enters each subproblem at most once.  The answer is
    yes when the empty pair is entered, with the path's pieces as witness;
    otherwise inconclusive when some piece had no subproblem because the
    oracle could not tell; otherwise no.  A spent budget (one node per
    subproblem entered, one clock for the whole call, shared with the ball
    oracle's searches) is inconclusive, never "no".
    """
    if not square_ratio_check(y1.summands, y2.summands):
        return Verdict(NO, obstruction="square-ratio")
    budget = (budget if budget is not None else search.SearchBudget.from_env()).started()

    calls: dict[str, str] = {}  # oracle outcome per fraction, in first-use order
    shapes: dict[tuple[LensSpace, LensSpace], tuple[PairType, ...]] = {}  # T4-T7 per pair

    def pieces(rem1: tuple[LensSpace, ...], rem2: tuple[LensSpace, ...]):
        """Each first piece of a decomposition, in search order: its witness
        and the subproblem it leaves, None when the oracle cannot tell."""
        if len(rem1) > len(rem2):
            return
        if rem1:  # T1/T2: the first left summand with a right one
            rest1, others = rem1[1:], rem2
        else:  # T3: the first right summand alone; T4-T7: with another
            b, rest1, others = rem2[0], (), rem2[1:]
            f = str(b.fraction())
            if f not in calls:
                calls[f] = search.r_membership(b.fraction(), budget=budget, cache=cache).outcome
            if calls[f] != "non-member":
                yield (PairType("T3", (), (b,)),), ((), others) if calls[f] == "member" else None
        for idx, c in enumerate(others):
            if idx and c == others[idx - 1]:
                continue
            if rem1:
                option = _first_pair_option(rem1[0], c)
                witness = (option,) if option is not None else ()
            else:
                if (b, c) not in shapes:
                    shapes[b, c] = two_summand_ball(b, c).witness
                witness = shapes[b, c]
            if witness:
                yield witness, (rest1, others[:idx] + others[idx + 1 :])

    # the path so far, one (piece witness, pieces left) per subproblem on it,
    # under a first entry that yields the whole problem; a subproblem already
    # seen was left without reaching the empty pair, so it is not entered
    # again, and each one entered costs one node
    stack: list = [((), iter([((), (y1.summands, y2.summands))]))]
    seen: set[tuple] = set()
    undecided = False
    while stack:
        step = next(stack[-1][1], None)
        if step is None:
            stack.pop()
            continue
        witness, sub = step
        undecided |= sub is None
        if sub is None or sub in seen:
            continue
        if len(seen) >= budget.max_nodes or budget.expired():
            trace = tuple(calls.items())
            return Verdict(INCONCLUSIVE, obstruction="decomposition-budget", oracle_trace=trace)
        if sub == ((), ()):
            path = tuple(piece for done, _ in stack for piece in done)
            return Verdict(YES, path + witness, oracle_trace=tuple(calls.items()))
        seen.add(sub)
        stack.append((witness, pieces(*sub)))

    trace = tuple(calls.items())
    if undecided:
        return Verdict(INCONCLUSIVE, obstruction="oracle-budget", oracle_trace=trace)
    return Verdict(NO, obstruction="no-decomposition", oracle_trace=trace)


def replay_witness(verdict: Verdict) -> tuple[ConnectedSum, ConnectedSum]:
    """Reassemble the two sums consumed by a yes-witness (for auditing)."""
    if not verdict.yes:
        raise ValueError("only yes-verdicts carry a replayable witness")
    left: list[LensSpace] = []
    right: list[LensSpace] = []
    for pair in verdict.witness:
        left.extend(pair.left)
        right.extend(pair.right)
    return ConnectedSum.of(*left), ConnectedSum.of(*right)


# -- 2-bridge links -------------------------------------------------------------


@dataclass(frozen=True)
class TwoBridgeLink:
    """2-bridge link K(p, q): a knot iff p is odd; K(1, 0) is the unknot.

    The branched double cover of K(p, q) is L(p, q); the mirror is K(p, p-q).
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        LensSpace(self.p, self.q)  # valid exactly when the double cover L(p, q) is

    @property
    def is_unknot(self) -> bool:
        return self.p == 1

    def double_cover(self) -> LensSpace:
        return LensSpace(self.p, self.q)

    def __str__(self) -> str:
        return "U" if self.is_unknot else f"K({self.p},{self.q})"


def chi_leq_bridge(
    k1: Iterable[TwoBridgeLink],
    k2: Iterable[TwoBridgeLink],
    budget: search.SearchBudget | None = None,
    cache: search.EmbeddingCache | None = None,
) -> Verdict:
    """Ribbon chi-concordance between connected sums of 2-bridge links.

    Translated through double branched covers: mirroring a link reverses the
    orientation of its cover, so single-link queries reduce to the lens-space
    decision and sums to the connected-sum decision.  The returned witness is
    phrased in lens-space pairs.
    """
    links1 = tuple(k1)
    links2 = tuple(k2)
    covers1 = [link.double_cover() for link in links1 if not link.is_unknot]
    covers2 = [link.double_cover() for link in links2 if not link.is_unknot]
    if len(covers1) <= 1 and len(covers2) <= 1:
        l1 = covers1[0] if covers1 else LensSpace(1, 0)
        l2 = covers2[0] if covers2 else LensSpace(1, 0)
        return ribbon_leq_lens(l1, l2, budget=budget, cache=cache)
    return ribbon_leq_sum(
        ConnectedSum.of(*covers1), ConnectedSum.of(*covers2), budget=budget, cache=cache
    )
