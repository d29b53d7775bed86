#!/usr/bin/env python3
"""Survey the ribbon-cobordism relation over all lens spaces with p <= P.

Prints every yes-pair with its witness tag and a summary of how the yes-set
splits across the three single-lens cases.  Useful for eyeballing how sparse
the relation is and for sanity-checking new search-engine changes.

It also runs the lattice condition on every pair: the ribbon embedding of
L2's chain whose complement is -L1's chain, for (L1, L2) and for the
reversed pair (-L1, -L2).  A ribbon cobordism needs both.  And it runs the
d-invariant pair test (``arith.d_obstruction``) on every pair whose orders
differ by a square factor, a third route to the same answer.  Five counts
close the output; they are printed, not asserted:

- one-sided gap: pairs that embed for (L1, L2) where the classifier says no;
- two-sided gap: pairs that embed in both orientations where the classifier
  says no (each is listed on a "G" line);
- theorem count: pairs that embed in both orientations where L2 is not
  homeomorphic to L1 and L1 is not S3, L(n,1) or L(n,n-1) (each is listed
  on a "T" line).  The paper's theorem says 0; anything else is a bug in
  the search or in the classifier;
- d gap: pairs where the d-invariant test and the classifier differ (each
  is listed on a "DG" line);
- d theorem count: pairs that pass the d-invariant test where L2 is not
  homeomorphic to L1 and L1 is not S3, L(n,1) or L(n,n-1) (each is listed
  on a "DT" line).  Again the theorem says 0.

A stdout that closes early or fills up ends the survey as it ends the CLI:
exit 74 with one "output error" line on stderr.  So does a bad budget in
RIBBONLENS_MAX_NODES or RIBBONLENS_MAX_SECONDS: exit 64 with one "usage
error" line.

Usage: python scripts/survey_ribbon_pairs.py [P] [--cache FILE]
"""

from __future__ import annotations

import argparse
import itertools
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ribbonlens.arith import d_obstruction, lens_homeomorphic, square_ratio_check
from ribbonlens.classify import ribbon_leq_lens
from ribbonlens.cli import EXIT_IOERR, EXIT_USAGE, cache_session, flush_standard_streams, print_lines
from ribbonlens.search import SearchBudget, two_sided_embeddings
from ribbonlens.selfcheck import all_lens_spaces


def survey(max_p: int, cache, budget: SearchBudget):
    """The survey's output lines, computed as they are consumed."""
    spaces = all_lens_spaces(max_p)
    t0 = time.monotonic()
    tags = {"T1": 0, "T2": 0, "T3": 0}
    counts = dict.fromkeys(("one-sided gap", "two-sided gap", "theorem count", "d gap", "d theorem count"), 0)
    inconclusive = 0
    for l1 in spaces:
        for l2 in spaces:
            verdict = ribbon_leq_lens(l1, l2, budget, cache)
            statuses = [outcome.status for outcome in two_sided_embeddings(l1, l2, cache=cache)]
            expired = budget.started().expired
            d = d_obstruction(l1.p, l1.q, l2.p, l2.q, expired) if square_ratio_check([l1], [l2]) else True
            if verdict.answer == "inconclusive" or "inconclusive" in statuses or d is None:
                inconclusive += 1
                yield f"?  {l1} <= {l2}"
                continue
            if verdict.yes:
                pair = verdict.witness[0]
                tags[pair.tag] += 1
                extra = f" n={pair.n}" if pair.n else ""
                yield f"Y  {l1} <= {l2}  [{pair.tag}{extra}]"
            two_sided = statuses == ["found", "found"]
            if not verdict.yes:
                counts["one-sided gap"] += statuses[0] == "found"
                if two_sided:
                    counts["two-sided gap"] += 1
                    yield f"G  {l1} <= {l2}"
            exotic = not lens_homeomorphic(l1, l2, oriented=False) and l1.q not in (0, 1, l1.p - 1)
            if two_sided and exotic:
                counts["theorem count"] += 1
                yield f"T  {l1} <= {l2}"
            if verdict.yes != (d is False):
                counts["d gap"] += 1
                yield f"DG {l1} <= {l2}"
            if d is False and exotic:
                counts["d theorem count"] += 1
                yield f"DT {l1} <= {l2}"
    total = len(spaces) ** 2
    yield (
        f"\n{total} ordered pairs in {time.monotonic() - t0:.1f}s: "
        f"{tags['T1']} equal, {tags['T2']} family, {tags['T3']} ball-filling, "
        f"{inconclusive} inconclusive"
    )
    for name, count in counts.items():
        yield f"{name}: {count}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("max_p", nargs="?", type=int, default=12)
    parser.add_argument("--cache", default=None)
    args = parser.parse_args()
    try:
        budget = SearchBudget.from_env()
    except ValueError as exc:
        # one line on stderr, dropped if stderr is closed
        print_lines([f"usage error: {exc}"], sys.stderr, None)
        return EXIT_USAGE

    # an unreadable or unwritable cache file costs a warning, as in the CLI;
    # the session saves what was found even if stdout failed
    with cache_session(args.cache, sys.stderr) as cache:
        loaded = [f"loaded {len(cache)} cache entries"] if args.cache else []
        written = print_lines(itertools.chain(loaded, survey(args.max_p, cache, budget)), sys.stdout, sys.stderr)
    return 0 if written else EXIT_IOERR


if __name__ == "__main__":
    code = main()
    flush_standard_streams()
    sys.exit(code)
