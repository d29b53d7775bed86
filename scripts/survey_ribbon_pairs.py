#!/usr/bin/env python3
"""Survey the ribbon-cobordism relation over all lens spaces with p <= P.

Prints every yes-pair with its witness tag and a summary of how the yes-set
splits across the three single-lens cases.  Useful for eyeballing how sparse
the relation is and for sanity-checking new search-engine changes.

Usage: python scripts/survey_ribbon_pairs.py [P] [--cache FILE]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ribbonlens.classify import ribbon_leq_lens
from ribbonlens.cli import cache_session
from ribbonlens.selfcheck import all_lens_spaces


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("max_p", nargs="?", type=int, default=12)
    parser.add_argument("--cache", default=None)
    args = parser.parse_args()

    # an unreadable or unwritable cache file costs a warning, as in the CLI
    with cache_session(args.cache, sys.stderr) as cache:
        if args.cache:
            print(f"loaded {len(cache)} cache entries")
        spaces = all_lens_spaces(args.max_p)
        t0 = time.monotonic()
        tags = {"T1": 0, "T2": 0, "T3": 0}
        inconclusive = 0
        for l1 in spaces:
            for l2 in spaces:
                verdict = ribbon_leq_lens(l1, l2, cache=cache)
                if verdict.answer == "inconclusive":
                    inconclusive += 1
                    print(f"?  {l1} <= {l2}")
                elif verdict.yes:
                    pair = verdict.witness[0]
                    tags[pair.tag] += 1
                    extra = f" n={pair.n}" if pair.n else ""
                    print(f"Y  {l1} <= {l2}  [{pair.tag}{extra}]")
        total = len(spaces) ** 2
        print(
            f"\n{total} ordered pairs in {time.monotonic() - t0:.1f}s: "
            f"{tags['T1']} equal, {tags['T2']} family, {tags['T3']} ball-filling, "
            f"{inconclusive} inconclusive"
        )


if __name__ == "__main__":
    main()
