"""Record the reference decisions the benchmark checks every answer against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the classifier answer and embedding status of
every sweep pair, the oracle outcome of every fraction, the pool of CLI
queries the queries workload draws from (each with its exit code and
decision), and pass or fail for each selfcheck suite.  Only decisions are
kept, never node counts or certificate bytes, so a faster engine that visits
other nodes or finds another certificate still matches.  Re-record only when
a decision is meant to change, and say why in the change.
"""

from __future__ import annotations

import io
import json
import random
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from ribbonlens import classify, cli, search, selfcheck  # noqa: E402
from ribbonlens.arith import cf_expand  # noqa: E402

POOL_SEED = 20201014


def _coprime(rng: random.Random, p: int) -> int:
    while True:
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            return q


def _tok(p: int, q: int, reverse: bool = False) -> str:
    return ("-" if reverse else "") + f"{p}/{q}"


def _small(rng: random.Random, max_p: int = 12) -> tuple[int, int]:
    p = rng.randint(2, max_p)
    return p, _coprime(rng, p)


def _large(rng: random.Random) -> tuple[int, int, int]:
    """n and a fraction p/q with p = n*m^2 in [10^9, 2*10^9]; half of them
    lie in the n-th square-multiple family, so the family test has both
    answers."""
    n = rng.randint(2, 5)
    m = rng.randint(isqrt(10**9 // n) + 1, isqrt(2 * 10**9 // n))
    p = n * m * m
    if rng.random() < 0.5:
        return n, p, _coprime(rng, p)
    k = rng.randrange(1, m)
    while gcd(m, k) != 1:
        k = rng.randrange(1, m)
    return n, p, n * m * k + 1


def _chain(p: int, q: int) -> str:
    return ",".join(str(a) for a in cf_expand(Fraction(p, q)))


def _small_sum(rng: random.Random, low: int, high: int) -> str:
    return ",".join(
        _tok(*_small(rng), rng.random() < 0.3) for _ in range(rng.randint(low, high))
    )


def make_query(kind: str, rng: random.Random) -> list[str]:
    """One CLI query after the global options; ``--`` precedes positional
    operands, because argparse would read a reversed lens such as -7/4 as an
    option."""
    if kind == "cf":
        p = rng.randint(10**3, 10**12)
        return ["cf", "--", _tok(p, _coprime(rng, p))]
    if kind == "lens":
        p = rng.randint(3, 10**6)
        q = _coprime(rng, p)
        other = pow(q, -1, p) if rng.random() < 0.5 else _coprime(rng, p)
        flags = ["--oriented"] if rng.random() < 0.5 else []
        return ["lens", "cmp", *flags, "--", _tok(p, q, rng.random() < 0.3), _tok(p, other)]
    if kind == "fn":
        _, p, q = _large(rng)
        return ["fn", "--", _tok(p, q)]
    if kind == "ribbon":
        n, p, q = _large(rng)
        reverse = rng.random() < 0.5
        return ["ribbon", "--", _tok(n, 1, reverse), _tok(p, q, reverse)]
    if kind == "ribbon-sum":
        shape = rng.random()
        if shape < 0.25:
            p, q = _small(rng)
            return ["ribbon-sum", "--", "", f"{_tok(p, q)},{_tok(p, q, True)}"]
        if shape < 0.5:
            p = rng.choice((4, 9, 16, 25))
            return ["ribbon-sum", "--", "", _tok(p, _coprime(rng, p))]
        return ["ribbon-sum", "--", _small_sum(rng, 0, 1), _small_sum(rng, 1, 3)]
    if kind == "bridge":
        if rng.random() < 0.3:
            p, q = _small(rng)
            return ["bridge", "--", "U", f"{_tok(p, q)},{_tok(p, q, True)}"]
        return ["bridge", "--", _small_sum(rng, 0, 1) or "U", _small_sum(rng, 1, 2)]
    if kind == "in-r":
        p = rng.choice((4, 9, 16, 25, 36, 49, 64))
        return ["in-r", "--", _tok(p, _coprime(rng, p))]
    if kind == "embed":
        if rng.random() < 0.5:
            p = rng.choice((4, 9, 16, 25, 36, 49))
            return ["embed", "--summands", _chain(p, _coprime(rng, p))]
        p1, q1 = _small(rng, 8)
        p2 = p1 * rng.choice((1, 4))
        return [
            "embed", "--ribbon-split", "1",
            "--summands", _chain(p1, p1 - q1),
            "--summands", _chain(p2, _coprime(rng, p2)),
        ]
    raise ValueError(kind)


def record_queries() -> list:
    rng = random.Random(POOL_SEED)
    pool = []
    for kind, count in workloads.QUERY_MIX:
        for _ in range(count):
            tail = make_query(kind, rng)
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(["--format", "json", *tail], stdout=out, stderr=err)
            if code not in (cli.EXIT_YES, cli.EXIT_NO):
                raise RuntimeError(f"query {tail} exited {code}: {err.getvalue()}")
            pool.append([tail, code, workloads.query_decision(json.loads(out.getvalue()))])
    return pool


def record_sweep() -> dict:
    spaces = selfcheck.all_lens_spaces(workloads.SWEEP_MAX_P)
    cache = search.EmbeddingCache()
    decisions = {}
    for l1 in spaces:
        for l2 in spaces:
            verdict = classify.ribbon_leq_lens(l1, l2, budget=workloads.BUDGET, cache=cache)
            outcome = search.find_ribbon_embedding(
                l1.reverse().cf(), l2.cf(), budget=workloads.BUDGET, cache=cache
            )
            if "inconclusive" in (verdict.answer, outcome.status):
                raise RuntimeError(f"inconclusive sweep pair {l1} {l2}")
            key = f"{workloads.lens_key(l1)} {workloads.lens_key(l2)}"
            decisions[key] = [verdict.answer, outcome.status]
    return {"max_p": workloads.SWEEP_MAX_P, "decisions": decisions}


def record_oracle() -> dict:
    cache = search.EmbeddingCache()
    outcomes = {}
    for f in workloads.oracle_fractions():
        result = search.r_membership(f, budget=workloads.BUDGET, cache=cache)
        if result.outcome == "inconclusive":
            raise RuntimeError(f"inconclusive oracle fraction {f}")
        outcomes[f"{f.numerator}/{f.denominator}"] = result.outcome
    return {"orders": list(workloads.ORACLE_ORDERS), "outcomes": outcomes}


def record_selfcheck() -> dict:
    return {name: func()[0] for name, func, _ in selfcheck.CRITERIA}


def main() -> int:
    workloads.drop_env_knobs()
    reference = {
        "sweep": record_sweep(),
        "oracle": record_oracle(),
        "queries": record_queries(),
        "selfcheck": record_selfcheck(),
    }
    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
