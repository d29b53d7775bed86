"""Inputs, passes and answer checks of the four benchmark workloads.

Each workload is a closed loop with one client: an operation starts when the
previous one has returned.  A pass is one full round of a workload's inputs
with a fresh cache, so passes do the same work and can be compared.  The
package is reached only through its public functions, every library call gets
an explicit budget and a fresh ``EmbeddingCache``, and every answer is checked
against ``reference.json`` (decisions only, never node counts or certificate
bytes) after the timed region, where every returned certificate is also
re-verified.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

from ribbonlens import classify, cli, search, selfcheck
from ribbonlens.arith import cf_expand

from refclock import Probes
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

# far above what any input here needs, so no answer is "inconclusive"
BUDGET = search.SearchBudget(max_nodes=10**8, max_seconds=60.0)

SWEEP_MAX_P = 12
ORACLE_ORDERS = (49, 64, 81, 100, 121)
QUERY_MIX = (
    ("cf", 100),
    ("lens", 100),
    ("fn", 150),
    ("ribbon", 150),
    ("ribbon-sum", 125),
    ("bridge", 125),
    ("in-r", 125),
    ("embed", 125),
)
# queries per cache file: a session of one user; a longer one makes every
# query pay for re-verifying a larger file
SESSION = 250
CHILD_TIMEOUT_S = 170


@dataclass
class PassResult:
    latencies: list[float]  # seconds
    costs: list[float]  # the same times in ref, see refclock.py
    wall_s: float
    failures: list[str]
    layers: dict[str, float] | None = None
    spans: list[list] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # names no shim could wrap


def drop_env_knobs() -> None:
    """Remove the settings a user's environment could pass to the package,
    here and in every process started after this."""
    for name in ("RIBBONLENS_MAX_NODES", "RIBBONLENS_MAX_SECONDS", "RIBBONLENS_CACHE"):
        os.environ.pop(name, None)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def lens_key(lens) -> str:
    return f"{lens.p}/{lens.q}"


class _InProcess:
    """A workload whose operations run in this interpreter."""

    def close(self) -> None:
        pass

    def run_pass(self, traced: bool) -> PassResult:
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            probes = Probes()
            latencies, outputs = self._operations(tracer, probes)
            probes.finish(len(latencies))
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        result = PassResult(latencies, probes.costs(latencies), wall, self._check(outputs))
        if tracer is not None:
            result.layers = tracer.layer_metrics()
            result.layers["search.cache_bytes"] = self._cache_bytes()
            result.spans = tracer.spans
            result.missing = tracer.missing
        return result

    def _cache_bytes(self) -> int:
        return 0


class Sweep(_InProcess):
    """Classifier versus ribbon-mode embedding search on every ordered pair."""

    operation = "pairs"

    def __init__(self, seed: int, reference: dict) -> None:
        ref = reference["sweep"]
        if ref["max_p"] != SWEEP_MAX_P:
            raise ValueError("reference.json was recorded for another sweep size")
        self.expected = ref["decisions"]
        spaces = selfcheck.all_lens_spaces(SWEEP_MAX_P)
        self.pairs = [(l1, l2) for l1 in spaces for l2 in spaces]
        random.Random(seed).shuffle(self.pairs)

    def _operations(self, tracer, probes):
        cache = search.EmbeddingCache()
        latencies, outputs = [], []
        clock = time.perf_counter
        for request, (l1, l2) in enumerate(self.pairs):
            if tracer is not None:
                tracer.request = request
            start = clock()
            try:
                verdict = classify.ribbon_leq_lens(l1, l2, budget=BUDGET, cache=cache)
                outcome = search.find_ribbon_embedding(
                    l1.reverse().cf(), l2.cf(), budget=BUDGET, cache=cache
                )
                result = (verdict.answer, outcome)
            except Exception as exc:  # one failed operation, the run goes on
                result = exc
            latencies.append(clock() - start)
            outputs.append(result)
            probes.after(request, latencies[-1])
        return latencies, outputs

    def _check(self, outputs) -> list[str]:
        failures = []
        for (l1, l2), result in zip(self.pairs, outputs):
            key = f"{lens_key(l1)} {lens_key(l2)}"
            if isinstance(result, Exception):
                failures.append(f"sweep {key}: raised {result!r}")
                continue
            answer, outcome = result
            if [answer, outcome.status] != self.expected.get(key):
                failures.append(f"sweep {key}: got {answer}/{outcome.status}")
            elif outcome.certificate is not None and not search.verify_certificate(
                search.ribbon_problem(l1.reverse().cf(), l2.cf()), outcome.certificate
            ):
                failures.append(f"sweep {key}: certificate does not re-verify")
        return failures


def oracle_fractions() -> list[Fraction]:
    """p/q with q < p/2 only: r_membership(p/q) searches both p/q and
    p/(p-q), so the call for p/(p-q) would only repeat it from the cache."""
    return [Fraction(p, q) for p in ORACLE_ORDERS for q in range(1, p // 2 + 1) if gcd(p, q) == 1]


class Oracle(_InProcess):
    """Ball-membership oracle on every fraction of a few square orders."""

    operation = "fractions"

    def __init__(self, seed: int, reference: dict) -> None:
        ref = reference["oracle"]
        if tuple(ref["orders"]) != ORACLE_ORDERS:
            raise ValueError("reference.json was recorded for other oracle orders")
        self.expected = ref["outcomes"]
        self.fractions = oracle_fractions()
        random.Random(seed).shuffle(self.fractions)

    def _operations(self, tracer, probes):
        cache = search.EmbeddingCache()
        latencies, outputs = [], []
        clock = time.perf_counter
        for request, f in enumerate(self.fractions):
            if tracer is not None:
                tracer.request = request
            start = clock()
            try:
                result = search.r_membership(f, budget=BUDGET, cache=cache)
            except Exception as exc:  # one failed operation, the run goes on
                result = exc
            latencies.append(clock() - start)
            outputs.append(result)
            probes.after(request, latencies[-1])
        return latencies, outputs

    def _check(self, outputs) -> list[str]:
        failures = []
        for f, result in zip(self.fractions, outputs):
            if isinstance(result, Exception):
                failures.append(f"oracle {f}: raised {result!r}")
            elif result.outcome != self.expected.get(f"{f.numerator}/{f.denominator}"):
                failures.append(f"oracle {f}: got {result.outcome}")
            elif not all(
                out.certificate is None
                or search.verify_certificate(
                    search.plain_problem((cf_expand(Fraction(g)),)), out.certificate
                )
                for g, out in result.searches
            ):
                failures.append(f"oracle {f}: certificate does not re-verify")
        return failures


def query_decision(doc: dict):
    """The part of a CLI answer that must not change between versions."""
    result = doc["result"]
    command = doc["command"]
    if command == "cf":
        return result["terms"]
    if command == "lens":
        return result["homeomorphic"]
    if command == "fn":
        return result["witnesses"]
    if command == "in-r":
        return result["outcome"]
    if command == "embed":
        return result["status"]
    return result["verdict"]["answer"]


def query_certificates(doc: dict):
    """(problem, certificate) for every certificate a CLI answer carries."""
    result = doc["result"]
    if doc["command"] == "in-r":
        for item in result["searches"]:
            if item["certificate"] is not None:
                problem = search.plain_problem((cf_expand(Fraction(item["fraction"])),))
                yield problem, cli.certificate_from_json(item["certificate"])
    elif doc["command"] == "embed" and result["certificate"] is not None:
        summands = [tuple(int(a) for a in terms) for terms in result["summands"]]
        if result["ribbon_split"] is None:
            problem = search.plain_problem(summands)
        else:
            problem = search.ribbon_problem(*summands)
        yield problem, cli.certificate_from_json(result["certificate"])


class Queries(_InProcess):
    """The recorded pool of one-shot CLI queries in a seeded order.  The
    queries of one session share a cache file that starts empty."""

    operation = "queries"

    def __init__(self, seed: int, reference: dict) -> None:
        self.stream = list(reference["queries"])
        kinds = Counter(tail[0] for tail, _, _ in self.stream)
        if kinds != Counter(dict(QUERY_MIX)):
            raise ValueError("reference.json was recorded for another query mix")
        random.Random(seed).shuffle(self.stream)
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="queries-", dir=OUT))
        self.cache_path = self.tmp / "cache.json"
        search.EmbeddingCache().save(self.cache_path)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _cache_bytes(self) -> int:
        return self.cache_path.stat().st_size

    def _operations(self, tracer, probes):
        head = ["--format", "json", "--cache", str(self.cache_path)]
        latencies, outputs = [], []
        clock = time.perf_counter
        for request, (tail, _, _) in enumerate(self.stream):
            if request % SESSION == 0:
                search.EmbeddingCache().save(self.cache_path)
            if tracer is not None:
                tracer.request = request
            argv = head + tail
            out, err = io.StringIO(), io.StringIO()
            start = clock()
            try:
                result = (cli.run(argv, stdout=out, stderr=err), out.getvalue())
            except Exception as exc:  # one failed operation, the run goes on
                result = exc
            latencies.append(clock() - start)
            outputs.append(result)
            probes.after(request, latencies[-1])
        return latencies, outputs

    def _check(self, outputs) -> list[str]:
        failures = []
        for (tail, want_code, want), result in zip(self.stream, outputs):
            label = "queries " + " ".join(tail)
            if isinstance(result, Exception):
                failures.append(f"{label}: raised {result!r}")
                continue
            code, text = result
            if code != want_code:
                failures.append(f"{label}: exit {code}")
                continue
            doc = json.loads(text)
            if query_decision(doc) != want:
                failures.append(f"{label}: got {query_decision(doc)}")
            elif not all(search.verify_certificate(p, c) for p, c in query_certificates(doc)):
                failures.append(f"{label}: certificate does not re-verify")
        return failures


class Selfcheck:
    """The eight selfcheck suites, each pass in a fresh interpreter."""

    operation = "suites"

    def __init__(self, seed: int, reference: dict) -> None:
        self.expected = reference["selfcheck"]
        if set(self.expected) != {name for name, _, _ in selfcheck.CRITERIA}:
            raise ValueError("reference.json was recorded for other selfcheck suites")

    def close(self) -> None:
        pass

    def run_pass(self, traced: bool) -> PassResult:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "selfcheck", "--trace", str(int(traced))],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"selfcheck child exited {proc.returncode}: {proc.stderr[-2000:]}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        failures = [
            f"selfcheck {name}: {detail}"
            for name, passed, detail, _ in doc["suites"]
            if passed != self.expected[name]
        ]
        latencies = [seconds for _, _, _, seconds in doc["suites"]]
        return PassResult(
            latencies,
            doc["costs"],
            sum(latencies),
            failures,
            doc.get("layers"),
            doc.get("spans", []),
            doc.get("missing", []),
        )


WORKLOADS = {"sweep": Sweep, "oracle": Oracle, "queries": Queries, "selfcheck": Selfcheck}

