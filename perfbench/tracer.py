"""Pass-through timing shims on the public functions one ribbonlens module
calls in another, with spans kept in memory.

A span is ``[name, start_ns, end_ns, parent_index, request]``; ``parent_index``
is -1 for a span opened outside every other span.  Only names bound at module
level are replaced, never a private helper or a hot inner function such as
``dot``, and ``uninstall`` puts every original back.  Cache lookups are
counted, not spanned: a ``get`` or ``put`` made inside a search span is the
engine's own lookup, one made by the caller outside every span is not.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from ribbonlens import classify, cli, lattice, search, selfcheck

SEARCH_SPANS = ("search.find_embedding", "search.find_ribbon_embedding", "search.r_membership")
CLASSIFY_SPANS = ("classify.ribbon_leq_lens", "classify.ribbon_leq_sum", "classify.chi_leq_bridge")
LATTICE_NAMES = ("enumerate_short_vectors", "chain_basis_for", "integer_kernel", "det")

# (namespace the callers read the name from, attribute, span name)
SHIMS = (
    (search, "find_embedding", "search.find_embedding"),
    (search, "find_ribbon_embedding", "search.find_ribbon_embedding"),
    (search, "r_membership", "search.r_membership"),
    (search, "verify_certificate", "search.verify_certificate"),
    (search.EmbeddingCache, "load", "search.cache_load"),
    (search.EmbeddingCache, "save", "search.cache_save"),
    (lattice, "enumerate_short_vectors", "lattice.enumerate_short_vectors"),
    (search, "chain_basis_for", "lattice.chain_basis_for"),
    (search, "integer_kernel", "lattice.integer_kernel"),
    (search, "det", "lattice.det"),
    (classify, "fn_membership", "arith.fn_membership"),
    (cli, "fn_membership", "arith.fn_membership"),
    (classify, "ribbon_leq_lens", "classify.ribbon_leq_lens"),
    (classify, "ribbon_leq_sum", "classify.ribbon_leq_sum"),
    (classify, "chi_leq_bridge", "classify.chi_leq_bridge"),
    (cli, "ribbon_leq_lens", "classify.ribbon_leq_lens"),
    (cli, "ribbon_leq_sum", "classify.ribbon_leq_sum"),
    (cli, "chi_leq_bridge", "classify.chi_leq_bridge"),
    (selfcheck, "ribbon_leq_lens", "classify.ribbon_leq_lens"),
    (selfcheck, "ribbon_leq_sum", "classify.ribbon_leq_sum"),
    (cli, "run", "cli.run"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = None
        self.lookups = 0
        self.hits = 0
        self.nodes = 0
        self.statuses: Counter[str] = Counter()
        self.chain_found = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in SHIMS:
            if attr not in vars(owner):
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._replace(owner, attr, self._shim(vars(owner)[attr], name))
        cache_cls = search.EmbeddingCache
        self._replace(cache_cls, "get", self._get_shim(cache_cls.get))
        self._replace(cache_cls, "put", self._put_shim(cache_cls.put))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, shim) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, shim)

    def _shim(self, original, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_found = name == "lattice.chain_basis_for"

        def shim(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts_found and result is not None:
                self.chain_found += 1
            return result

        return shim

    def _in_search(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] in SEARCH_SPANS

    def _get_shim(self, original):
        def get(cache, problem):
            outcome = original(cache, problem)
            if self._in_search():
                self.lookups += 1
                self.hits += outcome is not None
            return outcome

        return get

    def _put_shim(self, original):
        # the engine stores the outcome of each miss once; a later hit returns
        # the stored outcome with its nodes again, which is not counted here
        def put(cache, problem, outcome):
            if self._in_search():
                self.nodes += outcome.nodes
                self.statuses[outcome.status] += 1
            return original(cache, problem, outcome)

        return put

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one selfcheck suite."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals; self time is a span minus its direct children."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total_ns: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        oracle_calls = 0
        for index, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[index]
            if name == "search.r_membership" and parent >= 0 and spans[parent][0] in CLASSIFY_SPANS:
                oracle_calls += 1
        search_self = sum(self_ns[n] for n in SEARCH_SPANS) / 1e9
        basis_calls = calls["lattice.chain_basis_for"]
        metrics = {
            "trace.spans": len(spans),
            "search.calls": sum(calls[n] for n in SEARCH_SPANS),
            "search.self_s": search_self,
            "search.lookups": self.lookups,
            "search.cache_hit_ratio": self.hits / self.lookups if self.lookups else 0.0,
            "search.nodes": self.nodes,
            "search.nodes_per_s": self.nodes / search_self if search_self else 0.0,
            "search.found": self.statuses["found"],
            "search.absent": self.statuses["absent"],
            "search.inconclusive": self.statuses["inconclusive"],
            "search.verify_certificate.calls": calls["search.verify_certificate"],
            "search.verify_certificate.s": total_ns["search.verify_certificate"] / 1e9,
            "search.cache_load.s": total_ns["search.cache_load"] / 1e9,
            "search.cache_save.s": total_ns["search.cache_save"] / 1e9,
            "arith.fn_membership.calls": calls["arith.fn_membership"],
            "arith.fn_membership.s": total_ns["arith.fn_membership"] / 1e9,
            "classify.calls": sum(calls[n] for n in CLASSIFY_SPANS),
            "classify.oracle_calls": oracle_calls,
            "classify.self_s": sum(self_ns[n] for n in CLASSIFY_SPANS) / 1e9,
            "cli.self_s": self_ns["cli.run"] / 1e9,
            "lattice.chain_basis_for.hit_ratio": self.chain_found / basis_calls if basis_calls else 0.0,
        }
        for name in LATTICE_NAMES:
            metrics[f"lattice.{name}.calls"] = calls[f"lattice.{name}"]
            metrics[f"lattice.{name}.s"] = total_ns[f"lattice.{name}"] / 1e9
        for name, _, _ in selfcheck.CRITERIA:
            metrics[f"selfcheck.{name}.s"] = total_ns[f"selfcheck.{name}"] / 1e9
        return metrics
