"""Run one workload of the ribbonlens benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep|oracle|queries|selfcheck \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, nothing is installed.  The seed fixes the inputs.  A pass runs every
input once with a fresh cache; passes repeat, at least two, until the next
one would end after S seconds.  A fixed reference kernel runs between the
operations (refclock.py), and an operation's cost is its time in units of the
kernel's time around it, so a shared machine that runs slower for a while
slows both alike.  An operation's cost is its interquartile mean over the
passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  ``--trace 0`` measures the end-to-end metrics with
nothing traced.  ``--trace 1`` alternates untraced and traced passes of the
same inputs and reports the per-layer metrics, the median over traced passes,
with the tracing overhead; its spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "oracle", "queries", "selfcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "ribbonlens").glob("*.py"))
    )


def run_passes(workload, seconds: float, traced_run: bool):
    """Passes over the same inputs until the next would end after the time
    budget, and at least MIN_PASSES of them.  A traced run pairs an untraced
    and a traced pass and alternates which of the two goes first."""
    untraced, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        if traced_run:
            for flag in ((False, True) if rounds % 2 == 0 else (True, False)):
                (traced if flag else untraced).append(workload.run_pass(flag))
        else:
            untraced.append(workload.run_pass(False))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_PASSES and elapsed / rounds * (rounds + 1) > seconds:
            return untraced, traced


def per_operation(passes, field: str = "costs") -> list[float]:
    """Each operation's interquartile mean over the passes: the mean of its
    costs (or latencies) after the lowest and the highest quarter are
    dropped.  Every pass runs the same operations in the same order, so a
    stall that lands on one operation in one pass drops out."""
    return [_interquartile_mean(values) for values in zip(*(getattr(p, field) for p in passes))]


def _interquartile_mean(values) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def end_to_end(untraced, setups, rss_mb: float) -> tuple[dict, dict]:
    costs = per_operation(untraced)
    p99 = statistics.quantiles(costs, n=100)[98]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "ops_per_kref": (1e3 * len(costs) / sum(costs), "1/kref"),
        "op_p50_ref": (statistics.median(costs), "ref"),
        "op_p99_ref": (p99, "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # the same figures in seconds, as this run's machine gave them
    times = per_operation(untraced, "latencies")
    meta = {
        "operations_per_pass": len(costs),
        "p99_operations_beyond": sum(x > p99 for x in costs),
        "pass_wall_s": [p.wall_s for p in untraced],
        "ref_s": _ref_s(untraced),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p99_ms": statistics.quantiles(times, n=100)[98] * 1e3,
    }
    return metrics, meta


def per_layer(untraced, traced, setups) -> dict:
    metrics = {
        name: (statistics.median(p.layers[name] for p in traced), _unit(name))
        for name in traced[0].layers
    }
    metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    # the reference kernel's time in the traced passes: a layer's seconds
    # over it give that layer's cost in ref
    metrics["trace.ref_s"] = (_ref_s(traced), "s")
    metrics["trace.overhead_ratio"] = (sum(per_operation(traced)) / sum(per_operation(untraced)), "ratio")
    return metrics


def _ref_s(passes) -> float:
    """Median over all operations of the kernel time an operation was divided by."""
    return statistics.median(t / c for p in passes for t, c in zip(p.latencies, p.costs))


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def write_spans(path: Path, traced) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, result in enumerate(traced):
            for span in result.spans:
                handle.write(json.dumps([index, *span], separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ribbonlens" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'ribbonlens'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.drop_env_knobs()
    workloads.OUT.mkdir(exist_ok=True)
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    try:
        untraced, traced = run_passes(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()

    passes = untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "operation": workload.operation,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "failed_ratio": len(failures) / attempted,
        "failed_ratio_base": f"{attempted} {workload.operation} attempted",
        "setup_probes": len(setups),
        "failures": failures[:20],
    }
    if args.trace:
        metrics = per_layer(untraced, traced, setups)
        meta["untraced_shim_names"] = sorted({m for p in traced for m in p.missing})
        spans_path = workloads.OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(spans_path, traced)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "selfcheck" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        metrics, pass_meta = end_to_end(untraced, setups, rss_mb)
        meta.update(pass_meta)
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
