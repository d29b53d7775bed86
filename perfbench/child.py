"""The benchmark's fresh-interpreter steps, started by run.py:

    python3 perfbench/child.py setup WORKLOAD SEED
    python3 perfbench/child.py selfcheck --trace 0|1

``setup`` times one set-up of a workload as a user pays it in a new process:
importing the package with its CLI, generating the inputs and creating the
empty cache file.  ``selfcheck`` runs the eight suites one call at a time, so
the suites' module-level shared cache starts cold as it does for a user, with
the probes of refclock.py between them.
Each prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    import ribbonlens.cli  # noqa: F401  (the package and its command line)

    imported = time.perf_counter()
    import workloads

    instance = workloads.WORKLOADS[workload](seed, workloads.load_reference())
    done = time.perf_counter()
    instance.close()
    return {"import_s": imported - start, "setup_s": done - start}


def run_selfcheck(traced: bool) -> dict:
    from refclock import Probes
    from ribbonlens import selfcheck

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    suites = []
    probes = Probes()
    for request, (name, func, _) in enumerate(selfcheck.CRITERIA):
        if tracer is not None:
            tracer.request = request
        start = time.perf_counter()
        try:
            with tracer.span(f"selfcheck.{name}") if tracer is not None else nullcontext():
                passed, detail = func()
        except Exception as exc:  # a crashed suite is a failed suite
            passed, detail = False, f"raised {exc!r}"
        suites.append([name, passed, detail, time.perf_counter() - start])
        probes.after(request, suites[-1][3])
    probes.finish(len(suites))
    doc: dict = {"suites": suites, "costs": probes.costs([suite[3] for suite in suites])}
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.layer_metrics()
        doc["layers"]["search.cache_bytes"] = 0
        doc["spans"] = tracer.spans
        doc["missing"] = tracer.missing
    return doc


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        doc = setup(argv[1], int(argv[2]))
    elif argv[:2] == ["selfcheck", "--trace"] and len(argv) == 3:
        doc = run_selfcheck(argv[2] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 64
    print(json.dumps(doc, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
