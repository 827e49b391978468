"""One job of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE [SPANS_PATH]

Imports the package from ``src/``, makes the questions from the seed,
asks them one after another and prints one JSON line: set-up and
job time, the latency of each answer (in seconds and, for an untraced
job, in reference loops; see ``pace.py``), the check counts, the peak
resident set size and, when TRACE is 1, the per-layer metrics.  The
spans of a traced job are written to SPANS_PATH at exit.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
import pace  # noqa: E402


def main(workload: str, seed: int, trace: bool, spans_path: str | None) -> dict:
    questions = workloads.build(workload, seed)
    setup_s = time.perf_counter() - START
    tracer = None
    if trace:
        from shims import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    times = []
    asked = unknown = 0
    failures = []
    clock = time.perf_counter
    # the reference loop would add to the self times of a traced job
    with pace.Pacer(None if trace else pace.EVERY_S) as pacer:
        t0 = clock()
        for q in questions:
            span = tracer.question(str(q)) if tracer else contextlib.nullcontext()
            start = clock()
            try:
                with span:
                    answer = q.ask(*q.args)
            except Exception as exc:  # a raising question is a failed one
                answer = exc
            times.append((start, clock()))
            if isinstance(answer, Exception):
                failures.append(f"{q}: {type(answer).__name__}: {answer}")
                continue
            asked += answer.asked
            unknown += answer.unknown
            if not answer.ok:
                failures.append(f"{q}: answer differs from its reference")
        t1 = clock()
    out = {
        "setup_s": setup_s,
        "wall_s": pacer.seconds(t0, t1),
        "latencies_ms": [pacer.seconds(*t) * 1e3 for t in times],
        "wall_ref": pacer.refs(t0, t1),
        "latencies_ref": [pacer.refs(*t) for t in times],
        "reference_loops": pacer.loops,
        "attempted": len(questions),
        "failures": failures,
        "hom_asked": asked,
        "hom_unknown": unknown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["functions"] = {name: vars(stat) for name, stat in tracer.stats.items()}
        if spans_path:
            with open(spans_path, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] if len(sys.argv) > 4 else None)
    print(json.dumps(result))
