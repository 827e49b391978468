"""The bpsing benchmark: one command per workload run.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from
``src/``.  WORKLOAD is ``audit-broad``, ``audit-deep`` or ``verify``
(why each was chosen is in ``workloads.py``).  The seed makes the
inputs; the package sees only the generated questions.

The job of a workload is a fixed list of questions.  Each job runs in
a fresh interpreter (``worker.py``), because the package's module-level
caches are unbounded: a second job in the same process would be nearly
free, while every command-line call and research script pays for them
cold.  Jobs are repeated one after another as long as the next one
can end within S seconds (at least one job), and every answer of every
job is checked against its reference.

With ``--trace 0`` the metrics are end to end, medians over the jobs.
Job times are counted in reference loops (unit ``ref``): each stretch
of the job is divided by the duration, at that moment, of a fixed loop
of plain Python that the worker times every 50 ms (``pace.py``).  On a
shared host the core's speed drifts by nearly a factor of two within a
minute; the loop drifts with the job, so the drift largely cancels,
while a change of the package moves the job and not the loop.  The
same times in milliseconds are on the detail line (``wall_clock``).

* ``setup_s``: import of the package (and numpy) plus input
  generation, timed inside the worker, in seconds;
* ``wall_ref``: time to answer every question of the job;
* ``answer_p50_ref``, ``answer_p90_ref``: latency of one answer; each
  question's latency is its median over the jobs, and the quantiles
  are over the questions (their count is ``answers`` on the detail
  line).  An answer is one audited pair (calculus plus oracle) in the
  audits and one whole check in ``verify``;
* ``peak_rss_mb``: peak resident set size of a worker;
* ``decided_share``: Hom questions the calculus answered, over Hom
  questions asked (the complement of the unknown share; a metric that
  can read 0 has no relative bound).

With ``--trace 1`` jobs alternate between untraced and traced, and the
metrics are the per-layer ones of ``shims.py`` (medians over the traced
jobs, times in seconds) plus ``trace.overhead_ratio``, traced over
untraced job time.  Traced jobs run without the reference loop.  The
detail line adds calls, total and self time of every shimmed function;
spans of the last traced job go to ``.bench_out/``.

Failed answers (a mismatch with the reference, or an exception) count
in ``failed`` of the result; their share is printed on the detail line.
The last line of stdout is the result; the line before it holds the
samples, the environment and the failures.  Exit code 0 means a result
was printed, whether or not every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("audit-broad", "audit-deep", "verify")
# a run must end within 180 s
RUN_LIMIT_S = 170.0
UNITS = {"peak_rss_mb": "MB"}


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                caches["L" + (index / "level").read_text().strip()] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "seed": seed,
        "commit": commit,
    }


def run_job(workload: str, seed: int, traced: bool, spans: Path, timeout: float) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(int(traced))]
    if traced:
        argv.append(str(spans))
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    return result


def job_times(jobs: list[dict], unit: str) -> dict[str, float]:
    """Median job time and answer latency quantiles, in ``ref`` or
    (with unit ``ms``) in wall-clock time.  Every job asks the same
    questions in the same order; a question's latency is its median
    over the jobs, and the quantiles are taken over the questions."""
    wall, latencies = ("wall_ref", "latencies_ref") if unit == "ref" else ("wall_s", "latencies_ms")
    per_question = [statistics.median(xs) for xs in zip(*(job[latencies] for job in jobs))]
    return {
        f"wall_{unit}": statistics.median(job[wall] for job in jobs) * (1e3 if unit == "ms" else 1),
        f"answer_p50_{unit}": statistics.median(per_question),
        f"answer_p90_{unit}": statistics.quantiles(per_question, n=10)[-1],
    }


def end_to_end(jobs: list[dict]) -> dict[str, float]:
    asked = sum(job["hom_asked"] for job in jobs)
    unknown = sum(job["hom_unknown"] for job in jobs)
    return {
        "setup_s": statistics.median(job["setup_s"] for job in jobs),
        **job_times(jobs, "ref"),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
        "decided_share": (asked - unknown) / asked,
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(job["layers"][name] for job in traced) for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = statistics.median(j["wall_s"] for j in traced) / statistics.median(j["wall_s"] for j in plain)
    return out


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("cells"):
        # rows x cols of the matrices handed to rank_mod, not a measurement
        return "cells_computed"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bpsing" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    began = time.perf_counter()
    jobs: list[dict] = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        start = time.perf_counter()
        jobs.append(run_job(args.workload, args.seed, traced, spans, timeout=RUN_LIMIT_S - (start - began)))
        longest = max(longest, time.perf_counter() - start)
        # stop before a job that would end after the measuring time
        if len(jobs) >= (2 if args.trace else 1) and time.perf_counter() - began + longest > args.seconds:
            break

    plain = [job for job in jobs if not job["traced"]]
    traced = [job for job in jobs if job["traced"]]
    values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    attempted = sum(job["attempted"] for job in jobs)
    failures = [f for job in jobs for f in job["failures"]]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "jobs": len(jobs),
        "answers": len(plain[0]["latencies_ms"]),
        "failed_share": len(failures) / attempted,
        "failures": failures[:20],
        "wall_clock": job_times(plain, "ms"),
        "samples": {k: [job[k] for job in jobs] for k in ("setup_s", "wall_s", "wall_ref", "peak_rss_mb", "traced")},
        "reference_loops": [job["reference_loops"] for job in jobs],
        "env": environment(args.seed),
    }
    if traced:
        detail["functions"] = traced[-1]["functions"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in values.items()},
    }
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
