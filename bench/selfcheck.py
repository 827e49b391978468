"""The benchmark's own test.

    python3 bench/selfcheck.py

Run it from the root of a checkout.  It checks that

1. the same seed makes the same questions, and another seed other ones;
2. two traced runs with the same seed report identical work counters
   (calls, computed cells, pivots, unknowns, cache entries, hit ratio)
   on every workload;
3. the traced ``rank_mod`` shapes of the fixed (3,4,5) level -8 pair
   of ``audit-deep`` are 1368x1224 and 1224x1088, the matrix of the
   first recorded baseline;
4. without the package source, in a directory holding only
   ``BENCHMARK.json`` and ``bench/``, the benchmark exits non-zero and
   prints no result.

It takes about five minutes on two cores and exits 0 when every check
passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOADS, unit  # noqa: E402

SEED = 7
BASELINE_SHAPES = [[1224, 1088], [1368, 1224]]


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=300)


def traced_counters(workload: str, seed: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    if proc.returncode != 0:
        raise SystemExit(f"traced {workload} run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced {workload} run gave wrong answers:\n{proc.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items() if unit(k) != "s" and k != "trace.overhead_ratio"}


def anchor_shapes(seed: int) -> list[list[int]]:
    spans = [json.loads(line) for line in (ROOT / ".bench_out" / f"spans-audit-deep-seed{seed}-trace1.jsonl").open()]
    label = str(workloads.deep_anchor())

    def question_of(span: dict) -> dict:
        while span["parent"] is not None:
            span = spans[span["parent"]]
        return span

    return sorted(s["shape"] for s in spans if s["name"] == "linalg.rank_mod" and question_of(s).get("label") == label)


def main() -> int:
    problems = []

    def inputs(w: str, s: int) -> list[str]:
        return [f"{q.ask.__name__}{q.args!r}" for q in workloads.build(w, s)]

    for w in WORKLOADS:
        first = inputs(w, SEED)
        if first != inputs(w, SEED):
            problems.append(f"{w}: the same seed made different questions")
        if first == inputs(w, SEED + 1):
            problems.append(f"{w}: another seed made the same questions")

    for w in WORKLOADS:
        a, b = traced_counters(w, SEED), traced_counters(w, SEED)
        differ = sorted(k for k in a if a[k] != b[k])
        print(f"{w}: {len(a)} counters, {len(differ)} differ", file=sys.stderr)
        if differ:
            problems.append(f"{w}: counters differ between runs: {differ}")
        if w == "audit-deep":
            shapes = anchor_shapes(SEED)
            print(f"audit-deep: baseline pair rank_mod shapes {shapes}", file=sys.stderr)
            if shapes != BASELINE_SHAPES:
                problems.append(f"audit-deep: baseline pair shapes {shapes}, expected {BASELINE_SHAPES}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "verify", "--seed", str(SEED), "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the package source the benchmark did not fail cleanly")

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
