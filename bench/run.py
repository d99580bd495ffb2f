"""Benchmark of logkge: one workload, measured for a fixed time.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs passes one after another, each in a fresh interpreter (``worker.py``:
set-up, one timed pass, the correctness gate; one BLAS thread), until the
next one would end after ``--seconds``.  Only one process runs at a time.

* ``--trace 0``: at least :data:`MIN_PASSES` passes, each followed by
  set-up-only processes while they have taken less than
  :data:`SETUP_SHARE` of the run.  Reports the end-to-end metrics of
  ``BENCHMARK.json`` as medians over the passes; ``setup_s`` is the median
  over every process, passes and set-up-only ones.
* ``--trace 1``: pairs of one untraced and one traced pass, in an order the
  seed picks.  Reports the per-layer metrics as medians over the traced
  passes, and ``trace.overhead_frac``.

The last line of standard output is one JSON object; the exit code is 1 if
any row failed the gate or a process failed, and 2 if the checkout has no
``src/logkge``.  The seed only orders the passes of a traced run and names
the work directory: every input is fixed by the paper.  All files go under
``.bench_work/`` in the checkout; a traced run leaves the spans of its last
traced pass in ``.bench_work/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
# Share of an untraced run spent on set-up-only processes, which add
# set-up samples at the price of set-up alone.
SETUP_SHARE = 0.2
# Every process must end this long after the run starts, inside the 180 s a
# run may take.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, workdir: Path, deadline: float, flags: list[str]) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    workdir.mkdir()
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("LOGKGE_CACHE_DIR", None)
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--workdir", str(workdir), "--spawned", repr(spawned)] + flags
    try:
        # On timeout, subprocess.run kills the worker and waits for it.
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> list[tuple[str, dict]]:
    """Run the processes of one run; returns (kind, result) per process."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK))
    rng = random.Random(args.seed)
    flags = {
        "setup": ["--setup-only"],
        "untraced": [],
        "traced": ["--trace", "--spans", str(WORK / f"spans-{args.workload}.json")],
    }
    results: list[tuple[str, dict]] = []

    def run(kind: str) -> None:
        workdir = run_dir / str(len(results))
        results.append((kind, run_worker(args.workload, workdir, deadline, flags[kind])))

    try:
        rounds = 0
        setup_only_s = 0.0
        while True:
            kinds = ["untraced", "traced"] if args.trace else ["untraced"]
            rng.shuffle(kinds)
            for kind in kinds:
                run(kind)
            rounds += 1
            while not args.trace and setup_only_s < SETUP_SHARE * (time.monotonic() - start):
                t0 = time.monotonic()
                run("setup")
                setup_only_s += time.monotonic() - t0
            elapsed = time.monotonic() - start
            enough = rounds >= (1 if args.trace else MIN_PASSES)
            if enough and elapsed * (rounds + 1) / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return results


def counts(results: list[tuple[str, dict]]) -> tuple[int, int]:
    """Rows attempted and rows failed over every pass of the run."""
    passes = [r for kind, r in results if kind != "setup"]
    return sum(r["attempted"] for r in passes), sum(r["failed"] for r in passes)


def metrics(results: list[tuple[str, dict]]) -> dict[str, float]:
    med = statistics.median
    passes = [r for kind, r in results if kind == "untraced"]
    traced = [r for kind, r in results if kind == "traced"]
    attempted, failed = counts(results)
    out = {
        "setup_s": med(r["setup_s"] for _, r in results),
        "wall_s": med(r["wall_s"] for r in passes),
        "node_steps_per_s": med(r["node_steps"] / r["wall_s"] for r in passes),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in passes),
        "ok_frac": 1.0 - failed / attempted,
    }
    if traced:
        for name in traced[0]["layers"]:
            out[name] = med(r["layers"][name] for r in traced)
        out["trace.overhead_frac"] = med(r["wall_s"] for r in traced) / out["wall_s"] - 1.0
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "logkge" / "__init__.py").is_file():
        print(f"no logkge sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        results = measure(args)
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    values = metrics(results)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted, failed = counts(results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
