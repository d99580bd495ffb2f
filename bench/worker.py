"""One benchmark pass in a fresh interpreter; prints one JSON line.

Started by ``run.py`` as

    python3 bench/worker.py --workload W --workdir D --spawned T [--trace --spans F]

where ``T`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start,
imports, the workload's set-up and any cache pre-fill.  The pass is one
timed call of the workload, into the work directory and with an empty cache
(or the pre-filled one).  A fresh process per pass is deliberate: a user
regenerating a table pays the first-call costs of a new process, such as
the page faults of a malloc heap that has not grown yet, and a second pass
in the same process does not.  With ``--trace`` the pass runs under a
:class:`tracing.Tracer` and its per-layer metrics are reported.

``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import logkge  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _reset_peak_rss() -> None:
    """Lower the process's peak-RSS mark to its current RSS (Linux >= 4.0).

    Without it the peak would include set-up, which on ``table2-warm``
    computes two N = 8192 references, and hide the pass's own memory.  If
    the kernel refuses, the peak stays that of the whole process.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Peak RSS (``VmHWM``) since :func:`_reset_peak_rss`."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cache_files(cache_dir: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in cache_dir.iterdir() if p.is_file()}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--spawned", required=True, type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    pkg = Path(logkge.__file__).resolve().parent
    if pkg != ROOT / "src" / "logkge":
        sys.exit(f"imported logkge from {pkg}, not from this checkout's src/")

    prepared = workloads.setup(args.workload, args.workdir)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    cache_dir = prepared.warm_cache or args.workdir / "cache"
    cache_dir.mkdir(exist_ok=True)
    before = _cache_files(cache_dir)
    tracer = tracing.Tracer(logkge) if args.trace else contextlib.nullcontext()
    _reset_peak_rss()
    t0 = time.perf_counter()
    with tracer:
        outputs = prepared.run_pass(args.workdir, cache_dir)
    wall_s = time.perf_counter() - t0
    # Read before the gate, whose CSV parsing would raise the high-water mark.
    peak_rss_mb = _peak_rss_mb()
    after = _cache_files(cache_dir)
    if prepared.warm_cache and after != before:
        raise workloads.SetupError(
            "the pass wrote to the pre-filled cache: set-up did not pre-fill the "
            "references the harness reads, so the workload is not warm"
        )

    attempted, failed, messages = gate.check_outputs(outputs)
    for msg in messages:
        print(msg, file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "node_steps": prepared.node_steps,
        "attempted": attempted,
        "failed": failed,
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, tracer.evolve_results)
        layers["cache.bytes_written"] = sum(after.values()) - sum(before.values())
        layers["analysis.siefd_tau_over_bound"] = prepared.tau_over_bound
        result["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except workloads.SetupError as exc:
        sys.exit(f"{exc}")
