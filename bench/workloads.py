"""The benchmark workloads: set-up, one timed pass, and the work it does.

Every input is fixed by the paper; nothing here depends on the seed.  Each
workload's :func:`setup` runs before the first timed call and returns a
:class:`Prepared` whose ``run_pass`` is the timed call.  Every cache is an
explicit directory under the worker's work directory (a fresh empty one per
pass, or the one set-up pre-filled for a table), so neither ``~/.cache/logkge`` nor
``$LOGKGE_CACHE_DIR`` is ever read or written.  (``cache_dir=None`` is not
"cold": it skips the store path entirely.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from logkge import analysis, cache, harness
from logkge.grid import Grid1D
from logkge.nonlinearity import NonlinearityParams

# Trajectory workloads: Gausson data on [-16, 16], N = 65536, eps = 0.05,
# 100 steps.  siefd runs at tau = 2^-12, half its stability bound h = 2^-11.
TRAJECTORY_N = 65536
TRAJECTORY_STEPS = 100
TRAJECTORY_TAU = {"cnfd": 1e-3, "siefd": 2.0**-12}


class SetupError(RuntimeError):
    """The workload cannot measure what it is meant to measure."""


@dataclass
class Prepared:
    # run_pass(out_dir, cache_dir) writes the pass's files into out_dir and
    # returns them, keyed by their golden name in bench/golden.
    run_pass: Callable[[Path, Path], dict[str, Path]]
    # Trajectory work of one pass, sum of N * steps, counted from the plan.
    node_steps: int
    # Largest tau / siefd_tau_bound(h, sigma_max(phi)) over the pass's runs.
    tau_over_bound: float
    # The cache set-up pre-filled, which every pass must leave untouched;
    # None when each pass starts from an empty cache.
    warm_cache: Path | None = None


def _grid(plan, h: float) -> Grid1D:
    a, b = plan.domain
    return Grid1D(a, b, round((b - a) / h))


def _steps(plan, tau: float) -> int:
    return round(plan.final_time / tau)


def cells(plan) -> list[tuple[float, float, float]]:
    """(eps, h, tau) of every sweep cell of a temporal or spatial sweep."""
    if plan.kind == "temporal-sweep":
        return [(e, plan.hs[0], t) for e in plan.epsilons for t in plan.taus]
    return [(e, h, plan.taus[0]) for e in plan.epsilons for h in plan.hs]


def references(plan) -> list[tuple[float, float, float]]:
    """(eps, h_ref, tau_ref) of the cnfd-fine reference runs, one per eps.

    The harness rule: a temporal sweep keeps the cell grid and refines tau
    to ``tau_ref``; a spatial sweep keeps the cell tau and refines the mesh
    8x unless ``h_ref`` is given.
    """
    if plan.kind == "temporal-sweep":
        h_ref, tau_ref = plan.hs[0], plan.tau_ref or min(plan.taus) / 8.0
    else:
        h_ref, tau_ref = plan.h_ref or min(plan.hs) / 8.0, plan.tau_ref or plan.taus[0]
    return [(e, h_ref, tau_ref) for e in plan.epsilons]


def _node_steps(plan, runs) -> int:
    return sum(_grid(plan, h).N * _steps(plan, tau) for _, h, tau in runs)


def _tau_over_bound(plan, runs) -> float:
    worst = 0.0
    for eps, h, tau in runs:
        g = _grid(plan, h)
        phi = harness.initial_data_for(plan, g).phi
        p = NonlinearityParams(lam=plan.lam, epsilon=eps)
        worst = max(worst, tau / analysis.siefd_tau_bound(g.h, analysis.sigma_max(phi, p)))
    return worst


def _warm_table(target: str, workdir: Path) -> Prepared:
    """``run_reproduce(target)`` on a cache that set-up pre-fills."""
    plan = harness.reproduce_plan(target)
    warm_cache = workdir / "warm-cache"
    warm_cache.mkdir()
    for eps, h_ref, tau_ref in references(plan):
        g = _grid(plan, h_ref)
        cache.reference_state(
            plan.problem,
            harness.initial_data_for(plan, g),
            NonlinearityParams(lam=plan.lam, epsilon=eps),
            g,
            tau_ref,
            _steps(plan, tau_ref),
            newton_tol=plan.newton_tol,
            cache_dir=warm_cache,
        )

    def run_pass(out_dir: Path, cache_dir: Path) -> dict[str, Path]:
        out = out_dir / f"{target}.csv"
        harness.run_reproduce(target, out=str(out), cache_dir=str(cache_dir))
        return {out.name: out}

    # The references are read from the cache, not computed, in the pass.
    work = cells(plan)
    return Prepared(
        run_pass=run_pass,
        node_steps=_node_steps(plan, work),
        tau_over_bound=_tau_over_bound(plan, work),
        warm_cache=warm_cache,
    )


def _trajectory(scheme: str) -> Prepared:
    tau = TRAJECTORY_TAU[scheme]
    final_time = TRAJECTORY_STEPS * tau
    plan = harness.ExperimentPlan(
        kind="energy-drift",
        scheme=scheme,
        problem="example1-gausson",
        domain=(-16.0, 16.0),
        final_time=final_time,
        epsilons=(0.05,),
        taus=(tau,),
        hs=(32.0 / TRAJECTORY_N,),
        snapshot_times=(0.0, final_time),
    )
    run = [(plan.epsilons[0], plan.hs[0], tau)]
    ratio = _tau_over_bound(plan, run)
    if scheme == "siefd" and not ratio <= 1.0:
        raise SetupError(
            f"siefd tau={tau} exceeds siefd_tau_bound by a factor {ratio:.3g}; the "
            "scheme would blow up instead of being measured"
        )
    name = f"{scheme}-{TRAJECTORY_N}"

    def run_pass(out_dir: Path, cache_dir: Path) -> dict[str, Path]:
        # The energy-drift kind never reads the cache; it is set anyway so
        # that no pass can fall back to a user cache.
        result = harness.run(replace(plan, cache_dir=str(cache_dir)))
        outputs = {f"{name}{s}.csv": out_dir / f"{name}{s}.csv" for s in ("", "_drift", "_waveforms")}
        harness.emit_csv(result, outputs[f"{name}.csv"])
        harness.emit_drift_series(result, outputs[f"{name}_drift.csv"])
        harness.emit_waveforms(result, outputs[f"{name}_waveforms.csv"])
        return outputs

    return Prepared(run_pass=run_pass, node_steps=_node_steps(plan, run), tau_over_bound=ratio)


def setup(name: str, workdir: Path) -> Prepared:
    """Build the workload's inputs (and pre-fill its cache) in ``workdir``."""
    if name == "table2-warm":
        return _warm_table("table2", workdir)
    if name == "cnfd-65536":
        return _trajectory("cnfd")
    if name == "siefd-65536":
        return _trajectory("siefd")
    raise SetupError(f"unknown workload {name!r}")

