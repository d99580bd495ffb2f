"""Experiment runner: declarative refinement sweeps and their CSV output.

A sweep is described by an :class:`ExperimentPlan` (built in code, by the
``reproduce`` helpers, or parsed from a plan file), executed cell by cell by
:func:`run`, and serialized by :func:`emit_csv` with the fixed column schema

    scheme,problem,epsilon,lambda,h,tau,T,norm_l2,norm_linf,norm_h1,
    rate_l2,rate_linf,rate_h1,energy_drift,newton_avg_iters,status

Floats carry 17 significant digits, rows sort by (epsilon, h, tau), rate
cells are empty except between adjacent refinement rows, and wall-clock time
never enters the file, so identical plans produce byte-identical CSV.
"""

from __future__ import annotations

import ast
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import (
    error_report,
    gausson,
    gausson_gamma,
    gausson_phi,
    observed_order,
    siefd_tau_bound,
    sigma_max,
)
from .cache import reference_state
from .grid import Grid1D, GridFunction
from .nonlinearity import NonlinearityParams
from .schemes import (
    InitialData,
    NonConvergenceError,
    StabilityWarning,
    StepperConfig,
    evolve,
)

__all__ = [
    "PLAN_KINDS",
    "ExperimentPlan",
    "CellRow",
    "SweepResult",
    "PlanError",
    "run",
    "emit_csv",
    "plan_from_config",
    "plan_to_config",
    "reproduce_plan",
    "default_cache_dir",
]

PLAN_KINDS = (
    "temporal-sweep",
    "spatial-sweep",
    "epsilon-sweep",
    "diagonal-sweep",
    "energy-drift",
    "stability-probe",
    "single-solve",
)
PROBLEMS = ("example1-gausson", "example2-cos-sin", "custom")
REFERENCE_POLICIES = ("auto", "exact-gausson", "cnfd-fine", "none")

CSV_HEADER = (
    "scheme,problem,epsilon,lambda,h,tau,T,norm_l2,norm_linf,norm_h1,"
    "rate_l2,rate_linf,rate_h1,energy_drift,newton_avg_iters,status"
)

CACHE_DIR_ENV = "LOGKGE_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "logkge"


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str
    scheme: str = "cnfd"
    problem: str = "example1-gausson"
    domain: tuple[float, float] = (-16.0, 16.0)
    final_time: float = 1.0
    lam: float = 1.0
    epsilons: tuple[float, ...] = (0.05,)
    taus: tuple[float, ...] = ()
    hs: tuple[float, ...] = ()
    reference: str = "auto"
    tau_ref: float | None = None
    h_ref: float | None = None
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    threads: int = 1
    cache_dir: str | None = None
    out: str | None = None
    phi_expr: str | None = None
    gamma_expr: str | None = None
    probe_factors: tuple[float, ...] = (0.9, 1.5)
    probe_steps: int = 500
    snapshot_times: tuple[float, ...] = (0.0, 1.0, 5.0)

    def validate(self) -> list[str]:
        """All structural problems with the plan, not just the first."""
        errs = []
        if self.kind not in PLAN_KINDS:
            errs.append(f"kind: unknown kind {self.kind!r}, expected one of {PLAN_KINDS}")
        if self.scheme not in ("cnfd", "siefd"):
            errs.append(f"scheme: unknown scheme {self.scheme!r}")
        if self.problem not in PROBLEMS:
            errs.append(f"problem: unknown problem {self.problem!r}")
        if self.problem == "custom" and not self.phi_expr:
            errs.append("phi: custom problem needs a phi expression")
        if self.problem == "custom" and not self.gamma_expr:
            errs.append("gamma: custom problem needs a gamma expression")
        if not self.domain[1] > self.domain[0]:
            errs.append(f"domain: need a < b, got {self.domain}")
        if not self.final_time > 0.0:
            errs.append(f"T: must be > 0, got {self.final_time}")
        if any(e <= 0.0 for e in self.epsilons) or not self.epsilons:
            errs.append("epsilon: needs a nonempty list of positive values")
        if any(t <= 0.0 for t in self.taus):
            errs.append("tau: values must be positive")
        if any(h <= 0.0 for h in self.hs):
            errs.append("h: values must be positive")
        if self.reference not in REFERENCE_POLICIES:
            errs.append(f"reference: unknown policy {self.reference!r}")
        if self.threads < 1:
            errs.append("threads: must be >= 1")
        if not 0.0 < self.newton_tol <= 1e-6:
            errs.append("newton_tol: must lie in (0, 1e-6]")

        def needs(name, seq, minimum):
            if len(seq) < minimum:
                errs.append(f"{name}: {self.kind} needs at least {minimum} value(s)")
                return False
            return True

        def halving(name, seq):
            for a, b in zip(seq, seq[1:]):
                if not math.isclose(b, a / 2.0, rel_tol=1e-9):
                    errs.append(
                        f"{name}: rates requested but the list is not a halving "
                        f"sequence ({a} followed by {b})"
                    )
                    return

        if self.kind == "temporal-sweep":
            if needs("tau", self.taus, 2):
                halving("tau", self.taus)
            needs("h", self.hs, 1)
        elif self.kind == "spatial-sweep":
            if needs("h", self.hs, 2):
                halving("h", self.hs)
            needs("tau", self.taus, 1)
        elif self.kind == "epsilon-sweep":
            needs("epsilon", self.epsilons, 2)
            needs("tau", self.taus, 1)
            needs("h", self.hs, 1)
            ratios = [a / b for a, b in zip(self.epsilons, self.epsilons[1:])]
            if ratios and any(not math.isclose(r, ratios[0], rel_tol=1e-9) for r in ratios):
                errs.append("epsilon: refinement ratio must be constant across the list")
        elif self.kind == "diagonal-sweep":
            if needs("tau", self.taus, 2) and needs("h", self.hs, 2):
                if not (len(self.taus) == len(self.hs) == len(self.epsilons)):
                    errs.append("grids: diagonal sweep needs equal-length eps/h/tau lists")
                halving("tau", self.taus)
                halving("h", self.hs)
        else:
            needs("tau", self.taus, 1)
            needs("h", self.hs, 1)

        for h in self.hs:
            if h > 0 and (self.domain[1] - self.domain[0]) / h < 4:
                errs.append(f"h: {h} leaves fewer than 4 cells on {self.domain}")
        return errs


@dataclass
class CellRow:
    scheme: str
    problem: str
    epsilon: float
    lam: float
    h: float
    tau: float
    T: float
    norm_l2: float | None = None
    norm_linf: float | None = None
    norm_h1: float | None = None
    rate_l2: float | None = None
    rate_linf: float | None = None
    rate_h1: float | None = None
    energy_drift: float | None = None
    newton_avg_iters: float | None = None
    status: str = "ok"
    wall_time: float = 0.0
    growth: float | None = None

    def sort_key(self):
        return (self.epsilon, self.h, self.tau)


@dataclass
class SweepResult:
    plan: ExperimentPlan
    rows: list[CellRow] = field(default_factory=list)
    aux: dict = field(default_factory=dict)


class PlanError(ValueError):
    """Carries every validation or parse problem found in a plan."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# --- problem definitions -------------------------------------------------

_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "abs": np.abs,
    "pi": np.pi,
    "e": np.e,
}

_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _eval_expr(expr: str, x: np.ndarray) -> np.ndarray:
    """Evaluate a plan's initial-data expression in ``x``.

    Only numbers, ``x``, ``+ - * / **``, unary minus and the names of
    :data:`_EXPR_NAMES` (functions only as one-argument calls) are accepted;
    anything else is a :class:`PlanError`.  Numbers are read as floats, so a
    constant power overflows instead of building a huge integer.
    """
    names = dict(_EXPR_NAMES, x=x)

    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names and not callable(names[node.id]):
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
            return _EXPR_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords:
            fn = names.get(getattr(node.func, "id", None))
            if callable(fn):
                return fn(ev(node.args[0]))
        raise PlanError([f"expression {expr!r}: {ast.unparse(node)!r} is not allowed"])

    try:
        vals = np.asarray(ev(ast.parse(expr, mode="eval").body), dtype=float)
    except PlanError:
        raise
    except Exception as exc:
        raise PlanError([f"cannot evaluate expression {expr!r}: {exc}"]) from exc
    return vals * np.ones_like(x)


def default_domain(problem: str) -> tuple[float, float]:
    return (-1.0, 1.0) if problem == "example2-cos-sin" else (-16.0, 16.0)


def initial_data_for(plan: ExperimentPlan, g: Grid1D) -> InitialData:
    if plan.problem == "example1-gausson":
        return InitialData(
            phi=GridFunction.sample(g, gausson_phi),
            gamma=GridFunction.sample(g, gausson_gamma),
        )
    if plan.problem == "example2-cos-sin":
        return InitialData(
            phi=GridFunction.sample(g, lambda x: np.cos(np.pi * x)),
            gamma=GridFunction.sample(g, lambda x: np.sin(np.pi * x)),
        )
    return InitialData(
        phi=GridFunction(_eval_expr(plan.phi_expr, g.nodes)),
        gamma=GridFunction(_eval_expr(plan.gamma_expr, g.nodes)),
    )


def _problem_tag(plan: ExperimentPlan) -> str:
    if plan.problem == "custom":
        return f"custom:phi={plan.phi_expr};gamma={plan.gamma_expr}"
    return plan.problem


def _resolve_reference(plan: ExperimentPlan) -> str:
    if plan.reference != "auto":
        return plan.reference
    if plan.kind in ("epsilon-sweep", "diagonal-sweep"):
        return "exact-gausson" if plan.problem == "example1-gausson" else "none"
    if plan.kind in ("energy-drift", "stability-probe"):
        return "none"
    if plan.kind in ("temporal-sweep", "spatial-sweep"):
        return "cnfd-fine"
    return "exact-gausson" if plan.problem == "example1-gausson" else "none"


def _grid_for(plan: ExperimentPlan, h: float) -> Grid1D:
    a, b = plan.domain
    n = round((b - a) / h)
    if not math.isclose(n * h, b - a, rel_tol=1e-9):
        raise PlanError([f"h: {h} does not divide the domain {plan.domain} evenly"])
    return Grid1D(a, b, n)


def _steps_for(T: float, tau: float) -> int:
    n = round(T / tau)
    if n < 1 or not math.isclose(n * tau, T, rel_tol=1e-9):
        raise PlanError([f"tau: {tau} does not divide the final time {T} evenly"])
    return n


# --- reference handling ---------------------------------------------------


def _reference_grid_rule(plan: ExperimentPlan, h_cell: float, tau_cell: float):
    """(h_ref, tau_ref) for one cell under the cnfd-fine policy.

    Temporal sweeps keep the measured spatial grid so its spatial error
    cancels in the difference and only the temporal error survives; spatial
    sweeps keep the measured time step (same cancellation in time) and
    refine the mesh 8x.  Anything else refines both by the generic 4x/8x.
    """
    if plan.kind == "temporal-sweep":
        return h_cell, plan.tau_ref if plan.tau_ref else min(plan.taus) / 8.0
    if plan.kind == "spatial-sweep":
        return plan.h_ref if plan.h_ref else min(plan.hs) / 8.0, (
            plan.tau_ref if plan.tau_ref else tau_cell
        )
    return (
        plan.h_ref if plan.h_ref else h_cell / 4.0,
        plan.tau_ref if plan.tau_ref else tau_cell / 8.0,
    )


def _restrict(fine: GridFunction, g_fine: Grid1D, g_coarse: Grid1D) -> GridFunction:
    if g_fine.N % g_coarse.N != 0:
        raise PlanError(
            [f"reference grid N={g_fine.N} does not nest the cell grid N={g_coarse.N}"]
        )
    stride = g_fine.N // g_coarse.N
    return GridFunction(fine.values[::stride])


def _truth_for_cell(plan: ExperimentPlan, policy, eps, g, tau, refs):
    if policy == "none":
        return None, ""
    if policy == "exact-gausson":
        return (
            GridFunction.sample(g, lambda x: gausson(x, plan.final_time)),
            "exact-LogKGE",
        )
    h_ref, tau_ref = _reference_grid_rule(plan, g.h, tau)
    state = refs[(eps, h_ref, tau_ref)]
    g_ref = _grid_for(plan, h_ref)
    return _restrict(state.curr, g_ref, g), "reference-RLogKGE"


def _reference_specs(plan: ExperimentPlan, policy: str, cells) -> set:
    if policy != "cnfd-fine":
        return set()
    return {
        (eps, *_reference_grid_rule(plan, h, tau)) for (eps, h, tau) in cells
    }


def _compute_references(plan: ExperimentPlan, specs) -> dict:
    refs = {}
    for eps, h_ref, tau_ref in sorted(specs):
        g_ref = _grid_for(plan, h_ref)
        p = NonlinearityParams(lam=plan.lam, epsilon=eps)
        refs[(eps, h_ref, tau_ref)] = reference_state(
            _problem_tag(plan),
            initial_data_for(plan, g_ref),
            p,
            g_ref,
            tau_ref,
            _steps_for(plan.final_time, tau_ref),
            newton_tol=plan.newton_tol,
            cache_dir=plan.cache_dir,
        )
    return refs


# --- cell execution -------------------------------------------------------


def _cells_for(plan: ExperimentPlan) -> list[tuple[float, float, float]]:
    if plan.kind == "temporal-sweep":
        return [(e, plan.hs[0], t) for e in plan.epsilons for t in plan.taus]
    if plan.kind == "spatial-sweep":
        return [(e, h, plan.taus[0]) for e in plan.epsilons for h in plan.hs]
    if plan.kind == "epsilon-sweep":
        return [(e, plan.hs[0], plan.taus[0]) for e in plan.epsilons]
    if plan.kind == "diagonal-sweep":
        return list(zip(plan.epsilons, plan.hs, plan.taus))
    return [(e, plan.hs[0], plan.taus[0]) for e in plan.epsilons]


def _run_cell(plan, policy, refs, cell) -> CellRow:
    eps, h, tau = cell
    t0 = time.perf_counter()
    row = CellRow(
        scheme=plan.scheme,
        problem=plan.problem,
        epsilon=eps,
        lam=plan.lam,
        h=h,
        tau=tau,
        T=plan.final_time,
    )
    g = _grid_for(plan, h)
    p = NonlinearityParams(lam=plan.lam, epsilon=eps)
    cfg = StepperConfig(
        scheme=plan.scheme,
        tau=tau,
        newton_tol=plan.newton_tol,
        newton_max_iter=plan.newton_max_iter,
    )
    init = initial_data_for(plan, g)
    try:
        res = evolve(init, p, cfg, g, _steps_for(plan.final_time, tau))
    except NonConvergenceError:
        row.status = "non-convergence"
        row.wall_time = time.perf_counter() - t0
        return row
    row.energy_drift = res.max_rel_drift
    row.newton_avg_iters = res.newton_avg
    truth, against = _truth_for_cell(plan, policy, eps, g, tau, refs)
    if truth is not None:
        rep = error_report(res.state.curr, truth, g, against=against)
        row.norm_l2, row.norm_linf, row.norm_h1 = rep.l2, rep.linf, rep.h1
    row.wall_time = time.perf_counter() - t0
    return row


def _attach_rates(plan: ExperimentPlan, rows: list[CellRow]) -> None:
    """Orders between adjacent refinement rows, attached to the finer row."""
    if plan.kind == "temporal-sweep":
        group, step = lambda r: (r.epsilon, r.h), lambda r: r.tau
    elif plan.kind == "spatial-sweep":
        group, step = lambda r: (r.epsilon, r.tau), lambda r: r.h
    elif plan.kind == "epsilon-sweep":
        group, step = lambda r: (r.h, r.tau), lambda r: r.epsilon
    elif plan.kind == "diagonal-sweep":
        group, step = lambda r: 0, lambda r: r.tau
    else:
        return
    by_group: dict = {}
    for r in rows:
        by_group.setdefault(group(r), []).append(r)
    for members in by_group.values():
        members.sort(key=step, reverse=True)  # coarse to fine
        for coarse, fine in zip(members, members[1:]):
            if coarse.status != "ok" or fine.status != "ok":
                continue
            if coarse.norm_l2 is None or fine.norm_l2 is None:
                continue
            for name in ("l2", "linf", "h1"):
                e1, e2 = getattr(coarse, f"norm_{name}"), getattr(fine, f"norm_{name}")
                if e1 > 0 and e2 > 0:
                    order = observed_order([(step(coarse), e1), (step(fine), e2)])[0]
                    setattr(fine, f"rate_{name}", order)


def _run_energy_drift(plan: ExperimentPlan) -> SweepResult:
    eps, h, tau = plan.epsilons[0], plan.hs[0], plan.taus[0]
    g = _grid_for(plan, h)
    p = NonlinearityParams(lam=plan.lam, epsilon=eps)
    cfg = StepperConfig(plan.scheme, tau, plan.newton_tol, plan.newton_max_iter)
    n_steps = _steps_for(plan.final_time, tau)
    snap_steps = tuple(
        _steps_for(t, tau) if t > 0 else 0
        for t in plan.snapshot_times
        if t <= plan.final_time + 1e-12
    )
    t0 = time.perf_counter()
    res = evolve(initial_data_for(plan, g), p, cfg, g, n_steps, snapshot_steps=snap_steps)
    row = CellRow(
        scheme=plan.scheme, problem=plan.problem, epsilon=eps, lam=plan.lam,
        h=h, tau=tau, T=plan.final_time,
        energy_drift=res.max_rel_drift, newton_avg_iters=res.newton_avg,
        wall_time=time.perf_counter() - t0,
    )
    aux = {
        "times": np.arange(len(res.energy_series)) * tau,
        "energies": np.asarray(res.energy_series),
        "energy0": res.energy0,
        "snapshots": {k * tau: v for k, v in res.snapshots.items()},
        "grid": g,
    }
    return SweepResult(plan=plan, rows=[row], aux=aux)


def _run_stability_probe(plan: ExperimentPlan) -> SweepResult:
    import warnings

    eps, h = plan.epsilons[0], plan.hs[0]
    g = _grid_for(plan, h)
    p = NonlinearityParams(lam=plan.lam, epsilon=eps)
    init = initial_data_for(plan, g)
    bound = siefd_tau_bound(g.h, sigma_max(init.phi, p))
    rows = []
    for fac in plan.probe_factors:
        tau = fac * bound
        cfg = StepperConfig(plan.scheme, tau, plan.newton_tol, plan.newton_max_iter)
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            try:
                res = evolve(
                    init, p, cfg, g, plan.probe_steps,
                    abort_on_growth=10.0, track_energy=False,
                )
                blown, growth = res.blown_up, res.growth
            except NonConvergenceError:
                blown, growth = True, math.inf
        rows.append(
            CellRow(
                scheme=plan.scheme, problem=plan.problem, epsilon=eps,
                lam=plan.lam, h=h, tau=tau, T=plan.probe_steps * tau,
                status="unstable" if blown else "ok",
                growth=growth, wall_time=time.perf_counter() - t0,
            )
        )
    return SweepResult(plan=plan, rows=rows, aux={"bound": bound})


def run(plan: ExperimentPlan) -> SweepResult:
    """Execute a plan; cells run concurrently, output order is canonical.

    Solver failures inside a cell mark that row's status and never abort the
    sweep.  Two runs of the same plan against the same cache produce
    identical rows.
    """
    errors = plan.validate()
    if errors:
        raise PlanError(errors)
    if plan.kind == "energy-drift":
        return _run_energy_drift(plan)
    if plan.kind == "stability-probe":
        return _run_stability_probe(plan)

    policy = _resolve_reference(plan)
    if policy == "exact-gausson" and plan.problem != "example1-gausson":
        raise PlanError(["reference: exact-gausson truth exists only for example1-gausson"])
    cells = _cells_for(plan)
    refs = _compute_references(plan, _reference_specs(plan, policy, cells))
    if plan.threads > 1:
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            rows = list(pool.map(lambda c: _run_cell(plan, policy, refs, c), cells))
    else:
        rows = [_run_cell(plan, policy, refs, c) for c in cells]
    _attach_rates(plan, rows)
    rows.sort(key=CellRow.sort_key)
    return SweepResult(plan=plan, rows=rows)


# --- CSV ------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(result: SweepResult, path) -> None:
    """Write the documented CSV schema; deterministic for identical runs."""
    lines = [CSV_HEADER]
    for r in sorted(result.rows, key=CellRow.sort_key):
        lines.append(
            ",".join(
                [
                    r.scheme,
                    r.problem,
                    _fmt(r.epsilon),
                    _fmt(r.lam),
                    _fmt(r.h),
                    _fmt(r.tau),
                    _fmt(r.T),
                    _fmt(r.norm_l2),
                    _fmt(r.norm_linf),
                    _fmt(r.norm_h1),
                    _fmt(r.rate_l2),
                    _fmt(r.rate_linf),
                    _fmt(r.rate_h1),
                    _fmt(r.energy_drift),
                    _fmt(r.newton_avg_iters),
                    r.status,
                ]
            )
        )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def emit_drift_series(result: SweepResult, path) -> None:
    """Energy series of an energy-drift run: t, energy, relative drift."""
    t = result.aux["times"]
    e = result.aux["energies"]
    e0 = result.aux["energy0"]
    lines = ["t,energy,rel_drift"]
    for ti, ei in zip(t, e):
        lines.append(f"{ti:.17g},{ei:.17g},{abs(ei - e0) / (1.0 + abs(e0)):.17g}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def emit_waveforms(result: SweepResult, path) -> None:
    """Snapshots of u at the requested times, one column per time."""
    snaps = result.aux["snapshots"]
    g = result.aux["grid"]
    times = sorted(snaps)
    lines = ["x," + ",".join(f"u_t{t:g}" for t in times)]
    xs = g.nodes
    for j in range(g.N + 1):
        vals = ",".join(f"{snaps[t].values[j]:.17g}" for t in times)
        lines.append(f"{xs[j]:.17g},{vals}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


# --- plan files -----------------------------------------------------------

_PLAN_SECTIONS = ("experiment", "grids", "reference", "solver", "run", "custom")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def plan_from_config(path) -> ExperimentPlan:
    """Parse a line-oriented plan file; collects every error before raising.

    Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` comments and
    blank lines.  Sections: experiment (kind, scheme, problem, domain, T,
    lambda), grids (epsilon, tau, h or N as whitespace-separated lists),
    reference (policy, tau_ref, h_ref), solver (newton_tol,
    newton_max_iter), run (threads, out, cache_dir), custom (phi, gamma).
    Unknown sections or keys are errors with their line numbers.
    """
    text = Path(path).read_text()
    errors: list[str] = []
    values: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _PLAN_SECTIONS:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any [section]")
            continue
        key, val = (part.strip() for part in line.split("=", 1))
        values[(section, key.lower())] = (val, lineno)

    def take(section, key, default=None):
        entry = values.pop((section, key), None)
        return default if entry is None else entry[0]

    kind = take("experiment", "kind", "single-solve")
    scheme = take("experiment", "scheme", "cnfd")
    problem = take("experiment", "problem", "example1-gausson")
    domain_text = take("experiment", "domain")
    lam_text = take("experiment", "lambda", "1.0")
    T_text = take("experiment", "t", "1.0")
    eps_text = take("grids", "epsilon", "0.05")
    tau_text = take("grids", "tau")
    h_text = take("grids", "h")
    n_text = take("grids", "n")
    policy = take("reference", "policy", "auto")
    tau_ref_text = take("reference", "tau_ref")
    h_ref_text = take("reference", "h_ref")
    tol_text = take("solver", "newton_tol", "1e-12")
    max_iter_text = take("solver", "newton_max_iter", "50")
    threads_text = take("run", "threads", "1")
    out = take("run", "out")
    cache_dir = take("run", "cache_dir")
    phi_expr = take("custom", "phi")
    gamma_expr = take("custom", "gamma")

    for (section, key), (_, lineno) in values.items():
        errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")

    def parse(label, text_value, conv, default=None):
        if text_value is None:
            return default
        try:
            return conv(text_value)
        except (ValueError, TypeError):
            errors.append(f"{label}: cannot parse {text_value!r}")
            return default

    domain = default_domain(problem)
    if domain_text is not None:
        parts = parse("domain", domain_text, _parse_floats, [])
        if len(parts) == 2:
            domain = (parts[0], parts[1])
        else:
            errors.append(f"domain: expected two numbers, got {domain_text!r}")
    lam = parse("lambda", lam_text, float, 1.0)
    T = parse("T", T_text, float, 1.0)
    epsilons = tuple(parse("epsilon", eps_text, _parse_floats, [0.05]))
    taus = tuple(parse("tau", tau_text, _parse_floats, []) or [])
    hs = tuple(parse("h", h_text, _parse_floats, []) or [])
    if n_text is not None:
        ns = parse("N", n_text, _parse_floats, [])
        if hs:
            errors.append("grids: give h or N, not both")
        hs = tuple((domain[1] - domain[0]) / n for n in ns if n > 0)
    tau_ref = parse("tau_ref", tau_ref_text, float) if tau_ref_text else None
    h_ref = parse("h_ref", h_ref_text, float) if h_ref_text else None
    newton_tol = parse("newton_tol", tol_text, float, 1e-12)
    newton_max_iter = parse("newton_max_iter", max_iter_text, int, 50)
    threads = parse("threads", threads_text, int, 1)

    plan = ExperimentPlan(
        kind=kind,
        scheme=scheme,
        problem=problem,
        domain=domain,
        final_time=T,
        lam=lam,
        epsilons=epsilons,
        taus=taus,
        hs=hs,
        reference=policy,
        tau_ref=tau_ref,
        h_ref=h_ref,
        newton_tol=newton_tol,
        newton_max_iter=newton_max_iter,
        threads=threads,
        cache_dir=cache_dir,
        out=out,
        phi_expr=phi_expr,
        gamma_expr=gamma_expr,
    )
    errors.extend(plan.validate())
    if errors:
        raise PlanError(errors)
    return plan


def plan_to_config(plan: ExperimentPlan) -> str:
    """Plan file text that parses back to an equal plan."""
    lines = [
        "[experiment]",
        f"kind = {plan.kind}",
        f"scheme = {plan.scheme}",
        f"problem = {plan.problem}",
        f"domain = {plan.domain[0]!r} {plan.domain[1]!r}",
        f"T = {plan.final_time:.17g}",
        f"lambda = {plan.lam:.17g}",
        "",
        "[grids]",
        "epsilon = " + " ".join(f"{e:.17g}" for e in plan.epsilons),
    ]
    if plan.taus:
        lines.append("tau = " + " ".join(f"{t:.17g}" for t in plan.taus))
    if plan.hs:
        lines.append("h = " + " ".join(f"{h:.17g}" for h in plan.hs))
    lines += ["", "[reference]", f"policy = {plan.reference}"]
    if plan.tau_ref is not None:
        lines.append(f"tau_ref = {plan.tau_ref:.17g}")
    if plan.h_ref is not None:
        lines.append(f"h_ref = {plan.h_ref:.17g}")
    lines += [
        "",
        "[solver]",
        f"newton_tol = {plan.newton_tol:.17g}",
        f"newton_max_iter = {plan.newton_max_iter}",
        "",
        "[run]",
        f"threads = {plan.threads}",
    ]
    if plan.out is not None:
        lines.append(f"out = {plan.out}")
    if plan.cache_dir is not None:
        lines.append(f"cache_dir = {plan.cache_dir}")
    if plan.problem == "custom":
        lines += ["", "[custom]", f"phi = {plan.phi_expr}", f"gamma = {plan.gamma_expr}"]
    return "\n".join(lines) + "\n"


# --- reproduce targets ----------------------------------------------------


def reproduce_plan(
    target: str,
    paper_scale: bool = False,
    out: str | None = None,
    cache_dir: str | None = None,
    threads: int = 1,
) -> ExperimentPlan:
    """Built-in plans behind the reproduce targets.

    Desk-scale defaults finish in seconds to a couple of minutes and keep
    the refinement-ratio structure of the published tables; ``paper_scale``
    restores the original resolutions (minutes to hours).
    """
    common = dict(out=out, cache_dir=cache_dir, threads=threads)
    if target == "table1":
        return ExperimentPlan(
            kind="temporal-sweep",
            scheme="cnfd",
            problem="example1-gausson",
            final_time=1.0,
            epsilons=(0.05, 0.0125, 0.1 * 2.0**-15) if paper_scale else (0.05, 0.0125),
            taus=tuple(0.1 * 2.0**-j for j in range(6)),
            hs=(2.0**-10,) if paper_scale else (2.0**-7,),
            reference="cnfd-fine",
            tau_ref=0.01 * 2.0**-9 if paper_scale else 0.1 * 2.0**-8,
            **common,
        )
    if target == "table2":
        return ExperimentPlan(
            kind="spatial-sweep",
            scheme="cnfd",
            problem="example1-gausson",
            final_time=1.0,
            epsilons=(0.05, 0.0125, 0.1 * 2.0**-15) if paper_scale else (0.05, 0.0125),
            taus=(0.01 * 2.0**-9,) if paper_scale else (0.0025,),
            hs=tuple(0.5 * 2.0**-j for j in range(6 if paper_scale else 5)),
            reference="cnfd-fine",
            h_ref=2.0**-10 if paper_scale else None,
            tau_ref=0.01 * 2.0**-9 if paper_scale else None,
            **common,
        )
    if target == "table3-diagonal":
        levels = range(5)
        return ExperimentPlan(
            kind="diagonal-sweep",
            scheme="cnfd",
            problem="example1-gausson",
            final_time=1.0,
            epsilons=tuple(1e-3 * 4.0**-j for j in levels),
            hs=tuple(0.1 * 2.0**-j for j in levels),
            taus=tuple(0.1 * 2.0**-j for j in levels),
            reference="exact-gausson",
            **common,
        )
    if target == "table3-epsilon":
        return ExperimentPlan(
            kind="epsilon-sweep",
            scheme="cnfd",
            problem="example1-gausson",
            final_time=1.0,
            epsilons=tuple(1e-3 * 4.0**-j for j in range(5)),
            hs=(0.1 * 2.0**-5,),
            taus=(0.1 * 2.0**-5,),
            reference="exact-gausson",
            **common,
        )
    if target == "fig1":
        return ExperimentPlan(
            kind="epsilon-sweep",
            scheme="cnfd",
            problem="example1-gausson",
            final_time=0.5,
            epsilons=tuple(0.1 * 2.0**-i for i in range(1, 7)),
            hs=(2.0**-7,) if paper_scale else (2.0**-5,),
            taus=(0.001,) if paper_scale else (0.005,),
            reference="exact-gausson",
            **common,
        )
    if target == "fig-energy":
        return ExperimentPlan(
            kind="energy-drift",
            scheme="cnfd",
            problem="example2-cos-sin",
            domain=(-1.0, 1.0),
            final_time=10.0,
            epsilons=(0.05,),
            taus=(0.01,),
            hs=(2.0**-6,),
            snapshot_times=(0.0, 1.0, 5.0),
            **common,
        )
    raise PlanError([f"unknown reproduce target {target!r}"])


REPRODUCE_TARGETS = ("table1", "table2", "table3", "fig1", "fig-energy")


def run_reproduce(
    target: str,
    paper_scale: bool = False,
    out: str | None = None,
    cache_dir: str | None = None,
    threads: int = 1,
) -> SweepResult:
    """Run a reproduce target; table3 merges its diagonal and epsilon legs.

    When ``out`` is set, writes the sweep CSV there; the energy target also
    writes ``<out stem>_drift.csv`` and ``<out stem>_waveforms.csv``.
    """
    if target not in REPRODUCE_TARGETS:
        raise PlanError(
            [f"unknown reproduce target {target!r}, expected one of {REPRODUCE_TARGETS}"]
        )
    kw = dict(paper_scale=paper_scale, out=out, cache_dir=cache_dir, threads=threads)
    if target == "table3":
        diag = run(reproduce_plan("table3-diagonal", **kw))
        col = run(reproduce_plan("table3-epsilon", **kw))
        merged = SweepResult(plan=diag.plan, rows=diag.rows + col.rows)
        merged.aux["diagonal"] = diag
        merged.aux["epsilon_column"] = col
        result = merged
    else:
        result = run(reproduce_plan(target, **kw))
    if out is not None:
        emit_csv(result, out)
        if target == "fig-energy":
            stem = Path(out)
            emit_drift_series(result, stem.with_name(stem.stem + "_drift.csv"))
            emit_waveforms(result, stem.with_name(stem.stem + "_waveforms.csv"))
    return result
