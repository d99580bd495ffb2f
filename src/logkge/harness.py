"""Experiment runner: declarative refinement sweeps and their CSV output.

A sweep is described by an :class:`ExperimentPlan` (built in code, by the
``reproduce`` helpers, or parsed from a plan file), executed cell by cell by
:func:`run`, and serialized by :func:`emit_csv` with the fixed column schema

    scheme,problem,epsilon,lambda,h,tau,T,norm_l2,norm_linf,norm_h1,
    rate_l2,rate_linf,rate_h1,energy_drift,newton_avg_iters,status

Floats carry 17 significant digits, rows sort by (epsilon, h, tau), rate
cells are empty except between adjacent refinement rows, and wall-clock time
never enters the file, so identical plans produce byte-identical CSV.

Two tables hold what would otherwise be spread over many branches.
:data:`SWEEP_KINDS` gives each plan kind its swept axis and the meaning of
``reference = auto``; the cells, the validation of the grid lists, the
reference grids and the rate grouping all follow from the axis.
:data:`_PLAN_FIELDS` maps every plan-file key to its :class:`ExperimentPlan`
field, and drives both :func:`plan_from_config` and :func:`plan_to_config`.
"""

from __future__ import annotations

import ast
import math
import operator
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

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
    SCHEMES,
    EvolveResult,
    InitialData,
    NonConvergenceError,
    StabilityWarning,
    StepperConfig,
    evolve,
)

__all__ = [
    "PLAN_KINDS",
    "REPRODUCE_TARGETS",
    "ExperimentPlan",
    "CellRow",
    "SweepResult",
    "PlanError",
    "run",
    "emit_csv",
    "emit_drift_series",
    "emit_waveforms",
    "initial_data_for",
    "plan_from_config",
    "plan_to_config",
    "reproduce_plan",
    "run_reproduce",
    "default_cache_dir",
]


class SweepKind(NamedTuple):
    # "tau", "h" or "epsilon": that list is swept, the others contribute
    # their first value; "diagonal": eps, h and tau are zipped; None: one
    # cell per eps at the first h and tau.
    axis: str | None
    # What reference = auto means: "cnfd-fine", "none", or "exact-gausson",
    # which falls back to "none" for problems without an exact solution.
    auto_reference: str
    # The one cell samples u at the plan's snapshot times, and the result's
    # aux holds those snapshots and the cell's energy series.
    snapshots: bool = False
    # Every eps gets its own cells; False: one run at the first eps.
    each_epsilon: bool = True
    # The run steps to T at the plan's tau; False: it chooses its own time
    # steps, so tau may be omitted and T need not be a multiple of it.
    tau_grid: bool = True


SWEEP_KINDS = {
    "temporal-sweep": SweepKind("tau", "cnfd-fine"),
    "spatial-sweep": SweepKind("h", "cnfd-fine"),
    "epsilon-sweep": SweepKind("epsilon", "exact-gausson"),
    "diagonal-sweep": SweepKind("diagonal", "exact-gausson"),
    "energy-drift": SweepKind(None, "none", snapshots=True, each_epsilon=False),
    "stability-probe": SweepKind(None, "none", each_epsilon=False, tau_grid=False),
    "single-solve": SweepKind(None, "exact-gausson"),
}
PLAN_KINDS = tuple(SWEEP_KINDS)
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
    kind: str = "single-solve"
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
    cache_dir: str | None = None
    out: str | None = None
    phi_expr: str | None = None
    gamma_expr: str | None = None
    probe_factors: tuple[float, ...] = (0.9, 1.5)
    probe_steps: int = 500
    snapshot_times: tuple[float, ...] = (0.0, 1.0, 5.0)

    def validate(self) -> list[str]:
        """All problems with the plan, not just the first.

        Once the values themselves are sound, also checks every grid the run
        would build (meshes divide the domain, time steps divide T where the
        kind steps to T on them, reference meshes nest the cell meshes), so
        a plan that validates never fails on its grids mid-run.  Every float
        must be finite.
        """
        inf, positive = math.inf, "finite and > 0"
        checks = (  # (key, value, ok, requirement)
            ("domain", self.domain, -inf < self.domain[0] < self.domain[1] < inf, "a < b, finite"),
            ("T", self.final_time, _within([self.final_time], 0.0), positive),
            ("lambda", self.lam, _within([self.lam], -inf), "finite"),
            ("epsilon", self.epsilons, _within(self.epsilons, 0.0), positive),
            ("tau", self.taus, _within(self.taus, 0.0), positive),
            ("h", self.hs, _within(self.hs, 0.0), positive),
            ("tau_ref", self.tau_ref, _within([self.tau_ref], 0.0), positive),
            ("h_ref", self.h_ref, _within([self.h_ref], 0.0), positive),
            ("newton_tol", self.newton_tol, 0.0 < self.newton_tol <= 1e-6, "in (0, 1e-6]"),
            ("newton_max_iter", self.newton_max_iter, self.newton_max_iter >= 1, ">= 1"),
            ("probe factors", self.probe_factors, _within(self.probe_factors, 0.0), positive),
            ("probe steps", self.probe_steps, self.probe_steps >= 1, ">= 1"),
            ("snapshot_times", self.snapshot_times,
             all(0.0 <= t < inf for t in self.snapshot_times), "finite and >= 0"),
        )
        errs = [f"{key}: must be {req}, got {value!r}" for key, value, ok, req in checks if not ok]
        kind = SWEEP_KINDS.get(self.kind)
        if kind is None:
            errs.append(f"kind: unknown kind {self.kind!r}, expected one of {PLAN_KINDS}")
        if self.scheme not in SCHEMES:
            errs.append(f"scheme: unknown scheme {self.scheme!r}")
        if self.problem not in PROBLEMS:
            errs.append(f"problem: unknown problem {self.problem!r}")
        if self.problem == "custom" and not (self.phi_expr and self.gamma_expr):
            errs.append("custom: a custom problem needs phi and gamma expressions")
        if self.reference not in REFERENCE_POLICIES:
            errs.append(f"reference: unknown policy {self.reference!r}")
        if self.reference == "exact-gausson" and self.problem != "example1-gausson":
            errs.append("reference: exact-gausson truth exists only for example1-gausson")
        if kind is not None:
            errs.extend(self._kind_errors(kind))
        return errs or _grid_errors(self, kind)

    def _kind_errors(self, kind: SweepKind) -> list[str]:
        """The list lengths and refinement ratios the swept axis needs.

        A list the kind reads only the first value of may hold no second one,
        which the run would silently drop; a kind without a tau grid needs
        no tau at all.
        """
        errs = []
        swept = ("tau", "h") if kind.axis == "diagonal" else (kind.axis,)
        read = swept + (("epsilon",) if kind.each_epsilon else ())
        optional = () if kind.tau_grid else ("tau",)
        for name, seq in (("epsilon", self.epsilons), ("tau", self.taus), ("h", self.hs)):
            minimum = 2 if name in swept else 0 if name in optional else 1
            ratios = [a / b for a, b in zip(seq, seq[1:])]
            # Rates need tau and h halved at each level, eps refined by a fixed ratio.
            want = ratios[0] if name == "epsilon" and ratios else 2.0
            if len(seq) < minimum:
                errs.append(f"{name}: {self.kind} needs at least {minimum} value(s)")
            elif name in swept and not all(math.isclose(r, want, rel_tol=1e-9) for r in ratios):
                errs.append(f"{name}: rates need a refinement ratio of {want:g} throughout {seq}")
            elif name not in read and len(seq) > 1:
                errs.append(f"{name}: {self.kind} uses one {name} value, got {seq}")
        if kind.axis == "diagonal" and not len(self.taus) == len(self.hs) == len(self.epsilons):
            errs.append("grids: diagonal sweep needs equal-length eps/h/tau lists")
        if kind.axis == "tau" and self.h_ref is not None:
            errs.append(f"h_ref: {self.kind} keeps each cell's mesh, so h_ref is unused")
        return errs


def _within(values, low: float) -> bool:
    """Every value that is set lies in (low, inf); NaN never does."""
    return all(low < v < math.inf for v in values if v is not None)


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
        return InitialData(phi=g.sample(gausson_phi), gamma=g.sample(gausson_gamma))
    if plan.problem == "example2-cos-sin":
        return InitialData(
            phi=g.sample(lambda x: np.cos(np.pi * x)),
            gamma=g.sample(lambda x: np.sin(np.pi * x)),
        )
    return InitialData(
        phi=_eval_expr(plan.phi_expr, g.nodes), gamma=_eval_expr(plan.gamma_expr, g.nodes)
    )


def _problem_tag(plan: ExperimentPlan) -> str:
    if plan.problem == "custom":
        return f"custom:phi={plan.phi_expr};gamma={plan.gamma_expr}"
    return plan.problem


def _resolve_reference(plan: ExperimentPlan) -> str:
    if plan.reference != "auto":
        return plan.reference
    auto = SWEEP_KINDS[plan.kind].auto_reference
    if auto == "exact-gausson" and plan.problem != "example1-gausson":
        return "none"
    return auto


def _count(length: float, step: float) -> int | None:
    """How many steps make up ``length``; None unless ``step`` divides it."""
    n = round(length / step)
    return n if n >= 1 and math.isclose(n * step, length, rel_tol=1e-9) else None


def _grid_for(plan: ExperimentPlan, h: float) -> Grid1D:
    a, b = plan.domain
    return Grid1D(a, b, _count(b - a, h))


def _snapshot_steps(plan: ExperimentPlan) -> tuple[int, ...]:
    """Step of every snapshot time up to T; later times are skipped."""
    tau = plan.taus[0]
    return tuple(
        _count(t, tau) if t > 0 else 0
        for t in plan.snapshot_times
        if t <= plan.final_time + 1e-12
    )


def _grid_errors(plan: ExperimentPlan, kind: SweepKind) -> list[str]:
    """Meshes and time steps the run would use that do not fit the plan."""
    length, T = plan.domain[1] - plan.domain[0], plan.final_time
    errs = [f"h: {h} must divide the domain into at least 4 cells"
            for h in plan.hs if (_count(length, h) or 0) < 4]
    errs += [f"tau: {tau} does not divide T = {T} evenly" for tau in plan.taus
             if kind.tau_grid and not _count(T, tau)]
    if kind.snapshots and not errs and None in _snapshot_steps(plan):
        errs.append(f"snapshot_times: each time up to T must be a multiple of tau {plan.taus[0]}")
    if errs or _resolve_reference(plan) != "cnfd-fine":
        return errs
    for _, h, tau in _cells_for(plan):
        h_ref, tau_ref = _reference_grid_rule(plan, h, tau)
        n_ref = _count(length, h_ref)
        if n_ref is None or n_ref % _count(length, h):
            errs.append(f"h_ref: the reference mesh {h_ref} does not nest the cell mesh {h}")
        if not _count(T, tau_ref):
            errs.append(f"tau_ref: {tau_ref} does not divide T = {T} evenly")
    return list(dict.fromkeys(errs))


# --- reference handling ---------------------------------------------------


def _reference_grid_rule(plan: ExperimentPlan, h_cell: float, tau_cell: float):
    """(h_ref, tau_ref) for one cell under the cnfd-fine policy.

    A tau sweep keeps the measured spatial grid so its spatial error cancels
    in the difference and only the temporal error survives; an h sweep keeps
    the measured time step (same cancellation in time) and refines the mesh
    8x.  Every other axis refines both by the generic 4x/8x.  An explicit
    ``h_ref`` or ``tau_ref`` overrides the refined value.
    """
    axis = SWEEP_KINDS[plan.kind].axis
    if axis == "tau":
        return h_cell, plan.tau_ref or min(plan.taus) / 8.0
    if axis == "h":
        return plan.h_ref or min(plan.hs) / 8.0, plan.tau_ref or tau_cell
    return plan.h_ref or h_cell / 4.0, plan.tau_ref or tau_cell / 8.0


def _truth_for_cell(plan: ExperimentPlan, policy, eps, g, tau, refs):
    if policy == "none":
        return None, ""
    if policy == "exact-gausson":
        return g.sample(lambda x: gausson(x, plan.final_time)), "exact-LogKGE"
    h_ref, tau_ref = _reference_grid_rule(plan, g.h, tau)
    fine = refs[(eps, h_ref, tau_ref)].curr
    return fine[:: fine.size // g.N], "reference-RLogKGE"


def _compute_references(plan: ExperimentPlan, policy: str, cells) -> dict:
    """Reference states the cells need, keyed by (eps, h_ref, tau_ref)."""
    if policy != "cnfd-fine":
        return {}
    refs = {}
    for eps, h_ref, tau_ref in sorted(
        {(eps, *_reference_grid_rule(plan, h, tau)) for eps, h, tau in cells}
    ):
        g_ref = _grid_for(plan, h_ref)
        refs[(eps, h_ref, tau_ref)] = reference_state(
            _problem_tag(plan),
            initial_data_for(plan, g_ref),
            NonlinearityParams(lam=plan.lam, epsilon=eps),
            g_ref,
            tau_ref,
            _count(plan.final_time, tau_ref),
            newton_tol=plan.newton_tol,
            cache_dir=plan.cache_dir,
        )
    return refs


# --- cell execution -------------------------------------------------------


def _cells_for(plan: ExperimentPlan) -> list[tuple[float, float, float]]:
    axis = SWEEP_KINDS[plan.kind].axis
    if axis == "diagonal":
        return list(zip(plan.epsilons, plan.hs, plan.taus))
    hs = plan.hs if axis == "h" else plan.hs[:1]
    taus = plan.taus if axis == "tau" else plan.taus[:1]
    return [(e, h, t) for e in plan.epsilons for h in hs for t in taus]


def _row(plan: ExperimentPlan, eps: float, h: float, tau: float, **values) -> CellRow:
    values.setdefault("T", plan.final_time)
    return CellRow(plan.scheme, plan.problem, eps, plan.lam, h, tau, **values)


def _stepper(plan: ExperimentPlan, tau: float) -> StepperConfig:
    return StepperConfig(plan.scheme, tau, plan.newton_tol, plan.newton_max_iter)


def _run_cell(plan, policy, refs, cell) -> tuple[CellRow, EvolveResult | None]:
    """One cell's row and trajectory; a failed Newton solve gives no trajectory."""
    eps, h, tau = cell
    row = _row(plan, eps, h, tau)
    g = _grid_for(plan, h)
    p = NonlinearityParams(lam=plan.lam, epsilon=eps)
    snapshot_steps = _snapshot_steps(plan) if SWEEP_KINDS[plan.kind].snapshots else ()
    try:
        res = evolve(
            initial_data_for(plan, g), p, _stepper(plan, tau), g,
            _count(plan.final_time, tau), snapshot_steps=snapshot_steps,
        )
    except NonConvergenceError:
        row.status = "non-convergence"
        return row, None
    row.energy_drift = res.max_rel_drift
    row.newton_avg_iters = res.newton_avg
    truth, against = _truth_for_cell(plan, policy, eps, g, tau, refs)
    if truth is not None:
        rep = error_report(res.state.curr, truth, g, against=against)
        row.norm_l2, row.norm_linf, row.norm_h1 = rep.l2, rep.linf, rep.h1
    return row, res


def _attach_rates(plan: ExperimentPlan, rows: list[CellRow]) -> None:
    """Orders between adjacent refinement rows, attached to the finer row.

    Rows that agree on the axes held fixed form a group (a diagonal sweep is
    one group), ordered by the swept step (tau on the diagonal).
    """
    axis = SWEEP_KINDS[plan.kind].axis
    if axis is None:
        return
    step = operator.attrgetter("tau" if axis == "diagonal" else axis)
    fixed = () if axis == "diagonal" else [a for a in ("epsilon", "h", "tau") if a != axis]
    by_group: dict = {}
    for r in rows:
        by_group.setdefault(tuple(getattr(r, a) for a in fixed), []).append(r)
    for members in by_group.values():
        members.sort(key=step, reverse=True)  # coarse to fine
        for coarse, fine in zip(members, members[1:]):
            if coarse.norm_l2 is None or fine.norm_l2 is None:  # failed or no truth
                continue
            for name in ("l2", "linf", "h1"):
                e1, e2 = getattr(coarse, f"norm_{name}"), getattr(fine, f"norm_{name}")
                if e1 > 0 and e2 > 0:
                    order = observed_order([(step(coarse), e1), (step(fine), e2)])[0]
                    setattr(fine, f"rate_{name}", order)


def _trajectory_aux(plan: ExperimentPlan, cell, res: EvolveResult | None) -> dict:
    """Energy series and snapshots, keyed by time, of a snapshot kind's one cell."""
    _, h, tau = cell
    series = res.energy_series if res else []  # a failed Newton solve leaves none
    return {
        "times": np.arange(len(series)) * tau,
        "energies": np.asarray(series, dtype=float),
        "energy0": series[0] if series else None,
        "snapshots": {k * tau: v for k, v in (res.snapshots if res else {}).items()},
        "grid": _grid_for(plan, h),
    }


def _run_stability_probe(plan: ExperimentPlan) -> SweepResult:
    eps, h = plan.epsilons[0], plan.hs[0]
    g = _grid_for(plan, h)
    p = NonlinearityParams(lam=plan.lam, epsilon=eps)
    init = initial_data_for(plan, g)
    bound = siefd_tau_bound(g.h, sigma_max(init.phi, p))
    rows = []
    for fac in plan.probe_factors:
        tau = fac * bound
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            try:
                blown = evolve(
                    init, p, _stepper(plan, tau), g, plan.probe_steps,
                    abort_on_growth=10.0, track_energy=False,
                ).blown_up
            except NonConvergenceError:
                blown = True
        rows.append(
            _row(plan, eps, h, tau, T=plan.probe_steps * tau, status="unstable" if blown else "ok")
        )
    return SweepResult(plan=plan, rows=rows, aux={"bound": bound})


def run(plan: ExperimentPlan) -> SweepResult:
    """Execute a plan cell by cell; output order is canonical.

    The plan is validated first, so a bad plan raises :class:`PlanError`
    before any reference is computed.  Solver failures inside a cell mark
    that row's status and never abort the sweep.  Two runs of the same plan
    against the same cache produce identical rows.
    """
    errors = plan.validate()
    if errors:
        raise PlanError(errors)
    if plan.kind == "stability-probe":
        return _run_stability_probe(plan)

    policy = _resolve_reference(plan)
    cells = _cells_for(plan)
    refs = _compute_references(plan, policy, cells)
    rows, results = map(list, zip(*(_run_cell(plan, policy, refs, c) for c in cells)))
    _attach_rates(plan, rows)
    rows.sort(key=CellRow.sort_key)
    aux = _trajectory_aux(plan, cells[0], results[0]) if SWEEP_KINDS[plan.kind].snapshots else {}
    return SweepResult(plan=plan, rows=rows, aux=aux)


# --- CSV ------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return " ".join(map(_fmt, value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_lines(path, lines: list[str]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


# The CellRow attribute behind each CSV column.
_CSV_FIELDS = tuple("lam" if col == "lambda" else col for col in CSV_HEADER.split(","))


def emit_csv(result: SweepResult, path) -> None:
    """Write the documented CSV schema; deterministic for identical runs."""
    rows = sorted(result.rows, key=CellRow.sort_key)
    _write_lines(
        path, [CSV_HEADER] + [",".join(_fmt(getattr(r, f)) for f in _CSV_FIELDS) for r in rows]
    )


def emit_drift_series(result: SweepResult, path) -> None:
    """Energy series of an energy-drift run: t, energy, relative drift."""
    t = result.aux["times"]
    e = result.aux["energies"]
    e0 = result.aux["energy0"]
    lines = ["t,energy,rel_drift"]
    for ti, ei in zip(t, e):
        lines.append(f"{ti:.17g},{ei:.17g},{abs(ei - e0) / (1.0 + abs(e0)):.17g}")
    _write_lines(path, lines)


def emit_waveforms(result: SweepResult, path) -> None:
    """Snapshots of u at the requested times, one column per time.

    One row per closed node x_0 = a, ..., x_N = b; the last row repeats the
    periodic endpoint u_N = u_0.
    """
    snaps = result.aux["snapshots"]
    g = result.aux["grid"]
    times = sorted(snaps)
    cols = [GridFunction.from_core(snaps[t]).values for t in times]
    lines = [",".join(["x", *(f"u_t{t:g}" for t in times)])]
    xs = g.a + g.h * np.arange(g.N + 1)
    for j in range(g.N + 1) if cols else ():  # no snapshot, no rows
        vals = ",".join(f"{col[j]:.17g}" for col in cols)
        lines.append(f"{xs[j]:.17g},{vals}")
    _write_lines(path, lines)


# --- plan files -----------------------------------------------------------

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _pair(text: str) -> tuple[float, float]:
    a, b = _floats(text)
    return (a, b)


# Every ExperimentPlan field: (section, key, field, parse).  A value that
# parse rejects with ValueError is a parse error.  Values are written with
# _fmt (17 significant digits, lists space-separated); None is not written.
_PLAN_FIELDS = (
    ("experiment", "kind", "kind", str),
    ("experiment", "scheme", "scheme", str),
    ("experiment", "problem", "problem", str),
    ("experiment", "domain", "domain", _pair),
    ("experiment", "T", "final_time", float),
    ("experiment", "lambda", "lam", float),
    ("grids", "epsilon", "epsilons", _floats),
    ("grids", "tau", "taus", _floats),
    ("grids", "h", "hs", _floats),
    ("reference", "policy", "reference", str),
    ("reference", "tau_ref", "tau_ref", float),
    ("reference", "h_ref", "h_ref", float),
    ("solver", "newton_tol", "newton_tol", float),
    ("solver", "newton_max_iter", "newton_max_iter", int),
    ("run", "out", "out", str),
    ("run", "cache_dir", "cache_dir", str),
    ("run", "snapshot_times", "snapshot_times", _floats),
    ("probe", "factors", "probe_factors", _floats),
    ("probe", "steps", "probe_steps", int),
    ("custom", "phi", "phi_expr", str),
    ("custom", "gamma", "gamma_expr", str),
)
_PLAN_SECTIONS = tuple(dict.fromkeys(section for section, *_ in _PLAN_FIELDS))


def plan_from_config(path) -> ExperimentPlan:
    """Parse a line-oriented plan file; collects every error before raising.

    Grammar: ``[section]`` headers, ``key = value`` lines, blank lines, and
    comment lines whose first non-blank character is ``#``; a ``#`` anywhere
    else is part of the line, so values may contain it.  Keys are
    case-insensitive; a repeated key keeps its last value.  Lists are numbers
    separated by whitespace or commas.

        [experiment]  kind, scheme, problem, domain (two numbers), T, lambda
        [grids]       epsilon, tau, h (lists); or N (cell counts) for h
        [reference]   policy, tau_ref, h_ref
        [solver]      newton_tol, newton_max_iter
        [run]         out, cache_dir, snapshot_times (list)
        [probe]       factors (list), steps
        [custom]      phi, gamma

    A missing key takes the :class:`ExperimentPlan` default, except
    ``domain``, which defaults to the problem's own domain.  Unknown
    sections or keys and unparsable values are errors with their line
    numbers; the parsed plan must also pass :meth:`ExperimentPlan.validate`.
    """
    text = Path(path).read_text()
    errors: list[str] = []
    values: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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

    kw = {}
    for section, key, name, parse in _PLAN_FIELDS:
        entry = values.pop((section, key.lower()), None)
        if entry is None:
            continue
        try:
            kw[name] = parse(entry[0])
        except ValueError:
            errors.append(f"line {entry[1]}: {key}: cannot parse {entry[0]!r}")
    n_entry = values.pop(("grids", "n"), None)
    for (section, key), (_, lineno) in values.items():
        errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")

    a, b = kw.setdefault("domain", default_domain(kw.get("problem", "example1-gausson")))
    if n_entry is not None:
        try:
            ns = _floats(n_entry[0])
        except ValueError:
            ns = ()
        if "hs" in kw or not ns or not all(n >= 1 and n.is_integer() for n in ns):
            errors.append(
                f"line {n_entry[1]}: N: give cell counts >= 1 and no h, got {n_entry[0]!r}"
            )
        else:
            kw["hs"] = tuple((b - a) / n for n in ns)

    plan = ExperimentPlan(**kw)
    errors.extend(plan.validate())
    if errors:
        raise PlanError(errors)
    return plan


def plan_to_config(plan: ExperimentPlan) -> str:
    """Plan file text that parses back to an equal plan."""
    blocks = []
    for section in _PLAN_SECTIONS:
        body = [
            f"{key} = {_fmt(getattr(plan, name))}"
            for sec, key, name, _ in _PLAN_FIELDS
            if sec == section and getattr(plan, name) is not None
        ]
        if body:
            blocks.append("\n".join([f"[{section}]", *body]))
    return "\n\n".join(blocks) + "\n"


# --- reproduce targets ----------------------------------------------------


def reproduce_plan(
    target: str,
    paper_scale: bool = False,
    out: str | None = None,
    cache_dir: str | None = None,
) -> ExperimentPlan:
    """Built-in plans behind the reproduce targets.

    Desk-scale defaults finish in seconds to a couple of minutes and keep
    the refinement-ratio structure of the published tables; ``paper_scale``
    restores the original resolutions (minutes to hours).  Fields left out
    keep the :class:`ExperimentPlan` defaults: the cnfd scheme and, except for
    the energy figure, the Gausson of Example 1 on [-16, 16] up to T = 1.
    """
    common = dict(out=out, cache_dir=cache_dir)
    if target == "table1":
        return ExperimentPlan(
            kind="temporal-sweep",
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
            epsilons=tuple(1e-3 * 4.0**-j for j in levels),
            hs=tuple(0.1 * 2.0**-j for j in levels),
            taus=tuple(0.1 * 2.0**-j for j in levels),
            reference="exact-gausson",
            **common,
        )
    if target == "table3-epsilon":
        return ExperimentPlan(
            kind="epsilon-sweep",
            epsilons=tuple(1e-3 * 4.0**-j for j in range(5)),
            hs=(0.1 * 2.0**-5,),
            taus=(0.1 * 2.0**-5,),
            reference="exact-gausson",
            **common,
        )
    if target == "fig1":
        return ExperimentPlan(
            kind="epsilon-sweep",
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
) -> SweepResult:
    """Run a reproduce target; table3 merges its diagonal and epsilon legs.

    When ``out`` is set, writes the sweep CSV there; the energy target also
    writes ``<out stem>_drift.csv`` and ``<out stem>_waveforms.csv``.
    """
    if target not in REPRODUCE_TARGETS:
        raise PlanError(
            [f"unknown reproduce target {target!r}, expected one of {REPRODUCE_TARGETS}"]
        )
    kw = dict(paper_scale=paper_scale, out=out, cache_dir=cache_dir)
    if target == "table3":
        diag = run(reproduce_plan("table3-diagonal", **kw))
        col = run(reproduce_plan("table3-epsilon", **kw))
        result = SweepResult(
            diag.plan, diag.rows + col.rows, aux={"diagonal": diag, "epsilon_column": col}
        )
    else:
        result = run(reproduce_plan(target, **kw))
    if out is not None:
        emit_csv(result, out)
        if target == "fig-energy":
            stem = Path(out)
            emit_drift_series(result, stem.with_name(stem.stem + "_drift.csv"))
            emit_waveforms(result, stem.with_name(stem.stem + "_waveforms.csv"))
    return result
