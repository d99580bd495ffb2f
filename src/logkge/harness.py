"""Experiment runner: declarative refinement sweeps and their CSV output.

A sweep is described by an :class:`ExperimentPlan` (built in code, by the
``reproduce`` helpers, or parsed from a plan file), executed cell by cell by
:func:`run`, and serialized by :func:`emit_csv` with the fixed column schema

    scheme,problem,epsilon,lambda,h,tau,T,norm_l2,norm_linf,norm_h1,
    rate_l2,rate_linf,rate_h1,energy_drift,newton_avg_iters,status

Floats carry 17 significant digits, rows sort by (epsilon, h, tau), rate
cells are empty except between adjacent refinement rows, and wall-clock time
never enters the file, so identical plans produce byte-identical CSV.
``energy_drift`` is the largest :func:`~logkge.schemes.relative_drift` of
the cell's energy series.  ``status`` is ``ok``; ``non-convergence`` (the
cell's Newton solve failed: no norms, rates, drift or iterations);
``reference-non-convergence`` (its cnfd-fine reference failed: no norms or
rates); or, for a stability probe, ``unstable`` (the sup norm grew past 10x
its start, or Newton failed).

Three tables hold what would otherwise be spread over many branches.
:data:`SWEEP_KINDS` gives each plan kind its swept axis and the meaning of
``reference = auto``; the cells, the validation of the grid lists, the
reference grids and the rate grouping all follow from the axis.
:data:`_PLAN_FIELDS`, read from the fields of :class:`ExperimentPlan`, maps
every plan-file key to its field and drives both :func:`plan_from_config`
and :func:`plan_to_config`.
:data:`_BUILTIN_PLANS` holds each built-in plan's desk-scale fields and the
fields ``paper_scale`` replaces; :data:`_TARGET_PLANS` sends each reproduce
target to its plans.
"""

from __future__ import annotations

import ast
import contextlib
import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import starmap
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import (
    error_report,
    gausson,
    gausson_initial_data,
    observed_order,
    siefd_tau_bound,
    sigma_max,
)
from .cache import reference_state
from .grid import Grid1D, GridFunction, _whole, _within, norm_linf
from .nonlinearity import BLOCK, NonlinearityParams, width_requirement
from .schemes import (
    SCHEMES,
    InitialData,
    NonConvergenceError,
    StabilityWarning,
    StepperConfig,
    discrete_energy,
    evolve,
    relative_drift,
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

# The most values one layer of a run may hold (its members times N, a
# reference run included) and the most steps one run may take.  A run holds
# about ten layers at once, so 2^22 values (32 MiB a layer) keep it within a
# desk machine's memory; 10^7 steps take over half an hour even at N = 64.
# The paper-scale plans reach 3 x 32768 values and 51 200 steps.
MAX_LAYER_VALUES = 2**22
MAX_STEPS = 10**7

CSV_HEADER = (
    "scheme,problem,epsilon,lambda,h,tau,T,norm_l2,norm_linf,norm_h1,"
    "rate_l2,rate_linf,rate_h1,energy_drift,newton_avg_iters,status"
)

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _pair(text: str) -> tuple[float, float]:
    a, b = _floats(text)
    return (a, b)


def _key(default, section: str, key: str, parse=str):
    """A plan field read from ``key`` in ``[section]`` of a plan file by ``parse``."""
    return field(default=default, metadata={"plan": (section, key, parse)})


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str = _key("single-solve", "experiment", "kind")
    scheme: str = _key("cnfd", "experiment", "scheme")
    problem: str = _key("example1-gausson", "experiment", "problem")
    domain: tuple[float, float] = _key((-16.0, 16.0), "experiment", "domain", _pair)
    final_time: float = _key(1.0, "experiment", "T", float)
    lam: float = _key(1.0, "experiment", "lambda", float)
    epsilons: tuple[float, ...] = _key((0.05,), "grids", "epsilon", _floats)
    taus: tuple[float, ...] = _key((), "grids", "tau", _floats)
    hs: tuple[float, ...] = _key((), "grids", "h", _floats)
    reference: str = _key("auto", "reference", "policy")
    tau_ref: float | None = _key(None, "reference", "tau_ref", float)
    h_ref: float | None = _key(None, "reference", "h_ref", float)
    newton_tol: float = _key(StepperConfig.newton_tol, "solver", "newton_tol", float)
    newton_max_iter: int = _key(StepperConfig.newton_max_iter, "solver", "newton_max_iter", int)
    out: str | None = _key(None, "run", "out")
    cache_dir: str | None = _key(None, "run", "cache_dir")
    snapshot_times: tuple[float, ...] = _key((0.0, 1.0, 5.0), "run", "snapshot_times", _floats)
    probe_factors: tuple[float, ...] = _key((0.9, 1.5), "probe", "factors", _floats)
    probe_steps: int = _key(500, "probe", "steps", int)
    phi_expr: str | None = _key(None, "custom", "phi")
    gamma_expr: str | None = _key(None, "custom", "gamma")

    def validate(self) -> list[str]:
        """All problems with the plan, not just the first.

        Once the values themselves are sound, also checks every grid the run
        would build (meshes divide the domain, time steps divide T where the
        kind steps to T on them, reference meshes nest the cell meshes), so
        a plan that validates never fails on its grids mid-run.  Every float
        must be finite, and a swept plan's cells distinct.  No run may hold
        more than :data:`MAX_LAYER_VALUES` values a layer or take more than
        :data:`MAX_STEPS` steps.
        """
        inf, positive = math.inf, "finite and > 0"
        lists = (("epsilon", self.epsilons), ("tau", self.taus), ("h", self.hs),
                 ("probe factors", self.probe_factors), ("snapshot_times", self.snapshot_times))
        # A list field that is not a tuple or list gets one message and no other check.
        loose = {key: seq for key, seq in lists if not isinstance(seq, (tuple, list))}
        errs = [f"{key}: must be a tuple or list, got {seq!r}" for key, seq in loose.items()]
        eps, taus, hs, factors, times = (() if key in loose else seq for key, seq in lists)
        domain = self.domain
        checks = (  # (key, value, ok, requirement)
            ("domain", domain, isinstance(domain, (tuple, list)) and len(domain) == 2
             and _within(domain, -inf) and domain[0] < domain[1], "two finite numbers a < b"),
            ("T", self.final_time, _within([self.final_time], 0.0), positive),
            ("lambda", self.lam, _within([self.lam], -inf), "finite"),
            *(("epsilon", e, False, req) for e in eps if (req := width_requirement(e))),
            ("tau", taus, _within(taus, 0.0), positive),
            ("h", hs, _within(hs, 0.0), positive),
            # Optional: None takes the value of the reference grid rule.
            *((key, v, v is None or _within([v], 0.0), positive)
              for key, v in (("tau_ref", self.tau_ref), ("h_ref", self.h_ref))),
            ("newton_tol", self.newton_tol,
             _within([self.newton_tol], 0.0) and self.newton_tol <= 1e-6, "in (0, 1e-6]"),
            ("newton_max_iter", self.newton_max_iter, _whole(self.newton_max_iter), "an int >= 1"),
            ("probe factors", factors, _within(factors, 0.0), positive),
            ("probe steps", self.probe_steps, _whole(self.probe_steps), "an int >= 1"),
            ("snapshot_times", times,
             _within(times, -inf) and min(times, default=0.0) >= 0.0, "finite and >= 0"),
        )
        errs += [f"{key}: must be {req}, got {value!r}" for key, value, ok, req in checks if not ok]
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
            errs.extend(self._kind_errors(kind, loose))
        return errs or _grid_errors(self, kind)

    def _kind_errors(self, kind: SweepKind, loose: dict) -> list[str]:
        """The list lengths and refinement ratios the swept axis needs.

        A list the kind reads only the first value of may hold no second one,
        which the run would silently drop; a kind without a tau grid needs
        no tau at all.  The lists named in ``loose`` are not tuples or lists,
        and are skipped.
        """
        errs = []
        if kind.axis == "tau" and self.h_ref is not None:
            errs.append(f"h_ref: {self.kind} keeps each cell's mesh, so h_ref is unused")
        swept = ("tau", "h") if kind.axis == "diagonal" else (kind.axis,)
        read = swept + (("epsilon",) if kind.each_epsilon else ())
        optional = () if kind.tau_grid else ("tau",)
        for name, seq in (("epsilon", self.epsilons), ("tau", self.taus), ("h", self.hs)):
            if name in loose:
                continue
            minimum = 2 if name in swept else 0 if name in optional else 1
            # A value that is not a positive number is flagged in validate.
            ratios = [a / b for a, b in zip(seq, seq[1:])] if _within(seq, 0.0) else []
            # Rates need tau and h halved at each level, eps refined by a fixed ratio.
            want = ratios[0] if name == "epsilon" and ratios else 2.0
            if len(seq) < minimum:
                errs.append(f"{name}: {self.kind} needs at least {minimum} value(s)")
            elif name in swept and not all(math.isclose(r, want, rel_tol=1e-9) for r in ratios):
                errs.append(f"{name}: rates need a refinement ratio of {want:g} throughout {seq}")
            elif name not in read and len(seq) > 1:
                errs.append(f"{name}: {self.kind} uses one {name} value, got {seq}")
        if loose.keys() & {"epsilon", "tau", "h"}:
            return errs  # the cells need all three lists
        if kind.axis == "diagonal" and not len(self.taus) == len(self.hs) == len(self.epsilons):
            errs.append("grids: diagonal sweep needs equal-length eps/h/tau lists")
        cells = _cells_for(self)  # a repeated cell would stop the rates at a zero step
        if kind.axis is not None and len(set(cells)) < len(cells):
            errs.append(f"epsilon: rates need distinct epsilons, got {self.epsilons}")
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
    constant power overflows instead of building a huge integer.  A value
    that is not finite at some node, such as ``1/x`` or ``sqrt(x)`` on a
    grid through x <= 0, is a :class:`PlanError` naming the first such node.
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
        with np.errstate(all="ignore"):
            vals = np.asarray(ev(ast.parse(expr, mode="eval").body), dtype=float) * np.ones_like(x)
    except PlanError:
        raise
    except Exception as exc:
        raise PlanError([f"cannot evaluate expression {expr!r}: {exc}"]) from exc
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        j = bad[0]
        raise PlanError(
            [f"expression {expr!r} is {vals[j]} at node {j} (x = {float(x[j])!r})"]
        )
    return vals


def default_domain(problem: str) -> tuple[float, float]:
    return (-1.0, 1.0) if problem == "example2-cos-sin" else (-16.0, 16.0)


def initial_data_for(plan: ExperimentPlan, g: Grid1D) -> InitialData:
    if plan.problem == "example1-gausson":
        return gausson_initial_data(g)
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
    ratio = length / step  # inf when the steps are too many to count
    n = round(ratio) if math.isfinite(ratio) else 0
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
    """Meshes and time steps the run would use that do not fit the plan, or pass the limits."""
    length, T = plan.domain[1] - plan.domain[0], plan.final_time
    errs = [f"h: {h} must divide the domain into at least 4 cells"
            for h in plan.hs if (_count(length, h) or 0) < 4]
    errs += [f"tau: {tau} does not divide T = {T} evenly" for tau in plan.taus
             if kind.tau_grid and not _count(T, tau)]
    if kind.snapshots and not errs and None in _snapshot_steps(plan):
        errs.append(f"snapshot_times: each time up to T must be a multiple of tau {plan.taus[0]}")
    if errs:
        return errs
    # (values a layer, steps) of each run: one batch per (h, tau), or the probe's runs.
    cells = _cells_for(plan)
    batches = Counter((h, tau) for _, h, tau in cells)
    runs = ([(n * _count(length, h), _count(T, tau)) for (h, tau), n in batches.items()]
            if kind.tau_grid else [(_count(length, plan.hs[0]), plan.probe_steps)])
    if _resolve_reference(plan) == "cnfd-fine":
        for _, h, tau in cells:
            h_ref, tau_ref = _reference_grid_rule(plan, h, tau)
            n_ref, steps_ref = _count(length, h_ref), _count(T, tau_ref)
            if n_ref is None or n_ref % _count(length, h):
                errs.append(f"h_ref: the reference mesh {h_ref} does not nest the cell mesh {h}")
            if not steps_ref:
                errs.append(f"tau_ref: {tau_ref} does not divide T = {T} evenly")
            runs.append((n_ref or 0, steps_ref or 0))
    values, steps = map(max, zip(*runs))
    if values > MAX_LAYER_VALUES:
        errs.append(f"grids: a run would hold more than MAX_LAYER_VALUES = {MAX_LAYER_VALUES} "
                    "values a layer (members x N)")
    if steps > MAX_STEPS:
        errs.append(f"grids: a run would take more than MAX_STEPS = {MAX_STEPS} steps")
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


def _truths(plan: ExperimentPlan, policy: str, cells) -> dict:
    """Each (eps, h, tau) cell's truth on the cell's grid.

    The truth is None under policy ``none`` and where the cell's cnfd-fine
    reference failed.  Each reference runs once, for every cell it serves.
    """
    if policy == "none":
        return dict.fromkeys(cells)
    if policy == "exact-gausson":
        return {cell: _grid_for(plan, cell[1]).sample(lambda x: gausson(x, plan.final_time))
                for cell in cells}
    refs = {cell: (cell[0], *_reference_grid_rule(plan, *cell[1:])) for cell in cells}
    finals = dict.fromkeys(sorted(set(refs.values())))  # None where a reference fails
    for eps, h_ref, tau_ref in finals:
        g_ref = _grid_for(plan, h_ref)
        with contextlib.suppress(NonConvergenceError):
            finals[eps, h_ref, tau_ref] = reference_state(
                _problem_tag(plan),
                initial_data_for(plan, g_ref),
                NonlinearityParams(lam=plan.lam, epsilon=eps),
                g_ref,
                tau_ref,
                _count(plan.final_time, tau_ref),
                newton_tol=plan.newton_tol,
                cache_dir=plan.cache_dir,
            )[1]  # the final layer u^n
    truths = {}
    for cell, ref in refs.items():
        fine = finals[ref]
        truths[cell] = None if fine is None else fine[:: fine.size // _grid_for(plan, cell[1]).N]
    return truths


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


def _run_cells(plan, policy, truths, cells) -> list[tuple[CellRow, tuple[list, dict]]]:
    """Row and (energy series, snapshots by time) of each cell of one (h, tau) group.

    The group's eps are the members of one batch, however many values its
    layers hold.  If a member's Newton solve
    fails, a batch of several cells returns its cells run one at a time, and
    a single cell returns its non-convergence row (no records), so every row
    is what a run of its cell alone gives.
    """
    _, h, tau = cells[0]
    g = _grid_for(plan, h)
    init = initial_data_for(plan, g)
    snapshot_steps = _snapshot_steps(plan) if SWEEP_KINDS[plan.kind].snapshots else ()
    # One cell steps 1-D layers, several a (B, N) batch: same rows.
    p = NonlinearityParams(plan.lam, [c[0] for c in cells] if len(cells) > 1 else cells[0][0])
    energies = []
    snapshots = [{0.0: init.phi} if 0 in snapshot_steps else {} for _ in cells]

    def observe(run):
        energies.append(discrete_energy(run))
        if run.n in snapshot_steps:
            for snaps, u in zip(snapshots, run.curr.reshape(len(cells), -1)):
                snaps[run.n * tau] = u

    try:
        res = evolve(init, p, _stepper(plan, tau), g, _count(plan.final_time, tau), observe)
    except NonConvergenceError:
        if len(cells) > 1:
            return [out for cell in cells for out in _run_cells(plan, policy, truths, [cell])]
        return [(_row(plan, *cells[0], status="non-convergence"), ([], {}))]
    energies = np.array(energies).reshape(-1, len(cells))  # (steps, members)
    final = res.curr.reshape(len(cells), -1)
    out = []
    for k, cell in enumerate(cells):
        series = energies[:, k]
        row = _row(plan, *cell, energy_drift=float(relative_drift(series).max()),
                   newton_avg_iters=res.member_newton_avg(k))
        if truths[cell] is not None:
            rep = error_report(final[k], truths[cell], g)
            row.norm_l2, row.norm_linf, row.norm_h1 = rep.l2, rep.linf, rep.h1
        elif policy == "cnfd-fine":
            row.status = "reference-non-convergence"
        out.append((row, (list(series), snapshots[k])))
    return out


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


def _run_stability_probe(plan: ExperimentPlan) -> SweepResult:
    eps, h = plan.epsilons[0], plan.hs[0]
    g = _grid_for(plan, h)
    p = NonlinearityParams(lam=plan.lam, epsilon=eps)
    init = initial_data_for(plan, g)
    bound = siefd_tau_bound(g.h, sigma_max(init.phi, p))
    u0_inf = max(norm_linf(init.phi, g), 1e-300)

    def growing(run):  # sup norm past 10x its start, or not finite
        return not norm_linf(run.curr, g) / u0_inf <= 10.0

    taus = [fac * bound for fac in plan.probe_factors]
    if not _within(taus, 0.0):
        raise PlanError([f"probe factors: tau = factor * {bound:g}, the siefd tau bound at "
                         f"h = {h:g}, gives {taus}; each must be finite and > 0"])
    rows = []
    for tau in taus:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            try:
                blown = evolve(init, p, _stepper(plan, tau), g, plan.probe_steps, growing).stopped
            except NonConvergenceError:
                blown = True
        rows.append(
            _row(plan, eps, h, tau, T=plan.probe_steps * tau, status="unstable" if blown else "ok")
        )
    return SweepResult(plan=plan, rows=rows)


def run(plan: ExperimentPlan) -> SweepResult:
    """Execute a plan; output order is canonical.

    Cells that share (h, tau) run as one batch whose members are their eps.
    The plan is validated first, so a bad plan raises :class:`PlanError`
    before any reference is computed.  Solver failures mark a row's status
    and never abort the sweep: a batch in which a member's Newton solve
    fails is rerun one cell at a time, and only the cells that fail alone
    get a ``non-convergence`` row.  Two runs of the same plan against the
    same cache produce identical rows.  When ``plan.out`` is set, writes
    the result there as :func:`run_reproduce` does.
    """
    errors = plan.validate()
    if errors:
        raise PlanError(errors)
    if plan.kind == "stability-probe":
        return _emit(_run_stability_probe(plan), plan.out)

    policy = _resolve_reference(plan)
    cells = _cells_for(plan)
    truths = _truths(plan, policy, cells)
    groups: dict[tuple[float, float], list] = {}  # cells by (h, tau)
    for cell in cells:
        groups.setdefault(cell[1:], []).append(cell)
    done = [out for members in groups.values() for out in _run_cells(plan, policy, truths, members)]
    rows = [row for row, _ in done]
    _attach_rates(plan, rows)
    rows.sort(key=CellRow.sort_key)
    aux = {}
    if SWEEP_KINDS[plan.kind].snapshots:  # the one cell's energy series and snapshots by time
        (_, (energies, snapshots)), (_, h, tau) = done[0], cells[0]
        aux = {"times": np.arange(len(energies)) * tau, "energies": np.array(energies),
               "snapshots": snapshots, "grid": _grid_for(plan, h)}
    return _emit(SweepResult(plan=plan, rows=rows, aux=aux), plan.out)


# --- CSV ------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return " ".join(map(_fmt, value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, header: str, blocks) -> None:
    """Write the header line, then each block of lines as it is made."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with Path(path).open("w") as f:
        f.write(header + "\n")
        f.writelines(blocks)


def _format_rows(table: np.ndarray):
    """The rows of a 2-D float table to 17 digits, one string per BLOCK rows.

    Only one block's Python floats and text exist at once.
    """
    row = ",".join(["{:.17g}"] * table.shape[1]) + "\n"
    for lo in range(0, len(table), BLOCK):
        yield "".join(starmap(row.format, table[lo : lo + BLOCK].tolist()))


# The CellRow attribute behind each CSV column.
_CSV_FIELDS = tuple("lam" if col == "lambda" else col for col in CSV_HEADER.split(","))


def emit_csv(result: SweepResult, path) -> None:
    """Write the documented CSV schema; deterministic for identical runs."""
    rows = sorted(result.rows, key=CellRow.sort_key)
    lines = (",".join(_fmt(getattr(r, f)) for f in _CSV_FIELDS) + "\n" for r in rows)
    _write_csv(path, CSV_HEADER, lines)


def emit_drift_series(result: SweepResult, path) -> None:
    """Energy series of an energy-drift run: t, energy, relative drift."""
    e = result.aux["energies"]
    table = np.column_stack([result.aux["times"], e, relative_drift(e)])
    _write_csv(path, "t,energy,rel_drift", _format_rows(table))


def emit_waveforms(result: SweepResult, path) -> None:
    """Snapshots of u at the requested times, one column per time.

    One row per closed node x_0 = a, ..., x_N = b; the last row repeats the
    periodic endpoint u_N = u_0.  Rows are written :data:`BLOCK` at a time.
    """
    snaps = result.aux["snapshots"]
    g = result.aux["grid"]
    times = sorted(snaps)
    cols = (GridFunction.from_core(snaps[t]).values for t in times)
    table = np.column_stack([g.a + g.h * np.arange(g.N + 1), *cols])
    rows = _format_rows(table) if times else ()  # no snapshot, no rows
    _write_csv(path, ",".join(["x", *(f"u_t{t:g}" for t in times)]), rows)


# --- plan files -----------------------------------------------------------

# Every ExperimentPlan field: (field, section, key, parse).  A value that
# parse rejects with ValueError is a parse error.  Values are written with
# _fmt (17 significant digits, lists space-separated); None is not written.
_PLAN_FIELDS = tuple((f.name, *f.metadata["plan"]) for f in fields(ExperimentPlan))
_PLAN_SECTIONS = tuple(dict.fromkeys(section for _, section, *_ in _PLAN_FIELDS))


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
    for name, section, key, parse in _PLAN_FIELDS:
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
            for name, sec, key, _ in _PLAN_FIELDS
            if sec == section and getattr(plan, name) is not None
        ]
        if body:
            blocks.append("\n".join([f"[{section}]", *body]))
    return "\n\n".join(blocks) + "\n"


# --- reproduce targets ----------------------------------------------------


# The paper's three references, which table1 and table2 share at paper
# scale: one per eps, N = 32768 for 51 200 steps.
_PAPER_EPS, _PAPER_H, _PAPER_TAU = (0.05, 0.0125, 0.1 * 2.0**-15), 2.0**-10, 0.01 * 2.0**-9
# table3's eps: the diagonal's five levels, and the column of its epsilon leg.
_T3_EPS = tuple(1e-3 * 4.0**-j for j in range(5))

# Every built-in plan: (its desk-scale ExperimentPlan fields, the fields that
# paper_scale replaces).  Fields left out keep the ExperimentPlan defaults:
# the cnfd scheme and, except for the energy figure, the Gausson of Example 1
# on [-16, 16] up to T = 1.
_BUILTIN_PLANS = {
    "table1": (dict(kind="temporal-sweep", epsilons=(0.05, 0.0125), hs=(2.0**-7,),
                    taus=tuple(0.1 * 2.0**-j for j in range(6)), reference="cnfd-fine",
                    tau_ref=0.1 * 2.0**-8),
               dict(epsilons=_PAPER_EPS, hs=(_PAPER_H,), tau_ref=_PAPER_TAU)),
    "table2": (dict(kind="spatial-sweep", epsilons=(0.05, 0.0125), taus=(0.0025,),
                    hs=tuple(0.5 * 2.0**-j for j in range(5)), reference="cnfd-fine"),
               dict(epsilons=_PAPER_EPS, taus=(_PAPER_TAU,), h_ref=_PAPER_H, tau_ref=_PAPER_TAU,
                    hs=tuple(0.5 * 2.0**-j for j in range(6)))),
    "table3-diagonal": (dict(kind="diagonal-sweep", epsilons=_T3_EPS,
                             hs=tuple(0.1 * 2.0**-j for j in range(5)),
                             taus=tuple(0.1 * 2.0**-j for j in range(5)),
                             reference="exact-gausson"), {}),
    "table3-epsilon": (dict(kind="epsilon-sweep", epsilons=_T3_EPS, hs=(0.1 * 2.0**-5,),
                            taus=(0.1 * 2.0**-5,), reference="exact-gausson"), {}),
    "fig1": (dict(kind="epsilon-sweep", final_time=0.5, hs=(2.0**-5,), taus=(0.005,),
                  epsilons=tuple(0.1 * 2.0**-i for i in range(1, 7)), reference="exact-gausson"),
             dict(hs=(2.0**-7,), taus=(0.001,))),
    "fig-energy": (dict(kind="energy-drift", problem="example2-cos-sin", domain=(-1.0, 1.0),
                        final_time=10.0, epsilons=(0.05,), taus=(0.01,), hs=(2.0**-6,),
                        snapshot_times=(0.0, 1.0, 5.0)), {}),
}

# The built-in plans of each reproduce target, in the order of its rows.
_TARGET_PLANS = {
    "table1": ("table1",),
    "table2": ("table2",),
    "table3": ("table3-diagonal", "table3-epsilon"),
    "fig1": ("fig1",),
    "fig-energy": ("fig-energy",),
}
REPRODUCE_TARGETS = tuple(_TARGET_PLANS)


def reproduce_plan(
    target: str,
    paper_scale: bool = False,
    out: str | None = None,
    cache_dir: str | None = None,
) -> ExperimentPlan:
    """The built-in plan named ``target``, with its paper fields if ``paper_scale``.

    Desk-scale plans finish in seconds to a couple of minutes and keep the
    refinement-ratio structure of the published tables; the paper fields
    restore the original resolutions (minutes to hours).
    """
    if target not in _BUILTIN_PLANS:
        raise PlanError(
            [f"unknown built-in plan {target!r}, expected one of {tuple(_BUILTIN_PLANS)}"]
        )
    desk, paper = _BUILTIN_PLANS[target]
    return ExperimentPlan(**(desk | paper if paper_scale else desk), out=out, cache_dir=cache_dir)


def run_reproduce(
    target: str,
    paper_scale: bool = False,
    out: str | None = None,
    cache_dir: str | None = None,
) -> SweepResult:
    """Run the built-in plans of a reproduce target and join their rows in order.

    table3 runs its diagonal and epsilon legs; every other target is one
    plan.  When ``out`` is set, writes the sweep CSV there; a target whose
    plan takes snapshots (the energy figure) also writes
    ``<out stem>_drift.csv`` and ``<out stem>_waveforms.csv``.
    """
    if target not in _TARGET_PLANS:
        raise PlanError(
            [f"unknown reproduce target {target!r}, expected one of {REPRODUCE_TARGETS}"]
        )
    # The legs run without out, so each file is written once, with every row.
    plans = [reproduce_plan(name, paper_scale, None, cache_dir) for name in _TARGET_PLANS[target]]
    result, *rest = map(run, plans)
    for more in rest:
        result.rows += more.rows
    return _emit(result, out)


def _emit(result: SweepResult, out: str | None) -> SweepResult:
    """``result``, first written to ``out`` if it is set, as :func:`run_reproduce` describes."""
    if out is not None:
        emit_csv(result, out)
        if SWEEP_KINDS[result.plan.kind].snapshots:
            stem = Path(out)
            emit_drift_series(result, stem.with_name(stem.stem + "_drift.csv"))
            emit_waveforms(result, stem.with_name(stem.stem + "_waveforms.csv"))
    return result
