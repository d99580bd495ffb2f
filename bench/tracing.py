"""Span recorder that wraps logkge's layer-boundary functions from outside.

A :class:`Tracer` replaces, for the duration of a ``with`` block, every
module-global binding of the functions listed in :data:`TARGETS` inside the
logkge submodules (plus the ``GridFunction.from_core`` classmethod) with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory; :meth:`Tracer.dump` writes them
once the pass is over.  Leaving the block restores every original binding.

A span is named ``<layer>.<function>@<calling module>``, so the same
function reached from two modules (``evolve`` from the harness cells and
from the reference cache) stays distinguishable.  :func:`layer_metrics`
turns the spans into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# (defining module, function name).  Every logkge submodule global bound to
# one of these function objects is wrapped, wherever it was imported.
TARGETS = (
    ("nonlinearity", "reg_log_primitive"),
    ("nonlinearity", "discrete_gradient"),
    ("nonlinearity", "discrete_gradient_dz1"),
    ("schemes", "solve_cyclic_tridiag"),
    ("schemes", "discrete_energy"),
    ("schemes", "evolve"),
    ("cache", "reference_state"),
    ("analysis", "error_report"),
    ("harness", "run"),
    ("harness", "emit_csv"),
    ("harness", "emit_drift_series"),
    ("harness", "emit_waveforms"),
)
SUBMODULES = ("grid", "nonlinearity", "schemes", "analysis", "cache", "harness")

START, END, PARENT, NAME = range(4)


class Tracer:
    """Records spans at logkge layer boundaries while active."""

    def __init__(self, logkge_pkg):
        self._pkg = logkge_pkg
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = [-1]
        self.spans: list[list] = []
        # Per evolve span index: (steps, newton_total) of its EvolveResult.
        self.evolve_results: dict[int, tuple[int, int]] = {}

    def _wrap(self, fn, name: str, is_evolve: bool = False):
        spans, stack, results = self.spans, self._stack, self.evolve_results
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [clock(), 0.0, stack[-1], name]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if is_evolve:
                results[idx] = (out.steps, out.newton_total)
            return out

        return wrapper

    def __enter__(self):
        mods = {m: getattr(self._pkg, m) for m in SUBMODULES}
        for home, fname in TARGETS:
            fn = getattr(mods[home], fname)
            for caller, mod in mods.items():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        span_name = f"{home}.{fname}@{caller}"
                        wrapped = self._wrap(fn, span_name, is_evolve=fname == "evolve")
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrapped)
        cls = mods["grid"].GridFunction
        original = cls.__dict__["from_core"]
        self._patches.append((cls, "from_core", original))
        cls.from_core = classmethod(self._wrap(original.__func__, "grid.GridFunction.from_core"))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: names once, then [start, end, parent, name index]."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[START] - t0, s[END] - t0, s[PARENT], index[s[NAME]]] for s in self.spans]
        evolve = {str(k): v for k, v in self.evolve_results.items()}
        Path(path).write_text(json.dumps({"names": names, "spans": rows, "evolve": evolve}))


# Children subtracted from the evolve span to leave the stepper's own time.
_STEP_CHILDREN = ("nonlinearity.", "schemes.solve_cyclic_tridiag@", "schemes.discrete_energy@")


def layer_metrics(spans: list[list], evolve_results: dict[int, tuple[int, int]]) -> dict:
    """Per-layer counts and times (seconds) from one pass's spans."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    child_time: dict[int, float] = {}
    step_child_time: dict[int, float] = {}
    has_compute_child: set[int] = set()
    for s in spans:
        base = s[NAME].split("@")[0]
        dur = s[END] - s[START]
        calls[base] = calls.get(base, 0) + 1
        busy[s[NAME]] = busy.get(s[NAME], 0.0) + dur
        busy[base] = busy.get(base, 0.0) + dur
        parent = s[PARENT]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + dur
            if s[NAME].startswith(_STEP_CHILDREN):
                step_child_time[parent] = step_child_time.get(parent, 0.0) + dur
            if s[NAME] == "schemes.evolve@cache":
                has_compute_child.add(parent)

    def self_time(base: str, children: dict[int, float]) -> float:
        return sum(
            s[END] - s[START] - children.get(i, 0.0)
            for i, s in enumerate(spans)
            if s[NAME].startswith(base + "@")
        )

    steps = sum(st for st, _ in evolve_results.values())
    newton_steps = sum(st - 1 for st, _ in evolve_results.values())
    newton_total = sum(nt for _, nt in evolve_results.values())
    ref_spans = [i for i, s in enumerate(spans) if s[NAME].startswith("cache.reference_state@")]
    tridiag_calls = calls.get("schemes.solve_cyclic_tridiag", 0)
    tridiag_busy = busy.get("schemes.solve_cyclic_tridiag", 0.0)
    out = {}
    for fn in ("reg_log_primitive", "discrete_gradient", "discrete_gradient_dz1"):
        out[f"nonlinearity.{fn}.calls"] = calls.get(f"nonlinearity.{fn}", 0)
        out[f"nonlinearity.{fn}.busy_s"] = busy.get(f"nonlinearity.{fn}", 0.0)
    out["nonlinearity.reg_log_primitive.calls_per_step"] = (
        out["nonlinearity.reg_log_primitive.calls"] / newton_steps if newton_steps else 0.0
    )
    out["schemes.solve_cyclic_tridiag.calls"] = tridiag_calls
    out["schemes.solve_cyclic_tridiag.busy_s"] = tridiag_busy
    out["schemes.solve_cyclic_tridiag.us_per_call"] = (
        1e6 * tridiag_busy / tridiag_calls if tridiag_calls else 0.0
    )
    out["schemes.step.self_s"] = self_time("schemes.evolve", step_child_time)
    out["schemes.newton_iters_per_step"] = newton_total / newton_steps if newton_steps else 0.0
    out["schemes.evolve.calls"] = calls.get("schemes.evolve", 0)
    out["schemes.evolve.steps"] = steps
    out["schemes.evolve.busy_s"] = busy.get("schemes.evolve", 0.0)
    out["schemes.discrete_energy.calls"] = calls.get("schemes.discrete_energy", 0)
    out["schemes.discrete_energy.busy_s"] = busy.get("schemes.discrete_energy", 0.0)
    out["grid.GridFunction.from_core.calls"] = calls.get("grid.GridFunction.from_core", 0)
    out["grid.GridFunction.from_core.busy_s"] = busy.get("grid.GridFunction.from_core", 0.0)
    out["cache.reference_state.calls"] = len(ref_spans)
    out["cache.reference_state.busy_s"] = busy.get("cache.reference_state", 0.0)
    out["cache.compute.busy_s"] = busy.get("schemes.evolve@cache", 0.0)
    out["cache.io.self_s"] = self_time("cache.reference_state", child_time)
    out["cache.hits"] = sum(1 for i in ref_spans if i not in has_compute_child)
    out["cache.misses"] = sum(1 for i in ref_spans if i in has_compute_child)
    out["harness.cells.busy_s"] = busy.get("schemes.evolve@harness", 0.0)
    out["harness.emit.busy_s"] = sum(
        busy.get(f"harness.{fn}", 0.0)
        for fn in ("emit_csv", "emit_drift_series", "emit_waveforms")
    )
    out["harness.run.self_s"] = self_time("harness.run", child_time)
    out["analysis.error_report.busy_s"] = busy.get("analysis.error_report", 0.0)
    return out
