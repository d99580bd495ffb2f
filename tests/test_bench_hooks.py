"""The names the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` patches logkge functions by name and reads two fields
of every ``evolve`` result, so a rename here would break the benchmark
without failing any other test.  A batched ``evolve`` must keep those two
fields Python ints whose sums over calls mean what they mean for one
member per call.  The tracer is loaded by path, as the
benchmark loads it.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import logkge
from logkge import harness
from logkge.grid import Grid1D, GridFunction
from logkge.nonlinearity import NonlinearityParams
from logkge.schemes import InitialData, StepperConfig, evolve

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no bench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_target_is_a_function_of_its_module(tracing):
    for home, name in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"logkge.{home}"), name, None)
        assert inspect.isfunction(fn), f"logkge.{home}.{name}"


def test_from_core_exists():
    assert isinstance(inspect.getattr_static(GridFunction, "from_core"), classmethod)


def test_evolve_result_has_the_fields_read():
    g = Grid1D(-1.0, 1.0, 8)
    init = InitialData(phi=np.cos(np.pi * g.nodes), gamma=np.zeros(g.N))
    p = NonlinearityParams(lam=1.0, epsilon=0.1)
    res = evolve(init, p, StepperConfig("cnfd", 0.01), g, 3)
    assert res.steps == 3 and res.newton_total >= 2  # at least one iteration per step


def test_energy_spans_are_children_of_evolve(tracing):
    # schemes.step.self_s subtracts the energy spans from the evolve span
    # that encloses them, so the observer's energies must run inside it.
    plan = harness.ExperimentPlan(
        kind="energy-drift", final_time=0.01, taus=(0.001,), hs=(0.5,), snapshot_times=(0.0,)
    )
    with tracing.Tracer(logkge) as tracer:
        harness.run(plan)
    names = [s[tracing.NAME] for s in tracer.spans]
    (evolve_idx,) = [i for i, n in enumerate(names) if n.startswith("schemes.evolve@")]
    energy = [s for s in tracer.spans if s[tracing.NAME].startswith("schemes.discrete_energy@")]
    assert len(energy) == 10
    assert all(s[tracing.PARENT] == evolve_idx for s in energy)
    m = tracing.layer_metrics(tracer.spans, tracer.evolve_results)
    assert m["schemes.evolve.steps"] == 10
    assert m["schemes.discrete_energy.calls"] == 10


def test_batched_sweep_keeps_the_traced_newton_rate(tracing):
    # Both eps of each h run as one evolve call.  The tracer sums steps and
    # newton_total over evolve calls, so its Newton rate must be what one
    # evolve per cell gives, and its metrics must stay plain JSON.
    plan = harness.ExperimentPlan(
        kind="spatial-sweep", epsilons=(0.05, 1e-6), hs=(2.0, 1.0), taus=(0.5,),
        final_time=4.0, reference="none",
    )
    with tracing.Tracer(logkge) as tracer:
        harness.run(plan)
    m = tracing.layer_metrics(tracer.spans, tracer.evolve_results)
    assert json.loads(json.dumps(m)) == m
    assert m["schemes.evolve.calls"] == 2
    totals, newton_steps = [], 0
    for eps in plan.epsilons:
        for h in plan.hs:
            g = Grid1D(*plan.domain, round((plan.domain[1] - plan.domain[0]) / h))
            p = NonlinearityParams(lam=plan.lam, epsilon=eps)
            res = evolve(harness.initial_data_for(plan, g), p, StepperConfig("cnfd", 0.5), g, 8)
            totals.append(res.newton_total)
            newton_steps += res.steps - 1
    assert len(set(totals)) > 1  # the members' counts differ
    assert m["schemes.newton_iters_per_step"] == sum(totals) / newton_steps
