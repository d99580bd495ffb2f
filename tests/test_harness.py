import csv
import importlib.util
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from logkge import harness
from logkge.grid import Grid1D
from logkge.nonlinearity import BLOCK
from logkge.harness import (
    ExperimentPlan,
    PlanError,
    SweepResult,
    _eval_expr,
    emit_csv,
    emit_drift_series,
    emit_waveforms,
    initial_data_for,
    plan_from_config,
    plan_to_config,
    reproduce_plan,
)
from logkge.schemes import relative_drift

X = np.linspace(-2.0, 2.0, 33)
TESTS = Path(__file__).resolve().parent
GATE = TESTS.parent / "bench" / "gate.py"


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """``desk(target)``: (result, written CSVs) of the desk ``run_reproduce(target)``.

    Each target runs once a module, into an empty cache of its own.
    """
    made = {}

    def run(target):
        if target not in made:
            where = tmp_path_factory.mktemp(target)
            out = where / f"{target}.csv"
            result = harness.run_reproduce(target, out=str(out), cache_dir=str(where / "cache"))
            made[target] = result, sorted(where.glob("*.csv"))
        return made[target]

    return run


class TestExpressions:
    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("exp(-x**2)*cos(pi*x)", lambda x: np.exp(-x**2) * np.cos(np.pi * x)),
            ("0.5*sin(2*pi*x) + 1", lambda x: 0.5 * np.sin(2 * np.pi * x) + 1),
            ("-x**3/4 - x", lambda x: -x**3 / 4 - x),
            ("sqrt(abs(x))*e**-1", lambda x: np.sqrt(np.abs(x)) * np.e**-1),
            ("tanh(x) + cosh(x)/sinh(x + 10) - log(2 + tan(x/4))",
             lambda x: np.tanh(x) + np.cosh(x) / np.sinh(x + 10) - np.log(2 + np.tan(x / 4))),
            ("2", lambda x: 2.0 + 0.0 * x),
        ],
    )
    def test_arithmetic_forms_unchanged(self, expr, expected):
        np.testing.assert_array_equal(_eval_expr(expr, X), expected(X))

    @pytest.mark.parametrize(
        "expr",
        [
            "x*0 + ().__class__.__base__.__subclasses__().__len__()",
            "__import__('os')",
            "x.sum()",
            "sin",
            "sin(x, x)",
            "exp(x=x)",
            "y + 1",
            "x if x else 1",
            "[x][0]",
            "'1'",
            "x % 2",
            "1j*x",
            "x = 1",
            "x + 10**400",
        ],
    )
    def test_rejected(self, expr):
        with pytest.raises(PlanError):
            _eval_expr(expr, X)

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("sqrt(x)", "expression 'sqrt(x)' is nan at node 0 (x = -1.0)"),
            ("1/x", "expression '1/x' is inf at node 32 (x = 0.0)"),
        ],
        ids=["sqrt", "reciprocal"],
    )
    def test_nonfinite_initial_data_is_rejected(self, expr, message):
        # Nodes x <= 0 lie on the grid of [-1, 1]: the run stops before any
        # step with the expression and its first bad node, and no warning.
        plan = ExperimentPlan(
            kind="energy-drift", problem="custom", phi_expr=expr, gamma_expr="0",
            domain=(-1.0, 1.0), epsilons=(0.05,), taus=(0.01,), hs=(2 / 64,),
            snapshot_times=(0.0,),
        )
        with pytest.raises(PlanError) as exc:
            harness.run(plan)
        assert exc.value.errors == [message]

    def test_custom_plan_file(self, tmp_path):
        path = tmp_path / "custom.plan"
        path.write_text(
            "[experiment]\nproblem = custom\nkind = single-solve\n"
            "[grids]\ntau = 0.1\nh = 0.25\n"
            "[custom]\nphi = exp(-x**2)\n"
            "gamma = x*0 + ().__class__.__base__.__subclasses__().__len__()\n"
        )
        plan = plan_from_config(path)
        with pytest.raises(PlanError):
            initial_data_for(plan, Grid1D(-16.0, 16.0, 128))


# A probe steps at factor * siefd_tau_bound, so the plan's tau and T are unread.
_PROBE = ExperimentPlan(
    kind="stability-probe", scheme="siefd", hs=(0.5,), probe_factors=(0.5, 1.5), probe_steps=10
)


def _reproduce_plans():
    targets = ("table1", "table2", "table3-diagonal", "table3-epsilon", "fig1", "fig-energy")
    for target in targets:
        for paper_scale in (False, True):
            yield pytest.param(
                reproduce_plan(
                    target,
                    paper_scale=paper_scale,
                    out=f"results/{target}.csv",
                    cache_dir="cache dir/refs",
                ),
                id=f"{target}-{'paper' if paper_scale else 'desk'}",
            )
    yield pytest.param(
        ExperimentPlan(
            kind="single-solve",
            domain=(-16.0000001, 15.999999999999998),
            taus=(0.01,),
            hs=(32.0000001 / 256,),
        ),
        id="odd-domain",
    )
    yield pytest.param(
        ExperimentPlan(
            kind="energy-drift",
            final_time=0.2,
            taus=(0.05,),
            hs=(0.5,),
            snapshot_times=(0.0, 0.1),
        ),
        id="energy-drift-snapshots",
    )
    yield pytest.param(
        ExperimentPlan(
            kind="stability-probe",
            scheme="siefd",
            taus=(0.1,),
            hs=(0.5,),
            probe_factors=(0.5,),
            probe_steps=10,
        ),
        id="stability-probe",
    )
    for taus, name in (((0.3,), "stability-probe-tau-off-T-grid"), ((), "stability-probe-no-tau")):
        yield pytest.param(replace(_PROBE, taus=taus), id=name)
    yield pytest.param(
        replace(reproduce_plan("fig1"), out="results/run#2.csv", cache_dir="refs #1/cache"),
        id="hash-in-values",
    )


class TestPlanRoundTrip:
    @pytest.mark.parametrize("plan", _reproduce_plans())
    def test_round_trip(self, tmp_path, plan):
        path = tmp_path / "plan.txt"
        path.write_text(plan_to_config(plan))
        assert plan_from_config(path) == plan

    def test_unset_run_fields_stay_unset(self, tmp_path):
        plan = replace(reproduce_plan("fig1"), out=None, cache_dir=None)
        text = plan_to_config(plan)
        assert "out =" not in text and "cache_dir =" not in text
        path = tmp_path / "plan.txt"
        path.write_text(text)
        assert plan_from_config(path) == plan

    def test_hash_starts_a_comment_only_at_line_start(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(
            "# a plan\n" + _BASE_PLAN + "   # indented comment\n[run]\nout = a#b.csv\n"
        )
        assert plan_from_config(path).out == "a#b.csv"


class TestWaveforms:
    def test_closed_nodes_repeat_the_endpoint(self, tmp_path):
        plan = ExperimentPlan(
            kind="energy-drift", final_time=0.2, taus=(0.05,), hs=(0.5,),
            snapshot_times=(0.0, 0.1),
        )
        result = harness.run(plan)
        g, snaps = result.aux["grid"], result.aux["snapshots"]
        emit_waveforms(result, tmp_path / "w.csv")
        header, *lines = (tmp_path / "w.csv").read_text().splitlines()
        assert header == "x,u_t0,u_t0.1"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert rows.shape == (g.N + 1, 3)
        assert rows[0, 0] == g.a and rows[-1, 0] == g.b
        np.testing.assert_array_equal(rows[:-1, 1], snaps[0.0])
        np.testing.assert_array_equal(rows[:-1, 2], snaps[0.1])
        np.testing.assert_array_equal(rows[-1, 1:], rows[0, 1:])

    def test_bytes_match_the_per_node_formatter(self, tmp_path):
        # N + 1 > BLOCK rows span two format blocks; the columns hold -0.0,
        # the smallest subnormal and +-1e300 on both sides of the block seam.
        g = Grid1D(-1.0, 3.0, BLOCK + 6)
        rng = np.random.default_rng(3)
        snaps = {t: rng.standard_normal(g.N) for t in (1.0, 0.0, 0.25)}
        snaps[0.25][[0, BLOCK - 1, BLOCK, g.N - 1]] = (-0.0, 5e-324, 1e300, -1e300)
        snaps[1.0][[1, BLOCK + 1]] = (1e300, -0.0)
        result = SweepResult(ExperimentPlan(), aux={"snapshots": snaps, "grid": g})
        emit_waveforms(result, tmp_path / "w.csv")

        times = sorted(snaps)
        cols = [np.append(snaps[t], snaps[t][0]) for t in times]
        xs = g.a + g.h * np.arange(g.N + 1)
        want = [",".join(["x", *(f"u_t{t:g}" for t in times)])]
        for j in range(g.N + 1):
            want.append(f"{xs[j]:.17g}," + ",".join(f"{col[j]:.17g}" for col in cols))
        assert (tmp_path / "w.csv").read_bytes() == ("\n".join(want) + "\n").encode()

    def test_rows_are_streamed(self, tmp_path):
        # Rows go to the file a block at a time: formatting all 8 BLOCK + 1
        # rows before writing would hold several times the file's bytes.
        g = Grid1D(-16.0, 16.0, 8 * BLOCK)
        rng = np.random.default_rng(5)
        snaps = {t: rng.standard_normal(g.N) for t in (0.0, 0.1)}
        result = SweepResult(ExperimentPlan(), aux={"snapshots": snaps, "grid": g})
        tracemalloc.start()
        try:
            emit_waveforms(result, tmp_path / "w.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (tmp_path / "w.csv").stat().st_size


class TestDriftSeries:
    def test_bytes_match_the_per_row_formatter(self, tmp_path):
        # More than BLOCK rows span two format blocks; -0.0, the smallest
        # subnormal and +-1e300 sit on both sides of the block seam.
        n = BLOCK + 6
        times = np.arange(n) * 0.001
        energies = 1.0 + np.random.default_rng(4).standard_normal(n)
        specials = (-0.0, 5e-324, 1e300, -1e300)
        energies[BLOCK - 4 : BLOCK + 4] = specials + specials[::-1]
        times[BLOCK - 2 : BLOCK + 2] = specials
        result = SweepResult(ExperimentPlan(), aux={"times": times, "energies": energies})
        emit_drift_series(result, tmp_path / "d.csv")

        want = ["t,energy,rel_drift"]
        for t, e, d in zip(times, energies, relative_drift(energies)):
            want.append(f"{t:.17g},{e:.17g},{d:.17g}")
        assert (tmp_path / "d.csv").read_bytes() == ("\n".join(want) + "\n").encode()


class TestEnergyDriftFailure:
    def test_nonconvergence_is_a_row_status(self, tmp_path):
        # The amplitude-5 step of the schemes tests: one Newton iteration is
        # not enough, so the trajectory fails on its first implicit step.
        plan = ExperimentPlan(
            kind="energy-drift", problem="custom", phi_expr="5*cos(3*pi*x)",
            gamma_expr="4*sin(pi*x)", domain=(-1.0, 1.0), epsilons=(0.05,),
            taus=(0.5,), hs=(2 / 64,), newton_max_iter=1, snapshot_times=(0.0,),
        )
        result = harness.run(plan)
        assert [r.status for r in result.rows] == ["non-convergence"]
        assert result.rows[0].energy_drift is None
        emit_csv(result, tmp_path / "e.csv")
        emit_drift_series(result, tmp_path / "e_drift.csv")
        emit_waveforms(result, tmp_path / "e_waveforms.csv")
        _, row = (tmp_path / "e.csv").read_text().splitlines()
        assert row.endswith(",non-convergence")
        assert (tmp_path / "e_drift.csv").read_text() == "t,energy,rel_drift\n"
        assert (tmp_path / "e_waveforms.csv").read_text() == "x\n"


class TestReferenceFailure:
    def test_failed_reference_is_a_row_status(self, tmp_path):
        # The eps = 1e-8 reference (h = 1/16, tau = 0.5) runs out of Newton
        # iterations.  Its h = 0.5 cell converges and keeps its own drift and
        # iteration count; its h = 1.0 cell fails its own solve.
        fields = dict(kind="spatial-sweep", taus=(0.5,), hs=(1.0, 0.5), final_time=4.0,
                      reference="cnfd-fine")
        rows = harness.run(
            ExperimentPlan(epsilons=(0.05, 1e-8), cache_dir=str(tmp_path), **fields)
        ).rows
        assert rows[2:] == harness.run(ExperimentPlan(epsilons=(0.05,), **fields)).rows
        assert [r.status for r in rows] == [
            "reference-non-convergence", "non-convergence", "ok", "ok"
        ]
        failed = rows[0]
        assert (failed.epsilon, failed.h) == (1e-8, 0.5)
        assert failed.energy_drift is not None and failed.newton_avg_iters is not None
        assert all(getattr(failed, f"{kind}_{name}") is None
                   for kind in ("norm", "rate") for name in ("l2", "linf", "h1"))
        assert len(list(tmp_path.iterdir())) == 1  # only the eps = 0.05 reference


class TestCustomReferences:
    def test_each_custom_problem_keeps_its_own_reference(self, tmp_path):
        # Two custom problems that differ only in phi share every other key
        # field; a reference cached for one must not serve the other.
        def sweep(phi):
            return harness.run(ExperimentPlan(
                kind="temporal-sweep", problem="custom", phi_expr=phi, gamma_expr="0",
                final_time=0.2, taus=(0.1, 0.05), hs=(0.5,), reference="cnfd-fine",
                cache_dir=str(tmp_path),
            )).rows

        first = sweep("exp(-x**2)")
        assert len(list(tmp_path.iterdir())) == 1
        sweep("exp(-2*x**2)")
        assert len(list(tmp_path.iterdir())) == 2
        assert sweep("exp(-x**2)") == first
        assert len(list(tmp_path.iterdir())) == 2


# Tiny sweeps of every cell-sweep kind, pinned by what they compute: the row
# keys (eps, h, tau), which rows carry rates, and the (eps, N, tau) of every
# reference run.  Gausson data on [-16, 16] unless a domain is given.
_SWEEPS = {
    "temporal": (
        dict(kind="temporal-sweep", final_time=0.2, epsilons=(0.1, 0.05),
             taus=(0.1, 0.05), hs=(0.5,)),
        [(0.05, 0.5, 0.05), (0.05, 0.5, 0.1), (0.1, 0.5, 0.05), (0.1, 0.5, 0.1)],
        [True, False, True, False],
        [(0.05, 64, 0.00625), (0.1, 64, 0.00625)],
    ),
    "spatial": (
        dict(kind="spatial-sweep", final_time=0.1, epsilons=(0.05,),
             taus=(0.05,), hs=(1.0, 0.5)),
        [(0.05, 0.5, 0.05), (0.05, 1.0, 0.05)],
        [True, False],
        [(0.05, 512, 0.05)],
    ),
    "spatial-explicit-ref": (
        dict(kind="spatial-sweep", final_time=0.1, epsilons=(0.05,),
             taus=(0.05,), hs=(1.0, 0.5), h_ref=0.25, tau_ref=0.025),
        [(0.05, 0.5, 0.05), (0.05, 1.0, 0.05)],
        [True, False],
        [(0.05, 128, 0.025)],
    ),
    "epsilon": (
        dict(kind="epsilon-sweep", final_time=0.1, epsilons=(0.1, 0.05, 0.025),
             taus=(0.05,), hs=(0.5,)),
        [(0.025, 0.5, 0.05), (0.05, 0.5, 0.05), (0.1, 0.5, 0.05)],
        [True, True, False],
        [],
    ),
    "epsilon-cnfd-fine": (
        dict(kind="epsilon-sweep", final_time=0.1, epsilons=(0.1, 0.05, 0.025),
             taus=(0.05,), hs=(0.5,), reference="cnfd-fine"),
        [(0.025, 0.5, 0.05), (0.05, 0.5, 0.05), (0.1, 0.5, 0.05)],
        [True, True, False],
        [(0.025, 256, 0.00625), (0.05, 256, 0.00625), (0.1, 256, 0.00625)],
    ),
    "epsilon-no-exact": (
        dict(kind="epsilon-sweep", problem="example2-cos-sin", domain=(-1.0, 1.0),
             final_time=0.1, epsilons=(0.1, 0.05), taus=(0.05,), hs=(0.125,)),
        [(0.05, 0.125, 0.05), (0.1, 0.125, 0.05)],
        [False, False],
        [],
    ),
    "diagonal": (
        dict(kind="diagonal-sweep", final_time=0.2, epsilons=(0.1, 0.025),
             taus=(0.1, 0.05), hs=(1.0, 0.5)),
        [(0.025, 0.5, 0.05), (0.1, 1.0, 0.1)],
        [True, False],
        [],
    ),
    "diagonal-cnfd-fine": (
        dict(kind="diagonal-sweep", final_time=0.2, epsilons=(0.1, 0.025),
             taus=(0.1, 0.05), hs=(1.0, 0.5), reference="cnfd-fine"),
        [(0.025, 0.5, 0.05), (0.1, 1.0, 0.1)],
        [True, False],
        [(0.025, 256, 0.00625), (0.1, 128, 0.0125)],
    ),
    # eps held fixed while h and tau halve: distinct cells, so it runs and is rated.
    "diagonal-fixed-epsilon": (
        dict(kind="diagonal-sweep", final_time=0.2, epsilons=(0.05, 0.05),
             taus=(0.1, 0.05), hs=(1.0, 0.5)),
        [(0.05, 0.5, 0.05), (0.05, 1.0, 0.1)],
        [True, False],
        [],
    ),
    # Nothing is rated, so a repeated eps is only a repeated row.
    "single-solve-repeated-epsilon": (
        dict(kind="single-solve", final_time=0.1, epsilons=(0.05, 0.05),
             taus=(0.05,), hs=(0.5,)),
        [(0.05, 0.5, 0.05), (0.05, 0.5, 0.05)],
        [False, False],
        [],
    ),
    "single-solve": (
        dict(kind="single-solve", final_time=0.1, epsilons=(0.1, 0.05),
             taus=(0.05,), hs=(0.5,)),
        [(0.05, 0.5, 0.05), (0.1, 0.5, 0.05)],
        [False, False],
        [],
    ),
    "single-solve-cnfd-fine": (
        dict(kind="single-solve", final_time=0.1, epsilons=(0.1, 0.05),
             taus=(0.05,), hs=(0.5,), reference="cnfd-fine"),
        [(0.05, 0.5, 0.05), (0.1, 0.5, 0.05)],
        [False, False],
        [(0.05, 256, 0.00625), (0.1, 256, 0.00625)],
    ),
}


class TestSweepKinds:
    @pytest.mark.parametrize("name", list(_SWEEPS))
    def test_cells_rates_and_references(self, monkeypatch, name):
        fields, keys, rated, ref_calls = _SWEEPS[name]
        calls = []
        real = harness.reference_state

        def recording(problem, init, p, g, tau, n_steps, **kw):
            calls.append((p.epsilon, g.N, tau))
            return real(problem, init, p, g, tau, n_steps, **kw)

        monkeypatch.setattr(harness, "reference_state", recording)
        result = harness.run(ExperimentPlan(**fields))
        assert [(r.epsilon, r.h, r.tau) for r in result.rows] == keys
        assert all(r.status == "ok" for r in result.rows)
        assert [r.rate_l2 is not None for r in result.rows] == rated
        assert all(
            (r.rate_l2 is None) == (r.rate_linf is None) == (r.rate_h1 is None)
            for r in result.rows
        )
        has_truth = bool(ref_calls) or fields.get("problem") != "example2-cos-sin"
        assert all((r.norm_l2 is not None) == has_truth for r in result.rows)
        assert calls == ref_calls

    @pytest.mark.parametrize("taus", [(0.3,), ()], ids=["tau-off-T-grid", "no-tau"])
    def test_probe_ignores_tau(self, taus):
        plan = replace(_PROBE, taus=taus)
        assert plan.validate() == []
        rows = harness.run(plan).rows
        assert rows == harness.run(replace(_PROBE, taus=(0.25,))).rows
        assert [r.status for r in rows] == ["ok", "unstable"]

    @pytest.mark.parametrize("h, factors", [(2.0, (0.9, 1.5)), (32 / 45, (0.5, 1e308))],
                             ids=["inf-bound", "overflow"])
    def test_probe_tau_off_the_reals_is_a_plan_error(self, monkeypatch, h, factors):
        # At h = 2 the siefd bound on the Gausson is inf; at h = 32/45 it is
        # about 2.1, which a factor of 1e308 overflows.  Either is reported
        # before any step.
        plan = ExperimentPlan(kind="stability-probe", scheme="siefd", final_time=1.0,
                              taus=(0.1,), hs=(h,), epsilons=(0.05,), probe_factors=factors)
        assert plan.validate() == []
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: pytest.fail("stepped"))
        with pytest.raises(PlanError, match=f"bound at h = {h:g}, gives .*inf"):
            harness.run(plan)

    def test_fig1_eps_rates_near_one(self):
        rows = harness.run(reproduce_plan("fig1")).rows
        rates = [
            getattr(r, f"rate_{n}") for r in rows[:-1] for n in ("l2", "linf", "h1")
        ]
        assert len(rates) == 3 * (len(rows) - 1) and rows[-1].rate_l2 is None
        assert all(abs(rate - 1.0) < 0.1 for rate in rates)


_NO_H_PLAN = "[experiment]\nkind = single-solve\n[grids]\ntau = 0.1\n"
_BASE_PLAN = _NO_H_PLAN + "h = 0.5\n"


class TestBatchedCells:
    @pytest.mark.parametrize(
        "plan",
        [
            pytest.param(reproduce_plan("fig1"), id="fig1"),
            # Two members with different Newton counts at each h.
            pytest.param(ExperimentPlan(kind="spatial-sweep", epsilons=(0.05, 1e-6),
                                        hs=(2.0, 1.0), taus=(0.5,), final_time=4.0,
                                        reference="exact-gausson"), id="spatial"),
            # 2 x 10240 values: the kernels run each row in BLOCK pieces, 8192 + 2048.
            pytest.param(ExperimentPlan(kind="epsilon-sweep", epsilons=(1e-3, 2.5e-4),
                                        hs=(0.1 * 2.0**-5,), taus=(0.1 * 2.0**-5,),
                                        final_time=0.5 * 2.0**-5, reference="exact-gausson"),
                         id="above-block"),
        ],
    )
    def test_each_row_is_its_cell_run_alone(self, plan):
        # The eps of one (h, tau) run as one batch; every row must be what a
        # one-member evolve and error_report of its cell give, bit for bit.
        from logkge.analysis import error_report, gausson, gausson_initial_data
        from logkge.nonlinearity import NonlinearityParams
        from logkge.schemes import StepperConfig, discrete_energy, evolve, relative_drift

        rows = harness.run(plan).rows
        (a, b), T = plan.domain, plan.final_time
        assert len(rows) == len(plan.epsilons) * len(plan.hs) * len(plan.taus)
        averages = set()
        for row in rows:
            g = Grid1D(a, b, round((b - a) / row.h))
            p, cfg = NonlinearityParams(plan.lam, row.epsilon), StepperConfig(plan.scheme, row.tau)
            energies = []
            res = evolve(gausson_initial_data(g), p, cfg, g, round(T / row.tau),
                         lambda run: energies.append(discrete_energy(run)))
            truth = g.sample(lambda x: gausson(x, T))
            rep = error_report(res.curr, truth, g)
            assert (row.norm_l2, row.norm_linf, row.norm_h1) == (rep.l2, rep.linf, rep.h1)
            assert row.energy_drift == relative_drift(energies).max()
            assert row.newton_avg_iters == res.newton_avg
            assert row.status == "ok"
            averages.add(row.newton_avg_iters)
        assert len(averages) > 1 or plan.kind == "epsilon-sweep"

    @pytest.mark.parametrize(
        "plan, sizes",
        [
            pytest.param(reproduce_plan("fig1"), [6], id="fig1"),  # 6 x 1024 values
            pytest.param(reproduce_plan("table3-epsilon"), [5], id="table3-epsilon"),  # 5 x 10240
            # N = 1024, 2048 and 4096: every member at each
            pytest.param(ExperimentPlan(kind="spatial-sweep", epsilons=(0.05, 0.025, 0.0125),
                                        hs=(2.0**-5, 2.0**-6, 2.0**-7), taus=(0.01,),
                                        reference="exact-gausson"), [3, 3, 3], id="spatial"),
        ],
    )
    def test_one_batch_per_group(self, monkeypatch, plan, sizes):
        batches = []

        def record(plan, policy, refs, cells):
            batches.append(len(cells))
            return [(harness._row(plan, e, h, tau, status="non-convergence"), ([], {}))
                    for e, h, tau in cells]

        monkeypatch.setattr(harness, "_run_cells", record)
        harness.run(plan)
        assert batches == sizes

    def test_table1_desk_rates_near_two(self, desk):
        # The paper's second order in tau, on the finest rows of the desk
        # table1 (references computed into an empty cache).
        rows = desk("table1")[0].rows
        finest = min(r.tau for r in rows)
        fine = [r for r in rows if r.tau == finest]
        assert len(fine) == 2
        for r in fine:
            for rate in (r.rate_l2, r.rate_linf, r.rate_h1):
                assert abs(rate - 2.0) < 0.1

    def test_table2_desk_rates_near_two(self, desk):
        # The paper's second order in h, on the finest rows of the desk
        # table2 (references computed into an empty cache).
        rows = desk("table2")[0].rows
        finest = min(r.h for r in rows)
        fine = [r for r in rows if r.h == finest]
        assert len(fine) == 2
        for r in fine:
            for rate in (r.rate_l2, r.rate_linf, r.rate_h1):
                assert abs(rate - 2.0) < 0.1


class TestHostilePlans:
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(_BASE_PLAN + "[grids]\nh = nan\n", id="h-nan"),
            pytest.param(_BASE_PLAN + "[grids]\nh = inf\n", id="h-inf"),
            pytest.param(_BASE_PLAN + "[experiment]\nT = inf\n", id="T-inf"),
            pytest.param(_BASE_PLAN + "[experiment]\nT = nan\n", id="T-nan"),
            pytest.param(_BASE_PLAN + "[grids]\nepsilon = nan\n", id="epsilon-nan"),
            pytest.param(_BASE_PLAN + "[experiment]\nlambda = inf\n", id="lambda-inf"),
            pytest.param(_BASE_PLAN + "[experiment]\ndomain = -16 inf\n", id="domain-inf"),
            pytest.param(_BASE_PLAN + "[reference]\ntau_ref = nan\n", id="tau_ref-nan"),
            pytest.param(_BASE_PLAN + "[reference]\nh_ref = -1\n", id="h_ref-negative"),
            pytest.param(_BASE_PLAN + "[solver]\nnewton_max_iter = 0\n", id="newton_max_iter-0"),
            pytest.param(_BASE_PLAN + "[probe]\nsteps = 0\n", id="probe-steps-0"),
            pytest.param(_BASE_PLAN + "[probe]\nfactors = 0.5 0\n", id="probe-factors-0"),
            pytest.param(_BASE_PLAN + "[probe]\nfactors = nan\n", id="probe-factors-nan"),
            pytest.param(_BASE_PLAN + "[run]\nsnapshot_times = -1\n", id="snapshot-negative"),
            pytest.param(_BASE_PLAN + "[run]\nsnapshot_times = inf\n", id="snapshot-inf"),
            pytest.param(_BASE_PLAN + "[grids]\nh = 0.3\n", id="h-does-not-divide-domain"),
            pytest.param(_BASE_PLAN + "[grids]\ntau = 0.3\n", id="tau-does-not-divide-T"),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = energy-drift\n[run]\nsnapshot_times = 0 0.15\n",
                id="snapshot-not-multiple-of-tau",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = temporal-sweep\n[grids]\ntau = 0.1 0.05\n"
                "[reference]\nh_ref = 0.125\n",
                id="h_ref-on-temporal-sweep",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = spatial-sweep\n[grids]\nh = 1 0.5\n"
                "[reference]\nh_ref = 0.3\n",
                id="h_ref-does-not-divide-domain",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = spatial-sweep\n[grids]\nh = 1 0.5\n"
                "[reference]\nh_ref = 0.4\n",
                id="h_ref-does-not-nest",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = temporal-sweep\n[grids]\ntau = 0.1 0.05\n"
                "[reference]\ntau_ref = 0.3\n",
                id="tau_ref-does-not-divide-T",
            ),
            pytest.param(_NO_H_PLAN + "N = 0 64\n", id="N-zero"),
            pytest.param(_NO_H_PLAN + "N = -64\n", id="N-negative"),
            pytest.param(_NO_H_PLAN + "N = 64.5\n", id="N-fraction"),
            pytest.param(_BASE_PLAN + "[grids]\nN = 64\n", id="N-and-h"),
            pytest.param(_BASE_PLAN + "[grids]\nh = 1e-400\n", id="h-underflow"),
            pytest.param(
                _BASE_PLAN + "[solver]\nnewton_max_iter = 2.5\n", id="newton_max_iter-fraction"
            ),
            pytest.param(_BASE_PLAN + "[experiment]\ndomain = 0 1 2\n", id="domain-three-numbers"),
            pytest.param(_BASE_PLAN + "[probe]\nwidth = 3\n", id="unknown-key"),
            pytest.param(_BASE_PLAN + "[threads]\nn = 2\n", id="unknown-section"),
            pytest.param(_BASE_PLAN + "[run]\nthreads = 2\n", id="removed-threads-key"),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = temporal-sweep\n[grids]\ntau = 0.1 0.05\n"
                "h = 0.5 0.25\n",
                id="temporal-two-h",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = energy-drift\n[grids]\nepsilon = 0.1 0.05\n",
                id="energy-drift-two-eps",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = stability-probe\n[grids]\ntau = 0.1 0.05\n",
                id="stability-probe-two-tau",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = spatial-sweep\n[grids]\nh = 1 0.5\n"
                "epsilon = 0.05 0.05\n",
                id="spatial-repeated-epsilon",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = temporal-sweep\n[grids]\ntau = 0.1 0.05\n"
                "epsilon = 0.05 0.05\n",
                id="temporal-repeated-epsilon",
            ),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = epsilon-sweep\n[grids]\nepsilon = 0.05 0.05\n",
                id="epsilon-sweep-repeated-epsilon",
            ),
            pytest.param(_BASE_PLAN + "[grids]\nepsilon = 1e-170\n", id="epsilon-square-underflows"),
            pytest.param(_BASE_PLAN + "[grids]\nepsilon = 0.05 0\n", id="epsilon-zero-after-first"),
            pytest.param(
                _BASE_PLAN + "[experiment]\nkind = temporal-sweep\n[grids]\ntau = 0.1 0\n",
                id="tau-zero-after-first",
            ),
            # A count of steps or of cells overflows to inf: round() raised OverflowError.
            pytest.param(_BASE_PLAN + "[experiment]\nT = 1e300\n[grids]\ntau = 1e-10\n",
                         id="T-over-tau-overflows"),
            pytest.param(_BASE_PLAN + "[experiment]\ndomain = -1e308 1e308\n[grids]\nh = 1e307\n",
                         id="domain-over-h-overflows"),
        ],
    )
    def test_rejected_by_plan_from_config(self, tmp_path, text):
        path = tmp_path / "plan.txt"
        path.write_text(text)
        with pytest.raises(PlanError):
            plan_from_config(path)

    @pytest.mark.parametrize(
        "text, prefix",
        [
            pytest.param(_BASE_PLAN + "[experiment]\nkind = sweep\n",
                         "kind: unknown kind 'sweep'", id="kind"),
            pytest.param(_BASE_PLAN + "[experiment]\nscheme = leapfrog\n",
                         "scheme: unknown scheme 'leapfrog'", id="scheme"),
            pytest.param(_BASE_PLAN + "[experiment]\nproblem = example3\n",
                         "problem: unknown problem 'example3'", id="problem"),
            pytest.param(_BASE_PLAN + "[reference]\npolicy = exact\n",
                         "reference: unknown policy 'exact'", id="reference-policy"),
            pytest.param(_BASE_PLAN + "[experiment]\nproblem = custom\n[custom]\nphi = x\n",
                         "custom: a custom problem needs phi and gamma", id="custom-without-gamma"),
            pytest.param(_BASE_PLAN + "[experiment]\nkind = diagonal-sweep\n"
                         "[grids]\ntau = 0.1 0.05\nh = 0.5 0.25\n",
                         "grids: diagonal sweep needs equal-length", id="diagonal-lengths"),
            pytest.param(_BASE_PLAN + "h 0.25\n", "line 6: expected key = value", id="no-equals"),
            pytest.param(_NO_H_PLAN + "N = many\n", "line 5: N: give cell counts", id="N-text"),
            pytest.param(_BASE_PLAN + "[experiment]\nT = 1e300\n[grids]\ntau = 1e-5\n",
                         "grids: a run would take more than MAX_STEPS", id="too-many-steps"),
            pytest.param(_NO_H_PLAN + "N = 35184372088832\n",
                         "grids: a run would hold more than MAX_LAYER_VALUES", id="too-many-nodes"),
        ],
    )
    def test_first_error_names_its_check(self, tmp_path, text, prefix):
        # The first message comes from the check the plan fails, not another.
        path = tmp_path / "plan.txt"
        path.write_text(text)
        with pytest.raises(PlanError) as info:
            plan_from_config(path)
        assert info.value.errors[0].startswith(prefix), info.value.errors

    def test_cell_count_gives_h(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(_NO_H_PLAN + "N = 64\n")
        assert plan_from_config(path).hs == (0.5,)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(_BASE_PLAN + "[solver]\nnewton_max_iter = many\n")
        with pytest.raises(PlanError) as info:
            plan_from_config(path)
        assert info.value.errors == ["line 7: newton_max_iter: cannot parse 'many'"]

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param(dict(kind="spatial-sweep", hs=(1.0, 0.5), h_ref=0.4), id="h_ref-nest"),
            pytest.param(dict(kind="temporal-sweep", taus=(0.1, 0.05), tau_ref=0.3), id="tau_ref"),
            pytest.param(dict(kind="epsilon-sweep", epsilons=(0.1, 0.05), hs=(0.3,)), id="h"),
            pytest.param(dict(kind="single-solve", problem="example2-cos-sin",
                              reference="exact-gausson"), id="no-exact-truth"),
            pytest.param(dict(newton_max_iter=2.5), id="fractional-newton-budget"),
            pytest.param(dict(kind="stability-probe", scheme="siefd", probe_steps=2.5),
                         id="fractional-probe-steps"),
            # bool is an Integral: True would have run Newton for one iteration.
            pytest.param(dict(newton_max_iter=True), id="boolean-newton-budget"),
            pytest.param(dict(kind="stability-probe", scheme="siefd", probe_steps=True),
                         id="boolean-probe-steps"),
            # Nor is it a float: each of these would have run as 1.
            pytest.param(dict(final_time=True), id="boolean-T"),
            pytest.param(dict(final_time=1.0, taus=(True,)), id="boolean-tau"),
            pytest.param(dict(hs=(True,)), id="boolean-h"),
            pytest.param(dict(hs=(np.True_,)), id="numpy-boolean-h"),
            pytest.param(dict(epsilons=(True,)), id="boolean-epsilon"),
            pytest.param(dict(lam=True), id="boolean-lambda"),
            pytest.param(dict(domain=(np.False_, 16.0)), id="numpy-boolean-domain"),
            pytest.param(dict(snapshot_times=(True,)), id="boolean-snapshot-time"),
            # A repeated eps crashed the rates; an underflowing eps**2 the first step.
            pytest.param(dict(kind="spatial-sweep", hs=(1.0, 0.5), epsilons=(0.05, 0.05)),
                         id="spatial-repeated-epsilon"),
            pytest.param(dict(kind="temporal-sweep", taus=(0.1, 0.05), epsilons=(0.05, 0.05)),
                         id="temporal-repeated-epsilon"),
            pytest.param(dict(kind="epsilon-sweep", epsilons=(0.05, 0.05)),
                         id="epsilon-sweep-repeated-epsilon"),
            pytest.param(dict(epsilons=(1e-170,)), id="epsilon-square-underflows"),
            # A field of the wrong type raised TypeError or IndexError from validate.
            pytest.param(dict(newton_tol=None), id="newton_tol-none"),
            pytest.param(dict(newton_tol="1e-12"), id="newton_tol-text"),
            pytest.param(dict(domain=None), id="domain-none"),
            pytest.param(dict(domain=(1.0,)), id="domain-one-number"),
            *(pytest.param({name: value}, id=f"{name}-{value}")
              for name in ("taus", "hs", "epsilons", "probe_factors", "snapshot_times")
              for value in (None, 0.1)),
            pytest.param(dict(kind="temporal-sweep", taus=(None, 0.05)), id="tau-none-in-list"),
            # 1e305 steps, and N = 3.5e13 nodes: past MAX_STEPS and MAX_LAYER_VALUES.
            pytest.param(dict(final_time=1e300, taus=(1e-5,)), id="too-many-steps"),
            pytest.param(dict(hs=(2.0**-40,)), id="too-many-nodes"),
        ],
    )
    def test_run_rejects_before_any_reference(self, monkeypatch, fields):
        calls = []
        monkeypatch.setattr(harness, "reference_state", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: pytest.fail("stepped a run"))
        plan = ExperimentPlan(**{"final_time": 0.2, "taus": (0.1,), "hs": (0.5,), **fields})
        with pytest.raises(PlanError):
            harness.run(plan)
        assert calls == []


def _gausson_plans():
    """Every kind and scheme on the Gausson at h = 0.5 and 2, T = 0.2, tau = 0.1.

    A swept axis gets its second, halved value; the reference is none, but
    auto for single-solve.
    """
    for kind, sweep in harness.SWEEP_KINDS.items():
        def two(axis, first):
            return (first, first / 2) if sweep.axis in (axis, "diagonal") else (first,)

        for scheme in harness.SCHEMES:
            for h in (0.5, 2.0):
                plan = ExperimentPlan(
                    kind=kind, scheme=scheme, final_time=0.2, taus=two("tau", 0.1),
                    hs=two("h", h), epsilons=two("epsilon", 0.05),
                    reference="auto" if kind == "single-solve" else "none",
                )
                yield pytest.param(plan, id=f"{kind}-{scheme}-h{h:g}")


class TestValidatedPlans:
    @pytest.mark.parametrize("plan", _gausson_plans())
    def test_runs_or_raises_plan_error(self, plan):
        assert plan.validate() == []
        try:
            rows = harness.run(plan).rows
        except PlanError:
            return
        assert rows and all(r.status in ("ok", "unstable") for r in rows)


class TestPlanOut:
    @pytest.mark.parametrize(
        "kind, written",
        [("single-solve", ["x.csv"]),
         ("energy-drift", ["x.csv", "x_drift.csv", "x_waveforms.csv"])],
    )
    def test_run_writes_the_plan_files_out(self, tmp_path, kind, written):
        out = tmp_path / "results" / "x.csv"
        path = tmp_path / "plan.txt"
        path.write_text(
            f"[experiment]\nkind = {kind}\nT = 0.2\n[grids]\ntau = 0.1\nh = 0.5\n"
            f"[run]\nout = {out}\nsnapshot_times = 0 0.1\n"
        )
        plan = plan_from_config(path)
        assert plan.out == str(out)
        result = harness.run(plan)
        assert sorted(p.name for p in out.parent.iterdir()) == written
        emit_csv(result, tmp_path / "want.csv")
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
        if len(written) > 1:
            emit_drift_series(result, tmp_path / "drift.csv")
            emit_waveforms(result, tmp_path / "waveforms.csv")
            for name in ("drift", "waveforms"):
                got = out.with_name(f"x_{name}.csv").read_bytes()
                assert got == (tmp_path / f"{name}.csv").read_bytes()

    def test_reproduce_writes_each_file_once(self, tmp_path, monkeypatch):
        # The legs of table3 run without out; only the joined rows are written.
        written, real = [], harness.emit_csv

        def emit(result, path):
            written.append(len(result.rows))
            real(result, path)

        monkeypatch.setattr(harness, "emit_csv", emit)
        monkeypatch.setattr(harness, "_run_cells", lambda plan, policy, truths, cells: [
            (harness._row(plan, *cell), ([], {})) for cell in cells])
        harness.run_reproduce("table3", out=str(tmp_path / "t3.csv"))
        assert written == [10]
        assert len((tmp_path / "t3.csv").read_text().splitlines()) == 11


def _plan_grids(plan):
    """(N, steps) of the plan's cells, as a set, and of its cnfd-fine references, sorted.

    Derived through the harness's own grid rules, one reference per
    (eps, h_ref, tau_ref).
    """
    def size(h, tau):
        return harness._grid_for(plan, h).N, harness._count(plan.final_time, tau)

    cells = harness._cells_for(plan)
    refs = set()
    if harness._resolve_reference(plan) == "cnfd-fine":
        refs = {(eps, *harness._reference_grid_rule(plan, h, tau)) for eps, h, tau in cells}
    return {size(h, tau) for _, h, tau in cells}, sorted(size(h, tau) for _, h, tau in refs)


_T1_STEPS = [10 * 2**j for j in range(6)]  # tau = 0.1 ... 0.1 * 2^-5 up to T = 1
_PLAN_GRIDS = {  # (target, paper_scale): (cells, references)
    ("table1", False): ({(4096, n) for n in _T1_STEPS}, [(4096, 2560)] * 2),
    ("table1", True): ({(32768, n) for n in _T1_STEPS}, [(32768, 51200)] * 3),
    ("table2", False): ({(64 * 2**j, 400) for j in range(5)}, [(8192, 400)] * 2),
    ("table2", True): ({(64 * 2**j, 51200) for j in range(6)}, [(32768, 51200)] * 3),
    ("fig1", False): ({(1024, 100)}, []),
    ("fig1", True): ({(4096, 500)}, []),
    **{
        (target, paper_scale): grids
        for target, grids in (
            ("table3-diagonal", ({(320 * 2**j, 10 * 2**j) for j in range(5)}, [])),
            ("table3-epsilon", ({(10240, 320)}, [])),
            ("fig-energy", ({(128, 1000)}, [])),
        )
        for paper_scale in (False, True)
    },
}


class TestReproduce:
    @pytest.mark.parametrize(
        "target, paper_scale",
        list(_PLAN_GRIDS),
        ids=[f"{t}-{'paper' if s else 'desk'}" for t, s in _PLAN_GRIDS],
    )
    def test_plan_grids(self, target, paper_scale):
        plan = reproduce_plan(target, paper_scale=paper_scale)
        assert plan.validate() == []
        assert _plan_grids(plan) == _PLAN_GRIDS[(target, paper_scale)]

    def test_paper_tables_share_their_references(self):
        def reference_keys(target):
            plan = reproduce_plan(target, paper_scale=True)
            return {(eps, *harness._reference_grid_rule(plan, h, tau))
                    for eps, h, tau in harness._cells_for(plan)}

        assert len(reference_keys("table1")) == 3
        assert reference_keys("table1") == reference_keys("table2")

    @pytest.mark.parametrize("target", ["table3-diagonal", "table3-epsilon", "fig-energy"])
    def test_scale_free_plans(self, target):
        assert reproduce_plan(target, paper_scale=True) == reproduce_plan(target)

    def test_energy_target_writes_drift_and_waveforms(self, tmp_path):
        out = tmp_path / "figs" / "energy.csv"
        harness.run_reproduce("fig-energy", out=str(out))
        names = ["energy.csv", "energy_drift.csv", "energy_waveforms.csv"]
        assert sorted(p.name for p in out.parent.iterdir()) == names

    def test_sweep_target_writes_only_its_csv(self, tmp_path):
        out = tmp_path / "figs" / "fig1.csv"
        harness.run_reproduce("fig1", out=str(out))
        assert [p.name for p in out.parent.iterdir()] == ["fig1.csv"]

    def test_table3_joins_its_legs_in_order(self, monkeypatch):
        plans = []

        def record(plan):
            plans.append(plan)
            return SweepResult(plan, [harness._row(plan, e, h, t) for e, h, t in
                                      harness._cells_for(plan)])

        monkeypatch.setattr(harness, "run", record)
        rows = harness.run_reproduce("table3").rows
        legs = [reproduce_plan("table3-diagonal"), reproduce_plan("table3-epsilon")]
        assert plans == legs
        assert rows == [harness._row(p, e, h, t) for p in legs for e, h, t in harness._cells_for(p)]
        assert len(rows) == 10

    @pytest.mark.parametrize("target", ["table4", "table3", "TABLE1", ""])
    def test_unknown_plan(self, target):
        # reproduce_plan takes the names of built-in plans, not reproduce targets.
        with pytest.raises(PlanError, match="unknown built-in plan .*'table3-diagonal'"):
            reproduce_plan(target)

    @pytest.mark.parametrize("target", ["table4", "table3-epsilon", "fig1 ", ""])
    def test_unknown_target(self, monkeypatch, target):
        monkeypatch.setattr(harness, "run", lambda plan: pytest.fail("ran a plan"))
        with pytest.raises(PlanError):
            harness.run_reproduce(target)


@pytest.fixture(scope="module")
def gate():
    """``bench/gate.py``, loaded by path as the benchmark loads it."""
    spec = importlib.util.spec_from_file_location("bench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no bench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _x86_v4_log() -> bool:
    """Whether numpy's float64 ``log`` runs its AVX-512 (``X86_V4``) kernel.

    False where numpy (before 2.0) cannot say, so the values are compared
    within tolerance only.
    """
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return False

    info = opt_func_info(func_name="^log$", signature="float64").get("log", {})
    return any(loop["current"] == "X86_V4" for loop in info.values())


def _bound(gate, col: str, golden: str) -> float | None:
    """How far a value of column ``col`` may lie from ``golden``; None: same text."""
    if col.startswith("norm_"):
        return gate.NORM_ATOL
    if col.startswith("rate_"):
        return gate.RATE_ATOL
    if col == "energy":
        return gate.ENERGY_RTOL * (1.0 + abs(float(golden)))
    if col in ("energy_drift", "rel_drift"):  # relative to 1 + |E_0|, so ENERGY_RTOL
        return gate.ENERGY_RTOL
    if col.startswith("u_"):
        return gate.WAVE_ATOL
    return None


class TestOutputContract:
    """The desk outputs of every reproduce target against ``tests/golden``.

    Byte for byte where numpy's ``log`` is its ``X86_V4`` kernel, on which
    the goldens were written; elsewhere each number within the tolerances of
    ``bench/gate.py``, which admit the moves of numpy's AVX2 ``log``.  Keys,
    statuses, Newton averages, times and nodes are compared as text.  A
    golden changes only with a stated reason and its largest move a column.
    """

    @pytest.mark.parametrize("target", harness.REPRODUCE_TARGETS)
    def test_desk_outputs_match_the_goldens(self, desk, gate, target):
        _, written = desk(target)
        goldens = sorted((TESTS / "golden").glob(f"{target}*.csv"))
        assert [p.name for p in written] == [p.name for p in goldens]
        for got, want in zip(written, goldens):
            with open(got, newline="") as a, open(want, newline="") as b:
                rows, golden = list(csv.DictReader(a)), list(csv.DictReader(b))
            assert len(rows) == len(golden) and rows[0].keys() == golden[0].keys(), got.name
            for i, (row, ref) in enumerate(zip(rows, golden)):
                for col, text in ref.items():
                    bound = _bound(gate, col, text) if text else None
                    where = f"{got.name} row {i + 1} {col}: {row[col]} vs golden {text}"
                    if bound is None:
                        assert row[col] == text, where
                    else:
                        assert abs(float(row[col]) - float(text)) <= bound, where
            if _x86_v4_log():
                assert got.read_bytes() == want.read_bytes(), got.name
