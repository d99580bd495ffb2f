from dataclasses import replace

import numpy as np
import pytest

from logkge import harness
from logkge.grid import Grid1D
from logkge.harness import (
    ExperimentPlan,
    PlanError,
    _eval_expr,
    emit_csv,
    emit_drift_series,
    emit_waveforms,
    initial_data_for,
    plan_from_config,
    plan_to_config,
    reproduce_plan,
)

X = np.linspace(-2.0, 2.0, 33)


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

    def test_fig1_eps_rates_near_one(self):
        rows = harness.run(reproduce_plan("fig1")).rows
        rates = [
            getattr(r, f"rate_{n}") for r in rows[:-1] for n in ("l2", "linf", "h1")
        ]
        assert len(rates) == 3 * (len(rows) - 1) and rows[-1].rate_l2 is None
        assert all(abs(rate - 1.0) < 0.1 for rate in rates)


_NO_H_PLAN = "[experiment]\nkind = single-solve\n[grids]\ntau = 0.1\n"
_BASE_PLAN = _NO_H_PLAN + "h = 0.5\n"


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
        ],
    )
    def test_rejected_by_plan_from_config(self, tmp_path, text):
        path = tmp_path / "plan.txt"
        path.write_text(text)
        with pytest.raises(PlanError):
            plan_from_config(path)

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
        ],
    )
    def test_run_rejects_before_any_reference(self, monkeypatch, fields):
        calls = []
        monkeypatch.setattr(harness, "reference_state", lambda *a, **k: calls.append(a))
        plan = ExperimentPlan(**{"final_time": 0.2, "taus": (0.1,), "hs": (0.5,), **fields})
        with pytest.raises(PlanError):
            harness.run(plan)
        assert calls == []
