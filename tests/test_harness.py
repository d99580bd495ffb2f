from dataclasses import replace

import numpy as np
import pytest

from logkge.grid import Grid1D
from logkge.harness import (
    ExperimentPlan,
    PlanError,
    _eval_expr,
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
            threads=3,
        ),
        id="odd-domain",
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
