"""Tests of the benchmark's correctness gate and tracer.

    python3 bench/selftest.py

Kept out of the repository's pytest collection on purpose (the name does
not match ``test_*.py``), so the tier-1 suite does not grow.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import logkge  # noqa: E402
from logkge import harness  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402


def _edit(path: Path, row: int, column: str, value: str) -> None:
    """Replace one cell of a CSV in place (row 0 is the first data row)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.golden = self.tmp / "golden"
        shutil.copytree(gate.GOLDEN_DIR, self.golden)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _outputs(self, *names: str) -> dict[str, Path]:
        out = {}
        for name in names:
            out[name] = self.tmp / name
            shutil.copy(gate.GOLDEN_DIR / name, out[name])
        return out

    def test_golden_passes_itself(self):
        for names in (("table2.csv",), ("cnfd-65536.csv", "cnfd-65536_drift.csv")):
            attempted, failed, messages = gate.check_outputs(self._outputs(*names), self.golden)
            self.assertEqual((failed, messages), (0, []))
            self.assertGreater(attempted, 0)

    def test_norm_perturbed_by_1e_3_is_rejected(self):
        outputs = self._outputs("table2.csv")
        want = gate._read(self.golden / "table2.csv")
        _edit(self.golden / "table2.csv", 4, "norm_l2", repr(float(want[4]["norm_l2"]) + 1e-3))
        attempted, failed, messages = gate.check_outputs(outputs, self.golden)
        self.assertEqual((attempted, failed), (len(want), 1))
        self.assertIn("norm_l2", messages[0])

    def test_norm_within_tolerance_passes(self):
        outputs = self._outputs("table2.csv")
        value = float(gate._read(outputs["table2.csv"])[4]["norm_l2"])
        _edit(outputs["table2.csv"], 4, "norm_l2", repr(value + 0.5 * gate.NORM_ATOL))
        self.assertEqual(gate.check_outputs(outputs, self.golden)[1], 0)

    def test_non_convergence_row_is_rejected(self):
        outputs = self._outputs("table2.csv")
        for col in gate.NORMS + gate.RATES + ("energy_drift", "newton_avg_iters"):
            _edit(outputs["table2.csv"], 2, col, "")
        _edit(outputs["table2.csv"], 2, "status", "non-convergence")
        _, failed, messages = gate.check_outputs(outputs, self.golden)
        self.assertEqual(failed, 1)
        self.assertIn("non-convergence", messages[0])

    def test_finest_rate_far_from_two_is_rejected(self):
        # Golden and output agree, but the paper's order-2 claim does not hold.
        outputs = self._outputs("table2.csv")
        rows = gate._read(outputs["table2.csv"])
        finest = min(range(len(rows)), key=lambda i: float(rows[i]["h"]))
        for path in (outputs["table2.csv"], self.golden / "table2.csv"):
            _edit(path, finest, "rate_l2", "1.5")
        self.assertEqual(gate.check_outputs(outputs, self.golden)[1], 1)

    def test_energy_drift_above_claim_is_rejected(self):
        outputs = self._outputs("cnfd-65536.csv", "cnfd-65536_drift.csv")
        _edit(outputs["cnfd-65536.csv"], 0, "energy_drift", "2e-10")
        self.assertEqual(gate.check_outputs(outputs, self.golden)[1], 1)

    def test_waveform_off_by_more_than_tolerance_is_rejected(self):
        name = "siefd-65536_waveforms.csv"
        outputs = self._outputs("siefd-65536.csv", "siefd-65536_drift.csv")
        # The golden waveform keeps every WAVE_STRIDE-th node; expand it back
        # to full length so that subsampling the output recovers it.
        lines = (gate.GOLDEN_DIR / name).read_text().splitlines()
        full = [lines[0]]
        for line in lines[1:]:
            full += [line] * gate.WAVE_STRIDE
        outputs[name] = self.tmp / name
        outputs[name].write_text("\n".join(full[: 1 + (len(lines) - 2) * gate.WAVE_STRIDE + 1]) + "\n")
        self.assertEqual(gate.check_outputs(outputs, self.golden)[1], 0)
        _edit(outputs[name], gate.WAVE_STRIDE * 3, "u_t0", "7.0")
        self.assertEqual(gate.check_outputs(outputs, self.golden)[1], 1)


class TracerTest(unittest.TestCase):
    def _bindings(self):
        mods = [getattr(logkge, m) for m in tracing.SUBMODULES]
        return [dict(vars(m)) for m in mods], logkge.grid.GridFunction.__dict__["from_core"]

    def test_sees_every_call_and_restores_every_binding(self):
        before = self._bindings()
        plan = harness.ExperimentPlan(
            kind="energy-drift", final_time=0.01, taus=(0.001,), hs=(0.5,),
            snapshot_times=(0.0,),
        )
        tracer = tracing.Tracer(logkge)
        with tracer:
            harness.run(plan)
        self.assertEqual(self._bindings(), before)

        m = tracing.layer_metrics(tracer.spans, tracer.evolve_results)
        self.assertEqual(m["schemes.evolve.calls"], 1)
        self.assertEqual(m["schemes.evolve.steps"], 10)
        self.assertEqual(m["schemes.newton_iters_per_step"], 1.0)
        # Per Newton step: two residuals and one Jacobian (2 primitives each)
        # plus the energy (2); the start adds the initial energy's 2.
        self.assertEqual(m["nonlinearity.reg_log_primitive.calls"], 9 * 8 + 2)
        self.assertEqual(m["schemes.solve_cyclic_tridiag.calls"], 9)
        self.assertEqual(m["schemes.discrete_energy.calls"], 10)
        self.assertEqual(m["cache.reference_state.calls"], 0)
        self.assertGreater(m["schemes.step.self_s"], 0.0)
        self.assertLess(m["schemes.step.self_s"], m["schemes.evolve.busy_s"])


if __name__ == "__main__":
    unittest.main()
