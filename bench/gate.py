"""Correctness gate: compare a pass's CSV output with the golden copies.

A *row* is one line of the sweep CSV (``<table>.csv`` or ``<scheme>-65536.csv``).
A row fails when any of these does not hold:

* its key columns (scheme .. T) equal the golden row's text exactly;
* its status is ``ok``;
* each of ``norm_l2``, ``norm_linf``, ``norm_h1`` is within
  :data:`NORM_ATOL` of the golden value (both empty also matches);
* each of ``rate_l2``, ``rate_linf``, ``rate_h1`` is within :data:`RATE_ATOL`
  of the golden value, and on the finest row of every refinement group
  (smallest tau in table1, smallest h in table2) within :data:`RATE_BAND`
  of the paper's second order;
* ``energy_drift`` is at most :data:`MAX_DRIFT`.

The drift series and waveforms of a trajectory belong to its single row:
energies within ``ENERGY_RTOL * (1 + |E|)``, every relative drift at most
:data:`MAX_DRIFT`, and the golden nodes (every 256th) within
:data:`WAVE_ATOL`.

``newton_avg_iters`` is not compared: a different solver may take a
different number of iterations.  (It also divides by a step count that
includes the Taylor start, so it reads 0.99 for one iteration per step.)

The tolerances admit a changed solver path, which moves errors by about
1e-12, and nothing larger.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

NORM_ATOL = 1e-12
RATE_ATOL = 1e-6
RATE_BAND = 0.1
MAX_DRIFT = 1e-10
ENERGY_RTOL = 1e-10
WAVE_ATOL = 1e-10
WAVE_STRIDE = 256

KEY_COLUMNS = ("scheme", "problem", "epsilon", "lambda", "h", "tau", "T")
NORMS = ("norm_l2", "norm_linf", "norm_h1")
RATES = ("rate_l2", "rate_linf", "rate_h1")


def _read(path: Path, stride: int = 1) -> list[dict]:
    """CSV rows as dicts; with ``stride``, only every stride-th row."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    return list(csv.DictReader(lines[:1] + lines[1::stride]))


def _num(text: str) -> float | None:
    return float(text) if text else None


def _close(got: str, want: str, atol: float) -> bool:
    a, b = _num(got), _num(want)
    if a is None or b is None:
        return a is b
    return abs(a - b) <= atol


def _finest_rows(rows: list[dict]) -> set[int]:
    """Indices of the finest row of each refinement group of a sweep."""
    taus = {r["tau"] for r in rows}
    hs = {r["h"] for r in rows}
    if len(taus) > 1:
        group, step = "h", "tau"
    elif len(hs) > 1:
        group, step = "tau", "h"
    else:
        return set()
    finest: dict[tuple, int] = {}
    for i, r in enumerate(rows):
        key = (r["epsilon"], r[group])
        if key not in finest or float(r[step]) < float(rows[finest[key]][step]):
            finest[key] = i
    return set(finest.values())


def check_rows(got: list[dict], golden: list[dict]) -> list[list[str]]:
    """One list of failure reasons per golden row (empty when the row passes)."""
    problems: list[list[str]] = [[] for _ in golden]
    finest = _finest_rows(golden)
    for i, want in enumerate(golden):
        if i >= len(got):
            problems[i].append("row missing")
            continue
        row = got[i]
        bad = problems[i]
        for col in KEY_COLUMNS:
            if row.get(col) != want[col]:
                bad.append(f"{col} is {row.get(col)!r}, golden {want[col]!r}")
        if row.get("status") != "ok":
            bad.append(f"status {row.get('status')!r}")
        try:
            for col in NORMS:
                if not _close(row[col], want[col], NORM_ATOL):
                    bad.append(f"{col} {row[col]} vs golden {want[col]}")
            for col in RATES:
                if not _close(row[col], want[col], RATE_ATOL):
                    bad.append(f"{col} {row[col]} vs golden {want[col]}")
                if i in finest and not abs(float(row[col] or "nan") - 2.0) <= RATE_BAND:
                    bad.append(f"finest {col} {row[col]} is not near 2")
            drift = float(row["energy_drift"] or "nan")
            if not drift <= MAX_DRIFT:
                bad.append(f"energy_drift {row['energy_drift']} above {MAX_DRIFT}")
        except (KeyError, ValueError) as exc:
            bad.append(f"unreadable row: {exc}")
    if len(got) > len(golden) and problems:
        problems[-1].append(f"{len(got) - len(golden)} rows beyond the golden ones")
    return problems


def check_drift(got: list[dict], golden: list[dict]) -> list[str]:
    if len(got) != len(golden):
        return [f"drift series has {len(got)} rows, golden {len(golden)}"]
    bad = []
    for row, want in zip(got, golden):
        e, e_want = float(row["energy"]), float(want["energy"])
        if row["t"] != want["t"]:
            bad.append(f"drift t {row['t']} vs golden {want['t']}")
        elif not abs(e - e_want) <= ENERGY_RTOL * (1.0 + abs(e_want)):
            bad.append(f"energy at t={row['t']}: {e!r} vs golden {e_want!r}")
        elif not float(row["rel_drift"]) <= MAX_DRIFT:
            bad.append(f"rel_drift at t={row['t']}: {row['rel_drift']}")
        if len(bad) >= 3:
            break
    return bad


def check_waveforms(sampled: list[dict], golden: list[dict]) -> list[str]:
    if len(sampled) != len(golden) or (golden and sampled[0].keys() != golden[0].keys()):
        return ["waveform columns or node count differ from golden"]
    bad = []
    for row, want in zip(sampled, golden):
        for col, text in want.items():
            if not math.isfinite(float(row[col])) or not _close(row[col], text, WAVE_ATOL):
                bad.append(f"waveform {col} at x={row['x']}: {row[col]} vs golden {text}")
                break
        if len(bad) >= 3:
            break
    return bad


def check_outputs(outputs: dict[str, Path], golden_dir: Path = GOLDEN_DIR):
    """Gate a pass: returns (rows attempted, rows failed, failure messages)."""
    sweep = next(name for name in outputs if not name.endswith(("_drift.csv", "_waveforms.csv")))
    golden = _read(golden_dir / sweep)
    problems = check_rows(_read(outputs[sweep]), golden)
    stem = sweep[: -len(".csv")]
    extra = []
    if f"{stem}_drift.csv" in outputs:
        extra += check_drift(
            _read(outputs[f"{stem}_drift.csv"]), _read(golden_dir / f"{stem}_drift.csv")
        )
    if f"{stem}_waveforms.csv" in outputs:
        extra += check_waveforms(
            _read(outputs[f"{stem}_waveforms.csv"], WAVE_STRIDE),
            _read(golden_dir / f"{stem}_waveforms.csv"),
        )
    if extra:
        problems[0].extend(extra)
    messages = [f"{sweep} row {i + 1}: {'; '.join(p)}" for i, p in enumerate(problems) if p]
    return len(problems), sum(1 for p in problems if p), messages


def write_golden(outputs: dict[str, Path], golden_dir: Path = GOLDEN_DIR) -> None:
    """Install a pass's outputs as the golden copies (waveforms subsampled)."""
    golden_dir.mkdir(exist_ok=True)
    for name, path in outputs.items():
        lines = Path(path).read_text().splitlines()
        if name.endswith("_waveforms.csv"):
            lines = lines[:1] + lines[1::WAVE_STRIDE]
        (golden_dir / name).write_text("\n".join(lines) + "\n")

