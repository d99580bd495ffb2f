"""On-disk cache of numerically computed reference trajectories.

Fine-resolution runs that stand in for the exact regularized solution are
expensive relative to the sweeps that consume them, and several sweep cells
typically want the same one.  Each cache entry stores the final two layers
of a run keyed by every parameter that determines it.

Format (version 1): one ``.npz`` file per entry under the cache directory,
named ``<sha256 of the canonical key string>.npz`` and containing

    key     : the canonical key string (verified on load)
    version : format version
    prev    : layer u^{n-1} at the end of the run, float64, length N+1
    curr    : layer u^n at the end of the run, float64, length N+1

Writes go through a temporary file in the same directory followed by an
atomic rename, so concurrent readers never observe a partial entry and
concurrent writers of the same key simply race to install identical bytes
(reference computation is deterministic).  An entry that cannot be trusted
(unreadable, another version, another key) is logged as a warning, then
recomputed and replaced like a missing one.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from pathlib import Path

import numpy as np

from .grid import Grid1D, GridFunction
from .nonlinearity import NonlinearityParams
from .schemes import InitialData, StepperConfig, WaveState, evolve

__all__ = ["CacheError", "reference_key", "reference_state"]

CACHE_VERSION = 1

log = logging.getLogger(__name__)


class CacheError(RuntimeError):
    """A cache entry exists but cannot be trusted (corrupt or mismatched)."""


def reference_key(
    problem: str,
    scheme: str,
    p: NonlinearityParams,
    g: Grid1D,
    tau: float,
    n_steps: int,
    newton_tol: float,
) -> str:
    """Canonical description of a reference run; digest of this names the file."""
    return "|".join(
        [
            f"v{CACHE_VERSION}",
            f"problem={problem}",
            f"scheme={scheme}",
            f"lam={p.lam!r}",
            f"eps={p.epsilon!r}",
            f"a={g.a!r}",
            f"b={g.b!r}",
            f"N={g.N}",
            f"tau={tau!r}",
            f"steps={n_steps}",
            f"newton_tol={newton_tol!r}",
        ]
    )


def _entry_path(cache_dir: Path, key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()
    return cache_dir / f"{digest}.npz"


def _load(path: Path, key: str) -> WaveState | None:
    if not path.exists():
        return None
    try:
        # np.load leaks the handle it opens when the archive is corrupt.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            stored_key = str(data["key"])
            version = int(data["version"])
            prev = np.asarray(data["prev"], dtype=float)
            curr = np.asarray(data["curr"], dtype=float)
            n = int(data["n"])
            t = float(data["t"])
    except Exception as exc:
        raise CacheError(f"unreadable cache entry {path}: {exc}") from exc
    if version != CACHE_VERSION:
        raise CacheError(f"cache entry {path} has version {version}, expected {CACHE_VERSION}")
    if stored_key != key:
        raise CacheError(f"cache digest collision or corruption at {path}")
    return WaveState(prev=GridFunction(prev), curr=GridFunction(curr), n=n, t=t)


def _store(path: Path, key: str, state: WaveState) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                key=key,
                version=CACHE_VERSION,
                prev=state.prev.values,
                curr=state.curr.values,
                n=state.n,
                t=state.t,
            )
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def reference_state(
    problem: str,
    init: InitialData,
    p: NonlinearityParams,
    g: Grid1D,
    tau: float,
    n_steps: int,
    newton_tol: float = 1e-12,
    cache_dir: str | Path | None = None,
) -> WaveState:
    """Final state of the fully implicit reference run, cached when possible.

    ``problem`` must identify the initial data (it is part of the key); the
    caller supplies the matching sampled ``init``.  With no cache directory
    the run is simply recomputed.
    """
    cfg = StepperConfig(scheme="cnfd", tau=tau, newton_tol=newton_tol)
    if cache_dir is None:
        return evolve(init, p, cfg, g, n_steps, track_energy=False).state
    cache_dir = Path(cache_dir)
    key = reference_key(problem, "cnfd", p, g, tau, n_steps, newton_tol)
    path = _entry_path(cache_dir, key)
    try:
        state = _load(path, key)
    except CacheError as exc:
        log.warning("recomputing cache entry %s: %s", path, exc)
        state = None
    if state is not None:
        return state
    state = evolve(init, p, cfg, g, n_steps, track_energy=False).state
    _store(path, key, state)
    return state
