"""On-disk cache of numerically computed reference trajectories.

Fine-resolution runs that stand in for the exact regularized solution are
expensive relative to the sweeps that consume them, and several sweep cells
typically want the same one.  Each cache entry stores the final two layers
of a run keyed by every parameter that determines it.

Format (version 2): one ``.npz`` file per entry under the cache directory,
named ``<sha256 of the canonical key string>.npz`` and containing

    key     : the canonical key string (verified on load)
    prev    : layer u^{n-1} at the end of the run, float64, length N
    curr    : layer u^n at the end of the run, float64, length N

The key holds the format version, tau and the step count n, so the file's
name fixes them and nothing else is stored; other fields, such as the
``version``, ``n`` and ``t`` of entries written before, are ignored.  A
layer holds the N independent node values; the repeated endpoint of the
periodic grid is not stored.

Writes go through a temporary file in the same directory followed by an
atomic rename, so concurrent readers never observe a partial entry and
concurrent writers of the same key simply race to install identical bytes
(reference computation is deterministic).  An entry that cannot be trusted
(unreadable, another key, a layer whose shape is not ``(N,)``) is logged as
a warning, then recomputed and replaced like a missing one; one that cannot
be written is logged, and the computed layers returned.  Either way
:func:`reference_state` returns the final layers ``(prev, curr)``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from pathlib import Path

import numpy as np

from .grid import Grid1D
from .nonlinearity import NonlinearityParams
from .schemes import InitialData, StepperConfig, evolve

__all__ = ["CacheError", "reference_key", "reference_state"]

CACHE_VERSION = 2

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


def _load(path: Path, key: str, n_nodes: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The stored layers (prev, curr) of the entry at ``path``; None if there is none."""
    if not path.exists():
        return None
    try:
        # np.load leaks the handle it opens when the archive is corrupt.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            stored_key = str(data["key"])
            prev = np.asarray(data["prev"], dtype=float)
            curr = np.asarray(data["curr"], dtype=float)
    except Exception as exc:
        raise CacheError(f"unreadable cache entry {path}: {exc}") from exc
    if stored_key != key:
        raise CacheError(f"cache digest collision or corruption at {path}")
    if prev.shape != (n_nodes,) or curr.shape != (n_nodes,):
        raise CacheError(
            f"cache entry {path} holds layers of shapes {prev.shape} and {curr.shape}, "
            f"expected ({n_nodes},)"
        )
    return prev, curr


def _store(path: Path, key: str, prev: np.ndarray, curr: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, key=key, prev=prev, curr=curr)
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
    newton_tol: float = StepperConfig.newton_tol,
    cache_dir: str | Path | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Final layers (prev, curr) of the fully implicit reference run, cached when possible.

    ``problem`` must identify the initial data (it is part of the key); the
    caller supplies the matching sampled ``init``.  With no cache directory
    the run is simply recomputed.
    """
    cfg = StepperConfig(scheme="cnfd", tau=tau, newton_tol=newton_tol)
    if cache_dir is None:
        run = evolve(init, p, cfg, g, n_steps)
        return run.prev, run.curr
    cache_dir = Path(cache_dir)
    key = reference_key(problem, "cnfd", p, g, tau, n_steps, newton_tol)
    path = _entry_path(cache_dir, key)
    try:
        layers = _load(path, key, g.N)
    except CacheError as exc:
        log.warning("recomputing cache entry %s: %s", path, exc)
        layers = None
    if layers is not None:
        return layers
    run = evolve(init, p, cfg, g, n_steps)
    try:
        _store(path, key, run.prev, run.curr)
    except OSError as exc:
        log.warning("cannot write cache entry %s: %s", path, exc)
    return run.prev, run.curr
