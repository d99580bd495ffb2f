import logging

import numpy as np
import pytest

from logkge import cache
from logkge.analysis import gausson_initial_data
from logkge.grid import Grid1D
from logkge.nonlinearity import NonlinearityParams

G = Grid1D(-16.0, 16.0, 64)
P = NonlinearityParams(lam=1.0, epsilon=0.05)
TAU, STEPS = 0.05, 4


@pytest.fixture
def evolve_calls(monkeypatch):
    """Counts the reference runs that are actually computed."""
    calls = []
    real = cache.evolve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache, "evolve", counting)
    return calls


def _reference(cache_dir):
    return cache.reference_state(
        "example1-gausson", gausson_initial_data(G), P, G, TAU, STEPS, cache_dir=cache_dir
    )


def _entry(cache_dir):
    key = cache.reference_key("example1-gausson", "cnfd", P, G, TAU, STEPS, 1e-12)
    return cache._entry_path(cache_dir, key)


def _assert_same(a, b):
    assert np.array_equal(a.prev.values, b.prev.values)
    assert np.array_equal(a.curr.values, b.curr.values)
    assert (a.n, a.t) == (b.n, b.t)


def test_miss_then_hit(tmp_path, evolve_calls):
    first = _reference(tmp_path)
    assert len(evolve_calls) == 1 and _entry(tmp_path).exists()
    second = _reference(tmp_path)
    assert len(evolve_calls) == 1
    _assert_same(first, second)


def test_no_cache_dir_recomputes_and_writes_nothing(tmp_path, monkeypatch, evolve_calls):
    monkeypatch.chdir(tmp_path)
    a, b = _reference(None), _reference(None)
    assert len(evolve_calls) == 2
    assert list(tmp_path.iterdir()) == []
    _assert_same(a, b)


def _corrupt_truncated(path):
    path.write_bytes(path.read_bytes()[:100])


def _corrupt_version(path):
    with np.load(path) as data:
        fields = dict(data)
    fields["version"] = cache.CACHE_VERSION + 1
    with open(path, "wb") as fh:
        np.savez(fh, **fields)


@pytest.mark.parametrize(
    "corrupt", [_corrupt_truncated, _corrupt_version], ids=["truncated", "wrong-version"]
)
def test_untrusted_entry_is_recomputed_and_replaced(tmp_path, caplog, evolve_calls, corrupt):
    good = _reference(tmp_path)
    path = _entry(tmp_path)
    corrupt(path)
    with pytest.raises(cache.CacheError):
        cache._load(path, cache.reference_key("example1-gausson", "cnfd", P, G, TAU, STEPS, 1e-12))

    with caplog.at_level(logging.WARNING, logger="logkge.cache"):
        again = _reference(tmp_path)
    assert len(evolve_calls) == 2
    assert str(path) in caplog.text
    _assert_same(good, again)

    # The replacement is a valid entry: the next call is a hit.
    _assert_same(good, _reference(tmp_path))
    assert len(evolve_calls) == 2
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
