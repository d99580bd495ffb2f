import logging
import sys
import threading

import numpy as np
import pytest

from logkge import cache
from logkge.analysis import gausson_initial_data
from logkge.grid import Grid1D
from logkge.nonlinearity import NonlinearityParams
from logkge.schemes import Run, StepperConfig, evolve

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
    """Two (prev, curr) results hold the same layers."""
    assert len(a) == len(b) == 2
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_miss_then_hit(tmp_path, evolve_calls):
    first = _reference(tmp_path)
    assert len(evolve_calls) == 1 and _entry(tmp_path).exists()
    with np.load(_entry(tmp_path)) as data:
        assert cache.CACHE_VERSION == 2
        assert sorted(data.files) == ["curr", "key", "prev"]
        assert data["prev"].shape == data["curr"].shape == (G.N,)
    second = _reference(tmp_path)
    assert len(evolve_calls) == 1
    _assert_same(first, second)


def test_stepping_on_from_a_loaded_state_continues_the_run(tmp_path, evolve_calls):
    # The cache gives back only the two layers: V and the work layers are
    # made anew.  Stepping on from them must give the run that never
    # stopped, in layers and Newton counts, bit for bit.
    _reference(tmp_path)
    layers = _reference(tmp_path)
    assert len(evolve_calls) == 1  # the second pair was read back
    cfg, more = StepperConfig("cnfd", TAU), 3
    run = Run(*layers, P, cfg, G, n=STEPS)
    iters = [run.advance().newton_iters for _ in range(more)]
    seen = []
    whole = evolve(gausson_initial_data(G), P, cfg, G, STEPS + more,
                   lambda run: seen.append(run.newton_iters))
    assert run.prev.tobytes() == whole.prev.tobytes()
    assert run.curr.tobytes() == whole.curr.tobytes()
    assert run.n == whole.n
    assert iters == seen[STEPS:]


@pytest.mark.parametrize("n_steps", [2.5, True])
def test_step_count_that_is_not_whole_stores_nothing(tmp_path, n_steps):
    # 2.5 would run 3 steps and store them under a key that says 2.5.
    with pytest.raises(ValueError, match="n_steps must be an int >= 1"):
        cache.reference_state("example1-gausson", gausson_initial_data(G), P, G, TAU, n_steps,
                              cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_no_cache_dir_recomputes_and_writes_nothing(tmp_path, monkeypatch, evolve_calls):
    monkeypatch.chdir(tmp_path)
    a, b = _reference(None), _reference(None)
    assert len(evolve_calls) == 2
    assert list(tmp_path.iterdir()) == []
    _assert_same(a, b)


def _corrupt_truncated(path):
    path.write_bytes(path.read_bytes()[:100])


def _rewrite(path, **changes):
    """Store the entry at ``path`` again with fields changed (None drops one)."""
    with np.load(path) as data:
        fields = dict(data) | changes
    with open(path, "wb") as fh:
        np.savez(fh, **{k: v for k, v in fields.items() if v is not None})


def _corrupt_key(path):
    # the entry of a run one step longer, under this run's name
    _rewrite(path, key=cache.reference_key("example1-gausson", "cnfd", P, G, TAU, STEPS + 1, 1e-12))


def _corrupt_missing_layer(path):
    _rewrite(path, prev=None)


def _corrupt_closed_layers(path):
    # an entry whose layers repeat the endpoint (length N+1)
    with np.load(path) as data:
        closed = {name: np.append(data[name], data[name][0]) for name in ("prev", "curr")}
    _rewrite(path, **closed)


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_truncated, _corrupt_key, _corrupt_missing_layer, _corrupt_closed_layers],
    ids=["truncated", "another-key", "missing-layer", "closed-layers"],
)
def test_untrusted_entry_is_recomputed_and_replaced(tmp_path, caplog, evolve_calls, corrupt):
    good = _reference(tmp_path)
    path = _entry(tmp_path)
    corrupt(path)
    with pytest.raises(cache.CacheError):
        cache._load(
            path, cache.reference_key("example1-gausson", "cnfd", P, G, TAU, STEPS, 1e-12), G.N
        )

    with caplog.at_level(logging.WARNING, logger="logkge.cache"):
        again = _reference(tmp_path)
    assert len(evolve_calls) == 2
    assert str(path) in caplog.text
    _assert_same(good, again)

    # The replacement is a valid entry: the next call is a hit.
    _assert_same(good, _reference(tmp_path))
    assert len(evolve_calls) == 2
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_entry_with_stored_version_and_step_is_read(tmp_path, evolve_calls):
    # Entries once stored the format version, n and t beside the key and
    # the layers; the key fixes all three, so such an entry is still a hit.
    good = _reference(tmp_path)
    _rewrite(_entry(tmp_path), version=cache.CACHE_VERSION, n=STEPS, t=STEPS * TAU)
    again = _reference(tmp_path)
    assert len(evolve_calls) == 1
    _assert_same(good, again)


def test_another_format_version_names_another_entry(tmp_path, caplog, monkeypatch, evolve_calls):
    _reference(tmp_path)
    monkeypatch.setattr(cache, "CACHE_VERSION", cache.CACHE_VERSION + 1)
    with caplog.at_level(logging.WARNING, logger="logkge.cache"):
        _reference(tmp_path)
    assert len(evolve_calls) == 2  # a miss: the old entry is neither read nor replaced
    assert caplog.text == ""
    assert len(list(tmp_path.iterdir())) == 2


def _block_entry(tmp_path):
    _entry(tmp_path).mkdir()
    return tmp_path


def _block_cache_dir(tmp_path):
    (tmp_path / "cache").write_text("")
    return tmp_path / "cache"


@pytest.mark.parametrize("block", [_block_entry, _block_cache_dir],
                         ids=["entry-is-a-directory", "cache-dir-is-a-file"])
def test_entry_that_cannot_be_written_is_logged(tmp_path, caplog, evolve_calls, block):
    cache_dir = block(tmp_path)
    with caplog.at_level(logging.WARNING, logger="logkge.cache"):
        layers = _reference(cache_dir)
    assert len(evolve_calls) == 1
    assert str(_entry(cache_dir)) in caplog.text
    uncached = _reference(None)
    assert len(layers) == len(uncached) == 2
    assert layers[0].tobytes() == uncached[0].tobytes()
    assert layers[1].tobytes() == uncached[1].tobytes()
    assert len(list(tmp_path.iterdir())) == 1  # no temporary file left behind


def test_concurrent_writers_of_one_key(tmp_path, monkeypatch):
    # Two threads miss the same key in an empty directory.  Neither starts
    # its run before both have missed, so both store the entry at once.
    g8 = Grid1D(-4.0, 4.0, 8)
    init = gausson_initial_data(g8)
    calls = []
    both_missed = threading.Barrier(2, timeout=30)
    real = cache.evolve

    def evolve_once_both_missed(*args, **kwargs):
        calls.append(args)
        if len(calls) <= 2:
            both_missed.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(cache, "evolve", evolve_once_both_missed)

    def reference():
        return cache.reference_state(
            "example1-gausson", init, P, g8, TAU, STEPS, cache_dir=tmp_path
        )

    states = [None, None]

    def writer(i):
        states[i] = reference()

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 2
    _assert_same(states[0], states[1])
    # One entry under the key's name, and no temporary file left behind.
    key = cache.reference_key("example1-gausson", "cnfd", P, g8, TAU, STEPS, 1e-12)
    assert [p.name for p in tmp_path.iterdir()] == [cache._entry_path(tmp_path, key).name]

    _assert_same(reference(), states[0])
    assert len(calls) == 2
