"""The parallel sweep driver: ordering, pooling, caching, stable keys."""

import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.perf.sweep as sweep_mod
from repro.apps.hpccg import HpccgConfig
from repro.intra import CopyStrategy
from repro.perf import (clear_result_cache, configure, get_config,
                        run_sweep, stable_token)


def _square(x):
    return x * x


def _record_calls(x):
    _record_calls.calls.append(x)
    return x + 1


_record_calls.calls = []


def test_results_preserve_point_order():
    assert run_sweep([3, 1, 2], _square) == [9, 1, 4]


def test_empty_sweep():
    assert run_sweep([], _square) == []


def test_process_pool_matches_serial():
    points = list(range(8))
    assert (run_sweep(points, _square, workers=2)
            == run_sweep(points, _square, workers=1))


def _worker_backend(_x):
    from repro.fabric.store import get_cache_backend
    return get_cache_backend()


def test_pool_workers_inherit_cache_backend():
    """A cache backend selected programmatically in the parent (not
    via the REPRO_CACHE_BACKEND env var) must reach pool workers too."""
    from repro.fabric.store import get_cache_backend, set_cache_backend
    other = "sqlite" if get_cache_backend() == "file" else "file"
    prev = set_cache_backend(other)
    try:
        assert (run_sweep([1, 2], _worker_backend, workers=2)
                == [other, other])
    finally:
        set_cache_backend(prev)
    assert run_sweep([1, 2], _worker_backend, workers=2) == [prev, prev]


def test_disk_cache_hit_skips_recompute(tmp_path):
    _record_calls.calls = []
    points = [1, 2, 3]
    first = run_sweep(points, _record_calls, cache=True,
                      cache_dir=tmp_path)
    assert _record_calls.calls == points
    again = run_sweep(points, _record_calls, cache=True,
                      cache_dir=tmp_path)
    assert again == first == [2, 3, 4]
    assert _record_calls.calls == points  # nothing recomputed


def test_cache_is_keyed_on_point_and_tag(tmp_path):
    a = run_sweep([2], _square, cache=True, cache_dir=tmp_path)
    b = run_sweep([3], _square, cache=True, cache_dir=tmp_path)
    c = run_sweep([2], _square, cache=True, cache_dir=tmp_path,
                  tag="other")
    assert (a, b, c) == ([4], [9], [4])
    assert clear_result_cache(tmp_path) == 3  # three distinct entries


def test_configure_sets_defaults(tmp_path):
    cfg = get_config()
    old = (cfg.workers, cfg.cache, cfg.cache_dir)
    try:
        configure(workers=2, cache=True, cache_dir=tmp_path)
        assert run_sweep([5], _square) == [25]
        assert list(tmp_path.rglob("*.pkl"))  # default cache dir used
    finally:
        configure(workers=old[0], cache=old[1], cache_dir=old[2])


def test_configure_rejects_bad_workers():
    with pytest.raises(ValueError):
        configure(workers=0)


# -------------------------------------------------- env-var round trips
def _reload_with_workers_env(monkeypatch, value):
    """Re-execute the module's import-time env parsing under a
    controlled REPRO_WORKERS, restoring the default state afterwards."""
    if value is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", value)
    try:
        return importlib.reload(sweep_mod).get_config().workers
    finally:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        importlib.reload(sweep_mod)


@pytest.mark.parametrize("value,expected,warns", [
    (None, 1, False),
    ("", 1, False),
    ("3", 3, False),
    (" 2 ", 2, False),
    ("abc", 1, True),       # garbage: warn, fall back (used to raise)
    ("0", 1, True),         # < 1: warn, fall back (used to install 0)
    ("-4", 1, True),
])
def test_env_workers_round_trip(monkeypatch, value, expected, warns):
    if warns:
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            got = _reload_with_workers_env(monkeypatch, value)
    else:
        got = _reload_with_workers_env(monkeypatch, value)
    assert got == expected
    # whatever the env said, the installed default passes configure()'s
    # own validation
    assert get_config().workers >= 1


def test_garbage_env_workers_survives_fresh_import():
    """`REPRO_WORKERS=abc python -c 'import repro.perf.sweep'` must not
    raise — the experiment modules all import the sweep driver at
    module scope, so a bad env var used to break every entry point."""
    src_dir = str(pathlib.Path(repro.__file__).parents[1])
    env = dict(os.environ, REPRO_WORKERS="abc")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro.perf.sweep as s; print(s.get_config().workers)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
    assert "RuntimeWarning" in proc.stderr


# ------------------------------------------- in-sweep duplicate dedupe
def test_duplicate_points_compute_once_in_cold_cached_sweep(tmp_path):
    _record_calls.calls = []
    out = run_sweep([4, 4, 4], _record_calls, cache=True,
                    cache_dir=tmp_path)
    assert out == [5, 5, 5]
    assert _record_calls.calls == [4]   # one compute, fanned out


def test_duplicates_of_cached_point_stay_hits(tmp_path):
    _record_calls.calls = []
    run_sweep([6], _record_calls, cache=True, cache_dir=tmp_path)
    out = run_sweep([6, 6, 9, 9], _record_calls, cache=True,
                    cache_dir=tmp_path)
    assert out == [7, 7, 10, 10]
    assert _record_calls.calls == [6, 9]   # 6 hit the cache both times


def test_duplicate_dedupe_respects_tag_namespaces(tmp_path):
    _record_calls.calls = []
    a = run_sweep([2, 2], _record_calls, cache=True, cache_dir=tmp_path)
    b = run_sweep([2, 2], _record_calls, cache=True, cache_dir=tmp_path,
                  tag="other")
    assert a == b == [3, 3]
    assert _record_calls.calls == [2, 2]   # one compute per namespace


def test_uncached_sweep_still_calls_per_point():
    # without a cache there is no key to dedupe on; fn may be impure
    # in ways the caller accepts, so every occurrence runs
    _record_calls.calls = []
    assert run_sweep([8, 8], _record_calls, cache=False) == [9, 9]
    assert _record_calls.calls == [8, 8]


# ------------------------------------------------- tmp-dropping cleanup
def test_clear_cache_sweeps_tmp_droppings_and_empty_shards(tmp_path):
    run_sweep([1, 2], _square, cache=True, cache_dir=tmp_path)
    # simulate a _cache_store writer that died between open and replace
    shard = tmp_path / "zz"
    shard.mkdir()
    (shard / "feedface.tmp4242").write_bytes(b"partial pickle")
    orphan = tmp_path / "aa" / "bb"
    orphan.mkdir(parents=True)
    removed = clear_result_cache(tmp_path)
    assert removed == 2                      # counts results only
    assert list(tmp_path.rglob("*")) == []   # droppings + dirs swept
    assert tmp_path.is_dir()                 # the root itself survives


def test_clear_cache_missing_dir_is_noop(tmp_path):
    assert clear_result_cache(tmp_path / "never-created") == 0


# ------------------------------------------------------------ stable keys
def test_stable_token_sorts_sets():
    # frozenset iteration order depends on the hash seed; tokens must not
    assert (stable_token(frozenset({"ddot", "spmv", "waxpby"}))
            == stable_token(frozenset({"waxpby", "spmv", "ddot"})))


def test_stable_token_distinguishes_configs():
    a = HpccgConfig(nx=16, ny=16, nz=16)
    b = dataclasses.replace(a, nz=32)
    assert stable_token(a) != stable_token(b)
    assert stable_token(a) == stable_token(
        HpccgConfig(nx=16, ny=16, nz=16))


def test_stable_token_handles_experiment_types():
    token = stable_token({
        "mode": "intra",
        "cfg": HpccgConfig(),
        "strategy": CopyStrategy.LAZY,
        "fn": _square,
        "nested": (1, [2.5, None], {"k": frozenset({1, 2})}),
    })
    assert "CopyStrategy.LAZY" in token
    assert "_square" in token


def test_stable_token_rejects_address_reprs():
    class Opaque:
        __slots__ = ()

    with pytest.raises(TypeError):
        stable_token(Opaque())
