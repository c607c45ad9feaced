"""Differential proof: the engine's inlined ``run()`` loop is
bit-identical to the ``Simulator(fast=False)`` seed reference loop
across the registered scenario families.

Each scenario runs twice — once per loop, fresh (no sweep cache) — and
the full :class:`~repro.scenarios.run.ModeRun` payload must match
exactly: wall-clock virtual times, per-region timers, intra-runtime
statistics, application values and materialized crash tuples.  On top
of that, the :class:`repro.results.RunResult` JSON serialization must
be byte-identical, and the sweep cache must treat the loop as a pure
execution detail (same keys, reusable bytes in both directions).

No trace hook is installed, so the default loop recycles plain
timeouts through its free list here — the golden-trace test in
``test_determinism.py`` traces every event, which turns the free list
off.

The families cover the repo's experiment surface: fig5 (HPCCG kernels
+ solver, native/sdr/intra), fig6 (AMG, GTC, MiniGhost), the PR 6
production failure universes (inhomogeneous-Poisson / maintenance /
cascading storms) and scenario-expressible restart.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.api import run as api_run
from repro.apps.amg import AmgConfig
from repro.apps.gtc import GtcConfig
from repro.apps.hpccg import HpccgConfig, KernelBenchConfig
from repro.apps.minighost import MiniGhostConfig
from repro.scenarios import (CascadingFailures, ConstantRate,
                             FixedFailures, InhomogeneousPoissonFailures,
                             MaintenanceWindowFailures, PoissonFailures,
                             RateSpec, RestartPolicy, Scenario,
                             SinusoidRate, scenario_cache_key)
from repro.scenarios.run import _run_scenario
from repro.simulate import engine

TINY_KB = KernelBenchConfig(nx=8, ny=8, nz=8, reps=1)
TINY_HPCCG = HpccgConfig(nx=8, ny=8, nz=8, max_iter=2,
                         intra_kernels=frozenset({"ddot", "spmv"}))

STORM_IPOISSON = InhomogeneousPoissonFailures(
    rates=RateSpec((ConstantRate(30.0),
                    SinusoidRate(mean=40.0, amplitude=40.0,
                                 period=2e-3))),
    seed=7, horizon=4e-3)
STORM_MAINTENANCE = MaintenanceWindowFailures(
    base_rate=20.0, window_rate=800.0, period=2e-3, window=3e-4,
    offset=5e-4, seed=7, horizon=4e-3)
STORM_CASCADE = CascadingFailures(
    rate=60.0, multiplier=20.0, window=1e-3, neighbor_distance=1,
    base=FixedFailures(((1, 0, 1e-3),)), seed=7, horizon=4e-3)

FAMILIES = {
    # fig5a: kernel benchmarks, native and intra placement
    "fig5a-native": Scenario(app="hpccg_kernels", config=TINY_KB,
                             n_logical=2, mode="native"),
    "fig5a-intra": Scenario(app="hpccg_kernels", config=TINY_KB,
                            n_logical=2, mode="intra"),
    # fig5b: the HPCCG solver, clean and crash-injected, plus sdr
    "fig5b-clean": Scenario(app="hpccg", config=TINY_HPCCG,
                            n_logical=2, mode="intra"),
    "fig5b-crash": Scenario(app="hpccg", config=TINY_HPCCG,
                            n_logical=2, mode="intra",
                            failures=FixedFailures(((0, 1, 1e-5),))),
    "fig5b-sdr": Scenario(app="hpccg", config=TINY_HPCCG,
                          n_logical=2, mode="sdr",
                          failures=PoissonFailures(rate=3e4, seed=13,
                                                   horizon=2e-3)),
    # fig6: the other mini-apps
    "fig6-amg": Scenario(app="amg_pcg",
                         config=AmgConfig(nx=8, ny=8, nz=8, max_iter=2),
                         n_logical=2, mode="intra"),
    "fig6-gtc": Scenario(app="gtc",
                         config=GtcConfig(particles_per_rank=256,
                                          cells_per_rank=16, steps=2),
                         n_logical=2, mode="intra"),
    "fig6-minighost": Scenario(app="minighost",
                               config=MiniGhostConfig(nx=8, ny=8, nz=4,
                                                      steps=2),
                               n_logical=2, mode="intra"),
    # PR 6 failure universes (storm family)
    "storm-ipoisson": Scenario(app="hpccg", config=TINY_HPCCG,
                               n_logical=2, mode="intra",
                               failures=STORM_IPOISSON),
    "storm-maintenance": Scenario(app="hpccg", config=TINY_HPCCG,
                                  n_logical=2, mode="intra",
                                  failures=STORM_MAINTENANCE),
    # scenario-expressible restart under a cascading storm
    "restart-cascade": Scenario(app="stepsum", n_logical=2,
                                mode="intra", failures=STORM_CASCADE,
                                restart=RestartPolicy(delay=2e-4)),
}


@contextlib.contextmanager
def _loop(fast: bool):
    """Build every simulator in the block with ``fast=fast``."""
    prev = engine.FAST_DEFAULT
    engine.FAST_DEFAULT = fast
    try:
        yield
    finally:
        engine.FAST_DEFAULT = prev


def _run_on(fast: bool, scenario: Scenario):
    with _loop(fast):
        return _run_scenario(scenario)


@pytest.mark.parametrize("family", sorted(FAMILIES),
                         ids=sorted(FAMILIES))
def test_mode_run_payload_bit_identical(family):
    scenario = FAMILIES[family]
    oracle = _run_on(False, scenario)
    fast = _run_on(True, scenario)
    # dataclass equality first (gives a readable diff on failure) ...
    assert fast == oracle
    # ... then repr equality, which also pins float formatting and
    # container types bit-for-bit
    assert repr(fast) == repr(oracle)


def test_run_result_json_bytes_identical(tmp_path):
    scenario = FAMILIES["fig5b-crash"]
    with _loop(False):
        oracle = api_run(scenario, cache=False)
    fast = api_run(scenario, cache=False)
    assert fast.to_json() == oracle.to_json()


def test_backend_is_cache_neutral(tmp_path):
    """The engine loop must not leak into cache keys, and cached bytes
    must be interchangeable: a sweep can mix cached seed-loop results
    with fresh default-loop runs (and vice versa)."""
    scenario = FAMILIES["fig5a-intra"]
    assert scenario_cache_key(scenario) == scenario_cache_key(scenario)

    with _loop(False):
        first = api_run(scenario, cache=True, cache_dir=tmp_path)
    second = api_run(scenario, cache=True, cache_dir=tmp_path)
    assert first.cache_key == second.cache_key
    assert first.cache_hit is False
    assert second.cache_hit is True          # seed-written, fast-read
    # payloads equal regardless of which loop wrote the cache entry
    assert (second.wall_time, second.timers, second.intra,
            second.value) == (first.wall_time, first.timers,
                              first.intra, first.value)
