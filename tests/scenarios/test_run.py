"""Running scenarios: twin identity, failure determinism end-to-end,
sweep dedupe on scenario hashes."""

import pytest

import repro
from repro.apps.hpccg import HpccgConfig, KernelBenchConfig
from repro.scenarios import (FixedFailures, PoissonFailures, Scenario,
                             scenario_cache_key, sweep_scenarios)

TINY_KB = KernelBenchConfig(nx=8, ny=8, nz=8, reps=1)
TINY_HPCCG = HpccgConfig(nx=8, ny=8, nz=8, max_iter=2,
                         intra_kernels=frozenset({"ddot", "spmv"}))


def test_json_twin_reproduces_identical_result():
    """Acceptance: a JSON-serialized scenario reproduces the identical
    result (same sweep-cache key, same ModeRun values) as its in-code
    twin."""
    s = Scenario(app="hpccg_kernels", config=TINY_KB, n_logical=4,
                 mode="intra")
    twin = Scenario.from_json(s.to_json())
    assert twin == s
    assert scenario_cache_key(twin) == scenario_cache_key(s)
    assert (repro.run(twin, cache=False).to_json()
            == repro.run(s, cache=False).to_json())


@pytest.mark.parametrize("mode", ["native", "sdr", "intra"])
def test_seeded_poisson_deterministic_in_every_mode(mode):
    """Acceptance: a seeded Poisson failure scenario runs
    deterministically end-to-end in all three modes."""
    s = Scenario(app="hpccg", config=TINY_HPCCG, n_logical=2, mode=mode,
                 failures=PoissonFailures(rate=3e4, seed=13,
                                          horizon=2e-3))
    first = repro.run(s, cache=False)
    second = repro.run(s, cache=False)
    assert first.to_json() == second.to_json()
    assert first.wall_time > 0
    if mode == "native":
        # no replicas to kill: the schedule is vacuous natively
        assert first.crashes == ()
    else:
        assert first.crashes  # the seeded schedule really fires
        assert first.crashes == second.crashes


def test_poisson_scenario_survives_and_differs_from_clean():
    clean = Scenario(app="hpccg", config=TINY_HPCCG, n_logical=2,
                     mode="intra")
    crashy = clean.with_failures(PoissonFailures(rate=3e4, seed=13,
                                                 horizon=2e-3))
    r_clean = repro.run(clean, cache=False)
    r_crashy = repro.run(crashy, cache=False)
    # the survivor computed the same answer, more slowly
    assert r_crashy.value == r_clean.value
    assert r_crashy.wall_time > r_clean.wall_time


def test_fixed_failure_triggers_reexecution():
    s = Scenario(app="hpccg", config=TINY_HPCCG, n_logical=2,
                 mode="intra",
                 failures=FixedFailures(((0, 1, 1e-5),)))
    run = repro.run(s, cache=False)
    assert len(run.crashes) == 1
    assert run.intra.get("tasks_reexecuted", 0) > 0


def test_sweep_dedupes_equal_scenarios_across_callers(tmp_path):
    """Equal scenarios share one cache entry regardless of which figure
    or sweep evaluates them."""
    a = Scenario(app="hpccg_kernels", config=TINY_KB, n_logical=2,
                 mode="native")
    b = Scenario.from_json(a.to_json())      # equal, separately built
    first = sweep_scenarios([a], cache=True, cache_dir=tmp_path)
    again = sweep_scenarios([b], cache=True, cache_dir=tmp_path)
    assert first == again
    cached = list(tmp_path.rglob("*.pkl"))
    assert len(cached) == 1                   # one shared entry
    assert scenario_cache_key(a) in cached[0].name


def test_sweep_scenarios_rejects_non_scenarios():
    with pytest.raises(TypeError):
        sweep_scenarios([("native", None, 4)])

