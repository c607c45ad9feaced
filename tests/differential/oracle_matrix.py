"""Shared core of the oracle-matrix differential harness.

One hypothesis strategy (:func:`scenarios`) produces random bounded
:class:`~repro.scenarios.Scenario`\\ s over every failure-schedule kind
— none / fixed / Poisson / Weibull plus the PR 6 production universes
(inhomogeneous-Poisson, maintenance windows, cascading) — and, on
StepSum, :class:`~repro.scenarios.RestartPolicy` variants.  Each one
runs under every combination of the execution toggles
(:data:`TOGGLE_LEGS`: section batching × task pooling) in both cache
states (cold and warm), and the tests assert the
:class:`~repro.results.RunResult` JSON is
byte-identical across all legs (:func:`canonical` — only the cache
*hit* flag may differ between cold and warm) and that the cache key is
toggle-neutral.

A surviving counterexample is a real bug in one of the execution paths;
:func:`repro_command` prints the exact shell command — env toggles plus
``python -m repro.experiments run --scenario-json '...'`` — that
replays the shrunken scenario outside the test harness.

Budgets are profile-switched: the default ``smoke`` profile keeps
tier-1 fast, ``REPRO_FUZZ_PROFILE=differential`` (the nightly CI job,
``make fuzz``) raises them to the standing-harness scale.  New toggle
axes slot in by appending to :data:`TOGGLE_AXES` — the leg product,
:func:`applied`, and :func:`repro_command` all derive from it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shlex
import warnings

from hypothesis import strategies as st

from repro.api import run as api_run
from repro.apps.hpccg import HpccgConfig, KernelBenchConfig
from repro.apps.steploop import StepSumConfig
from repro.intra import (section_batching_enabled, set_section_batching,
                         set_task_pooling, task_pooling_enabled)
from repro.scenarios import (CascadingFailures, ConstantRate,
                             FixedFailures, InhomogeneousPoissonFailures,
                             MaintenanceWindowFailures, PoissonFailures,
                             RateSpec, RestartPolicy, Scenario,
                             SinusoidRate, WeibullFailures)
from repro.scenarios.run import scenario_cache_key

# ------------------------------------------------------------- budgets
#: per-test example budgets by profile.  ``differential`` is the
#: standing-harness scale the nightly job runs at; a meta-test pins the
#: >= 200 floor on the matrix so a refactor cannot silently shrink it.
PROFILES = {
    "smoke": {"matrix": 8, "grid_points": 6},
    "differential": {"matrix": 200, "grid_points": 48},
}


def active_profile() -> str:
    raw = os.environ.get("REPRO_FUZZ_PROFILE", "").strip().lower()
    if not raw:
        return "smoke"
    if raw not in PROFILES:
        warnings.warn(
            f"ignoring REPRO_FUZZ_PROFILE={raw!r}: expected one of "
            f"{sorted(PROFILES)}; using 'smoke'", RuntimeWarning)
        return "smoke"
    return raw


PROFILE = active_profile()


def budget(name: str) -> int:
    """The active profile's example budget for test ``name``."""
    return PROFILES[PROFILE][name]


# --------------------------------------------------------- toggle legs
#: the oracle axes: (leg key, values, env var, setter, getter).  The
#: first value of every axis is the reference; the all-reference leg —
#: everything enabled — is the oracle every other leg must match byte
#: for byte.
TOGGLE_AXES = (
    ("sections", (True, False), "REPRO_SECTION_BATCHING",
     set_section_batching, section_batching_enabled),
    ("pooling", (True, False), "REPRO_TASK_POOLING",
     set_task_pooling, task_pooling_enabled),
)

#: all toggle combinations, deterministic order, oracle leg first
TOGGLE_LEGS = tuple(
    dict(zip((axis[0] for axis in TOGGLE_AXES), values))
    for values in itertools.product(*(axis[1] for axis in TOGGLE_AXES)))

ORACLE_LEG = TOGGLE_LEGS[0]


@contextlib.contextmanager
def applied(leg):
    """Apply a toggle leg process-wide; restore every knob on exit."""
    prev = [setter(leg[key])
            for key, _values, _env, setter, _getter in TOGGLE_AXES]
    try:
        yield
    finally:
        for (_key, _values, _env, setter, _getter), value in zip(
                TOGGLE_AXES, prev):
            setter(value)


def snapshot_toggles():
    return tuple(getter()
                 for _k, _v, _e, _setter, getter in TOGGLE_AXES)


def run_leg(scenario, leg, cache_dir=None):
    """One matrix leg: run ``scenario`` under the leg's toggles.

    ``cache_dir=None`` runs fresh (the cold, uncached leg);
    with a directory the sweep cache is live, so the first call per
    (scenario, dir) is the cold cached leg and the second the warm one.
    Failures surface as failed RunResult rows (``on_error="return"``) —
    a schedule harsh enough to exhaust replicas is a valid outcome, and
    every leg must then fail with the *same* error.
    """
    with applied(leg):
        if cache_dir is None:
            return api_run(scenario, cache=False, on_error="return")
        return api_run(scenario, cache=True, cache_dir=cache_dir,
                       on_error="return")


def canonical(result) -> str:
    """Leg-invariant bytes of a RunResult: the full lossless JSON with
    only the cache ``hit`` flag dropped (cold vs warm is the one axis
    *allowed* to differ).  The cache *key* stays in, so toggle-neutral
    cache keys are part of byte identity."""
    data = json.loads(result.to_json())
    cache = dict(data.get("cache") or {})
    cache.pop("hit", None)
    data["cache"] = cache
    return json.dumps(data, sort_keys=True)


def _env_token(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def repro_command(scenario, leg) -> str:
    """The exact shell command replaying this (scenario, leg) outside
    the harness — print it on failure so a shrunken counterexample is
    one paste away from a debugger."""
    env = " ".join(
        f"{envvar}={_env_token(leg[key])}"
        for key, _values, envvar, _setter, _getter in TOGGLE_AXES)
    return (f"{env} python -m repro.experiments run "
            f"--scenario-json {shlex.quote(scenario.to_json())} "
            f"--format json")


def describe(scenario, leg, phase: str) -> str:
    """Failure context: which leg diverged and how to replay it."""
    return (f"[{phase}] leg={leg} scenario={scenario.summary()}\n"
            f"replay: {repro_command(scenario, leg)}")


def expected_cache_key(scenario) -> str:
    return scenario_cache_key(scenario)


# ----------------------------------------------------------- scenarios
#: bounded app configs — the matrix explores *schedules, shapes and
#: toggles*, not problem sizes, so the programs stay tiny
TINY_KB = KernelBenchConfig(nx=8, ny=8, nz=8, reps=1)
TINY_HPCCG = HpccgConfig(nx=8, ny=8, nz=8, max_iter=2,
                         intra_kernels=frozenset({"ddot"}))
TINY_STEPSUM = StepSumConfig(n=4_000, n_steps=4)

HORIZON = 2e-3


def failure_schedules():
    """One strategy per failure-schedule kind, PR 6 universes included."""
    seeds = st.integers(0, 2**16)
    fixed = st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1),
                  st.floats(1e-6, HORIZON, allow_nan=False)),
        min_size=1, max_size=2).map(
            lambda evs: FixedFailures(tuple(evs)))
    poisson = seeds.map(
        lambda s: PoissonFailures(rate=3e4, seed=s, horizon=HORIZON))
    weibull = seeds.map(
        lambda s: WeibullFailures(scale=1e-4, shape=0.7, seed=s,
                                  horizon=HORIZON))
    ipoisson = seeds.map(
        lambda s: InhomogeneousPoissonFailures(
            rates=RateSpec((ConstantRate(2e4),
                            SinusoidRate(mean=2e4, amplitude=1e4,
                                         period=1e-3))),
            seed=s, horizon=HORIZON))
    maintenance = seeds.map(
        lambda s: MaintenanceWindowFailures(
            base_rate=1e4, window_rate=8e4, period=1e-3, window=2e-4,
            offset=1e-4, seed=s, horizon=HORIZON))
    cascade = seeds.map(
        lambda s: CascadingFailures(
            rate=3e4, multiplier=10.0, window=5e-4, neighbor_distance=1,
            seed=s, horizon=HORIZON))
    return st.one_of(st.none(), fixed, poisson, weibull, ipoisson,
                     maintenance, cascade)


def restart_policies():
    """None (crashes stay permanent) or a bounded RestartPolicy —
    restart is only legal on intra/degree-2 StepSum, which the scenario
    builder enforces."""
    policies = st.builds(
        RestartPolicy,
        trigger=st.sampled_from(["on-crash", "on-degree-loss"]),
        delay=st.sampled_from([1e-4, 2e-4, 4e-4]),
        backoff=st.sampled_from([1.0, 2.0]),
        max_restarts=st.integers(1, 4),
        checkpoint_interval=st.sampled_from([1, 2]))
    return st.one_of(st.none(), policies)


def scenarios():
    """Random bounded scenarios over apps × modes × schedules ×
    restart policies — the generator every differential test shares."""
    def build(app_cfg, mode, n_logical, failures, fd_delay, restart):
        app, cfg = app_cfg
        kw = dict(app=app, config=cfg, n_logical=n_logical, mode=mode,
                  fd_delay=fd_delay)
        if failures is not None:
            if mode == "native":
                # failure schedules need replicas to kill
                kw["mode"] = "intra"
            kw["failures"] = failures
            if restart is not None and app == "stepsum":
                # restart requires intra + a restartable app factory
                kw["mode"] = "intra"
                kw["restart"] = restart
        return Scenario(**kw)

    return st.builds(
        build,
        st.sampled_from([("hpccg_kernels", TINY_KB),
                         ("hpccg", TINY_HPCCG),
                         ("stepsum", TINY_STEPSUM)]),
        st.sampled_from(["native", "sdr", "intra"]),
        st.integers(2, 3),
        failure_schedules(),
        st.sampled_from([50e-6, 100e-6]),
        restart_policies())
