"""Declarative scenario layer (system S15).

One :class:`Scenario` = one program in one configuration: app + problem
size, logical rank count, execution mode, replication degree/spread,
scheduler and copy strategy, machine/network model, failure schedule.
Scenarios are frozen, hashable, JSON-round-trippable values; the named
registry makes every paper figure point and example discoverable and
overridable from the CLI, and the sweep driver memoizes results on
scenario hashes so equal scenarios dedupe across figures, examples and
sweeps.

Quickstart (through the :mod:`repro.api` facade)::

    import repro
    from repro.scenarios import Scenario, PoissonFailures

    s = Scenario(app="hpccg", n_logical=8, mode="intra",
                 failures=PoissonFailures(rate=2e3, seed=7,
                                          horizon=5e-3))
    result = repro.run(s)              # RunResult(..., crashes=(...))
    twin = Scenario.from_json(s.to_json())   # == s, same cache key
"""

from .apps import (AppEntry, app_names, app_ref, get_app, register_app,
                   resolve_program)
from .failures import (NO_FAILURES, CascadingFailures, ConstantRate,
                       CrashEvent, FailureSchedule, FixedFailures,
                       InhomogeneousPoissonFailures,
                       MaintenanceWindowFailures, NoFailures,
                       PiecewiseRate, PoissonFailures, RATE_TERM_KINDS,
                       RateSpec, RateTerm, SCHEDULE_KINDS, SinusoidRate,
                       WeibullFailures, WindowRate)
from .grids import (GRID_PREFIX, GridFamily, get_grid, grid_entries,
                    grid_names, is_grid_name, register_grid,
                    total_grid_points)
from .policies import RESTART_TRIGGERS, RestartPolicy
from .registry import (RegisteredScenario, UnknownScenarioError,
                       find_scenario_name, get_entry, get_scenario,
                       register_scenario, scenario_entries,
                       scenario_names, suggest_names)
from .run import (ModeRun, SCENARIO_SWEEP_TAG, make_world, nodes_for,
                  scenario_cache_key, sweep_scenarios)
from .spec import (MACHINES, NETWORKS, Scenario, baseline_overrides,
                   decode_value, encode_value, machine_name_for,
                   network_name_for, parse_override, register_codec_type)
from . import catalog  # registers the example scenarios  # noqa: F401

__all__ = [
    "AppEntry", "CascadingFailures", "ConstantRate", "CrashEvent",
    "FailureSchedule", "FixedFailures", "GRID_PREFIX", "GridFamily",
    "InhomogeneousPoissonFailures",
    "MACHINES", "MaintenanceWindowFailures", "ModeRun", "NETWORKS",
    "NO_FAILURES", "NoFailures", "PiecewiseRate", "PoissonFailures",
    "RATE_TERM_KINDS", "RESTART_TRIGGERS", "RateSpec", "RateTerm",
    "RegisteredScenario", "RestartPolicy",
    "SCENARIO_SWEEP_TAG", "SCHEDULE_KINDS", "Scenario", "SinusoidRate",
    "UnknownScenarioError", "WeibullFailures", "WindowRate",
    "app_names", "app_ref", "baseline_overrides",
    "decode_value", "encode_value", "find_scenario_name", "get_app",
    "get_entry", "get_grid", "get_scenario", "grid_entries",
    "grid_names", "is_grid_name", "machine_name_for", "make_world",
    "network_name_for", "nodes_for", "parse_override",
    "register_app", "register_codec_type", "register_grid",
    "register_scenario", "resolve_program", "scenario_cache_key", "scenario_entries", "scenario_names",
    "suggest_names", "sweep_scenarios", "total_grid_points",
]
