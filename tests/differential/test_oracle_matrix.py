"""The oracle matrix: random scenarios × every execution-toggle leg ×
cold/warm cache, all byte-identical.

Section batching and task pooling both at their defaults is the
oracle; the other 3 toggle legs — and the warm-cache reads, including
reads of bytes *written by a different leg* — must reproduce its
:class:`RunResult` JSON byte for byte and agree on the scenario's
cache key.  On failure, hypothesis
shrinks the scenario and the assertion message carries the exact
``python -m repro.experiments run --scenario-json`` command replaying
the diverging leg.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings

import oracle_matrix as om


@settings(max_examples=om.budget("matrix"), deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(scenario=om.scenarios())
def test_matrix_all_legs_bit_identical(scenario):
    tmp = tempfile.mkdtemp(prefix="oracle-matrix-")
    try:
        # the reference: oracle leg, fresh, no cache anywhere
        oracle = om.run_leg(scenario, om.ORACLE_LEG)
        want = om.canonical(oracle)
        key = om.expected_cache_key(scenario)
        assert json.loads(want)["cache"]["key"] == key

        # cold cached oracle leg seeds the shared cache dir; every
        # other leg then reads those *oracle-written* bytes warm AND
        # recomputes fresh — both must match the reference
        seeded = om.run_leg(scenario, om.ORACLE_LEG, cache_dir=tmp)
        assert om.canonical(seeded) == want, om.describe(
            scenario, om.ORACLE_LEG, "cold-cached")
        for leg in om.TOGGLE_LEGS:
            fresh = om.run_leg(scenario, leg)
            assert om.canonical(fresh) == want, om.describe(
                scenario, leg, "fresh")
            warm = om.run_leg(scenario, leg, cache_dir=tmp)
            assert om.canonical(warm) == want, om.describe(
                scenario, leg, "warm")
            assert fresh.cache_key == key
            assert warm.cache_key == key
            if oracle.ok:
                # failures are never cached, so hit provenance only
                # applies to successful runs
                assert warm.cache_hit is True, om.describe(
                    scenario, leg, "warm-miss")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ------------------------------------------------- harness meta-tests

def test_matrix_covers_all_toggle_combinations():
    assert len(om.TOGGLE_LEGS) == 2 ** len(om.TOGGLE_AXES)
    assert len({tuple(sorted(leg.items())) for leg in om.TOGGLE_LEGS}
               ) == len(om.TOGGLE_LEGS)
    assert len(om.TOGGLE_LEGS) == 4
    assert om.ORACLE_LEG == {"sections": True, "pooling": True}


def test_differential_profile_meets_the_standing_budget():
    # the acceptance floor: >= 200 generated scenarios per nightly run,
    # each across all toggle legs; keep tier-1's smoke budget small
    assert om.PROFILES["differential"]["matrix"] >= 200
    assert om.PROFILES["smoke"]["matrix"] <= 20
    for name, budgets in om.PROFILES.items():
        assert set(budgets) == set(om.PROFILES["smoke"]), name


def test_unknown_profile_falls_back_to_smoke(monkeypatch, recwarn):
    monkeypatch.setenv("REPRO_FUZZ_PROFILE", "nightlyy")
    assert om.active_profile() == "smoke"
    assert any("REPRO_FUZZ_PROFILE" in str(w.message) for w in recwarn)
    monkeypatch.setenv("REPRO_FUZZ_PROFILE", "differential")
    assert om.active_profile() == "differential"
    monkeypatch.delenv("REPRO_FUZZ_PROFILE")
    assert om.active_profile() == "smoke"


def test_repro_command_replays_a_leg_verbatim():
    import shlex

    from repro.scenarios import Scenario

    scenario = Scenario(app="stepsum", config=om.TINY_STEPSUM,
                        n_logical=2, mode="intra")
    leg = om.TOGGLE_LEGS[-1]
    cmd = om.repro_command(scenario, leg)
    assert "--scenario-json" in cmd
    assert "REPRO_SECTION_BATCHING=0" in cmd
    assert "REPRO_TASK_POOLING=0" in cmd
    # the embedded JSON round-trips to the same scenario
    payload = cmd.split("--scenario-json ", 1)[1].rsplit(
        " --format", 1)[0]
    assert Scenario.from_json(shlex.split(payload)[0]) == scenario
