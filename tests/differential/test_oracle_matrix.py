"""The oracle matrix: random scenarios × every execution-toggle leg ×
cold/warm cache, all byte-identical.

The simulator's fast paths (``fast=True``, the default) are the oracle;
the ``fast=False`` leg — seed reference engine loop, generator message
transport and task-by-task sections — and the warm-cache reads,
including reads of bytes *written by a different leg*, must reproduce
its :class:`RunResult` JSON byte for byte and agree on the scenario's
cache key.  On failure, hypothesis shrinks the scenario and the
assertion message carries the exact command replaying the diverging
leg through the experiments CLI's ``run --scenario-json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
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
    assert len(om.TOGGLE_LEGS) == 2
    assert om.ORACLE_LEG == {"fast": True}


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
    from repro.scenarios import Scenario

    scenario = Scenario(app="stepsum", config=om.TINY_STEPSUM,
                        n_logical=2, mode="intra")
    leg = om.TOGGLE_LEGS[-1]
    cmd = om.repro_command(scenario, leg)
    assert "--scenario-json" in cmd
    assert "repro.simulate.engine.FAST_DEFAULT = False" in cmd
    assert "REPRO_" not in cmd.split("--scenario-json", 1)[0]
    # the embedded JSON round-trips to the same scenario
    payload = cmd.split("--scenario-json ", 1)[1].rsplit(
        " --format", 1)[0]
    assert Scenario.from_json(shlex.split(payload)[0]) == scenario


def test_repro_command_reproduces_the_leg_in_a_subprocess(tmp_path):
    """Run the printed replay in a fresh interpreter: its RunResult must
    be the in-process leg's, byte for byte."""
    from repro.results import ResultSet
    from repro.scenarios import FixedFailures, Scenario

    scenario = Scenario(app="stepsum", config=om.TINY_STEPSUM,
                        n_logical=2, mode="intra",
                        failures=FixedFailures(((0, 1, 5e-4),)))
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for leg in om.TOGGLE_LEGS:
        want = om.canonical(om.run_leg(scenario, leg))
        cmd = om.repro_command(scenario, leg,
                               python=shlex.quote(sys.executable))
        out = subprocess.run(cmd, shell=True, cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        (replayed,) = ResultSet.from_json(out.stdout)
        assert om.canonical(replayed) == want, om.describe(
            scenario, leg, "replay")
