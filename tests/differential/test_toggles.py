"""The toggle plumbing under the matrix: env parsing, setters, and the
leg context manager.

Every matrix axis rides a process-global knob with an env-var default
(``REPRO_SECTION_BATCHING``, ``REPRO_TASK_POOLING``); these tests pin
the defensive parsing discipline (garbage warns and falls back, never
breaks imports) and that ``oracle_matrix.applied`` restores every knob
even when the body raises.
"""

from __future__ import annotations

import pytest

import oracle_matrix as om
from repro._envflags import env_flag


@pytest.mark.parametrize("raw,expect", [
    ("1", True), ("true", True), ("YES", True), (" on ", True),
    ("0", False), ("false", False), ("No", False), ("OFF", False),
])
def test_env_flag_parses_the_documented_spellings(
        monkeypatch, raw, expect):
    monkeypatch.setenv("REPRO_TEST_FLAG", raw)
    assert env_flag("REPRO_TEST_FLAG", not expect) is expect


@pytest.mark.parametrize("default", [True, False])
def test_env_flag_unset_and_empty_use_the_default(monkeypatch, default):
    monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
    assert env_flag("REPRO_TEST_FLAG", default) is default
    monkeypatch.setenv("REPRO_TEST_FLAG", "  ")
    assert env_flag("REPRO_TEST_FLAG", default) is default


def test_env_flag_garbage_warns_and_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
    with pytest.warns(RuntimeWarning, match="REPRO_TEST_FLAG='maybe'"):
        assert env_flag("REPRO_TEST_FLAG", True) is True
    with pytest.warns(RuntimeWarning):
        assert env_flag("REPRO_TEST_FLAG", False) is False


def test_setters_return_the_previous_value():
    for _key, values, _env, setter, getter in om.TOGGLE_AXES:
        start = getter()
        other = next(v for v in values if v != start)
        assert setter(other) == start
        assert getter() == other
        assert setter(start) == other
        assert getter() == start


def test_applied_restores_every_knob_on_error():
    before = om.snapshot_toggles()
    flipped = om.TOGGLE_LEGS[-1]
    with pytest.raises(RuntimeError, match="boom"):
        with om.applied(flipped):
            for (key, _v, _e, _setter, getter) in om.TOGGLE_AXES:
                assert getter() == flipped[key]
            raise RuntimeError("boom")
    assert om.snapshot_toggles() == before


def test_env_defaults_reach_the_knobs_in_a_fresh_process():
    # the env vars must actually wire into module defaults at import
    # time — check in a subprocess so this process's state is untouched
    import subprocess
    import sys

    code = (
        "import warnings\n"
        "warnings.simplefilter('error')\n"
        "from repro.intra import runtime\n"
        "print(runtime.BATCH_SECTIONS, runtime.POOL_TASKS)\n")
    env = {"REPRO_SECTION_BATCHING": "off",
           "REPRO_TASK_POOLING": "no", "PYTHONPATH": "src",
           "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, cwd=".")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]
