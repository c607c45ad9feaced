"""The toggle plumbing under the matrix: env parsing, knob setters,
and the leg context manager.

Every matrix axis rides a process-global module default (today one:
``repro.simulate.engine.FAST_DEFAULT``); these tests pin that
``oracle_matrix.applied`` restores every knob even when the body
raises, and the defensive env-flag parsing discipline the remaining
env-var settings (``REPRO_SWEEP_CACHE``) use: garbage warns and falls
back, never breaks imports.
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
    for axis in om.TOGGLE_AXES:
        start = om.get_knob(axis)
        other = next(v for v in axis[1] if v != start)
        assert om.set_knob(axis, other) == start
        assert om.get_knob(axis) == other
        assert om.set_knob(axis, start) == other
        assert om.get_knob(axis) == start


def test_applied_restores_every_knob_on_error():
    before = om.snapshot_toggles()
    flipped = om.TOGGLE_LEGS[-1]
    with pytest.raises(RuntimeError, match="boom"):
        with om.applied(flipped):
            for axis in om.TOGGLE_AXES:
                assert om.get_knob(axis) == flipped[axis[0]]
            raise RuntimeError("boom")
    assert om.snapshot_toggles() == before
