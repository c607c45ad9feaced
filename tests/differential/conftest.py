"""Wiring for the differential suite.

pytest runs with ``--import-mode=importlib``, so the shared harness
module (:mod:`oracle_matrix`) is not importable from test modules
unless this directory is on ``sys.path`` — put it there before
collection imports the tests.

A module-scoped autouse guard snapshots the process-global execution
toggles around each test module and restores them, failing loudly if a
test leaked a toggle flip (every leg is supposed to restore through
``oracle_matrix.applied``).  Module scope keeps hypothesis's
function-scoped-fixture health check quiet.
"""

import pathlib
import sys

import pytest

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

import oracle_matrix  # noqa: E402  (needs the sys.path line above)


@pytest.fixture(autouse=True, scope="module")
def toggle_guard():
    before = oracle_matrix.snapshot_toggles()
    yield
    after = oracle_matrix.snapshot_toggles()
    for axis, value in zip(oracle_matrix.TOGGLE_AXES, before):
        oracle_matrix.set_knob(axis, value)
    assert after == before, (
        f"a test leaked execution toggles: {before} -> {after}")
