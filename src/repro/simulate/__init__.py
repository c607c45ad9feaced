"""Deterministic discrete-event simulation kernel (system S1).

This package is the foundation of the reproduction: simulated MPI ranks,
replicas and the intra-parallelization runtime are all generator-based
:class:`~repro.simulate.engine.Process` coroutines advancing a shared
virtual clock.

The event queue is a single heap-based loop, :meth:`Simulator.run`;
``Simulator(fast=False)`` keeps the un-inlined seed-equivalent loop as
the reference the tests compare it against.
"""

from .engine import Process, Simulator
from .errors import (DeadlockError, NotProcessError, ProcessKilled,
                     SimulationError, StaleEventError, UnhandledFailure)
from .events import AllOf, AnyOf, ConditionError, Event, Timeout
from .resources import Resource, Store


def get_engine_backend() -> str:
    """The name of the engine executing the event queue: always
    ``"python"`` (recorded as run provenance by callers that predate
    the single engine loop)."""
    return "python"


__all__ = [
    "AllOf", "AnyOf", "ConditionError", "DeadlockError", "Event",
    "NotProcessError", "Process", "ProcessKilled", "Resource",
    "SimulationError", "Simulator", "StaleEventError", "Store",
    "Timeout", "UnhandledFailure", "get_engine_backend",
]
