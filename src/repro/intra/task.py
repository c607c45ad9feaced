"""Task model of intra-parallelization (paper §III-B, Definitions 1–2).

A *section* is a block of computation with no message passing whose
enclosing replicas are consistent on entry and exit.  A *task* is a unit
of work inside a section, executed by exactly one replica, whose output
("update") is shipped to the sibling replicas.  The only inter-task
dependence allowed is input dependence, so tasks of one section can run
in any order on any replica (Definition 2) — which is what makes failure
recovery by re-execution possible.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

import numpy as np


class Tag(enum.Enum):
    """Argument intent, as in ``Intra_Task_register`` (§III-C).

    * ``IN`` — read only; never transferred.
    * ``OUT`` — written (every element) by the task; transferred to the
      sibling replicas after execution.
    * ``INOUT`` — read and written; transferred, *and* protected by an
      extra copy against the true-dependence hazard of re-execution
      (§III-B2, Figure 2).
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"


class CopyStrategy(enum.Enum):
    """Where the `inout` protection copy is taken (§III-B2 discusses the
    first two as equal-cost alternatives; ``LAZY`` is what Algorithm 1
    implements).

    * ``LAZY`` — receivers copy `inout` variables when they start
      receiving a task's updates (Algorithm 1, lines 37–38); the
      re-executor restores from that copy (lines 30–31).
    * ``EAGER`` — every replica copies `inout` variables at task
      instantiation (the §III-C API description).
    * ``ATOMIC`` — no copies; receivers buffer a task's update and apply
      it only once complete, so variables are never partially written.
    * ``NONE`` — no protection at all: deliberately reproduces the
      *incorrect* execution of Figure 2b (for tests/demonstration only).
    """

    LAZY = "lazy"
    EAGER = "eager"
    ATOMIC = "atomic"
    NONE = "none"


#: cost callback: (vars...) -> (flops, bytes_moved)
CostFn = _t.Callable[..., _t.Tuple[float, float]]


def zero_cost(*_vars: _t.Any) -> _t.Tuple[float, float]:
    """Default cost model: free computation (protocol-only tests)."""
    return (0.0, 0.0)


@dataclasses.dataclass
class TaskDef:
    """A registered task type (``Intra_Task_register``)."""

    id: int
    fn: _t.Callable[..., _t.Any]
    tags: _t.List[Tag]
    cost: CostFn = zero_cost
    #: indices of arguments transferred after execution (non-IN);
    #: derived from ``tags`` once — the runtime reads this per task per
    #: section, so recomputing it per access showed up in profiles
    update_args: _t.Tuple[int, ...] = dataclasses.field(init=False)
    #: indices of arguments needing re-execution protection
    inout_args: _t.Tuple[int, ...] = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise TypeError("task function must be callable")
        if not self.tags:
            raise ValueError("task needs at least one argument tag")
        self.update_args = tuple(i for i, t in enumerate(self.tags)
                                 if t is not Tag.IN)
        self.inout_args = tuple(i for i, t in enumerate(self.tags)
                                if t is Tag.INOUT)


@dataclasses.dataclass
class LaunchedTask:
    """A task instance within the current section
    (``Intra_Task_launch``)."""

    index: int                       #: launch order within the section
    tdef: TaskDef
    vars: _t.List[_t.Any]
    executor: int = -1               #: replica id assigned by the scheduler
    #: protection copies of inout variables, by argument index
    copies: _t.Dict[int, np.ndarray] = dataclasses.field(default_factory=dict)
    #: argument indices whose update has been applied locally
    applied: _t.Set[int] = dataclasses.field(default_factory=set)
    #: buffered updates awaiting atomic application (ATOMIC strategy)
    buffered: _t.Dict[int, np.ndarray] = dataclasses.field(
        default_factory=dict)
    #: True once this replica holds the task's complete post-state
    done: bool = False
    #: True if this replica executed the task itself
    executed_locally: bool = False

    def __post_init__(self) -> None:
        if len(self.vars) != len(self.tdef.tags):
            raise ValueError(
                f"task {self.tdef.id}: {len(self.vars)} vars for "
                f"{len(self.tdef.tags)} declared tags")
        for i in self.tdef.update_args:
            if not isinstance(self.vars[i], np.ndarray):
                raise TypeError(
                    f"task {self.tdef.id} arg {i}: OUT/INOUT arguments "
                    f"must be numpy arrays (got "
                    f"{type(self.vars[i]).__name__}); wrap scalars in a "
                    f"1-element array")

    @property
    def update_nbytes(self) -> int:
        """Total size of this task's update messages."""
        return sum(int(self.vars[i].nbytes) for i in self.tdef.update_args)

    def restore_nbytes(self) -> int:
        """Bytes :meth:`restore_copies` *would* restore — the side-effect
        free probe batched section execution uses to plan a stretch's
        memcpy segments before any restore has actually run."""
        return sum(int(s.nbytes) for s in self.copies.values())

    def take_copies(self, arg_indices: _t.Iterable[int]) -> int:
        """Snapshot the given arguments into :attr:`copies` (no-op for
        args already copied).  Returns bytes copied."""
        copied = 0
        for i in arg_indices:
            if i not in self.copies:
                self.copies[i] = np.array(self.vars[i], copy=True)
                copied += int(self.copies[i].nbytes)
        return copied

    def restore_copies(self) -> int:
        """Restore inout arguments from their protection copies before a
        (re-)execution (Algorithm 1, lines 30–31).  Returns bytes
        restored."""
        restored = 0
        for i, snapshot in self.copies.items():
            np.copyto(self.vars[i], snapshot)
            restored += int(snapshot.nbytes)
        return restored
