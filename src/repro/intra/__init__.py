"""Intra-parallelization (system S7) — the paper's contribution.

Work sharing between the replicas of a logical MPI process: sections are
split into tasks, each executed by one replica, with results shipped to
siblings so all replicas are consistent at section exit (paper §III)."""

from .api import (Intra_Section_begin, Intra_Section_end,
                  Intra_Task_launch, Intra_Task_register, launch_intra_job,
                  launch_mode, launch_native_job, launch_sdr_job, MODES)
from .runtime import (IntraError, IntraRuntime, IntraRuntimeBase,
                      LocalIntraRuntime, MAX_ARGS)
from .scheduler import (SCHEDULERS, CostBalancedScheduler,
                        RoundRobinScheduler, Scheduler,
                        StaticBlockScheduler, make_scheduler)
from .stats import IntraStats
from .sugar import IN, INOUT, OUT, SectionBuilder, parallel_for, section
from .task import (CopyStrategy, CostFn, LaunchedTask, Tag, TaskDef,
                   zero_cost)

__all__ = [
    "CopyStrategy", "CostBalancedScheduler", "CostFn",
    "Intra_Section_begin", "Intra_Section_end", "Intra_Task_launch",
    "Intra_Task_register", "IntraError", "IntraRuntime",
    "IntraRuntimeBase", "IntraStats", "LaunchedTask", "LocalIntraRuntime",
    "MAX_ARGS", "MODES", "RoundRobinScheduler", "SCHEDULERS", "Scheduler",
    "StaticBlockScheduler", "Tag", "TaskDef", "launch_intra_job",
    "launch_mode", "launch_native_job", "launch_sdr_job",
    "make_scheduler", "zero_cost",
    "IN", "INOUT", "OUT", "SectionBuilder", "parallel_for", "section",
]
