"""Fixtures for intra-parallelization tests."""

import numpy as np
import pytest

from repro.mpi import MpiWorld
from repro.netmodel import Cluster, MachineSpec, NetworkSpec
from repro.simulate import engine


@pytest.fixture
def machine():
    return MachineSpec(name="t", cores_per_node=4, flop_rate=1e9,
                       mem_bandwidth=4e9, copy_bandwidth=1e9)


@pytest.fixture
def netspec():
    return NetworkSpec(bandwidth=1e9, latency=1e-6, o_send=0.0, o_recv=0.0,
                       o_nic=0.0, half_duplex=False,
                       intranode_bandwidth=4e9, intranode_latency=0.0)


@pytest.fixture
def make_world(machine, netspec):
    def _make(n_nodes=8):
        return MpiWorld(Cluster(n_nodes, machine), netspec)

    return _make


@pytest.fixture
def toggle_batching(monkeypatch):
    """``toggle(batched)`` selects batched sections (``fast=True``) or
    the task-by-task oracle (``fast=False``, the seed reference paths)
    for every world built afterwards; the default returns after the
    test."""
    def toggle(batched):
        monkeypatch.setattr(engine, "FAST_DEFAULT", batched)

    return toggle


def waxpby_task(alpha, x, beta, y, w):
    """The paper's running example kernel (Figure 4)."""
    np.multiply(x, alpha, out=w)
    w += beta * y


def waxpby_cost(alpha, x, beta, y, w):
    n = x.size
    return (3.0 * n, 24.0 * n)
