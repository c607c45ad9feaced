"""Interconnect model (system S3).

A LogGP-flavoured point-to-point model with explicit NIC contention:

* ``o_send`` / ``o_recv`` — CPU-side per-message overheads (charged to the
  calling process, not the NIC),
* per-NIC DMA engines — a message of ``size`` bytes occupies the sender's
  transmit engine for ``o_nic + size / bandwidth`` seconds; NICs are FIFO
  :class:`~repro.simulate.resources.Resource` objects so concurrent
  messages from the same node serialize (this is what exposes the waxpby
  update-transfer bottleneck of Figure 5a),
* ``latency`` — wire/switch traversal, optionally distance-dependent
  (``latency + hop_latency * hops``), used by the replica-placement
  ablation of §VI,
* optional half-duplex mode — transmit and receive share one DMA engine,
  matching the effective behaviour of the paper's IB 20G DDR HCAs under
  simultaneous bidirectional update exchange.

Intra-node transfers bypass the NIC and are charged at memory-copy
bandwidth with a small latency.

Two implementations of one transport
------------------------------------
:meth:`Network.transfer` is the hot path: a callback state machine.
Each call creates one ``_Transfer`` event that walks the stages
tx FIFO → tx hold → wire → rx FIFO → rx hold by re-enqueueing itself,
running one method per stage, and reports through the ``on_injected``
/ ``on_arrived`` callbacks.  No process and no generator is involved.

:meth:`Network.transfer_steps` is the seed's process sub-routine
(``yield from``), kept verbatim as the reference.  The two follow one
contract, *same enqueue points*: the state machine puts an entry on
the simulator heap at exactly the program points where the generator
does (a grant, a ``yield sim.timeout(...)``), at the same ``now +
delay`` float time and in the same order, so same-time ties break the
same way and a simulation cannot tell them apart.  While it waits in a
NIC's FIFO the ``_Transfer`` is itself the pending request event,
so :meth:`Resource.release`'s grant and dead-waiter sweep treat both
paths alike.  :class:`repro.mpi.MpiWorld` picks the state machine
unless the simulator runs its reference loop (``fast=False``) or has a
trace hook installed; ``tests/netmodel/test_network.py`` runs every
transport case on both.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..simulate import Resource, Simulator
from ..simulate.events import _PENDING, Event


@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    """Parameters of the interconnect.

    Attributes
    ----------
    bandwidth:
        Effective per-NIC point-to-point bandwidth, bytes/s.
    latency:
        Base one-way wire+switch latency, seconds.
    hop_latency:
        Additional latency per topological hop (0 disables the
        distance-dependent component).
    o_send / o_recv:
        CPU-side injection/extraction overhead per message, seconds.
    o_nic:
        Per-message NIC setup cost, seconds (charged to the DMA engine).
    half_duplex:
        If True, one DMA engine handles both directions (tx and rx of one
        node serialize); if False, tx and rx are independent engines.
    intranode_bandwidth:
        Bytes/s for same-node (shared-memory) transfers.
    intranode_latency:
        One-way latency of a same-node transfer, seconds.
    """

    bandwidth: float
    latency: float
    hop_latency: float = 0.0
    o_send: float = 0.5e-6
    o_recv: float = 0.5e-6
    o_nic: float = 0.3e-6
    half_duplex: bool = True
    intranode_bandwidth: float = 3e9
    intranode_latency: float = 0.3e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.intranode_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if min(self.latency, self.hop_latency, self.o_send, self.o_recv,
               self.o_nic, self.intranode_latency) < 0:
            raise ValueError("latencies/overheads must be non-negative")

    def wire_latency(self, hops: int) -> float:
        """One-way latency across ``hops`` topological hops."""
        if hops < 0:
            raise ValueError("hops must be non-negative")
        return self.latency + self.hop_latency * hops

    def serialization_time(self, nbytes: float) -> float:
        """Time the DMA engine is occupied pushing ``nbytes`` on the wire."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.o_nic + nbytes / self.bandwidth

    def message_time(self, nbytes: float, hops: int = 1) -> float:
        """Analytic end-to-end time of an uncontended message (no queueing).

        The transport is store-and-forward (the message occupies the
        sender's and then the receiver's DMA engine), so serialization is
        paid twice.  For symmetric sustained exchanges the aggregate
        throughput is still ``bandwidth`` per direction; store-and-forward
        only adds per-message pipeline delay.  The DES computes the same
        quantity dynamically with queueing.
        """
        return (self.o_send + 2 * self.serialization_time(nbytes)
                + self.wire_latency(hops) + self.o_recv)


class NIC:
    """The DMA engines of one node.

    ``tx`` and ``rx`` are FIFO resources.  In half-duplex mode they are the
    *same* resource, so simultaneous send and receive serialize — the
    operating point that makes large bidirectional update exchanges (e.g.
    intra-parallelized waxpby) expensive, as the paper observes.
    """

    def __init__(self, sim: Simulator, spec: NetworkSpec, node_id: int):
        self.spec = spec
        self.node_id = node_id
        self.tx = Resource(sim, capacity=1, name=f"nic{node_id}.tx")
        self.rx = self.tx if spec.half_duplex else Resource(
            sim, capacity=1, name=f"nic{node_id}.rx")


class _Transfer(Event):
    """One message in flight on the callback transport.

    Created by :meth:`Network.transfer`; each stage method runs when the
    event fires and re-arms it for the next stage (see the module
    docstring for the contract with :meth:`Network.transfer_steps`).
    Kernel and model code never wait on it: its single waiter slot holds
    the next stage.
    """

    __slots__ = ("net", "src", "dst", "ser", "on_injected", "on_arrived")

    def __init__(self, net: "Network", src_node: int, dst_node: int,
                 nbytes: float,
                 on_injected: _t.Optional[_t.Callable[[], None]],
                 on_arrived: _t.Optional[_t.Callable[[], None]]):
        super().__init__(net.sim)
        self.net = net
        self.src = src_node
        self.dst = dst_node
        self.on_injected = on_injected
        self.on_arrived = on_arrived
        spec = net.spec
        if src_node == dst_node:
            # Shared-memory path: one copy through the cache hierarchy.
            if on_injected is not None:
                on_injected()
            self._rearm(spec.intranode_latency
                        + nbytes / spec.intranode_bandwidth, self._arrived)
            return
        self.ser = spec.serialization_time(nbytes)
        self._queue_on(net.nics[src_node].tx, self._tx_granted)

    def _queue_on(self, resource: Resource,
                  stage: _t.Callable[[Event], None]) -> None:
        # a pending event with a waiter: release() grants it in FIFO order
        self._state = _PENDING
        self._waiter = stage
        resource._request(self)

    # Sender DMA engine pushes the message onto the wire.
    def _tx_granted(self, _ev: Event) -> None:
        self._rearm(self.ser, self._tx_done)

    def _tx_done(self, _ev: Event) -> None:
        net = self.net
        net.nics[self.src].tx.release()
        if self.on_injected is not None:
            self.on_injected()
        # Wire/switch traversal.
        self._rearm(net.spec.wire_latency(net.hops(self.src, self.dst)),
                    self._wire_done)

    # Receiver DMA engine drains the message into memory.
    def _wire_done(self, _ev: Event) -> None:
        self._queue_on(self.net.nics[self.dst].rx, self._rx_granted)

    def _rx_granted(self, _ev: Event) -> None:
        self._rearm(self.ser, self._rx_done)

    def _rx_done(self, _ev: Event) -> None:
        self.net.nics[self.dst].rx.release()
        self._arrived(self)

    def _arrived(self, _ev: Event) -> None:
        # Drop the callbacks first: they are usually bound methods of an
        # object that holds this transfer, and breaking that cycle lets
        # refcounting free the message (and its payload) right away.
        on_arrived = self.on_arrived
        self.on_injected = self.on_arrived = None
        if on_arrived is not None:
            on_arrived()

    def retract(self) -> None:
        """Withdraw a message the sender's NIC has not injected yet, as a
        kill of the reference sub-routine does: the pending stage is
        dropped, and a granted tx engine (grant enqueued, or mid
        serialization) is released now, like :meth:`Resource.hold`'s
        ``finally``.  A message still queued for the engine has no
        waiter left, so :meth:`Resource.release` skips it."""
        self._waiter = None
        if self.triggered:
            self.net.nics[self.src].tx.release()


class Network:
    """Connects node NICs and moves payloads between them.

    :class:`repro.mpi` moves each message with one call to
    :meth:`transfer` (the callback state machine) or, on the reference
    path, with the process sub-routine :meth:`transfer_steps`.
    """

    def __init__(self, sim: Simulator, spec: NetworkSpec, n_nodes: int,
                 hop_fn: _t.Optional[_t.Callable[[int, int], int]] = None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.spec = spec
        self.nics = [NIC(sim, spec, i) for i in range(n_nodes)]
        #: hop-count function; defaults to a single switch crossing.
        self._hop_fn = hop_fn or (lambda a, b: 1)
        #: counters for reporting / tests
        self.bytes_sent = 0
        self.messages_sent = 0

    @property
    def n_nodes(self) -> int:
        return len(self.nics)

    def hops(self, src_node: int, dst_node: int) -> int:
        """Topological distance between two nodes."""
        if src_node == dst_node:
            return 0
        return self._hop_fn(src_node, dst_node)

    def transfer(self, src_node: int, dst_node: int, nbytes: float,
                 on_injected: _t.Optional[_t.Callable[[], None]] = None,
                 on_arrived: _t.Optional[_t.Callable[[], None]] = None,
                 ) -> _Transfer:
        """Start moving ``nbytes`` from ``src_node`` to ``dst_node``.

        Callback form of :meth:`transfer_steps`, with the same stages and
        the same enqueue points: the arguments are validated and the
        counters bumped now, and ``on_injected`` / ``on_arrived`` are
        called when the sender's DMA engine releases the message onto
        the wire and when its last byte is deposited at the destination.
        Returns the in-flight ``_Transfer`` (its ``retract()`` is the
        sender-crash path).
        """
        if not (0 <= src_node < self.n_nodes and 0 <= dst_node < self.n_nodes):
            raise ValueError(
                f"node ids out of range: {src_node}->{dst_node} "
                f"(cluster has {self.n_nodes} nodes)")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_sent += nbytes
        self.messages_sent += 1
        return _Transfer(self, src_node, dst_node, nbytes, on_injected,
                        on_arrived)

    def transfer_steps(self, src_node: int, dst_node: int, nbytes: float,
                       on_injected: _t.Optional[_t.Callable[[], None]] = None):
        """Move ``nbytes`` from ``src_node`` to ``dst_node``.

        The reference transport (see the module docstring).  Process
        sub-routine: ``yield from net.transfer_steps(...)`` returns when
        the last byte has been deposited at the destination.  Sender-side
        DMA, wire latency and receiver-side DMA are modelled explicitly;
        both DMA stages are FIFO-contended.

        ``on_injected``, if given, is called the moment the sender's DMA
        engine releases the message onto the wire — the point at which a
        blocking ``MPI_Send`` returns (buffer reusable) and past which a
        sender crash can no longer retract the message.
        """
        if not (0 <= src_node < self.n_nodes and 0 <= dst_node < self.n_nodes):
            raise ValueError(
                f"node ids out of range: {src_node}->{dst_node} "
                f"(cluster has {self.n_nodes} nodes)")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if src_node == dst_node:
            # Shared-memory path: one copy through the cache hierarchy.
            if on_injected is not None:
                on_injected()
            yield self.sim.timeout(
                self.spec.intranode_latency
                + nbytes / self.spec.intranode_bandwidth)
            return
        ser = self.spec.serialization_time(nbytes)
        # Sender DMA engine pushes the message onto the wire.
        yield from self.nics[src_node].tx.hold(ser)
        if on_injected is not None:
            on_injected()
        # Wire/switch traversal.
        yield self.sim.timeout(
            self.spec.wire_latency(self.hops(src_node, dst_node)))
        # Receiver DMA engine drains the message into memory.
        yield from self.nics[dst_node].rx.hold(ser)
