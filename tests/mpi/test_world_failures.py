"""World-level crash semantics: message retraction at the injection
boundary, endpoint kill, death notification.

Layering contract documented here: the (perfect) failure detector fails
*pending* receives from a dead peer immediately — even if a message from
that peer is still in flight.  An in-flight message that was already
injected still arrives and sits in the unexpected queue, so a raw-MPI
caller can re-post and consume it; the replication layer's receive loop
does exactly that (plus replay for the retracted ones).
"""

import numpy as np
import pytest

from repro.mpi import MpiWorld, RankFailure, launch_job
from repro.netmodel import Cluster, MachineSpec, NetworkSpec, Slot

MACHINE = MachineSpec(name="t", cores_per_node=4, flop_rate=1e9,
                      mem_bandwidth=4e9)
# 1 MB/s network: transfers are slow enough to observe in-flight state
NETSPEC = NetworkSpec(bandwidth=1e6, latency=1e-3, half_duplex=False)


def run_crash_scenario(payloads, kill_time):
    """Sender posts ``payloads`` then idles; killed at ``kill_time``.
    Receiver drains what it can, observing RankFailures, and returns
    the list of received payload descriptions."""
    world = MpiWorld(Cluster(2, MACHINE), NETSPEC)

    def program(ctx, comm):
        if comm.rank == 0:
            for p in payloads:
                comm.isend(p, dest=1)
            yield ctx.sleep(10.0)
            return None
        got = []
        for _ in payloads:
            try:
                item = yield from comm.recv(source=0)
            except RankFailure:
                # re-post once: an injected-but-in-flight message may
                # still arrive after the failure notification
                yield ctx.sleep(0.01)
                req = comm.irecv(source=0)
                if req.complete and not req.failed:
                    got.append(("late", np.size(req.data)))
                else:
                    req.defuse()
                    got.append(("lost", None))
                continue
            got.append(("ok", np.size(item)))
        return got

    job = launch_job(world, program, 2,
                     placement=[Slot(0, 0), Slot(1, 0)])

    def killer():
        yield world.sim.timeout(kill_time)
        world.kill_endpoint(0)
        world.notify_death(0)

    world.sim.process(killer())
    world.run(detect_deadlock=False)
    return job.results()[1]


def test_uninjected_messages_retracted_on_crash():
    """Both messages still queued at the sender's NIC when it dies (the
    100 KB first message needs ~100 ms of tx): nothing ever arrives."""
    got = run_crash_scenario(
        payloads=[np.zeros(12_500), np.zeros(4)], kill_time=0.050)
    assert got == [("lost", None), ("lost", None)]


def test_injected_message_survives_crash():
    """A tiny message is injected within microseconds; killing the
    sender during the wire latency cannot retract it — the paper's
    "update fully sent" case.  The FD verdict still fails the pending
    recv first, so the receiver re-posts and finds the late arrival."""
    got = run_crash_scenario(payloads=["tiny"], kill_time=0.0005)
    assert got == [("late", 1)]


def test_mixed_injected_and_retracted():
    """First (small) message injected before the crash, second (large)
    still serializing: exactly one arrives — a suffix gap, never a
    hole."""
    got = run_crash_scenario(
        payloads=[np.zeros(4), np.zeros(50_000)], kill_time=0.010)
    # the small message was injected (and here even delivered) before
    # the crash; the large one was still serializing and is retracted
    assert got[0] in (("ok", 4), ("late", 4))
    assert got[1] == ("lost", None)


def test_kill_endpoint_idempotent_and_send_from_dead_rejected():
    world = MpiWorld(Cluster(1, MACHINE), NETSPEC)

    def body(ctx, comm):
        yield ctx.sleep(1.0)

    job = launch_job(world, body, 2)
    world.kill_endpoint(0)
    world.kill_endpoint(0)  # no-op
    with pytest.raises(Exception, match="dead endpoint"):
        world.post_send(src=world.endpoints[0], dst_endpoint=1,
                        src_rank=0, tag=0, context=1, payload=None,
                        nbytes=0)
    world.run(detect_deadlock=False)
    assert job.processes[0].killed


def test_notify_death_scoped_to_observers():
    world = MpiWorld(Cluster(1, MACHINE), NETSPEC)

    def body(ctx, comm):
        yield ctx.sleep(1.0)

    launch_job(world, body, 3)
    world.kill_endpoint(0)
    world.notify_death(0, observers=[1])
    assert 0 in world.endpoints[1].known_dead
    assert 0 not in world.endpoints[2].known_dead
    world.run(detect_deadlock=False)


# ------------------------------------------------- kill at each NIC stage
# Sender A (endpoint 1) shares node 0 with a bystander B (endpoint 0);
# both send to R (endpoint 2) on node 1.  At t=0 B posts m1, A posts m2,
# B posts m3, so m2 waits behind m1 for node 0's tx engine and m3 waits
# behind m2.  Both transports must agree on everything a kill of A
# changes, for every stage m2 can be in.
STAGE_SPEC = NetworkSpec(bandwidth=1e6, latency=1e-3, half_duplex=False)
STAGE_BYTES = 1000
SER = STAGE_SPEC.serialization_time(STAGE_BYTES)
T1 = STAGE_SPEC.o_send + SER   # m1 leaves the tx engine; m2 is granted
T2 = T1 + SER                  # m2 injected; m3 granted
STAGES = {
    "queued": T1 / 2,          # m2 still waits behind m1
    "grant_enqueued": T1,      # m2's grant is on the heap, not yet run
    "serializing": T1 + SER / 2,
    "injected": T2 + SER / 2,  # m2 is on the wire: it still arrives
}


def heap_entry_kind(ev):
    """What an enqueued event is, in terms both transports share; None
    for the reference transfer process's own completion or kill event,
    the only entries the state machine leaves out."""
    from repro.mpi.world import _Send
    from repro.netmodel.network import _Transfer
    from repro.simulate import Process
    if isinstance(ev, (_Send, _Transfer)):
        stage = ev._waiter.__name__
        if stage == "_start":
            return "start:xfer"
        return "grant" if stage in ("_tx_granted", "_rx_granted") \
            else "timer"
    if isinstance(ev, Process):
        return None if ev.name.startswith("xfer:") else f"exit:{ev.name}"
    if ev.label.startswith("start:xfer:"):
        return "start:xfer"
    if ev.label.startswith("request:"):
        return "grant"
    return ev.label or "timer"


def run_stage_kill(fast, kill_time):
    from repro.simulate import engine
    prev = engine.FAST_DEFAULT
    engine.FAST_DEFAULT = fast
    try:
        world = MpiWorld(Cluster(2, MACHINE), STAGE_SPEC)
    finally:
        engine.FAST_DEFAULT = prev
    sim = world.sim
    enqueues = []
    real_enqueue = sim._enqueue

    def enqueue(ev, delay):
        kind = heap_entry_kind(ev)
        if kind is not None:
            enqueues.append((sim.now, sim.now + delay, kind))
        real_enqueue(ev, delay)

    sim._enqueue = enqueue
    b, a, r = (world.spawn(Slot(node, core)).endpoint
               for node, core in ((0, 0), (0, 1), (1, 0)))
    delivered = []
    real_deliver = r.deliver

    def deliver(env):
        delivered.append((sim.now, env.payload))
        real_deliver(env)

    r.deliver = deliver
    injected = {}
    for name, src in (("m1", b), ("m2", a), ("m3", b)):
        req = world.post_send(src, r.id, src_rank=0, tag=0, context=1,
                              payload=name, nbytes=STAGE_BYTES)
        req.event.add_callback(lambda ev, n=name: injected.setdefault(
            n, sim.now))
    tx = world.network.nics[0].tx
    nic = {}

    def killer():
        # wake after m1's hold began, so a kill at T1 runs after m1's
        # tx completion and before the grant it enqueued for m2
        yield sim.timeout(T1 / 2)
        yield sim.sleep_until(kill_time)
        nic["before"] = (tx.in_use, tx.queue_length)
        world.kill_endpoint(a.id)
        nic["after"] = (tx.in_use, tx.queue_length)

    sim.process(killer())
    world.run(detect_deadlock=False)
    nic["end"] = (tx.in_use, tx.queue_length)
    return delivered, injected, nic, sim.now, enqueues


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_kill_at_each_nic_stage_matches_reference(stage):
    kill_time = STAGES[stage]
    fast = run_stage_kill(True, kill_time)
    ref = run_stage_kill(False, kill_time)
    # same deliveries, NIC states and heap entries (points, times, order)
    assert repr(fast) == repr(ref)
    delivered, injected, nic, _end, _enqueues = fast
    arrived = [p for _t, p in delivered]
    if stage == "injected":
        assert arrived == ["m1", "m2", "m3"]
        assert injected["m3"] == T2 + SER
    else:
        assert arrived == ["m1", "m3"]
        assert "m2" not in injected
        # m3 gets the engine at the moment m2 gives it up: when m1
        # finishes (m2 was skipped or released at T1), or at the kill
        start = kill_time if stage == "serializing" else T1
        assert injected["m3"] == start + SER
    if stage == "queued":
        # m2's request stays queued, waiter-less, until the sweep
        assert nic["before"] == nic["after"] == (1, 2)
    else:
        assert nic["before"][0] == nic["after"][0] == 1
        assert nic["after"] == (1, 0)
    assert nic["end"] == (0, 0)
