"""Tests for the LogGP-style network model with NIC contention.

Every transport case runs on both implementations: the callback state
machine ``Network.transfer`` (driven through ``on_arrived``) and the
reference process sub-routine ``Network.transfer_steps``.
"""

import pytest

from repro.netmodel import Network, NetworkSpec
from repro.simulate import Simulator


def start_callback(net, sim, src, dst, nbytes):
    """Start a callback transfer; the returned event fires with the
    arrival time."""
    done = sim.event()
    net.transfer(src, dst, nbytes, on_arrived=lambda: done.succeed(sim.now))
    return done


def start_steps(net, sim, src, dst, nbytes):
    """Start a reference transfer in its own process, which returns the
    arrival time."""
    def body(sim):
        yield from net.transfer_steps(src, dst, nbytes)
        return sim.now

    return sim.process(body(sim))


#: every transport case below runs on both implementations
TRANSPORTS = (start_callback, start_steps)


def make_spec(**kw):
    base = dict(bandwidth=100e6, latency=1e-3, hop_latency=0.0, o_send=0.0,
                o_recv=0.0, o_nic=0.0, half_duplex=False,
                intranode_bandwidth=1e9, intranode_latency=0.0)
    base.update(kw)
    return NetworkSpec(**base)


def test_single_message_time():
    for run_transfer in TRANSPORTS:
        sim = Simulator()
        net = Network(sim, make_spec(), n_nodes=2)
        # Store-and-forward: 1 MB at 100 MB/s = 10 ms tx serialization,
        # 1 ms wire, 10 ms rx drain.
        p = run_transfer(net, sim, 0, 1, 1e6)
        sim.run()
        assert p.value == pytest.approx(0.021)


def test_analytic_message_time_matches_des():
    for run_transfer in TRANSPORTS:
        spec = make_spec(o_send=2e-6, o_recv=3e-6, o_nic=1e-6)
        sim = Simulator()
        net = Network(sim, spec, n_nodes=2)
        p = run_transfer(net, sim, 0, 1, 1e6)
        sim.run()
        # DES path excludes the CPU-side o_send/o_recv (charged by the MPI
        # layer), so analytic = DES + o_send + o_recv.
        assert spec.message_time(1e6) == pytest.approx(
            p.value + spec.o_send + spec.o_recv)


def test_sustained_exchange_throughput_is_bandwidth():
    # Symmetric bulk exchange with non-blocking sends (each transfer is
    # in flight on its own, like MPI isend): despite store-and-forward,
    # each direction sustains the full link bandwidth, and the exchange
    # pipelines to ~ (k+1) serialization slots.
    for run_transfer in TRANSPORTS:
        sim = Simulator()
        net = Network(sim, make_spec(latency=0.0), n_nodes=2)
        k, size = 10, 1e6
        procs = [run_transfer(net, sim, 0, 1, size) for _ in range(k)]
        procs += [run_transfer(net, sim, 1, 0, size) for _ in range(k)]
        sim.run()
        assert max(p.value for p in procs) == pytest.approx((k + 1) * 0.01)


def test_tx_contention_serializes_messages():
    for run_transfer in TRANSPORTS:
        sim = Simulator()
        net = Network(sim, make_spec(), n_nodes=3)
        # Two 1 MB messages leaving node 0 concurrently: second tx waits.
        p1 = run_transfer(net, sim, 0, 1, 1e6)
        p2 = run_transfer(net, sim, 0, 2, 1e6)
        sim.run()
        assert p1.value == pytest.approx(0.021)
        assert p2.value == pytest.approx(0.031)  # 10 ms queued behind p1's tx


def test_rx_contention_serializes_messages():
    for run_transfer in TRANSPORTS:
        sim = Simulator()
        net = Network(sim, make_spec(), n_nodes=3)
        p1 = run_transfer(net, sim, 1, 0, 1e6)
        p2 = run_transfer(net, sim, 2, 0, 1e6)
        sim.run()
        times = sorted([p1.value, p2.value])
        assert times[0] == pytest.approx(0.021)
        assert times[1] == pytest.approx(0.031)


def test_full_duplex_tx_rx_do_not_interfere():
    for run_transfer in TRANSPORTS:
        sim = Simulator()
        net = Network(sim, make_spec(half_duplex=False), n_nodes=2)
        p1 = run_transfer(net, sim, 0, 1, 1e6)
        p2 = run_transfer(net, sim, 1, 0, 1e6)
        sim.run()
        assert p1.value == pytest.approx(0.021)
        assert p2.value == pytest.approx(0.021)


def test_half_duplex_tx_rx_share_engine():
    # Under sustained bidirectional load, a half-duplex NIC serializes
    # transmit and receive, roughly doubling the exchange time.
    for run_transfer in TRANSPORTS:
        def total_time(half_duplex):
            sim = Simulator()
            net = Network(sim, make_spec(half_duplex=half_duplex, latency=0.0),
                          n_nodes=2)
            k, size = 5, 1e6
            procs = [run_transfer(net, sim, 0, 1, size) for _ in range(k)]
            procs += [run_transfer(net, sim, 1, 0, size) for _ in range(k)]
            sim.run()
            return max(p.value for p in procs)

        full = total_time(False)
        half = total_time(True)
        assert half > 1.5 * full
        # structural check: the resources actually alias
        sim = Simulator()
        net = Network(sim, make_spec(half_duplex=True), n_nodes=2)
        assert net.nics[0].rx is net.nics[0].tx
        net = Network(sim, make_spec(half_duplex=False), n_nodes=2)
        assert net.nics[0].rx is not net.nics[0].tx


def test_intranode_transfer_bypasses_nic():
    for run_transfer in TRANSPORTS:
        sim = Simulator()
        net = Network(sim, make_spec(), n_nodes=2)
        p = run_transfer(net, sim, 0, 0, 1e6)
        sim.run()
        # 1 MB at 1 GB/s intranode = 1 ms, no wire latency.
        assert p.value == pytest.approx(1e-3)
        # NIC untouched
        assert net.nics[0].tx.in_use == 0


def test_hop_latency():
    for run_transfer in TRANSPORTS:
        spec = make_spec(hop_latency=1e-3)
        sim = Simulator()
        net = Network(sim, spec, n_nodes=5, hop_fn=lambda a, b: abs(a - b))
        p = run_transfer(net, sim, 0, 4, 0.0)
        sim.run()
        # zero bytes: pure latency = 1 ms base + 4 hops * 1 ms
        assert p.value == pytest.approx(5e-3)


def test_zero_byte_message_still_pays_latency():
    for run_transfer in TRANSPORTS:
        sim = Simulator()
        net = Network(sim, make_spec(), n_nodes=2)
        p = run_transfer(net, sim, 0, 1, 0.0)
        sim.run()
        assert p.value == pytest.approx(1e-3)


def test_counters():
    for run_transfer in TRANSPORTS:
        sim = Simulator()
        net = Network(sim, make_spec(), n_nodes=2)
        run_transfer(net, sim, 0, 1, 5000.0)
        run_transfer(net, sim, 1, 0, 7000.0)
        sim.run()
        assert net.bytes_sent == 12000.0
        assert net.messages_sent == 2


def test_invalid_nodes_rejected():
    for run_transfer in TRANSPORTS:
        for src, dst, nbytes in ((0, 5, 10), (-1, 0, 10), (0, 1, -1)):
            sim = Simulator()
            net = Network(sim, make_spec(), n_nodes=2)
            with pytest.raises(ValueError):
                run_transfer(net, sim, src, dst, nbytes)
                sim.run()
            # rejected before anything was counted
            assert net.messages_sent == 0 and net.bytes_sent == 0


def test_callback_transfer_validates_at_call_time():
    sim = Simulator()
    net = Network(sim, make_spec(), n_nodes=2)
    with pytest.raises(ValueError):
        net.transfer(0, 5, 10)
    net.transfer(0, 1, 10)
    # counters bump at the call, before any event is processed
    assert (net.messages_sent, net.bytes_sent) == (1, 10)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(bandwidth=0)
    with pytest.raises(ValueError):
        make_spec(latency=-1)


def test_transports_enqueue_at_the_same_points():
    """The contract between the two transports: the same heap entries,
    enqueued in the same order, at the same times.  The reference's
    process start bounces and completion events are the only entries
    the state machine leaves out."""
    from repro.netmodel.network import _Transfer
    from repro.simulate import Process

    grants = ("_tx_granted", "_rx_granted")

    def kind(ev):
        if isinstance(ev, _Transfer):
            return "grant" if ev._waiter.__name__ in grants else "timer"
        if isinstance(ev, Process) or ev.label.startswith("start:"):
            return None
        if ev.label.startswith("request:"):
            return "grant"
        return ev.label or "timer"

    msgs = [(0, 1, 4000.0), (1, 0, 2500.0), (0, 2, 0.0), (2, 0, 4000.0),
            (0, 1, 1000.0), (2, 2, 3000.0), (1, 2, 500.0), (0, 0, 0.0),
            (2, 1, 4000.0), (0, 1, 4000.0)]

    def enqueues(start):
        sim = Simulator()
        net = Network(sim, make_spec(half_duplex=True, o_nic=1e-6,
                                     latency=1e-4), n_nodes=3)
        log = []
        real = sim._enqueue

        def enqueue(ev, delay):
            k = kind(ev)
            if k is not None:
                log.append((sim.now, sim.now + delay, k))
            real(ev, delay)

        sim._enqueue = enqueue

        def marker(label):
            return lambda: sim.event(label=label).succeed()

        start(sim, net, msgs, marker)
        sim.run()
        return log

    def callback(sim, net, msgs, marker):
        for i, (src, dst, nbytes) in enumerate(msgs):
            net.transfer(src, dst, nbytes, on_injected=marker(f"inj{i}"),
                         on_arrived=marker(f"arr{i}"))

    def steps(sim, net, msgs, marker):
        def body(i, src, dst, nbytes):
            yield from net.transfer_steps(src, dst, nbytes,
                                          on_injected=marker(f"inj{i}"))
            marker(f"arr{i}")()

        for i, m in enumerate(msgs):
            sim.process(body(i, *m))

    got = enqueues(callback)
    assert got == enqueues(steps)
    assert sum(k == "grant" for _n, _t, k in got) == 2 * 8   # inter-node
