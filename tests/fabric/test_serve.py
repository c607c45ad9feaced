"""The result service and its client: warm 200s, cold 202s, honest
404s, lossless RunResult JSON."""

import json
import threading
import urllib.error
import urllib.request
import warnings

import pytest

import repro
from repro.apps.hpccg import KernelBenchConfig
from repro.fabric import Fabric
from repro.fabric.client import (FabricClient, FabricServiceError,
                                 FabricTimeout)
from repro.fabric.serve import make_server
from repro.scenarios import Scenario

TINY = Scenario(app="hpccg_kernels",
                config=KernelBenchConfig(nx=8, ny=8, nz=8, reps=1),
                n_logical=2, mode="native")
NAME = "example:hpccg:intra"


@pytest.fixture
def served(tmp_path):
    fab = Fabric(tmp_path, backend="sqlite", poll=0.01)
    server = make_server(fab)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = FabricClient(server.url, poll=0.01, timeout=10.0)
    yield fab, server, client
    server.shutdown()
    server.server_close()
    fab.close()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


def test_healthz(served):
    fab, server, client = served
    assert client.healthz()
    status, body = _get(f"{server.url}/healthz")
    assert (status, body["status"]) == (200, "ok")


def test_unknown_route_404s(served):
    _, server, _ = served
    status, body = _get(f"{server.url}/nope")
    assert status == 404
    assert "/result/<cache_key>" in body["routes"]


def test_unknown_key_404_with_hint(served):
    _, _, client = served
    with pytest.raises(FabricServiceError) as err:
        client.result("0" * 64)
    assert err.value.status == 404
    assert "scenario" in err.value.payload["hint"]


def test_unknown_scenario_404_with_suggestions(served):
    _, _, client = served
    with pytest.raises(FabricServiceError) as err:
        client.run("example:hpccg:intr")
    assert err.value.status == 404
    assert NAME in err.value.payload["suggestions"]


def test_cold_scenario_202_enqueues(served):
    fab, server, client = served
    assert client.run(NAME, wait=False) is None          # 202 pending
    assert fab.queue.stats().ready == 1                  # enqueued
    status, body = _get(f"{server.url}/scenario/{NAME}")
    assert status == 202
    assert body["status"] == "pending"
    assert len(body["cache_key"]) == 64


def test_warm_request_serves_lossless_run_result(served, tmp_path):
    fab, _, client = served
    client.run(NAME, wait=False)                         # enqueue
    fab.drain()                                          # compute inline
    result = client.run(NAME, wait=False)
    assert result is not None
    assert result.cache_hit is True
    # lossless: equals a local run of the same scenario, aside from
    # cache provenance
    local = repro.run(NAME, cache=True, cache_dir=tmp_path / "ref")
    assert result.wall_time == local.wall_time
    assert result.value == local.value
    assert result.scenario == local.scenario
    assert result.cache_key == local.cache_key


def test_result_by_key_roundtrip(served):
    fab, _, client = served
    key = fab.record_scenario(TINY)
    assert client.result(key) is None                    # known, cold
    fab.drain()                                          # 202 enqueued it
    result = client.result(key)
    assert result is not None and result.cache_key == key


def test_wait_polls_until_worker_finishes(served):
    fab, _, client = served
    done = threading.Event()

    def worker():
        from repro.fabric.worker import run_worker
        run_worker(fab, idle_exit=2.0)
        done.set()

    threading.Thread(target=worker, daemon=True).start()
    result = client.run(NAME, wait=True, wait_timeout=30.0)
    assert result is not None and result.ok
    done.wait(10.0)


def test_wait_timeout_raises(served):
    _, _, client = served                                # no workers
    with pytest.raises(FabricTimeout):
        client.run(NAME, wait=True, wait_timeout=0.05)


def test_client_sweep_orders_like_input(served):
    from repro.fabric.worker import run_worker
    fab, _, client = served
    names = ["example:hpccg:intra", "example:hpccg:native"]
    threading.Thread(target=run_worker,
                     kwargs=dict(fabric=fab, idle_exit=2.0),
                     daemon=True).start()
    results = client.sweep(names, wait_timeout=30.0)
    assert [r.scenario.mode for r in results] == ["intra", "native"]


def test_stats_counts_hits_and_misses(served):
    fab, _, client = served
    client.run(NAME, wait=False)       # miss
    fab.drain()
    client.run(NAME, wait=False)       # hit
    stats = client.stats()
    assert stats["hits"] >= 1 and stats["misses"] >= 1
    assert stats["queue"]["done"] == 1
    assert stats["store"]["entries"] == 1


@pytest.mark.parametrize("backend", ["file", "sqlite"])
def test_corrupt_entry_202s_quietly_and_leaves_warning_filters(backend,
                                                               tmp_path):
    """A corrupt entry is quarantined and served as a miss (202 +
    recompute).  The handler thread neither warns nor edits the
    process-wide warning filters, which are not thread-safe."""
    fab = Fabric(tmp_path, backend=backend, poll=0.01)
    key = fab.enqueue_scenario(TINY)
    fab.drain()
    fab.store.put(key, b"\x80rotten")
    server = make_server(fab)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before = list(warnings.filters)
            status, body = _get(f"{server.url}/result/{key}")
            assert list(warnings.filters) == before
        assert caught == []
        assert (status, body["status"]) == (202, "pending")
        assert fab.store.stats().corrupt == 1            # quarantined
        assert fab.queue.get(key).state == "ready"       # re-enqueued
        _, stats = _get(f"{server.url}/stats")
        assert (stats["hits"], stats["misses"]) == (0, 1)
    finally:
        server.shutdown()
        server.server_close()
        fab.close()
