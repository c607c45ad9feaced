"""Percentile and self-time arithmetic on synthetic data."""

import itertools

import numpy as np
import pytest

import layers
import probe
import stats
import tracing


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 100) == 5.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)
    assert stats.percentile(xs, 90) == pytest.approx(np.percentile(xs, 90))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_tail_keeps_ten_samples_beyond_it():
    assert stats.tail_q(1000, 99) == 99           # 10 beyond p99
    assert stats.tail_q(240, 95) == 95            # 12 beyond p95
    assert stats.tail_q(30, 95) == pytest.approx(100 * 20 / 30)
    assert stats.beyond(30, stats.tail_q(30, 95)) == pytest.approx(10)
    assert stats.tail_q(999, 99) < 99
    with pytest.raises(ValueError):
        stats.tail_q(19, 50)


def test_summarize_reports_count_and_tail():
    s = stats.summarize([float(i) for i in range(1, 101)], 95)
    assert s["n"] == 100 and s["tail_q"] == pytest.approx(90)
    assert s["p50"] == pytest.approx(50.5)
    assert s["tail"] == pytest.approx(90.1)


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] ⊃ mid [1, 7] ⊃ inner [2, 5]; sibling [8, 9]
    tr = tracing.Tracer(clock=_clock([0, 1, 2, 5, 7, 8, 9, 10]))
    outer = tr.begin("outer")
    mid = tr.begin("mid")
    inner = tr.begin("inner")
    tr.finish(inner)
    tr.finish(mid)
    sib = tr.begin("inner")
    tr.finish(sib)
    tr.finish(outer)
    s = tr.summary()["spans"]
    assert s["outer"] == {"count": 1, "incl_s": 10.0, "self_s": 3.0}
    assert s["mid"] == {"count": 1, "incl_s": 6.0, "self_s": 3.0}
    assert s["inner"] == {"count": 2, "incl_s": 4.0, "self_s": 4.0}


def test_directly_recursive_spans_count_once_inclusive():
    tr = tracing.Tracer(clock=_clock([0, 1, 3, 4]))
    a = tr.begin("f")
    b = tr.begin("f")
    tr.finish(b)
    tr.finish(a)
    s = tr.summary()["spans"]["f"]
    assert s["incl_s"] == 4.0          # not 4 + 2
    assert s["self_s"] == 4.0          # 2 (outer) + 2 (inner)


def test_point_ids_and_parents_are_recorded():
    tr = tracing.Tracer(clock=_clock(itertools.count()))
    tr.current_point = 7
    a = tr.begin("a")
    b = tr.begin("b")
    tr.finish(b)
    tr.finish(a)
    arrs = tr.arrays()
    assert arrs["parent"].tolist() == [-1, 0]
    assert arrs["point"].tolist() == [7, 7]


def test_merge_adds_spans_and_counters():
    part = {"spans": {"x": {"count": 1, "incl_s": 2.0, "self_s": 1.0}},
            "counters": {"n": 3}}
    merged = tracing.merge_summaries([part, part])
    assert merged["spans"]["x"] == {"count": 2, "incl_s": 4.0,
                                    "self_s": 2.0}
    assert merged["counters"] == {"n": 6}


def test_per_layer_reports_every_metric_and_rejects_unknown():
    metrics = layers.per_layer(
        {"spans": {"simulate.run": {"count": 2, "incl_s": 5.0,
                                    "self_s": 3.0}},
         "counters": {"mpi.messages": 4}},
        {"trace.overhead_s": 0.5})
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["simulate.run_s"] == 5.0
    assert metrics["simulate.self_s"] == 3.0
    assert metrics["mpi.messages"] == 4.0
    assert metrics["trace.overhead_s"] == 0.5
    with pytest.raises(KeyError):
        layers.per_layer({}, {"nope": 1.0})


def test_reference_gaps_use_the_probes_around_each_operation(monkeypatch):
    monkeypatch.setattr(probe, "probe", lambda: probe.REFERENCE_S)
    meter = probe.Meter()
    meter.gaps = [1.0, 2.0, 3.0]
    ref = probe.REFERENCE_S
    meter.probes = [(0, ref), (2, 2 * ref), (3, ref)]
    # operations 1 and 2 sit between the first two probes (mean 1.5x
    # slower than reference), operation 3 between the last two
    assert meter.reference_gaps() == pytest.approx([1 / 1.5, 2 / 1.5,
                                                    3 / 1.5])


def test_meter_probes_after_slow_operations_and_at_close(monkeypatch):
    monkeypatch.setattr(probe, "probe", lambda: probe.REFERENCE_S)
    meter = probe.Meter(every=0.0)
    meter.mark()
    meter.mark()
    meter.close()
    assert [k for k, _ in meter.probes] == [0, 1, 2]
    assert meter.reference_gaps() == pytest.approx(meter.gaps)
    lazy = probe.Meter(every=3600.0)
    lazy.mark()
    lazy.close()
    assert [k for k, _ in lazy.probes] == [0, 1]
