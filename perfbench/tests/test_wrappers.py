"""Wrapper installation and restoration on the real repro modules."""

import sys

import pytest

import layers
import tracing


def _repro_bindings():
    """Every function/method object bound in a loaded repro module."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type):
                for k, v in vars(value).items():
                    out[(name, key, k)] = v
    return out


@pytest.mark.parametrize("profile", layers.PROFILES)
def test_install_then_restore_leaves_no_wrapper(profile):
    import repro.experiments  # noqa: F401
    before = _repro_bindings()
    patches = layers.install(tracing.Tracer(), profile)
    assert patches.wrappers
    patches.restore()
    assert patches.leftovers() == []
    after = _repro_bindings()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []


def test_names_bound_by_from_import_are_patched():
    import repro.apps.common as common
    import repro.kernels.blas as blas
    orig = blas.ddot_partial
    assert common.ddot_partial is orig     # bound by `from ... import`
    patches = layers.install(tracing.Tracer(), "sweep")
    try:
        assert common.ddot_partial is not orig
        assert blas.ddot_partial is common.ddot_partial
    finally:
        patches.restore()
    assert common.ddot_partial is orig


def test_classmethods_stay_classmethods():
    from repro.results import RunResult
    orig = RunResult.__dict__["from_json"]
    patches = layers.install(tracing.Tracer(), "client")
    try:
        assert isinstance(RunResult.__dict__["from_json"], classmethod)
    finally:
        patches.restore()
    assert RunResult.__dict__["from_json"] is orig


def test_traced_run_gives_identical_results_and_fires_wrappers():
    import repro
    tracer = tracing.Tracer()
    name = "grid:failures/kind=cascade,seed=3,fd=5e-05"
    plain = repro.run(name, cache=False)
    patches = layers.install(tracer, "sweep")
    try:
        traced = repro.run(name, cache=False)
    finally:
        patches.restore()
    assert traced.to_json() == plain.to_json()
    calls = patches.calls()
    assert calls["simulate.run:MpiWorld.run"] == 1
    assert calls["kernels.ddot_partial"] > 0
    assert calls["apps.kernel_ddot"] > 0
    spans = tracer.summary()["spans"]
    assert spans["simulate.run"]["incl_s"] >= spans["simulate.run"]["self_s"]


def _echo():
    got = yield "first"
    try:
        got = yield f"got {got}"
    except KeyError as exc:
        got = yield f"caught {exc.args[0]}"
    return f"done {got}"


def test_generator_wrapper_forwards_send_throw_and_return():
    tracer = tracing.Tracer()
    gen = tracing.generator_wrapper(tracer, "g", _echo)()
    assert next(gen) == "first"
    assert gen.send(1) == "got 1"
    assert gen.throw(KeyError("k")) == "caught k"
    with pytest.raises(StopIteration) as stop:
        gen.send(2)
    assert stop.value.value == "done 2"
    assert tracer.counters["g.calls"] == 1
    assert tracer.summary()["spans"]["g"]["count"] == 4


def test_generator_wrapper_closes_inner_generator():
    closed = []

    def body():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = tracing.generator_wrapper(tracing.Tracer(), "g", body)()
    next(gen)
    gen.close()
    assert closed == [True]


def test_silent_wrapper_detection():
    calls = {"kernels.spmv_rows": 0, "kernels.apply_7pt": 0,
             "kernels.waxpby": 3}
    assert layers.silent_wrappers("paper-figures", calls) == [
        "kernels.spmv_rows"]
