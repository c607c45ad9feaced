"""In-memory spans and counters recorded around calls into repro's layers.

Nothing in ``src/`` knows about this module.  ``layers.install`` replaces
selected public functions and methods with thin wrappers that record a
span (name, start, end, parent, point id) or bump a counter, and
:meth:`Patches.restore` puts every original back.  A module-level
function is replaced in *every* ``repro.*`` module that bound it, so a
caller that did ``from repro.kernels import spmv_rows`` is traced too;
the per-wrapper call counts returned by :meth:`Patches.calls` let the
benchmark prove that each wrapper actually fired.

A span's self time is its duration minus the durations of its direct
children (spans are strictly nested per thread).
"""

from __future__ import annotations

import array
import functools
import json
import pathlib
import sys
import threading
import time
import typing as _t

import numpy as np

Clock = _t.Callable[[], float]


class Tracer:
    """Spans and counters, safe to share between threads."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self.names: _t.List[str] = []
        self._name_ids: _t.Dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.point = array.array("i")
        self.counters: _t.Dict[str, float] = {}
        #: the point id stamped on spans begun from now on (-1: none)
        self.current_point = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> _t.List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.point.append(self.current_point)
            self.end.append(0.0)
            self.start.append(self.clock())
        stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        t = self.clock()
        self.end[idx] = t
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def arrays(self) -> _t.Dict[str, np.ndarray]:
        with self._lock:
            return {"name_id": np.frombuffer(self.name_id, np.int32).copy(),
                    "start": np.frombuffer(self.start, np.float64).copy(),
                    "end": np.frombuffer(self.end, np.float64).copy(),
                    "parent": np.frombuffer(self.parent, np.int32).copy(),
                    "point": np.frombuffer(self.point, np.int32).copy()}

    def summary(self) -> _t.Dict[str, _t.Any]:
        """Per-name ``count``/``incl_s``/``self_s`` plus the counters."""
        a = self.arrays()
        return {"spans": summarize_spans(self.names, a["name_id"],
                                         a["start"], a["end"],
                                         a["parent"]),
                "counters": dict(self.counters)}

    def write(self, path: pathlib.Path) -> None:
        """The summary as JSON at ``path`` and the raw spans beside it
        (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"),
                            names=np.array(self.names), **self.arrays())
        path.write_text(json.dumps(self.summary(), sort_keys=True))


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct
    children."""
    dur = end - start
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def summarize_spans(names: _t.Sequence[str], name_id: np.ndarray,
                    start: np.ndarray, end: np.ndarray,
                    parent: np.ndarray) -> _t.Dict[str, _t.Dict[str, float]]:
    """``{name: {count, incl_s, self_s}}``.  ``incl_s`` sums the spans
    whose parent has another name, so a directly recursive call is not
    counted twice."""
    dur = end - start
    own = self_times(start, end, parent)
    has = parent >= 0
    same = np.zeros(len(dur), dtype=bool)
    same[has] = name_id[parent[has]] == name_id[has]
    out: _t.Dict[str, _t.Dict[str, float]] = {}
    for nid, name in enumerate(names):
        sel = name_id == nid
        out[name] = {"count": int(sel.sum()),
                     "incl_s": float(dur[sel & ~same].sum()),
                     "self_s": float(own[sel].sum())}
    return out


def merge_summaries(parts: _t.Iterable[_t.Mapping[str, _t.Any]]
                    ) -> _t.Dict[str, _t.Any]:
    """Add the summaries of several processes together."""
    spans: _t.Dict[str, _t.Dict[str, float]] = {}
    counters: _t.Dict[str, float] = {}
    for part in parts:
        for name, row in part.get("spans", {}).items():
            acc = spans.setdefault(name, {"count": 0, "incl_s": 0.0,
                                          "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, n in part.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + n
    return {"spans": spans, "counters": counters}


# ------------------------------------------------------------- wrappers
# Every wrapper carries ``calls``, a one-element list it increments on
# each call, so that the benchmark can tell which wrappers fired.
def span_wrapper(tracer: Tracer, name: str,
                 fn: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
    calls = [0]

    @functools.wraps(fn)
    def traced(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
        calls[0] += 1
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
    traced.calls = calls  # type: ignore[attr-defined]
    return traced


def count_wrapper(tracer: Tracer, name: str, fn: _t.Callable[..., _t.Any],
                  size: _t.Optional[_t.Tuple[str, int, str]] = None
                  ) -> _t.Callable[..., _t.Any]:
    """Count calls under ``name``; ``size=(counter, position, keyword)``
    also adds the numeric argument found there (e.g. a message's byte
    count)."""
    calls = [0]

    @functools.wraps(fn)
    def counted(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
        calls[0] += 1
        tracer.count(name)
        if size is not None:
            counter, pos, kw = size
            tracer.count(counter, kwargs[kw] if kw in kwargs else args[pos])
        return fn(*args, **kwargs)
    counted.calls = calls  # type: ignore[attr-defined]
    return counted


Gen = _t.Generator[_t.Any, _t.Any, _t.Any]


def generator_wrapper(tracer: Tracer, name: str,
                      fn: _t.Callable[..., Gen]) -> _t.Callable[..., Gen]:
    """Count calls of a generator function and record one span per
    resume of each generator it returns (the simulated process's time
    slices spent inside it)."""
    calls = [0]

    @functools.wraps(fn)
    def traced(*args: _t.Any, **kwargs: _t.Any) -> Gen:
        calls[0] += 1
        tracer.count(name + ".calls")
        gen = fn(*args, **kwargs)
        value: _t.Any = None
        error: _t.Optional[BaseException] = None
        # the yielded event travels through a list so that this frame
        # holds no reference to it while suspended (the engine recycles
        # events nobody else references)
        box: _t.List[_t.Any] = []
        while True:
            idx = tracer.begin(name)
            try:
                if error is None:
                    box.append(gen.send(value))
                else:
                    err, error = error, None
                    box.append(gen.throw(err))
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.finish(idx)
            try:
                value = yield box.pop()
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the inner generator
                value, error = None, exc
    traced.calls = calls  # type: ignore[attr-defined]
    return traced


Wrap = _t.Callable[[_t.Callable[..., _t.Any]], _t.Callable[..., _t.Any]]


# ------------------------------------------------------------ patching
class Patches:
    """Installed wrappers and how to undo them."""

    def __init__(self) -> None:
        #: (owner, attribute, original) in installation order
        self._undo: _t.List[_t.Tuple[_t.Any, str, _t.Any]] = []
        #: installed object → original
        self.wrappers: _t.Dict[_t.Any, _t.Any] = {}
        #: label → the wrapper's call cell
        self._calls: _t.Dict[str, _t.List[int]] = {}

    def _set(self, owner: _t.Any, attr: str, value: _t.Any) -> None:
        # vars(), not getattr(): a class method must come back as the
        # classmethod object, not as a method bound to the class
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, module: _t.Any, attr: str, wrap: Wrap,
                 label: str) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module
        that bound the same function object."""
        orig = getattr(module, attr)
        wrapper = wrap(orig)
        self.wrappers[wrapper] = orig
        self._calls[label] = wrapper.calls  # type: ignore[attr-defined]
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def method(self, cls: type, attr: str, wrap: Wrap, label: str) -> None:
        """Replace a method defined on ``cls`` (class methods and static
        methods stay what they were)."""
        orig = cls.__dict__[attr]
        if isinstance(orig, (classmethod, staticmethod)):
            inner = wrap(orig.__func__)
            installed: _t.Any = type(orig)(inner)
        else:
            inner = installed = wrap(orig)
        self.wrappers[installed] = orig
        self._calls[label] = inner.calls  # type: ignore[attr-defined]
        self._set(cls, attr, installed)

    def calls(self) -> _t.Dict[str, int]:
        """Calls recorded per installed wrapper label."""
        return {label: cell[0] for label, cell in self._calls.items()}

    def restore(self) -> None:
        """Put every original back, including bindings that modules
        imported after installation copied from a patched module."""
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                try:
                    orig = self.wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if orig is not None:
                    setattr(mod, key, orig)

    def leftovers(self) -> _t.List[str]:
        """``module.attr`` / ``Class.attr`` names still bound to a
        wrapper (empty after a complete :meth:`restore`)."""
        found = []
        for mod in _repro_modules():
            name = mod.__name__
            for key, value in list(vars(mod).items()):
                objs = [(f"{name}.{key}", value)]
                if isinstance(value, type):
                    objs += [(f"{name}.{key}.{k}", v)
                             for k, v in vars(value).items()]
                for label, obj in objs:
                    try:
                        if obj in self.wrappers:
                            found.append(label)
                    except TypeError:
                        continue
        return sorted(set(found))


def _repro_modules() -> _t.List[_t.Any]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "repro" or name.startswith("repro."))]
