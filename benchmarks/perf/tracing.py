"""Span recording for the benchmark's traced runs.

A traced run wraps public functions and methods of ``repro`` at their module
or class attribute (see ``PROBES``), so every call records one span: name,
start, end, thread, and the span that was open on the same thread when the
call began.  Nothing under ``src/`` changes.  Spans stay in memory and are
written once, when the run ends, as Chrome trace JSON that Perfetto opens.

Every process stamps spans with ``time.monotonic_ns`` (``CLOCK_MONOTONIC``,
one clock for the whole machine), so the benchmark and its fleet host merge
into one timeline without clock correction.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

clock_ns = time.monotonic_ns

#: (module, attribute path, span name) of every call a traced run times.
#: A class method is wrapped in each class that defines it; a function is
#: wrapped at the module attribute its callers read at call time.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.grouping.features", "OpFeatureExtractor.__init__", "grouping.features"),
    ("repro.grouping.pretrain", "warm_start_assignment", "grouping.partition"),
    ("repro.grouping.pretrain", "pretrain_grouper", "grouping.pretrain"),
    ("repro.core.eagle", "EagleAgent.sample_placements", "core.sample"),
    ("repro.core.post", "PostAgent.sample_placements", "core.sample"),
    ("repro.core.eagle", "EagleAgent.log_prob_and_entropy", "rl.forward"),
    ("repro.core.post", "PostAgent.log_prob_and_entropy", "rl.forward"),
    ("repro.core.engine", "compute_advantages", "rl.advantage"),
    ("repro.rl.algorithms", "PPO.update", "rl.update"),
    ("repro.rl.algorithms", "PPOWithCrossEntropy.update", "rl.update"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.rl.algorithms", "clip_grad_norm", "nn.optim"),
    ("repro.nn.optim", "Adam.step", "nn.optim"),
    ("repro.sim.backends", "MemoBackend.evaluate_batch", "sim.evaluate"),
    ("repro.service.client", "RemoteBackend.evaluate_batch", "sim.evaluate"),
    ("repro.sim.backends", "MemoBackend.lookup", "sim.memo_lookup"),
    ("repro.sim.simulator", "Simulator.simulate", "sim.simulate"),
    ("repro.service.protocol", "decode_placement", "service.protocol.decode"),
    ("repro.service.protocol", "write_message", "service.protocol.write"),
    ("repro.service.protocol", "read_message", "service.protocol.read"),
)


class Span:
    __slots__ = ("id", "parent", "name", "tid", "start", "end", "args")

    def __init__(self, id: int, parent: Optional[int], name: str, tid: int, start: int) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.tid = tid
        self.start = start
        self.end = start
        self.args: Optional[Dict[str, Any]] = None

    def to_dict(self, pid: int) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "pid": pid,
            "tid": self.tid,
            "start": self.start,
            "end": self.end,
            "args": self.args or {},
        }


class SpanRecorder:
    """In-memory span buffer with a per-thread stack of open spans.

    Ids are unique within a process; merged traces qualify them by pid.
    """

    def __init__(self, process: str) -> None:
        self.process = process
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(next(self._ids), parent, name, threading.get_ident(), clock_ns())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = clock_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield opened
        finally:
            self.end(opened)

    def record(self, name: str, start: int, end: int) -> None:
        """A closed interval measured elsewhere (e.g. a queue wait)."""
        parent = self.current()
        span = Span(next(self._ids), parent.id if parent else None, name,
                    threading.get_ident(), start)
        span.end = end
        self.spans.append(span)

    def dump(self) -> List[Dict[str, Any]]:
        return [span.to_dict(self.pid) for span in self.spans]


# --------------------------------------------------------------------------- #
# Wrappers


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def traced(recorder: SpanRecorder, name: str, fn: Callable,
           annotate: Optional[Callable[[Any], Dict[str, Any]]] = None) -> Callable:
    """``fn`` recording one span per call.

    A call made while a span of the same name is open on this thread (a
    subclass method calling ``super()``) records no second span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        current = recorder.current()
        if current is not None and current.name == name:
            return fn(*args, **kwargs)
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if annotate is not None:
            span.args = annotate(result)
        return result

    return wrapper


def _message_op(message: Any) -> Dict[str, Any]:
    """A message's op and, for a batch request, its placements' length,
    which tells the tenants apart."""
    if not isinstance(message, dict):
        return {}
    args = {"op": message.get("op")}
    if message.get("placements"):
        args["ops"] = len(message["placements"][0])
    return args


def _queued_submit_many(recorder: SpanRecorder, submit_many: Callable) -> Callable:
    """``WorkerPool.submit_many`` whose tasks record their queue wait.

    The wait runs from admission to the moment a worker starts the task;
    the task itself becomes a ``service.pool.task`` span on the worker.
    """

    def stamped(fn: Callable, submitted: int) -> Callable:
        def task(*args):
            recorder.record("service.pool.queue_wait", submitted, clock_ns())
            with recorder.span("service.pool.task"):
                return fn(*args)

        return task

    @functools.wraps(submit_many)
    def wrapper(self, calls: Sequence[Tuple]):
        submitted = clock_ns()
        return submit_many(self, [(stamped(call[0], submitted),) + tuple(call[1:])
                                  for call in calls])

    return wrapper


class Probes:
    """Installs the ``PROBES`` wrappers; :meth:`remove` restores the originals."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []
        try:
            for module, path, name in PROBES:
                owner, attr = _resolve(module, path)
                annotate = _message_op if name == "service.protocol.read" else None
                self._patch(owner, attr, traced(recorder, name, getattr(owner, attr), annotate))
            pool, attr = _resolve("repro.service.pool", "WorkerPool.submit_many")
            self._patch(pool, attr, _queued_submit_many(recorder, getattr(pool, attr)))
        except BaseException:
            self.remove()
            raise

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# Analysis


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[Tuple[int, int], int]:
    """Each span's duration minus the part of it its child spans cover.

    Keys are ``(pid, id)``; times in nanoseconds.
    """
    children: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(span)
    out: Dict[Tuple[int, int], int] = {}
    for span in spans:
        key = (span["pid"], span["id"])
        covered = 0
        edge = span["start"]
        for child in sorted(children.get(key, ()), key=lambda s: s["start"]):
            lo = max(child["start"], edge, span["start"])
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
            edge = max(edge, hi)
        out[key] = span["end"] - span["start"] - covered
    return out


def chrome_trace(spans: Sequence[Dict[str, Any]], process_names: Dict[int, str]) -> Dict[str, Any]:
    """Chrome trace JSON (complete ``X`` events, microseconds) of ``spans``.

    Each event's args carry its span id, its parent's id and its self time.
    """
    selfs = self_times(spans)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": name}}
        for pid, name in sorted(process_names.items())
    ]
    for span in sorted(spans, key=lambda s: (s["start"], -s["end"])):
        key = (span["pid"], span["id"])
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "pid": span["pid"],
            "tid": span["tid"],
            "ts": span["start"] / 1e3,
            "dur": (span["end"] - span["start"]) / 1e3,
            "args": {
                "id": f"{span['pid']}:{span['id']}",
                "parent": None if span["parent"] is None else f"{span['pid']}:{span['parent']}",
                "self_us": selfs[key] / 1e3,
                **span["args"],
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[Dict[str, Any]],
                       process_names: Dict[int, str]) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans, process_names), fh)
