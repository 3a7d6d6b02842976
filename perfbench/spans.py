"""Spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span of the same thread, or -1.  Spans live in per-thread
lists in memory and are written out once, when the process ends
(:meth:`Recorder.dump`).  Times come from ``time.perf_counter``, which
on Linux reads ``CLOCK_MONOTONIC`` and so is comparable across the
runner, the daemon and its pool workers.

:func:`instrument` replaces a fixed set of public functions of the
program with wrappers that record a span per call; nothing under
``src/`` is edited.  Each span name maps to the layer (module) that
does the work, via :data:`LAYERS`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from functools import wraps
from typing import Dict, List, Tuple

#: First dotted part of a span name -> the layer doing the work.
LAYERS = {
    "ir": "repro.ir",
    "interp": "repro.interp",
    "trace": "repro.trace",
    "compact": "repro.compact",
    "corpus": "repro.corpus",
    "server": "repro.store.server",
    "store": "repro.store.store",
    "qserve": "repro.compact.qserve",
    "analysis": "repro.analysis",
    "pool": "repro.parallel",
    "shm": "repro.parallel",
}

#: Layers of the waterfall, as metric prefixes (``<prefix>.self_share``).
WATERFALL = (
    ("ir", "repro.ir"),
    ("interp", "repro.interp"),
    ("trace", "repro.trace"),
    ("compact", "repro.compact"),
    ("corpus", "repro.corpus"),
    ("server", "repro.store.server"),
    ("store", "repro.store.store"),
    ("qserve", "repro.compact.qserve"),
    ("analysis", "repro.analysis"),
    ("pool", "repro.parallel"),
)


def layer_of(name: str) -> str:
    return LAYERS.get(name.split(".", 1)[0], "benchmark")


class Recorder:
    """Per-thread span lists of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[list]] = []

    def reset(self) -> None:
        """Forget every span (a forked child drops its parent's); the
        lock is replaced too, since another thread may have held it at
        the fork."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _spans(self) -> Tuple[List[list], List[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def begin(self, name: str) -> int:
        spans, stack = self._spans()
        index = len(spans)
        spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int, name: str = "") -> None:
        spans, stack = self._spans()
        span = spans[index]
        span[2] = time.perf_counter()
        if name:
            span[0] = name
        stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A finished root span (for work that does not nest, such as
        requests in flight on several connections at once)."""
        spans, _stack = self._spans()
        spans.append([name, start, end, -1])

    def snapshot(self) -> List[List[list]]:
        with self._lock:
            return [list(spans) for spans in self._threads]

    def dump(self, path: str, role: str) -> None:
        doc = {"role": role, "pid": os.getpid(), "threads": self.snapshot()}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def _wrap(recorder: Recorder, owner, attr: str, name: str) -> None:
    original = getattr(owner, attr)

    @wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.end(index)

    setattr(owner, attr, wrapper)


def instrument(recorder: Recorder, on_worker_exit=None) -> None:
    """Install span wrappers on the layers' public entry points.

    Module-level functions are replaced where their callers look them
    up (``repro.api`` binds ``partition_wpp``/``compact_wpp``/
    ``write_twpp`` at import; the others are resolved at call time).
    ``on_worker_exit(recorder)`` runs when a pool worker process ends,
    so forked workers can write their own spans.
    """
    from repro import api
    from repro.analysis import frequency
    from repro.compact.qserve import QueryEngine
    from repro.corpus import TraceCorpus
    from repro.interp import compile as interp_compile
    from repro.ir import parser
    from repro.parallel import pool, shm
    from repro.store import server
    from repro.store.store import TraceStore

    _wrap(recorder, parser, "parse_program", "ir.parse")
    _wrap(recorder, api.Session, "trace", "interp.trace")
    _wrap(recorder, interp_compile, "compiled_for", "interp.compile")
    _wrap(recorder, api, "partition_wpp", "trace.partition")
    _wrap(recorder, api, "compact_wpp", "compact.compact")
    _wrap(recorder, api, "write_twpp", "compact.write")
    _wrap(recorder, TraceCorpus, "ingest", "corpus.ingest")
    _wrap(recorder, TraceCorpus, "diff", "corpus.diff")
    _wrap(recorder, server, "canonical_json", "server.encode")
    _wrap(recorder, TraceStore, "query", "store.query")
    _wrap(recorder, TraceStore, "analyze", "store.analyze")
    _wrap(recorder, frequency, "fact_frequencies", "analysis.frequency")
    _wrap(recorder, pool.WorkerPool, "run", "pool.run")

    traces = QueryEngine.traces

    @wraps(traces)
    def engine_traces(self, name):
        # A call that missed the engine's cache decodes; tell the two
        # apart by the cache's own miss count.
        misses = self.cache_stats()["misses"]
        index = recorder.begin("qserve.traces")
        try:
            return traces(self, name)
        finally:
            missed = self.cache_stats()["misses"] != misses
            recorder.end(index, "qserve.decode" if missed else "")

    QueryEngine.traces = engine_traces

    shm_get = shm.ShmReader.get

    @wraps(shm_get)
    def shm_lookup(self, key):
        index = recorder.begin("shm.get")
        payload = None
        try:
            payload = shm_get(self, key)
            return payload
        finally:
            recorder.end(index, "shm.hit" if payload is not None else "shm.miss")

    shm.ShmReader.get = shm_lookup

    execute = pool._WorkerState.execute

    @wraps(execute)
    def worker_execute(self, item):
        index = recorder.begin(f"pool.item.{item[0]}")
        try:
            return execute(self, item)
        finally:
            recorder.end(index)

    pool._WorkerState.execute = worker_execute

    worker_main = pool._worker_main

    @wraps(worker_main)
    def worker_entry(*args, **kwargs):
        recorder.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            if on_worker_exit is not None:
                on_worker_exit(recorder)

    pool._worker_main = worker_entry


# ---------------------------------------------------------------------------
# analysis of recorded spans


def load_dumps(directory: str) -> List[Dict]:
    """Every span file written under ``directory``."""
    docs = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as fh:
                docs.append(json.load(fh))
    return docs


def flatten(docs: List[Dict], t0: float, t1: float) -> List[Dict]:
    """Spans that start inside ``[t0, t1)``, each with its self time.

    Self time is the span's duration minus the part of it that its
    child spans (same process, same thread) cover.  Children of one
    parent never overlap, so the covered part is their summed duration.
    """
    out = []
    for doc in docs:
        for spans in doc["threads"]:
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0 and end:
                    child_time[parent] += end - start
            for index, (name, start, end, parent) in enumerate(spans):
                if not end or not t0 <= start < t1:
                    continue
                out.append({
                    "name": name,
                    "role": doc["role"],
                    "ms": (end - start) * 1000.0,
                    "self_ms": (end - start - child_time[index]) * 1000.0,
                    "root": parent < 0,
                })
    return out


def waterfall(spans: List[Dict], budget_ms: float) -> Dict[str, float]:
    """Each layer's self time as a share of ``budget_ms``.

    ``budget_ms`` is the load generator's closed-loop time: the summed
    duration of its request (or run) spans.  A span whose waiting
    parent lives in another process cannot be joined to it yet (no
    request id crosses the wire), so the parent layer's self time is
    reduced by that child's total instead, floored at zero:

    * daemon root spans are inside the client's requests, so the HTTP
      front end's self time is the requests' time minus the daemon's
      root spans (encode and store verbs);
    * pool worker items are inside the daemon span that waits on them:
      ``WorkerPool.run`` for analyze items, the store query for the
      cold decodes it submits.

    Pool workers run side by side, so on a pooled workload the shares
    can sum to more than 1.
    """
    self_ms: Dict[Tuple[str, str], float] = {}
    for span in spans:
        key = (span["role"], layer_of(span["name"]))
        self_ms[key] = self_ms.get(key, 0.0) + span["self_ms"]

    def total(role, prefix="", roots_only=False):
        return sum(
            s["ms"] for s in spans
            if s["role"] == role and s["name"].startswith(prefix)
            and (s["root"] or not roots_only)
        )

    for kind, layer in (("analyze", "repro.parallel"),
                        ("traces", "repro.store.store")):
        key = ("server", layer)
        if key in self_ms:
            waited = total("worker", f"pool.item.{kind}")
            self_ms[key] = max(0.0, self_ms[key] - waited)
    requests = total("client", "client.request")
    if requests:
        self_ms[("client", "repro.store.server")] = max(
            0.0, requests - total("server", roots_only=True)
        )
    by_layer: Dict[str, float] = {}
    for (_role, layer), ms in self_ms.items():
        by_layer[layer] = by_layer.get(layer, 0.0) + ms
    return {
        prefix: (by_layer.get(layer, 0.0) / budget_ms if budget_ms else 0.0)
        for prefix, layer in WATERFALL
    }
