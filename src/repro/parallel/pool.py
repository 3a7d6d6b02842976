"""Persistent self-mapping worker pool for the read/analysis path.

The old process fan-outs (``analysis/parallel.py``) pickled fully
decoded traces into short-lived ``ProcessPoolExecutor`` workers, so
every job paid serialization comparable to the work itself and the
sweeps came out flat.  This pool inverts the data flow:

* **Workers are long-lived** and *self-mapping*: each worker process
  opens its own :class:`~repro.compact.qserve.QueryEngine` per
  ``.twpp`` path (mmap sections are zero-copy per process) and keeps
  it warm across batches, plus parsed-program and parsed-fact caches.
* **Work items are references, not data**: ``(path, function name,
  query spec)`` tuples a few dozen bytes long.  The only payload ever
  shipped *to* a worker is a varint-compact trace for in-memory
  frequency tasks.
* **Results come back compact**: every response is a flat varint
  payload (:mod:`repro.parallel.wire`) the parent bulk-decodes --
  never a pickled decoded-trace or report object graph.
* **Routing is sticky**: items hash ``(path, function)`` to a worker,
  so repeat queries for one function land on the worker whose
  decoded-record cache already holds it.

The parent runs one collector thread that matches results to futures,
notices dead workers, respawns them (re-registering programs and
re-dispatching that worker's in-flight items), and accounts
``pool.*`` metrics: dispatch latency, bytes over the pipe in both
directions, sticky-routing hit rate, respawns.  If worker processes
cannot be created at all (restricted sandboxes), the pool degrades to
an in-process inline engine with identical semantics and records
``pool.fallback``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import queue
import struct
import threading
import time
import zlib
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry
from . import wire
from .shm import ShmCache, ShmReader, shm_key

__all__ = ["WorkerPool", "WorkerCrashed", "program_key"]

#: Exceptions a worker may raise that the parent re-raises as the same
#: type (everything else surfaces as :class:`WorkerCrashed`).
_EXC_TYPES = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "FileNotFoundError": FileNotFoundError,
    "OSError": OSError,
    "IRError": ValueError,
}

#: Minimum per-worker decoded-record cache budget.
_MIN_WORKER_CACHE = 1 << 20


class WorkerCrashed(RuntimeError):
    """A work item could not be completed after worker respawns."""


def program_key(text: str) -> str:
    """Stable registration key for a program's textual IR."""
    return hashlib.sha1(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# worker side


class _WorkerState:
    """Everything one worker keeps warm between items.

    Also used directly (in-process) when the pool falls back to inline
    execution, so both modes execute byte-identical logic.
    """

    def __init__(
        self,
        cache_bytes: int,
        metrics: Optional[MetricsRegistry] = None,
        shm: Optional[ShmReader] = None,
    ):
        self.cache_bytes = cache_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.shm = shm
        self._engines: Dict[str, object] = {}
        self._program_text: Dict[str, str] = {}
        self._programs: Dict[str, object] = {}
        self._facts: Dict[str, object] = {}

    # ---- warm state ---------------------------------------------------

    def engine(self, path: str):
        engine = self._engines.get(path)
        if engine is None:
            from ..compact.qserve import QueryEngine

            engine = QueryEngine(
                path, cache_bytes=self.cache_bytes, metrics=self.metrics
            )
            self._engines[path] = engine
        return engine

    def register_program(self, key: str, text: str) -> None:
        if self._program_text.get(key) != text:
            self._program_text[key] = text
            self._programs.pop(key, None)

    def program(self, key: str):
        prog = self._programs.get(key)
        if prog is None:
            text = self._program_text.get(key)
            if text is None:
                raise KeyError(f"program {key!r} not registered with pool")
            from ..ir.parser import parse_program

            prog = parse_program(text)
            self._programs[key] = prog
        return prog

    def fact(self, spec: str):
        fact = self._facts.get(spec)
        if fact is None:
            from ..analysis.facts import parse_fact

            fact = self._facts[spec] = parse_fact(spec)
        return fact

    def evict(self, path: str) -> None:
        engine = self._engines.pop(path, None)
        if engine is not None:
            engine.close()

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()
        if self.shm is not None:
            self.shm.close()
            self.shm = None

    # ---- shared warm bytes --------------------------------------------

    def traces_list(self, path: str, name: str) -> List:
        """Decoded traces for one function: own engine cache first,
        then the cross-worker shm segment, then a real decode."""
        engine = self.engine(path)
        cached = engine.cached_traces(name)
        if cached is not None:
            return cached
        if self.shm is not None:
            payload = self.shm.get(shm_key(path, name))
            if payload is not None:
                return engine.put_traces(name, wire.decode_traces(payload))
        return engine.traces(name)

    def traces_payload(self, path: str, name: str) -> bytes:
        """Compact wire payload for one function's traces; a shm hit
        returns the shared bytes verbatim (identical by construction)."""
        engine = self.engine(path)
        cached = engine.cached_traces(name)
        if cached is not None:
            return wire.encode_traces(cached)
        if self.shm is not None:
            payload = self.shm.get(shm_key(path, name))
            if payload is not None:
                engine.put_traces(name, wire.decode_traces(payload))
                return payload
        return wire.encode_traces(engine.traces(name))

    # ---- item execution ----------------------------------------------

    def execute(self, item: Tuple):
        kind = item[0]
        if kind == "traces":
            _, path, name = item
            return self.traces_payload(path, name)
        if kind == "traces_many":
            _, path, names = item
            return wire.encode_payloads(
                [self.traces_payload(path, name) for name in names]
            )
        if kind == "corpus_scan":
            _, path = item
            from ..corpus.manifest import encode_digest, scan_file

            return encode_digest(
                scan_file(path, self._engines.get(path), self.metrics)
            )
        if kind == "analyze":
            return self._analyze(item)
        if kind == "freq":
            return self._freq(item)
        if kind == "hotpaths":
            return self._hotpaths(item)
        if kind == "__stats__":
            return self._stats()
        raise ValueError(f"unknown work item kind {kind!r}")

    def _analyze(self, item: Tuple) -> bytes:
        """All frequency reports for one function of one ``.twpp``.

        The worker pulls the function's traces from its *own* engine --
        nothing but the item tuple crossed the pipe -- and builds one
        fresh :class:`~repro.analysis.engine.DemandDrivenEngine` per
        trace, exactly like the serial loop, so reports (including the
        memo-dependent ``queries_issued`` accounting) are identical.
        """
        _, path, prog_key, name, spec = item
        from ..analysis.frequency import fact_frequencies

        func = self.program(prog_key).function(name)
        fact = self.fact(spec)
        traces = self.traces_list(path, name)
        reports = [fact_frequencies(func, trace, fact) for trace in traces]
        return wire.encode_reports(reports)

    def _freq(self, item: Tuple) -> bytes:
        """One in-memory frequency task: the trace itself crossed the
        pipe, but varint-compacted, not pickled."""
        _, prog_key, name, spec, trace_bytes, blocks = item
        from ..analysis.frequency import fact_frequencies

        func = self.program(prog_key).function(name)
        fact = self.fact(spec)
        (trace,) = wire.decode_traces(trace_bytes)
        report = fact_frequencies(
            func, trace, fact, blocks=list(blocks) if blocks is not None else None
        )
        return wire.encode_reports([report])

    def _hotpaths(self, item: Tuple) -> bytes:
        """Acyclic-subpath tallies for one function's DCG weights."""
        _, path, name, pairs_bytes = item
        from ..analysis.hotpaths import acyclic_paths

        weights = wire.decode_pairs(pairs_bytes)
        fc = self.engine(path).extract(name)
        counts: Dict[Tuple[int, ...], int] = {}
        for pair_id, weight in weights.items():
            for sub in acyclic_paths(fc.expand_pair(pair_id)):
                counts[sub] = counts.get(sub, 0) + weight
        return wire.encode_path_counts(counts)

    def _stats(self) -> Dict:
        return {
            "pid": os.getpid(),
            "metrics": self.metrics.to_dict(),
            "caches": {
                path: engine.cache_stats()
                for path, engine in self._engines.items()
            },
            "programs": sorted(self._program_text),
            "shm": None if self.shm is None else self.shm.stats(),
        }


def _worker_main(
    worker_id: int,
    task_q,
    result_q,
    cache_bytes: int,
    shm_name: Optional[str] = None,
) -> None:
    """Entry point of one pool worker process."""
    state = _WorkerState(cache_bytes)
    state.shm = ShmReader.attach(shm_name, metrics=state.metrics)
    while True:
        task_id, item = task_q.get()
        kind = item[0]
        if kind == "__close__":
            break
        if kind == "__exit__":
            # Test/chaos hook: die without cleanup, mid-batch.
            os._exit(17)
        if kind == "__program__":
            state.register_program(item[1], item[2])
            continue
        if kind == "__evict__":
            state.evict(item[1])
            continue
        try:
            payload = state.execute(item)
        except BaseException as exc:
            result_q.put(
                (worker_id, task_id, False, (type(exc).__name__, str(exc)))
            )
        else:
            result_q.put((worker_id, task_id, True, payload))
    state.close()


# ---------------------------------------------------------------------------
# parent side


class _Pending:
    __slots__ = ("item", "worker", "future", "t0", "attempts")

    def __init__(self, item, worker, future, t0):
        self.item = item
        self.worker = worker
        self.future = future
        self.t0 = t0
        self.attempts = 0


class WorkerPool:
    """A fixed-size pool of persistent self-mapping worker processes.

    ``jobs`` workers are forked once and reused for every batch;
    ``cache_bytes`` is the *total* decoded-record budget, split evenly
    across workers (sticky routing keeps the shards disjoint, so the
    split does not duplicate hot records).  ``metrics`` receives the
    ``pool.*`` instruments; pass the owning session's registry to fold
    them into one export.
    """

    def __init__(
        self,
        jobs: int,
        *,
        cache_bytes: int = 64 * 1024 * 1024,
        metrics: Optional[MetricsRegistry] = None,
        max_retries: int = 2,
        shm_bytes: Optional[int] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_retries = max_retries
        self._worker_cache_bytes = max(
            _MIN_WORKER_CACHE, cache_bytes // self.jobs
        )
        self._mlock = threading.Lock()
        self._plock = threading.Lock()
        self._pending: Dict[int, _Pending] = {}
        self._route: Dict[Tuple, int] = {}
        self._programs: Dict[str, str] = {}
        self._next_id = 0
        self._closed = False
        self._inline: Optional[_WorkerState] = None
        self._procs: List = []
        self._task_qs: List = []
        self._shm: Optional[ShmCache] = None
        if shm_bytes is None:
            shm_bytes = cache_bytes
        try:
            ctx = multiprocessing.get_context()
            self._result_q = ctx.Queue()
            if self.jobs > 1 and shm_bytes > 0:
                # Cross-worker warm bytes; None on platforms without
                # usable shared memory (workers then keep private
                # caches only -- same results, more decodes).
                self._shm = ShmCache.create(
                    shm_bytes, metrics=self.metrics, lock=self._mlock
                )
            for i in range(self.jobs):
                self._task_qs.append(ctx.Queue())
                self._procs.append(self._spawn(ctx, i))
        except (OSError, RuntimeError, ImportError, ValueError):
            # No subprocess support here (restricted sandbox): run
            # every item in-process with identical semantics.
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            self._procs, self._task_qs = [], []
            if self._shm is not None:
                self._shm.close()
                self._shm = None
            self._inline = _WorkerState(
                self._worker_cache_bytes, metrics=self.metrics
            )
            self._count("pool.fallback")
        else:
            self._collector = threading.Thread(
                target=self._collect, name="pool-collector", daemon=True
            )
            self._collector.start()
        self._count("pool.workers", self.workers)

    # ---- introspection ------------------------------------------------

    @property
    def workers(self) -> int:
        """Live worker count (1 when inline)."""
        return 1 if self._inline is not None else self.jobs

    @property
    def inline(self) -> bool:
        return self._inline is not None

    def worker_pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    @property
    def shm_enabled(self) -> bool:
        return self._shm is not None

    def shm_stats(self) -> Optional[Dict]:
        """Parent-side view of the shared segment (None when absent)."""
        return None if self._shm is None else self._shm.stats()

    # ---- lifecycle ----------------------------------------------------

    def _spawn(self, ctx, worker_id: int):
        proc = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._task_qs[worker_id],
                self._result_q,
                self._worker_cache_bytes,
                None if self._shm is None else self._shm.name,
            ),
            daemon=True,
            name=f"pool-worker-{worker_id}",
        )
        proc.start()
        return proc

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._inline is not None:
            self._inline.close()
            return
        for task_q in self._task_qs:
            try:
                task_q.put((-1, ("__close__",)))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
        self._collector.join(timeout=2.0)
        if self._shm is not None:
            # After the collector: it is the only shm-appending thread.
            shm, self._shm = self._shm, None
            shm.close()
        with self._plock:
            pending, self._pending = list(self._pending.values()), {}
        for rec in pending:
            if not rec.future.done():
                rec.future.set_exception(WorkerCrashed("pool closed"))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- programs and eviction ---------------------------------------

    def register_program(self, key: str, text: str) -> None:
        """Ship a program's textual IR to every worker, once.

        Task queues are FIFO, so registration is ordered before any
        later item that names the key -- no ack round-trip needed.
        Raises whatever the IR parser raises when the text cannot
        rebuild a valid program (e.g. hand-built programs with
        unreachable blocks that skipped validation) -- callers treat
        that as "not poolable" and stay on the serial path.
        """
        if self._programs.get(key) == text:
            return
        from ..ir.parser import parse_program

        parse_program(text)
        self._programs[key] = text
        if self._inline is not None:
            self._inline.register_program(key, text)
            return
        for task_q in self._task_qs:
            task_q.put((-1, ("__program__", key, text)))

    def evict(self, path: str) -> None:
        """Drop every worker's warm engine for one ``.twpp`` path."""
        path = os.fspath(path)
        if self._inline is not None:
            self._inline.evict(path)
            return
        if self._shm is not None:
            # The shared segment may hold that file's decoded bytes;
            # an epoch bump evicts everything (stale reads are unsafe).
            self._shm.invalidate()
        for task_q in self._task_qs:
            task_q.put((-1, ("__evict__", path)))

    # ---- dispatch -----------------------------------------------------

    @staticmethod
    def _route_key(item: Tuple) -> Optional[Tuple]:
        kind = item[0]
        if kind in ("traces", "analyze", "hotpaths"):
            return (item[1], item[3] if kind == "analyze" else item[2])
        if kind == "freq":
            return (item[1], item[2])
        if kind == "corpus_scan":
            # One whole file per item: spread files across workers.
            return (item[1], "")
        return None

    def route(self, item: Tuple) -> int:
        """The worker an item's function sticks to."""
        key = self._route_key(item)
        if key is None:
            return 0
        digest = zlib.crc32("\x00".join(str(p) for p in key).encode())
        return digest % self.workers

    def submit(self, item: Tuple, worker: Optional[int] = None) -> Future:
        """Enqueue one work item; returns a future for its decoded-side
        payload (compact bytes for query/analysis kinds)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        future: Future = Future()
        route_key = self._route_key(item)
        if worker is None:
            worker = self.route(item)
        if route_key is not None:
            self._account_sticky(route_key, worker)
        self._count("pool.tasks")
        self._observe("pool.item_bytes", len(pickle.dumps(item)))

        if self._inline is not None:
            t0 = time.perf_counter()
            try:
                payload = self._inline.execute(item)
            except BaseException as exc:
                future.set_exception(exc)
            else:
                self._finish_metrics(payload, t0)
                future.set_result(payload)
            return future

        with self._plock:
            task_id = self._next_id
            self._next_id += 1
            self._pending[task_id] = _Pending(
                item, worker, future, time.perf_counter()
            )
        self._task_qs[worker].put((task_id, item))
        return future

    def _account_sticky(self, route_key: Tuple, worker: int) -> None:
        prev = self._route.get(route_key)
        if prev == worker:
            self._count("pool.sticky_hits")
        else:
            self._count("pool.sticky_misses")
            self._route[route_key] = worker

    def run(
        self, items: Sequence[Tuple], workers: Optional[Sequence[int]] = None
    ) -> List:
        """Submit a batch and gather results in item order."""
        futures = [
            self.submit(item, None if workers is None else workers[i])
            for i, item in enumerate(items)
        ]
        return [f.result() for f in futures]

    def traces_many(self, path, names: Sequence[str]) -> Dict[str, List]:
        """Batch trace extraction, grouped one work item per worker.

        Names are sticky-routed individually (so repeat batches hit
        the same worker's warm cache), then each worker's share ships
        as a single ``traces_many`` item -- dispatch cost is one queue
        round-trip per *worker*, not per function.  Returns decoded
        ``{name: traces}`` in input order, byte-identical to
        :meth:`~repro.compact.qserve.QueryEngine.traces_many`.
        """
        path = os.fspath(path)
        groups: Dict[int, List[str]] = {}
        for name in names:
            worker = self.route(("traces", path, name))
            self._account_sticky((path, name), worker)
            groups.setdefault(worker, []).append(name)
        futures = {
            worker: self.submit(
                ("traces_many", path, tuple(group)), worker=worker
            )
            for worker, group in groups.items()
        }
        decoded: Dict[str, List] = {}
        for worker, group in groups.items():
            payloads = wire.decode_payloads(futures[worker].result())
            for name, payload in zip(group, payloads):
                decoded[name] = wire.decode_traces(payload)
        return {name: decoded[name] for name in names}

    def worker_stats(self) -> List[Dict]:
        """One stats document per worker: its metrics registry (the
        per-worker ``qserve.*`` counters) and engine cache stats."""
        if self._inline is not None:
            return [self._inline._stats()]
        futures = [
            self.submit(("__stats__",), worker=i) for i in range(self.jobs)
        ]
        return [f.result() for f in futures]

    # ---- test/chaos hooks ---------------------------------------------

    def inject_crash(self, worker: int) -> None:
        """Make one worker die unceremoniously (``os._exit``) on its
        next dequeue -- the crash-recovery tests drive this."""
        if self._inline is not None:
            return
        self._task_qs[worker].put((-1, ("__exit__",)))

    # ---- collector ----------------------------------------------------

    def _collect(self) -> None:
        while True:
            try:
                worker_id, task_id, ok, payload = self._result_q.get(
                    timeout=0.2
                )
            except queue.Empty:
                if self._closed:
                    return
                self._reap_dead()
                continue
            except (OSError, EOFError, ValueError):
                return
            with self._plock:
                rec = self._pending.pop(task_id, None)
            if rec is None:
                continue  # duplicate after a respawn re-dispatch
            if ok:
                self._finish_metrics(payload, rec.t0)
                self._share(rec.item, payload)
                rec.future.set_result(payload)
            else:
                exc_name, message = payload
                exc_type = _EXC_TYPES.get(exc_name, WorkerCrashed)
                if exc_type is WorkerCrashed:
                    message = f"{exc_name}: {message}"
                rec.future.set_exception(exc_type(message))

    def _share(self, item: Tuple, payload) -> None:
        """Publish a completed decode's compact bytes to the shared
        segment so every *other* worker (and respawns) can skip it."""
        shm = self._shm
        if shm is None or not isinstance(payload, (bytes, bytearray)):
            return
        try:
            if item[0] == "traces":
                shm.put(shm_key(item[1], item[2]), bytes(payload))
            elif item[0] == "traces_many":
                names = item[2]
                for name, part in zip(names, wire.decode_payloads(payload)):
                    shm.put(shm_key(item[1], name), part)
        except (ValueError, struct.error):
            pass  # malformed payload: the future still gets the bytes

    def _reap_dead(self) -> None:
        for worker_id, proc in enumerate(self._procs):
            if proc.is_alive() or self._closed:
                continue
            self._count("pool.respawns")
            old_q = self._task_qs[worker_id]
            ctx = multiprocessing.get_context()
            self._task_qs[worker_id] = ctx.Queue()
            try:
                old_q.close()
                old_q.cancel_join_thread()
            except (OSError, ValueError):
                pass
            self._procs[worker_id] = self._spawn(ctx, worker_id)
            for key, text in self._programs.items():
                self._task_qs[worker_id].put((-1, ("__program__", key, text)))
            with self._plock:
                affected = [
                    (task_id, rec)
                    for task_id, rec in self._pending.items()
                    if rec.worker == worker_id
                ]
                doomed = []
                for task_id, rec in affected:
                    rec.attempts += 1
                    if rec.attempts > self.max_retries:
                        doomed.append((task_id, rec))
            for task_id, rec in doomed:
                with self._plock:
                    self._pending.pop(task_id, None)
                rec.future.set_exception(
                    WorkerCrashed(
                        f"worker {worker_id} died {rec.attempts} times "
                        f"running {rec.item[0]!r} item"
                    )
                )
            for task_id, rec in affected:
                if rec.attempts <= self.max_retries:
                    self._count("pool.retries")
                    self._task_qs[worker_id].put((task_id, rec.item))

    # ---- metrics ------------------------------------------------------

    def _finish_metrics(self, payload, t0: float) -> None:
        with self._mlock:
            self.metrics.add_ms(
                "pool.dispatch", (time.perf_counter() - t0) * 1000.0
            )
            if isinstance(payload, (bytes, bytearray)):
                self.metrics.observe("pool.result_bytes", len(payload))

    def _count(self, name: str, amount: int = 1) -> None:
        with self._mlock:
            self.metrics.inc(name, amount)

    def _observe(self, name: str, value: int) -> None:
        with self._mlock:
            self.metrics.observe(name, value)
