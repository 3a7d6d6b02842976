"""The ``serve-mixed`` workload against the daemon.

It runs ``repro-wpp serve`` as a subprocess (through ``launch_serve.py``
when traced) and drives it from one thread of this process with two
keep-alive connections, each a closed loop: the daemon's callers are
analysis tools and debuggers that wait for each reply.

The store holds 5 specs x ``VARIANTS`` seeded programs; the daemon runs
with ``-j 2`` and a cache the size of the decoded store.  Connection 1
sends zipf ``GET /query``, connection 2 sends ``POST /analyze`` back
to back: analysis in the worker pool (with its own cold decodes) and IR
parsing in the daemon compete with queries, which after warm-up hit the
cache and so time the HTTP front end and JSON encoding.

The store is also ingested into a corpus attached with ``--corpus``
(idle in the window): building what the daemon serves is the set-up,
and it supplies the ingest metrics of this workload.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

import inputs
from measure import counter_delta, median, percentile, ratio, tree_peak_rss_mb

from repro.api import Session
from repro.compact.qserve import QueryEngine
from repro.store.requests import AnalyzeRequest, QueryRequest
from repro.store.server import canonical_json

SETUP_REPS = 3
#: Responses checked against a fresh in-process store, per connection.
SAMPLED_QUERIES = 40
SAMPLED_ANALYZES = 8
QUERY_SCHEDULE = 100_000
ANALYZE_SCHEDULE = 5_000
#: Counter families recorded over the window.
COUNTERS = ("qserve.", "store.", "serve.", "pool.", "shm.", "http.errors")

#: Seeded programs per spec, each emitting about ``EVENTS`` events
#: (``inputs.calibrated_scale``).  Many mid-sized programs rather than a
#: few large ones: which functions a seed generates moves every figure,
#: and averaging over more programs is what keeps it from seed to seed.
VARIANTS = 4
EVENTS = 50_000
JOBS = 2
#: Query latencies are taken per slice of this many seconds and the
#: median slice reported, so a burst of load from outside the benchmark
#: moves one slice only.  Rates count the whole window, and analyze
#: latencies (a few per slice) are pooled over it.
SLICE_S = 2.0
TINY = {"events": 5_000, "variants": 1, "reps": 2}


class Conn:
    """One keep-alive HTTP/1.1 connection with a raw-socket client."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buf = b""

    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, request: bytes) -> None:
        if self.sock is None:
            self.connect()
        self.sock.sendall(request)

    def response(self) -> Optional[Tuple[int, bytes, int]]:
        """The buffered response, if complete: (status, body, bytes)."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buf[:end]
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        size = end + 4 + length
        if len(self.buf) < size:
            return None
        body, self.buf = self.buf[end + 4:size], self.buf[size:]
        return int(head.split(b" ", 2)[1]), body, size

    def fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def roundtrip(self, request: bytes) -> Tuple[int, bytes, int]:
        """Send one request and wait for its response."""
        self.send(request)
        response = self.response()
        while response is None:
            self.fill()
            response = self.response()
        return response

    def get_json(self, target: str) -> Dict:
        status, body, _ = self.roundtrip(get_request(target))
        if status != 200:
            raise RuntimeError(f"GET {target} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def get_request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("ascii")


def query_request(trace: str, fn: str) -> bytes:
    return get_request(f"/query?trace={quote(trace)}&fn={quote(fn)}")


def analyze_request(trace: str, fn: str, fact: str) -> bytes:
    body = json.dumps({"trace": trace, "fact": fact, "functions": [fn]}).encode()
    head = (f"POST /analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


class Daemon:
    """``repro-wpp serve`` in a subprocess, stopped with SIGTERM."""

    def __init__(self, ctx, store: Path, corpus: Path, jobs: int,
                 cache_bytes: int, log: Path) -> None:
        if ctx.trace:
            entry = [str(ctx.root / "perfbench" / "launch_serve.py"), str(ctx.spans_dir)]
        else:
            entry = ["-m", "repro"]
        cmd = [sys.executable, *entry, "serve", str(store), "--port", "0",
               "-j", str(jobs), "--cache-bytes", str(cache_bytes),
               "--corpus", str(corpus)]
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"), TMPDIR=str(ctx.work))
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=env,
                                     stdout=subprocess.PIPE, stderr=self._log)
        try:
            line = self._first_line(deadline=time.monotonic() + 120)
            self.port = int(line.rsplit(":", 1)[1])
        except Exception:
            self.stop()
            raise

    def _first_line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        data = b""
        while b"\n" not in data:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("daemon did not report its address")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("daemon exited before serving")
                data += chunk
        return data.split(b"\n", 1)[0].decode().strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _build_store(store: Path, corpus: Path, progs) -> Dict:
    """Trace and compact every program into the store, then ingest the
    store into the corpus the daemon attaches."""
    store.mkdir()
    events = twpp_bytes = 0
    stream_s = 0.0
    with Session(jobs=1) as session:
        for trace, prog in progs.items():
            t = time.perf_counter()
            result = session.stream_compact(prog, store / f"{trace}.twpp")
            stream_s += time.perf_counter() - t
            events += result.events
            twpp_bytes += result.bytes_written
            (store / f"{trace}.ir").write_text(inputs.program_text(prog))
        with session.corpus(corpus) as c:
            c.ingest_runs(sorted(store.glob("*.twpp")))
            stats = c.stats()
    return {"events": events, "twpp_bytes": twpp_bytes, "stream_s": stream_s,
            "corpus_bytes": stats["pack_bytes"] + stats["manifest_bytes"],
            "corpus_twpp_bytes": stats["twpp_bytes"]}


def _decoded_bytes(store: Path) -> int:
    """The store's fully decoded size, as the daemon's cache charges it:
    every function's traces, put into one engine's cache."""
    total = 0
    for path in sorted(store.glob("*.twpp")):
        with QueryEngine(path, cache_bytes=0) as decode, \
                QueryEngine(path, cache_bytes=1 << 40) as account:
            for name in decode.function_names():
                account.put_traces(name, decode.traces(name))
            total += account.cache_stats()["bytes"]
    return total


def _calls(store: Path) -> List[Tuple[str, str, int]]:
    out = []
    for path in sorted(store.glob("*.twpp")):
        with QueryEngine(path, cache_bytes=0) as engine:
            out.extend((path.stem, name, engine.call_count(name))
                       for name in engine.function_names())
    return out


class _Loop:
    """One connection's closed loop: its requests, position and results."""

    def __init__(self, port: int, requests: List[bytes], sample: Dict[int, bytes]):
        self.conn = Conn(port)
        self.requests = requests
        self.sample = sample
        self.i = 0
        self.sent_at = 0.0
        self.latencies: List[float] = []
        self.finished: List[float] = []
        self.failures: List[str] = []
        self.received = 0

    def send_next(self) -> None:
        self.sent_at = time.perf_counter()
        self.conn.send(self.requests[self.i % len(self.requests)])


def _drive(loops: List[_Loop], deadline: float, recorder) -> float:
    """Run every connection's closed loop from one thread until
    ``deadline``; returns the thread's CPU seconds.  One thread keeps
    the load generator's own scheduling and lock hand-offs out of the
    tail latencies."""
    cpu0 = time.thread_time()
    sel = selectors.DefaultSelector()
    for loop in loops:
        try:
            loop.conn.connect()
            loop.send_next()
        except OSError as exc:
            loop.failures.append(f"connect: {exc}")
            continue
        sel.register(loop.conn.sock, selectors.EVENT_READ, loop)
    while sel.get_map():
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        for key, _ in sel.select(left):
            loop = key.data
            try:
                loop.conn.fill()
                response = loop.conn.response()
                if response is None:
                    continue
            except (OSError, ConnectionError, ValueError) as exc:
                loop.failures.append(f"request {loop.i}: {type(exc).__name__}: {exc}")
                sel.unregister(key.fileobj)
                loop.i += 1
                try:
                    loop.conn.connect()
                    loop.send_next()
                except OSError:
                    continue
                sel.register(loop.conn.sock, selectors.EVENT_READ, loop)
                continue
            end = time.perf_counter()
            if recorder is not None:
                recorder.record("client.request", loop.sent_at, end)
            status, body, size = response
            loop.latencies.append((end - loop.sent_at) * 1000.0)
            loop.finished.append(end)
            loop.received += size
            if status != 200:
                loop.failures.append(f"request {loop.i}: HTTP {status}: {body[:200]!r}")
            elif loop.i in loop.sample and not loop.sample[loop.i]:
                loop.sample[loop.i] = body
            loop.i += 1
            try:
                loop.send_next()
            except OSError as exc:
                loop.failures.append(f"request {loop.i}: {type(exc).__name__}: {exc}")
                sel.unregister(key.fileobj)
    sel.close()
    return time.thread_time() - cpu0


def run(ctx) -> Dict:
    tiny = TINY if ctx.tiny else {}
    progs = inputs.programs(ctx.seed, tiny.get("variants", VARIANTS),
                            tiny.get("events", EVENTS))
    rng = random.Random(f"serve-mixed-{ctx.seed}")
    # The programs are frozen so no collection in the timed set-ups
    # scans them.
    gc.collect()
    gc.freeze()

    setup_times: List[float] = []
    builds: List[Dict] = []
    daemon: Optional[Daemon] = None
    reps = tiny.get("reps", SETUP_REPS)
    try:
        for rep in range(reps):
            store, corpus = ctx.work / f"store{rep}", ctx.work / f"corpus{rep}"
            t0 = time.perf_counter()
            builds.append(_build_store(store, corpus, progs))
            t_build = time.perf_counter() - t0
            if rep == 0:
                # The budget is the decoded store: smaller budgets put the
                # query p50 on the knee between hits and stalled misses,
                # where it moved 2-5x between runs.
                cache_bytes = _decoded_bytes(store)
                calls = _calls(store)
            t0 = time.perf_counter()
            daemon = Daemon(ctx, store, corpus, JOBS, cache_bytes,
                            ctx.work / "daemon.log")
            _warm(daemon.port, calls, progs, rng)
            setup_times.append(t_build + time.perf_counter() - t0)
            if rep < reps - 1:
                daemon.stop()
                daemon = None
        return _measure(ctx, daemon, store, progs, calls, rng,
                        setup_times, builds, cache_bytes)
    finally:
        if daemon is not None:
            daemon.stop()


def _warm(port: int, calls, progs, rng) -> None:
    """Readiness, then every key once and a first analysis."""
    conn = Conn(port)
    try:
        conn.get_json("/healthz")
        for trace, fn, _count in calls:
            status, body, _ = conn.roundtrip(query_request(trace, fn))
            if status != 200:
                raise RuntimeError(f"warm-up query {trace}/{fn} -> {status}: {body[:200]!r}")
        for trace, fn, fact in inputs.analyze_schedule(rng, calls, progs, 2):
            status, body, _ = conn.roundtrip(analyze_request(trace, fn, fact))
            if status != 200:
                raise RuntimeError(f"warm-up analyze -> {status}: {body[:200]!r}")
    finally:
        conn.close()


def _measure(ctx, daemon, store, progs, calls, rng,
             setup_times, builds, cache_bytes) -> Dict:
    roles = [_role("query", inputs.query_schedule(rng, calls, QUERY_SCHEDULE)),
             _role("analyze", inputs.analyze_schedule(rng, calls, progs, ANALYZE_SCHEDULE))]
    # Seeded positions whose bodies are checked after the window; a
    # connection always reaches its first requests.
    samples = [dict.fromkeys(rng.sample(range(200), SAMPLED_QUERIES), b""),
               dict.fromkeys(range(SAMPLED_ANALYZES), b"")]

    control = Conn(daemon.port)
    before = control.get_json("/metrics")["counters"]
    # Keep the load generator's own pauses out of the figures: objects
    # built so far (schedules, requests) are never scanned by the
    # collector, and it does not run during the window.
    gc.collect()
    gc.freeze()
    gc.disable()
    loops = [_Loop(daemon.port, role["requests"], sample)
             for role, sample in zip(roles, samples)]
    recorder = ctx.recorder if ctx.trace else None
    t0 = time.perf_counter()
    client_cpu_s = _drive(loops, t0 + ctx.seconds, recorder)
    t1 = time.perf_counter()
    gc.enable()
    after = control.get_json("/metrics")["counters"]
    control.close()
    for loop in loops:
        loop.conn.close()
    peak_rss = tree_peak_rss_mb(daemon.proc.pid)

    query, analyze = loops
    slices = _slices(t0, t1, query)
    completed = len(query.latencies) + len(analyze.latencies)
    failures = query.failures + analyze.failures

    checks = _oracle(ctx, store, roles, samples)
    build = builds[-1]
    counters = counter_delta(before, after, COUNTERS)
    return {
        "window": (t0, t1),
        "attempted": query.i + analyze.i + checks["checked"],
        "failed": len(failures) + checks["mismatches"],
        "failures": failures + checks["details"],
        "e2e": {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss,
            "ingest_events_per_s": ratio(
                sum(b["events"] for b in builds), sum(b["stream_s"] for b in builds)),
            "twpp_bytes_per_kevent": ratio(build["twpp_bytes"] * 1000.0, build["events"]),
            "corpus_bytes_per_twpp_byte": ratio(
                build["corpus_bytes"], build["corpus_twpp_bytes"]),
            # The query route's rate is set by how often a query stalls
            # behind an analyze request in the daemon, which swung 2.6x
            # between seeds, so the rate counts the analyze route.
            "requests_per_s": ratio(len(analyze.latencies), t1 - t0),
            "query_ms_p50": median([percentile(sl, 0.50) for sl in slices]),
            "query_ms_p99": median([percentile(sl, 0.99) for sl in slices]),
            "analyze_ms_p50": percentile(analyze.latencies, 0.50),
            "analyze_ms_p90": percentile(analyze.latencies, 0.90),
        },
        "samples": {"queries": len(query.latencies),
                    "analyzes": len(analyze.latencies),
                    "query_slices": len(slices)},
        "deciles_ms": {
            kind: [round(percentile(loop.latencies, q / 10), 4) for q in range(1, 10)]
            for kind, loop in (("query", query), ("analyze", analyze))
        },
        "client": {
            "connections": len(roles),
            "cpu_ms_per_request": ratio(client_cpu_s * 1000.0, completed),
            "bytes_per_response": ratio(
                sum(loop.received for loop in loops), completed),
        },
        "layer_inputs": {"budget_span": "client.request"},
        "counters": counters,
        "flags": [name for name in ("pool.fallback", "pool.respawns", "http.errors")
                  if counters.get(name)],
        "sizes": {
            "traces": len(progs), "keys": len(calls),
            "events": build["events"], "twpp_bytes": build["twpp_bytes"],
            "decoded_bytes": cache_bytes, "cache_bytes": cache_bytes,
            "jobs": JOBS, "setup_s_reps": setup_times,
        },
    }


def _slices(t0: float, t1: float, loop: "_Loop") -> List[List[float]]:
    """The loop's latencies, split by completion time into slices of
    about ``SLICE_S`` seconds."""
    count = max(1, round((t1 - t0) / SLICE_S))
    width = (t1 - t0) / count
    slices: List[List[float]] = [[] for _ in range(count)]
    for end, ms in zip(loop.finished, loop.latencies):
        slices[min(count - 1, int((end - t0) / width))].append(ms)
    return slices


def _role(kind: str, items: List[Tuple]) -> Dict:
    build = query_request if kind == "query" else analyze_request
    return {"kind": kind, "items": items, "requests": [build(*item) for item in items]}


def _oracle(ctx, store: Path, roles, samples) -> Dict:
    """Sampled bodies against a fresh in-process store on the same files."""
    checked = mismatches = 0
    details: List[str] = []
    with Session(jobs=1) as session, session.store(
            store, catalog_path=ctx.work / "oracle.sqlite") as ref:
        for role, sample in zip(roles, samples):
            for i, body in sorted(sample.items()):
                if not body:
                    continue  # position not reached in a short window
                item = role["items"][i]
                if role["kind"] == "query":
                    want = ref.query(QueryRequest(trace=item[0], functions=(item[1],)))
                else:
                    want = ref.analyze(AnalyzeRequest(
                        trace=item[0], fact=item[2], functions=(item[1],)))
                checked += 1
                if canonical_json(want) + b"\n" != body:
                    mismatches += 1
                    details.append(f"{role['kind']} sample {i} {item} differs from in-process")
    return {"checked": checked, "mismatches": mismatches, "details": details}
