"""The ``ingest`` workload: the regression-testing flow the corpus serves.

Each bundled spec, in ``VARIANTS`` seeded variants, is a family of runs
at stepped scales.  A run is ``Session.stream_compact`` (compiled
interpreter, jobs=1), then ``TraceCorpus.ingest``, then
``TraceCorpus.diff`` against the family's previous run.  The traced run
takes the two-phase public path instead (``Session.trace`` ->
``partition_wpp`` -> ``compact_wpp`` -> ``write_twpp``), which writes
the same bytes while giving each layer its own span.

The window is a fixed amount of work sized from ``--seconds``: whole
rounds, each one step of every family, so the mix of programs in the
window does not change with the speed of the system.  The query and
analyze figures come from a probe after the window (see :func:`_probe`);
the window's own diffs are timed per layer in the traced run.

Which functions a seed generates moves every figure, so the workload
runs many mid-sized programs (5 specs x ``VARIANTS``) rather than a few
large ones: averaged over more programs, the figures hold from seed to
seed.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List

import inputs
from measure import median, percentile, ratio, self_peak_rss_mb

from repro.api import Session
from repro.compact.delta import diff_twpp_files
from repro.store.requests import AnalyzeRequest, QueryRequest
from repro.workloads.specs import WORKLOAD_NAMES

#: Seeded programs per spec; more programs average out how much a
#: single generated program's cost depends on its seed.
VARIANTS = 4
#: Events of a family's first run; step ``s`` runs at ``1 + STEP * s``
#: times its scale.
EVENTS = 100_000
STEP = 0.1
#: Rough wall time of one round on a 2-CPU host, to size the window.
ROUND_S = 7.0
#: Set-ups timed (median reported); each runs one small program per
#: spec and set-up variant.
SETUP_REPS = 5
SETUP_VARIANTS = 2
SETUP_EVENTS = 20_000
#: The post-window probe: passes over every function, and analyze
#: requests per probed run.
PROBE_PASSES = 5
PROBE_ANALYZES = 15

TINY = {"VARIANTS": 1, "EVENTS": 5_000, "ROUND_S": 1.0, "SETUP_EVENTS": 2_000,
        "PROBE_PASSES": 1, "PROBE_ANALYZES": 1, "SETUP_REPS": 2}


def run(ctx) -> Dict:
    cfg = dict(VARIANTS=VARIANTS, EVENTS=EVENTS, ROUND_S=ROUND_S,
               SETUP_EVENTS=SETUP_EVENTS, PROBE_PASSES=PROBE_PASSES,
               PROBE_ANALYZES=PROBE_ANALYZES, SETUP_REPS=SETUP_REPS)
    if ctx.tiny:
        cfg.update(TINY)
    rounds = max(1, int(ctx.seconds / cfg["ROUND_S"] + 0.5))
    families = [(name, v) for v in range(cfg["VARIANTS"]) for name in WORKLOAD_NAMES]
    progs = {}
    for name, v in families:
        scale = inputs.calibrated_scale(name, ctx.seed, v, cfg["EVENTS"])
        for step in range(rounds):
            progs[(name, v, step)] = inputs.program(
                name, ctx.seed, v, scale * (1 + STEP * step))
    # Set-up programs are variants of their own, not in the window.
    warm = [
        inputs.program(name, ctx.seed, v, inputs.calibrated_scale(
            name, ctx.seed, v, cfg["SETUP_EVENTS"]))
        for v in range(cfg["VARIANTS"], cfg["VARIANTS"] + SETUP_VARIANTS)
        for name in WORKLOAD_NAMES
    ]

    # The programs are frozen so no collection in the timed set-ups or
    # window scans them.
    gc.collect()
    gc.freeze()
    setup_times = [_setup(ctx.work / f"setup{i}", warm)
                   for i in range(cfg["SETUP_REPS"])]

    out = ctx.work / "window"
    out.mkdir()
    session = Session(jobs=1)
    corpus = session.corpus(out / "corpus")
    counters0 = dict(session.metrics.counters)
    runs: List[Dict] = []
    failures: List[str] = []
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    for step in range(rounds):
        runs.extend(_one_run(ctx, session, corpus, out, name, v, step,
                             progs[(name, v, step)], failures)
                    for name, v in families)
    t1 = time.perf_counter()
    stats = corpus.stats()
    counters = {k: session.metrics.counters.get(k, 0) - counters0.get(k, 0)
                for k in session.metrics.counters}
    corpus.close()
    session.close()

    checks = _oracle(ctx, runs, progs, out)
    probe = _probe(ctx, runs, progs, out, cfg["PROBE_PASSES"], cfg["PROBE_ANALYZES"])

    events = sum(r["events"] for r in runs)
    twpp_bytes = sum(r["twpp_bytes"] for r in runs)
    shared = sum(r["blobs_shared"] for r in runs)
    referenced = shared + sum(r["blobs_added"] for r in runs)
    failed = len(failures) + checks["mismatches"] + probe["failed"]
    return {
        "window": (t0, t1),
        "attempted": (len(runs) + checks["checked"] + probe["failed"]
                      + sum(len(v) for v in probe["latencies"].values())),
        "failed": failed,
        "failures": failures + checks["details"] + probe["details"],
        "e2e": {
            "setup_s": median(setup_times),
            "peak_rss_mb": self_peak_rss_mb(),
            "ingest_events_per_s": ratio(events, t1 - t0),
            "twpp_bytes_per_kevent": ratio(twpp_bytes * 1000.0, events),
            "corpus_bytes_per_twpp_byte": ratio(
                stats["pack_bytes"] + stats["manifest_bytes"], stats["twpp_bytes"]),
            "requests_per_s": ratio(len(runs), t1 - t0),
            "query_ms_p50": percentile(probe["latencies"]["query"], 0.50),
            "query_ms_p99": percentile(probe["latencies"]["query"], 0.99),
            "analyze_ms_p50": percentile(probe["latencies"]["analyze"], 0.50),
            "analyze_ms_p90": percentile(probe["latencies"]["analyze"], 0.90),
        },
        "samples": {"runs": len(runs),
                    "diffs": sum(len(r["diffs"]) for r in runs),
                    "queries": len(probe["latencies"]["query"]),
                    "analyzes": len(probe["latencies"]["analyze"])},
        "layer_inputs": {
            "events": events,
            "dedup_factor": ratio(
                counters.get("partition.activations", counters.get("ingest.activations", 0)),
                counters.get("partition.unique_traces", counters.get("ingest.unique_traces", 0))),
            "blob_share_ratio": ratio(shared, referenced),
            "budget_span": "run",
        },
        "counters": counters,
        "sizes": {
            "families": len(families), "rounds": rounds, "runs": len(runs),
            "events": events, "twpp_bytes": twpp_bytes,
            "corpus_bytes": stats["pack_bytes"] + stats["manifest_bytes"],
            "setup_s_reps": setup_times,
        },
    }


def _setup(work: Path, warm) -> float:
    """Session, corpus and one small warm-up run per spec."""
    work.mkdir()
    t0 = time.perf_counter()
    with Session(jobs=1) as session, session.corpus(work / "corpus") as corpus:
        for i, prog in enumerate(warm):
            path = work / f"warm{i}.twpp"
            session.stream_compact(prog, path)
            corpus.ingest(path)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(work)
    return elapsed


def _one_run(ctx, session, corpus, out, name, v, step, prog, failures) -> Dict:
    run = f"{name}-{v}-s{step}"
    path = out / f"{run}.twpp"
    rec = {"run": run, "path": path, "family": (name, v), "step": step,
           "events": 0, "twpp_bytes": 0, "diffs": [],
           "blobs_added": 0, "blobs_shared": 0}
    span = ctx.recorder.begin("run") if ctx.trace else None
    try:
        if ctx.trace:
            wpp = session.trace(prog)
            rec["events"] = len(wpp)
            rec["twpp_bytes"] = session.compact(wpp).save(path)
        else:
            result = session.stream_compact(prog, path)
            rec["events"], rec["twpp_bytes"] = result.events, result.bytes_written
        ingested = corpus.ingest(path, run=run)
        rec["blobs_added"], rec["blobs_shared"] = ingested.blobs_added, ingested.blobs_shared
        if step:
            base = f"{name}-{v}-s{step - 1}"
            rec["diffs"].append((base, corpus.diff(base, run)))
    except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
        failures.append(f"{run}: {type(exc).__name__}: {exc}")
    finally:
        if span is not None:
            ctx.recorder.end(span)
    return rec


def _oracle(ctx, runs, progs, out) -> Dict:
    """Byte identity against the other public path, and corpus diffs
    against ``diff_twpp_files`` over the same two files."""
    checked = mismatches = 0
    details: List[str] = []
    ref = out / "oracle.twpp"
    by_run = {r["run"]: r for r in runs}
    with Session(jobs=1) as session:
        for r in runs:
            if not r["twpp_bytes"]:
                continue
            prog = progs[(*r["family"], r["step"])]
            if ctx.trace:
                session.stream_compact(prog, ref)
            else:
                session.compact(session.trace(prog)).save(ref)
            checked += 1
            if ref.read_bytes() != r["path"].read_bytes():
                mismatches += 1
                details.append(f"{r['run']}: .twpp differs from the other path")
            for base, delta in r["diffs"]:
                checked += 1
                if diff_twpp_files(by_run[base]["path"], r["path"]) != delta:
                    mismatches += 1
                    details.append(f"{r['run']}: diff with {base} != diff_twpp_files")
    return {"checked": checked, "mismatches": mismatches, "details": details}


def _probe(ctx, runs, progs, out, passes: int, per_trace: int) -> Dict:
    """After the window, the tester looks at what it just ingested: an
    in-process ``TraceStore`` over each family's last run answers
    ``passes`` queries of every function in a seeded order and
    ``per_trace`` analyze requests per run, with keys and facts drawn
    as the serve workload draws them.  Decoded traces are not cached,
    so every request reads its function from the file, as a first look
    at new runs does (repeats of a hot key would otherwise time a
    dictionary hit of a few microseconds)."""
    store_dir = out / "probe"
    store_dir.mkdir()
    last = {}
    for r in runs:
        if r["twpp_bytes"]:
            last[r["family"]] = r
    trace_progs = {}
    for r in last.values():
        shutil.copy(r["path"], store_dir / f"{r['run']}.twpp")
        prog = progs[(*r["family"], r["step"])]
        (store_dir / f"{r['run']}.ir").write_text(inputs.program_text(prog))
        trace_progs[r["run"]] = prog
    latencies: Dict[str, List[float]] = {"query": [], "analyze": []}
    details: List[str] = []
    with Session(jobs=1, cache_bytes=0) as session, \
            session.store(store_dir, cache_bytes=1 << 40) as store:
        calls = [(row.trace, fn.name, fn.call_count)
                 for row in store.catalog.traces()
                 for fn in store.catalog.functions(row.trace)]
        rng = random.Random(f"ingest-probe-{ctx.seed}")
        keys = [(t, f) for t, f, _count in calls]
        queries = []
        for _ in range(passes):
            rng.shuffle(keys)
            queries += [("query", QueryRequest(trace=t, functions=(f,))) for t, f in keys]
        schedule = inputs.analyze_schedule(
            rng, calls, trace_progs, per_trace * len(trace_progs), per_trace)
        # Queries are spread evenly between the analyze requests, so both
        # kinds are sampled over the whole probe and not over one second
        # of the host's speed.
        requests = []
        for i, (t, f, fact) in enumerate(schedule):
            requests += queries[i * len(queries) // len(schedule):
                                (i + 1) * len(queries) // len(schedule)]
            requests.append(("analyze", AnalyzeRequest(trace=t, fact=fact, functions=(f,))))
        gc.collect()
        gc.freeze()
        for kind, request in requests:
            verb = store.query if kind == "query" else store.analyze
            t = time.perf_counter()
            try:
                verb(request)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                details.append(f"{kind} {request}: {type(exc).__name__}: {exc}")
                continue
            latencies[kind].append((time.perf_counter() - t) * 1000.0)
    return {"latencies": latencies, "failed": len(details), "details": details}
