"""Run one workload of the end-to-end TWPP benchmark.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload with spans around every layer and
reports the per-layer metrics and the ``<layer>.self_share`` waterfall.
Both print a report, write it to ``.bench_work/results/`` and end with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
Outputs are checked against the program's own reference paths outside
the timed window; any mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from measure import host, mean, median, percentile, ratio
from spans import WATERFALL, Recorder, flatten, instrument, load_dumps, waterfall

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("ingest", "serve-mixed")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ingest_events_per_s": "1/s",
    "twpp_bytes_per_kevent": "B",
    "corpus_bytes_per_twpp_byte": "ratio",
    "requests_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
    "analyze_ms_p50": "ms",
    "analyze_ms_p90": "ms",
}

LAYER_UNITS = {
    "interp.compile_ms": "ms",
    "interp.run_ms": "ms",
    "interp.events_per_s": "1/s",
    "trace.partition_ms": "ms",
    "compact.compact_ms": "ms",
    "compact.write_ms": "ms",
    "compact.dedup_factor": "ratio",
    "corpus.ingest_ms": "ms",
    "corpus.diff_ms": "ms",
    "corpus.blob_share_ratio": "ratio",
    "server.encode_ms_p50": "ms",
    "server.self_ms_mean": "ms",
    "server.bytes_per_response": "B",
    "server.connections": "count",
    "store.query_ms_p50": "ms",
    "store.query_ms_p99": "ms",
    "store.analyze_ms_p50": "ms",
    "store.file_evictions": "count",
    "qserve.cache_hit_ratio": "ratio",
    "qserve.decodes": "count",
    "qserve.decode_ms_p50": "ms",
    "analysis.frequency_ms_p50": "ms",
    "pool.run_ms_p50": "ms",
    "pool.fallbacks": "count",
    "pool.respawns": "count",
    "shm.hit_ratio": "ratio",
}
#: The waterfall: each layer's self time as a share of the window.
LAYER_UNITS.update({
    f"{prefix}.self_share": "ratio"
    for prefix in ("ir", "interp", "trace", "compact", "corpus", "server", "store",
                   "qserve", "analysis", "pool")
})


class Context:
    """What a workload needs to know about this run."""

    def __init__(self, args, work: Path) -> None:
        self.root = ROOT
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tiny = args.size == "tiny"
        self.work = work
        self.spans_dir = work / "spans"
        self.recorder = Recorder()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small programs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    ctx = Context(args, work)
    ctx.spans_dir.mkdir()
    started = time.time()
    try:
        result = _run(ctx, args.workload)
        report = _report(ctx, args, result, started, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    _print(report)
    units = LAYER_UNITS if ctx.trace else E2E_UNITS
    values = report["layers"] if ctx.trace else report["e2e"]
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def _run(ctx: Context, workload: str) -> Dict:
    if workload == "ingest":
        import ingest

        if ctx.trace:
            instrument(ctx.recorder)
        return ingest.run(ctx)
    import serve

    return serve.run(ctx)


def _report(ctx: Context, args, result: Dict, started: float, results_dir: Path) -> Dict:
    report = {
        "schema": "perfbench.result/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "started_unix": started,
        "window_s": result["window"][1] - result["window"][0],
        "host": host(ROOT),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_ratio": result["failed"] / max(1, result["attempted"]),
        "failures": result["failures"][:20],
        "e2e": result["e2e"],
        "samples": result["samples"],
        "deciles_ms": result.get("deciles_ms", {}),
        "client": result.get("client", {}),
        "counters": result["counters"],
        "flags": result.get("flags", []),
        "sizes": result["sizes"],
    }
    if ctx.trace:
        report["layers"], report["span_counts"] = _layers(ctx, result)
        report["overhead"] = _overhead(results_dir, args, result["e2e"])
    return report


def _layers(ctx: Context, result: Dict):
    """Per-layer metrics and the self-time waterfall of the window."""
    docs = [{"role": "client", "threads": ctx.recorder.snapshot()}]
    docs += load_dumps(str(ctx.spans_dir))
    spans = flatten(docs, *result["window"])
    ms: Dict[str, List[float]] = {}
    self_ms: Dict[str, List[float]] = {}
    for span in spans:
        ms.setdefault(span["name"], []).append(span["ms"])
        self_ms.setdefault(span["name"], []).append(span["self_ms"])

    def get(name):
        return ms.get(name, [])

    inputs = result["layer_inputs"]
    counters = result["counters"]
    budget = sum(s["ms"] for s in spans if s["root"] and s["name"] == inputs["budget_span"])
    requests = get("client.request")
    verbs = get("store.query") + get("store.analyze")
    hits = counters.get("qserve.cache.hits", 0)
    misses = counters.get("qserve.cache.misses", 0) + counters.get("store.pool_decodes", 0)
    shm_hits, shm_misses = len(get("shm.hit")), len(get("shm.miss"))
    layers = {
        "interp.compile_ms": mean(get("interp.compile")),
        "interp.run_ms": mean(self_ms.get("interp.trace", [])),
        "interp.events_per_s": ratio(
            inputs.get("events", 0), sum(self_ms.get("interp.trace", [])) / 1000.0),
        "trace.partition_ms": mean(get("trace.partition")),
        "compact.compact_ms": mean(get("compact.compact")),
        "compact.write_ms": mean(get("compact.write")),
        "compact.dedup_factor": inputs.get("dedup_factor", 0.0),
        "corpus.ingest_ms": mean(get("corpus.ingest")),
        "corpus.diff_ms": mean(get("corpus.diff")),
        "corpus.blob_share_ratio": inputs.get("blob_share_ratio", 0.0),
        "server.encode_ms_p50": percentile(get("server.encode"), 0.5),
        "server.self_ms_mean": max(0.0, mean(requests) - mean(verbs) - mean(get("server.encode")))
        if requests else 0.0,
        "server.bytes_per_response": result.get("client", {}).get("bytes_per_response", 0.0),
        "server.connections": counters.get("serve.connections", 0),
        "store.query_ms_p50": percentile(get("store.query"), 0.5),
        "store.query_ms_p99": percentile(get("store.query"), 0.99),
        "store.analyze_ms_p50": percentile(get("store.analyze"), 0.5),
        "store.file_evictions": counters.get("store.evictions", 0),
        "qserve.cache_hit_ratio": ratio(hits, hits + misses),
        "qserve.decodes": len(get("qserve.decode")),
        "qserve.decode_ms_p50": percentile(get("qserve.decode"), 0.5),
        "analysis.frequency_ms_p50": percentile(get("analysis.frequency"), 0.5),
        "pool.run_ms_p50": percentile(get("pool.run"), 0.5),
        "pool.fallbacks": counters.get("pool.fallback", 0),
        "pool.respawns": counters.get("pool.respawns", 0),
        "shm.hit_ratio": ratio(shm_hits, shm_hits + shm_misses),
    }
    shares = waterfall(spans, budget)
    for prefix, _layer in WATERFALL:
        layers[f"{prefix}.self_share"] = shares[prefix]
    return layers, {name: len(values) for name, values in sorted(ms.items())}


def _overhead(results_dir: Path, args, traced: Dict) -> Dict:
    """Traced end-to-end numbers against this checkout's untraced runs
    of the same workload (median over the seeds found)."""
    base: Dict[str, List[float]] = {}
    for path in results_dir.glob(f"{args.workload}-seed*-trace0.json"):
        doc = json.loads(path.read_text())
        if doc.get("size") != args.size:
            continue
        for name, value in doc["e2e"].items():
            base.setdefault(name, []).append(value)
    return {
        name: {"untraced": median(base[name]), "traced": traced[name],
               "ratio": traced[name] / median(base[name])}
        for name in E2E_UNITS if base.get(name) and median(base[name])
    }


def _print(report: Dict) -> None:
    host = report["host"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  window {report['window_s']:.2f} s  "
          f"cpus {host['cpus_usable']}  python {host['python']}  "
          f"commit {host['commit'] or host['source_sha1'][:12]}")
    print(f"  sizes {json.dumps(report['sizes'], sort_keys=True)}")
    print(f"  samples {json.dumps(report['samples'], sort_keys=True)}")
    if report["client"]:
        print(f"  client {json.dumps(report['client'], sort_keys=True)}")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:32s} {report['e2e'][name]:14.6g} {unit}")
    print(f"  {'error_ratio':32s} {report['error_ratio']:14.6g} ratio "
          f"({report['failed']} of {report['attempted']})")
    for failure in report["failures"]:
        print(f"  failure: {failure}")
    if report["flags"]:
        print(f"  FLAGGED: nonzero {', '.join(report['flags'])}")
    print(f"  counters {json.dumps(report['counters'], sort_keys=True)}")
    for name, value in report.get("layers", {}).items():
        print(f"  {name:32s} {value:14.6g} {LAYER_UNITS[name]}")
    for name, row in report.get("overhead", {}).items():
        print(f"  overhead {name:23s} x{row['ratio']:.3f} "
              f"(traced {row['traced']:.6g} vs untraced {row['untraced']:.6g})")


if __name__ == "__main__":
    sys.exit(main())
