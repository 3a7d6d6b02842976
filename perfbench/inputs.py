"""Everything a workload feeds the system, derived from ``--seed``.

Programs come from the five bundled specs with each spec's
``WorkloadSpec.seed`` re-derived from the benchmark seed (and a variant
number, where a workload wants several programs per spec), so a claim
can be rechecked on a seed nobody tuned against.  Request schedules are
drawn from ``random.Random`` seeded the same way.  The system under
test sees only the generated programs and requests.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.api import Session
from repro.ir.module import Program
from repro.ir.printer import format_program
from repro.workloads.generator import WorkloadSpec, generate_program
from repro.workloads.specs import WORKLOAD_NAMES, spec_for

#: Zipf exponent of request popularity over (trace, function) keys.
ZIPF_S = 1.1

Key = Tuple[str, str]


def spec(name: str, seed: int, variant: int = 0, scale: float = 1.0) -> WorkloadSpec:
    """Bundled spec ``name`` with its program seed derived from ``seed``."""
    base = spec_for(name)
    derived = (base.seed * 1_000_003 + seed * 7_919 + variant * 104_729) % (1 << 31)
    return replace(base, seed=derived, scale=scale)


def program(name: str, seed: int, variant: int = 0, scale: float = 1.0) -> Program:
    return generate_program(spec(name, seed, variant, scale))


#: Scale of the calibration run.
PROBE_SCALE = 0.1


def calibrated_scale(name: str, seed: int, variant: int, events: int) -> float:
    """Scale at which the program emits about ``events`` events."""
    with Session(jobs=1) as session:
        probe = len(session.trace(program(name, seed, variant, PROBE_SCALE)))
    return PROBE_SCALE * events / max(1, probe)


def programs(seed: int, variants: int, events: int) -> Dict[str, Program]:
    """``<spec>-<variant>`` -> program of about ``events`` events, for
    every bundled spec."""
    return {
        f"{name}-{variant}": program(
            name, seed, variant, calibrated_scale(name, seed, variant, events))
        for name in WORKLOAD_NAMES
        for variant in range(variants)
    }


def program_text(prog: Program) -> str:
    return format_program(prog) + "\n"


def zipf_keys(calls: Sequence[Tuple[str, str, int]]) -> Tuple[List[Key], List[float]]:
    """Keys ranked by call count (hottest first) with zipf weights."""
    ranked = sorted(calls, key=lambda row: (-row[2], row[0], row[1]))
    keys = [(trace, fn) for trace, fn, _ in ranked]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
    return keys, weights


def defined_vars(prog: Program, fn: str) -> List[str]:
    """Variables the function assigns, sorted (``def:<var>`` facts)."""
    func = prog.function(fn)
    names = set()
    for block in func.blocks.values():
        for stmt in block.statements:
            names.update(stmt.defs())
    return sorted(names)


def _per_trace(calls: Sequence[Tuple[str, str, int]]):
    per_trace: Dict[str, List[Tuple[str, str, int]]] = {}
    for row in calls:
        per_trace.setdefault(row[0], []).append(row)
    return [zipf_keys(rows) for _trace, rows in sorted(per_trace.items())]


def query_schedule(
    rng: random.Random, calls: Sequence[Tuple[str, str, int]], n: int
) -> List[Key]:
    """``n`` (trace, function) keys: a uniformly drawn trace, then a zipf
    draw over its functions ranked by call count.  Drawing the trace
    first keeps one program's hottest functions from deciding how the
    stream spreads over files, which otherwise swings cache hit ratios
    and latencies from seed to seed."""
    tables = _per_trace(calls)
    return [rng.choices(*rng.choice(tables))[0] for _ in range(n)]


def stratified_keys(
    rng: random.Random, calls: Sequence[Tuple[str, str, int]], per_trace: int
) -> List[Key]:
    """``per_trace`` keys of every trace, shuffled: within a trace, the
    zipf distribution of :func:`query_schedule` sampled systematically
    (evenly spaced points of its CDF from a seeded offset), so a few
    hundred requests follow it exactly instead of with the scatter of
    independent draws."""
    out: List[Key] = []
    for keys, weights in _per_trace(calls):
        total = sum(weights)
        offset = rng.random()
        cum, j = weights[0] / total, 0
        for k in range(per_trace):
            point = (k + offset) / per_trace
            while cum < point and j < len(keys) - 1:
                j += 1
                cum += weights[j] / total
            out.append(keys[j])
    rng.shuffle(out)
    return out


def analyze_schedule(
    rng: random.Random, calls: Sequence[Tuple[str, str, int]],
    progs: Dict[str, Program], n: int, per_trace: int = 10,
) -> List[Tuple[str, str, str]]:
    """``n`` (trace, function, fact) triples: rounds of
    :func:`stratified_keys`, each key with a ``def:<var>`` fact for a
    variable the function defines, so every request has real work to
    do.  A window completes only a few hundred analyze requests, so
    their keys are stratified rather than drawn independently."""
    keys: List[Key] = []
    while len(keys) < n:
        keys.extend(stratified_keys(rng, calls, per_trace))
    return [(trace, fn, "def:" + rng.choice(defined_vars(progs[trace], fn)))
            for trace, fn in keys[:n]]
