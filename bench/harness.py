"""Closed-loop timing of ``engine.simulate`` + ``metrics.summarize``.

One client, one run at a time: each run starts when the previous one has
returned.  A pass runs every case of the workload once, in an order shuffled
per pass; passes repeat until the time budget is spent, and each case's time
is its median over passes.

Times are reference-normalised seconds.  On a shared 2-vCPU host the same
pure-Python loop alternates between speeds about 1.5x apart for seconds at a
time, so a whole run can land in the slow phase: over five fresh processes
on one input, ``runs_per_s`` in host seconds spread by 34% (IQR/median).
Before every case the pass times a fixed, interpreter-bound reference unit
that does not touch ``demon``; each pass's host seconds are scaled by
``REF_S`` over the mean unit time of that pass, which turns host seconds into
seconds at a fixed host speed.  The mean, not the median, because a pass
mixes both speeds and the mean follows the mix.  Host-second totals are kept
alongside, for reference.

Outputs are checked outside the timed region: every verdict against the
reference semantics, and the SHA-256 of the sorted ``metrics.csv_row`` rows
of every pass against each other and against the digests recorded for known
seeds.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from tracer import COUNT_ONLY, NAMES
from workloads import ALGORITHMS

REF_S = 0.002  # nominal duration of one reference unit


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def reference_unit() -> int:
    """Fixed interpreter-bound work in the style of the simulator (frozen
    dataclasses, tuple keys, dict updates, hashing, sorting), about 2 ms."""
    memo: dict = {}
    nodes = []
    for i in range(1200):
        n = _Node("and" if i % 2 else "or", i % 17, (i * 7) % 23)
        nodes.append(n)
        key = (n.op, n.left, n.right)
        memo[key] = memo.get(key, 0) + 1
    total = 0
    for n in sorted(nodes, key=lambda n: (n.left, n.right)):
        if isinstance(n.left, int):
            total += hash(n) & 7
    return total + len(frozenset(memo))


def unit_seconds() -> float:
    start = perf_counter()
    reference_unit()
    return perf_counter() - start


@dataclass
class Pass:
    """Outcome of running every case once; ``seconds`` (host) is indexed by
    case, ``unit_s`` holds the reference-unit times taken during the pass."""

    seconds: list[float]
    rows: list[list[str]]
    failures: list[tuple[int, str]]
    unit_s: list[float] = field(default_factory=list)
    messages: int = 0
    message_bytes: int = 0

    @property
    def digest(self) -> str:
        return rows_digest(self.rows)

    @property
    def scale(self) -> float:
        """Host seconds to normalised seconds."""
        return REF_S / statistics.fmean(self.unit_s)

    def normalised(self) -> list[float]:
        return [t * self.scale for t in self.seconds]


@dataclass
class Measurement:
    passes: list[Pass] = field(default_factory=list)
    wall_s: float = 0.0

    def case_seconds(self) -> list[float]:
        """Each case's normalised time: its median over passes."""
        return [statistics.median(ts) for ts in zip(*(p.normalised() for p in self.passes))]


def rows_digest(rows) -> str:
    text = "\n".join(",".join(row) for row in sorted(rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pass(cases, expected, order=None, tracer=None) -> Pass:
    """Run every case once, in ``order`` (case indices; default: as given).
    A run that raises, or whose verdict differs from ``expected``, is
    recorded as a failure; the pass goes on."""
    from demon import engine as en
    from demon import metrics as mt

    out = Pass([0.0] * len(cases), [], [])
    for i in range(len(cases)) if order is None else order:
        case = cases[i]
        out.unit_s.append(unit_seconds())
        if tracer is not None:
            tracer.run_id = i
        start = perf_counter()
        try:
            result = en.simulate(case.config, case.spec_input, case.system, case.trace)
            summary = mt.summarize(result.record)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            out.seconds[i] = perf_counter() - start
            out.failures.append((i, f"{type(exc).__name__}: {exc}"))
            out.rows.append([case.algorithm, str(case.ncomp), case.spec_id, case.trace_id,
                             "error", type(exc).__name__])
            continue
        out.seconds[i] = perf_counter() - start
        out.rows.append(mt.csv_row(case.algorithm, case.ncomp, case.spec_id, case.trace_id,
                                   result.verdict, result.stop_round, summary))
        out.messages += sum(result.record.messages.values())
        out.message_bytes += sum(result.record.bytes_sent.values())
        if result.verdict is not expected[i]:
            out.failures.append(
                (i, f"verdict {result.verdict.value} != reference {expected[i].value}")
            )
    return out


def measure(cases, expected, seconds: float) -> Measurement:
    """Repeat passes while another pass of the median length still fits in
    ``seconds`` (host time); at least one pass runs.  The pass orders are
    fixed."""
    m = Measurement()
    order = list(range(len(cases)))
    rng = random.Random(0)
    start = perf_counter()
    while True:
        rng.shuffle(order)
        pass_start = perf_counter()
        m.passes.append(run_pass(cases, expected, order))
        m.wall_s = perf_counter() - start
        if m.wall_s + (perf_counter() - pass_start) > seconds:
            return m


def tail(samples, beyond: int = 10) -> tuple[int, float]:
    """(p, value) for the highest integer percentile p, by nearest rank, with
    at least ``beyond`` samples above it."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100)
        if n - k >= beyond:
            return p, s[k - 1]
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(cases, m: Measurement, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and the tail's percentile
    and sample count."""
    times = m.case_seconds()
    metrics = {"runs_per_s": (len(cases) / sum(times), "1/s")}
    for alg in ALGORITHMS:
        mine = [t for case, t in zip(cases, times) if case.algorithm == alg]
        metrics[f"{alg}.runs_per_s"] = (len(mine) / sum(mine), "1/s")
    p, value = tail(times)
    metrics["run_ms_p50"] = (statistics.median(times) * 1000.0, "ms")
    metrics["run_ms_tail"] = (value * 1000.0, "ms")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, {"percentile": p, "samples": len(times)}


def per_layer(cases, tracer, traced: Pass, untraced_runs_per_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced pass plus the
    traced set-up before it."""
    out = {}
    for name, calls, self_s in zip(NAMES, tracer.calls, tracer.self_s):
        out[f"{name}.calls"] = (calls, "count")
        if name not in COUNT_ONLY:
            out[f"{name}.self_s"] = (self_s, "s")
    out["engine.self_s"] = (
        sum(s for name, s in zip(NAMES, tracer.self_s) if name.startswith("engine.")), "s"
    )
    out["engine.messages"] = (traced.messages, "count")
    out["engine.message_bytes"] = (traced.message_bytes, "bytes")
    for alg in ALGORITHMS:
        runs = [i for i, case in enumerate(cases) if case.algorithm == alg]
        out[f"{alg}.step_growth"] = (tracer.step_growth(runs), "ratio")
    g = tracer.gauges
    calls = tracer.counts()

    def ratio(hits, name):
        return hits / calls[name] if calls[name] else 0.0

    out["ehe.entries_max"] = (g["ehe.entries_max"], "count")
    out["ehe.sreach.resolved_ratio"] = (ratio(g["ehe.sreach.resolved"], "ehe.sreach"), "ratio")
    out["ehe.drop_resolved.useful_ratio"] = (
        ratio(g["ehe.drop_resolved.useful"], "ehe.drop_resolved"), "ratio")
    out["expr.decide_constant.decided_ratio"] = (
        ratio(g["expr.decide_constant.decided"], "expr.decide_constant"), "ratio")
    out["expr.truth_table.atoms_max"] = (g["expr.truth_table.atoms_max"], "count")
    out["store.memory_atoms_max"] = (g["store.memory_atoms_max"], "count")
    out["ltl.synthesize.states"] = (g["ltl.synthesize.states"], "count")
    traced_runs_per_s = len(cases) / sum(traced.normalised())
    out["trace.overhead"] = (untraced_runs_per_s / traced_runs_per_s, "ratio")
    return out
