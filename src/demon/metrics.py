"""Per-round metric collection and the aggregate measures used to compare
monitoring algorithms: information delay, message counts and sizes under a
byte-encoding model, simplification counts, and convergence.

A run records one :class:`Step` per (round, monitor); every summary figure
is a fold over those steps."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Mapping, Optional

from . import expr as ex
from .ehe import EHE
from .expr import Atom, Expr, Verdict
from .store import Memory

# Byte-encoding model: one byte per name character, a round number is an
# int, a truth value is one byte.
CHAR_BYTES = 1
INT_BYTES = 4
VERDICT_BYTES = 1


def atom_size(a: Atom) -> int:
    name = len(a.name) * CHAR_BYTES
    if a.kind == "ap":
        return name
    return INT_BYTES + name  # timestamped atoms carry a round number


def expr_size(e: Expr, memo: Optional[dict] = None) -> int:
    """Serialized size: per-atom cost plus one byte per operator node and a verdict
    byte per constant (tree size, shared subtrees counted repeatedly; ``memo``)."""
    return ex.bottom_up(
        e,
        {} if memo is None else memo,
        lambda node: atom_size(node.atom),
        lambda _: VERDICT_BYTES,
        lambda n: 1 + n,
        lambda _, l, r: 1 + l + r,
    )


def memory_size(m: Memory) -> int:
    total = 0
    for a in m:  # atom_size(a) + VERDICT_BYTES, priced inline
        total += len(a.name) * CHAR_BYTES + VERDICT_BYTES + INT_BYTES * (a.kind != "ap")
    return total


def ehe_size(p: EHE) -> int:
    total = 0
    memo: dict = {}
    for row in p.table.values():
        for q, cond in row.items():
            total += INT_BYTES + len(q) * CHAR_BYTES + expr_size(cond, memo)
    return total


def size_of(value) -> int:
    """Byte size of a memory, EHE, expression, or message (anything with a
    ``payload``) under the model.  A message costs its payload's size, or its
    sender's id when it has none."""
    if hasattr(value, "payload"):
        if value.payload is None:
            return len(value.sender) * CHAR_BYTES
        value = value.payload
    if isinstance(value, dict):
        return memory_size(value)
    if isinstance(value, EHE):
        return ehe_size(value)
    if isinstance(value, Expr):
        return expr_size(value)
    raise TypeError(f"no size defined for {type(value).__name__}")


@dataclass(slots=True)
class Step:
    """What one monitor did in one round.  Idle steps share the empty
    tuples, so only monitors that resolve or send allocate."""

    t: int
    monitor: str
    component: str
    evaluations: int = 0  # conditions evaluated by state resolution
    simplifications: int = 0  # full simplifier calls while incorporating memory
    delays: tuple[int, ...] = ()  # t - r for each round r newly resolved
    gc: Optional[tuple[int, int, int]] = None  # (entries, round span, states) after GC
    sent: tuple[tuple[str, int], ...] = ()  # (kind, bytes) per message sent

    @property
    def bytes_sent(self) -> int:
        return sum(size for _, size in self.sent)


@dataclass
class MetricsRecord:
    """A run's steps in execution order; aggregation happens in
    :func:`summarize`."""

    components: tuple[str, ...]
    steps: list[Step] = field(default_factory=list)
    run_length: int = 0

    @property
    def messages(self) -> dict[tuple[int, str], int]:
        """Messages sent, by (round, monitor)."""
        return {(s.t, s.monitor): len(s.sent) for s in self.steps if s.sent}

    @property
    def bytes_sent(self) -> dict[tuple[int, str], int]:
        """Bytes sent, by (round, monitor)."""
        return {(s.t, s.monitor): s.bytes_sent for s in self.steps if s.sent}


def _work_table(rec: MetricsRecord) -> dict[int, list[int]]:
    """Work per round, one column per component in ``rec.components``
    order; rows appear on first use."""
    return defaultdict(lambda: [0] * len(rec.components))


def _distance(table: Mapping[int, list[int]], rec: MetricsRecord) -> float:
    """Convergence, the load-balance distance: mean over rounds of the squared
    gaps between each component's work share and the even share 1/|C|.
    Rounds with no work at all contribute 0."""
    ncomp = len(rec.components)
    total = 0.0
    for t in sorted(table):
        s_t = sum(table[t])
        if s_t:
            total += sum((s_c / s_t - 1.0 / ncomp) ** 2 for s_c in table[t])
    return total / max(rec.run_length, 1)


@dataclass(frozen=True)
class Summary:
    """A run's figures; each field declares its column in the CSV row and the
    JSON summary, in field order."""

    average_delay: float = field(metadata={"column": "delay"})
    messages_per_round: float = field(metadata={"column": "msgs"})
    data_per_round: float = field(metadata={"column": "data"})
    data_per_message: float = field(metadata={"column": "msg_size"})
    critical_simplifications: float = field(metadata={"column": "s_crit"})
    max_simplifications: int = field(metadata={"column": "s_max"})
    convergence_simplifications: float = field(metadata={"column": "conv_s"})
    convergence_evaluations: float = field(metadata={"column": "conv_e"})

    def as_dict(self) -> dict:
        return {f.metadata["column"]: getattr(self, f.name) for f in fields(self)}


def summarize(rec: MetricsRecord) -> Summary:
    """Aggregate a run in one pass over its steps, adding only non-zero
    counters (a zero adds nothing that :func:`_distance` reads): average delay
    over resolutions, message count and data normalized by run length, per-round
    critical simplifications, the worst per-monitor round, and convergence."""
    n = max(rec.run_length, 1)
    delay_sum = delay_count = total_msgs = total_bytes = 0
    crit: dict[int, int] = defaultdict(int)  # round -> worst monitor's simplifications
    simplifications, evaluations = _work_table(rec), _work_table(rec)
    columns = {c: i for i, c in enumerate(rec.components)}
    for s in rec.steps:  # each counter read once
        delays, sent, simp, evals = s.delays, s.sent, s.simplifications, s.evaluations
        if delays:
            delay_sum += sum(delays)
            delay_count += len(delays)
        if sent:
            total_msgs += len(sent)
            for _, size in sent:
                total_bytes += size
        if simp or evals:
            t, column = s.t, columns[s.component]
            if simp:
                if simp > crit[t]:
                    crit[t] = simp
                simplifications[t][column] += simp
            if evals:
                evaluations[t][column] += evals
    return Summary(
        average_delay=delay_sum / delay_count if delay_count else 0.0,
        messages_per_round=total_msgs / n,
        data_per_round=total_bytes / n,
        data_per_message=total_bytes / total_msgs if total_msgs else 0.0,
        critical_simplifications=sum(crit.values()) / n,
        max_simplifications=max(crit.values(), default=0),
        convergence_simplifications=_distance(simplifications, rec),
        convergence_evaluations=_distance(evaluations, rec),
    )


CSV_HEADER = ["algorithm", "components", "spec", "trace", "verdict", "stop_round",
              *(f.metadata["column"] for f in fields(Summary))]


def csv_row(
    algorithm: str,
    ncomp: int,
    spec_id: str,
    trace_id: str,
    verdict: Verdict,
    stop_round: int,
    summary: Summary,
) -> list[str]:
    figures = [format(getattr(summary, f.name), "d" if f.type == "int" else ".6f")
               for f in fields(summary)]  # ``f.type`` is a string: annotations are lazy
    return [algorithm, str(ncomp), spec_id, trace_id, verdict.value, str(stop_round), *figures]
