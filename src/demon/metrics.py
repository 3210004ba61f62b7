"""Per-round metric collection and the aggregate measures used to compare
monitoring algorithms: information delay, message counts and sizes under a
byte-encoding model, simplification counts, and convergence."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import expr as ex
from .ehe import EHE
from .expr import Atom, Expr, UNKNOWN, Verdict
from .store import Memory


@dataclass(frozen=True)
class SizeModel:
    char_bytes: int = 1
    int_bytes: int = 4
    verdict_bytes: int = 1

    def __post_init__(self) -> None:
        if min(self.char_bytes, self.int_bytes, self.verdict_bytes) <= 0:
            raise ValueError("size model entries must be positive")


DEFAULT_SIZE_MODEL = SizeModel()


def atom_size(a: Atom, sm: SizeModel = DEFAULT_SIZE_MODEL) -> int:
    name = len(a.name) * sm.char_bytes
    if a.kind == "ap":
        return name
    return sm.int_bytes + name  # timestamped atoms carry a round number


def expr_size(e: Expr, sm: SizeModel = DEFAULT_SIZE_MODEL) -> int:
    """Serialized size: per-atom cost plus one byte per operator node and a
    verdict byte per constant (tree size, shared subtrees counted repeatedly)."""
    return ex.bottom_up(
        e,
        {},
        lambda node: atom_size(node.atom, sm),
        lambda _: sm.verdict_bytes,
        lambda n: 1 + n,
        lambda _, l, r: 1 + l + r,
    )


def memory_size(m: Memory, sm: SizeModel = DEFAULT_SIZE_MODEL) -> int:
    return sum(atom_size(a, sm) + sm.verdict_bytes for a, _ in m.items())


def ehe_size(p: EHE, sm: SizeModel = DEFAULT_SIZE_MODEL) -> int:
    total = 0
    for (t, q), cond in p.entries.items():
        total += sm.int_bytes + len(q) * sm.char_bytes + expr_size(cond, sm)
    return total


def size_of(value, sm: SizeModel = DEFAULT_SIZE_MODEL) -> int:
    """Byte size of a memory, EHE, expression, or message under the model."""
    from .engine import Message  # local import; engine depends on metrics

    if isinstance(value, Memory):
        return memory_size(value, sm)
    if isinstance(value, EHE):
        return ehe_size(value, sm)
    if isinstance(value, Expr):
        return expr_size(value, sm)
    if isinstance(value, Message):
        if value.kind == "mem":
            return memory_size(value.memory, sm)
        if value.kind == "ehe":
            return ehe_size(value.ehe, sm)
        if value.kind == "verdict":
            return len(value.sender) * sm.char_bytes + sm.int_bytes + sm.verdict_bytes
        assert value.kind == "kill"
        return len(value.sender) * sm.char_bytes
    raise TypeError(f"no size defined for {type(value).__name__}")


@dataclass
class OpStats:
    """Counters threaded through one monitor's work in one round."""

    evaluations: int = 0
    simplifications: int = 0


@dataclass
class MetricsRecord:
    """Raw per-run counters; aggregation happens in :func:`summarize`."""

    components: tuple[str, ...]
    monitor_component: dict[str, str] = field(default_factory=dict)
    simplifications: dict[tuple[int, str], int] = field(default_factory=dict)
    evaluations: dict[tuple[int, str], int] = field(default_factory=dict)
    messages: dict[tuple[int, str], int] = field(default_factory=dict)
    bytes_sent: dict[tuple[int, str], int] = field(default_factory=dict)
    message_log: list[tuple[int, str, str, int]] = field(default_factory=list)
    delay_samples: list[int] = field(default_factory=list)
    gc_samples: list[tuple[int, int, int]] = field(default_factory=list)
    active_counts: list[int] = field(default_factory=list)
    run_length: int = 0
    verdict: Verdict = UNKNOWN

    def add_stats(self, t: int, monitor: str, stats: OpStats) -> None:
        key = (t, monitor)
        if stats.simplifications:
            self.simplifications[key] = (
                self.simplifications.get(key, 0) + stats.simplifications
            )
        if stats.evaluations:
            self.evaluations[key] = self.evaluations.get(key, 0) + stats.evaluations

    def add_message(self, t: int, sender: str, kind: str, size: int) -> None:
        key = (t, sender)
        self.messages[key] = self.messages.get(key, 0) + 1
        self.bytes_sent[key] = self.bytes_sent.get(key, 0) + size
        self.message_log.append((t, sender, kind, size))

    def per_round_messages(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (t, _), n in self.messages.items():
            out[t] = out.get(t, 0) + n
        return out

    def per_component(self, counters: Mapping[tuple[int, str], int], t: int) -> dict[str, int]:
        out = {c: 0 for c in self.components}
        for (rt, monitor), n in counters.items():
            if rt == t:
                out[self.monitor_component[monitor]] += n
        return out


def convergence(rec: MetricsRecord, counter: str = "simplifications") -> float:
    """Load-balance distance: mean over rounds of the squared gaps between
    each component's work share and the even share 1/|C|.

    Rounds with no work at all contribute 0.
    """
    counters = getattr(rec, counter)
    n = max(rec.run_length, 1)
    ncomp = len(rec.components)
    total = 0.0
    for t in range(1, n + 1):
        per_comp = rec.per_component(counters, t)
        s_t = sum(per_comp.values())
        if s_t == 0:
            continue
        total += sum((s_c / s_t - 1.0 / ncomp) ** 2 for s_c in per_comp.values())
    return total / n


@dataclass(frozen=True)
class Summary:
    average_delay: float
    messages_per_round: float
    data_per_round: float
    data_per_message: float
    critical_simplifications: float
    max_simplifications: int
    convergence_simplifications: float
    convergence_evaluations: float

    def as_dict(self) -> dict:
        return {
            "delay": self.average_delay,
            "msgs": self.messages_per_round,
            "data": self.data_per_round,
            "msg_size": self.data_per_message,
            "s_crit": self.critical_simplifications,
            "s_max": self.max_simplifications,
            "conv_s": self.convergence_simplifications,
            "conv_e": self.convergence_evaluations,
        }


def summarize(rec: MetricsRecord) -> Summary:
    """Aggregate a run: average delay over resolutions, message count and data
    normalized by run length, per-round critical simplifications, the worst
    per-monitor round, and convergence for both counters."""
    n = max(rec.run_length, 1)
    delay = (
        sum(rec.delay_samples) / len(rec.delay_samples) if rec.delay_samples else 0.0
    )
    total_msgs = sum(rec.messages.values())
    total_bytes = sum(rec.bytes_sent.values())
    crit = 0
    for t in range(1, n + 1):
        per_monitor = [v for (rt, _), v in rec.simplifications.items() if rt == t]
        if per_monitor:
            crit += max(per_monitor)
    s_max = max(rec.simplifications.values(), default=0)
    return Summary(
        average_delay=delay,
        messages_per_round=total_msgs / n,
        data_per_round=total_bytes / n,
        data_per_message=total_bytes / total_msgs if total_msgs else 0.0,
        critical_simplifications=crit / n,
        max_simplifications=s_max,
        convergence_simplifications=convergence(rec, "simplifications"),
        convergence_evaluations=convergence(rec, "evaluations"),
    )


CSV_HEADER = [
    "algorithm",
    "components",
    "spec",
    "trace",
    "verdict",
    "stop_round",
    "delay",
    "msgs",
    "data",
    "msg_size",
    "s_crit",
    "s_max",
    "conv_s",
    "conv_e",
]


def csv_row(
    algorithm: str,
    ncomp: int,
    spec_id: str,
    trace_id: str,
    verdict: Verdict,
    stop_round: int,
    summary: Summary,
) -> list[str]:
    d = summary.as_dict()
    return [
        algorithm,
        str(ncomp),
        spec_id,
        trace_id,
        verdict.value,
        str(stop_round),
        f"{d['delay']:.6f}",
        f"{d['msgs']:.6f}",
        f"{d['data']:.6f}",
        f"{d['msg_size']:.6f}",
        f"{d['s_crit']:.6f}",
        str(d["s_max"]),
        f"{d['conv_s']:.6f}",
        f"{d['conv_e']:.6f}",
    ]
