"""Partial-function stores: the generic merge operator, memories, and events.

Memories are the CvRDT the monitors replicate: merging keeps, per atom, the
highest verdict under the order UNKNOWN < BOTTOM < TOP, so merges are
idempotent, commutative and associative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, TypeVar

from .errors import ConflictingObservation
from .expr import Atom, Verdict, VERDICT_RANK, timed

K = TypeVar("K")
V = TypeVar("V")


def merge_with(f: Mapping[K, V], g: Mapping[K, V], op: Callable[[V, V], V]) -> dict[K, V]:
    """Pointwise merge: ``op`` on shared keys, pass-through elsewhere."""
    out = dict(f)
    for key, value in g.items():
        if key in out:
            out[key] = op(out[key], value)
        else:
            out[key] = value
    return out


def _replace_max(a: Verdict, b: Verdict) -> Verdict:
    return b if VERDICT_RANK[a] < VERDICT_RANK[b] else a


@dataclass(frozen=True)
class Event:
    """A set of observations (proposition, final verdict) made in one round."""

    observations: frozenset[tuple[str, Verdict]] = frozenset()

    def __post_init__(self) -> None:
        seen: dict[str, Verdict] = {}
        for ap, verdict in self.observations:
            if not verdict.is_final:
                raise ConflictingObservation(f"observation of {ap!r} must be final")
            if ap in seen and seen[ap] is not verdict:
                raise ConflictingObservation(f"{ap!r} observed both true and false")
            seen[ap] = verdict

    @staticmethod
    def of(*observations: tuple[str, Verdict]) -> "Event":
        return Event(frozenset(observations))

    @property
    def is_empty(self) -> bool:
        return not self.observations

    def union(self, other: "Event") -> "Event":
        return Event(self.observations | other.observations)

    def propositions(self) -> set[str]:
        return {ap for ap, _ in self.observations}


EMPTY_EVENT = Event()


@dataclass(frozen=True)
class Memory:
    """Partial map from atoms to verdicts; the value store of every monitor."""

    entries: Mapping[Atom, Verdict] = field(default_factory=dict)

    def get(self, atom: Atom, default: Optional[Verdict] = None) -> Optional[Verdict]:
        return self.entries.get(atom, default)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Memory) and dict(self.entries) == dict(other.entries)

    def items(self) -> Iterable[tuple[Atom, Verdict]]:
        return self.entries.items()

    def domain(self) -> set[Atom]:
        return set(self.entries)


EMPTY_MEMORY = Memory()


def memory_merge(m1: Memory, m2: Memory, strict: bool = False) -> Memory:
    """Replace-merge of two memories (the highest verdict wins per atom).

    With ``strict`` set, a key carrying TOP on one side and BOTTOM on the
    other raises instead of being silently resolved; such conflicts cannot
    occur in valid runs but are worth surfacing while debugging.
    """
    if strict:
        for atom, verdict in m2.items():
            mine = m1.get(atom)
            if mine is not None and mine.is_final and verdict.is_final and mine is not verdict:
                raise ConflictingObservation(f"conflicting final verdicts for {atom}")
    return Memory(merge_with(m1.entries, m2.entries, _replace_max))


def mem_from_event(evt: Event, t: int) -> Memory:
    """The memory of an event observed at round ``t``, each ap stamped <t,ap>."""
    return Memory({timed(t, ap): verdict for ap, verdict in evt.observations})
