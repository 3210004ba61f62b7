"""Partial-function stores: the generic merge operator, memories, and events.

Memories are plain dicts from atoms to verdicts and are the CvRDT the
monitors replicate: :func:`memory_merge` is :func:`merge_with` keeping, per
atom, the highest verdict under the order UNKNOWN < BOTTOM < TOP, so merges
are idempotent, commutative and associative.  Encodings merge through the
same :func:`merge_with` (see :func:`ehe.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, TypeVar

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


Memory = dict[Atom, Verdict]  # partial map from atoms to verdicts: every monitor's value store

# Memories are never changed once built, so this one is shared freely.
EMPTY_MEMORY: Memory = {}


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
    return merge_with(m1, m2, _replace_max)


def mem_from_event(evt: Event, t: int) -> Memory:
    """The memory of an event observed at round ``t``, each ap stamped <t,ap>."""
    return {timed(t, ap): verdict for ap, verdict in evt.observations}
