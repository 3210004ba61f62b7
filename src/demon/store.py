"""Partial-function stores: the generic merge operator, memories, and events.

Memories are plain dicts from atoms to verdicts and are the CvRDT the
monitors replicate: :func:`memory_merge` keeps, per atom, the highest verdict
under the order UNKNOWN < BOTTOM < TOP, so merges are idempotent, commutative
and associative.  Each monitor owns its memory and merges into it in place;
what it merges in, such as a message payload, never changes.  Encodings merge
through :func:`merge_with`, which builds a new dict (see :func:`ehe.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, TypeVar

from .errors import ConflictingObservation
from .expr import Atom, TOP, UNKNOWN, Verdict, timed

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
    """The higher of ``a`` and ``b`` under UNKNOWN < BOTTOM < TOP, decided
    by identity."""
    return b if b is TOP or a is UNKNOWN else a


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

# Shared and never changed: merging into it gives a new dict.
EMPTY_MEMORY: Memory = {}


def memory_merge(memory: Memory, m: Memory) -> Memory:
    """Merge ``m`` into ``memory`` in place (the highest verdict wins per
    atom) and return it, or a new dict for :data:`EMPTY_MEMORY`.  ``m`` is
    only read; to keep both operands, merge into a copy."""
    memory = {} if memory is EMPTY_MEMORY else memory
    for atom, verdict in m.items():
        mine = memory.get(atom)
        memory[atom] = verdict if mine is None else _replace_max(mine, verdict)
    return memory


def mem_from_event(evt: Event, t: int) -> Memory:
    """The memory of an event observed at round ``t``, each ap stamped <t,ap>."""
    return {timed(t, ap): verdict for ap, verdict in evt.observations}
