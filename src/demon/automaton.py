"""Moore specification automata and their centralized/decentralized semantics.

A specification is a deterministic, complete Moore automaton whose
transitions carry Boolean expressions over plain atoms and whose states
carry verdicts.  A decentralized specification attaches one such automaton
per monitor to a component; labels may reference other monitors by name.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import expr as ex
from .errors import (
    ConflictingObservation,
    RoundBudgetExceeded,
    SpecificationError,
)
from .expr import BOTTOM, TOP, UNKNOWN, Expr, Verdict
from .store import EMPTY_EVENT, Event, Memory, memory_merge

VERDICT_NAMES = {"top": TOP, "bottom": BOTTOM, "unknown": UNKNOWN}


@dataclass(frozen=True)
class Transition:
    src: str
    label: Expr
    dst: str


@dataclass(frozen=True, eq=False)
class Specification:
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]
    verdicts: Mapping[str, Verdict]

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise SpecificationError(f"initial state {self.initial!r} not in states")
        for q in self.states:
            if q not in self.verdicts:
                raise SpecificationError(f"state {q!r} has no verdict")
        for tr in self.transitions:
            if tr.src not in self.states or tr.dst not in self.states:
                raise SpecificationError(f"transition {tr.src}->{tr.dst} uses unknown state")

    def verdict_of(self, q: str) -> Verdict:
        return self.verdicts[q]

    @cached_property
    def by_source(self) -> dict[str, tuple[Transition, ...]]:
        """Transitions grouped by source state, in declaration order."""
        grouped: dict[str, list[Transition]] = {q: [] for q in self.states}
        for t in self.transitions:
            grouped[t.src].append(t)
        return {q: tuple(group) for q, group in grouped.items()}

    @cached_property
    def by_destination(self) -> dict[str, tuple[Transition, ...]]:
        """Transitions grouped by destination state, in declaration order."""
        grouped: dict[str, list[Transition]] = {q: [] for q in self.states}
        for t in self.transitions:
            grouped[t.dst].append(t)
        return {q: tuple(group) for q, group in grouped.items()}

    @cached_property
    def row_templates(self) -> dict:
        """``ehe.mov``'s :class:`ehe.Template` by constant source row and monitor
        names: the unstamped row and the rows of constants it steps to."""
        return {}

    @cached_property
    def stamps(self) -> dict:
        """``ehe.mov``'s stamped transition labels and template rows, one dict
        per (round, monitor names), oldest first; ``ehe`` bounds it."""
        return {}

    def outgoing(self, q: str) -> tuple[Transition, ...]:
        return self.by_source.get(q, ())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Specification)
            and self.states == other.states
            and self.initial == other.initial
            and self.transitions == other.transitions
            and dict(self.verdicts) == dict(other.verdicts)
        )


def make_spec(
    states: Iterable[str],
    initial: str,
    transitions: Iterable[tuple[str, str, str]],
    verdicts: Mapping[str, str | Verdict],
) -> Specification:
    """Convenience constructor: transitions as (src, label text, dst)."""
    vmap = {
        q: v if isinstance(v, Verdict) else VERDICT_NAMES[v] for q, v in verdicts.items()
    }
    trs = tuple(Transition(src, ex.parse_expr(label), dst) for src, label, dst in transitions)
    return Specification(tuple(states), initial, trs, vmap)


@dataclass
class ValidationReport:
    determinism: list[tuple[str, Expr, Expr]] = field(default_factory=list)
    completeness: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.determinism and not self.completeness


def validate(a: Specification) -> ValidationReport:
    """Check determinism (no two co-satisfiable labels per state) and
    completeness (outgoing labels disjoin to a tautology), exactly."""
    report = ValidationReport()
    for q in a.states:
        out = a.outgoing(q)
        for t1, t2 in itertools.combinations(out, 2):
            if ex.decide_constant(ex.conj(t1.label, t2.label)) is not BOTTOM:
                report.determinism.append((q, t1.label, t2.label))
        if ex.decide_constant(ex.disj_all(t.label for t in out)) is not TOP:
            report.completeness.append(q)
    return report


def normalize(a: Specification) -> Specification:
    """Disjoin parallel edges so each ordered state pair has at most one label."""
    grouped: dict[tuple[str, str], Expr] = {}
    for t in a.transitions:
        key = (t.src, t.dst)
        grouped[key] = ex.disj(grouped[key], t.label) if key in grouped else t.label
    transitions = tuple(
        Transition(src, label, dst) for (src, dst), label in sorted(grouped.items())
    )
    return Specification(a.states, a.initial, transitions, dict(a.verdicts))


def _plain_memory(evt: Event) -> Memory:
    """An event's memory over plain atoms, which unstamped labels read."""
    return {ex.plain(ap): verdict for ap, verdict in evt.observations}


def step(a: Specification, q: str, evt: Event) -> str:
    """One transition over an event; empty events (and events satisfying no
    label, which leave the automaton stuck) leave the state unchanged."""
    if evt.is_empty:
        return q
    memory = _plain_memory(evt)
    satisfied = [
        t for t in a.outgoing(q) if ex.eval_expr(t.label, memory) is TOP
    ]
    if len(satisfied) > 1:
        raise SpecificationError(
            f"state {q!r}: several labels satisfied at once (automaton not deterministic)"
        )
    return satisfied[0].dst if satisfied else q


def run(a: Specification, events: Sequence[Event]) -> str:
    """Left fold of ``step`` from the initial state."""
    q = a.initial
    for evt in events:
        q = step(a, q, evt)
    return q


# ---------------------------------------------------------------------------
# Decentralized specifications


@dataclass(frozen=True, eq=False)
class DecentralizedSpec:
    monitor_labels: tuple[str, ...]
    monitors: Mapping[str, Specification]
    components: tuple[str, ...]
    attach: Mapping[str, str]
    root: str
    ap_owner: Mapping[str, str]

    def __post_init__(self) -> None:
        labels = set(self.monitor_labels)
        if self.root not in labels:
            raise SpecificationError(f"root {self.root!r} is not a declared monitor")
        if set(self.monitors) != labels:
            raise SpecificationError("monitor map does not match declared labels")
        collisions = labels & set(self.ap_owner)
        if collisions:
            raise SpecificationError(
                f"names used both as monitor and proposition: {sorted(collisions)}"
            )
        for name, comp in self.attach.items():
            if comp not in self.components:
                raise SpecificationError(f"monitor {name!r} attached to unknown component")
        for ap, comp in self.ap_owner.items():
            if comp not in self.components:
                raise SpecificationError(f"proposition {ap!r} owned by unknown component")
        for name in self.monitor_labels:
            spec = self.monitors[name]
            comp = self.attach[name]
            for t in spec.transitions:
                for atom in ex.atoms_of(t.label):
                    if atom.kind != "ap":
                        raise SpecificationError(
                            f"monitor {name!r} label uses encoded atom {atom}"
                        )
                    if atom.name in labels:
                        if atom.name == name:
                            raise SpecificationError(f"monitor {name!r} references itself")
                    elif self.ap_owner.get(atom.name) != comp:
                        raise SpecificationError(
                            f"monitor {name!r} on {comp!r} uses proposition "
                            f"{atom.name!r} it cannot observe"
                        )


@dataclass(frozen=True)
class DecentralizedTrace:
    """Events per (round, component); rounds run from 1 to ``length``."""

    components: tuple[str, ...]
    length: int
    events: Mapping[tuple[int, str], Event]

    def __post_init__(self) -> None:
        if self.length < 0 or len(set(self.components)) < len(self.components):
            raise SpecificationError(f"trace needs distinct components and a length >= 0, "
                                     f"got {list(self.components)} and {self.length}")
        owner: dict[str, str] = {}
        for (t, comp), evt in self.events.items():
            if not 1 <= t <= self.length:
                raise SpecificationError(f"event at round {t} outside [1, {self.length}]")
            if comp not in self.components:
                raise SpecificationError(f"event for unknown component {comp!r}")
            for ap in evt.propositions():
                if owner.setdefault(ap, comp) != comp:
                    raise ConflictingObservation(
                        f"proposition {ap!r} observed by {owner[ap]!r} and {comp!r}"
                    )

    def at(self, t: int, component: str) -> Event:
        return self.events.get((t, component), EMPTY_EVENT)

    @cached_property
    def _owner(self) -> dict[str, str]:
        owner: dict[str, str] = {}
        for (_, comp), evt in sorted(self.events.items()):
            for ap in sorted(evt.propositions()):
                owner.setdefault(ap, comp)
        return owner

    def observed_owner(self) -> dict[str, str]:
        """A copy of the owner of each proposition, scanned once per trace."""
        return dict(self._owner)


def reconstruct_global(tr: DecentralizedTrace) -> list[Event]:
    """Per-round union of all components' events (the trace seen by a
    centralized observer)."""
    out = []
    for t in range(1, tr.length + 1):
        evt = EMPTY_EVENT
        seen: dict[str, str] = {}
        for comp in tr.components:
            local = tr.at(t, comp)
            for ap in local.propositions():
                if seen.setdefault(ap, comp) != comp:
                    raise ConflictingObservation(
                        f"round {t}: proposition {ap!r} reported by two components"
                    )
            evt = evt.union(local)
        out.append(evt)
    return out


def decentralized_run(d: DecentralizedSpec, tr: DecentralizedTrace) -> Verdict:
    """Reference semantics: evaluate the trace from the root monitor.

    Monitor references in a label at round ``i`` denote the referenced
    monitor's run over the trace suffix starting at ``i``; those runs are
    memoized on (monitor, round) since they are deterministic.  A cyclic
    reference chain raises RoundBudgetExceeded.
    """
    n = tr.length
    memo: dict[tuple[str, int], str] = {}
    in_progress: set[tuple[str, int]] = set()

    def run_from(label: str, i: int) -> str:
        key = (label, i)
        if key in memo:
            return memo[key]
        if key in in_progress:
            raise RoundBudgetExceeded(
                f"cyclic monitor references while evaluating {label!r} at round {i}"
            )
        in_progress.add(key)
        spec = d.monitors[label]
        q = spec.initial
        j = i
        while True:
            q = step_one(label, spec, q, j)
            if j >= n:
                break
            j += 1
        in_progress.discard(key)
        memo[key] = q
        return q

    def step_one(label: str, spec: Specification, q: str, i: int) -> str:
        evt = tr.at(i, d.attach[label])
        if evt.is_empty:
            return q
        memory = _plain_memory(evt)
        refs: set[str] = set()
        for t in spec.outgoing(q):
            refs |= ex.dep(t.label, d.monitor_labels)
        for ref in sorted(refs):
            q_final = run_from(ref, i)
            verdict = d.monitors[ref].verdict_of(q_final)
            memory = memory_merge(memory, {ex.plain(ref): verdict})
        satisfied = [
            t for t in spec.outgoing(q) if ex.eval_expr(t.label, memory) is TOP
        ]
        if len(satisfied) > 1:
            raise SpecificationError(f"monitor {label!r}: non-deterministic at {q!r}")
        return satisfied[0].dst if satisfied else q

    final = run_from(d.root, 1)
    return d.monitors[d.root].verdict_of(final)


# ---------------------------------------------------------------------------
# JSON file formats


def _mapping(data: dict, key: str, what: str) -> dict:
    """``data[key]``, which must be a JSON object mapping ``what``."""
    value = data[key]
    if not isinstance(value, dict):
        raise SpecificationError(f"key {key!r} must map {what}, got {value!r}")
    return value


def spec_from_dict(data: dict) -> Specification:
    try:
        verdicts = _mapping(data, "verdicts", "states to verdicts")
        transitions = [(t["from"], t["label"], t["to"]) for t in data["transitions"]]
        for _, label, _ in transitions:
            if not isinstance(label, str):
                raise SpecificationError(f"transition key 'label' must be a string, got {label!r}")
        return make_spec(data["states"], data["initial"], transitions, verdicts)
    except (KeyError, TypeError) as exc:
        raise SpecificationError(f"malformed specification object: {exc}") from exc


def dspec_from_dict(data: dict) -> DecentralizedSpec:
    try:
        specs = _mapping(data, "monitors", "monitor names to specifications")
        monitors = {name: spec_from_dict(spec) for name, spec in specs.items()}
        attach = _mapping(data, "attach", "monitor names to components")
        ap_owner = _mapping(data, "ap_owner", "propositions to components")
        components = data.get("components")
        if components is None:
            components = sorted(set(attach.values()) | set(ap_owner.values()))
        return DecentralizedSpec(
            monitor_labels=tuple(sorted(monitors)),
            monitors=monitors,
            components=tuple(components),
            attach=dict(attach),
            root=data["root"],
            ap_owner=dict(ap_owner),
        )
    except (KeyError, TypeError) as exc:
        raise SpecificationError(f"malformed decentralized specification: {exc}") from exc


def load_spec_file(path: str) -> Specification | DecentralizedSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise SpecificationError(f"specification file {path} nests too deeply") from None
    if not isinstance(data, dict):
        raise SpecificationError(
            f"specification file {path} must hold a JSON object, got {type(data).__name__}"
        )
    return any_spec_from_dict(data)


def any_spec_from_dict(data: dict) -> Specification | DecentralizedSpec:
    """A decentralized specification when ``data`` has monitors, else an automaton."""
    return dspec_from_dict(data) if "monitors" in data else spec_from_dict(data)
