"""Round-based simulation of decentralized monitoring.

Monitors execute in rounds under a bulk-synchronous model: every monitor
reads its component's observations for the round, processes delivered
messages, computes, and emits messages that become available ``comm_delay``
rounds later.  Four algorithms are provided: orchestration, migration with
the earliest-obligation and round-robin heuristics, and choreography.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from . import analysis, ehe as eh, ltl as lt, metrics as mt
from . import expr as ex
from .automaton import DecentralizedSpec, DecentralizedTrace, Specification
from .errors import IncompatiblePlacement, InvalidParameters, SpecificationError
from .expr import UNKNOWN, Verdict
from .store import EMPTY_MEMORY, Event, Memory, mem_from_event, memory_merge

ALGORITHMS = ("orch", "migr", "migrr", "chor")


@dataclass(frozen=True)
class SimConfig:
    algorithm: str
    comm_delay: int = 1
    initial_active: int = 1
    timeout_slack: int = 5

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise InvalidParameters(f"unknown algorithm {self.algorithm!r}")
        if self.comm_delay < 1:
            raise InvalidParameters("comm_delay must be >= 1")
        if self.initial_active < 1:
            raise InvalidParameters("initial_active must be >= 1")
        if self.timeout_slack < 0:
            raise InvalidParameters("timeout_slack must be >= 0")


@dataclass(frozen=True)
class Message:
    """What ``sender`` sends in round ``sent_at``, with one payload: a memory
    (``mem`` from an ``orch`` forwarder; ``verdict`` from a ``chor`` monitor,
    the one entry ``<t,&sender> ↦ v``), an encoding (``ehe``), or nothing
    (``kill``, sent by the ``chor`` root in the round whose verdict ends the
    run, so counted but never delivered)."""

    kind: str  # "mem" | "ehe" | "verdict" | "kill"
    sender: str
    receiver: str
    sent_at: int
    payload: Union[Memory, eh.EHE, None] = None


# ---------------------------------------------------------------------------
# Monitor states


@dataclass
class ForwarderState:
    name: str
    component: str
    main: str


@dataclass
class MainState:
    name: str
    component: str
    t_kn: int
    memory: Memory
    ehe: eh.EHE


@dataclass
class MigrationState:
    name: str
    component: str
    is_active: bool
    memory: Memory
    ehe: eh.EHE
    t_kn: int = 0


@dataclass
class ChorState:
    name: str
    component: str
    t_mon: int
    memory: Memory
    ehe: eh.EHE
    refs: frozenset[str]  # parents notified of verdicts; none at the root
    corefs: frozenset[str]  # children sending verdicts here
    t_kn: int = 0
    prefix_evals: int = 0  # what each _resolve would spend on the dropped rows


# Not ``typing.Union``, whose cache would keep this module alive (see traces).
MonitorState = ForwarderState | MainState | MigrationState | ChorState


@dataclass
class Setup:
    cfg: SimConfig
    network: analysis.Graph
    placements: dict[str, str]
    states: dict[str, MonitorState]
    ap_owner: dict[str, str] = field(default_factory=dict)
    monitor_names: frozenset[str] = frozenset()


@dataclass(frozen=True)
class SimRun:
    algorithm: str
    verdict: Verdict
    stop_round: int
    record: mt.MetricsRecord

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "verdict": self.verdict.value,
            "stop_round": self.stop_round,
            "summary": mt.summarize(self.record).as_dict(),
        }


# ---------------------------------------------------------------------------
# Setup


def _obligation_owners(p: eh.EHE, ap_owner: Mapping[str, str]) -> list[str]:
    """Components owning the timed atoms of ``p``, earliest obligation first:
    atoms ordered by (round, name), each component listed once."""
    visited: set[int] = set()
    atoms = sorted(
        {a for row in p.table.values() for cond in row.values()
         for a in ex.atom_set(cond, visited) if a.kind == "tap"},
        key=lambda a: (a.t, a.name),
    )
    owners: list[str] = []
    for atom in atoms:
        comp = ap_owner.get(atom.name)
        if comp is not None and comp not in owners:
            owners.append(comp)
    return owners


def setup(
    cfg: SimConfig,
    spec_input: Union[Specification, DecentralizedSpec, lt.Ltl],
    system: analysis.Graph,
    ap_owner: Mapping[str, str],
) -> Setup:
    """Create the monitor network, placements, and initial monitor states.

    ``orch``/``migr``/``migrr`` take a centralized specification. ``chor``
    takes a decentralized one, or an LTL formula that ``net_chor`` and
    :func:`assemble_choreography` turn into one; it places each monitor that
    the root reaches in the monitor dependency graph on its ``attach``
    component, with a channel from every referenced monitor to its referrer.

    Raises InvalidParameters when ``initial_active`` exceeds the component
    count, for every algorithm; SpecificationError for the wrong kind of
    specification and, under ``chor``, for a cyclic dependency graph, a
    monitor attached to a component outside ``system``, or a proposition that
    ``ap_owner`` (the trace) puts on another component than the spec does;
    and IncompatiblePlacement when the produced placement fails the
    compatibility check against the system graph.
    """
    comps = sorted(system.nodes)
    if cfg.initial_active > len(comps):
        msg = f"initial_active {cfg.initial_active} exceeds the {len(comps)} components"
        raise InvalidParameters(msg)
    if cfg.algorithm == "orch":
        spec = _expect_spec(spec_input)
        main_comp = comps[0]
        placements = {"m0": main_comp}
        states: dict[str, MonitorState] = {
            "m0": MainState("m0", main_comp, t_kn=0, memory=EMPTY_MEMORY, ehe=eh.init(spec))
        }
        edges = set()
        for comp in comps[1:]:
            name = f"f_{comp}"
            placements[name] = comp
            states[name] = ForwarderState(name, comp, "m0")
            edges.add((name, "m0"))
        network = analysis.Graph.of(sorted(placements), edges)
        result = Setup(cfg, network, placements, states, ap_owner=dict(ap_owner))
    elif cfg.algorithm in ("migr", "migrr"):
        spec = _expect_spec(spec_input)
        placements = {f"m_{comp}": comp for comp in comps}
        network = analysis.complete_graph(tuple(sorted(placements)))
        if cfg.algorithm == "migr":
            # earliest-obligation preference after one move from the start
            ranked = _obligation_owners(eh.mov(eh.init(spec), 0, 1), ap_owner)
        else:
            ranked = []
        for comp in comps:  # fill up deterministically
            if comp not in ranked:
                ranked.append(comp)
        active = set(ranked[: cfg.initial_active])
        states = {
            f"m_{comp}": MigrationState(
                f"m_{comp}", comp, is_active=comp in active,
                memory=EMPTY_MEMORY, ehe=eh.init(spec),
            )
            for comp in comps
        }
        result = Setup(cfg, network, placements, states, ap_owner=dict(ap_owner))
    else:  # choreography: the network is the reversed monitor dependency graph
        d = spec_input
        if isinstance(d, lt.Ltl):
            d = assemble_choreography(lt.net_chor(d, ap_owner), comps, ap_owner)
        elif not isinstance(d, DecentralizedSpec):
            raise SpecificationError("choreography requires an LTL formula or a "
                                     "decentralized specification")
        deps = analysis.mdg(d)
        if analysis.has_cycle(deps):
            raise SpecificationError("the monitor dependency graph has a cycle")
        placements = {m: d.attach[m] for m in sorted(analysis.compute_reach(deps)[d.root])}
        unplaced = sorted(set(placements.values()) - set(comps))
        if unplaced:
            raise SpecificationError(f"monitors attached to {unplaced} outside the system graph")
        moved = sorted(ap for ap, c in d.ap_owner.items() if ap_owner.get(ap, c) != c)
        if moved:
            raise SpecificationError(f"the trace observes {moved} off their ap_owner component")
        edges = {(child, parent) for parent, child in deps.edges if parent in placements}
        states = {
            name: ChorState(
                name=name,
                component=comp,
                t_mon=1,
                memory=EMPTY_MEMORY,
                ehe=eh.init(d.monitors[name]),
                refs=frozenset(p for c, p in edges if c == name),
                corefs=frozenset(c for c, p in edges if p == name),
            )
            for name, comp in placements.items()
        }
        result = Setup(cfg, analysis.Graph.of(placements, edges), placements, states,
                       ap_owner=dict(ap_owner), monitor_names=frozenset(placements))
    rm = analysis.compute_reach(result.network)
    rs = analysis.compute_reach(system)
    if not analysis.verify_compatible(result.placements, rm, rs):
        raise IncompatiblePlacement(
            "generated monitor network cannot be deployed on the system graph"
        )
    return result


def _expect_spec(spec_input) -> Specification:
    if not isinstance(spec_input, Specification):
        raise SpecificationError("this algorithm requires a centralized specification")
    return spec_input


def assemble_choreography(
    tree: lt.MonitorDataTree, components: Iterable[str], ap_owner: Mapping[str, str]
) -> DecentralizedSpec:
    """Synthesize one automaton per tree node and wrap them as a
    decentralized specification rooted at monitor m0."""
    monitors = {}
    attach = {}
    for m in tree.all_monitors():
        name = f"m{m.id}"
        monitors[name] = lt.synthesize(m.formula)
        attach[name] = m.component
    clashes = sorted(
        {ap for m in tree.all_monitors() for ap in lt.prop_occurrences(m.formula)}
        & monitors.keys()
    )
    if clashes:
        raise SpecificationError(f"propositions {clashes} are named like generated monitors")
    used_aps = {
        atom.name
        for spec in monitors.values()
        for t in spec.transitions
        for atom in ex.atoms_of(t.label)
        if atom.name not in monitors
    }
    missing = sorted(ap for ap in used_aps if ap not in ap_owner)
    if missing:
        raise SpecificationError(f"no owning component for propositions {missing}")
    return DecentralizedSpec(
        monitor_labels=tuple(sorted(monitors)),
        monitors=monitors,
        components=tuple(sorted(components)),
        attach=attach,
        root="m0",
        ap_owner={ap: ap_owner[ap] for ap in sorted(used_aps)},
    )


# ---------------------------------------------------------------------------
# Per-round monitor behavior


def _resolve(
    state: Union[MainState, MigrationState, ChorState],
    t: int,
    step: mt.Step,
    memo: Optional[dict[int, ex.Expr]] = None,
) -> tuple[Optional[Verdict], Optional[tuple[int, str]]]:
    """Resolve the automaton state at each encoded round in turn, advancing
    ``state.t_kn`` (and recording its delay) past every newly known round.
    Stops at the first unresolved round or final verdict; returns that verdict
    (or None) and the last resolved ``(round, state)`` (None when the first
    round is open), where :func:`ehe.drop_resolved` cuts."""
    memo = {} if memo is None else memo
    last = None
    for r in state.ehe.rounds():
        q = eh.sreach(state.ehe, state.memory, r, step=step, memo=memo)
        if q is None:
            break
        last = (r, q)
        if r > state.t_kn:
            step.delays += (t - r,)
            state.t_kn = r
        v = state.ehe.automaton.verdict_of(q)
        if v.is_final:
            return v, last
    return None, last


def orchestration_round(
    state: MonitorState,
    t: int,
    obs: Event,
    inbox: list[Message],
    step: mt.Step,
    setup: Setup,
) -> tuple[list[Message], Optional[Verdict]]:
    if isinstance(state, ForwarderState):
        if obs.is_empty:
            return [], None
        return [Message("mem", sender=state.name, receiver=state.main, sent_at=t,
                        payload=mem_from_event(obs, t))], None

    assert isinstance(state, MainState)
    for msg in inbox:
        state.memory = memory_merge(state.memory, msg.payload)
    if not obs.is_empty:
        state.memory = memory_merge(state.memory, mem_from_event(obs, t))
    end = state.ehe.last_round()
    if end < t:
        state.ehe = eh.mov(state.ehe, end, t, memory=state.memory)
    memo: dict[int, ex.Expr] = {}  # one rewrite cache: the memory is fixed for the round
    evals = step.evaluations
    verdict, last = _resolve(state, t, step, memo)
    if verdict is None:
        step.evaluations += step.evaluations - evals  # conv_e charges GC for these rows too
        kept = eh.drop_resolved(state.ehe, last)
        if kept is not state.ehe:
            # Without inc, kept rows still reach the dropped history: fold them (uncounted,
            # as orch never sends its encoding), then forget the memory: every atom is
            # stamped at or before t, and folded in.
            table = {r: {q: ex.rewrite_fold(c, state.memory, memo) for q, c in row.items()}
                     for r, row in kept.table.items()}
            kept = eh.EHE(kept.automaton, table)
            state.memory = EMPTY_MEMORY
        state.ehe = kept
        step.gc = _footprint(state.ehe)
    return [], verdict


def _drop_prefix(state: ChorState) -> None:
    """Drop the leading rows before ``t_kn`` (never the last) of constants with one
    TRUE: every later ``_resolve`` would pass each at the cost ``prefix_evals`` keeps."""
    rows = list(state.ehe.table.items())
    drop = 0
    while drop < len(rows) - 1 and rows[drop][0] < state.t_kn:
        row = rows[drop][1]
        conds = [c for _, c in sorted(row.items())]
        if not eh.is_constant_row(row) or conds.count(ex.TRUE) != 1:
            break
        state.prefix_evals += conds.index(ex.TRUE) + 1
        drop += 1
    if drop:
        state.ehe = eh.EHE(state.ehe.automaton, dict(rows[drop:]))


def _footprint(p: eh.EHE) -> tuple[int, int, int]:
    """(entries, round span, automaton states) of an encoding."""
    span = p.last_round() - p.first_round() + 1 if p.table else 0
    return len(p), span, len(p.automaton.states)


def _round_robin(components: list[str], own: str) -> str:
    i = components.index(own)
    return components[(i + 1) % len(components)]


def migration_round(
    state: MonitorState,
    t: int,
    obs: Event,
    inbox: list[Message],
    step: mt.Step,
    setup: Setup,
) -> tuple[list[Message], Optional[Verdict]]:
    assert isinstance(state, MigrationState)
    if not obs.is_empty:
        state.memory = memory_merge(state.memory, mem_from_event(obs, t))
    for msg in inbox:
        if state.is_active:
            state.ehe = eh.merge(state.ehe, msg.payload)
        else:
            state.ehe = msg.payload
            state.is_active = True
        state.t_kn = max(state.t_kn, msg.payload.first_round())
    if not state.is_active:
        return [], None
    end = state.ehe.last_round()
    if end < t:
        state.ehe = eh.mov(state.ehe, end, t, memory=state.memory)
    state.ehe = eh.inc(state.ehe, state.memory, step=step)
    evals = step.evaluations
    verdict, last = _resolve(state, t, step)
    if verdict is not None:
        return [], verdict
    step.evaluations += step.evaluations - evals  # conv_e charges GC for these rows too
    state.ehe = eh.drop_resolved(state.ehe, last)
    step.gc = _footprint(state.ehe)
    if setup.cfg.algorithm == "migr":
        owners = _obligation_owners(state.ehe, setup.ap_owner)
        target = owners[0] if owners else state.component
    else:
        target = _round_robin(sorted(set(setup.placements.values())), state.component)
    if target == state.component:
        return [], None
    state.is_active = False
    return [Message("ehe", sender=state.name, receiver=f"m_{target}", sent_at=t,
                    payload=state.ehe)], None


def choreography_round(
    state: MonitorState,
    t: int,
    obs: Event,
    inbox: list[Message],
    step: mt.Step,
    setup: Setup,
) -> tuple[list[Message], Optional[Verdict]]:
    assert isinstance(state, ChorState)
    name = state.name
    outbox: list[Message] = []
    for msg in inbox:
        state.memory = memory_merge(state.memory, msg.payload)
    if not obs.is_empty:
        state.memory = memory_merge(state.memory, mem_from_event(obs, t))

    mon_names = setup.monitor_names
    while True:
        base = state.ehe.first_round()
        if base > t:
            break  # instance anchored past the current round: nothing to do yet
        end = state.ehe.last_round()
        if end < t:
            state.ehe = eh.mov(state.ehe, end, t, mon_names, state.memory)
        state.ehe = eh.inc(state.ehe, state.memory, step=step)
        step.evaluations += state.prefix_evals
        found, _ = _resolve(state, t, step)
        if found is None:
            _drop_prefix(state)
            if not state.refs:  # the root has folded in every atom, all stamped <= t
                state.memory = EMPTY_MEMORY
            step.gc = _footprint(state.ehe)
            break
        if not state.refs:
            # The verdict ends the run: the kills are counted, never delivered.
            for child in sorted(state.corefs):
                outbox.append(Message("kill", sender=name, receiver=child, sent_at=t))
            return outbox, found
        payload = {ex.monref(state.t_mon, name): found}
        for parent in sorted(state.refs):
            outbox.append(Message("verdict", sender=name, receiver=parent, sent_at=t,
                                  payload=payload))
        anchor = state.t_mon
        state.t_mon = anchor + 1
        automaton = state.ehe.automaton
        state.ehe = eh.EHE(automaton, {anchor: {automaton.initial: ex.TRUE}})
        state.t_kn = anchor
        state.prefix_evals = 0
        state.memory = {a: v for a, v in state.memory.items() if a.t > anchor}
    return outbox, None


# ---------------------------------------------------------------------------
# Simulation loop


def simulate(
    cfg: SimConfig,
    spec_input: Union[Specification, DecentralizedSpec, lt.Ltl],
    system: analysis.Graph,
    tr: DecentralizedTrace,
) -> SimRun:
    """Run one monitoring algorithm over a decentralized trace.

    Rounds proceed to trace length plus the timeout slack; a final verdict
    reported by any monitor stops the run at the end of its round.  Raises
    InvalidParameters when ``system`` lacks a trace component, whose
    observations no monitor would read.
    """
    missing = sorted(set(tr.components) - set(system.nodes))
    if missing:
        raise InvalidParameters(f"trace components {missing} are not in the system graph")
    st = setup(cfg, spec_input, system, tr.observed_owner())
    record = mt.MetricsRecord(components=tuple(sorted(system.nodes)))
    horizon = tr.length + cfg.timeout_slack
    pending: list[Message] = []  # in send order
    reported: Optional[Verdict] = None
    stop_round = max(horizon, 1)
    if cfg.algorithm == "orch":
        round_fn = orchestration_round
    elif cfg.algorithm == "chor":
        round_fn = choreography_round
    else:
        round_fn = migration_round

    for t in range(1, horizon + 1):
        due = [m for m in pending if m.sent_at + cfg.comm_delay <= t]
        pending = [m for m in pending if m.sent_at + cfg.comm_delay > t]
        inboxes: dict[str, list[Message]] = {}
        for msg in sorted(due, key=lambda m: m.sender):  # stable: FIFO per sender
            inboxes.setdefault(msg.receiver, []).append(msg)
        for name in sorted(st.states):
            step = mt.Step(t, name, st.placements[name])
            obs = tr.at(t, step.component)
            outbox, verdict = round_fn(st.states[name], t, obs, inboxes.get(name, []), step, st)
            if outbox:
                step.sent = tuple((msg.kind, mt.size_of(msg)) for msg in outbox)
                pending.extend(outbox)
            record.steps.append(step)
            if verdict is not None and verdict.is_final and reported is None:
                reported = verdict
        if cfg.algorithm in ("migr", "migrr"):
            record.active_counts.append(
                sum(
                    1
                    for s in st.states.values()
                    if isinstance(s, MigrationState) and s.is_active
                )
            )
        if reported is not None:
            stop_round = t
            break

    record.run_length = stop_round
    return SimRun(cfg.algorithm, reported if reported is not None else UNKNOWN, stop_round, record)
