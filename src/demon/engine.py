"""Round-based simulation of decentralized monitoring.

Monitors execute in rounds under a bulk-synchronous model: every monitor
reads its component's observations for the round, processes delivered
messages, computes, and emits messages that become available ``comm_delay``
rounds later.  Four algorithms are provided: orchestration, migration with
the earliest-obligation and round-robin heuristics, and choreography.

All four share one monitor state and one round step, the general
decentralized algorithm: take in the inbox (a memory merges into the
memory, an encoding into the encoding, or activates it) and the
observation, ``mov`` the encoding to the round and fold it with ``inc``,
resolve, collect garbage and send.  Each algorithm's ``Policy`` says what
differs: ``orch`` runs no ``inc``; ``orch``, ``migr`` and ``migrr`` cut at
the last resolved state, while ``chor`` drops only a constant prefix; ``migr``
and ``migrr`` hand the encoding off.  The rest follows from a monitor's refs:
one with no encoding forwards its observations to its ref (an ``orch``
forwarder), and one with a verdict sends it to its refs and respawns (a
``chor`` monitor below the root), or with no refs ends the run.

Resolution yields the rows read from the encoding's first round, each with
its round, the state found and its reads, up to the first open row or final
state.  ``ehe.decided_round`` finds them with no ``mov``, ``inc`` or
evaluation when the memory decides every row after one row of constants at
or behind the round; otherwise the pass reads them.  One booking counts
them and collects the garbage for both."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Union

from . import analysis, ehe as eh, ltl as lt, metrics as mt
from . import expr as ex
from .automaton import DecentralizedSpec, DecentralizedTrace, Specification
from .errors import IncompatiblePlacement, InvalidParameters, SpecificationError
from .expr import BOTTOM, TOP, UNKNOWN, Verdict
from .store import EMPTY_EVENT, Event, Memory, mem_from_event, memory_merge

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


@dataclass(slots=True)
class Message:
    """What ``sender`` sends in a round, with one payload: a memory
    (``mem`` from an ``orch`` forwarder; ``verdict`` from a ``chor`` monitor,
    the one entry ``<t,&sender> ↦ v``), an encoding (``ehe``), or nothing
    (``kill``, sent by the ``chor`` root in the round whose verdict ends the
    run, so counted but never delivered)."""

    kind: str  # "mem" | "ehe" | "verdict" | "kill"
    sender: str
    receiver: str
    payload: Union[Memory, eh.EHE, None] = None


# ---------------------------------------------------------------------------
# Monitor state


@dataclass
class MonitorState:
    """One monitor under any algorithm.  An ``orch`` forwarder and an idle
    ``migr``/``migrr`` monitor hold no encoding."""

    name: str
    component: str
    ehe: Optional[eh.EHE] = None
    memory: Memory = field(default_factory=dict)
    refs: frozenset[str] = frozenset()  # sent to: the orch main monitor, or chor parents
    corefs: frozenset[str] = frozenset()  # chor children sending verdicts here
    t_kn: int = 0  # last round resolved
    t_mon: int = 1  # round the chor instance is anchored at
    prefix_evals: int = 0  # what reading the rows chor dropped would cost each round


@dataclass(frozen=True)
class Policy:
    """What one algorithm changes in the shared round."""

    inc: bool = True  # fold the encoding with inc every round
    cut: bool = True  # cut at the last resolved state, or (chor) drop a constant prefix
    # the component the encoding goes to next (migr, migrr), if it moves at all
    hand_off: Optional[Callable[[MonitorState, Setup], str]] = None


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
        states = {"m0": MonitorState("m0", comps[0], ehe=eh.init(spec))}
        for comp in comps[1:]:
            states[f"f_{comp}"] = MonitorState(f"f_{comp}", comp, refs=frozenset({"m0"}))
        network = analysis.Graph.of(sorted(states), {(f, "m0") for f in states if f != "m0"})
    elif cfg.algorithm in ("migr", "migrr"):
        spec = _expect_spec(spec_input)
        if cfg.algorithm == "migr":
            # earliest-obligation preference after one move from the start
            ranked = _obligation_owners(eh.mov(eh.init(spec), 1), ap_owner)
        else:
            ranked = []
        for comp in comps:  # fill up deterministically
            if comp not in ranked:
                ranked.append(comp)
        active = set(ranked[: cfg.initial_active])
        states = {
            f"m_{comp}": MonitorState(
                f"m_{comp}", comp, ehe=eh.init(spec) if comp in active else None
            )
            for comp in comps
        }
        network = analysis.complete_graph(sorted(states))
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
        placements = {m: d.attach[m] for m in sorted(analysis.reach(deps, (d.root,)))}
        unplaced = sorted(set(placements.values()) - set(comps))
        if unplaced:
            raise SpecificationError(f"monitors attached to {unplaced} outside the system graph")
        moved = sorted(ap for ap, c in d.ap_owner.items() if ap_owner.get(ap, c) != c)
        if moved:
            raise SpecificationError(f"the trace observes {moved} off their ap_owner component")
        # a channel to each placed monitor from each of its children, placed too
        network = analysis.Graph.of(
            placements, {(child, parent) for parent in placements for child in deps.out[parent]}
        )
        states = {
            name: MonitorState(
                name=name,
                component=comp,
                ehe=eh.init(d.monitors[name]),
                refs=frozenset(network.out[name]),
                corefs=frozenset(deps.out[name]),
            )
            for name, comp in placements.items()
        }
    placements = {name: state.component for name, state in states.items()}
    names = frozenset(states) if cfg.algorithm == "chor" else frozenset()
    result = Setup(cfg, network, placements, states, ap_owner=dict(ap_owner),
                   monitor_names=names)
    if not analysis.verify_compatible(placements, network.out, analysis.compute_reach(system)):
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


def _resolve(p: eh.EHE, memory: Memory,
             memo: dict[int, ex.Expr]) -> list[tuple[int, eh.Decided]]:
    """The rows of ``p`` read under ``memory`` from its first round, each with
    its round, up to the first open row or final state."""
    verdict_of = p.automaton.verdict_of
    rows = []
    for r, row in p.table.items():
        found = eh.read(row, memory, memo)
        rows.append((r, found))
        if found.state is None or verdict_of(found.state) is not UNKNOWN:
            break
    return rows


def _monitor_round(
    state: MonitorState,
    t: int,
    obs: Event,
    inbox: Iterable[Message],
    step: mt.Step,
    setup: Setup,
) -> tuple[list[Message], Optional[Verdict]]:
    """One monitor's round under any algorithm (see the module docstring).  A
    monitor with no encoding keeps its memory, or forwards its observation to
    its ref; one with a verdict sends it to its refs and starts afresh (see
    :func:`_respawn`), or with no refs ends the run.  The rows the round
    resolves come from :func:`ehe.decided_round` when it decides them, and
    otherwise from ``mov``, ``inc`` and :func:`_resolve`; either way
    :func:`_book` books them."""
    for msg in inbox:
        if msg.kind == "ehe":  # merged into the encoding, or activating it
            state.ehe = msg.payload if state.ehe is None else eh.merge(state.ehe, msg.payload)
            state.t_kn = max(state.t_kn, msg.payload.first_round())
        else:
            state.memory = memory_merge(state.memory, msg.payload)
    if not obs.is_empty:
        mem = mem_from_event(obs, t)
        if state.ehe is None and state.refs:  # an orch forwarder keeps nothing
            (main,) = state.refs
            return [Message("mem", sender=state.name, receiver=main, payload=mem)], None
        state.memory = memory_merge(state.memory, mem)
    policy = _POLICIES[setup.cfg.algorithm]
    outbox: list[Message] = []
    # a chor instance respawned past the current round waits for its round
    while state.ehe is not None and (first := state.ehe.first_round()) <= t:
        step.evaluations += state.prefix_evals
        memo: dict[int, ex.Expr] = {}  # one rewrite cache: the memory is fixed for the round
        decided = eh.decided_round(state.ehe, t, setup.monitor_names, state.memory)
        if decided is not None:  # one row per round from the first
            rows = list(enumerate(decided, first))
        else:
            state.ehe = eh.mov(state.ehe, t, setup.monitor_names)
            if policy.inc:
                state.ehe = eh.inc(state.ehe, state.memory, step=step)
            rows = _resolve(state.ehe, state.memory, memo)
        verdict = _book(state, policy, t, step, rows, memo)
        if verdict is None:
            target = policy.hand_off(state, setup) if policy.hand_off else state.component
            if target != state.component:
                outbox.append(Message("ehe", sender=state.name, receiver=f"m_{target}",
                                      payload=state.ehe))
                state.ehe = None
            break
        if not state.refs:
            # The verdict ends the run: the chor root's kills are counted, never delivered.
            for child in sorted(state.corefs):
                outbox.append(Message("kill", sender=state.name, receiver=child))
            return outbox, verdict
        _respawn(state, verdict, outbox)
    return outbox, None


def _book(state: MonitorState, policy: Policy, t: int, step: mt.Step,
          rows: list[tuple[int, eh.Decided]], memo: dict[int, ex.Expr]) -> Optional[Verdict]:
    """Book a round's resolution from ``rows``: what :func:`_resolve` read
    after ``mov`` and ``inc``, or what :func:`ehe.decided_round` found they
    would read, either way an encoding that ends at ``t``.  Count the reads
    and a delay for each newly known round, then return a final verdict, or
    cut the encoding and record its footprint.

    ``orch``, ``migr`` and ``migrr`` drop the rounds before the last resolved
    one, and conv_e charges the reads that found it once more.  With no
    ``inc`` (``orch``), the rows kept past the cut still reach the dropped
    history: they are folded (uncounted, as ``orch`` never sends its
    encoding) and the memory, whose atoms are all stamped by now, is
    forgotten.  ``chor`` drops the leading rows before ``t_kn`` (never the
    last one read) of constants with one TRUE, which every later round
    would read alike at the cost ``prefix_evals`` keeps, and its root
    forgets the memory that ``inc`` folded in."""
    a = state.ehe.automaton
    evals = 0
    last = None  # the last resolved (round, state)
    for r, found in rows:
        evals += found.evals
        if found.state is None:
            break
        last = r, found.state
        if r > state.t_kn:
            step.delays += (t - r,)
            state.t_kn = r
    step.evaluations += evals
    if last is not None and (verdict := a.verdict_of(last[1])) is not UNKNOWN:
        return verdict
    if policy.cut:
        step.evaluations += evals
        state.ehe = eh.drop_resolved(state.ehe, last)
        forget = not policy.inc and last is not None
        if forget and len(state.ehe.table) > 1:  # rows past the cut row, which is TRUE
            state.ehe = eh.EHE(a, {r: {q: ex.rewrite_fold(c, state.memory, memo)
                                       for q, c in row.items()}
                                   for r, row in state.ehe.table.items()})
    else:
        forget = not state.refs
        drop = 0
        for r, found in rows[:-1]:
            if r >= state.t_kn or not _one_true(found.row):
                break
            state.prefix_evals += found.evals
            drop += 1
        if drop:  # the rows read from the first kept one, then the rows past them
            table = {}
            for r, found in rows[drop:]:
                table[r] = found.row
            for r, row in state.ehe.table.items():
                if r > rows[-1][0]:
                    table[r] = row
            state.ehe = eh.EHE(a, table)
    if forget:
        state.memory.clear()
    table = state.ehe.table  # footprint: entries, round span and automaton states
    first = next(iter(table))
    entries = len(table[t]) if first == t else sum(map(len, table.values()))
    step.gc = (entries, t - first + 1, len(a.states))
    return None


def _one_true(row: eh.Row) -> bool:
    """Whether ``row`` holds only constants, one of them TRUE."""
    true = 0
    for c in row.values():
        if type(c) is not ex.Const:
            return False
        true += c.value is TOP
    return true == 1


def _respawn(state: MonitorState, verdict: Verdict, outbox: list[Message]) -> None:
    """Send a ``chor`` verdict to the refs and start a fresh instance at the
    next anchor, with the memory past the old one.  Its encoding is the one
    row ``{initial: TRUE}`` at the old anchor, which the round then moves up
    to the current round, by a pass or by :func:`ehe.decided_round`."""
    payload = {ex.monref(state.t_mon, state.name): verdict}
    for ref in sorted(state.refs):
        outbox.append(Message("verdict", sender=state.name, receiver=ref, payload=payload))
    anchor = state.t_mon
    state.t_mon = anchor + 1
    automaton = state.ehe.automaton
    state.ehe = eh.EHE(automaton, {anchor: {automaton.initial: ex.TRUE}})
    state.t_kn = anchor
    state.prefix_evals = 0
    state.memory = {a: v for a, v in state.memory.items() if a.t > anchor}


# simulate reads each algorithm's name when it runs, so a wrapper installed
# under one name sees only that algorithm's rounds.
orchestration_round = migration_round = choreography_round = _monitor_round


def _earliest_obligation(state: MonitorState, setup: Setup) -> str:
    """``migr``: the owner of the encoding's earliest obligation, else its own."""
    owners = _obligation_owners(state.ehe, setup.ap_owner)
    return owners[0] if owners else state.component


def _round_robin(state: MonitorState, setup: Setup) -> str:
    """``migrr``: the next component in name order."""
    components = sorted(set(setup.placements.values()))
    i = components.index(state.component)
    return components[(i + 1) % len(components)]


_POLICIES = {
    "orch": Policy(inc=False),
    "migr": Policy(hand_off=_earliest_obligation),
    "migrr": Policy(hand_off=_round_robin),
    "chor": Policy(cut=False),
}


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
    pending: dict[int, list[Message]] = {}  # by delivery round, each in send order
    reported: Optional[Verdict] = None
    stop_round = max(horizon, 1)
    if cfg.algorithm == "orch":
        round_fn = orchestration_round
    elif cfg.algorithm == "chor":
        round_fn = choreography_round
    else:
        round_fn = migration_round

    monitors = [(name, st.placements[name], st.states[name]) for name in sorted(st.states)]
    event_at, no_event = tr.events.get, EMPTY_EVENT
    new_step, size_of, append = mt.Step, mt.size_of, record.steps.append
    for t in range(1, horizon + 1):
        inboxes: dict[str, list[Message]] = {}
        due = pending.pop(t, ())
        if len(due) > 1:
            due.sort(key=attrgetter("sender"))  # stable: FIFO per sender
        for msg in due:
            inboxes.setdefault(msg.receiver, []).append(msg)
        for name, component, state in monitors:
            step = new_step(t, name, component)
            obs = event_at((t, component), no_event)
            outbox, verdict = round_fn(state, t, obs, inboxes.get(name, ()), step, st)
            if outbox:
                step.sent = tuple([(msg.kind, size_of(msg)) for msg in outbox])
                pending.setdefault(t + cfg.comm_delay, []).extend(outbox)
            append(step)
            if (verdict is TOP or verdict is BOTTOM) and reported is None:
                reported = verdict
        if reported is not None:
            stop_round = t
            break

    record.run_length = stop_round
    return SimRun(cfg.algorithm, reported if reported is not None else UNKNOWN, stop_round, record)
