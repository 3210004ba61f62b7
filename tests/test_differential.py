"""Differential test: all four algorithms against the reference semantics
on random formulas and traces, over the delay and active-monitor grid, and
``chor`` on hand-written decentralized specifications."""

import hashlib
import itertools
import random

from demon import analysis as an
from demon import ehe as eh
from demon import engine as en
from demon import expr as ex
from demon import ltl as lt
from demon import metrics as mt
from demon import store
from demon import traces as tg
from demon.automaton import (
    DecentralizedSpec,
    DecentralizedTrace,
    decentralized_run,
    load_spec_file,
    make_spec,
    reconstruct_global,
    step,
)
from demon.expr import BOTTOM, TOP, UNKNOWN
from demon.store import Event

from conftest import ROOT, load_module
from helpers import dag_nodes, simulate_observed

synthetic = load_module("scripts/synthetic_benchmark.py", "synthetic_benchmark")

GRID = tuple(itertools.product((1, 2, 3), (1, 2)))  # (comm_delay, initial_active)
# System graphs, one per pass over GRID: complete, and a directed ring, which is
# strongly connected but not complete.
GRAPHS = (an.complete_graph, lambda cs: an.Graph.of(cs, zip(cs, cs[1:] + cs[:1])))
CASES = 36
WIDE_CASES = 12  # |C| = 5, L = 31..60


def centralized_verdict(spec, tr):
    q = spec.initial
    for evt in reconstruct_global(tr):
        q = step(spec, q, evt)
        if spec.verdict_of(q).is_final:
            return spec.verdict_of(q)
    return UNKNOWN


def choreography_verdict(phi, tr):
    owner = tr.observed_owner()
    tree = lt.net_chor(phi, owner)
    return decentralized_run(en.assemble_choreography(tree, tr.components, owner), tr)


def draw_cases(seed, cases, components, lengths):
    """Yield ``cases`` seeded cases, cycling through the grid and the system
    graphs: (case index, formula, trace, system graph, comm_delay,
    initial_active)."""
    rng = random.Random(seed)
    for i in range(cases):
        comm_delay, initial_active = GRID[i % len(GRID)]
        ncomp = rng.randint(*components)
        aps = rng.randint(1, 2)
        phi = synthetic.random_formula(rng, ncomp, aps)
        _, dist = rng.choice(synthetic.DISTRIBUTIONS)
        tr = tg.generate(tg.TraceGenConfig(
            components=ncomp, aps_per_component=aps, length=rng.randint(*lengths),
            distribution=dist, seed=rng.randrange(2**31),
        ))
        system = GRAPHS[i // len(GRID) % len(GRAPHS)](list(tr.components))
        yield i, phi, tr, system, comm_delay, initial_active


def sim_config(alg, comm_delay, initial_active):
    return en.SimConfig(alg, comm_delay=comm_delay, initial_active=initial_active,
                        timeout_slack=5 * comm_delay)


def check_cases(seed, cases, components, lengths):
    """Run ``cases`` seeded cases, cycling through the grid, and return how
    many had a final reference verdict."""
    finals = 0
    for i, phi, tr, system, comm_delay, initial_active in draw_cases(
        seed, cases, components, lengths
    ):
        spec = lt.synthesize(phi)
        centralized = centralized_verdict(spec, tr)
        finals += centralized.is_final
        for alg in en.ALGORITHMS:
            cfg = sim_config(alg, comm_delay, initial_active)
            if alg == "chor":
                expected = choreography_verdict(phi, tr)
                result = en.simulate(cfg, phi, system, tr)
            else:
                expected = centralized
                result = en.simulate(cfg, spec, system, tr)
            assert result.verdict is expected, (
                seed, i, alg, lt.ltl_text(phi), cfg, expected, result.verdict
            )
    return finals


def test_algorithms_agree_with_reference_over_parameter_grid():
    finals = check_cases(1903, CASES, components=(2, 4), lengths=(1, 30))
    assert finals >= CASES // 2, finals
    assert store.EMPTY_MEMORY == {}  # shared by every monitor's initial state, never changed


def test_five_components_and_longer_traces_agree_with_reference():
    finals = check_cases(1903, WIDE_CASES, components=(5, 5), lengths=(31, 60))
    assert finals >= WIDE_CASES // 2, finals


def test_every_simplify_input_is_a_fold_fixpoint(monkeypatch):
    # simplify expects an input that fold returns unchanged; every caller in
    # the library, synthesis included, must hand it one.
    real = ex.simplify
    seen = []

    def checked(e, max_atoms=ex.EXACT_ATOMS):
        seen.append(e)
        assert ex.fold(e) is e, ex.to_text(e)  # literals included
        return real(e, max_atoms)

    monkeypatch.setattr(ex, "simplify", checked)
    cases = list(draw_cases(7, len(GRID), components=(3, 4), lengths=(10, 30)))
    assert (3, 2) in {(d, a) for *_, d, a in cases}
    for _, phi, tr, system, comm_delay, initial_active in cases:
        spec = lt.synthesize(phi)
        for alg in en.ALGORITHMS:
            en.simulate(sim_config(alg, comm_delay, initial_active),
                        phi if alg == "chor" else spec, system, tr)
    assert len(seen) > 100, len(seen)


def test_each_row_resolved_once_per_round(monkeypatch):
    # Resolution and garbage collection share one pass: no (step, round) pair
    # is read twice, yet a step that collects garbage counts the pass's
    # evaluations twice, once for each.  And the main orch monitor's encoding
    # starts at its last known round after every round without a verdict.
    # The decided-round lookup always misses here, so that every round takes
    # the pass whose row reads are counted.
    real_read, real_mov = eh.read, eh.mov
    searched = []
    evaluated = {}  # id(step) -> evaluations made by the row reads
    current = {"moving": False}  # the round's monitor state and step; whether mov runs

    def recorded(row, m, memo=None):
        found = real_read(row, m, memo)
        if not current["moving"]:  # mov reads a constant row once to build its template
            state, step = current["state"], current["step"]
            (t,) = [r for r, kept in state.ehe.table.items() if kept is row]
            searched.append((id(step), t))
            evaluated[id(step)] = evaluated.get(id(step), 0) + found.evals
        return found

    def moving(*args):
        current["moving"] = True
        try:
            return real_mov(*args)
        finally:
            current["moving"] = False

    def stepping(inner):
        def round_fn(state, t, obs, inbox, step, setup):
            current.update(state=state, step=step)
            return inner(state, t, obs, inbox, step, setup)
        return round_fn

    monkeypatch.setattr(eh, "read", recorded)
    monkeypatch.setattr(eh, "mov", moving)
    for alias in ("orchestration_round", "migration_round"):
        monkeypatch.setattr(en, alias, stepping(getattr(en, alias)))
    monkeypatch.setattr(eh, "decided_round", lambda *args: None)
    cases = list(draw_cases(11, 12, components=(2, 4), lengths=(5, 30)))
    for _, phi, tr, system, *_ in cases:
        spec = lt.synthesize(phi)
        for alg, comm_delay, initial_active in itertools.product(
            ("orch", "migr", "migrr"), (1, 3), (1, 2)
        ):
            searched.clear()
            evaluated.clear()
            kept = []  # (first round, t_kn) of m0 after each of its rounds

            def observe(state):
                if state.name == "m0":
                    kept.append((state.ehe.first_round(), state.t_kn))

            cfg = sim_config(alg, comm_delay, initial_active)
            result = simulate_observed(cfg, spec, system, tr, observe)
            assert searched and len(set(searched)) == len(searched), (alg, cfg)
            for st in result.record.steps:
                counted = evaluated.get(id(st), 0) * (1 if st.gc is None else 2)
                assert st.evaluations == counted, (cfg, st)
            if alg == "orch" and result.verdict.is_final:
                kept.pop()  # m0 runs last in its round: the verdict round keeps its rows
            assert all(first == t_kn for first, t_kn in kept), (cfg, kept)


def test_results_independent_of_delivery_order(monkeypatch):
    # Strong eventual consistency, end to end: each round's inbox delivered
    # in a seeded random order instead of by sender leaves every verdict,
    # stop round and metrics row as it was, under every algorithm.
    rng = random.Random(17)
    reordered = 0

    def shuffled(state, t, obs, inbox, *args, inner=en._monitor_round):
        nonlocal reordered
        order = rng.sample(inbox, len(inbox))
        reordered += order != inbox
        return inner(state, t, obs, order, *args)

    def row(cfg, spec_input, system, tr):
        r = en.simulate(cfg, spec_input, system, tr)
        return r.verdict, r.stop_round, mt.csv_row(cfg.algorithm, len(system.nodes), "s", "t",
                                                   r.verdict, r.stop_round,
                                                   mt.summarize(r.record))

    for i, phi, tr, system, *_ in draw_cases(1907, 12, components=(2, 4), lengths=(1, 30)):
        spec = lt.synthesize(phi)
        for comm_delay, initial_active, alg in itertools.product((1, 3), (1, 2), en.ALGORITHMS):
            case = (sim_config(alg, comm_delay, initial_active),
                    phi if alg == "chor" else spec, system, tr)
            expected = row(*case)
            with monkeypatch.context() as patched:
                for name in ("orchestration_round", "migration_round", "choreography_round"):
                    patched.setattr(en, name, shuffled)
                assert row(*case) == expected, (i, case[0])
    assert reordered


GLOBALLY_CASES = 8


def draw_globally_cases(seed, cases):
    """Yield ``cases`` seeded cases of the ``long`` benchmark's shape, G over a
    disjunction of one proposition per component, with |C| 2-4 and L <= 60:
    (formula, full trace).  Every proposition turns false at one drawn round
    and stays false, so each case ends in BOTTOM."""
    rng = random.Random(seed)
    for _ in range(cases):
        comps = tuple(f"c{i}" for i in range(rng.randint(2, 4)))
        length = rng.randint(1, 60)
        falls = rng.randint(1, length)
        tr = DecentralizedTrace(comps, length, {
            (t, c): Event.of((f"a{i}", TOP if t < falls and rng.random() < 0.7 else BOTTOM))
            for t in range(1, length + 1) for i, c in enumerate(comps)
        })
        yield lt.parse_ltl(f"G ({' || '.join(f'a{i}' for i in range(len(comps)))})"), tr


def test_globally_formulas_agree_with_reference_over_parameter_grid():
    # The round whose propositions are all false moves a chor monitor to its
    # bottom state from a row of constants: its memory decides that row, which
    # comes from the template's cached step.
    decided_bottom = 0
    for n, (phi, tr) in enumerate(draw_globally_cases(1905, GLOBALLY_CASES)):
        spec = lt.synthesize(phi)
        owner = tr.observed_owner()
        d = en.assemble_choreography(lt.net_chor(phi, owner), tr.components, owner)
        assert centralized_verdict(spec, tr) is BOTTOM
        assert choreography_verdict(phi, tr) is BOTTOM
        system = GRAPHS[n % len(GRAPHS)](list(tr.components))
        for (comm_delay, initial_active), alg in itertools.product(GRID, en.ALGORITHMS):
            result = en.simulate(sim_config(alg, comm_delay, initial_active),
                                 d if alg == "chor" else spec, system, tr)
            assert result.verdict is BOTTOM, (n, alg, comm_delay, initial_active)
        decided_bottom += sum(
            any(a.verdict_of(q) is BOTTOM and c is ex.TRUE for q, c in row.items())
            for a in (spec, *d.monitors.values())
            for template in a.row_templates.values()
            for row in (step.row for step in template.steps.values() if step is not None)
        )
    assert decided_bottom


GRID_PIN_CASES = 48  # |C| = 2..5, L = 1..60
# SHA-256 of the sorted metrics rows of every algorithm on the cases below; any
# change to what a run computes (verdict, stop round or a summary figure) under
# any grid parameter changes it.
GRID_ROWS_SHA256 = "ad34174d39f1759ccf083b20bd230d022c1a3832e611b37ec398d6caddf6ee83"


def test_grid_metrics_rows_pinned():
    rows = []
    for i, phi, tr, system, comm_delay, initial_active in draw_cases(
        31, GRID_PIN_CASES, components=(2, 5), lengths=(1, 60)
    ):
        spec = lt.synthesize(phi)
        for alg in en.ALGORITHMS:
            result = en.simulate(sim_config(alg, comm_delay, initial_active),
                                 phi if alg == "chor" else spec, system, tr)
            rows.append(",".join(mt.csv_row(
                alg, len(system.nodes), f"case-{i}", f"d{comm_delay}-a{initial_active}",
                result.verdict, result.stop_round, mt.summarize(result.record),
            )))
    assert len(rows) == 4 * GRID_PIN_CASES
    digest = hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()
    assert digest == GRID_ROWS_SHA256


def test_orch_encoding_stays_small_on_long_wide_case():
    # Case 0 of this draw (five F obligations, L=47) runs orch for 52 rounds
    # without a verdict.  The rows that garbage collection keeps are folded
    # under the memory, so they stop reaching the dropped history; unfolded,
    # the main monitor's encoding grew to 114,405 DAG nodes.
    _, phi, tr, system, comm_delay, initial_active = next(
        draw_cases(2024, 12, (5, 5), (31, 60))
    )
    largest = [0]

    def observe(state):
        if state.name == "m0":
            largest[0] = max(largest[0], dag_nodes(state.ehe.entries.values()))

    cfg = sim_config("orch", comm_delay, initial_active)
    result = simulate_observed(cfg, lt.synthesize(phi), system, tr, observe)
    assert result.verdict is centralized_verdict(lt.synthesize(phi), tr)
    assert largest[0] < 1000, largest[0]


# A hand-written hierarchical specification: the root m0 (on c0) and the
# middle monitor m1 (on c1) both reference the shared monitor m2 (on c2).
SHARED = load_spec_file(str(ROOT / "fixtures" / "decentralized_shared.json"))
SHARED_DEPS = frozenset({("m0", "m1"), ("m0", "m2"), ("m1", "m2")})


def _split(rng, names, targets):
    """(label, target) pairs that send each assignment of ``names`` to a random
    target, one label per target drawn. At least two targets are drawn, so no
    label is constant: past the trace end, where nothing is observed, no
    transition can be taken (the simulator runs on into the timeout slack,
    the reference semantics stop at the trace end)."""
    groups = {}
    while len(groups) < 2:
        groups = {}
        for values in itertools.product((True, False), repeat=len(names)):
            groups.setdefault(rng.choice(targets), []).append(values)
    return [
        (ex.to_text(ex.simplify(ex.disj_all(
            ex.conj_all(ex.Var(ex.plain(n)) if v else ex.Not(ex.Var(ex.plain(n)))
                        for n, v in zip(names, vs))
            for vs in group
        ))), dst)
        for dst, group in groups.items()
    ]


def random_monitor(rng, names, open_states, loops):
    """Monitor over ``names`` with ``open_states`` unknown states q0, q1, ...
    and absorbing top/bottom states. Each open state moves only forward
    (staying put too when ``loops``), so without loops it resolves within
    ``open_states`` rounds of a full trace."""
    states = [f"q{i}" for i in range(open_states)] + ["top", "bottom"]
    transitions = [("top", "true", "top"), ("bottom", "true", "bottom")]
    for i, q in enumerate(states[:open_states]):
        transitions += [(q, label, dst)
                        for label, dst in _split(rng, names, states[i + (not loops):])]
    verdicts = {q: "unknown" for q in states[:open_states]}
    return make_spec(states, "q0", transitions, {**verdicts, "top": "top", "bottom": "bottom"})


def random_shared_spec(rng):
    """A random specification of SHARED's shape. The referenced monitors
    resolve at their anchor round on a full trace, so no reference stays
    unknown; the root may loop and end without a verdict."""
    while True:
        monitors = {
            "m0": random_monitor(rng, ["a0", "m1", "m2"], rng.randint(1, 3), loops=True),
            "m1": random_monitor(rng, ["a1", "m2"], 1, loops=False),
            "m2": random_monitor(rng, ["a2"], 1, loops=False),
        }
        d = DecentralizedSpec(SHARED.monitor_labels, monitors, SHARED.components,
                              SHARED.attach, "m0", SHARED.ap_owner)
        if an.mdg(d).edges == SHARED_DEPS:
            return d


def check_decentralized(d, rng, traces):
    """Run ``chor`` on ``d`` over ``traces`` seeded full traces at comm_delay
    1-3 against the reference semantics; return the verdicts seen."""
    seen = []
    for _ in range(traces):
        _, dist = rng.choice(synthetic.DISTRIBUTIONS)
        tr = tg.generate(tg.TraceGenConfig(
            components=3, aps_per_component=1, length=rng.randint(1, 12),
            distribution=dist, seed=rng.randrange(2**31),
        ))
        expected = decentralized_run(d, tr)
        for comm_delay in (1, 2, 3):
            result = en.simulate(sim_config("chor", comm_delay, 1), d,
                                 an.complete_graph(tr.components), tr)
            assert result.verdict is expected, (an.mdg(d).edges, tr, comm_delay)
            seen.append(expected)
    return seen


def test_hand_written_specification_agrees_with_reference():
    assert an.mdg(SHARED).edges == SHARED_DEPS
    seen = check_decentralized(SHARED, random.Random(41), 60)
    assert {ex.TOP, ex.BOTTOM} <= set(seen), seen


def test_random_specifications_of_shared_shape_agree_with_reference():
    rng = random.Random(43)
    seen = []
    for _ in range(24):
        seen += check_decentralized(random_shared_spec(rng), rng, 5)
    assert len(seen) == 24 * 5 * 3
    assert min(seen.count(v) for v in (ex.TOP, ex.BOTTOM, UNKNOWN)) >= 24, seen


def test_monitor_anchored_past_current_round_waits():
    # m1 starts in its final state, so each round it reports at once and
    # re-anchors its next instance at the following round, past the current
    # one: chor must leave that instance for the next round.
    m1 = make_spec(["top"], "top", [("top", "true", "top")], {"top": "top"})
    m0 = make_spec(["q0", "qT"], "q0",
                   [("q0", "a0 && m1", "qT"), ("q0", "!(a0 && m1)", "q0"), ("qT", "true", "qT")],
                   {"q0": "unknown", "qT": "top"})
    d = DecentralizedSpec(("m0", "m1"), {"m0": m0, "m1": m1}, ("c0",),
                          {"m0": "c0", "m1": "c0"}, "m0", {"a0": "c0"})
    rng = random.Random(47)
    seen = []
    for length in range(1, 11):
        for _ in range(4):
            tr = tg.generate(tg.TraceGenConfig(components=1, aps_per_component=1,
                                               length=length, seed=rng.randrange(2**31)))
            expected = decentralized_run(d, tr)
            for comm_delay in (1, 2, 3):
                result = en.simulate(sim_config("chor", comm_delay, 1), d,
                                     an.complete_graph(tr.components), tr)
                assert result.verdict is expected, (tr, comm_delay)
                seen.append(expected)
    assert len(seen) == 120 and {ex.TOP, UNKNOWN} <= set(seen), seen
