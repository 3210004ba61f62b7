import hashlib
import random
from pathlib import Path

import pytest

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
    Specification,
    decentralized_run,
    make_spec,
    reconstruct_global,
    run,
)
from demon.ehe import EHE
from demon.errors import IncompatiblePlacement, InvalidParameters
from demon.store import Event, Memory

from conftest import load_module, random_spec, random_trace
from helpers import (
    active_counts,
    last_resolved,
    load_spec,
    per_round_messages,
    simulate_observed,
)

T, B = ex.TOP, ex.BOTTOM


def complete(comps):
    return an.complete_graph(comps)


class TestConfig:
    def test_rejects_zero_delay(self):
        with pytest.raises(InvalidParameters):
            en.SimConfig("orch", comm_delay=0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(InvalidParameters):
            en.SimConfig("gossip")


class TestSetup:
    def test_orch_star(self, fig1):
        st = en.setup(
            en.SimConfig("orch"), fig1, complete(("A", "B", "C")), {"a": "A", "b": "B"}
        )
        assert st.placements["m0"] == "A"
        assert sorted(st.placements) == ["f_B", "f_C", "m0"]
        assert st.network.edges == frozenset({("f_B", "m0"), ("f_C", "m0")})

    def test_migr_complete_digraph(self, fig1):
        st = en.setup(
            en.SimConfig("migr"), fig1, complete(("A", "B", "C", "D")),
            {"a": "A", "b": "B"},
        )
        assert len(st.network.nodes) == 4
        assert len(st.network.edges) == 12
        active = [s for s in st.states.values() if s.ehe is not None]
        assert len(active) == 1

    def test_migr_initial_active_follows_heuristic(self, fig1):
        st = en.setup(
            en.SimConfig("migr"), fig1, complete(("A", "B")), {"a": "B", "b": "B"}
        )
        # both round-1 obligations live on B, so B's monitor starts active
        assert st.states["m_B"].ehe is not None and st.states["m_A"].ehe is None

    def test_chor_single_monitor(self):
        phi = lt.parse_ltl("F (a0 && a1)")
        st = en.setup(
            en.SimConfig("chor"), phi, complete(("c0", "c1")),
            {"a0": "c0", "a1": "c0"},
        )
        assert sorted(st.placements) == ["m0"]
        assert st.network.edges == frozenset()

    def test_chor_runs_only_referenced_monitors(self):
        # net_chor delegates a2 to m1, but `!(a0 && a0)` makes the root's
        # automaton constant, so synthesis drops the placeholder.  Before, m1
        # still ran and its verdict and kill counted as msgs 2.0.
        phi = lt.parse_ltl("F a0 || a2 || !(a0 && a0)")
        owner = {"a0": "c0", "a1": "c1", "a2": "c2"}
        tree = lt.net_chor(phi, owner)
        assert [m.id for m in tree.extras] == [1]
        st = en.setup(en.SimConfig("chor"), phi, complete(("c0", "c1", "c2")), owner)
        assert set(st.states) == {"m0"} and st.network.edges == frozenset()
        tr = tg.generate(tg.TraceGenConfig(components=3, aps_per_component=1, length=6,
                                           seed=1, distribution=tg.Beta(alpha=2, beta=2)))
        assert tr.observed_owner() == owner
        r = en.simulate(en.SimConfig("chor"), phi, complete(tr.components), tr)
        dspec = en.assemble_choreography(tree, tr.components, owner)
        assert r.verdict is decentralized_run(dspec, tr)
        assert mt.summarize(r.record).messages_per_round == 0

    def test_chor_network_is_reversed_dependency_graph(self, fig4):
        st = en.setup(en.SimConfig("chor"), fig4, complete(("c0", "c1")),
                      {"a0": "c0", "b0": "c1"})
        assert st.network.edges == frozenset({("m1", "m0")})
        assert st.states["m1"].refs == {"m0"} and st.states["m0"].corefs == {"m1"}
        assert st.monitor_names == {"m0", "m1"}

    def test_incompatible_placement(self, fig1):
        # no channel from B to A: the forwarder cannot reach the main monitor
        disconnected = an.Graph.of(("A", "B"), [("A", "B")])
        with pytest.raises(IncompatiblePlacement):
            en.setup(en.SimConfig("orch"), fig1, disconnected, {"a": "A", "b": "B"})

    @pytest.mark.parametrize("alg", ["orch", "migr", "migrr", "chor"])
    def test_initial_active_above_component_count_rejected(self, fig1, alg):
        system, owner = complete(("A", "B")), {"a": "A", "b": "B"}
        spec = lt.parse_ltl("F (a && b)") if alg == "chor" else fig1
        with pytest.raises(InvalidParameters, match=r"initial_active 3 .* 2 components"):
            en.setup(en.SimConfig(alg, initial_active=3), spec, system, owner)
        st = en.setup(en.SimConfig(alg, initial_active=2), spec, system, owner)
        if alg.startswith("migr"):
            assert all(s.ehe is not None for s in st.states.values())


def test_resolve_returns_where_garbage_collection_cuts():
    # Without a final verdict, the booking of the rows _resolve read cuts at
    # the last (round, state) that the search from the first round up to the
    # first open round finds.
    rng = random.Random(1212)
    seen = set()
    for _ in range(150):
        spec, aps = random_spec(rng, max_states=4, max_aps=3)
        n = rng.randint(1, 6)
        p = eh.mov(eh.init(spec), n)
        atoms = [ex.timed(t, a) for t in range(1, n + 1) for a in aps]
        if rng.random() < 0.5:
            p = eh.inc(p, Memory({a: rng.choice((T, B)) for a in atoms if rng.random() < 0.3}))
        if rng.random() < 0.4:  # start past round 0, so the first round may be open
            p = EHE(spec, dict(list(p.table.items())[rng.randint(1, n):]))
        m = Memory({a: rng.choice((T, B)) for a in atoms if rng.random() < 0.5})
        state = en.MonitorState("m_c", "c", p, m)
        rows = en._resolve(p, m, {})
        verdict = en._book(state, en._POLICIES["migr"], n, mt.Step(n, "m_c", "c"), rows, {})
        if verdict is None:
            last = last_resolved(p, m)
            if last is None:
                assert state.ehe is p
            else:
                assert state.ehe.first_round() == last[0]
                assert state.ehe.table[last[0]] == {last[1]: ex.TRUE}
            seen.add("none" if last is None else "cut" if last[0] < n else "all")
    assert seen == {"none", "cut", "all"}, seen


class TestOrchestration:
    def test_example_run(self, fig1, ex7_trace):
        r = en.simulate(en.SimConfig("orch"), fig1, complete(("A", "B")), ex7_trace)
        assert r.verdict is T
        assert r.stop_round == 1  # a is observed by the main monitor itself

    def test_remote_observation_needs_one_round(self, fig1):
        # the deciding observation lives on B; the verdict waits for delivery
        tr = DecentralizedTrace(
            ("A", "B"), 2,
            {(1, "A"): Event.of(("a", B)), (1, "B"): Event.of(("b", T)),
             (2, "A"): Event.of(("a", B)), (2, "B"): Event.of(("b", B))},
        )
        r = en.simulate(en.SimConfig("orch"), fig1, complete(("A", "B")), tr)
        assert r.verdict is T and r.stop_round == 2

    def test_timeout_on_nonmonitorable(self, fig3):
        tr = DecentralizedTrace(
            ("A",), 3, {(t, "A"): Event.of(("a", T)) for t in (1, 2, 3)}
        )
        r = en.simulate(en.SimConfig("orch"), fig3, complete(("A",)), tr)
        assert r.verdict is ex.UNKNOWN
        assert r.stop_round == 3 + 5

    def test_per_round_messages(self, fig3):
        tr = DecentralizedTrace(
            ("A", "B", "C"), 4,
            {(t, c): Event.of((p, T))
             for t in range(1, 5) for c, p in (("A", "a"), ("B", "x"), ("C", "y"))},
        )
        r = en.simulate(en.SimConfig("orch"), fig3, complete(("A", "B", "C")), tr)
        per_round = per_round_messages(r.record)
        for t in range(1, 5):
            assert per_round[t] == 2  # |C| - 1


class TestMigration:
    def test_active_bound(self, fig1):
        rng = random.Random(3)
        for _ in range(10):
            spec, aps = random_spec(rng, max_states=4, max_aps=3,
                                    absorbing_finals=True, require_final=True)
            tr = random_trace(rng, aps, 3, 8)
            _, active = active_counts(en.SimConfig("migr"), spec, complete(tr.components), tr)
            assert all(n <= 1 for n in active)

    def test_round_robin_always_migrates(self, fig3):
        tr = DecentralizedTrace(
            ("A", "B"), 3,
            {(t, c): Event.of((p, T))
             for t in range(1, 4) for c, p in (("A", "a"), ("B", "b"))},
        )
        r = en.simulate(en.SimConfig("migrr"), fig3, complete(("A", "B")), tr)
        sends = [k for s in r.record.steps for k, _ in s.sent if k == "ehe"]
        assert len(sends) >= r.record.run_length - 1

    def test_trivially_true_spec_immediate(self):
        from demon.automaton import make_spec

        trivially_true = make_spec(
            ["q0"], "q0", [("q0", "true", "q0")], {"q0": "top"}
        )
        tr = DecentralizedTrace(("A",), 2, {(1, "A"): Event.of(("a", T)),
                                            (2, "A"): Event.of(("a", T))})
        r = en.simulate(en.SimConfig("migr"), trivially_true, complete(("A",)), tr)
        assert r.verdict is T and r.stop_round == 1


class TestAgreement:
    def test_centralized_algorithms_agree_with_oracle(self):
        rng = random.Random(2024)
        agreed_final = 0
        for _ in range(25):
            spec, aps = random_spec(rng, max_states=5, max_aps=4,
                                    absorbing_finals=True, require_final=True)
            if not an.ca_monitorable(spec)[0]:
                continue
            n = rng.randint(4, 12)
            tr = random_trace(rng, aps, rng.randint(2, 3), n)
            glob = reconstruct_global(tr)
            oracle = ex.UNKNOWN
            for k in range(1, n + 1):
                v = spec.verdicts[run(spec, glob[:k])]
                if v.is_final:
                    oracle = v
                    break
            for alg in ("orch", "migr", "migrr"):
                r = en.simulate(en.SimConfig(alg), spec, complete(tr.components), tr)
                assert r.verdict is oracle, (alg, oracle, r.verdict)
            if oracle.is_final:
                agreed_final += 1
        assert agreed_final >= 10

    def test_chor_agrees_with_decentralized_run(self):
        rng = random.Random(77)
        owner = {"a0": "c0", "a1": "c0", "b0": "c1", "b1": "c1"}
        checked = 0
        for _ in range(15):
            phi = _monitorable_formula(rng, owner)
            tr = random_trace(rng, sorted(owner), 2, rng.randint(4, 10), owner=owner)
            tree = lt.net_chor(phi, owner)
            dspec = en.assemble_choreography(tree, tr.components, owner)
            expected = decentralized_run(dspec, tr)
            r = en.simulate(en.SimConfig("chor"), phi, complete(tr.components), tr)
            assert r.verdict is expected, (lt.ltl_text(phi), expected, r.verdict)
            checked += 1
        assert checked == 15


def _monitorable_formula(rng, owner):
    from conftest import random_spec  # noqa: F401  (rng sequencing unchanged)

    pool = [
        "F ({0} || {1})", "F ({0} && {1})", "({0} || {1}) U {2}",
        "F {0} && F {1}", "{0} U ({1} || {2})", "X ({0} || {1})",
    ]
    names = sorted(owner)
    while True:
        shape = rng.choice(pool)
        picks = rng.sample(names, 3)
        phi = lt.parse_ltl(shape.format(*picks))
        tree = lt.net_chor(phi, owner)
        dspec = en.assemble_choreography(tree, ("c0", "c1"), owner)
        if an.decentralized_monitorable(dspec):
            return phi


class TestDeterminism:
    def test_identical_runs_bit_identical(self, fig1):
        rng = random.Random(5)
        spec, aps = random_spec(rng, absorbing_finals=True, require_final=True)
        tr = random_trace(rng, aps, 2, 10)
        runs = [
            en.simulate(en.SimConfig("migr"), spec, complete(tr.components), tr)
            for _ in range(2)
        ]
        assert runs[0].verdict is runs[1].verdict
        assert runs[0].stop_round == runs[1].stop_round
        assert runs[0].record.steps == runs[1].record.steps


class TestMultipleActiveMonitors:
    def test_active_count_bounded_by_config(self, fig1):
        rng = random.Random(8)
        spec, aps = random_spec(rng, max_states=4, max_aps=4,
                                absorbing_finals=True, require_final=True)
        if len(aps) < 3:
            aps = ["p0", "p1", "p2"]
        tr = random_trace(rng, aps[:3], 3, 8)
        cfg = en.SimConfig("migr", initial_active=2)
        _, active = active_counts(cfg, spec, complete(tr.components), tr)
        assert all(n <= 2 for n in active)
        assert active[0] <= 2


def test_migration_per_round_messages_bounded_by_active(fig1):
    rng = random.Random(4242)
    for _ in range(8):
        spec, aps = random_spec(rng, max_states=4, max_aps=4,
                                absorbing_finals=True, require_final=True)
        if len(aps) < 3:
            continue
        tr = random_trace(rng, aps, 3, 8)
        for m in (1, 2):
            r, counts = active_counts(en.SimConfig("migrr", initial_active=m), spec,
                                      complete(tr.components), tr)
            per_round = per_round_messages(r.record)
            for idx, active in enumerate(counts, start=1):
                assert per_round.get(idx, 0) <= max(active, m)


def test_orchestration_delay_bounded_by_comm_delay(fig1):
    rng = random.Random(31415)
    for delay in (1, 2, 3):
        spec, aps = random_spec(rng, max_states=4, max_aps=4,
                                absorbing_finals=True, require_final=True)
        if len(aps) < 2:
            continue
        tr = random_trace(rng, aps, 2, 10)
        r = en.simulate(en.SimConfig("orch", comm_delay=delay), spec,
                        complete(tr.components), tr)
        assert all(d <= delay for s in r.record.steps for d in s.delays)


EXPERIMENT = Path(__file__).resolve().parent.parent / "fixtures" / "experiment"
PINNED_CONFIGS = ({}, {"comm_delay": 3, "initial_active": 2, "timeout_slack": 15})
# SHA-256 of the sorted metrics rows below; any change to what a run computes
# (verdict, stop round or a summary figure) changes it.
PINNED_ROWS_SHA256 = "3822a7146a75504e2afffc243a34f9192ccb33f9265d50779c6a29ce3888a47d"


def test_experiment_metrics_rows_pinned():
    phi = lt.parse_ltl((EXPERIMENT / "spec.ltl").read_text(encoding="utf-8"))
    spec = lt.synthesize(phi)
    rows = []
    for params in PINNED_CONFIGS:
        for path in sorted(EXPERIMENT.glob("trace_*.csv")):
            tr = tg.load(str(path))
            system = complete(tr.components)
            for alg in en.ALGORITHMS:
                result = en.simulate(
                    en.SimConfig(alg, **params), phi if alg == "chor" else spec, system, tr
                )
                rows.append(",".join(mt.csv_row(
                    alg, len(system.nodes), "spec.ltl", path.name, result.verdict,
                    result.stop_round, mt.summarize(result.record),
                )))
    assert len(rows) == 24
    digest = hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()
    assert digest == PINNED_ROWS_SHA256


LONG_PHI = "G (a0 || a2 || a4)"
LONG_DELAYS = (1, 3)
# SHA-256 of the sorted metrics rows of a 150-round run that never resolves:
# the choreography root keeps every round, so its encoding grows to hundreds
# of entries and every encoding operation runs on a long table.
LONG_ROWS_SHA256 = "6723c006d2ba048be4c427929d200e2fcf06dfc1b4d1a267a3a19471c398b2c7"


STEP_GRID_SEED = 2306  # both sizes draw all four formula shapes
# SHA-256 of every Step of every run below, with its verdict and stop round:
# the CSV digests see only summaries, so this is the one check on each
# step's garbage-collection footprint, delays and sends.
STEP_STREAM_SHA256 = "e91d621f80dd8527020575a6220ed2892a282d1b31f917d15d184c341b3f0e17"


def _step_grid_configs():
    """Every algorithm at comm_delay 1 and 3, and migr/migrr with one and two
    active monitors."""
    for alg in en.ALGORITHMS:
        for delay in (1, 3):
            for active in ((1, 2) if alg in ("migr", "migrr") else (1,)):
                yield en.SimConfig(alg, comm_delay=delay, initial_active=active,
                                   timeout_slack=5 * delay)


def _step_grid_inputs():
    """The step grid's ten seeded formulas and traces, five each at |C| 3
    and 5, with L = 12: yields (formula, trace)."""
    synthetic = load_module("scripts/synthetic_benchmark.py", "synthetic_benchmark")
    rng = random.Random(STEP_GRID_SEED)
    for ncomp in (3, 5):
        for _ in range(5):
            phi = synthetic.random_formula(rng, ncomp, 2)
            _, dist = rng.choice(synthetic.DISTRIBUTIONS)
            yield phi, tg.generate(tg.TraceGenConfig(
                components=ncomp, length=12, distribution=dist, seed=rng.randrange(2**31)))


def _step_grid_runs():
    """Every config of the step grid on each of its formulas and traces:
    yields (config, run)."""
    for phi, tr in _step_grid_inputs():
        spec = lt.synthesize(phi)
        for cfg in _step_grid_configs():
            yield cfg, en.simulate(cfg, phi if cfg.algorithm == "chor" else spec,
                                   complete(tr.components), tr)


def _step_fields(r):
    """A run's verdict, stop round and every field of every step."""
    return r.verdict, r.stop_round, [
        (s.t, s.monitor, s.component, s.evaluations, s.simplifications, s.delays, s.gc, s.sent)
        for s in r.record.steps
    ]


def test_step_stream_pinned():
    digest = hashlib.sha256()
    runs = 0
    for cfg, r in _step_grid_runs():
        digest.update(repr((cfg, r.verdict.value, r.stop_round)).encode())
        for s in r.record.steps:
            digest.update(repr((s.t, s.monitor, s.component, s.evaluations,
                                s.simplifications, s.delays, s.gc, s.sent)).encode())
        runs += 1
    assert runs == 120
    assert digest.hexdigest() == STEP_STREAM_SHA256


def _stamp_texts(automata):
    """The text of every stamped label and template row the automata keep."""
    return {
        (id(a), at, key): ex.to_text(v) if isinstance(v, ex.Expr)
        else {q: ex.to_text(c) for q, c in v.items()}
        for a in automata for at, stamped in a.stamps.items() for key, v in stamped.items()
    }


def test_warm_automata_step_as_cold_ones(monkeypatch):
    # An automaton keeps what mov stamped, so a second run on it reuses the
    # first run's stamped nodes, with the facts simplify recorded on them.
    # Over the step grid, each run on a freshly synthesized automaton and a
    # second run on the same, now warm, automaton must make the same steps,
    # and no cached stamping may change in between.
    cases = []
    with monkeypatch.context() as patched:
        patched.setattr(lt, "synthesize", lt.synthesize.__wrapped__)  # past the synthesis cache
        for phi, tr in _step_grid_inputs():
            system, owner = complete(tr.components), tr.observed_owner()
            for cfg in _step_grid_configs():
                if cfg.algorithm == "chor":
                    spec = en.assemble_choreography(lt.net_chor(phi, owner),
                                                    sorted(system.nodes), owner)
                else:
                    spec = lt.synthesize(phi)
                cases.append((cfg, spec, system, tr))
    automata = [a for cfg, spec, _, _ in cases
                for a in (spec.monitors.values() if cfg.algorithm == "chor" else (spec,))]
    assert not any(a.stamps for a in automata)
    cold = [_step_fields(en.simulate(*case)) for case in cases]
    texts = _stamp_texts(automata)
    assert any(isinstance(text, str) for text in texts.values())  # labels
    assert any(isinstance(text, dict) for text in texts.values())  # template rows
    warm = [_step_fields(en.simulate(*case)) for case in cases]
    assert warm == cold
    after = _stamp_texts(automata)
    kept = texts.keys() & after.keys()  # the bounded caches evict some rounds
    assert len(kept) > len(texts) // 2
    assert all(after[key] == texts[key] for key in kept)


def test_memories_owned_and_payloads_unchanged(monkeypatch):
    # Each monitor merges into a memory of its own, in place: over the step
    # grid, no memory may be a payload some monitor sent, no payload may
    # change after it is sent, and the shared empty memory stays empty.
    real = en._monitor_round
    sent = []  # (payload, its copy when sent); keeps every payload alive

    def round_fn(state, *args):
        outbox, verdict = real(state, *args)
        assert all(state.memory is not payload for payload, _ in sent)
        sent.extend((m.payload, dict(m.payload)) for m in outbox
                    if m.kind in ("mem", "verdict"))
        return outbox, verdict

    for name in ("orchestration_round", "migration_round", "choreography_round"):
        monkeypatch.setattr(en, name, round_fn)
    kinds = {cfg.algorithm for cfg, _ in _step_grid_runs()}
    assert kinds == set(en.ALGORITHMS)
    assert sent and all(payload == copy for payload, copy in sent)
    assert store.EMPTY_MEMORY == {}


def test_long_run_metrics_rows_pinned():
    phi = lt.parse_ltl(LONG_PHI)
    spec = lt.synthesize(phi)
    tr = tg.generate(tg.TraceGenConfig(
        components=3, aps_per_component=2, length=150,
        distribution=tg.Binomial(n=100, p=0.97), seed=0,
    ))
    system = complete(tr.components)
    rows = []
    for delay in LONG_DELAYS:
        for alg in en.ALGORITHMS:
            cfg = en.SimConfig(alg, comm_delay=delay, timeout_slack=5 * delay)
            result = en.simulate(cfg, phi if alg == "chor" else spec, system, tr)
            rows.append(",".join(mt.csv_row(
                alg, len(system.nodes), LONG_PHI, f"delay-{delay}", result.verdict,
                result.stop_round, mt.summarize(result.record),
            )))
    assert len(rows) == 8
    digest = hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()
    assert digest == LONG_ROWS_SHA256


BOUNDED_PHI = "G (a0 || a1 || a2)"


def _rotating_trace(length):
    """Each round exactly one of a0, a1, a2 holds, so the formula never resolves."""
    comps = ("c0", "c1", "c2")
    return DecentralizedTrace(comps, length, {
        (t, f"c{i}"): Event.of((f"a{i}", T if t % 3 == i else B))
        for t in range(1, length + 1) for i in range(3)
    })


def _state_peaks(alg, length):
    """(largest encoding of any monitor, largest memory of monitor m0) over
    every round of a run that never resolves.  m0 is the orch main monitor
    and the chor root.  The encodings are those the monitors hold after
    their rounds and those they sent, each recorded by its step's ``gc``.
    m0's memory is read as garbage collection starts, before the cut that
    forgets it."""
    phi = lt.parse_ltl(BOUNDED_PHI)
    tr = _rotating_trace(length)
    peaks = [0, 0]

    def observe(state):
        if state.ehe is not None:
            peaks[0] = max(peaks[0], len(state.ehe))

    def before_gc(state):
        if state.name == "m0":
            peaks[1] = max(peaks[1], len(state.memory))

    r = simulate_observed(en.SimConfig(alg), phi if alg == "chor" else lt.synthesize(phi),
                          complete(tr.components), tr, observe, before_gc)
    assert r.verdict is ex.UNKNOWN and r.stop_round == length + 5
    peaks[0] = max([peaks[0]] + [s.gc[0] for s in r.record.steps if s.gc])
    return tuple(peaks)


@pytest.mark.parametrize("alg", en.ALGORITHMS)
def test_monitor_state_bounded_in_rounds(alg):
    # Tripling the run length must not grow the encodings, nor the memory of
    # the orch main monitor and the chor root.  migr/migrr memory is the
    # known unbounded case: two active encodings can name the same atoms, so
    # neither may forget them, and it is not checked here.
    short, long = _state_peaks(alg, 60), _state_peaks(alg, 180)
    assert short[0] > 0 and short[0] == long[0], (short, long)
    if alg in ("orch", "chor"):
        assert short[1] > 0 and long[1] <= short[1], (short, long)


def _expression_calls(alg, length, monkeypatch):
    """``encode``, ``rewrite_fold`` and ``simplify`` calls of one run over
    ``_rotating_trace(length)`` on a freshly synthesized automaton."""
    lt.synthesize.cache_clear()  # no row templates from an earlier run
    phi = lt.parse_ltl(BOUNDED_PHI)
    tr = _rotating_trace(length)
    owner = tr.observed_owner()
    if alg == "chor":
        spec = en.assemble_choreography(lt.net_chor(phi, owner), tr.components, owner)
    else:
        spec = lt.synthesize(phi)
    calls = [0]
    with monkeypatch.context() as patched:
        for name in ("encode", "rewrite_fold", "simplify"):
            def counted(*args, real=getattr(ex, name), **kwargs):
                calls[0] += 1
                return real(*args, **kwargs)
            patched.setattr(ex, name, counted)
        r = en.simulate(en.SimConfig(alg), spec, complete(tr.components), tr)
    assert r.verdict is ex.UNKNOWN and r.stop_round == length + 5
    return calls[0]


@pytest.mark.parametrize("alg", en.ALGORITHMS)
def test_expression_work_linear_in_rounds(alg, monkeypatch):
    # Wall-time ratios on a shared host are too noisy to show linear scaling;
    # the expression calls a run makes are not.  Four times the rounds may
    # cost at most four times the calls, plus a few for the warm-up rounds.
    short = _expression_calls(alg, 100, monkeypatch)
    long = _expression_calls(alg, 400, monkeypatch)
    assert long <= 4 * short + 50, (short, long)


def test_stamp_cache_bounded(monkeypatch):
    # A run of more rounds than an automaton's stamp cache holds fills it
    # to its bound and no further, keeps the latest rounds, and steps as a
    # run that evicts nothing.
    phi = lt.parse_ltl(BOUNDED_PHI)
    bound = eh._STAMP_CACHE_SIZE
    tr = _rotating_trace(4 * bound)
    spec = lt.synthesize.__wrapped__(phi)
    sizes = []
    r = simulate_observed(en.SimConfig("orch"), spec, complete(tr.components), tr,
                          lambda state: sizes.append(len(spec.stamps)))
    assert r.verdict is ex.UNKNOWN and r.stop_round == 4 * bound + 5
    assert max(sizes) == len(spec.stamps) == bound
    assert [t for t, _ in spec.stamps] == list(range(r.stop_round - bound + 1, r.stop_round + 1))
    monkeypatch.setattr(eh, "_STAMP_CACHE_SIZE", 1 << 30)
    unbounded = en.simulate(en.SimConfig("orch"), lt.synthesize.__wrapped__(phi),
                            complete(tr.components), tr)
    assert _step_fields(r) == _step_fields(unbounded)


def _memory_writes(alg, length, monkeypatch):
    """Atoms written into monitor memories over one run on
    ``_rotating_trace(length)``, counted at ``store.memory_merge``: the atoms
    merged in when it merges in place, and all the atoms of the result when
    it returns a new dict."""
    phi = lt.parse_ltl(BOUNDED_PHI)
    tr = _rotating_trace(length)
    written = [0]

    def counted(memory, m, *args, real=en.memory_merge, **kwargs):
        out = real(memory, m, *args, **kwargs)
        written[0] += len(m) if out is memory else len(out)
        return out

    with monkeypatch.context() as patched:
        patched.setattr(en, "memory_merge", counted)
        r = en.simulate(en.SimConfig(alg), phi if alg == "chor" else lt.synthesize(phi),
                        complete(tr.components), tr)
    assert r.verdict is ex.UNKNOWN and r.stop_round == length + 5
    return written[0]


@pytest.mark.parametrize("alg", en.ALGORITHMS)
def test_memory_writes_linear_in_rounds(alg, monkeypatch):
    # A merge that copied the memory would write every atom the memory holds
    # each round: under migr/migrr, which keep every observation, that grows
    # as the square of the rounds.
    short = _memory_writes(alg, 100, monkeypatch)
    long = _memory_writes(alg, 400, monkeypatch)
    assert short > 0 and long <= 4 * short + 50, (short, long)


@pytest.mark.parametrize("text", ["G (a0 || a2 || a4)", "F (a0 && a3)", "(a1 || a2) U a5"])
def test_simulate_on_a_warm_automaton_repeats_its_rows(text):
    # The first runs build the automaton's row templates and the second
    # ones stamp them; the metrics rows must not tell the two apart.  Under
    # chor the monitors' automata come from the synthesis cache the second
    # time, so their templates are warm too.
    lt.synthesize.cache_clear()
    phi = lt.parse_ltl(text)
    spec = lt.synthesize(phi)
    tr = tg.generate(tg.TraceGenConfig(
        components=3, aps_per_component=2, length=40,
        distribution=tg.Binomial(n=100, p=0.9), seed=3,
    ))
    system = complete(tr.components)

    def rows():
        out = []
        for alg in en.ALGORITHMS:
            r = en.simulate(en.SimConfig(alg, comm_delay=2), phi if alg == "chor" else spec,
                            system, tr)
            out.append(mt.csv_row(alg, 3, text, "t", r.verdict, r.stop_round,
                                  mt.summarize(r.record)))
        return out

    cold = rows()
    assert spec.row_templates
    before = lt.synthesize.cache_info()
    assert rows() == cold
    after = lt.synthesize.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_row_templates_bounded_by_states():
    # One template per constant source row that a run meets: G (a || b) over
    # 300 rounds that never resolve meets a handful, not one per round.
    phi = lt.parse_ltl("G (a || b)")
    spec = lt.synthesize(phi)
    tr = DecentralizedTrace(("c0", "c1"), 300, {
        (t, f"c{i}"): Event.of((ap, T if t % 2 == i else B))
        for t in range(1, 301) for i, ap in enumerate("ab")
    })
    r = en.simulate(en.SimConfig("orch"), spec, complete(tr.components), tr)
    assert r.verdict is ex.UNKNOWN
    assert 0 < len(spec.row_templates) <= len(spec.states)
    # The rows the round's memory decides are kept per memory pattern: at
    # most absent, TOP or BOTTOM for each atom of the template.
    assert any(template.steps for template in spec.row_templates.values())
    for template in spec.row_templates.values():
        assert len(template.steps) <= 3 ** len(template.atoms)


def test_chor_prefix_drop_keeps_open_rows():
    # A leading row before t_kn that holds only constants, one of them TRUE,
    # resolves the same way at the same cost on every later round, so it goes
    # and its cost is kept.  A row with an open entry still costs inc a
    # simplification, so it stays, and with it every row after it.
    F, TR, x = ex.FALSE, ex.TRUE, ex.Var(ex.timed(2, "a"))
    spec = make_spec(["q0", "q1"], "q0", [("q0", "a", "q1"), ("q0", "!a", "q0"),
                                          ("q1", "true", "q1")],
                     {"q0": "unknown", "q1": "unknown"})

    def dropped(table, t_kn):
        # booked with the rows read up to t_kn, the last known round
        t = max(table)
        state = en.MonitorState("m0", "A", EHE(spec, table), t_kn=t_kn)
        rows = [(r, eh.read(row, {})) for r, row in table.items() if r <= t_kn]
        assert en._book(state, en._POLICIES["chor"], t, mt.Step(t, "m0", "A"), rows, {}) is None
        return state.ehe.first_round(), state.prefix_evals

    closed = {1: {"q0": F, "q1": TR}, 2: {"q0": TR}, 3: {"q0": TR, "q1": F}}
    assert dropped(closed, 5) == (3, 3)  # never the last row
    assert dropped(closed, 2) == (2, 2)  # only rows before t_kn
    assert dropped({1: {"q0": TR}, 2: {"q0": TR, "q1": x}, 3: {"q0": TR}}, 3) == (2, 1)
    assert dropped({1: {"q0": TR, "q1": TR}, 2: {"q0": TR}}, 2) == (1, 0)


# Recorded before a respawn anchored at the current round was booked
# directly: the step streams of the respawn tests below.
RESPAWN_FINAL_SHA256 = "cecdec4645682296a92222ee48ce75718c0a9b825f1079495ac775eac5ae65db"
RESPAWN_BEHIND_SHA256 = "676bc6eb6fb85a431de6b5bda2354e4960b47cfb3d8f181b87293f78dd591486"
RESPAWN_AT_T_STEPS = [(1, 4, (1, 1, 3), (("verdict", 7),)), (2, 3, (1, 1, 3), (("verdict", 7),)),
                      (3, 3, (3, 2, 3), ())]


def _chor_with_child(m1: Specification) -> DecentralizedSpec:
    """Root m0 on c0 reaches its TOP state once ``a0 && m1`` holds; the child
    m1 runs on c1, where ``a1`` is observed."""
    m0 = make_spec(["q0", "qT"], "q0",
                   [("q0", "a0 && m1", "qT"), ("q0", "!(a0 && m1)", "q0"), ("qT", "true", "qT")],
                   {"q0": "unknown", "qT": "top"})
    return DecentralizedSpec(("m0", "m1"), {"m0": m0, "m1": m1}, ("c0", "c1"),
                             {"m0": "c0", "m1": "c1"}, "m0", {"a0": "c0", "a1": "c1"})


def _respawn_runs(d, comm_delays, monkeypatch):
    """``chor`` on ``d`` over eight seeded traces of length 8 at each delay:
    yields (config, run, the (round, anchor) of each verdict m1 sent), with
    each verdict checked against the decentralized reference."""
    rng = random.Random(53)
    for _ in range(8):
        tr = tg.generate(tg.TraceGenConfig(components=2, aps_per_component=1, length=8,
                                           seed=rng.randrange(2**31)))
        for comm_delay in comm_delays:
            cfg = en.SimConfig("chor", comm_delay=comm_delay, timeout_slack=5 * comm_delay)
            reports = []

            def round_fn(state, t, *args, inner=en.choreography_round):
                outbox, verdict = inner(state, t, *args)
                reports.extend((t, next(iter(msg.payload)).t)
                               for msg in outbox if msg.kind == "verdict")
                return outbox, verdict

            with monkeypatch.context() as patched:
                patched.setattr(en, "choreography_round", round_fn)
                r = en.simulate(cfg, d, complete(tr.components), tr)
            assert r.verdict is decentralized_run(d, tr), (tr, comm_delay)
            yield cfg, r, reports


def _steps_digest(runs) -> str:
    digest = hashlib.sha256()
    for cfg, r in runs:
        digest.update(repr((cfg, *_step_fields(r))).encode())
    return digest.hexdigest()


def _final_child() -> Specification:
    """A child whose one state, its initial one, is final."""
    return make_spec(["top"], "top", [("top", "true", "top")], {"top": "top"})


def _late_child() -> Specification:
    """A child that reads a1 one round after its anchor."""
    return make_spec(["s0", "s1", "sT", "sB"], "s0",
                     [("s0", "true", "s1"), ("s1", "a1", "sT"), ("s1", "!a1", "sB"),
                      ("sT", "true", "sT"), ("sB", "true", "sB")],
                     {"s0": "unknown", "s1": "unknown", "sT": "top", "sB": "bottom"})


def test_respawn_of_a_final_initial_state_ends(monkeypatch):
    # m1 starts in its final state: each instance reports at once, so the
    # instance it respawns in the same round reports too, and the next one
    # waits for the following round.
    runs = list(_respawn_runs(_chor_with_child(_final_child()), (1, 3), monkeypatch))
    for _, r, reports in runs:
        assert reports[:2] == [(1, 1), (1, 2)]
        assert all(anchor in (t, t + 1) for t, anchor in reports)
    assert _steps_digest((cfg, r) for cfg, r, _ in runs) == RESPAWN_FINAL_SHA256


def test_respawn_behind_the_current_round(monkeypatch):
    # m1 reads a1 one round after its anchor, so every instance resolves a
    # round late and its successor, anchored behind the current round, is
    # moved up to it in the same round.
    runs = list(_respawn_runs(_chor_with_child(_late_child()), (3,), monkeypatch))
    for _, r, reports in runs:
        assert reports and all(anchor == t - 1 for t, anchor in reports)
    assert {r.verdict for _, r, _ in runs} == {T, ex.UNKNOWN}
    assert _steps_digest((cfg, r) for cfg, r, _ in runs) == RESPAWN_BEHIND_SHA256


def test_respawn_at_the_current_round_books_one_evaluation(fig4, fig4_trace):
    # fig4's m1 resolves each instance in the round it is anchored at, so its
    # successor is anchored at the current round: that round's step counts
    # one more evaluation, of the row {s0: TRUE}, and the footprint
    # (1 entry, 1 round, 3 states).  In round 3 its instance waits for b0.
    r = en.simulate(en.SimConfig("chor"), fig4, complete(("c0", "c1")), fig4_trace)
    steps = [(s.t, s.evaluations, s.gc, s.sent) for s in r.record.steps if s.monitor == "m1"]
    assert steps == RESPAWN_AT_T_STEPS
    assert all(gc == (1, 1, 3) for _, _, gc, sent in steps if sent)


def _late_trace(late: int, length: int = 10) -> DecentralizedTrace:
    """a0 holds from round 2, a1 on even rounds and a2 from round ``late``."""
    holds = {"a0": lambda t: t >= 2, "a1": lambda t: t % 2 == 0, "a2": lambda t: t >= late}
    return DecentralizedTrace(("c0", "c1", "c2"), length, {
        (t, f"c{ap[1]}"): Event.of((ap, T if holds[ap](t) else B))
        for t in range(1, length + 1) for ap in holds
    })


def _lookup_cases(fig4, fig4_trace):
    """Runs that the decided-round lookup may book, by family: (family,
    config, spec input, system, trace).  ``long``'s shape, G over a
    disjunction of one proposition per component, over seeded L=120 traces,
    and seeded ``random_formula`` shapes over L=30 traces, each under every
    config of the step grid; under ``chor``, the respawn tests'
    specifications, ``F a0 && F a1 && F a2`` with a child that waits for a
    late a2 and then catches up, and the shipped child with a final initial
    state."""
    rng = random.Random(71)
    for n in (3, 4):
        phi = lt.parse_ltl(f"G ({' || '.join(f'a{i}' for i in range(n))})")
        for _ in range(2):
            tr = tg.generate(tg.TraceGenConfig(
                components=n, aps_per_component=1, length=120,
                distribution=tg.Binomial(n=100, p=0.97), seed=rng.randrange(2**31)))
            for cfg in _step_grid_configs():
                yield "long", cfg, phi if cfg.algorithm == "chor" else lt.synthesize(phi), \
                    complete(tr.components), tr
    synthetic = load_module("scripts/synthetic_benchmark.py", "synthetic_benchmark")
    for ncomp in (3, 4):
        for _ in range(3):
            phi = synthetic.random_formula(rng, ncomp, 2)
            _, dist = rng.choice(synthetic.DISTRIBUTIONS)
            tr = tg.generate(tg.TraceGenConfig(components=ncomp, length=30, distribution=dist,
                                               seed=rng.randrange(2**31)))
            for cfg in _step_grid_configs():
                yield "random_formula", cfg, \
                    phi if cfg.algorithm == "chor" else lt.synthesize(phi), \
                    complete(tr.components), tr
    for family, m1 in (("final", _final_child()), ("late", _late_child())):
        for _ in range(4):
            tr = tg.generate(tg.TraceGenConfig(components=2, aps_per_component=1, length=8,
                                               seed=rng.randrange(2**31)))
            for comm_delay in (1, 3):
                cfg = en.SimConfig("chor", comm_delay=comm_delay, timeout_slack=5 * comm_delay)
                yield family, cfg, _chor_with_child(m1), complete(tr.components), tr
    phi = lt.parse_ltl("F a0 && F a1 && F a2")
    for late in (4, 6):
        for comm_delay in (1, 3):
            cfg = en.SimConfig("chor", comm_delay=comm_delay, timeout_slack=5 * comm_delay)
            tr = _late_trace(late)
            yield "catch_up", cfg, phi, complete(tr.components), tr
    yield "fig4", en.SimConfig("chor"), fig4, complete(("c0", "c1")), fig4_trace
    tr = tg.load(str(EXPERIMENT / "trace_normal.csv"))
    d = load_spec(str(EXPERIMENT.parent / "decentralized_final_child.json"))
    yield "fixture", en.SimConfig("chor"), d, complete(tr.components), tr


def test_booking_resolves_past_a_merge_gap(monkeypatch):
    # Two active migration monitors three rounds apart merge encodings whose
    # rounds need not meet, so a round may resolve rows on both sides of a
    # gap.  Every round without a final verdict books a delay for each newly
    # known round of the table, advances t_kn and cuts where the search from
    # the first round up to the first open one stops.  The decided-round
    # lookup, which takes one row of constants and so never a gap, always
    # misses here, so that every booking reads the moved encoding.  migrr's
    # encodings move in step and never meet on these runs; migr's do.
    synthetic = load_module("scripts/synthetic_benchmark.py", "synthetic_benchmark")
    rng = random.Random(5)
    real = en._book
    across = {}

    def checked(state, policy, t, step, rows, memo):
        p, m, t_kn, delays = state.ehe, dict(state.memory), state.t_kn, step.delays
        verdict = real(state, policy, t, step, rows, memo)
        if verdict is None:
            last = last_resolved(p, m)
            known = [r for r in p.rounds() if last is not None and t_kn < r <= last[0]]
            assert step.delays == delays + tuple(t - r for r in known)
            assert state.t_kn == max([t_kn] + known)
            if last is None:
                assert state.ehe is p
            else:
                assert state.ehe.table == {last[0]: {last[1]: ex.TRUE},
                                           **{r: row for r, row in p.table.items() if r > last[0]}}
                rounds = [r for r in p.rounds() if r <= last[0]]
                gap = any(b - a > 1 for a, b in zip(rounds, rounds[1:]))
                across[cfg.algorithm] = across.get(cfg.algorithm, 0) + gap
        return verdict

    monkeypatch.setattr(en, "_book", checked)
    monkeypatch.setattr(eh, "decided_round", lambda *args: None)
    for _ in range(6):
        ncomp = rng.choice((3, 4))
        phi = synthetic.random_formula(rng, ncomp, 2)
        _, dist = rng.choice(synthetic.DISTRIBUTIONS)
        tr = tg.generate(tg.TraceGenConfig(components=ncomp, length=20, distribution=dist,
                                           seed=rng.randrange(2**31)))
        for alg in ("migr", "migrr"):
            cfg = en.SimConfig(alg, comm_delay=3, initial_active=2, timeout_slack=15)
            en.simulate(cfg, lt.synthesize(phi), complete(tr.components), tr)
    assert across["migr"] and "migrr" in across, across


def test_decided_round_lookup_books_what_the_pass_would(fig4, fig4_trace, monkeypatch):
    # Every run steps exactly as with a lookup that always misses, so every
    # round takes its pass: same verdict, stop round, every Step field, and
    # every monitor's state after every round.  The lookup hits in some
    # round of each family and of each algorithm, and a child that catches
    # up gets more than two rows from one lookup.
    real, hits, caught_up = eh.decided_round, {}, {}

    def counted(*args):
        rows = real(*args)
        hits[family, cfg.algorithm] += rows is not None
        caught_up[family] = caught_up.get(family, 0) + (rows is not None and len(rows) > 2)
        return rows

    def run(case, lookup):
        seen = []

        def observed(inner):
            def round_fn(state, t, *args):
                outbox, verdict = inner(state, t, *args)
                # nothing reads the encoding that a verdict ending the run leaves
                table = None if verdict is not None or state.ehe is None \
                    else dict(state.ehe.table)
                sent = [(msg.kind, msg.receiver,
                         msg.payload.table if msg.kind == "ehe" else msg.payload)
                        for msg in outbox]
                seen.append((t, state.name, sorted(state.memory.items()), state.t_kn,
                             state.t_mon, state.prefix_evals, table, sent))
                return outbox, verdict
            return round_fn

        with monkeypatch.context() as patched:
            patched.setattr(eh, "decided_round", lookup)
            for alias in ("orchestration_round", "migration_round", "choreography_round"):
                patched.setattr(en, alias, observed(getattr(en, alias)))
            return _step_fields(en.simulate(*case)), seen

    for family, *case in _lookup_cases(fig4, fig4_trace):
        cfg = case[0]
        hits.setdefault((family, cfg.algorithm), 0)
        assert run(case, counted) == run(case, lambda *args: None), (family, case)
    assert {alg for (_, alg), n in hits.items() if n} == set(en.ALGORITHMS), hits
    families = {family for family, _ in hits}
    assert len(families) == 7 and families == {family for (family, _), n in hits.items() if n}
    assert caught_up["catch_up"], caught_up
