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
from demon import traces as tg
from demon.automaton import (
    DecentralizedTrace,
    decentralized_run,
    reconstruct_global,
    run,
)
from demon.ehe import EHE
from demon.errors import IncompatiblePlacement, InvalidParameters
from demon.store import EMPTY_MEMORY, Event, Memory

from conftest import random_spec, random_trace
from helpers import last_resolved, simulate_observed

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
        active = [s for s in st.states.values() if s.is_active]
        assert len(active) == 1

    def test_migr_initial_active_follows_heuristic(self, fig1):
        st = en.setup(
            en.SimConfig("migr"), fig1, complete(("A", "B")), {"a": "B", "b": "B"}
        )
        # both round-1 obligations live on B, so B's monitor starts active
        assert st.states["m_B"].is_active and not st.states["m_A"].is_active

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
            assert all(s.is_active for s in st.states.values())


def test_resolve_returns_where_garbage_collection_cuts():
    # Without a final verdict, the last (round, state) _resolve resolved is the
    # one the search from the first round up to the first open round finds.
    rng = random.Random(1212)
    seen = set()
    for _ in range(150):
        spec, aps = random_spec(rng, max_states=4, max_aps=3)
        n = rng.randint(1, 6)
        p = eh.mov(eh.init(spec), 0, n)
        atoms = [ex.timed(t, a) for t in range(1, n + 1) for a in aps]
        if rng.random() < 0.5:
            p = eh.inc(p, Memory({a: rng.choice((T, B)) for a in atoms if rng.random() < 0.3}))
        if rng.random() < 0.4:  # start past round 0, so the first round may be open
            p = EHE(spec, dict(list(p.table.items())[rng.randint(1, n):]))
        m = Memory({a: rng.choice((T, B)) for a in atoms if rng.random() < 0.5})
        state = en.MigrationState("m_c", "c", is_active=True, memory=m, ehe=p)
        verdict, last = en._resolve(state, n, mt.Step(n, "m_c", "c"))
        if verdict is None:
            assert last == last_resolved(p, m)
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
        per_round = r.record.per_round_messages()
        for t in range(1, 5):
            assert per_round[t] == 2  # |C| - 1


class TestMigration:
    def test_active_bound(self, fig1):
        rng = random.Random(3)
        for _ in range(10):
            spec, aps = random_spec(rng, max_states=4, max_aps=3,
                                    absorbing_finals=True, require_final=True)
            tr = random_trace(rng, aps, 3, 8)
            r = en.simulate(en.SimConfig("migr"), spec, complete(tr.components), tr)
            assert all(n <= 1 for n in r.record.active_counts)

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
        r = en.simulate(cfg, spec, complete(tr.components), tr)
        assert all(n <= 2 for n in r.record.active_counts)
        assert r.record.active_counts[0] <= 2


def test_migration_per_round_messages_bounded_by_active(fig1):
    rng = random.Random(4242)
    for _ in range(8):
        spec, aps = random_spec(rng, max_states=4, max_aps=4,
                                absorbing_finals=True, require_final=True)
        if len(aps) < 3:
            continue
        tr = random_trace(rng, aps, 3, 8)
        for m in (1, 2):
            r = en.simulate(en.SimConfig("migrr", initial_active=m), spec,
                            complete(tr.components), tr)
            per_round = r.record.per_round_messages()
            for idx, active in enumerate(r.record.active_counts, start=1):
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
    and the chor root."""
    phi = lt.parse_ltl(BOUNDED_PHI)
    tr = _rotating_trace(length)
    peaks = [0, 0]

    def observe(state):
        if hasattr(state, "ehe"):
            peaks[0] = max(peaks[0], len(state.ehe))
            if state.name == "m0":
                peaks[1] = max(peaks[1], len(state.memory))

    r = simulate_observed(en.SimConfig(alg), phi if alg == "chor" else lt.synthesize(phi),
                          complete(tr.components), tr, observe)
    assert r.verdict is ex.UNKNOWN and r.stop_round == length + 5
    return tuple(peaks)


@pytest.mark.parametrize("alg", en.ALGORITHMS)
def test_monitor_state_bounded_in_rounds(alg):
    # Tripling the run length must not grow the encodings, nor the memory of
    # the orch main monitor and the chor root.  migr/migrr memory is the
    # known unbounded case: two active encodings can name the same atoms, so
    # neither may forget them, and it is not checked here.
    short, long = _state_peaks(alg, 60), _state_peaks(alg, 180)
    assert short[0] == long[0], (short, long)
    if alg in ("orch", "chor"):
        assert long[1] <= short[1], (short, long)


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


def test_chor_prefix_drop_keeps_open_rows(fig1):
    # A leading row before t_kn that holds only constants, one of them TRUE,
    # resolves the same way at the same cost on every later round, so it goes
    # and its cost is kept.  A row with an open entry still costs inc a
    # simplification, so it stays, and with it every row after it.
    F, TR, x = ex.FALSE, ex.TRUE, ex.Var(ex.timed(2, "a"))

    def dropped(table, t_kn):
        state = en.ChorState("m0", "A", t_mon=1, memory=EMPTY_MEMORY, ehe=EHE(fig1, table),
                             refs=frozenset(), corefs=frozenset(), t_kn=t_kn)
        en._drop_prefix(state)
        return state.ehe.first_round(), state.prefix_evals

    closed = {1: {"q0": F, "q1": TR}, 2: {"q0": TR}, 3: {"q0": TR, "q1": F}}
    assert dropped(closed, 5) == (3, 3)  # never the last row
    assert dropped(closed, 2) == (2, 2)  # only rows before t_kn
    assert dropped({1: {"q0": TR}, 2: {"q0": TR, "q1": x}, 3: {"q0": TR}}, 3) == (2, 1)
    assert dropped({1: {"q0": TR, "q1": TR}, 2: {"q0": TR}}, 2) == (1, 0)
