import itertools
import random

import pytest

from demon import ehe as eh
from demon import expr as ex
from demon import ltl as lt
from demon import metrics as mt
from demon.automaton import Specification, Transition, make_spec, reconstruct_global, run
from demon.errors import AutomatonMismatch, UndefinedRound
from demon.store import Memory, mem_from_event, memory_merge

from conftest import load_module, random_spec, random_trace
from helpers import (
    dag_nodes,
    entrywise_equivalent,
    fresh_copy,
    last_resolved,
    max_label_size,
    reference_simplify,
    states_at,
    tree_size,
)

T, B = ex.TOP, ex.BOTTOM


def timed_mem(**kv):
    out = {}
    for key, v in kv.items():
        t, name = key.split("_")
        out[ex.timed(int(t), name)] = v
    return Memory(out)


def table1_expected():
    a1, b1 = ex.Var(ex.timed(1, "a")), ex.Var(ex.timed(1, "b"))
    a2, b2 = ex.Var(ex.timed(2, "a")), ex.Var(ex.timed(2, "b"))
    return {
        (0, "q0"): ex.TRUE,
        (1, "q0"): ex.And(ex.Not(a1), ex.Not(b1)),
        (1, "q1"): ex.Or(a1, b1),
        (2, "q0"): ex.And(ex.And(ex.Not(a1), ex.Not(b1)), ex.And(ex.Not(a2), ex.Not(b2))),
        (2, "q1"): ex.Or(
            ex.Or(a1, b1),
            ex.And(ex.And(ex.Not(a1), ex.Not(b1)), ex.Or(a2, b2)),
        ),
    }


class TestConstruction:
    def test_init(self, fig1):
        p = eh.init(fig1)
        assert dict(p.entries) == {(0, "q0"): ex.TRUE}

    def test_next_states(self, fig1):
        assert [tr.dst for tr in fig1.outgoing("q0")] == ["q1", "q0"]
        assert states_at(eh.mov(eh.init(fig1), 1), 1) == ["q0", "q1"]

    def test_next_absorbing(self, fig1):
        p = eh.mov(eh.EHE(fig1, {5: {"q1": ex.TRUE}}), 6)
        assert states_at(p, 6) == ["q1"]

    def test_to_expr(self, fig1):
        a, b = ex.plain("a"), ex.plain("b")
        into_q1 = fig1.by_destination["q1"]
        assert into_q1 == (
            Transition("q0", ex.Or(ex.Var(a), ex.Var(b)), "q1"),
            Transition("q1", ex.TRUE, "q1"),
        )
        assert fig1.by_destination is fig1.by_destination  # built once
        p = eh.mov(eh.init(fig1), 1)
        a1, b1 = ex.Var(ex.timed(1, "a")), ex.Var(ex.timed(1, "b"))
        assert ex.equivalent(p.entries[(1, "q1")], ex.Or(a1, b1))
        assert ex.equivalent(p.entries[(1, "q0")], ex.And(ex.Not(a1), ex.Not(b1)))

    def test_golden_table1(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        expected = table1_expected()
        assert set(p.entries) == set(expected)
        for key, want in expected.items():
            assert ex.equivalent(p.entries[key], want), key

    def test_mov_identity(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        assert eh.mov(p, 2) is p
        with pytest.raises(UndefinedRound):  # below the last round
            eh.mov(p, 1)

    def test_mov_fig2_one_round(self, fig2):
        p = eh.mov(eh.init(fig2), 1)
        a1, b1 = ex.Var(ex.timed(1, "a")), ex.Var(ex.timed(1, "b"))
        assert ex.equivalent(p.entries[(1, "q0")], ex.Or(ex.Not(a1), ex.Not(b1)))
        assert ex.equivalent(p.entries[(1, "q1")], ex.And(a1, b1))


class TestResolution:
    def test_sreach_example(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        m = timed_mem(**{"1_a": T, "1_b": B})
        assert eh.sreach(p, m, 1) == "q1"
        assert eh.verdict_at(p, m, 1) is T

    def test_sreach_round0(self, fig1):
        p = eh.init(fig1)
        assert eh.sreach(p, Memory(), 0) == "q0"

    def test_sreach_unresolved(self, fig1):
        p = eh.mov(eh.init(fig1), 1)
        assert eh.sreach(p, Memory(), 1) is None
        assert eh.verdict_at(p, Memory(), 1) is ex.UNKNOWN

    def test_verdict_at_round0(self, fig1):
        p = eh.init(fig1)
        assert eh.verdict_at(p, Memory(), 0) is ex.UNKNOWN  # ver(q0) = ?

    def test_sreach_reads_constants_without_eval_expr(self, monkeypatch):
        spec = make_spec(["q0", "q1", "q2"], "q0", [("q0", "true", "q0")],
                         {"q0": "unknown", "q1": "top", "q2": "bottom"})
        real_eval = ex.eval_expr
        calls = []

        def recorded(e, *args, **kwargs):
            calls.append(e)
            return real_eval(e, *args, **kwargs)

        monkeypatch.setattr(ex, "eval_expr", recorded)
        a1 = ex.Var(ex.timed(1, "a"))
        cases = [
            ({"q0": ex.FALSE, "q1": ex.TRUE, "q2": ex.FALSE}, "q1", 2, []),
            ({"q0": ex.TRUE, "q1": ex.FALSE, "q2": ex.FALSE}, "q0", 1, []),
            ({"q0": ex.FALSE, "q1": ex.FALSE, "q2": ex.FALSE}, None, 3, []),
            ({"q0": a1, "q1": ex.TRUE, "q2": ex.FALSE}, "q1", 2, [a1]),
        ]
        for row, found, evaluations, evaluated in cases:
            calls.clear()
            step = mt.Step(1, "m", "c")
            assert eh.sreach(eh.EHE(spec, {1: row}), Memory(), 1, step=step) == found
            assert step.evaluations == evaluations  # up to and including TOP
            assert calls == evaluated


class TestMergeInc:
    def test_golden_table2(self, fig2):
        p = eh.mov(eh.init(fig2), 1)
        m0 = Memory({ex.timed(1, "a"): T})
        m1 = Memory({ex.timed(1, "b"): B})
        p0 = eh.inc(p, m0)
        p1 = eh.inc(p, m1)
        b1 = ex.Var(ex.timed(1, "b"))
        a1 = ex.Var(ex.timed(1, "a"))
        assert ex.equivalent(p0.entries[(1, "q0")], ex.Not(b1))
        assert ex.equivalent(p0.entries[(1, "q1")], b1)
        assert ex.equivalent(p1.entries[(1, "q0")], ex.TRUE)
        assert ex.equivalent(p1.entries[(1, "q1")], ex.FALSE)
        merged = eh.merge(p0, p1)
        assert ex.equivalent(merged.entries[(1, "q0")], ex.TRUE)
        assert ex.equivalent(merged.entries[(1, "q1")], b1)
        assert eh.sreach(merged, Memory(), 1) == "q0"

    def test_merge_idempotent(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        assert entrywise_equivalent(eh.merge(p, p), p)

    def test_merge_with_init_keeps_entries(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        merged = eh.merge(p, eh.init(fig1))
        assert entrywise_equivalent(merged, p)

    def test_merge_rejects_other_automaton(self, fig1, fig2):
        with pytest.raises(AutomatonMismatch):
            eh.merge(eh.init(fig1), eh.init(fig2))

    def test_inc_empty_memory(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        assert entrywise_equivalent(eh.inc(p, Memory()), p)

    def test_inc_idempotent(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        m = timed_mem(**{"1_a": B})
        once = eh.inc(p, m)
        assert entrywise_equivalent(eh.inc(once, m), once)

    def test_memory_obsolescence(self, fig1):
        rng = random.Random(23)
        p = eh.mov(eh.init(fig1), 3)
        atoms = sorted(
            {a for cond in p.entries.values() for a in ex.atoms_of(cond)},
            key=ex.Atom.sort_key,
        )
        for _ in range(50):
            m = Memory({a: rng.choice((T, B)) for a in atoms if rng.random() < 0.6})
            incd = eh.inc(p, m)
            for key in p.entries:
                assert ex.eval_expr(p.entries[key], m) is ex.eval_expr(
                    incd.entries[key], Memory()
                )


class TestDropResolved:
    def test_drop_after_resolution(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        m = timed_mem(**{"1_a": B, "1_b": B})  # round 1 resolves to q0, round 2 open
        dropped = eh.drop_resolved(p, last_resolved(p, m))
        assert dropped.rounds() == [1, 2]
        assert dropped.entries[(1, "q0")] == ex.TRUE
        assert set(states_at(dropped, 1)) == {"q0"}

    def test_drop_jumps_over_accepting_prefix(self, fig1):
        # a=T at round 1 pins every later round to the absorbing state, so
        # the whole encoding collapses to its last round.
        p = eh.mov(eh.init(fig1), 2)
        m = timed_mem(**{"1_a": T, "1_b": B})
        dropped = eh.drop_resolved(p, last_resolved(p, m))
        assert dict(dropped.entries) == {(2, "q1"): ex.TRUE}

    def test_no_resolution_unchanged(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        m = timed_mem(**{"2_a": T})  # resolves nothing contiguously beyond 0
        dropped = eh.drop_resolved(p, last_resolved(p, m))
        assert dropped.rounds() == [0, 1, 2]
        assert dropped.entries[(0, "q0")] == ex.TRUE

    def test_fully_resolved_single_entry(self, fig1):
        p = eh.mov(eh.init(fig1), 1)
        m = timed_mem(**{"1_a": T, "1_b": T})
        dropped = eh.drop_resolved(p, last_resolved(p, m))
        assert dict(dropped.entries) == {(1, "q1"): ex.TRUE}


class TestSoundness:
    def test_matches_automaton_on_random_runs(self, fig1):
        rng = random.Random(99)
        for _ in range(30):
            spec, aps = random_spec(rng, max_states=5, max_aps=3)
            n = rng.randint(1, 10)
            tr = random_trace(rng, aps, rng.randint(1, 2), n)
            glob = reconstruct_global(tr)
            p = eh.mov(eh.init(spec), n)
            mem = Memory()
            for k in range(1, n + 1):
                mem = memory_merge(mem, mem_from_event(glob[k - 1], k))
            assert eh.sreach(p, mem, n) == run(spec, glob)

    def test_future_observation_resolves_early_round(self, fig1):
        # Knowing only round-2 observations can already pin down round 2:
        # every round-1 continuation reaches the accepting state.
        p = eh.mov(eh.init(fig1), 2)
        m = timed_mem(**{"2_a": T, "2_b": B})
        assert eh.sreach(p, m, 2) == "q1"


class TestReconciliationCorollary:
    """Merging encodings that incorporated disjoint, non-conflicting
    memories stays deterministic and never revives excluded states."""

    def test_merge_of_incorporated_views(self):
        rng = random.Random(321)
        for _ in range(100):
            spec, aps = random_spec(rng, max_states=4, max_aps=2)
            k = rng.randint(1, 4)
            p = eh.mov(eh.init(spec), k)
            support = sorted(
                {a for cond in p.entries.values() for a in ex.atoms_of(cond)},
                key=ex.Atom.sort_key,
            )
            ground = {a: rng.choice((T, B)) for a in support}
            rng.shuffle(support)
            half = len(support) // 2
            m1 = Memory({a: ground[a] for a in support[:half]})
            m2 = Memory({a: ground[a] for a in support[half:]})
            p1, p2 = eh.inc(p, m1), eh.inc(p, m2)
            merged = eh.merge(p1, p2)
            combined = memory_merge(m1, m2)
            empty = Memory()
            for t in merged.rounds():
                tops = [
                    q for q in states_at(merged, t)
                    if ex.eval_expr(merged.entries[(t, q)], empty) is T
                ]
                assert len(tops) <= 1  # determinism survives the merge
            for key in merged.entries:
                if ex.eval_expr(merged.entries[key], empty) is T:
                    # resolved by pooled knowledge: the plain encoding agrees
                    assert ex.eval_expr(p.entries[key], combined) is T
                    # and neither one-sided view had excluded this state
                    assert ex.eval_expr(p1.entries[key], empty) is not B
                    assert ex.eval_expr(p2.entries[key], empty) is not B


def test_entry_support_bounded_by_delay_times_label_size():
    # Over d encoded rounds every entry can mention at most d * L distinct
    # atoms, with L the largest label of the normalized automaton.
    rng = random.Random(555)
    for _ in range(40):
        spec, _ = random_spec(rng, max_states=5, max_aps=3)
        d = rng.randint(1, 6)
        p = eh.mov(eh.init(spec), d)
        bound = d * max_label_size(spec)
        for (t, q), cond in p.entries.items():
            assert len(ex.atoms_of(cond)) <= bound


def assert_table_consistent(p):
    entries = p.entries
    assert len(p) == len(entries) == len(list(entries)) == len(set(entries))
    assert p.rounds() == sorted({t for t, _ in entries})
    if p.rounds():
        assert (p.first_round(), p.last_round()) == (p.rounds()[0], p.rounds()[-1])
    for t in p.rounds():
        assert states_at(p, t) == sorted(q for r, q in entries if r == t)
        assert states_at(p, t), t  # no empty rows
    for (t, q), cond in entries.items():
        assert p.table[t][q] is cond
    assert p.rounds()[-1] + 1 not in p.table


class TestTable:
    def test_random_operation_sequences_agree_with_entries(self):
        rng = random.Random(2024)
        for _ in range(25):
            spec, aps = random_spec(rng, max_states=4, max_aps=3)
            atoms = [ex.timed(t, a) for t in range(1, 12) for a in aps]
            encodings = [eh.init(spec)]
            for _ in range(12):
                p = rng.choice(encodings)
                op = rng.choice(("mov", "mov", "inc", "merge", "anchor", "drop"))
                m = Memory({a: rng.choice((T, B)) for a in atoms if rng.random() < 0.3})
                if op == "mov":
                    if p.last_round() + 2 > 11:  # memories cover rounds 1..11
                        continue
                    p = eh.mov(p, p.last_round() + rng.randint(0, 2))
                elif op == "inc":
                    p = eh.inc(p, m)
                elif op == "merge":
                    p = eh.merge(p, rng.choice(encodings))
                elif op == "anchor":  # a one-row encoding, usually past a gap
                    row = {rng.choice(spec.states): ex.TRUE}
                    p = eh.merge(p, eh.EHE(spec, {p.last_round() + rng.randint(1, 3): row}))
                else:
                    p = eh.drop_resolved(p, last_resolved(p, m))
                assert_table_consistent(p)
                encodings.append(p)

    def test_merge_of_disjoint_ranges_keeps_gap(self, fig1):
        early = eh.mov(eh.init(fig1), 2)
        late = eh.mov(eh.EHE(fig1, {5: {"q0": ex.TRUE}}), 6)
        merged = eh.merge(late, early)
        assert merged.rounds() == [0, 1, 2, 5, 6]
        assert (merged.first_round(), merged.last_round()) == (0, 6)
        assert dict(merged.entries) == {**early.entries, **late.entries}
        assert_table_consistent(merged)

    def test_undefined_round_in_gap_and_past_end(self, fig1):
        early = eh.mov(eh.init(fig1), 2)
        late = eh.EHE(fig1, {5: {"q0": ex.TRUE}})
        merged = eh.merge(early, late)
        for t in (3, 4, 7):
            with pytest.raises(UndefinedRound):
                eh.sreach(merged, Memory(), t)
        for t in (3, 4):  # below the last round
            with pytest.raises(UndefinedRound):
                eh.mov(merged, t)

    def test_mov_after_gap_appends_past_last_round(self, fig1):
        merged = eh.merge(eh.init(fig1), eh.EHE(fig1, {3: {"q0": ex.TRUE}}))
        p = eh.mov(merged, 5)
        assert p.rounds() == [0, 3, 4, 5]
        assert all(p.table[t] is merged.table[t] for t in (0, 3))
        assert states_at(p, 4) == ["q0", "q1"]
        assert_table_consistent(p)

    def test_inc_reuses_constant_rows(self, fig1):
        p = eh.mov(eh.init(fig1), 2)
        step = mt.Step(2, "m", "c")
        incd = eh.inc(p, Memory(), step=step)
        assert incd.table[0] is p.table[0]
        assert step.simplifications == 4  # the four non-constant entries

    def test_inc_returns_an_encoding_nothing_folds(self, fig1):
        constant = eh.EHE(fig1, {0: {"q0": ex.TRUE}, 1: {"q0": ex.FALSE, "q1": ex.TRUE}})
        assert eh.inc(constant, timed_mem(**{"1_a": T, "1_b": B})) is constant
        # one inc leaves every entry a fixpoint of simplify: a row stamped
        # from a template is rebuilt by it once
        p = eh.inc(eh.mov(eh.init(fig1), 2), Memory())
        for m in (Memory(), timed_mem(**{"3_a": T, "5_b": B})):
            step = mt.Step(2, "m", "c")
            assert eh.inc(p, m, step=step) is p
            assert step.simplifications == 4  # still one call per non-constant entry

    def test_inc_keeps_rows_the_memory_leaves_alone(self, fig1):
        p = eh.inc(eh.mov(eh.init(fig1), 2), Memory())
        before = {t: (row, dict(row)) for t, row in p.table.items()}
        incd = eh.inc(p, timed_mem(**{"2_a": T}))
        assert incd is not p
        assert incd.table[0] is p.table[0] and incd.table[1] is p.table[1]
        assert incd.table[2] is not p.table[2]
        assert incd.table[2]["q1"] is ex.TRUE
        assert {t: (row, dict(row)) for t, row in p.table.items()} == before
        assert all(p.table[t] is row for t, (row, _) in before.items())



def test_capped_support_walk_keeps_every_simplify_decision(monkeypatch):
    # mov's simplify call, bounded at ex.DNF_ATOMS, walks a new entry only
    # until it has seen ex.DNF_ATOMS + 1 atoms; it must rebuild exactly the
    # entries a gate on a full atom count would, and build the same encodings.
    real_simplify = ex.simplify

    def full_count(e, max_atoms=ex.EXACT_ATOMS):
        return real_simplify(e) if len(ex.atom_set(e)) <= max_atoms else e

    def runs(simplify):
        rng = random.Random(99)
        rebuilt = []

        def recorded(e, *bound):
            out = simplify(e, *bound)
            if out is not e:
                rebuilt.append(ex.to_text(e))
            return out

        monkeypatch.setattr(ex, "simplify", recorded)
        dumps = []
        for _ in range(12):
            spec, aps = random_spec(rng, max_states=4, max_aps=3)
            atoms = [ex.timed(t, a) for t in range(1, 8) for a in aps]
            p = eh.init(spec)
            while p.last_round() < 6:
                p = eh.mov(p, p.last_round() + rng.randint(1, 2))
                if rng.random() < 0.3:
                    m = Memory({a: rng.choice((T, B)) for a in atoms if rng.random() < 0.2})
                    p = eh.inc(p, m)
                dumps.append(eh.dump(p))
        return rebuilt, dumps

    capped = runs(real_simplify)
    assert capped[0]
    assert runs(full_count) == capped


def test_mov_simplifies_only_what_simplify_can_rebuild(monkeypatch):
    # Above DNF_ATOMS atoms simplify builds no sum of products, so mov bounds
    # every call there and leaves wider entries as its folding constructors
    # built them.
    real_simplify = ex.simplify
    calls = []

    def recorded(e, *bound):
        out = real_simplify(e, *bound)
        calls.append((bound, len(ex.atom_set(e)), out is e))
        return out

    rng = random.Random(7)
    specs = [random_spec(rng, max_states=5, max_aps=4)[0] for _ in range(20)]
    monkeypatch.setattr(ex, "simplify", recorded)
    for spec in specs:
        eh.mov(eh.init(spec), 6)
    assert calls and {bound for bound, _, _ in calls} == {(ex.DNF_ATOMS,)}
    wide = [kept for _, k, kept in calls if k > ex.DNF_ATOMS]
    assert wide and all(wide), len(wide)


def test_entry_holding_a_wide_node_is_marked_not_simplified(monkeypatch):
    # An entry that conjoins a live wide source holds that node: mov marks
    # it wide and leaves it as built, without calling simplify.  A FALSE label drops the source, so the
    # entry it reaches is simplified as usual.
    spec = make_spec(["q0", "q1", "q2"], "q0",
                     [("q0", "a", "q1"), ("q0", "!a", "q0"), ("q0", "false", "q2"),
                      ("q1", "a", "q2"), ("q1", "!a", "q1"), ("q2", "true", "q2")],
                     {"q0": "unknown", "q1": "unknown", "q2": "top"})
    w = ex.conj_all(ex.Var(ex.timed(0, f"x{i}")) for i in range(ex.DNF_ATOMS + 1))
    assert ex.simplify(w, ex.DNF_ATOMS) is w and w.wide
    small, a1 = ex.Var(ex.timed(0, "y")), ex.Var(ex.timed(1, "a"))
    real_simplify = ex.simplify
    calls = []

    def recorded(e, *bound):
        calls.append(e)
        return real_simplify(e, *bound)

    monkeypatch.setattr(ex, "simplify", recorded)
    p = eh.mov(eh.EHE(spec, {0: {"q0": w, "q1": small}}), 1)
    assert p.table[1] == {"q0": ex.And(w, ex.Not(a1)),
                          "q1": ex.Or(ex.And(w, a1), ex.And(small, ex.Not(a1))),
                          "q2": ex.And(small, a1)}
    assert p.table[1]["q0"].left is w and p.table[1]["q1"].left.left is w
    assert p.table[1]["q0"].wide and p.table[1]["q1"].wide and not p.table[1]["q2"].wide
    assert calls == [ex.And(small, a1)]


def test_mov_rows_match_simplify_on_fact_free_copies(monkeypatch):
    # Each row that mov adds, between inc rounds, must be the row that it
    # builds from a fact-free copy of its input when every simplification is
    # the four-walk reference, which reads and records no facts.
    real_simplify = ex.simplify
    calls = []

    def recorded(e, *bound):
        calls.append(e)
        return real_simplify(e, *bound)

    rng = random.Random(3)
    built = 0
    for _ in range(12):
        spec, aps = random_spec(rng, max_states=4, max_aps=4)
        twin = Specification(spec.states, spec.initial, spec.transitions, spec.verdicts)
        p = eh.init(spec)
        while p.last_round() < 6:
            t = p.last_round()
            te = t + rng.randint(1, 2)
            memo: dict = {}
            copy = eh.EHE(twin, {r: {q: fresh_copy(c, memo) for q, c in row.items()}
                                 for r, row in p.table.items()})
            monkeypatch.setattr(ex, "simplify", reference_simplify)
            expected = eh.mov(copy, te)
            monkeypatch.setattr(ex, "simplify", recorded)
            calls.clear()
            p = eh.mov(p, te)
            monkeypatch.setattr(ex, "simplify", real_simplify)
            for r in range(t + 1, te + 1):
                row, want = p.table[r], expected.table[r]
                assert eh.dump(eh.EHE(spec, {r: row})) == eh.dump(eh.EHE(spec, {r: want}))
                assert {q: tree_size(c) for q, c in row.items()} == \
                    {q: tree_size(c) for q, c in want.items()}
                built += len(row)
            built -= len(calls)
            if rng.random() < 0.4:
                atoms = [ex.timed(r, a) for r in range(1, te + 1) for a in aps]
                p = eh.inc(p, Memory({a: rng.choice((T, B)) for a in atoms
                                      if rng.random() < 0.2}))
    assert built > 0  # some entries were marked wide instead of simplified


def _random_formula_automata():
    """One automaton per ``random_formula`` shape, over two or three
    components, with at most four states: the constant rows of more states
    are too many to try one by one.  Each is synthesized afresh, past the
    synthesis cache, so every test starts with empty row templates."""
    synthetic = load_module("scripts/synthetic_benchmark.py", "synthetic_benchmark")

    def shape(phi):
        if isinstance(phi, lt.Until):
            return "until"
        if isinstance(phi, lt.Finally):
            return "finally_or" if isinstance(phi.operand, lt.LOr) else "finally_and"
        return "and_of_finally"

    rng, found = random.Random(0), {}
    while len(found) < 4:
        phi = synthetic.random_formula(rng, rng.choice((2, 3)), 1)
        a = lt.synthesize.__wrapped__(phi)
        if len(a.states) <= 4:
            found.setdefault(shape(phi), a)
    return [(found[k], frozenset()) for k in sorted(found)]


def _chor_style_automaton():
    """Labels over a proposition ``z`` and a monitor ``m1``: ``z`` sorts after
    ``m1`` as plain atoms and before it once stamped, which changes the
    order of the sums of products that simplify rebuilds."""
    a = make_spec(
        ["q0", "q1", "q2"],
        "q0",
        [("q0", "z && !m1", "q1"), ("q0", "m1 && !z", "q1"),
         ("q0", "z && m1 || !z && !m1", "q0"),
         ("q1", "z || m1", "q2"), ("q1", "!z && !m1", "q1"), ("q2", "true", "q2")],
        {"q0": "unknown", "q1": "unknown", "q2": "top"},
    )
    return a, frozenset({"m1"})


def _constant_rows(states):
    """Every non-empty row of constants over ``states``."""
    for present in range(1, len(states) + 1):
        for keys in itertools.combinations(states, present):
            for values in itertools.product((ex.TRUE, ex.FALSE), repeat=present):
                yield dict(zip(keys, values))


@pytest.mark.parametrize("a, names", [*_random_formula_automata(), _chor_style_automaton()])
def test_template_rows_match_direct_build(a, names):
    # The first mov from a constant row builds the row and keeps it as a
    # template; later rounds stamp the template again.  Each stamped row must
    # be the row a cold automaton builds at that round, sharing included.
    def fresh():
        return Specification(a.states, a.initial, a.transitions, a.verdicts)

    for src in _constant_rows(a.states):
        eh.mov(eh.EHE(a, {2: src}), 3, names)  # builds the template
        for t in (6, 41):
            warm = eh.mov(eh.EHE(a, {t: src}), t + 1, names).table[t + 1]
            cold = eh.mov(eh.EHE(fresh(), {t: src}), t + 1, names).table[t + 1]
            assert list(warm) == list(cold)
            for q in cold:
                assert ex.to_text(warm[q]) == ex.to_text(cold[q]), (src, t, q)
                assert tree_size(warm[q]) == tree_size(cold[q])
                assert dag_nodes([warm[q]]) == dag_nodes([cold[q]])
            assert dag_nodes(warm.values()) == dag_nodes(cold.values())


def test_chor_style_automaton_needs_stamped_templates():
    # Simplifying the template over plain atoms would order m1 before z.
    a, names = _chor_style_automaton()
    row = eh.mov(eh.EHE(a, {4: {"q0": ex.TRUE}}), 5, names).table[5]
    plain_first = ex.simplify(ex.unstamp(ex.disj_all(
        ex.encode(tr.label, 5, names) for tr in a.by_destination["q0"] if tr.src == "q0"
    )))
    assert ex.to_text(ex.encode(plain_first, 5, names)) != ex.to_text(row["q0"])


def test_mov_from_constant_rows_is_stamping_only(fig1, monkeypatch):
    # After one round has built the template, mov over constant source rows
    # neither walks for simplify nor simplifies.
    eh.mov(eh.EHE(fig1, {0: {"q0": ex.TRUE}}), 1)
    eh.mov(eh.EHE(fig1, {0: {"q1": ex.TRUE}}), 1)
    calls = []
    real_simplify, real_walk = ex.simplify, ex._walk
    monkeypatch.setattr(ex, "simplify", lambda *args: calls.append(args) or real_simplify(*args))
    monkeypatch.setattr(ex, "_walk", lambda *args: calls.append(args) or real_walk(*args))
    for t in range(1, 40):
        row = eh.mov(eh.EHE(fig1, {t: {"q0": ex.TRUE}}), t + 1).table[t + 1]
        assert ex.to_text(row["q1"]) == f"<{t + 1},a> || <{t + 1},b>"
    p = eh.mov(eh.EHE(fig1, {5: {"q1": ex.TRUE}}), 60)
    assert p.rounds() == list(range(5, 61))
    assert calls == []
    assert len(fig1.row_templates) == 2


def _inc_view(p, m):
    """What the metrics can see of ``inc(p, m)``: each entry's text, tree
    size and DAG size, the encoding's DAG size, and the simplifications."""
    step = mt.Step(0, "m", "c")
    entries = eh.inc(p, m, step=step).entries
    per_entry = [(k, ex.to_text(c), tree_size(c), dag_nodes([c]))
                 for k, c in sorted(entries.items())]
    return per_entry, dag_nodes(entries.values()), step.simplifications


def _round_memories(row, t):
    """Memories over the atoms of ``row``, all stamped at ``t``: each atom
    absent, TOP or BOTTOM, beside verdicts for the same names at t-1 and
    t+1 that the row never reads."""
    atoms = sorted(set().union(*map(ex.atom_set, row.values())), key=ex.Atom.sort_key)
    for values in itertools.product((None, T, B), repeat=len(atoms)):
        m = {ex.Atom(x.kind, r, x.name): v for x in atoms for r, v in ((t - 1, T), (t + 1, B))}
        m.update((x, v) for x, v in zip(atoms, values) if v is not None)
        yield m


@pytest.mark.parametrize("a, names", [*_random_formula_automata(), _chor_style_automaton()])
def test_mov_under_the_round_memory_matches_inc_of_the_stamped_row(a, names):
    # decided_round hands over, with its source, the row of constants that
    # inc folds mov's stamped row to under the round's memory, exactly when
    # the source holds one TRUE at a state that is not final and the folded
    # row has a TRUE entry.  sreach reads both rows at the cost each
    # Decided books.  The first call fills the cached step, the second
    # finds it.
    t, decided = 6, 0
    for src in _constant_rows(a.states):
        p = eh.EHE(a, {t: src})
        moved = eh.mov(p, t + 1, names)
        open_source = [q for q, c in src.items() if c is ex.TRUE]
        open_source = len(open_source) == 1 and not a.verdict_of(open_source[0]).is_final
        for m in _round_memories(moved.table.get(t + 1, {}), t + 1):
            folded = eh.inc(moved, m)
            row = folded.table[t + 1]
            hits = [eh.decided_round(p, t + 1, names, m) for _ in range(2)]
            assert hits[0] == hits[1], (src, m)
            if not (open_source and eh.is_constant_row(row) and ex.TRUE in row.values()):
                assert hits[0] is None, (src, m)
                continue
            source, step = hits[0]
            assert source.row is src and step.row == row, (src, m)
            for r, found in ((t, source), (t + 1, step)):
                evals = mt.Step(0, "m", "c")
                assert eh.sreach(folded, m, r, step=evals) == found.state
                assert evals.evaluations == found.evals
            assert _inc_view(eh.EHE(a, {t: src, t + 1: step.row}), m) == _inc_view(moved, m)
            decided += not eh.is_constant_row(moved.table[t + 1])
    assert decided


def test_warm_decided_step_neither_stamps_nor_folds(fig1, monkeypatch):
    # Once a memory pattern has decided the row after {q0: TRUE}, the same
    # pattern at any later round is a cached row: no stamping, folding or
    # simplification.
    def memory(t):
        return {ex.timed(t, "a"): T, ex.timed(t - 1, "b"): B, ex.timed(t + 1, "a"): B}

    def decided(t):
        return eh.decided_round(eh.EHE(fig1, {t - 1: {"q0": ex.TRUE}}), t, frozenset(),
                                memory(t))

    decided(1)
    calls = []
    for name in ("encode", "rewrite_fold", "simplify", "_walk"):
        real = getattr(ex, name)
        monkeypatch.setattr(ex, name, lambda *args, real=real, name=name, **kw: (
            calls.append(name) or real(*args, **kw)))
    for t in range(1, 40):
        source, step = decided(t + 1)
        assert source == eh.Decided({"q0": ex.TRUE}, "q0", 1)
        assert step.row == {"q0": ex.FALSE, "q1": ex.TRUE}
    assert calls == []
    (template,) = [v for k, v in fig1.row_templates.items() if k[:2] == ({"q0"}, {"q0"})]
    # Keyed by masks over the atoms ("a", "b"): a is TOP and decided, b open.
    assert template.atoms == ("a", "b")
    assert template.steps == {(0b01, 0b01): eh.Decided({"q0": ex.FALSE, "q1": ex.TRUE}, "q1", 2)}


def _label_names(a):
    return sorted({x.name for tr in a.transitions for x in ex.atom_set(tr.label)})


def _memories_since(a, names, k, t, rng, count):
    """``count`` seeded memories over every label atom of ``a`` at every
    round in (k, t], each with whether it decides them all: every other one
    leaves each atom out at odds of one in four."""
    atoms = [ex.stamp(name, r, names) for r in range(k + 1, t + 1) for name in _label_names(a)]
    for i in range(count):
        m = {x: rng.choice((T, B)) for x in atoms if i % 2 == 0 or rng.random() >= 0.25}
        yield m, len(m) == len(atoms)


def _small_random_specs():
    """Two seeded random automata of at most four states over three
    propositions, whose labels are rebuilt covers."""
    return [(random_spec(random.Random(seed), max_states=4, max_aps=3)[0], frozenset())
            for seed in (1, 2)]


@pytest.mark.parametrize("a, names", [*_random_formula_automata(), _chor_style_automaton(),
                                      *_small_random_specs()])
def test_decided_rounds_behind_are_the_rows_inc_folds(a, names):
    # From a row of constants three rounds behind, the lookup hands over
    # each row that inc folds mov's rows to, up to the round or the first
    # final state, and inc counts no simplification on the way: sreach reads
    # each row at the cost its Decided books.  It hits whenever the memory
    # decides every label atom since; under a memory that leaves one out,
    # inc may fold a rebuilt cover to no constant where the chain of rows
    # reads one, so the lookup must miss.
    k, t, rng, long_hits = 6, 9, random.Random(5), 0
    for src in _constant_rows(a.states):
        p = eh.EHE(a, {k: src})
        moved = eh.mov(p, t, names)
        true = [q for q, c in src.items() if c is ex.TRUE]
        open_source = len(true) == 1 and not a.verdict_of(true[0]).is_final
        for m, full in _memories_since(a, names, k, t, rng, 8):
            rows = eh.decided_round(p, t, names, m)
            if rows is None:
                assert not (open_source and full), (src, m)
                continue
            assert open_source and rows[0].row == src, (src, m)
            last = a.verdict_of(rows[-1].state)
            assert len(rows) == t - k + 1 or (last.is_final and len(rows) > 1), (src, m)
            assert not any(a.verdict_of(d.state).is_final for d in rows[:-1])
            step = mt.Step(0, "m", "c")
            folded = eh.inc(moved, m, step=step)
            assert step.simplifications == 0, (src, m)
            for r, found in enumerate(rows, start=k):
                assert folded.table[r] == found.row, (src, m, r)
                evals = mt.Step(0, "m", "c")
                assert eh.sreach(folded, m, r, step=evals) == found.state
                assert evals.evaluations == found.evals
            long_hits += len(rows) > 2
    assert long_hits


@pytest.mark.parametrize("a, names", [*_random_formula_automata(), _chor_style_automaton()])
def test_decided_round_at_the_round_is_the_source_alone(a, names):
    # An encoding anchored at the round itself: the pass would read its one
    # row, so that row, decided, is all the lookup returns.
    t = 6
    for src in _constant_rows(a.states):
        rows = eh.decided_round(eh.EHE(a, {t: src}), t, names, {})
        true = [q for q, c in src.items() if c is ex.TRUE]
        if len(true) != 1 or a.verdict_of(true[0]).is_final:
            assert rows is None, src
            continue
        states = sorted(src)
        assert rows == [eh.Decided(src, true[0], states.index(true[0]) + 1)], src


def test_decided_rounds_behind_need_every_label_atom():
    # Behind by more than one round, one label atom missing from the memory
    # at one round in (k, t] misses the lookup, be it the proposition z or
    # the reference to m1, and even where the row it sits in folds without
    # it (z || m1 with z TRUE) or lies past the final state.
    a, names = _chor_style_automaton()
    k, t = 3, 6
    p = eh.EHE(a, {k: {"q0": ex.TRUE}})
    # q0 -> q1 at k+1 (z && !m1), q1 -> q2 at k+2 (z), final
    m = {ex.stamp(name, r, names): T for r in range(k + 1, t + 1) for name in ("z", "m1")}
    m[ex.monref(k + 1, "m1")] = B
    rows = eh.decided_round(p, t, names, m)
    assert [d.state for d in rows] == ["q0", "q1", "q2"]
    assert ex.monref(k + 2, "m1") in m and ex.timed(t, "z") in m
    for atom in m:
        assert eh.decided_round(p, t, names, {x: v for x, v in m.items() if x != atom}) is None, atom
    # One round behind, the lookup reads only the atoms of the row it folds.
    one_behind = eh.EHE(a, {t - 1: {"q1": ex.TRUE}})
    rows = eh.decided_round(one_behind, t, names, {ex.timed(t, "z"): T})
    assert [d.state for d in rows] == ["q1", "q2"]


def _full_next_row(a, src, t, names):
    """The row at ``t`` built as ``mov`` once did, stamping and conjoining
    the label of every transition out of ``src``, FALSE sources included."""
    row = {}
    for qprime in sorted({tr.dst for q in src for tr in a.outgoing(q)}):
        cond = ex.disj_all(
            ex.conj(src[tr.src], ex.encode(tr.label, t, names))
            for tr in a.by_destination[qprime]
            if tr.src in src
        )
        row[qprime] = ex.simplify(cond, ex.DNF_ATOMS)
    return row


def _mixed_rows(states, t, seed):
    """Every non-empty row over ``states`` whose entries are FALSE, TRUE or
    open conditions over atoms at ``t`` that no label reads."""
    rng = random.Random(seed)
    u, v = ex.Var(ex.timed(t, "u")), ex.Var(ex.timed(t, "v"))
    open_conditions = (u, ex.Not(v), ex.conj(u, v), ex.disj(ex.Not(u), v))
    for present in range(1, len(states) + 1):
        for keys in itertools.combinations(states, present):
            for kinds in itertools.product("FTo", repeat=present):
                yield {
                    q: ex.FALSE if k == "F" else ex.TRUE if k == "T" else rng.choice(open_conditions)
                    for q, k in zip(keys, kinds)
                }


@pytest.mark.parametrize("a, names", [*_random_formula_automata(), _chor_style_automaton()])
def test_mov_skips_dead_sources_as_the_full_builder_would(a, names):
    # A FALSE source adds nothing to a successor's disjunction, so leaving
    # its transitions unstamped changes no entry: the key set, the text, the
    # tree and the sharing all match a row that stamps every transition.
    # Rows of constants go through the template path and must match too.
    t, dead_only = 4, 0
    for src in _mixed_rows(a.states, t, seed=len(a.states)):
        got = eh.mov(eh.EHE(a, {t: src}), t + 1, names).table.get(t + 1, {})
        want = _full_next_row(a, src, t + 1, names)
        assert list(got) == list(want), src
        for q in want:
            assert ex.to_text(got[q]) == ex.to_text(want[q]), (src, q)
            assert tree_size(got[q]) == tree_size(want[q])
            assert dag_nodes([got[q]]) == dag_nodes([want[q]])
        assert dag_nodes(got.values()) == dag_nodes(want.values())
        dead_only += sum(
            all(src.get(tr.src, ex.FALSE) is ex.FALSE for tr in a.by_destination[q])
            for q in got
        )
    assert dead_only  # some successor was reached from FALSE sources only


@pytest.mark.parametrize("a, names", [*_random_formula_automata(), _chor_style_automaton()])
def test_mov_stamps_only_transitions_out_of_live_sources(a, names, monkeypatch):
    # Rows with an open entry are built directly: one encode per transition
    # out of a source whose condition is not FALSE, none for the others.
    # The automaton keeps what it stamped, so its stamp cache is cleared
    # before each mov: otherwise a repeated stamping makes no call at all.
    calls = [0]
    real = ex.encode

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ex, "encode", counted)
    t = 9
    for src in _mixed_rows(a.states, t, seed=1):
        if eh.is_constant_row(src):
            continue
        calls[0] = 0
        a.stamps.clear()
        eh.mov(eh.EHE(a, {t: src}), t + 1, names)
        assert sum(map(len, a.stamps.values())) == calls[0]
        live = sum(len(a.outgoing(q)) for q, c in src.items() if c is not ex.FALSE)
        assert calls[0] == live, src
