"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (the -v listing doubles as
the per-criterion pass/fail report).
"""

import itertools
import random

from demon import analysis as an
from demon import ehe as eh
from demon import engine as en
from demon import expr as ex
from demon import ltl as lt
from demon import metrics as mt
from demon import traces as tg
from demon.automaton import (
    decentralized_run,
    reconstruct_global,
    run,
)
from demon.store import Memory, mem_from_event, memory_merge

from conftest import random_spec, random_trace
from helpers import (
    active_counts,
    centralized_as_decentralized,
    entrywise_equivalent,
    per_round_messages,
    states_at,
)

T, B, U = ex.TOP, ex.BOTTOM, ex.UNKNOWN


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


# ---------------------------------------------------------------------------
# Criteria 1 + 2: EHE soundness and determinism over randomized runs


def _soundness_instances(pairs: int):
    rng = random.Random(20240817)
    for trial in range(pairs):
        spec, aps = random_spec(rng, max_states=6, max_aps=4)
        n = rng.randint(1, 40)
        tr = random_trace(rng, aps, rng.randint(1, 3), n)
        yield trial, spec, tr


def test_criterion_1_and_2_ehe_soundness_and_determinism():
    pairs = 500
    prefix_checks = 0
    rng = random.Random(11)
    for trial, spec, tr in _soundness_instances(pairs):
        glob = reconstruct_global(tr)
        n = tr.length
        p = eh.mov(eh.init(spec), n)
        memory = Memory()
        q_auto = spec.initial
        # Entries only mention atoms of rounds up to their own, so one
        # rewrite memo stays valid as the memory grows round by round.
        memo: dict = {}
        spot_round = rng.randint(1, n)
        for k in range(1, n + 1):
            memory = memory_merge(memory, mem_from_event(glob[k - 1], k))
            q_auto = run(spec, glob[:k]) if k == spot_round else _step_into(
                spec, q_auto, glob[k - 1]
            )
            tops = [
                q
                for q in states_at(p, k)
                if ex.eval_expr(p.entries[(k, q)], memory, memo=memo) is T
            ]
            assert len(tops) <= 1, f"determinism violated at trial {trial} round {k}"
            reached = tops[0] if tops else None
            assert reached == q_auto, f"soundness violated at trial {trial} round {k}"
            if k == spot_round:
                # plain construction as stated, with the prefix memory only
                prefix_mem = Memory(
                    {a: v for a, v in memory.items() if a.t <= k}
                )
                assert eh.sreach(eh.mov(eh.init(spec), k), prefix_mem, k) == q_auto
            prefix_checks += 1
    assert prefix_checks >= pairs
    _report("1 (EHE soundness, Prop. 2)")
    _report("2 (EHE determinism, Prop. 1)")


def _step_into(spec, q, evt):
    from demon.automaton import step

    return step(spec, q, evt)


# ---------------------------------------------------------------------------
# Criterion 3: CvRDT laws


def test_criterion_3_cvrdt_laws():
    rng = random.Random(33)
    atoms = [ex.timed(t, p) for t in (1, 2, 3) for p in ("x", "y")]

    def consistent_memory(ground):
        entries = {}
        for a in atoms:
            roll = rng.random()
            if roll < 0.45:
                entries[a] = ground[a]
            elif roll < 0.55:
                entries[a] = U
        return Memory(entries)

    for _ in range(1000):
        ground = {a: rng.choice((T, B)) for a in atoms}
        m1, m2, m3 = (consistent_memory(ground) for _ in range(3))
        assert memory_merge(dict(m1), m1) == m1
        assert memory_merge(dict(m1), m2) == memory_merge(dict(m2), m1)
        assert memory_merge(memory_merge(dict(m1), m2), m3) == memory_merge(
            dict(m1), memory_merge(dict(m2), m3)
        )

    for _ in range(200):
        spec, aps = random_spec(rng, max_states=4, max_aps=2)
        k = rng.randint(1, 4)
        p = eh.mov(eh.init(spec), k)
        support = sorted(
            {a for cond in p.entries.values() for a in ex.atoms_of(cond)},
            key=ex.Atom.sort_key,
        )
        rng.shuffle(support)
        third = max(1, len(support) // 3)
        parts = [support[:third], support[third : 2 * third], support[2 * third :]]
        p1, p2, p3 = (
            eh.inc(p, Memory({a: rng.choice((T, B)) for a in part}))
            for part in parts
        )
        assert entrywise_equivalent(eh.merge(p1, p1), p1)
        assert entrywise_equivalent(eh.merge(p1, p2), eh.merge(p2, p1))
        assert entrywise_equivalent(
            eh.merge(eh.merge(p1, p2), p3), eh.merge(p1, eh.merge(p2, p3))
        )
    _report("3 (CvRDT laws for memories and EHEs)")


# ---------------------------------------------------------------------------
# Criterion 4: memory obsolescence


def test_criterion_4_memory_obsolescence():
    rng = random.Random(44)
    empty = Memory()
    for _ in range(200):
        spec, aps = random_spec(rng, max_states=5, max_aps=3)
        k = rng.randint(1, 5)
        p = eh.mov(eh.init(spec), k)
        support = sorted(
            {a for cond in p.entries.values() for a in ex.atoms_of(cond)},
            key=ex.Atom.sort_key,
        )
        m = Memory({a: rng.choice((T, B)) for a in support if rng.random() < 0.6})
        incd = eh.inc(p, m)
        for key in p.entries:
            assert ex.eval_expr(p.entries[key], m) is ex.eval_expr(
                incd.entries[key], empty
            ), key
    _report("4 (memory obsolescence, Prop. 4)")


# ---------------------------------------------------------------------------
# Criteria 5 + 6: golden tables


def test_criterion_5_golden_table1(fig1):
    a1, b1 = ex.Var(ex.timed(1, "a")), ex.Var(ex.timed(1, "b"))
    a2, b2 = ex.Var(ex.timed(2, "a")), ex.Var(ex.timed(2, "b"))
    expected = {
        (0, "q0"): ex.TRUE,
        (1, "q0"): ex.And(ex.Not(a1), ex.Not(b1)),
        (1, "q1"): ex.Or(a1, b1),
        (2, "q0"): ex.And(
            ex.And(ex.Not(a1), ex.Not(b1)), ex.And(ex.Not(a2), ex.Not(b2))
        ),
        (2, "q1"): ex.Or(
            ex.Or(a1, b1), ex.And(ex.And(ex.Not(a1), ex.Not(b1)), ex.Or(a2, b2))
        ),
    }
    p = eh.mov(eh.init(fig1), 2)
    assert set(p.entries) == set(expected)
    for key, want in expected.items():
        assert ex.equivalent(p.entries[key], want), key
    _report("5 (golden Table 1)")


def test_criterion_6_golden_table2(fig2):
    a1, b1 = ex.Var(ex.timed(1, "a")), ex.Var(ex.timed(1, "b"))
    p = eh.mov(eh.init(fig2), 1)
    m0 = Memory({ex.timed(1, "a"): T})
    m1 = Memory({ex.timed(1, "b"): B})
    p0, p1 = eh.inc(p, m0), eh.inc(p, m1)
    assert ex.equivalent(p0.entries[(0, "q0")], ex.TRUE)
    assert ex.equivalent(p0.entries[(1, "q0")], ex.Or(ex.FALSE, ex.Not(b1)))
    assert ex.equivalent(p0.entries[(1, "q1")], ex.And(ex.TRUE, b1))
    assert ex.equivalent(p1.entries[(1, "q0")], ex.Or(ex.Not(a1), ex.TRUE))
    assert ex.equivalent(p1.entries[(1, "q1")], ex.And(a1, ex.FALSE))
    merged = eh.merge(p0, p1)
    assert ex.equivalent(merged.entries[(0, "q0")], ex.TRUE)
    assert ex.equivalent(merged.entries[(1, "q0")], ex.TRUE)
    assert ex.equivalent(merged.entries[(1, "q1")], b1)
    assert eh.sreach(merged, Memory(), 1) == "q0"
    _report("6 (golden Table 2 with resolved merge)")


# ---------------------------------------------------------------------------
# Criterion 7: decentralized semantics


def test_criterion_7_decentralized_semantics(fig4, fig4_trace):
    assert decentralized_run(fig4, fig4_trace) is T
    rng = random.Random(55)
    for _ in range(200):
        spec, aps = random_spec(rng, max_states=5, max_aps=3)
        tr = random_trace(rng, aps, 1, rng.randint(0, 15))
        d = centralized_as_decentralized(spec, component="c0")
        expected = spec.verdicts[run(spec, reconstruct_global(tr))]
        assert decentralized_run(d, tr) is expected
    _report("7 (decentralized semantics and centralized special case)")


# ---------------------------------------------------------------------------
# Criterion 8: monitorability


def test_criterion_8_monitorability(fig1, fig3):
    assert an.ca_monitorable(fig1) == (True, {"q0", "q1"})
    ok3, marked3 = an.ca_monitorable(fig3)
    assert not ok3 and marked3 == set()
    gfa = lt.synthesize(lt.parse_ltl("G F a"))
    assert not an.ca_monitorable(gfa)[0]

    rng = random.Random(88)
    for _ in range(200):
        spec, _ = random_spec(rng, max_states=8, max_aps=3)
        _, marked = an.ca_monitorable(spec)
        succ: dict = {}
        for t in spec.transitions:
            succ.setdefault(t.src, set()).add(t.dst)
        finals = {q for q in spec.states if spec.verdicts[q].is_final}
        for q in spec.states:
            seen, stack = {q}, [q]
            while stack:
                node = stack.pop()
                for s in succ.get(node, ()):
                    if s not in seen:
                        seen.add(s)
                        stack.append(s)
            assert (q in marked) == bool(seen & finals)
    _report("8 (monitorability: figures and work-list vs brute force)")


# ---------------------------------------------------------------------------
# Criterion 9: compatibility


def test_criterion_9_compatibility():
    net = an.Graph.of(["m0", "m1", "m2"], [("m0", "m1"), ("m2", "m1")])
    sysg = an.Graph.of(
        ["c0", "c1", "c2", "c3"], [("c0", "c1"), ("c1", "c2"), ("c2", "c3")]
    )
    rm, rs = an.compute_reach(net), an.compute_reach(sysg)
    assert not an.verify_compatible({"m0": "c0", "m2": "c2", "m1": "c1"}, rm, rs)
    ok, sol = an.compatible(net, sysg, {"m0": "c0", "m2": "c2"})
    assert ok and sol["m1"] in {"c2", "c3"}

    rng = random.Random(99)
    for _ in range(100):
        nmon, ncomp = rng.randint(1, 5), rng.randint(1, 4)
        mons = [f"m{i}" for i in range(nmon)]
        comps = [f"c{i}" for i in range(ncomp)]
        net = an.Graph.of(
            mons, {(a, b) for a in mons for b in mons if a != b and rng.random() < 0.4}
        )
        sysg = an.Graph.of(
            comps,
            {(a, b) for a in comps for b in comps if a != b and rng.random() < 0.4},
        )
        constrained = [m for m in mons if rng.random() < 0.5]
        free = [m for m in mons if m not in constrained][:3]
        constraint = {m: rng.choice(comps) for m in mons if m not in free}
        ok, sol = an.compatible(net, sysg, constraint)
        brute = _brute_force_assignment(net, sysg, constraint)
        assert ok == (brute is not None)
        if ok:
            assert _definition_check(net, sysg, constraint, sol)
    _report("9 (compatibility example and backtracking vs brute force)")


def _definition_check(net, sysg, constraint, sol):
    rm, rs = an.compute_reach(net), an.compute_reach(sysg)
    for m1 in net.nodes:
        for m2 in rm[m1]:
            if sol[m2] not in rs[sol[m1]]:
                return False
    return all(sol[m] == c for m, c in constraint.items())


def _brute_force_assignment(net, sysg, constraint):
    free = sorted(set(net.nodes) - set(constraint))
    for combo in itertools.product(sorted(sysg.nodes), repeat=len(free)):
        sol = dict(constraint)
        sol.update(zip(free, combo))
        if _definition_check(net, sysg, constraint, sol):
            return sol
    return None


# ---------------------------------------------------------------------------
# Criteria 10, 11, 13: algorithm agreement and runtime invariants


def _agreement_runs():
    rng = random.Random(1001)
    produced = 0
    while produced < 110:
        spec, aps = random_spec(
            rng, max_states=5, max_aps=4, absorbing_finals=True, require_final=True
        )
        if len(aps) < 2 or not an.ca_monitorable(spec)[0]:
            continue
        n = rng.randint(5, 18)
        # every component owns at least one proposition (observation-less
        # components are excluded from the system under monitoring)
        tr = random_trace(rng, aps, rng.randint(2, min(3, len(aps))), n)
        produced += 1
        yield spec, tr


def test_criterion_10_11_13_agreement_and_invariants():
    final_oracles = 0
    orch_samples_ok = True
    for spec, tr in _agreement_runs():
        glob = reconstruct_global(tr)
        oracle = U
        for k in range(1, tr.length + 1):
            v = spec.verdicts[run(spec, glob[:k])]
            if v.is_final:
                oracle = v
                break
        if oracle.is_final:
            final_oracles += 1
        system = an.complete_graph(tr.components)
        ncomp = len(tr.components)
        for alg in ("orch", "migr", "migrr"):
            r, active = active_counts(en.SimConfig(alg), spec, system, tr)
            assert r.verdict is oracle, (alg, oracle, r.verdict)
            # Criterion 13: every garbage collection stays within the
            # observed round span times the state count.
            for s in r.record.steps:
                if s.gc is not None:
                    entries, span, nstates = s.gc
                    assert entries <= span * nstates
            if alg == "orch":
                per_round = per_round_messages(r.record)
                for t in range(1, min(tr.length, r.stop_round) + 1):
                    assert per_round.get(t, 0) == ncomp - 1
                delays = [d for s in r.record.steps for d in s.delays]
                if delays:
                    assert sum(delays) / len(delays) <= 1.0
                assert all(d <= 1 for d in delays)
                assert sum(s.simplifications for s in r.record.steps) == 0
            if alg == "migr":
                assert all(n <= 1 for n in active)
    assert final_oracles >= 60, final_oracles
    _report("10 (ORCH/MIGR/MIGRR agree with the centralized oracle)")
    _report("11 (ORCH message/delay/simplification and MIGR active bounds)")
    _report("13 (EHE size bound after garbage collection)")


def test_criterion_10_choreography_agreement():
    rng = random.Random(2002)
    owner = {"a0": "c0", "a1": "c0", "b0": "c1", "b1": "c1"}
    shapes = [
        "F ({0} || {1})", "F ({0} && {1})", "({0} || {1}) U {2}",
        "F {0} && F {1}", "{0} U ({1} || {2})", "X ({0} || {1})",
        "F ({0} && ({1} || {2}))",
    ]
    names = sorted(owner)
    checked = recorded = 0
    kill_verdict_sizes_ok = True
    while checked < 40:
        phi = lt.parse_ltl(rng.choice(shapes).format(*rng.sample(names, 3)))
        tree = lt.net_chor(phi, owner)
        dspec = en.assemble_choreography(tree, ("c0", "c1"), owner)
        if not an.decentralized_monitorable(dspec):
            continue
        tr = random_trace(rng, names, 2, rng.randint(4, 12), owner=owner)
        expected = decentralized_run(dspec, tr)
        r = en.simulate(en.SimConfig("chor"), phi, an.complete_graph(tr.components), tr)
        assert r.verdict is expected, (lt.ltl_text(phi), expected, r.verdict)
        # Criterion 11 (choreography part): fixed-size control messages.
        for kind in ("verdict", "kill"):
            sizes = {n for s in r.record.steps for k, n in s.sent if k == kind}
            assert len(sizes) <= 1, (kind, sizes)
        # Criterion 13 (choreography part): the same bound after each drop of
        # the resolved prefix.
        gcs = [s.gc for s in r.record.steps if s.gc is not None]
        assert all(entries <= span * nstates for entries, span, nstates in gcs)
        checked += 1
        recorded += bool(gcs)
    assert recorded >= checked // 2, recorded  # runs that resolve at once record none
    _report("10 (CHOR agrees with the decentralized-run reference)")
    _report("11 (CHOR verdict/kill message sizes constant)")
    _report("13 (CHOR EHE size bound after garbage collection)")


# ---------------------------------------------------------------------------
# Criterion 12: convergence formula


def test_criterion_12_convergence_formula():
    rec = mt.MetricsRecord(components=("A", "B"))
    rec.run_length = 1
    rec.steps = [mt.Step(1, "mA", "A", simplifications=3),
                 mt.Step(1, "mB", "B", simplifications=1)]
    assert abs(mt.summarize(rec).convergence_simplifications - 0.125) < 1e-12

    for ncomp in (2, 3, 4, 6):
        comps = tuple(f"c{i}" for i in range(ncomp))
        rec = mt.MetricsRecord(components=comps)
        rec.run_length = 3
        rec.steps = [mt.Step(t, "mc0", "c0", simplifications=5) for t in (1, 2, 3)]
        expected = (1 - 1 / ncomp) ** 2 + (ncomp - 1) * (1 / ncomp) ** 2
        assert abs(mt.summarize(rec).convergence_simplifications - expected) < 1e-12
    _report("12 (convergence formula hand values)")


# ---------------------------------------------------------------------------
# Trend substitution for the paper's table/figure reproduction


def test_trend_checks():
    per_size: dict[int, dict[str, list[mt.Summary]]] = {}
    for ncomp in (3, 4, 5):
        first_aps = [f"a{2 * i}" for i in range(ncomp)]
        formulas = [
            "F (" + " && ".join(first_aps) + ")",
            " && ".join(f"F {ap}" for ap in first_aps),
        ]
        dists = [tg.Normal(), tg.Binomial(), tg.Beta(2, 5), tg.Beta(5, 1)]
        summaries: dict[str, list[mt.Summary]] = {"orch": [], "migrr": [], "chor": []}
        for f_i, text in enumerate(formulas):
            phi = lt.parse_ltl(text)
            aut = lt.synthesize(phi)
            for t_i in range(9):
                cfg = tg.TraceGenConfig(
                    components=ncomp,
                    length=20,
                    distribution=dists[t_i % len(dists)],
                    seed=1000 * ncomp + 10 * f_i + t_i,
                )
                tr = tg.generate(cfg)
                system = an.complete_graph(tr.components)
                for alg in summaries:
                    spec_input = phi if alg == "chor" else aut
                    r = en.simulate(en.SimConfig(alg), spec_input, system, tr)
                    summaries[alg].append(mt.summarize(r.record))
        per_size[ncomp] = summaries

    def mean(values):
        return sum(values) / len(values)

    total = sum(len(s) for by_alg in per_size.values() for s in by_alg.values())
    assert total >= 3 * 50  # at least 50 traces per algorithm across the batch

    for ncomp, summaries in per_size.items():
        orch_data = mean([s.data_per_round for s in summaries["orch"]])
        chor_data = mean([s.data_per_round for s in summaries["chor"]])
        assert orch_data > chor_data, (ncomp, orch_data, chor_data)

    migrr_size = {
        ncomp: mean([s.data_per_message for s in per_size[ncomp]["migrr"]])
        for ncomp in per_size
    }
    orch_size = {
        ncomp: mean([s.data_per_message for s in per_size[ncomp]["orch"]])
        for ncomp in per_size
    }
    assert migrr_size[5] > migrr_size[3], migrr_size
    assert orch_size[5] <= orch_size[3] * 1.05, orch_size
    _report("trend (ORCH vs CHOR data; MIGRR message growth)")
