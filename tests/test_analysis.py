import itertools
import random

import pytest

from demon import analysis as an
from demon.automaton import make_spec

from conftest import random_spec
from helpers import (
    count_compatible,
    reference_ca_monitorable,
    reference_compatible_assignments,
    reference_compute_reach,
    reference_has_cycle,
)


@pytest.fixture
def fig5_net():
    return an.Graph.of(["m0", "m1", "m2"], [("m0", "m1"), ("m2", "m1")])


@pytest.fixture
def fig5_sys():
    return an.Graph.of(
        ["c0", "c1", "c2", "c3"], [("c0", "c1"), ("c1", "c2"), ("c2", "c3")]
    )


class TestMonitorability:
    def test_fig1_monitorable(self, fig1):
        ok, marked = an.ca_monitorable(fig1)
        assert ok and marked == {"q0", "q1"}

    def test_fig3_not_monitorable(self, fig3):
        ok, marked = an.ca_monitorable(fig3)
        assert not ok and marked == set()

    def test_single_accepting_state(self):
        a = make_spec(["q"], "q", [("q", "true", "q")], {"q": "top"})
        assert an.ca_monitorable(a) == (True, {"q"})

    def test_against_bruteforce(self):
        rng = random.Random(31)
        for _ in range(200):
            spec, _ = random_spec(rng, max_states=8, max_aps=3)
            ok, marked = an.ca_monitorable(spec)
            assert marked == _bruteforce_coreachable(spec)
            assert ok == (len(marked) == len(spec.states))


def _bruteforce_coreachable(spec):
    # Independent oracle: forward BFS from each state.
    succ = {}
    for t in spec.transitions:
        succ.setdefault(t.src, set()).add(t.dst)
    finals = {q for q in spec.states if spec.verdicts[q].is_final}
    marked = set()
    for q in spec.states:
        seen, stack = {q}, [q]
        while stack:
            node = stack.pop()
            for s in succ.get(node, ()):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        if seen & finals:
            marked.add(q)
    return marked


class TestDependencyGraph:
    def test_mds(self, fig4):
        assert an.mds(fig4.monitors["m0"], fig4.monitor_labels) == {"m1"}
        assert an.mds(fig4.monitors["m1"], fig4.monitor_labels) == set()

    def test_mds_empty_automaton(self):
        a = make_spec(["q"], "q", [], {"q": "top"})
        assert an.mds(a, {"m0"}) == set()

    def test_mdg(self, fig4):
        g = an.mdg(fig4)
        assert set(g.edges) == {("m0", "m1")}

    def test_has_cycle(self):
        assert not an.has_cycle(an.Graph.of(["a", "b"], [("a", "b")]))
        assert an.has_cycle(an.Graph.of(["a", "b"], [("a", "b"), ("b", "a")]))
        assert an.has_cycle(an.Graph.of(["a"], [("a", "a")]))

    def test_decentralized_monitorable(self, fig4, fig3):
        assert an.decentralized_monitorable(fig4)
        from demon.automaton import DecentralizedSpec

        bad = DecentralizedSpec(
            ("m0",), {"m0": fig3}, ("c0",), {"m0": "c0"}, "m0", {"a": "c0"}
        )
        assert not an.decentralized_monitorable(bad)


class TestReachability:
    def test_fig5_system(self, fig5_sys):
        reach = an.compute_reach(fig5_sys)
        assert reach["c0"] == frozenset({"c0", "c1", "c2", "c3"})
        assert reach["c1"] == frozenset({"c1", "c2", "c3"})
        assert reach["c2"] == frozenset({"c2", "c3"})
        assert reach["c3"] == frozenset({"c3"})

    def test_fig5_network(self, fig5_net):
        reach = an.compute_reach(fig5_net)
        assert reach["m0"] == frozenset({"m0", "m1"})
        assert reach["m1"] == frozenset({"m1"})
        assert reach["m2"] == frozenset({"m2", "m1"})

    def test_edgeless(self):
        reach = an.compute_reach(an.Graph.of(["x", "y"]))
        assert reach == {"x": frozenset({"x"}), "y": frozenset({"y"})}


def _random_graph(rng):
    """0-12 nodes, not in name order, self-loops allowed, any edge density."""
    nodes = [f"n{i}" for i in range(rng.randint(0, 12))]
    rng.shuffle(nodes)
    density = rng.choice((0.0, 1.0, rng.random(), rng.random()))
    return an.Graph.of(nodes, {(a, b) for a in nodes for b in nodes if rng.random() < density})


class TestOneSearch:
    """The successor lists, ``reach``, Kahn's cycle test and the reversed
    co-reachability give what the edge-scanning searches gave."""

    def test_graphs_against_reference(self):
        rng = random.Random(3601)
        for _ in range(600):
            g = _random_graph(rng)
            expected = reference_compute_reach(g)
            assert an.compute_reach(g) == expected
            assert an.has_cycle(g) == reference_has_cycle(g)
            for n in g.nodes:
                assert g.successors(n) == sorted(b for a, b in g.edges if a == n)
            starts = [n for n in g.nodes if rng.random() < 0.3]
            assert an.reach(g, starts) == set().union(*(expected[n] for n in starts))

    def test_automata_against_reference(self):
        rng = random.Random(3602)
        for i in range(300):
            spec, _ = random_spec(rng, max_states=8, max_aps=2,
                                  absorbing_finals=i % 2 == 0, require_final=i % 3 == 0)
            assert an.ca_monitorable(spec) == reference_ca_monitorable(spec)

    def test_repeated_state_still_unmarked(self):
        a = make_spec(["q", "q"], "q", [("q", "true", "q")], {"q": "top"})
        assert an.ca_monitorable(a) == reference_ca_monitorable(a) == (False, {"q"})

    def test_long_chain_and_cycle(self):
        nodes = [f"n{i:04d}" for i in range(5000)]
        chain = list(zip(nodes, nodes[1:]))
        g = an.Graph.of(nodes, chain)
        assert not an.has_cycle(g)
        assert an.reach(g, (nodes[0],)) == set(nodes)
        assert an.reach(g, (nodes[-1],)) == {nodes[-1]}
        assert an.has_cycle(an.Graph.of(nodes, chain + [(nodes[-1], nodes[0])]))
        # a cycle hanging off an acyclic prefix
        assert an.has_cycle(an.Graph.of(nodes, chain + [(nodes[-1], nodes[2500])]))


class TestCompatibility:
    def test_constraint_ok(self, fig5_net, fig5_sys):
        rm, rs = an.compute_reach(fig5_net), an.compute_reach(fig5_sys)
        assert an.verify_compatible({"m0": "c0", "m2": "c2"}, rm, rs)

    def test_m1_on_c1_incompatible(self, fig5_net, fig5_sys):
        rm, rs = an.compute_reach(fig5_net), an.compute_reach(fig5_sys)
        assert not an.verify_compatible({"m0": "c0", "m2": "c2", "m1": "c1"}, rm, rs)

    def test_empty_assignment(self, fig5_net, fig5_sys):
        rm, rs = an.compute_reach(fig5_net), an.compute_reach(fig5_sys)
        assert an.verify_compatible({}, rm, rs)

    def test_fig5_solution(self, fig5_net, fig5_sys):
        ok, sol = an.compatible(fig5_net, fig5_sys, {"m0": "c0", "m2": "c2"})
        assert ok
        assert sol["m0"] == "c0" and sol["m2"] == "c2"
        assert sol["m1"] in {"c2", "c3"}

    def test_bad_constraint_early_exit(self, fig5_net, fig5_sys):
        ok, sol = an.compatible(fig5_net, fig5_sys, {"m0": "c3", "m1": "c0"})
        assert (ok, sol) == (False, {})

    def test_all_preassigned(self, fig5_net, fig5_sys):
        constraint = {"m0": "c0", "m1": "c2", "m2": "c2"}
        ok, sol = an.compatible(fig5_net, fig5_sys, constraint)
        assert ok and sol == constraint

    def test_against_bruteforce(self):
        rng = random.Random(41)
        for _ in range(100):
            nmon = rng.randint(1, 4)
            ncomp = rng.randint(1, 4)
            mons = [f"m{i}" for i in range(nmon)]
            comps = [f"c{i}" for i in range(ncomp)]
            net = an.Graph.of(
                mons,
                {(a, b) for a in mons for b in mons if a != b and rng.random() < 0.4},
            )
            sysg = an.Graph.of(
                comps,
                {(a, b) for a in comps for b in comps if a != b and rng.random() < 0.4},
            )
            free = [m for m in mons if rng.random() < 0.75][:3]
            constraint = {
                m: rng.choice(comps) for m in mons if m not in free
            }
            ok, sol = an.compatible(net, sysg, constraint)
            expected = _bruteforce_compatible(net, sysg, constraint)
            assert ok == (expected is not None)
            if ok:
                assert _direct_check(net, sysg, constraint, sol)

    def test_search_matches_recursive_reference(self):
        # Full enumerations, in order, with and without a constraint.
        rng = random.Random(37)
        for case in range(300):
            mons = [f"m{i}" for i in range(rng.randint(0, 7))]
            comps = [f"c{i}" for i in range(rng.randint(0, 3))]
            density = rng.random()
            net = an.Graph.of(
                mons, {(a, b) for a in mons for b in mons if a != b and rng.random() < density})
            sysg = an.Graph.of(
                comps, {(a, b) for a in comps for b in comps if a != b and rng.random() < 0.5})
            constraint = {m: rng.choice(comps) for m in mons
                          if comps and case % 2 and rng.random() < 0.3}
            got = [list(s.items()) for s in an._compatible_assignments(net, sysg, constraint)]
            expected = [list(s.items())
                        for s in reference_compatible_assignments(net, sysg, constraint)]
            assert got == expected, (net, sysg, constraint)

    def test_long_chain_is_searched_without_recursion(self):
        mons = [f"m{i}" for i in range(1200)]  # past the default recursion limit
        net = an.Graph.of(mons, zip(mons, mons[1:]))
        sysg = an.Graph.of(["c0", "c1"], [("c0", "c1")])
        ok, sol = an.compatible(net, sysg, {"m0": "c1"})
        assert ok and set(sol.values()) == {"c1"}
        assert an.compatible(net, sysg, {"m0": "c1", "m1199": "c0"}) == (False, {})

    def test_channels_decide_a_total_placement(self):
        # Checking each channel against the closed system decides every path,
        # for a total placement.
        rng = random.Random(43)
        for _ in range(300):
            mons = [f"m{i}" for i in range(rng.randint(1, 8))]
            comps = [f"c{i}" for i in range(rng.randint(1, 4))]
            net = an.Graph.of(
                mons, {(a, b) for a in mons for b in mons if a != b and rng.random() < 0.3})
            sysg = an.Graph.of(
                comps, {(a, b) for a in comps for b in comps if a != b and rng.random() < 0.4})
            placement = {m: rng.choice(comps) for m in mons}
            rs = an.compute_reach(sysg)
            assert an.verify_compatible(placement, net.out, rs) == \
                an.verify_compatible(placement, an.compute_reach(net), rs)

    def test_count_all_matches_bruteforce(self, fig5_net, fig5_sys):
        count = count_compatible(fig5_net, fig5_sys, {"m0": "c0", "m2": "c2"})
        brute = sum(
            1
            for sol in _all_total(fig5_net, fig5_sys, {"m0": "c0", "m2": "c2"})
            if _direct_check(fig5_net, fig5_sys, {"m0": "c0", "m2": "c2"}, sol)
        )
        assert count == brute == 2  # m1 on c2 or c3


def _all_total(net, sysg, constraint):
    free = sorted(set(net.nodes) - set(constraint))
    for combo in itertools.product(sorted(sysg.nodes), repeat=len(free)):
        sol = dict(constraint)
        sol.update(zip(free, combo))
        yield sol


def _direct_check(net, sysg, constraint, sol):
    # Definition checked directly: reachability preservation + constraint.
    def reach(graph, start):
        seen, stack = {start}, [start]
        while stack:
            n = stack.pop()
            for a, b in graph.edges:
                if a == n and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    for m1 in net.nodes:
        for m2 in reach(net, m1):
            if sol[m2] not in reach(sysg, sol[m1]):
                return False
    return all(sol[m] == c for m, c in constraint.items())


def _bruteforce_compatible(net, sysg, constraint):
    rm = an.compute_reach(net)
    rs = an.compute_reach(sysg)
    if not an.verify_compatible(constraint, rm, rs):
        return None
    for sol in _all_total(net, sysg, constraint):
        if _direct_check(net, sysg, constraint, sol):
            return sol
    return None
