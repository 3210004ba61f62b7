"""Decision procedures over specifications: monitorability and compatibility.

Every check is reachability, searched iteratively by :func:`reach` over the
successor lists a :class:`Graph` builds once, so no depth is too deep.  Over
V nodes and E edges, ``ca_monitorable`` is one ``reach`` back from the final
states, O(V + E); ``has_cycle`` is Kahn's topological sort, O(V + E);
``compute_reach`` is one ``reach`` per node, O(V (V + E)); ``verify_compatible``
is one lookup per pair it is given, O(E) for a placement given by channels;
and ``compatible`` closes both graphs, then backtracks without recursion, each
choice checking only the reachable pairs it completes: one lookup per pair on
a descent that never backtracks, exponential time at worst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from . import expr as ex
from .automaton import DecentralizedSpec, Specification
from .errors import SpecificationError


@dataclass(frozen=True)
class Graph:
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    # each node's successors in name order, built once from ``edges``
    out: Mapping[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        if len(out) < len(self.nodes):
            raise SpecificationError(f"graph nodes {list(self.nodes)} repeat a name")
        for a, b in self.edges:
            if a not in out or b not in out:
                raise SpecificationError(f"edge ({a!r}, {b!r}) uses unknown node")
            out[a].append(b)
        object.__setattr__(self, "out", {n: tuple(sorted(bs)) for n, bs in out.items()})

    @staticmethod
    def of(nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> "Graph":
        return Graph(tuple(nodes), frozenset(edges))

    def successors(self, node: str) -> list[str]:
        return list(self.out.get(node, ()))


def reach(g: Graph, starts: Iterable[str]) -> set[str]:
    """Every node of ``g`` reachable from ``starts``, the starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for succ in g.out[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def complete_graph(nodes: Iterable[str]) -> Graph:
    ns = tuple(nodes)
    return Graph(ns, frozenset((a, b) for a in ns for b in ns if a != b))


Assignment = dict[str, str]
ReachMap = dict[str, frozenset[str]]


def ca_monitorable(a: Specification) -> tuple[bool, set[str]]:
    """Co-reachability from final-verdict states.

    Returns (all states marked?, marked states).  A state is monitorable iff
    some state carrying a final verdict (TOP or BOTTOM) is reachable from it.
    """
    # a state listed twice is one node, but counts twice in ``len(a.states)``
    backwards = Graph.of(dict.fromkeys(a.states), {(t.dst, t.src) for t in a.transitions})
    marked = reach(backwards, (q for q in a.states if a.verdicts[q].is_final))
    return len(marked) == len(a.states), marked


def mds(a: Specification, monitor_labels: Iterable[str]) -> set[str]:
    """Monitor dependency set: every monitor referenced by any transition label."""
    labels = frozenset(monitor_labels)  # the same object when given a frozenset
    return {ref for t in a.transitions for ref in ex.dep(t.label, labels)}


def mdg(d: DecentralizedSpec) -> Graph:
    """Monitor dependency graph: an edge per direct reference."""
    labels = frozenset(d.monitor_labels)
    edges = {(name, ref) for name in labels for ref in mds(d.monitors[name], labels)}
    return Graph(tuple(sorted(labels)), frozenset(edges))


def has_cycle(g: Graph) -> bool:
    """Kahn's topological sort: the nodes it cannot remove lie on or behind a
    cycle."""
    indegree = dict.fromkeys(g.nodes, 0)
    for _, b in g.edges:
        indegree[b] += 1
    removed = [n for n, k in indegree.items() if k == 0]
    for node in removed:  # the list grows as it is read
        for succ in g.out[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                removed.append(succ)
    return len(removed) < len(g.nodes)


def decentralized_monitorable(d: DecentralizedSpec) -> bool:
    """Acyclic dependency graph and every monitor individually monitorable."""
    return not has_cycle(mdg(d)) and all(
        ca_monitorable(d.monitors[name])[0] for name in d.monitor_labels)


def compute_reach(g: Graph) -> ReachMap:
    """Reflexive-transitive closure per node."""
    return {n: frozenset(reach(g, (n,))) for n in g.nodes}


def verify_compatible(s: Mapping[str, str], rm: Mapping[str, Iterable[str]],
                      rs: ReachMap) -> bool:
    """Check that reachable assigned monitors land on reachable components:
    for each assigned ``m``, every assigned monitor in ``rm[m]`` sits on a
    component in ``rs[s[m]]``.

    ``rm`` is the network's closure (``compute_reach``), which decides any
    partial assignment.  For a total one the network's successor lists
    (``Graph.out``) give the same answer with one lookup per channel, since
    system reachability is reflexive and composes along a path."""
    for m in s:
        targets = {s[m2] for m2 in rm[m] if m2 in s}
        if not targets <= rs[s[m]]:
            return False
    return True


def _compatible_assignments(
    net: Graph, sys: Graph, constraint: Mapping[str, str]
) -> Iterator[Assignment]:
    """Backtracking search, iterative: every total compatible assignment
    extending the constraint, in search order (monitors and components in
    name order).  Placing a monitor checks each pair in which one reaches the
    other and the other is placed already, once: the pairs ``verify_compatible``
    would add for it, so the search prunes exactly where that check would."""
    unknown = sorted(set(constraint) - set(net.nodes)) + sorted(
        set(constraint.values()) - set(sys.nodes)
    )
    if unknown:
        raise SpecificationError(f"constraint names unknown nodes {unknown}")
    rm = compute_reach(net)
    rs = compute_reach(sys)
    if not verify_compatible(constraint, rm, rs):
        return
    free = sorted(set(net.nodes) - set(constraint))
    components = sorted(sys.nodes)
    rank = dict.fromkeys(constraint, -1) | {m: i for i, m in enumerate(free)}
    # per free monitor, the monitors placed before it that it reaches, and
    # those that reach it
    reaches: dict[str, list[str]] = {m: [] for m in free}
    reached_by: dict[str, list[str]] = {m: [] for m in free}
    for a in net.nodes:
        for b in rm[a]:
            if rank[a] > rank[b]:
                reaches[a].append(b)
            elif rank[b] > rank[a]:
                reached_by[b].append(a)
    assigned = dict(constraint)
    tried = [0] * len(free)  # per depth, the index of the next component to try
    depth = 0
    while depth >= 0:
        if depth == len(free):
            yield dict(assigned)
            depth -= 1
            continue
        monitor = free[depth]
        for k in range(tried[depth], len(components)):
            comp = components[k]
            if all(assigned[b] in rs[comp] for b in reaches[monitor]) and all(
                    comp in rs[assigned[a]] for a in reached_by[monitor]):
                assigned[monitor] = comp
                tried[depth] = k + 1
                depth += 1
                break
        else:
            assigned.pop(monitor, None)
            tried[depth] = 0
            depth -= 1


def compatible(
    net: Graph, sys: Graph, constraint: Mapping[str, str]
) -> tuple[bool, Assignment]:
    """The first compatible assignment extending the constraint, if any."""
    solution = next(_compatible_assignments(net, sys, constraint), None)
    if solution is None:
        return False, {}
    return True, solution


def graph_from_dict(data: dict) -> Graph:
    try:
        nodes, edges = data["nodes"], data["edges"]
    except KeyError as exc:
        raise SpecificationError(f"malformed graph object: missing key {exc}") from None
    if not (isinstance(nodes, list) and all(isinstance(n, str) for n in nodes)):
        raise SpecificationError(f"graph key 'nodes' must be a list of names, got {nodes!r}")
    if not (isinstance(edges, list) and all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(n, str) for n in e)
        for e in edges
    )):
        raise SpecificationError(
            f"graph key 'edges' must be a list of [from, to] name pairs, got {edges!r}"
        )
    return Graph.of(nodes, map(tuple, edges))
