"""Decision procedures over specifications: monitorability and compatibility."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import expr as ex
from .automaton import DecentralizedSpec, Specification
from .errors import SpecificationError


@dataclass(frozen=True)
class Graph:
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        if len(set(self.nodes)) < len(self.nodes):
            raise SpecificationError(f"graph nodes {list(self.nodes)} repeat a name")
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise SpecificationError(f"edge ({a!r}, {b!r}) uses unknown node")

    @staticmethod
    def of(nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> "Graph":
        return Graph(tuple(nodes), frozenset(edges))

    def successors(self, node: str) -> list[str]:
        return sorted(b for a, b in self.edges if a == node)


def complete_graph(nodes: Iterable[str]) -> Graph:
    ns = tuple(nodes)
    return Graph(ns, frozenset((a, b) for a in ns for b in ns if a != b))


Assignment = dict[str, str]
ReachMap = dict[str, frozenset[str]]


def ca_monitorable(a: Specification) -> tuple[bool, set[str]]:
    """Work-list co-reachability from final-verdict states.

    Returns (all states marked?, marked states).  A state is monitorable iff
    some state carrying a final verdict (TOP or BOTTOM) is reachable from it.
    """
    worklist = [q for q in a.states if a.verdicts[q].is_final]
    marked = set(worklist)
    predecessors: dict[str, set[str]] = {q: set() for q in a.states}
    for t in a.transitions:
        predecessors[t.dst].add(t.src)
    while worklist:
        q = worklist.pop()
        for p in sorted(predecessors[q]):
            if p not in marked:
                marked.add(p)
                worklist.append(p)
    return len(marked) == len(a.states), marked


def mds(a: Specification, monitor_labels: Iterable[str]) -> set[str]:
    """Monitor dependency set: every monitor referenced by any transition label."""
    labels = set(monitor_labels)
    out: set[str] = set()
    for t in a.transitions:
        out |= ex.dep(t.label, labels)
    return out


def mdg(d: DecentralizedSpec) -> Graph:
    """Monitor dependency graph: an edge per direct reference."""
    edges = set()
    for name in d.monitor_labels:
        for ref in mds(d.monitors[name], d.monitor_labels):
            edges.add((name, ref))
    return Graph(tuple(sorted(d.monitor_labels)), frozenset(edges))


def has_cycle(g: Graph) -> bool:
    """Depth-first back-edge detection."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in g.nodes}

    def visit(node: str) -> bool:
        color[node] = GREY
        for succ in g.successors(node):
            if color[succ] == GREY:
                return True
            if color[succ] == WHITE and visit(succ):
                return True
        color[node] = BLACK
        return False

    return any(color[n] == WHITE and visit(n) for n in g.nodes)


def decentralized_monitorable(d: DecentralizedSpec) -> bool:
    """Acyclic dependency graph and every monitor individually monitorable."""
    if has_cycle(mdg(d)):
        return False
    return all(ca_monitorable(d.monitors[name])[0] for name in d.monitor_labels)


def compute_reach(g: Graph) -> ReachMap:
    """Reflexive-transitive closure per node."""
    out: ReachMap = {}
    for start in g.nodes:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in g.successors(node):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        out[start] = frozenset(seen)
    return out


def verify_compatible(s: Mapping[str, str], rm: ReachMap, rs: ReachMap) -> bool:
    """Check that reachable assigned monitors land on reachable components."""
    for m in s:
        targets = {s[m2] for m2 in rm[m] if m2 in s}
        if not targets <= rs[s[m]]:
            return False
    return True


def _compatible_assignments(
    net: Graph, sys: Graph, constraint: Mapping[str, str]
) -> Iterator[Assignment]:
    """Backtracking search: every total compatible assignment extending the
    constraint, in search order (monitors and components in name order)."""
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

    def search(assigned: Assignment, remaining: list[str]) -> Iterator[Assignment]:
        if not remaining:
            yield assigned
            return
        monitor, rest = remaining[0], remaining[1:]
        for comp in components:
            candidate = dict(assigned)
            candidate[monitor] = comp
            if verify_compatible(candidate, rm, rs):
                yield from search(candidate, rest)

    yield from search(dict(constraint), free)


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
