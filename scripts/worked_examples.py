#!/usr/bin/env python3
"""Walk through the library's worked examples on the console: encoding a
two-state automaton round by round, reconciling two partial views, running
the decentralized reference semantics next to its choreography simulation,
and checking placement compatibility.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from demon import analysis as an
from demon import ehe as eh
from demon import engine as en
from demon import expr as ex
from demon.automaton import DecentralizedTrace, decentralized_run, make_spec
from demon.store import Event, Memory


def dump(p: eh.EHE) -> str:
    """One (round, state, expression) line per entry of an encoding."""
    lines = ["t\tq\te"]
    for t, row in p.table.items():
        lines.extend(f"{t}\t{q}\t{ex.to_text(row[q])}" for q in sorted(row))
    return "\n".join(lines)


def banner(title: str) -> None:
    print(f"\n=== {title} {'=' * max(0, 60 - len(title))}")


def main() -> int:
    T, B = ex.TOP, ex.BOTTOM

    banner("Encoding F(a || b) for two rounds")
    f_or = make_spec(
        ["q0", "q1"], "q0",
        [("q0", "a || b", "q1"), ("q0", "!a && !b", "q0"), ("q1", "true", "q1")],
        {"q0": "unknown", "q1": "top"},
    )
    table = eh.mov(eh.init(f_or), 2)
    print(dump(table))
    memory = Memory({ex.timed(1, "a"): T, ex.timed(1, "b"): B})
    state = eh.sreach(table, memory, 1)
    print("state at round 1 given <1,a>=T, <1,b>=F:", state)
    print("verdict:", f_or.verdict_of(state).value)

    banner("Reconciling two partial views of F(a && b)")
    f_and = make_spec(
        ["q0", "q1"], "q0",
        [("q0", "a && b", "q1"), ("q0", "!a || !b", "q0"), ("q1", "true", "q1")],
        {"q0": "unknown", "q1": "top"},
    )
    shared = eh.mov(eh.init(f_and), 1)
    left = eh.inc(shared, Memory({ex.timed(1, "a"): T}))
    right = eh.inc(shared, Memory({ex.timed(1, "b"): B}))
    merged = eh.merge(left, right)
    for name, view in (("observer of a", left), ("observer of b", right),
                       ("merged", merged)):
        print(f"-- {name}")
        print(dump(view))
    print("merged view resolves round 1 to:", eh.sreach(merged, Memory(), 1))

    banner("Decentralized specification with a monitor reference")
    checker = make_spec(
        ["s0", "s1", "s2"], "s0",
        [("s0", "b0", "s1"), ("s0", "!b0", "s2"),
         ("s1", "true", "s1"), ("s2", "true", "s2")],
        {"s0": "unknown", "s1": "top", "s2": "bottom"},
    )
    root = make_spec(
        ["q0", "q1"], "q0",
        [("q0", "a0 || m1", "q1"), ("q0", "!a0 && !m1", "q0"), ("q1", "true", "q1")],
        {"q0": "unknown", "q1": "top"},
    )
    from demon.automaton import DecentralizedSpec

    dspec = DecentralizedSpec(
        ("m0", "m1"), {"m0": root, "m1": checker}, ("c0", "c1"),
        {"m0": "c0", "m1": "c1"}, "m0", {"a0": "c0", "b0": "c1"},
    )
    tr = DecentralizedTrace(
        ("c0", "c1"), 2,
        {(1, "c0"): Event.of(("a0", B)), (1, "c1"): Event.of(("b0", B)),
         (2, "c0"): Event.of(("a0", B)), (2, "c1"): Event.of(("b0", T))},
    )
    sim = en.simulate(en.SimConfig("chor"), dspec, an.complete_graph(("c0", "c1")), tr)
    print("reference verdict:", decentralized_run(dspec, tr).value,
          "| choreography simulation:", sim.verdict.value, "at round", sim.stop_round)

    banner("Placement compatibility on a path-shaped system")
    net = an.Graph.of(["m0", "m1", "m2"], [("m0", "m1"), ("m2", "m1")])
    system = an.Graph.of(["c0", "c1", "c2", "c3"],
                         [("c0", "c1"), ("c1", "c2"), ("c2", "c3")])
    ok, assignment = an.compatible(net, system, {"m0": "c0", "m2": "c2"})
    print("compatible:", ok, "assignment:", assignment)
    return 0


if __name__ == "__main__":
    sys.exit(main())
