"""Shared fixtures: the paper-figure automata and random generators."""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from demon import expr as ex
from demon.automaton import (
    DecentralizedSpec,
    DecentralizedTrace,
    Specification,
    make_spec,
)
from demon.store import Event


@pytest.fixture
def fig1() -> Specification:
    """Two-state automaton for F(a || b): q0 unknown, q1 accepting."""
    return make_spec(
        states=["q0", "q1"],
        initial="q0",
        transitions=[
            ("q0", "a || b", "q1"),
            ("q0", "!a && !b", "q0"),
            ("q1", "true", "q1"),
        ],
        verdicts={"q0": "unknown", "q1": "top"},
    )


@pytest.fixture
def fig2() -> Specification:
    """Two-state automaton for F(a && b)."""
    return make_spec(
        states=["q0", "q1"],
        initial="q0",
        transitions=[
            ("q0", "a && b", "q1"),
            ("q0", "!a || !b", "q0"),
            ("q1", "true", "q1"),
        ],
        verdicts={"q0": "unknown", "q1": "top"},
    )


@pytest.fixture
def fig3() -> Specification:
    """Complete, deterministic automaton with no final-verdict state."""
    return make_spec(
        states=["q0", "q1"],
        initial="q0",
        transitions=[
            ("q0", "a", "q1"),
            ("q0", "!a", "q0"),
            ("q1", "a", "q0"),
            ("q1", "!a", "q1"),
        ],
        verdicts={"q0": "unknown", "q1": "unknown"},
    )


def _fig4_m1() -> Specification:
    # Checks whether b0 holds at the round the run is anchored on.
    return make_spec(
        states=["s0", "s1", "s2"],
        initial="s0",
        transitions=[
            ("s0", "b0", "s1"),
            ("s0", "!b0", "s2"),
            ("s1", "true", "s1"),
            ("s2", "true", "s2"),
        ],
        verdicts={"s0": "unknown", "s1": "top", "s2": "bottom"},
    )


def _fig4_m0() -> Specification:
    return make_spec(
        states=["q0", "q1"],
        initial="q0",
        transitions=[
            ("q0", "a0 || m1", "q1"),
            ("q0", "!a0 && !m1", "q0"),
            ("q1", "true", "q1"),
        ],
        verdicts={"q0": "unknown", "q1": "top"},
    )


@pytest.fixture
def fig4() -> DecentralizedSpec:
    """Decentralized F(a0 || b0): root m0 on c0 references m1 on c1."""
    return DecentralizedSpec(
        monitor_labels=("m0", "m1"),
        monitors={"m0": _fig4_m0(), "m1": _fig4_m1()},
        components=("c0", "c1"),
        attach={"m0": "c0", "m1": "c1"},
        root="m0",
        ap_owner={"a0": "c0", "b0": "c1"},
    )


@pytest.fixture
def fig4_trace() -> DecentralizedTrace:
    T, B = ex.TOP, ex.BOTTOM
    return DecentralizedTrace(
        ("c0", "c1"),
        2,
        {
            (1, "c0"): Event.of(("a0", B)),
            (1, "c1"): Event.of(("b0", B)),
            (2, "c0"): Event.of(("a0", B)),
            (2, "c1"): Event.of(("b0", T)),
        },
    )


@pytest.fixture
def ex7_trace() -> DecentralizedTrace:
    T, B = ex.TOP, ex.BOTTOM
    return DecentralizedTrace(
        ("A", "B"),
        2,
        {
            (1, "A"): Event.of(("a", T)),
            (1, "B"): Event.of(("b", T)),
            (2, "A"): Event.of(("a", T)),
            (2, "B"): Event.of(("b", B)),
        },
    )


# ---------------------------------------------------------------------------
# Random instance generators (deterministic given an rng)


def random_spec(
    rng: random.Random,
    max_states: int = 6,
    max_aps: int = 4,
    absorbing_finals: bool = False,
    require_final: bool = False,
) -> tuple[Specification, list[str]]:
    """Deterministic, complete automaton built by partitioning the truth
    assignments of each state's propositions among successor states."""
    nq = rng.randint(2, max_states)
    nap = rng.randint(1, max_aps)
    aps = [f"p{i}" for i in range(nap)]
    states = [f"q{i}" for i in range(nq)]
    verdicts = {q: rng.choice(["unknown", "unknown", "top", "bottom"]) for q in states}
    if require_final and all(verdicts[q] == "unknown" for q in states):
        verdicts[states[-1]] = rng.choice(["top", "bottom"])
    transitions = []
    assigns = list(itertools.product([True, False], repeat=nap))
    for q in states:
        if absorbing_finals and verdicts[q] != "unknown":
            transitions.append((q, "true", q))
            continue
        groups: dict[str, list[tuple[bool, ...]]] = {}
        for a in assigns:
            groups.setdefault(rng.choice(states), []).append(a)
        for succ, group in groups.items():
            label = ex.disj_all(
                ex.conj_all(
                    ex.Var(ex.plain(p)) if v else ex.Not(ex.Var(ex.plain(p)))
                    for p, v in zip(aps, a)
                )
                for a in group
            )
            transitions.append((q, ex.to_text(ex.simplify(label)), succ))
    return make_spec(states, states[0], transitions, verdicts), aps


def random_trace(
    rng: random.Random,
    aps: list[str],
    ncomp: int,
    length: int,
    top_rate: float = 0.5,
    owner: dict[str, str] | None = None,
) -> DecentralizedTrace:
    """Full-observation trace; propositions go round-robin to components
    unless an explicit owner map is given."""
    comps = [f"c{i}" for i in range(ncomp)]
    if owner is None:
        owner = {ap: comps[i % ncomp] for i, ap in enumerate(aps)}
    events = {}
    for t in range(1, length + 1):
        for c in comps:
            obs = frozenset(
                (ap, ex.TOP if rng.random() < top_rate else ex.BOTTOM)
                for ap in aps
                if owner[ap] == c
            )
            if obs:
                events[(t, c)] = Event(obs)
    return DecentralizedTrace(tuple(comps), length, events)


def random_memory(rng: random.Random, atoms: list[ex.Atom], density: float = 0.7):
    from demon.store import Memory

    entries = {}
    for a in atoms:
        if rng.random() < density:
            entries[a] = rng.choice((ex.TOP, ex.BOTTOM))
    return Memory(entries)


def random_expr(rng: random.Random, atoms: list[ex.Atom], depth: int = 4) -> ex.Expr:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return ex.TRUE if rng.random() < 0.5 else ex.FALSE
        return ex.Var(rng.choice(atoms))
    op = rng.choice(("not", "and", "or"))
    if op == "not":
        return ex.Not(random_expr(rng, atoms, depth - 1))
    left = random_expr(rng, atoms, depth - 1)
    right = random_expr(rng, atoms, depth - 1)
    return ex.And(left, right) if op == "and" else ex.Or(left, right)


ROOT = Path(__file__).resolve().parent.parent


def load_module(relpath: str, name: str):
    """Import a repository file that is not part of the package, by path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
