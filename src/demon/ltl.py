"""LTL formulas, one-step progression, progression-based automaton synthesis,
and the choreography network-setup procedure.

States of synthesized automata are canonically simplified formulas.  Every
Boolean-level decision goes through :mod:`demon.expr`: a Boolean level
becomes an expression over its simplified temporal/atomic leaves, each an
atom named by its text, which is rebuilt from its truth-table cover (or only
folded above ``expr.DNF_ATOMS`` leaves).  This keeps the progression closure
finite for the supported fragment.  Formulas share the expression lexer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Mapping

from . import expr as ex
from .automaton import Specification, Transition
from .errors import (
    IncompleteEvent,
    NoAtomicPropositions,
    ParseError,
    SpecificationError,
    StateCapExceeded,
)
from .expr import BOTTOM, TOP, Verdict
from .store import Memory

_SYNTH_CACHE_SIZE = 128  # distinct formulas whose automata are kept


@dataclass(frozen=True)
class Ltl:
    pass


@dataclass(frozen=True)
class LTrue(Ltl):
    pass


@dataclass(frozen=True)
class LFalse(Ltl):
    pass


@dataclass(frozen=True)
class Prop(Ltl):
    name: str


@dataclass(frozen=True)
class MonPlaceholder(Ltl):
    """Reference to the monitor delegated a split-off subformula."""

    ref: int


@dataclass(frozen=True)
class LNot(Ltl):
    operand: Ltl


@dataclass(frozen=True)
class Next(Ltl):
    operand: Ltl


@dataclass(frozen=True)
class Finally(Ltl):
    operand: Ltl


@dataclass(frozen=True)
class Globally(Ltl):
    operand: Ltl


@dataclass(frozen=True)
class LAnd(Ltl):
    left: Ltl
    right: Ltl


@dataclass(frozen=True)
class LOr(Ltl):
    left: Ltl
    right: Ltl


@dataclass(frozen=True)
class Until(Ltl):
    left: Ltl
    right: Ltl


LTRUE = LTrue()
LFALSE = LFalse()

_BOOL_NODES = (LNot, LAnd, LOr)
_UNARY = {Next: "X", Finally: "F", Globally: "G"}


def leaf_name(node: Ltl) -> str:
    if isinstance(node, Prop):
        return node.name
    if isinstance(node, MonPlaceholder):
        return f"m{node.ref}"
    raise TypeError(f"{node!r} is not an atomic leaf")


def _leaves(phi: Ltl) -> list[Ltl]:
    """Proposition and placeholder leaves, one per occurrence, left to right."""
    out: list[Ltl] = []
    stack = [phi]
    while stack:
        n = stack.pop()
        if isinstance(n, (Prop, MonPlaceholder)):
            out.append(n)
        elif isinstance(n, (LNot, Next, Finally, Globally)):
            stack.append(n.operand)
        elif isinstance(n, (LAnd, LOr, Until)):
            stack += (n.right, n.left)
    return out


def atomic_leaves(phi: Ltl) -> list[str]:
    """Distinct proposition and placeholder names, sorted."""
    return sorted({leaf_name(n) for n in _leaves(phi)})


def prop_occurrences(phi: Ltl) -> list[str]:
    """Proposition names, one entry per occurrence (placeholders excluded)."""
    return [n.name for n in _leaves(phi) if isinstance(n, Prop)]


# ---------------------------------------------------------------------------
# Text form: true false ! && || X F G U, precedence !,X,F,G > && > U > ||.


def ltl_text(phi: Ltl) -> str:
    def go(n: Ltl, parent: int) -> str:
        if isinstance(n, LTrue):
            return "true"
        if isinstance(n, LFalse):
            return "false"
        if isinstance(n, Prop):
            return n.name
        if isinstance(n, MonPlaceholder):
            return f"m{n.ref}"
        if isinstance(n, LNot):
            return "!" + go(n.operand, 4)
        if isinstance(n, (Next, Finally, Globally)):
            return _UNARY[type(n)] + " " + go(n.operand, 4)
        if isinstance(n, LAnd):
            s = f"{go(n.left, 3)} && {go(n.right, 3)}"
            return f"({s})" if parent > 3 else s
        if isinstance(n, Until):
            s = f"{go(n.left, 3)} U {go(n.right, 2)}"
            return f"({s})" if parent > 2 else s
        assert isinstance(n, LOr)
        s = f"{go(n.left, 1)} || {go(n.right, 1)}"
        return f"({s})" if parent > 1 else s

    return go(phi, 0)


_KEYWORDS = {"X": Next, "F": Finally, "G": Globally}


def parse_ltl(text: str) -> Ltl:
    toks = ex.tokenize(text)[::-1]  # next token last

    def peek() -> str:
        return toks[-1] if toks else ""

    def take(expected: str) -> None:
        if peek() != expected:
            raise ParseError(f"expected {expected!r}, found {peek()!r}")
        toks.pop()

    def parse_or() -> Ltl:
        left = parse_until()
        while peek() == "||":
            take("||")
            left = LOr(left, parse_until())
        return left

    def parse_until() -> Ltl:
        left = parse_and()
        if peek() == "U":
            take("U")
            return Until(left, parse_until())
        return left

    def parse_and() -> Ltl:
        left = parse_unary()
        while peek() == "&&":
            take("&&")
            left = LAnd(left, parse_unary())
        return left

    def parse_unary() -> Ltl:
        tok = peek()
        if tok == "!":
            take("!")
            return LNot(parse_unary())
        if tok in _KEYWORDS:
            take(tok)
            return _KEYWORDS[tok](parse_unary())
        if tok == "(":
            take("(")
            inner = parse_or()
            take(")")
            return inner
        if tok in ("true", "false"):
            take(tok)
            return LTRUE if tok == "true" else LFALSE
        if ex.is_identifier(tok) and tok != "U":
            take(tok)
            return Prop(tok)
        raise ParseError(f"expected a formula, found {tok!r}")

    result = parse_or()
    if toks:
        raise ParseError(f"trailing input {peek()!r} in formula")
    return result


# ---------------------------------------------------------------------------
# Canonical simplification


def simplify_ltl(phi: Ltl) -> Ltl:
    """Equivalence-preserving simplification with a canonical Boolean level.

    Temporal operands are simplified recursively; constant temporal cases
    collapse (F/G/U of constants); the Boolean structure over the remaining
    leaves is rebuilt as a deterministic irredundant sum of products.
    """
    if isinstance(phi, (LTrue, LFalse, Prop, MonPlaceholder)):
        return phi
    if isinstance(phi, Next):
        return Next(simplify_ltl(phi.operand))
    if isinstance(phi, (Finally, Globally)):
        x = simplify_ltl(phi.operand)
        if isinstance(x, (LTrue, LFalse, type(phi))):
            return x
        return type(phi)(x)
    if isinstance(phi, Until):
        left = simplify_ltl(phi.left)
        right = simplify_ltl(phi.right)
        if isinstance(right, (LTrue, LFalse)):
            return right
        if isinstance(left, LFalse):
            return right
        if isinstance(left, LTrue):
            return Finally(right) if not isinstance(right, Finally) else right
        return Until(left, right)
    return _bool_canonical(phi)


def _bool_canonical(phi: Ltl) -> Ltl:
    """The Boolean level of ``phi`` over its simplified leaves, each simplified
    once and named by its text: the sum of products of its truth-table cover,
    or, above ``expr.DNF_ATOMS`` distinct leaves, its constant folding."""
    leaves: dict[str, Ltl] = {}

    def skeleton(n: Ltl) -> ex.Expr:
        if isinstance(n, LTrue):
            return ex.TRUE
        if isinstance(n, LFalse):
            return ex.FALSE
        if isinstance(n, LNot):
            return ex.Not(skeleton(n.operand))
        if isinstance(n, LAnd):
            return ex.And(skeleton(n.left), skeleton(n.right))
        if isinstance(n, LOr):
            return ex.Or(skeleton(n.left), skeleton(n.right))
        s = simplify_ltl(n)
        if isinstance(s, (LTrue, LFalse, *_BOOL_NODES)):
            return skeleton(s)
        text = ltl_text(s)
        leaves.setdefault(text, s)
        # a fresh node per occurrence: folding must not merge repeated leaves
        return ex.Var(ex.Atom("ap", 0, text))

    e = skeleton(phi)
    if len(leaves) > ex.DNF_ATOMS:
        return ex.bottom_up(
            ex.fold(e),
            {},
            lambda v: leaves[v.atom.name],
            lambda c: LTRUE if c.value is TOP else LFALSE,
            LNot,
            lambda n, l, r: (LAnd if isinstance(n, ex.And) else LOr)(l, r),
        )
    atoms, table, _ = ex._walk(e)
    table, atoms = ex._sort_variables(table, atoms)  # leaves in text order
    if table == (1 << (1 << len(atoms))) - 1:
        return LTRUE
    if table == 0:
        return LFALSE
    ordered = [leaves[a.name] for a in atoms]
    return _chain(LOr, [
        _chain(LAnd, [ordered[i] if pos else LNot(ordered[i]) for i, pos in term])
        for term in sorted(ex.qm_cover(table, len(atoms)))
    ])


def _chain(op: type, parts: list[Ltl]) -> Ltl:
    """``parts`` joined by the binary ``op``, nested to the right."""
    return reduce(lambda out, p: op(p, out), reversed(parts))


# ---------------------------------------------------------------------------
# Progression and synthesis


def progress(phi: Ltl, m: Memory) -> Ltl:
    """One-step LTL progression under a memory that must assign a final
    verdict to every atomic leaf of ``phi``; the result is simplified."""

    def value_of(name: str) -> Verdict:
        v = m.get(ex.plain(name))
        if v is None or not v.is_final:
            raise IncompleteEvent(f"no final verdict for {name!r}")
        return v

    def go(n: Ltl) -> Ltl:
        if isinstance(n, (LTrue, LFalse)):
            return n
        if isinstance(n, (Prop, MonPlaceholder)):
            return LTRUE if value_of(leaf_name(n)) is TOP else LFALSE
        if isinstance(n, LNot):
            return LNot(go(n.operand))
        if isinstance(n, LAnd):
            return LAnd(go(n.left), go(n.right))
        if isinstance(n, LOr):
            return LOr(go(n.left), go(n.right))
        if isinstance(n, Next):
            return n.operand
        if isinstance(n, Finally):
            return LOr(go(n.operand), n)
        if isinstance(n, Globally):
            return LAnd(go(n.operand), n)
        assert isinstance(n, Until)
        return LOr(go(n.right), LAnd(go(n.left), n))

    return simplify_ltl(go(phi))


@lru_cache(maxsize=_SYNTH_CACHE_SIZE)
def synthesize(phi: Ltl, state_cap: int = 512) -> Specification:
    """Build a deterministic, complete Moore automaton whose states are the
    simplified formulas reachable by progression.

    Transition labels disjoin the truth assignments (over the state's own
    leaves) that select each successor; the TRUE/FALSE states carry the
    final verdicts.

    Results are kept in a least-recently-used cache of ``_SYNTH_CACHE_SIZE``
    entries, keyed by the formula's value: equal formulas give the same
    :class:`Specification`, so its ``row_templates`` carry over from run to
    run.  ``synthesize.__wrapped__`` builds a fresh one.
    """
    start = simplify_ltl(phi)
    names: dict[Ltl, str] = {}
    order: list[Ltl] = []

    texts: dict[str, Ltl] = {}

    def register(f: Ltl) -> str:
        if f not in names:
            if len(names) >= state_cap:
                raise StateCapExceeded(f"more than {state_cap} progression states")
            text = ltl_text(f)
            if texts.setdefault(text, f) != f:
                raise SpecificationError(f"ambiguous state rendering {text!r}")
            names[f] = text
            order.append(f)
        return names[f]

    register(start)
    transitions: list[Transition] = []
    i = 0
    while i < len(order):
        f = order[i]
        i += 1
        leaves = atomic_leaves(f)
        successors: dict[str, list[tuple[Verdict, ...]]] = {}
        for bits in itertools.product((TOP, BOTTOM), repeat=len(leaves)):
            memory = {ex.plain(nm): v for nm, v in zip(leaves, bits)}
            successors.setdefault(register(progress(f, memory)), []).append(bits)
        for succ_name in sorted(successors):
            # one successor takes every assignment; with more, no label is constant
            label = ex.TRUE if len(successors) == 1 else ex.simplify(ex.disj_all(
                ex.conj_all(
                    ex.Var(ex.plain(nm)) if v is TOP else ex.Not(ex.Var(ex.plain(nm)))
                    for nm, v in zip(leaves, bits)
                )
                for bits in successors[succ_name]
            ))
            transitions.append(Transition(names[f], label, succ_name))

    verdicts = {
        names[f]: TOP if isinstance(f, LTrue) else BOTTOM if isinstance(f, LFalse) else ex.UNKNOWN
        for f in order
    }
    return Specification(
        states=tuple(names[f] for f in order),
        initial=names[start],
        transitions=tuple(transitions),
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# Choreography network setup


def score(phi: Ltl, component: str, ap_owner: Mapping[str, str]) -> int:
    """Occurrences of propositions owned by ``component`` in ``phi``."""
    total = 0
    for name in prop_occurrences(phi):
        owner = ap_owner.get(name)
        if owner is None:
            raise SpecificationError(f"proposition {name!r} has no owning component")
        if owner == component:
            total += 1
    return total


def choose(phi: Ltl, ap_owner: Mapping[str, str]) -> str:
    """Component with the highest score; ties break lexicographically."""
    props = prop_occurrences(phi)
    if not props:
        raise NoAtomicPropositions(f"{ltl_text(phi)!r} has no atomic propositions")
    candidates = sorted({ap_owner[name] for name in props if name in ap_owner})
    if not candidates:
        raise SpecificationError("no proposition of the formula has a known owner")
    return min(candidates, key=lambda c: (-score(phi, c, ap_owner), c))


def split(
    phi: Ltl, phiprime: Ltl, cb: str, ap_owner: Mapping[str, str]
) -> tuple[str, str]:
    """Hosts for the two operands of a binary operator, one side staying on
    the base component ``cb``."""
    c1 = choose(phi, ap_owner)
    c2 = choose(phiprime, ap_owner)
    s1 = score(phi, cb, ap_owner)
    s2 = score(phiprime, cb, ap_owner)
    if c1 == cb and c2 == cb:
        return cb, cb
    if c1 != cb and (c2 == cb or s2 > s1):
        return c1, cb
    return cb, c2


@dataclass(frozen=True)
class MonitorData:
    id: int
    formula: Ltl
    component: str


@dataclass(frozen=True)
class MonitorDataTree:
    root: MonitorData
    extras: tuple[MonitorData, ...]

    def all_monitors(self) -> list[MonitorData]:
        return [self.root, *self.extras]


def net_chor(phi: Ltl, ap_owner: Mapping[str, str]) -> MonitorDataTree:
    """Split a formula into a tree of monitors, one subformula each.

    Binary operators whose operands prefer different components delegate one
    operand to a fresh monitor, leaving a placeholder behind; ids are
    allocated in traversal order with 0 for the root.
    """
    if not prop_occurrences(phi):
        raise NoAtomicPropositions(f"{ltl_text(phi)!r} has no atomic propositions")
    host = choose(phi, ap_owner)
    counter = itertools.count(1)

    def netx(f: Ltl, c_h: str) -> tuple[Ltl, list[MonitorData]]:
        if isinstance(f, (LTrue, LFalse, Prop, MonPlaceholder)):
            return f, []
        if isinstance(f, (LNot, Next, Finally, Globally)):
            inner, extras = netx(f.operand, c_h)
            return type(f)(inner), extras
        assert isinstance(f, (LAnd, LOr, Until))
        left_props = bool(prop_occurrences(f.left))
        right_props = bool(prop_occurrences(f.right))
        if left_props and right_props:
            c1, c2 = split(f.left, f.right, c_h, ap_owner)
        else:
            c1 = c2 = c_h  # an operand without propositions cannot move
        if c1 == c_h and c2 == c_h:
            lf, ln = netx(f.left, c_h)
            rf, rn = netx(f.right, c_h)
            return type(f)(lf, rf), ln + rn
        id_n = next(counter)
        lf, ln = netx(f.left, c1)
        rf, rn = netx(f.right, c2)
        if c1 == c_h:  # delegate the right operand
            return type(f)(lf, MonPlaceholder(id_n)), ln + rn + [MonitorData(id_n, rf, c2)]
        return type(f)(MonPlaceholder(id_n), rf), ln + rn + [MonitorData(id_n, lf, c1)]

    formula, extras = netx(phi, host)
    return MonitorDataTree(MonitorData(0, formula, host),
                           tuple(sorted(extras, key=lambda m: m.id)))
