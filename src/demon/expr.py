"""Boolean expressions over atoms: encoding, rewriting, simplification, evaluation.

Expressions are immutable trees that may share subtrees; every traversal here
is iterative and memoizes on node identity so shared structure is visited
once.  Labels are over plain atoms; :func:`encode` stamps each with the round
it is read at, a proposition as <t,ap> and a monitor name as <t,&m>.
The exact decisions, :func:`decide_constant` (under :func:`eval_expr`)
and :func:`equivalent`, build a reduced ordered BDD for each call and accept
any atom count.  :func:`simplify` takes a fold fixpoint, as the folding
constructors and :func:`rewrite_fold` build, and gets every truth table it
needs from one walk, :func:`_walk`, that also collects the atoms and the tree
size.  It decides constants up to ``EXACT_ATOMS`` atoms and rebuilds a sum of
products up to ``DNF_ATOMS`` atoms, where nearly every input in practice
lies and costs one walk.  A caller may bound the atoms it simplifies:
``ehe.mov`` passes ``DNF_ATOMS`` and leaves a wider new entry as built, after
one walk that stops at its ``DNF_ATOMS + 1``-th atom.  The lexer is shared
with the LTL formula parser, and the LTL canonical form is decided through
the same walk and :func:`qm_cover`.  :func:`truth_table` and :func:`tree_size`
remain as the references the tests compare the walk against.

The costly parts of simplification are keyed by the Boolean function rather
than by node identity: the truth-table column masks are cached per atom count
(at most ``EXACT_ATOMS + 1`` counts), and Quine-McCluskey covers per
``(table, k)`` in a least-recently-used cache of ``_QM_CACHE_SIZE`` entries.
Atoms are interned by :func:`plain`, :func:`timed` and :func:`monref`, each in
a least-recently-used cache of ``_ATOM_CACHE_SIZE`` entries; atoms compare by
value, so an evicted atom made again is an equal one.  Every module-level
cache is bounded, so a long-lived process does not grow with the rounds it
has run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import ParseError

EXACT_ATOMS = 16  # atom limit for simplify's truth tables
DNF_ATOMS = 8  # atom limit for sum-of-products rebuilds
_QM_CACHE_SIZE = 1024  # distinct (table, k) covers kept
_ATOM_CACHE_SIZE = 1 << 16  # interned atoms kept per constructor


class Verdict(enum.Enum):
    TOP = "top"
    BOTTOM = "bottom"
    UNKNOWN = "unknown"

    @property
    def is_final(self) -> bool:
        return self is not Verdict.UNKNOWN

    def __repr__(self) -> str:  # compact in test output
        return {"top": "T", "bottom": "F", "unknown": "?"}[self.value]


TOP = Verdict.TOP
BOTTOM = Verdict.BOTTOM
UNKNOWN = Verdict.UNKNOWN

# Replace-merge order for memories: UNKNOWN < BOTTOM < TOP.
VERDICT_RANK = {Verdict.UNKNOWN: 0, Verdict.BOTTOM: 1, Verdict.TOP: 2}

_KIND_RANK = {"ap": 0, "tap": 1, "mon": 2}


@dataclass(frozen=True)
class Atom:
    """An encoded observable.

    kind "ap" is a bare proposition, "tap" a (round, proposition) pair and
    "mon" a (round, monitor-id) reference.  Atoms are totally ordered by
    (kind, round, name).
    """

    kind: str
    t: int
    name: str

    def sort_key(self) -> tuple[int, int, str]:
        return (_KIND_RANK[self.kind], self.t, self.name)

    def __str__(self) -> str:
        if self.kind == "ap":
            return self.name
        if self.kind == "tap":
            return f"<{self.t},{self.name}>"
        return f"<{self.t},&{self.name}>"


@lru_cache(maxsize=_ATOM_CACHE_SIZE)
def plain(ap: str) -> Atom:
    return Atom("ap", 0, ap)


@lru_cache(maxsize=_ATOM_CACHE_SIZE)
def timed(t: int, ap: str) -> Atom:
    return Atom("tap", t, ap)


@lru_cache(maxsize=_ATOM_CACHE_SIZE)
def monref(t: int, mon_id: str) -> Atom:
    return Atom("mon", t, mon_id)


class Expr:
    """Base of the expression node hierarchy."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Verdict  # TOP or BOTTOM only


@dataclass(frozen=True)
class Var(Expr):
    atom: Atom


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


TRUE = Const(TOP)
FALSE = Const(BOTTOM)


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return FALSE if e.value is TOP else TRUE
    if isinstance(e, Not):
        return e.operand
    return Not(e)


def conj(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const):
        return right if left.value is TOP else FALSE
    if isinstance(right, Const):
        return left if right.value is TOP else FALSE
    if left is right:
        return left
    return And(left, right)


def disj(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const):
        return TRUE if left.value is TOP else right
    if isinstance(right, Const):
        return TRUE if right.value is TOP else left
    if left is right:
        return left
    return Or(left, right)


def conj_all(parts: Iterable[Expr]) -> Expr:
    out: Expr = TRUE
    for p in parts:
        out = conj(out, p)
    return out


def disj_all(parts: Iterable[Expr]) -> Expr:
    out: Expr = FALSE
    for p in parts:
        out = disj(out, p)
    return out


# ---------------------------------------------------------------------------
# Structural traversals


def encode(e: Expr, t: int, monitor_names: frozenset[str] = frozenset()) -> Expr:
    """Stamp every plain atom of ``e`` with round ``t``: <t,&m> for a name in
    ``monitor_names``, <t,ap> for any other.  Structure is unchanged."""

    def leaf(node: Var) -> Var:
        if node.atom.kind != "ap":
            raise ValueError(f"encode expects plain atoms, got {node.atom}")
        return Var(stamp(node.atom.name, t, monitor_names))

    return _relabel(e, leaf)


def stamp(name: str, t: int, monitor_names: frozenset[str] = frozenset()) -> Atom:
    """The atom :func:`encode` stamps a plain ``name`` to at round ``t``."""
    return monref(t, name) if name in monitor_names else timed(t, name)


def unstamp(e: Expr) -> Expr:
    """``e`` with every atom plain, as :func:`encode` takes it."""
    return _relabel(e, lambda node: Var(plain(node.atom.name)))


def _relabel(e: Expr, leaf) -> Expr:
    """``e`` with each atom node replaced by ``leaf(node)``; sharing kept."""
    return bottom_up(e, {}, leaf, lambda node: node, Not, lambda node, l, r: type(node)(l, r))


def atoms_of(e: Expr) -> list[Atom]:
    """Distinct atoms of ``e`` in atom order."""
    return sorted(atom_set(e), key=Atom.sort_key)


def atom_set(e: Expr, visited: Optional[set[int]] = None) -> set[Atom]:
    """Distinct atoms of ``e`` outside the nodes in ``visited``, to which
    every node walked is added: calls sharing it walk shared subtrees once."""
    seen: set[Atom] = set()
    visited = set() if visited is None else visited
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        if isinstance(node, Var):
            seen.add(node.atom)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.append(node.left)
            stack.append(node.right)
    return seen


def dep(e: Expr, monitor_labels: Iterable[str] = ()) -> set[str]:
    """Names of all monitors referenced by ``e``.

    Monitor-reference atoms are always reported; plain atoms are reported
    when their name appears in ``monitor_labels`` (decentralized labels use
    bare monitor names).
    """
    labels = set(monitor_labels)
    out: set[str] = set()
    for atom in atoms_of(e):
        if atom.kind == "mon":
            out.add(atom.name)
        elif atom.kind == "ap" and atom.name in labels:
            out.add(atom.name)
    return out


def bottom_up(e: Expr, memo: dict, var_value, const_value, not_value, bin_value):
    """Iterative post-order evaluation over the expression DAG."""
    stack: list[tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Const):
            memo[id(node)] = const_value(node)
        elif isinstance(node, Var):
            memo[id(node)] = var_value(node)
        elif isinstance(node, Not):
            if not ready:
                stack.append((node, True))
                stack.append((node.operand, False))
                continue
            memo[id(node)] = not_value(memo[id(node.operand)])
        else:
            assert isinstance(node, (And, Or))
            if not ready:
                stack.append((node, True))
                stack.append((node.left, False))
                stack.append((node.right, False))
                continue
            memo[id(node)] = bin_value(
                node, memo[id(node.left)], memo[id(node.right)]
            )
    return memo[id(e)]


def tree_size(e: Expr) -> tuple[int, int]:
    """(atom leaves, NOT/AND/OR nodes) of ``e`` as a tree: shared subtrees
    are counted once per occurrence."""
    return bottom_up(
        e,
        {},
        lambda _: (1, 0),
        lambda _: (0, 0),
        lambda n: (n[0], n[1] + 1),
        lambda _, l, r: (l[0] + r[0], l[1] + r[1] + 1),
    )


# ---------------------------------------------------------------------------
# Rewriting and folding


def fold(e: Expr) -> Expr:
    """Bottom-up constant folding, double negation and identical-child collapse:
    :func:`rewrite_fold` under the empty memory."""
    return rewrite_fold(e, {})


def rewrite_fold(e: Expr, memory, memo: Optional[dict[int, Expr]] = None) -> Expr:
    """Replace every atom that ``memory`` maps to a final verdict by its
    constant, then fold constants, double negations and identical children.

    Returns the original node whenever nothing changed underneath it, so
    shared subtrees stay shared across calls.  ``memo`` may be shared across
    expressions evaluated against the same memory.  Iterative (encodings can
    nest thousands of levels deep), and short-circuits a branch once the
    other one determines the connective."""
    if memo is None:
        memo = {}
    get = memory.get
    # phase 0: expand left child; 1: maybe expand right; 2: combine
    stack: list[tuple[Expr, int]] = [(e, 0)]
    while stack:
        node, phase = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Const):
            memo[id(node)] = node
        elif isinstance(node, Var):
            v = get(node.atom)
            memo[id(node)] = (
                (TRUE if v is TOP else FALSE) if v is not None and v.is_final else node
            )
        elif isinstance(node, Not):
            if phase == 0:
                stack.append((node, 2))
                stack.append((node.operand, 0))
                continue
            child = memo[id(node.operand)]
            if isinstance(child, (Const, Not)):
                memo[id(node)] = neg(child)
            else:
                memo[id(node)] = node if child is node.operand else Not(child)
        else:
            assert isinstance(node, (And, Or))
            if phase == 0:
                stack.append((node, 1))
                stack.append((node.left, 0))
                continue
            l = memo[id(node.left)]
            if phase == 1:
                if isinstance(node, And) and l is FALSE:
                    memo[id(node)] = FALSE
                    continue
                if isinstance(node, Or) and l is TRUE:
                    memo[id(node)] = TRUE
                    continue
                stack.append((node, 2))
                stack.append((node.right, 0))
                continue
            r = memo[id(node.right)]
            if isinstance(l, Const) or isinstance(r, Const) or l is r:
                out = conj(l, r) if isinstance(node, And) else disj(l, r)
            elif l is node.left and r is node.right:
                out = node
            else:
                out = And(l, r) if isinstance(node, And) else Or(l, r)
            memo[id(node)] = out
    return memo[id(e)]


# ---------------------------------------------------------------------------
# Truth tables and exact decisions


@lru_cache(maxsize=EXACT_ATOMS + 1)
def _columns(k: int) -> tuple[int, ...]:
    """Truth column of each of k variables: bit j of column i is bit i of j."""
    rows = 1 << k
    out = []
    for i in range(k):
        width = 1 << (i + 1)
        col = ((1 << (1 << i)) - 1) << (1 << i)  # upper half of one period
        while width < rows:
            col |= col << width
            width <<= 1
        out.append(col)
    return tuple(out)


def truth_table(e: Expr, atoms: list[Atom]) -> int:
    """Truth column of ``e`` over ``atoms`` packed into an int (bit j = row j).

    The reference the tests compare :func:`_walk`'s tables against; the
    library itself builds its tables with :func:`_walk`."""
    k = len(atoms)
    full = (1 << (1 << k)) - 1
    columns = dict(zip(atoms, _columns(k)))
    return bottom_up(
        e,
        {},
        lambda node: columns[node.atom],
        lambda node: full if node.value is TOP else 0,
        lambda n: full ^ n,
        lambda node, l, r: (l & r) if isinstance(node, And) else (l | r),
    )


class _Bdd:
    """Reduced ordered binary decision diagram (Bryant, IEEE Trans. Computers
    1986) of ``e``, built for one decision and dropped; ``root`` is its node.

    Nodes are ints: 0 is FALSE, 1 is TRUE, and ``nodes[n]`` of any other node
    is (variable, low, high), taking ``low`` when the variable is false.
    Variables are atoms in chronological (round, kind, name) order, which
    keeps a round's monitor references next to its propositions, unlike
    :meth:`Atom.sort_key`.  The unique table makes equal functions one node.

    Each maximal chain of one connective is built as a whole: its operands
    are combined from the latest top variable down, so each step puts a
    diagram below a new top variable instead of copying the diagram built so
    far to reach its bottom (as a left-nested ``conj_all`` would)."""

    def __init__(self, e: Expr):
        atoms = sorted(atom_set(e), key=lambda a: (a.t, _KIND_RANK[a.kind], a.name))
        index = {a: i for i, a in enumerate(atoms)}
        self.nodes = [(len(atoms), 0, 0), (len(atoms), 1, 1)]  # below every variable
        self.unique: dict[tuple[int, int, int], int] = {}
        memo: dict[int, int] = {}
        chains: dict[int, list[Expr]] = {}  # id of a chain's top -> its operands
        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            if isinstance(node, Const):
                memo[id(node)] = 1 if node.value is TOP else 0
            elif isinstance(node, Var):
                memo[id(node)] = self.node((index[node.atom], 0, 1))
            elif isinstance(node, Not):
                if id(node.operand) not in memo:
                    stack.append(node.operand)
                    continue
                memo[id(node)] = self.negate(memo[id(node.operand)])
            else:
                operands = chains.get(id(node))
                if operands is None:
                    operands = chains[id(node)] = _chain_operands(node, memo)
                    missing = [op for op in operands if id(op) not in memo]
                    if missing:
                        stack += missing
                        continue
                memo[id(node)] = self.combine(
                    isinstance(node, And), [memo[id(op)] for op in operands]
                )
            stack.pop()
        self.root = memo[id(e)]

    def combine(self, conjunction: bool, operands: list[int]) -> int:
        """Conjunction or disjunction of ``operands``, latest top variable first."""
        nodes = self.nodes
        operands.sort(key=lambda n: nodes[n][0], reverse=True)
        acc = operands[0]
        for n in operands[1:]:
            acc = self.ite(n, acc, 0) if conjunction else self.ite(n, 1, acc)
        return acc

    def node(self, key: tuple[int, int, int]) -> int:
        if key[1] == key[2]:
            return key[1]
        n = self.unique.get(key)
        if n is None:
            n = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
        return n

    def negate(self, n: int) -> int:
        v, low, high = self.nodes[n]  # a variable's complement needs no walk
        return self.node((v, 1, 0)) if (low, high) == (0, 1) else self.ite(n, 0, 1)

    def ite(self, f: int, g: int, h: int) -> int:
        """Node of "if f then g else h": the apply operation in the form that
        covers and (f, g, 0), or (f, 1, g) and not (f, 0, 1).  Iterative, as
        the walk goes as deep as there are variables."""
        nodes = self.nodes
        memo: dict[tuple[int, int, int], int] = {}
        root = (f, g, h)
        stack = [root]
        while stack:
            key = stack[-1]
            f, g, h = key
            if key in memo:
                stack.pop()
            elif f < 2 or g == h or (g, h) == (1, 0):
                memo[key] = h if f == 0 else g if f == 1 or g == h else f
                stack.pop()
            else:
                (vf, f0, f1), (vg, g0, g1), (vh, h0, h1) = nodes[f], nodes[g], nodes[h]
                top = min(vf, vg, vh)  # cofactor on the first variable tested
                if vf != top:
                    f0 = f1 = f
                if vg != top:
                    g0 = g1 = g
                if vh != top:
                    h0 = h1 = h
                lo, hi = (f0, g0, h0), (f1, g1, h1)
                if lo in memo and hi in memo:
                    memo[key] = self.node((top, memo[lo], memo[hi]))
                    stack.pop()
                else:
                    stack += (lo, hi)
        return memo[root]


def _chain_operands(top: Expr, memo: dict[int, int]) -> list[Expr]:
    """Distinct operands of the maximal chain of ``top``'s connective under
    it: the walk goes down through children of that connective that have no
    diagram in ``memo`` yet."""
    cls = type(top)
    out: list[Expr] = []
    seen = {id(top)}
    todo = [top.right, top.left]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node) is cls and id(node) not in memo:
            todo += (node.right, node.left)
        else:
            out.append(node)
    return out


def decide_constant(e: Expr) -> Optional[Verdict]:
    """Tautology/contradiction decision for ``e``, exact at every size.

    Returns TOP for tautologies, BOTTOM for unsatisfiable expressions, and
    None otherwise."""
    if isinstance(e, Var) or (isinstance(e, Not) and isinstance(e.operand, Var)):
        return None  # a literal, the most common open condition: no BDD needed
    root = _Bdd(e).root
    return TOP if root == 1 else BOTTOM if root == 0 else None


Cover = tuple[tuple[tuple[int, bool], ...], ...]


@lru_cache(maxsize=_QM_CACHE_SIZE)
def qm_cover(table: int, k: int) -> Cover:
    """Irredundant sum-of-products cover of a truth table over k variables.

    Quine-McCluskey prime implicants followed by a deterministic greedy
    cover.  Each returned term is a tuple of (variable index, polarity) in
    index order.  Results are cached by ``(table, k)``.
    """
    rows = 1 << k
    minterms = [j for j in range(rows) if (table >> j) & 1]
    if not minterms or len(minterms) == rows:
        raise ValueError("constant function has no cover")
    # Implicant = (values, mask) where mask bits are "don't care".
    current: set[tuple[int, int]] = {(m, 0) for m in minterms}
    primes: set[tuple[int, int]] = set()
    while current:
        merged: set[tuple[int, int]] = set()
        nxt: set[tuple[int, int]] = set()
        grouped: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for values, mask in current:
            grouped.setdefault((mask, bin(values).count("1")), []).append((values, mask))
        for (mask, ones), members in grouped.items():
            partners = grouped.get((mask, ones + 1), [])
            for values, _ in members:
                for pv, _ in partners:
                    diff = values ^ pv
                    if diff and (diff & (diff - 1)) == 0:
                        nxt.add((values & ~diff, mask | diff))
                        merged.add((values, mask))
                        merged.add((pv, mask))
        primes |= current - merged
        current = nxt

    def covers(imp: tuple[int, int], m: int) -> bool:
        values, mask = imp
        return (m & ~mask) == values

    ordered = sorted(primes)
    chosen: list[tuple[int, int]] = []
    uncovered = set(minterms)
    # Essential primes first.
    for m in sorted(uncovered):
        hits = [p for p in ordered if covers(p, m)]
        if len(hits) == 1 and hits[0] not in chosen:
            chosen.append(hits[0])
    for p in chosen:
        uncovered -= {m for m in uncovered if covers(p, m)}
    while uncovered:
        best = max(
            ordered,
            key=lambda p: (len({m for m in uncovered if covers(p, m)}), [-v for v in p]),
        )
        chosen.append(best)
        uncovered -= {m for m in uncovered if covers(best, m)}

    return tuple(
        tuple((i, bool((values >> i) & 1)) for i in range(k) if not (mask >> i) & 1)
        for values, mask in chosen
    )


def _cover_size(terms: Cover) -> tuple[int, int]:
    """``tree_size`` of the DNF that :func:`_dnf_from_cover` builds from a
    cover of a non-constant function: one leaf per literal, one NOT per
    negative literal, and one fewer AND/OR node than literals."""
    leaves = sum(map(len, terms))
    negations = sum(not pos for term in terms for _, pos in term)
    return leaves, negations + leaves - 1


def _dnf_from_cover(terms: Cover, atoms: list[Atom]) -> Expr:
    return disj_all(
        conj_all(Var(atoms[i]) if pos else Not(Var(atoms[i])) for i, pos in term)
        for term in terms
    )


def _is_literal(e: Expr) -> bool:
    """Whether ``e`` is a constant, an atom or a negated atom, which
    :func:`fold` and :func:`simplify` return unchanged."""
    return isinstance(e, (Const, Var)) or (isinstance(e, Not) and isinstance(e.operand, Var))


Walk = tuple[list[Atom], int, tuple[int, int]]


def _walk(e: Expr, width: int = DNF_ATOMS) -> Optional[Walk]:
    """One iterative post-order walk of ``e`` over truth tables of ``width``
    columns.

    Returns None as soon as a ``width + 1``-th distinct atom appears.
    Otherwise returns (atoms, table, size): the atoms in discovery order, the
    truth table over them (bit j is row j, in which atom i takes bit i of j)
    and the :func:`tree_size`."""
    cols = _columns(width)
    full = (1 << (1 << width)) - 1
    index: dict[Atom, int] = {}
    memo: dict[int, tuple[int, int, int]] = {}  # id -> (table, leaves, operators)
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        cls = type(node)
        if cls is Var:
            i = index.get(node.atom)
            if i is None:
                i = len(index)
                if i == width:
                    return None
                index[node.atom] = i
            memo[id(node)] = (cols[i], 1, 0)
        elif cls is Not:
            sub = memo.get(id(node.operand))
            if sub is None:
                stack.append(node.operand)
                continue
            memo[id(node)] = (full ^ sub[0], sub[1], sub[2] + 1)
        elif cls is Const:
            memo[id(node)] = (full if node.value is TOP else 0, 0, 0)
        else:
            l, r = memo.get(id(node.left)), memo.get(id(node.right))
            if l is None or r is None:
                if r is None:
                    stack.append(node.right)
                if l is None:
                    stack.append(node.left)
                continue
            table = l[0] & r[0] if cls is And else l[0] | r[0]
            memo[id(node)] = (table, l[1] + r[1], l[2] + r[2] + 1)
        stack.pop()
    table, leaves, ops = memo[id(e)]
    return list(index), table & ((1 << (1 << len(index))) - 1), (leaves, ops)


def _sort_variables(table: int, atoms: list[Atom]) -> tuple[int, list[Atom]]:
    """``table`` over ``atoms`` re-indexed over the same atoms in
    :meth:`Atom.sort_key` order: one delta swap of the table's bits per pair
    of variables exchanged."""
    order = sorted(atoms, key=Atom.sort_key)
    if order == atoms:
        return table, atoms
    cols = _columns(len(atoms))
    current = list(atoms)
    for j, atom in enumerate(order):
        i = current.index(atom, j)
        if i == j:
            continue
        # rows with variable j set and variable i clear trade places with
        # the rows that differ from them in exactly those two bits
        shift = (1 << i) - (1 << j)
        moved = (table ^ (table >> shift)) & cols[j] & ~cols[i]
        table ^= moved ^ (moved << shift)
        current[i], current[j] = current[j], current[i]
    return table, order


def simplify(e: Expr, max_atoms: int = EXACT_ATOMS) -> Expr:
    """Return an expression Boolean-equivalent to ``e``; never searches.

    ``e`` is expected to be a fold fixpoint (:func:`fold` returns it
    unchanged), as the folding constructors and :func:`rewrite_fold` build;
    any other input gets an equivalent result that may keep constants.  An
    input of more than ``max_atoms`` atoms (at most ``EXACT_ATOMS``, the
    default) is returned as given.  Up to that bound tautologies become TRUE
    and contradictions FALSE, and up to ``DNF_ATOMS`` atoms the expression is
    rebuilt as an irredundant sum of products when that is no larger;
    otherwise the result is ``e`` itself.  The truth table comes from
    :func:`_walk` over at most ``DNF_ATOMS`` columns, or over exactly as many
    as the :func:`atom_set` of a wider input holds, which a bound of
    ``DNF_ATOMS`` or less never counts.
    """
    if _is_literal(e):
        return e
    walk = _walk(e, min(max_atoms, DNF_ATOMS))
    if walk is None:
        if max_atoms <= DNF_ATOMS:
            return e
        k = len(atom_set(e))
        if k > max_atoms:
            return e
        walk = _walk(e, k)
    atoms, table, size = walk
    k = len(atoms)
    if table == (1 << (1 << k)) - 1:
        return TRUE
    if table == 0:
        return FALSE
    if k > DNF_ATOMS:
        return e
    table, atoms = _sort_variables(table, atoms)
    terms = qm_cover(table, k)
    if _cover_size(terms) <= size:
        return _dnf_from_cover(terms, atoms)
    return e


def eval_expr(e: Expr, memory, memo: Optional[dict[int, Expr]] = None) -> Verdict:
    """Verdict of ``e`` under ``memory``: TOP/BOTTOM iff the rewritten
    expression is a tautology/contradiction, UNKNOWN otherwise."""
    r = rewrite_fold(e, memory, memo)
    if isinstance(r, Const):
        return r.value
    verdict = decide_constant(r)
    return verdict if verdict is not None else UNKNOWN


def equivalent(e1: Expr, e2: Expr) -> bool:
    """Exact Boolean-function equality: ``e1`` xor ``e2`` is unsatisfiable."""
    return decide_constant(Or(And(e1, Not(e2)), And(Not(e1), e2))) is BOTTOM


# ---------------------------------------------------------------------------
# Text format: identifiers, true/false, !, &&, ||, parentheses.


def to_text(e: Expr) -> str:
    """Text form of ``e``, built iteratively into one list of pieces, so
    encodings of any depth render in time linear in their tree size."""
    out: list[str] = []
    stack: list = [(e, 0)]  # (node, precedence of its context) or a literal piece
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parent = item
        if isinstance(node, Const):
            out.append("true" if node.value is TOP else "false")
        elif isinstance(node, Var):
            out.append(str(node.atom))
        elif isinstance(node, Not):
            out.append("!")
            stack.append((node.operand, 3))
        else:
            prec, op = (2, " && ") if isinstance(node, And) else (1, " || ")
            if parent > prec:
                out.append("(")
                stack.append(")")
            stack += [(node.right, prec), op, (node.left, prec)]
    return "".join(out)


def tokenize(text: str) -> list[str]:
    """Tokens shared by the expression and LTL formula syntaxes: identifiers
    (keywords included), ``!``, ``(``, ``)``, ``&&`` and ``||``."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "!()":
            out.append(ch)
            i += 1
        elif text.startswith(("&&", "||"), i):
            out.append(text[i : i + 2])
            i += 2
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at offset {i}")
    return out


def is_identifier(tok: str) -> bool:
    """Whether a :func:`tokenize` token is a name rather than an operator."""
    return tok[:1].isalpha() or tok[:1] == "_"


def parse_expr(text: str) -> Expr:
    """Parse the expression grammar (precedence: ! > && > ||) over plain atoms."""
    toks = tokenize(text)[::-1]  # next token last

    def peek() -> str:
        return toks[-1] if toks else ""

    def take(tok: str) -> None:
        if peek() != tok:
            raise ParseError(f"expected {tok!r}, found {peek()!r}")
        toks.pop()

    def parse_or() -> Expr:
        left = parse_and()
        while peek() == "||":
            take("||")
            left = Or(left, parse_and())
        return left

    def parse_and() -> Expr:
        left = parse_unary()
        while peek() == "&&":
            take("&&")
            left = And(left, parse_unary())
        return left

    def parse_unary() -> Expr:
        tok = peek()
        if tok == "!":
            take("!")
            return Not(parse_unary())
        if tok == "(":
            take("(")
            inner = parse_or()
            take(")")
            return inner
        if tok in ("true", "false"):
            take(tok)
            return TRUE if tok == "true" else FALSE
        if is_identifier(tok):
            take(tok)
            return Var(plain(tok))
        raise ParseError(f"expected an expression, found {tok!r}")

    result = parse_or()
    if toks:
        raise ParseError(f"trailing input {peek()!r} in expression")
    return result
