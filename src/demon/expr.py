"""Boolean expressions over atoms: encoding, rewriting, simplification, evaluation.

Expressions are immutable trees that may share subtrees; every traversal here
is iterative and memoizes on node identity so shared structure is visited
once.  Labels are over plain atoms; :func:`encode` stamps each with the round
it is read at, a proposition as <t,ap> and a monitor name as <t,&m>.
The exact decisions, :func:`decide_constant` (under :func:`eval_expr`)
and :func:`equivalent`, accept any atom count: up to ``EXACT_ATOMS`` atoms
they read the table that :func:`simplify` reads, and a reduced ordered BDD,
built through :func:`bottom_up` over atoms in breadth-first order, decides
wider conditions.  The walks dispatch on exact node type and raise
``TypeError`` on a node of any other class.  :func:`simplify` takes a fold
fixpoint, as the folding constructors and :func:`rewrite_fold` build, and
makes one walk, :func:`_walk`, that collects the atoms, the tree size and
a truth table of 2^``SAMPLED_ATOMS`` rows: exact up to ``SAMPLED_ATOMS``
atoms, and past that a fixed sample of assignments that shows most wide
conditions to be open.  Only a wide input whose sampled rows all agree is
walked again, exactly: that rule is :func:`_exact_walk`, which
:func:`decide_constant` shares.  It
decides constants up to ``EXACT_ATOMS`` atoms and rebuilds a sum of products
up to ``DNF_ATOMS`` atoms.  A caller may bound the atoms it simplifies:
``ehe.mov`` passes ``DNF_ATOMS`` and leaves a wider new entry as built, after
a walk that stops at its ``DNF_ATOMS + 1``-th atom.  What a walk learns
that cannot change is kept on the node: ``wide`` (more than ``DNF_ATOMS``
atoms) and ``settled`` (:func:`simplify` returns the node itself, as it does
for a sum of products it rebuilt), so later calls on the same node return at
once; ``ehe.mov`` marks a new entry wide when it holds a wide node.  Nothing
is interned.  The lexer is shared with the LTL formula parser, and the LTL
canonical form is decided through the same walk and :func:`qm_cover`.
:func:`truth_table` remains as the reference the tests compare the walk
against.

The costly parts of simplification are keyed by the Boolean function rather
than by node identity: the exact truth-table column masks are cached per atom
count (at most ``EXACT_ATOMS + 1`` counts), the sampled ones are built once
from a constant seed, and Quine-McCluskey covers are kept per
``(table, k)`` in a least-recently-used cache of ``_QM_CACHE_SIZE`` entries.
Atoms are interned by :func:`plain`, :func:`timed` and :func:`monref`, each in
a least-recently-used cache of ``_ATOM_CACHE_SIZE`` entries; atoms compare by
value, so an evicted atom made again is an equal one.  Every module-level
cache is bounded, so a long-lived process does not grow with the rounds it
has run.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, KeysView, NamedTuple, Optional

from .errors import ParseError, SpecificationError

EXACT_ATOMS = 16  # atom limit for simplify's truth tables
DNF_ATOMS = 8  # atom limit for sum-of-products rebuilds
SAMPLED_ATOMS = 9  # atoms a sampled truth table of 2^9 rows holds exactly
_SAMPLE_SEED = 2005  # fixes the sampled rows past SAMPLED_ATOMS atoms
_QM_CACHE_SIZE = 1024  # distinct (table, k) covers kept
_ATOM_CACHE_SIZE = 1 << 16  # interned atoms kept per constructor
MAX_NESTING = 100  # nested parentheses and prefix operators a parser accepts


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

_KIND_RANK = {"ap": 0, "tap": 1, "mon": 2}


class Atom(NamedTuple):
    """An encoded observable.

    kind "ap" is a bare proposition, "tap" a (round, proposition) pair and
    "mon" a (round, monitor-id) reference.  Atoms are totally ordered by
    :meth:`sort_key`, (kind, round, name), not by tuple comparison.  As a
    named tuple, an atom is immutable, hashes as ``(kind, t, name)`` (like a
    frozen dataclass of its fields) and hashes and compares in C.
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
    """Base of the expression node hierarchy.

    ``wide`` and ``settled`` are facts that :func:`simplify` learns about a
    node and records on it; both default to False here, so a node without
    them has no instance attribute for them and reads the class default."""

    __slots__ = ()
    wide = False  # more than DNF_ATOMS distinct atoms
    settled = False  # simplify(node) returns node itself


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
    cls = type(e)
    if cls is Const:
        return FALSE if e.value is TOP else TRUE
    if cls is Not:
        return e.operand
    return Not(e)


def conj(left: Expr, right: Expr) -> Expr:
    if type(left) is Const:
        return right if left.value is TOP else FALSE
    if type(right) is Const:
        return left if right.value is TOP else FALSE
    if left is right:
        return left
    return And(left, right)


def disj(left: Expr, right: Expr) -> Expr:
    if type(left) is Const:
        return TRUE if left.value is TOP else right
    if type(right) is Const:
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


def atom_set(e: Expr, visited: Optional[set[int]] = None) -> KeysView[Atom]:
    """Distinct atoms of ``e`` outside the nodes in ``visited``, to which
    every node walked is added: calls sharing it walk shared subtrees once.
    The atoms come in breadth-first order from the root, left before right."""
    seen: dict[Atom, None] = {}
    visited = set() if visited is None else visited
    queue = [e]
    for node in queue:  # the list grows as it is read: breadth-first
        if id(node) in visited:
            continue
        visited.add(id(node))
        cls = type(node)
        if cls is Var:
            seen[node.atom] = None
        elif cls is Not:
            queue.append(node.operand)
        elif cls is And or cls is Or:
            queue += (node.left, node.right)
        elif cls is not Const:
            raise TypeError(f"not an expression node: {node!r}")
    return seen.keys()


def dep(e: Expr, monitor_labels: Collection[str] = ()) -> set[str]:
    """Names of all monitors referenced by ``e``.

    Monitor-reference atoms are always reported; plain atoms are reported
    when their name appears in ``monitor_labels`` (decentralized labels use
    bare monitor names), which callers pass as a set when it is large.
    """
    return {
        atom.name for atom in atom_set(e)
        if atom.kind == "mon" or (atom.kind == "ap" and atom.name in monitor_labels)
    }


def bottom_up(e: Expr, memo: dict, var_value, const_value, not_value, bin_value):
    """Iterative post-order evaluation over the expression DAG."""
    stack: list[tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        cls = type(node)
        if cls is Var:
            memo[id(node)] = var_value(node)
        elif cls is And or cls is Or:
            if not ready:
                stack.append((node, True))
                stack.append((node.left, False))
                stack.append((node.right, False))
                continue
            memo[id(node)] = bin_value(
                node, memo[id(node.left)], memo[id(node.right)]
            )
        elif cls is Not:
            if not ready:
                stack.append((node, True))
                stack.append((node.operand, False))
                continue
            memo[id(node)] = not_value(memo[id(node.operand)])
        elif cls is Const:
            memo[id(node)] = const_value(node)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return memo[id(e)]


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
        cls = type(node)
        if cls is Var:
            v = get(node.atom)
            memo[id(node)] = TRUE if v is TOP else FALSE if v is BOTTOM else node
        elif cls is And or cls is Or:
            if phase == 0:
                stack.append((node, 1))
                stack.append((node.left, 0))
                continue
            l = memo[id(node.left)]
            if phase == 1:
                if l is (FALSE if cls is And else TRUE):
                    memo[id(node)] = l
                    continue
                stack.append((node, 2))
                stack.append((node.right, 0))
                continue
            r = memo[id(node.right)]
            if type(l) is Const or type(r) is Const or l is r:
                out = conj(l, r) if cls is And else disj(l, r)
            elif l is node.left and r is node.right:
                out = node
            else:
                out = cls(l, r)
            memo[id(node)] = out
        elif cls is Not:
            if phase == 0:
                stack.append((node, 2))
                stack.append((node.operand, 0))
                continue
            child = memo[id(node.operand)]
            if type(child) is Const or type(child) is Not:
                memo[id(node)] = neg(child)
            else:
                memo[id(node)] = node if child is node.operand else Not(child)
        elif cls is Const:
            memo[id(node)] = node
        else:
            raise TypeError(f"not an expression node: {node!r}")
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


# Column i is atom i's column in a sampled table of 2^SAMPLED_ATOMS rows:
# exact for the first SAMPLED_ATOMS atoms, then fixed pseudo-random up to
# EXACT_ATOMS.  Each row is a real assignment, so a sampled table that holds
# both values shows that its function is not constant.
_SAMPLED_COLUMNS = _columns(SAMPLED_ATOMS) + tuple(map(
    random.Random(_SAMPLE_SEED).getrandbits,
    [1 << SAMPLED_ATOMS] * (EXACT_ATOMS - SAMPLED_ATOMS),
))
_SAMPLED_FULL = (1 << (1 << SAMPLED_ATOMS)) - 1


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


_AND, _OR, _XOR = (0, 0, 0, 1), (0, 1, 1, 1), (0, 1, 1, 0)  # op(a, b) at 2a + b


class _Bdd:
    """Reduced ordered binary decision diagram (Bryant, IEEE Trans. Computers
    1986) of ``e``, built for one decision and dropped; ``root`` is its node.

    Nodes are ints: 0 is FALSE, 1 is TRUE, and ``nodes[n]`` of any other node
    is (variable, low, high), taking ``low`` when the variable is false.  The
    unique table makes equal functions one node.  Variables are atoms in
    the breadth-first order of :func:`atom_set`, and :func:`bottom_up`
    joins the children's diagrams with :meth:`apply`.  In that order the
    operand a connective adds last sits above the diagram it joins, so a
    chain of one connective builds in time linear in its length, nested
    either way."""

    def __init__(self, e: Expr):
        index = {a: i for i, a in enumerate(atom_set(e))}
        self.nodes = [(len(index), 0, 0), (len(index), 1, 1)]  # below every variable
        self.unique: dict[tuple[int, int, int], int] = {}
        self.root = bottom_up(
            e,
            {},
            lambda node: self.node((index[node.atom], 0, 1)),
            lambda node: 1 if node.value is TOP else 0,
            lambda n: self.apply(_XOR, n, 1),
            lambda node, l, r: self.apply(_AND if type(node) is And else _OR, l, r),
        )

    def node(self, key: tuple[int, int, int]) -> int:
        if key[1] == key[2]:
            return key[1]
        n = self.unique.get(key)
        if n is None:
            n = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
        return n

    def apply(self, op: tuple[int, int, int, int], f: int, g: int) -> int:
        """Node of ``op`` on ``f`` and ``g``, for a symmetric ``op`` given by
        its values at (0, 0), (0, 1), (1, 0) and (1, 1).  Iterative, as the
        walk goes as deep as there are variables."""
        nodes = self.nodes
        memo: dict[tuple[int, int], int] = {}
        root = (min(f, g), max(f, g))
        stack = [root]
        while stack:
            key = stack[-1]
            f, g = key  # f <= g: a terminal operand comes first
            if key in memo:
                stack.pop()
            elif f < 2 and g < 2:
                memo[key] = op[2 * f + g]
            elif f < 2 and op[2 * f] == op[2 * f + 1]:  # op(f, .) is constant
                memo[key] = op[2 * f]
            elif f < 2 and op[2 * f + 1]:  # op(f, .) is the identity
                memo[key] = g
            else:
                (vf, f0, f1), (vg, g0, g1) = nodes[f], nodes[g]
                top = min(vf, vg)  # cofactor on the first variable tested
                if vf != top:
                    f0 = f1 = f
                if vg != top:
                    g0 = g1 = g
                lo, hi = (min(f0, g0), max(f0, g0)), (min(f1, g1), max(f1, g1))
                if lo in memo and hi in memo:
                    memo[key] = self.node((top, memo[lo], memo[hi]))
                else:
                    stack += (lo, hi)
        return memo[root]


def decide_constant(e: Expr) -> Optional[Verdict]:
    """Tautology/contradiction decision for ``e``, exact at every size.

    Returns TOP for tautologies, BOTTOM for unsatisfiable expressions, and
    None otherwise.  A literal is open.  Any other condition of up to
    ``EXACT_ATOMS`` atoms is decided by the table of :func:`_exact_walk`,
    which :func:`simplify` reads too; only a wider one builds a reduced
    ordered BDD."""
    cls = type(e)
    if cls is Var or (cls is Not and type(e.operand) is Var):
        return None
    walk = _exact_walk(e, EXACT_ATOMS)
    if walk is None:
        root = _Bdd(e).root
        return TOP if root == 1 else BOTTOM if root == 0 else None
    k, table = len(walk[0]), walk[1]
    return TOP if table == (1 << (1 << k)) - 1 else BOTTOM if table == 0 else None


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
    """Tree size, as :func:`_walk` counts it, of the DNF that :func:`_dnf_from_cover` builds from a
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
    cls = type(e)
    return cls is Var or cls is Const or (cls is Not and type(e.operand) is Var)


Walk = tuple[list[Atom], int, tuple[int, int]]


def _walk(e: Expr, limit: int = DNF_ATOMS, width: Optional[int] = None) -> Optional[Walk]:
    """One iterative post-order walk of ``e`` over truth tables.

    With ``width`` given, atom i takes column i of :func:`_columns` (width):
    exact tables of 2^width rows, for a ``limit`` of at most ``width``.  By
    default atom i takes column i of ``_SAMPLED_COLUMNS``: tables of
    2^``SAMPLED_ATOMS`` rows, exact up to ``SAMPLED_ATOMS`` atoms and a fixed
    sample of real assignments beyond.

    Returns None as soon as a ``limit + 1``-th distinct atom appears.
    Otherwise returns (atoms, table, size): the atoms in discovery order, the
    truth table over them (bit j is row j, in which atom i takes bit i of j
    or, past ``SAMPLED_ATOMS``, bit j of its sampled column) and the tree size
    as (atom leaves, NOT/AND/OR nodes), shared subtrees counted once per
    occurrence."""
    if width is None:
        cols, width = _SAMPLED_COLUMNS, SAMPLED_ATOMS
    else:
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
                if i == limit:
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
        elif cls is And or cls is Or:
            l, r = memo.get(id(node.left)), memo.get(id(node.right))
            if l is None or r is None:
                if r is None:
                    stack.append(node.right)
                if l is None:
                    stack.append(node.left)
                continue
            table = l[0] & r[0] if cls is And else l[0] | r[0]
            memo[id(node)] = (table, l[1] + r[1], l[2] + r[2] + 1)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        stack.pop()
    table, leaves, ops = memo[id(e)]
    rows = 1 << min(len(index), width)
    return list(index), table & ((1 << rows) - 1), (leaves, ops)


def _exact_walk(e: Expr, limit: int) -> Optional[Walk]:
    """:func:`_walk` of ``e`` over the sampled columns, stopped at a ``limit +
    1``-th atom, with a table that is constant exactly when ``e`` is.

    The sampled table is exact up to ``SAMPLED_ATOMS`` atoms.  Past that, one
    that holds both values is returned as it is, since each of its rows is a
    real assignment; only one that reads constant is walked again, over the
    exact columns of its atom count."""
    walk = _walk(e, limit)
    if walk is None or len(walk[0]) <= SAMPLED_ATOMS or 0 < walk[1] < _SAMPLED_FULL:
        return walk
    k = len(walk[0])
    return _walk(e, k, k)


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
    otherwise the result is ``e`` itself.

    :func:`_exact_walk`, stopped at a ``max_atoms + 1``-th atom, gives the
    atoms, the size and a table that reads constant exactly when ``e`` is,
    so every result is the one an exact table gives.

    Two facts follow from a node's structure alone, so once a call learns
    one it records it on the node for every later call:

    - ``e.wide``, set when a walk bounded at ``DNF_ATOMS`` or more finds more
      than ``DNF_ATOMS`` atoms.  A wide node is returned at once under a
      bound of ``DNF_ATOMS`` or less.
    - ``e.settled``, set when the result at the full bound is ``e`` itself:
      a non-constant table with no smaller sum of products, or more than
      ``EXACT_ATOMS`` atoms.  A sum of products that ``simplify`` rebuilds
      is settled as it is built: walking it gives the same sorted table and
      cover, and a cover size equal to its own size, so it is its own
      result.  A settled node is returned at once under any bound up to
      ``EXACT_ATOMS``; ``simplify`` of its own result returns that object.
    """
    if _is_literal(e) or e.settled or (e.wide and max_atoms <= DNF_ATOMS):
        return e
    walk = _exact_walk(e, max_atoms)
    if walk is None:
        if max_atoms >= DNF_ATOMS:
            learn(e, "wide")
        return learn(e, "settled") if max_atoms >= EXACT_ATOMS else e
    atoms, table, size = walk
    k = len(atoms)
    if k > DNF_ATOMS:
        learn(e, "wide")
    if table == (1 << (1 << k)) - 1:
        return TRUE
    if table == 0:
        return FALSE
    if k > DNF_ATOMS:
        return learn(e, "settled")
    table, atoms = _sort_variables(table, atoms)
    terms = qm_cover(table, k)
    if _cover_size(terms) <= size:
        return learn(_dnf_from_cover(terms, atoms), "settled")
    return learn(e, "settled")


def learn(e: Expr, fact: str) -> Expr:
    """Record ``fact``, ``"wide"`` or ``"settled"``, on ``e`` and return it.
    Nodes are frozen, and the fact is not a field: equality, hashing and
    ``repr`` ignore it."""
    object.__setattr__(e, fact, True)
    return e


def eval_expr(e: Expr, memory, memo: Optional[dict[int, Expr]] = None) -> Verdict:
    """Verdict of ``e`` under ``memory``: TOP/BOTTOM iff the rewritten
    expression is a tautology/contradiction, UNKNOWN otherwise."""
    r = rewrite_fold(e, memory, memo)
    if type(r) is Const:
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


def nested(depth: int, what: str) -> int:
    """``depth + 1``, the level a parser of ``what`` enters from ``depth``;
    past ``MAX_NESTING`` the input is rejected, since the parsers and the
    LTL layer recurse once or more per level."""
    if depth >= MAX_NESTING:
        raise SpecificationError(
            f"{what} nests parentheses and operators more than {MAX_NESTING} levels deep"
        )
    return depth + 1


def parse_expr(text: str) -> Expr:
    """Parse the expression grammar (precedence: ! > && > ||) over plain atoms.

    Parentheses and ``!`` may nest at most ``MAX_NESTING`` levels deep."""
    toks = tokenize(text)[::-1]  # next token last

    def peek() -> str:
        return toks[-1] if toks else ""

    def take(tok: str) -> None:
        if peek() != tok:
            raise ParseError(f"expected {tok!r}, found {peek()!r}")
        toks.pop()

    def parse_or(depth: int) -> Expr:
        left = parse_and(depth)
        while peek() == "||":
            take("||")
            left = Or(left, parse_and(depth))
        return left

    def parse_and(depth: int) -> Expr:
        left = parse_unary(depth)
        while peek() == "&&":
            take("&&")
            left = And(left, parse_unary(depth))
        return left

    def parse_unary(depth: int) -> Expr:
        tok = peek()
        if tok == "!":
            take("!")
            return Not(parse_unary(nested(depth, "expression")))
        if tok == "(":
            take("(")
            inner = parse_or(nested(depth, "expression"))
            take(")")
            return inner
        if tok in ("true", "false"):
            take(tok)
            return TRUE if tok == "true" else FALSE
        if is_identifier(tok):
            take(tok)
            return Var(plain(tok))
        raise ParseError(f"expected an expression, found {tok!r}")

    result = parse_or(0)
    if toks:
        raise ParseError(f"trailing input {peek()!r} in expression")
    return result
