"""Execution history encoding: a replicated table from round to the
Boolean condition, per automaton state, for the automaton to be in that
state at that round.

The table maps each encoded round to its row ``{state: condition}`` and
keeps the rounds in ascending order.  Rows are never mutated once built, so
encodings derived from one another share them, and runs on one automaton
share the labels and rows it keeps stamped.  With R rounds, E entries and S
states per row:

- ``rounds`` and ``len`` are O(R); ``first_round`` and ``last_round`` are
  O(1).
- ``entries`` builds the flat ``{(round, state): condition}`` dict on each
  call, in O(E); hot paths read the rows of ``table`` instead.
- ``sreach`` finds its row in O(1) and evaluates at most S conditions; it
  reads a constant's verdict directly and calls ``expr.eval_expr`` only on
  the others.
- ``mov`` copies the row index (O(R)) and appends one row per round past
  the last one, so a gap ``merge`` left stays a gap.  After a row of
  constants it takes a cached row stamped at that round, and otherwise
  makes one ``expr.simplify`` call, bounded at ``expr.DNF_ATOMS`` atoms,
  per new entry that holds no wide node; an entry built over a wide source
  is marked wide with no call and no walk.  Only transitions out of a
  source whose condition is not FALSE are stamped; a successor of dead
  sources alone keeps a FALSE entry, which ``sreach`` still evaluates.  A
  label or cached row is stamped with one ``expr.encode`` walk the first
  time a round and monitor names need it, and the automaton keeps it for
  its ``_STAMP_CACHE_SIZE`` latest rounds.  ``decided_round`` finds the
  rows it appends after a lone row of constants, up to the round, as the
  round's memory folds them, when all constants: one cached row per round,
  found with one memory lookup per atom and no walk.
- ``inc`` rewrites every non-constant entry (O(E) folds) and keeps, as the
  same objects, rows of constants and rows whose entries all fold to
  themselves; when every row is kept it returns the encoding itself.
- ``drop_resolved`` keeps the rows after the last known round, which the
  caller's resolution found: it searches nothing and copies O(R) rows.
- ``merge`` is :func:`store.merge_with` over rounds, whose shared rows merge
  through :func:`store.merge_with` over states with a simplified
  disjunction; a row present in only one operand is kept as it is, so the
  table may have gaps.

Entries are extended round by round from the automaton's transitions,
merged pointwise with disjunction (which makes the structure a CvRDT), and
shrunk by incorporating memories and dropping rounds before the last known
state.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, NamedTuple, Optional

from . import expr as ex
from .automaton import Specification
from .errors import AutomatonMismatch, UndefinedRound
from .expr import Expr, TOP, TRUE, UNKNOWN, Verdict
from .store import Memory, merge_with

Row = Mapping[str, Expr]

_STAMP_CACHE_SIZE = 16  # rounds (with monitor names) of stamps kept per automaton


class EHE:
    """An automaton and its table, equal only to itself; slotted, as every
    ``mov``, ``inc``, ``merge`` and cut builds one."""

    __slots__ = ("automaton", "table")

    def __init__(self, automaton: Specification, table: Mapping[int, Row]) -> None:
        self.automaton = automaton
        self.table = table

    @property
    def entries(self) -> dict[tuple[int, str], Expr]:
        """The flat ``(round, state) -> condition`` dict, built on each call."""
        return {(t, q): cond for t, row in self.table.items() for q, cond in row.items()}

    def rounds(self) -> list[int]:
        return list(self.table)

    def first_round(self) -> int:
        return next(iter(self.table))

    def last_round(self) -> int:
        return next(reversed(self.table))

    def __len__(self) -> int:
        return sum(map(len, self.table.values()))


def init(a: Specification) -> EHE:
    """Fresh encoding: the initial state holds unconditionally at round 0."""
    return EHE(a, {0: {a.initial: TRUE}})


def _row(p: EHE, t: int) -> Row:
    row = p.table.get(t)
    if row is None:
        raise UndefinedRound(f"round {t} is not encoded (rounds: {p.rounds()})")
    return row


def is_constant_row(row: Row) -> bool:
    """Whether every condition of ``row`` is a constant."""
    for c in row.values():
        if type(c) is not ex.Const:
            return False
    return True


class Decided(NamedTuple):
    """A row of constants, what :func:`sreach` finds there and its reads."""

    row: Row
    state: Optional[str]
    evals: int


def _decided(row: Row) -> Decided:
    states = sorted(row)
    q = next((q for q in states if row[q].value is TOP), None)
    return Decided(row, q, len(states) if q is None else states.index(q) + 1)


class Template(NamedTuple):
    """The row ``mov`` builds after one row of constants, kept per automaton.

    ``row`` has plain atoms and ``atoms`` lists their names; ``labels`` lists
    the names of every atom on the automaton's labels.  ``source`` is the
    source row, or None unless it has one TRUE entry, at a state that is not
    final.  ``steps`` maps the verdicts a memory gives the atoms once
    stamped, as masks over ``atoms`` (TOP, decided), to the row they fold the
    stamped row to, or to None when some entry stays open (:func:`decided_round`)."""

    row: Row
    atoms: tuple[str, ...]
    labels: tuple[str, ...]
    source: Optional[Decided]
    steps: dict[tuple[int, int], Optional[Decided]]


def mov(p: EHE, te: int, monitor_names: Iterable[str] = ()) -> EHE:
    """Extend the encoding one round at a time from its last round to ``te``;
    ``p`` itself when ``te`` is its last round.

    The condition to reach q' at round t+1 disjoins, over the transitions into
    q', the source state's condition at t conjoined with the label stamped at
    t+1 by :func:`expr.encode`.  New entries are built with folding
    constructors and simplified by one :func:`expr.simplify` call bounded at
    ``expr.DNF_ATOMS`` atoms, the bound up to which it rebuilds a sum of
    products; a wider entry stays as built, and one that holds a node
    already known to be wide is marked wide without the call.  The folding
    constructors make each entry the fold fixpoint that
    :func:`expr.simplify` expects.

    A new row after a row of constants has every atom at t+1 and depends only
    on the source row and the monitor names: the first one built is kept
    unstamped in ``automaton.row_templates`` and later ones re-stamp it.  One
    round for all atoms keeps the :meth:`expr.Atom.sort_key` order
    :func:`expr.simplify` follows.

    A stamped label or template row depends only on what is stamped, the
    round and the monitor names, so each is stamped by :func:`expr.encode`
    once and kept in ``automaton.stamps`` for later calls and runs on the
    automaton, per round and monitor names; past ``_STAMP_CACHE_SIZE`` of
    those the oldest is evicted.  Sharing the stamped nodes is safe: rows are
    never mutated, and the facts :func:`expr.simplify` records on a node
    follow from its structure.
    """
    last = p.last_round()
    if te < last:
        raise UndefinedRound(f"cannot extend backwards from {last} to {te}")
    if te == last:
        return p
    names = frozenset(monitor_names)
    a = p.automaton
    table = dict(p.table)
    src = table[last]
    for t in range(last + 1, te + 1):
        if is_constant_row(src):
            src = _stamp(a, _template(a, src, t, names), t, names)
        else:
            src = _next_row(a, src, t, names)
        table[t] = src
    return EHE(a, table)


def _template(a: Specification, src: Row, t: int, names: frozenset[str]) -> Template:
    """The automaton's template after ``src``, a row of constants, keyed by
    its states, the TRUE ones and the monitor names so that no verdict is
    hashed; built from the row at ``t`` the first time."""
    true = [q for q, c in src.items() if c.value is TOP]
    key = (frozenset(src), frozenset(true), names)
    template = a.row_templates.get(key)
    if template is None:
        row = {q: ex.unstamp(c) for q, c in _next_row(a, src, t, names).items()}
        visited: set[int] = set()
        atoms = sorted({x.name for c in row.values() for x in ex.atom_set(c, visited)})
        labels = sorted({x.name for tr in a.transitions for x in ex.atom_set(tr.label)})
        source = _decided(src)
        if len(true) != 1 or a.verdict_of(source.state).is_final:
            source = None
        template = a.row_templates[key] = Template(row, tuple(atoms), tuple(labels), source, {})
    return template


def decided_round(p: EHE, t: int, monitor_names: frozenset[str],
                  memory: Memory) -> Optional[list[Decided]]:
    """The rows ``_resolve`` reads after :func:`mov` to ``t`` and :func:`inc`
    under ``memory``, each decided, up to ``t`` or the first final state;
    None unless the pass would read just these and simplify nothing.

    ``p`` must be one row of constants at a round k <= t with one TRUE entry,
    at a state that is not final; each later row is the cached step of the
    template after the row before it, and must be constants with a TOP entry.
    Past k = t - 1, ``mov`` builds rows from open ones, whose rebuilt covers
    ``inc`` folds only syntactically, so ``memory`` must decide every label
    atom at every round in (k, t]: then each row folds to its constants."""
    if len(p.table) != 1:
        return None
    ((k, src),) = p.table.items()
    if k > t or not is_constant_row(src):
        return None
    a = p.automaton
    template = _template(a, src, k + 1, monitor_names)
    if template.source is None:
        return None
    rows = [template.source]
    if k < t - 1 and any(memory.get(ex.stamp(name, r, monitor_names), UNKNOWN) is UNKNOWN
                         for r in range(k + 1, t + 1) for name in template.labels):
        return None
    for r in range(k + 1, t + 1):
        top = known = 0
        for i, name in enumerate(template.atoms):
            v = memory.get(ex.stamp(name, r, monitor_names), UNKNOWN)
            top |= (v is TOP) << i
            known |= (v is not UNKNOWN) << i
        if (top, known) not in template.steps:
            memo: dict[int, Expr] = {}  # keyed by id: the stamped row stays alive
            row = _stamp(a, template, r, monitor_names)
            folded = {q: ex.rewrite_fold(c, memory, memo) for q, c in row.items()}
            template.steps[top, known] = _decided(folded) if is_constant_row(folded) else None
        decided = template.steps[top, known]
        if decided is None or decided.state is None:
            return None
        rows.append(decided)
        if r == t or a.verdict_of(decided.state).is_final:
            break
        template = _template(a, decided.row, r + 1, monitor_names)
        if template.source is None:
            return None
    return rows


def _stamp(a: Specification, template: Template, t: int, names: frozenset[str]) -> Row:
    """``template`` stamped at ``t``, kept in ``a.stamps``."""
    stamped = _stamps_at(a, t, names)
    row = stamped.get(id(template))  # ``a.row_templates`` keeps ``template`` alive
    if row is None:
        row = stamped[id(template)] = {q: ex.encode(c, t, names) for q, c in template.row.items()}
    return row


def _stamps_at(a: Specification, t: int, names: frozenset[str]) -> dict:
    """What ``a`` keeps stamped at round ``t`` under ``names``: labels by the
    id of their transition, template rows by the id of their template.  The
    oldest round is evicted once ``a.stamps`` holds ``_STAMP_CACHE_SIZE``."""
    stamps = a.stamps
    stamped = stamps.get((t, names))
    if stamped is None:
        if len(stamps) >= _STAMP_CACHE_SIZE:
            del stamps[next(iter(stamps))]
        stamped = stamps[(t, names)] = {}
    return stamped


def _next_row(a: Specification, src: Row, t: int, names: frozenset[str]) -> Row:
    """Row ``t`` reached from ``src``, the row at t-1.

    Every successor of a state in ``src`` gets an entry, but only labels of
    transitions from a source that is not FALSE are stamped and conjoined: a
    FALSE source would add FALSE, which leaves the disjunction the same
    object.  A successor of FALSE sources alone gets FALSE.

    An entry that is not a constant and conjoins a wide source (with a label
    that is not FALSE) holds that node: the folding constructors drop a
    non-constant operand only when they return a constant.  So it is wide
    too, and :func:`expr.simplify` would return it as built; it is marked
    wide instead of simplified."""
    stamped = _stamps_at(a, t, names)
    row: dict[str, Expr] = {}
    for qprime in sorted({tr.dst for q in src for tr in a.outgoing(q)}):
        wide = False
        parts = []
        for tr in a.by_destination[qprime]:
            source = src.get(tr.src, ex.FALSE)
            if source is not ex.FALSE:
                label = stamped.get(id(tr))  # the spec keeps ``tr`` alive
                if label is None:
                    label = stamped[id(tr)] = ex.encode(tr.label, t, names)
                parts.append(ex.conj(source, label))
                wide = wide or (source.wide and parts[-1] is not ex.FALSE)
        cond = ex.disj_all(parts)
        if wide and type(cond) is not ex.Const:
            row[qprime] = ex.learn(cond, "wide")
        else:
            row[qprime] = ex.simplify(cond, ex.DNF_ATOMS)
    return row


def sreach(
    p: EHE,
    m: Memory,
    t: int,
    step=None,
    memo: Optional[dict[int, Expr]] = None,
) -> Optional[str]:
    """The unique state whose condition at round t evaluates to TOP under
    ``m``, or None when no condition resolves.  States are read in name
    order; a constant condition is its own verdict, and only the others go
    through :func:`expr.eval_expr`.  Each condition read, up to and
    including the TOP one, is counted as one evaluation in
    ``step.evaluations`` when a step is given."""
    row = _row(p, t)
    if memo is None:
        memo = {}
    for q in sorted(row):
        if step is not None:
            step.evaluations += 1
        cond = row[q]
        if type(cond) is ex.Const:
            if cond.value is TOP:
                return q
        elif ex.eval_expr(cond, m, memo=memo) is TOP:
            return q
    return None


def verdict_at(p: EHE, m: Memory, t: int) -> Verdict:
    """The verdict of the state :func:`sreach` finds at round t, or UNKNOWN."""
    q = sreach(p, m, t)
    return p.automaton.verdict_of(q) if q is not None else ex.UNKNOWN


def merge(p1: EHE, p2: EHE) -> EHE:
    """Pointwise disjunction on shared keys, union elsewhere."""
    if not (p1.automaton is p2.automaton or p1.automaton == p2.automaton):
        raise AutomatonMismatch("cannot merge encodings of different automata")
    table = merge_with(p1.table, p2.table, _merge_rows)
    return EHE(p1.automaton, dict(sorted(table.items())))


def _merge_rows(row1: Row, row2: Row) -> Row:
    return merge_with(row1, row2, lambda c1, c2: ex.simplify(ex.disj(c1, c2)))


def inc(p: EHE, m: Memory, step=None) -> EHE:
    """Incorporate a memory: rewrite and simplify every entry.

    After this the memory is obsolete for these entries (evaluating the new
    entry under the empty memory equals evaluating the old one under ``m``).
    Entries are rewritten round by round, states in order.  Rows holding only
    constants, and rows whose every entry rewrites and simplifies to itself,
    are kept as the same objects; when no row changes, ``p`` itself is
    returned.  Full simplifier calls are counted in ``step.simplifications``
    when a step is given.
    """
    memo: dict[int, Expr] = {}
    table: dict[int, Row] = {}
    changed = False
    for t, row in p.table.items():
        if is_constant_row(row):
            table[t] = row
            continue
        new: dict[str, Expr] = {}
        same = True
        for q in sorted(row):
            cond = row[q]
            folded = ex.rewrite_fold(cond, m, memo)
            if type(folded) is not ex.Const:
                if step is not None:
                    step.simplifications += 1
                folded = ex.simplify(folded)
            new[q] = folded
            same = same and folded is cond
        table[t] = row if same else new
        changed = changed or not same
    return EHE(p.automaton, table) if changed else p


def drop_resolved(p: EHE, resolved: Optional[tuple[int, str]]) -> EHE:
    """Garbage collection at the last round ``t`` resolved to ``q`` (found by a
    caller that resolved from the first round up to the first open one): drop
    the rounds before ``t`` and rebase ``(t, q)`` to TRUE; ``p`` when None."""
    if resolved is None:
        return p
    t_star, q_star = resolved
    table: dict[int, Row] = {t_star: {q_star: TRUE}}
    table.update((t, row) for t, row in p.table.items() if t > t_star)
    return EHE(p.automaton, table)


def dump(p: EHE) -> str:
    """Tabular debug rendering: one (round, state, expression) row per entry."""
    lines = ["t\tq\te"]
    entries = p.entries
    for (t, q) in sorted(entries):
        lines.append(f"{t}\t{q}\t{ex.to_text(entries[(t, q)])}")
    return "\n".join(lines)
