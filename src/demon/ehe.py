"""Execution history encoding: a replicated table from round to the
Boolean condition, per automaton state, for the automaton to be in that
state at that round.

The table maps each encoded round to its row ``{state: condition}`` and
keeps the rounds in ascending order.  Rows are never mutated once built, so
encodings derived from one another share them.  With R rounds, E entries
and S states per row:

- ``rounds`` and ``len`` are O(R); ``first_round`` and ``last_round`` are
  O(1); ``at`` is O(1) and ``states_at`` is O(S log S).
- ``entries`` builds the flat ``{(round, state): condition}`` dict on each
  call, in O(E); hot paths read the rows of ``table`` instead.
- ``sreach`` finds its row in O(1) and evaluates at most S conditions.
- ``mov`` copies the row index (O(R)) and adds one row per new round: after
  a row of constants it re-stamps a cached row, one ``expr.encode`` walk per
  entry, and otherwise makes one ``expr.simplify`` call per new entry,
  bounded at ``expr.DNF_ATOMS`` atoms.  Only transitions out of a source
  whose condition is not FALSE are stamped; a successor of dead sources
  alone keeps a FALSE entry, which ``sreach`` still evaluates.  The last
  new row, when its source holds only constants and the round's memory
  decides it, is a cached row of constants found with one memory lookup
  per atom and no walk.
- ``inc`` rewrites every non-constant entry (O(E) folds) and reuses rows
  that hold only constants.
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
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from . import expr as ex
from .automaton import Specification
from .errors import AutomatonMismatch, UndefinedRound
from .expr import Expr, TOP, TRUE, UNKNOWN, Verdict
from .store import EMPTY_MEMORY, Memory, merge_with

Row = Mapping[str, Expr]


@dataclass(frozen=True, eq=False)
class EHE:
    automaton: Specification
    table: Mapping[int, Row]  # round -> {state: condition}, rounds ascending

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

    def at(self, t: int, q: str) -> Optional[Expr]:
        return self.table.get(t, {}).get(q)

    def states_at(self, t: int) -> list[str]:
        return sorted(self.table.get(t, ()))

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
    return all(type(c) is ex.Const for c in row.values())


class Template(NamedTuple):
    """The row ``mov`` builds after one row of constants, kept per automaton.

    ``row`` has plain atoms and ``atoms`` lists their names.  ``steps`` maps
    the verdicts a memory gives those atoms once stamped (UNKNOWN where it
    gives none) to the row of constants the stamped row folds to under them,
    or to None when some entry stays open."""

    row: Row
    atoms: tuple[str, ...]
    steps: dict[tuple[Verdict, ...], Optional[Row]]


def mov(
    p: EHE, ts_round: int, te: int, monitor_names: Iterable[str] = (),
    memory: Memory = EMPTY_MEMORY,
) -> EHE:
    """Extend the encoding one round at a time from ``ts_round`` to ``te``.

    The condition to reach q' at round t+1 disjoins, over the transitions into
    q', the source state's condition at t conjoined with the label stamped at
    t+1 by :func:`expr.encode`; an entry already present at the target key is
    merged with disjunction.  New entries are built with folding constructors
    and simplified by one :func:`expr.simplify` call bounded at
    ``expr.DNF_ATOMS`` atoms, the bound up to which it rebuilds a sum of
    products; a wider entry stays as built.  The folding constructors make
    each entry the fold fixpoint that :func:`expr.simplify` expects.

    A new row after a row of constants has every atom at t+1 and depends only
    on the source row and the monitor names: the first one built is kept
    unstamped in ``automaton.row_templates`` and later ones re-stamp it, one
    :func:`expr.encode` walk per entry.  One round for all atoms keeps the
    :meth:`expr.Atom.sort_key` order :func:`expr.simplify` follows.

    The row at ``te`` is the one the caller folds under ``memory`` in the same
    round (:func:`inc`, or the engine's resolution).  When it comes from a
    template and ``memory`` decides every entry, it is that row of constants,
    cached in the template's ``steps`` and found again with one memory lookup
    per template atom, without stamping or folding.  Rows before ``te`` never
    see the memory.
    """
    _row(p, ts_round)
    if te < ts_round:
        raise UndefinedRound(f"cannot extend backwards from {ts_round} to {te}")
    if te == ts_round:
        return p
    names = frozenset(monitor_names)
    a = p.automaton
    table = dict(p.table)
    for t in range(ts_round, te):
        src = table.get(t, {})
        if t + 1 in table or not is_constant_row(src):
            row = _next_row(a, src, t + 1, table.get(t + 1, {}), names)
        else:
            row = _row_after_constants(a, src, t + 1, names, memory if t + 1 == te else None)
        if row:
            table[t + 1] = row
    if ts_round < p.last_round():  # rounds added inside a gap go into place
        table = dict(sorted(table.items()))
    return EHE(a, table)


def _row_after_constants(
    a: Specification, src: Row, t: int, names: frozenset[str], memory: Optional[Memory]
) -> Row:
    """Row ``t`` after ``src``, a row of constants: the automaton's template
    stamped at ``t``, or the row of constants ``memory`` folds that to."""
    key = (frozenset(src.items()), names)
    template = a.row_templates.get(key)
    if template is None:
        row = {q: ex.unstamp(c) for q, c in _next_row(a, src, t, {}, names).items()}
        visited: set[int] = set()
        atoms = sorted({x.name for c in row.values() for x in ex.atom_set(c, visited)})
        template = a.row_templates[key] = Template(row, tuple(atoms), {})
    if memory is not None:
        verdicts = tuple(memory.get(ex.stamp(n, t, names), UNKNOWN) for n in template.atoms)
        if verdicts not in template.steps:
            memo: dict[int, Expr] = {}  # keyed by id: the stamped row stays alive
            row = _stamp(template, t, names)
            folded = {q: ex.rewrite_fold(c, memory, memo) for q, c in row.items()}
            template.steps[verdicts] = folded if is_constant_row(folded) else None
        decided = template.steps[verdicts]
        if decided is not None:
            return decided
    return _stamp(template, t, names)


def _stamp(template: Template, t: int, names: frozenset[str]) -> Row:
    return {q: ex.encode(c, t, names) for q, c in template.row.items()}


def _next_row(a: Specification, src: Row, t: int, old: Row, names: frozenset[str]) -> Row:
    """Row ``t`` reached from ``src``, the row at t-1, disjoined into ``old``.

    Every successor of a state in ``src`` gets an entry, but only labels of
    transitions from a source that is not FALSE are stamped and conjoined: a
    FALSE source would add FALSE, which leaves the disjunction the same
    object.  A successor of FALSE sources alone gets FALSE."""
    row = dict(old)
    for qprime in sorted({tr.dst for q in src for tr in a.outgoing(q)}):
        cond = ex.disj_all(
            ex.conj(src[tr.src], ex.encode(tr.label, t, names))
            for tr in a.by_destination[qprime]
            if src.get(tr.src, ex.FALSE) is not ex.FALSE
        )
        prior = old.get(qprime)
        if prior is not None:
            cond = ex.disj(prior, cond)
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
    ``m``, or None when no condition resolves.  Each evaluation is counted
    in ``step.evaluations`` when a step is given."""
    row = _row(p, t)
    if memo is None:
        memo = {}
    for q in sorted(row):
        if step is not None:
            step.evaluations += 1
        if ex.eval_expr(row[q], m, memo=memo) is TOP:
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
    Entries are rewritten round by round, states in order; rows holding only
    constants are kept as they are.  Full simplifier calls are counted in
    ``step.simplifications`` when a step is given.
    """
    memo: dict[int, Expr] = {}
    table: dict[int, Row] = {}
    for t, row in p.table.items():
        if is_constant_row(row):
            table[t] = row
            continue
        new: dict[str, Expr] = {}
        for q in sorted(row):
            folded = ex.rewrite_fold(row[q], m, memo)
            if not isinstance(folded, ex.Const):
                if step is not None:
                    step.simplifications += 1
                folded = ex.simplify(folded)
            new[q] = folded
        table[t] = new
    return EHE(p.automaton, table)


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
