"""Execution history encoding: a replicated map from (round, state) to the
Boolean condition for the automaton to be in that state at that round.

Entries are extended round by round from the automaton's transitions,
merged pointwise with disjunction (which makes the structure a CvRDT), and
shrunk by incorporating memories and dropping rounds before the last known
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import expr as ex
from .automaton import Specification
from .errors import AutomatonMismatch, UndefinedRound
from .expr import Expr, TOP, TRUE, Verdict
from .store import Memory

_MOV_SIMPLIFY_CAP = 12  # eager construction-time simplification bound


@dataclass(frozen=True, eq=False)
class EHE:
    automaton: Specification
    entries: Mapping[tuple[int, str], Expr]

    def rounds(self) -> list[int]:
        return sorted({t for t, _ in self.entries})

    def at(self, t: int, q: str) -> Optional[Expr]:
        return self.entries.get((t, q))

    def states_at(self, t: int) -> list[str]:
        return sorted(q for (r, q) in self.entries if r == t)

    def __len__(self) -> int:
        return len(self.entries)


def init(a: Specification) -> EHE:
    """Fresh encoding: the initial state holds unconditionally at round 0."""
    return EHE(a, {(0, a.initial): TRUE})


def _require_round(p: EHE, t: int) -> None:
    if not any(r == t for r, _ in p.entries):
        raise UndefinedRound(f"round {t} is not encoded (rounds: {p.rounds()})")


def mov(p: EHE, ts_round: int, te: int, monitor_names: Iterable[str] = ()) -> EHE:
    """Extend the encoding one round at a time from ``ts_round`` to ``te``.

    The condition to reach q' at round t+1 disjoins, over the transitions
    into q', the source state's condition at t conjoined with the label
    encoded at t+1.  New entries are built with folding constructors and
    simplified eagerly while their atom count stays within
    ``_MOV_SIMPLIFY_CAP`` (atom counts are tracked incrementally as an
    over-approximation, so large encodings are never re-walked); entries
    already present at the target key are merged with disjunction.
    """
    _require_round(p, ts_round)
    if te < ts_round:
        raise UndefinedRound(f"cannot extend backwards from {ts_round} to {te}")
    if te == ts_round:
        return p
    names = frozenset(monitor_names)
    a = p.automaton
    entries = dict(p.entries)
    atom_sets: dict[tuple[int, str], frozenset[ex.Atom]] = {}

    def atoms_at(key: tuple[int, str]) -> frozenset[ex.Atom]:
        cached = atom_sets.get(key)
        if cached is None:
            cached = frozenset(ex.atoms_of(entries[key]))
            atom_sets[key] = cached
        return cached

    for t in range(ts_round, te):
        enc = ex.ts(t + 1, names)
        present = [q for (r, q) in entries if r == t]
        targets = sorted({tr.dst for q in present for tr in a.outgoing(q)})
        for qprime in targets:
            parts = []
            support: frozenset[ex.Atom] = frozenset()
            for tr, label_atoms in a.by_destination[qprime]:
                src_key = (t, tr.src)
                src_cond = entries.get(src_key)
                if src_cond is None:
                    continue
                parts.append(ex.conj(src_cond, ex.encode(tr.label, enc)))
                support |= atoms_at(src_key)
                support |= frozenset(enc.apply(atom) for atom in label_atoms)
            cond = ex.disj_all(parts)
            key = (t + 1, qprime)
            if key in entries:
                cond = ex.disj(entries[key], cond)
                support |= atoms_at(key)
            if len(support) <= _MOV_SIMPLIFY_CAP:
                cond = ex.simplify(cond, light=True)
                support = frozenset(ex.atoms_of(cond))
            entries[key] = cond
            atom_sets[key] = support
    return EHE(a, entries)


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
    _require_round(p, t)
    if memo is None:
        memo = {}
    for q in p.states_at(t):
        if step is not None:
            step.evaluations += 1
        if ex.eval_expr(p.entries[(t, q)], m, memo=memo) is TOP:
            return q
    return None


def verdict_at(p: EHE, m: Memory, t: int, memo: Optional[dict[int, Expr]] = None) -> Verdict:
    q = sreach(p, m, t, memo=memo)
    return p.automaton.verdict_of(q) if q is not None else ex.UNKNOWN


def merge(p1: EHE, p2: EHE) -> EHE:
    """Pointwise disjunction on shared keys, union elsewhere."""
    if not (p1.automaton is p2.automaton or p1.automaton == p2.automaton):
        raise AutomatonMismatch("cannot merge encodings of different automata")
    entries = dict(p1.entries)
    for key, cond in p2.entries.items():
        if key in entries:
            entries[key] = ex.simplify(ex.disj(entries[key], cond), light=True)
        else:
            entries[key] = cond
    return EHE(p1.automaton, entries)


def inc(p: EHE, m: Memory, step=None) -> EHE:
    """Incorporate a memory: rewrite and simplify every entry.

    After this the memory is obsolete for these entries (evaluating the new
    entry under the empty memory equals evaluating the old one under ``m``).
    Full simplifier calls are counted in ``step.simplifications`` when a
    step is given.
    """
    memo: dict[int, Expr] = {}
    entries: dict[tuple[int, str], Expr] = {}
    for key in sorted(p.entries):
        folded = ex.rewrite_fold(p.entries[key], m, memo)
        if isinstance(folded, ex.Const):
            entries[key] = folded
            continue
        if step is not None:
            step.simplifications += 1
        entries[key] = ex.simplify(folded, light=True)
    return EHE(p.automaton, entries)


def drop_resolved(p: EHE, m: Memory, step=None) -> EHE:
    """Garbage collection: find the greatest round whose state is known,
    drop everything before it, and rebase that entry to TRUE."""
    rounds = p.rounds()
    memo: dict[int, Expr] = {}
    resolved: Optional[tuple[int, str]] = None
    for t in rounds:
        q = sreach(p, m, t, step=step, memo=memo)
        if q is None:
            break  # state resolution is monotone: later rounds cannot resolve
        resolved = (t, q)
    if resolved is None:
        return p
    t_star, q_star = resolved
    entries = {
        (t, q): cond for (t, q), cond in p.entries.items() if t > t_star
    }
    entries[(t_star, q_star)] = TRUE
    return EHE(p.automaton, entries)


def entrywise_equivalent(p1: EHE, p2: EHE) -> bool:
    """CvRDT-law comparison: same keys, Boolean-equivalent conditions."""
    if set(p1.entries) != set(p2.entries):
        return False
    return all(ex.equivalent(p1.entries[k], p2.entries[k]) for k in p1.entries)


def dump(p: EHE) -> str:
    """Tabular debug rendering: one (round, state, expression) row per entry."""
    lines = ["t\tq\te"]
    for (t, q) in sorted(p.entries):
        lines.append(f"{t}\t{q}\t{ex.to_text(p.entries[(t, q)])}")
    return "\n".join(lines)
