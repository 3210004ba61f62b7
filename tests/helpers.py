"""Oracles and constructions that only the tests use: the JSON objects of
specifications, exhaustive trace enumeration, the one-monitor wrapping of a
centralized specification, entrywise encoding comparison, folded memory
merges, label-size and placement counts, expression tree and DAG sizes and
fresh structural copies, messages per round, a simulation that shows each
monitor's state after every round and one that counts the active monitors
per round, the trace owner scan that ``observed_owner`` must agree with,
the four-walk simplifier that ``expr.simplify`` must agree with, the search
for the last resolved round that garbage collection cuts at, the states
encoded at a round, the verdict found at a round, the tabular rendering of
an encoding, the first trace on which two decentralized specifications
disagree, and the step-by-step summary fold that ``metrics.summarize`` must
agree with."""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from demon import analysis as an
from demon import ehe as eh
from demon import engine as en
from demon import expr as ex
from demon import metrics as mt
from demon.automaton import (
    DecentralizedSpec,
    DecentralizedTrace,
    Specification,
    decentralized_run,
    normalize,
)
from demon.ehe import EHE
from demon.expr import BOTTOM, TOP, Verdict
from demon.store import EMPTY_MEMORY, Event, Memory, memory_merge


def spec_to_dict(a: Specification) -> dict:
    """The JSON object of ``a`` that ``automaton.spec_from_dict`` reads."""
    return {
        "states": list(a.states),
        "initial": a.initial,
        "verdicts": {q: a.verdicts[q].value for q in a.states},
        "transitions": [
            {"from": t.src, "to": t.dst, "label": ex.to_text(t.label)}
            for t in a.transitions
        ],
    }


def dspec_to_dict(d: DecentralizedSpec) -> dict:
    """The JSON object of ``d`` that ``automaton.dspec_from_dict`` reads."""
    return {
        "monitors": {name: spec_to_dict(d.monitors[name]) for name in d.monitor_labels},
        "attach": dict(d.attach),
        "root": d.root,
        "components": list(d.components),
        "ap_owner": dict(d.ap_owner),
    }


def entrywise_equivalent(p1: EHE, p2: EHE) -> bool:
    """CvRDT-law comparison: same keys, Boolean-equivalent conditions."""
    if set(p1.entries) != set(p2.entries):
        return False
    return all(ex.equivalent(p1.entries[k], p2.entries[k]) for k in p1.entries)


def memory_merge_all(memories: Iterable[Memory]) -> Memory:
    out = EMPTY_MEMORY
    for m in memories:
        out = memory_merge(out, m)
    return out


def max_label_size(a: Specification) -> int:
    """Largest atom count over the labels of the normalized automaton."""
    n = normalize(a)
    return max((tree_size(t.label)[0] for t in n.transitions), default=0)


def centralized_as_decentralized(a: Specification, component: str = "sys") -> DecentralizedSpec:
    """Wrap a centralized specification as the one-monitor special case."""
    aps = sorted(
        {atom.name for t in a.transitions for atom in ex.atoms_of(t.label)}
    )
    return DecentralizedSpec(
        monitor_labels=("g",),
        monitors={"g": a},
        components=(component,),
        attach={"g": component},
        root="g",
        ap_owner={ap: component for ap in aps},
    )


def enumerate_full_traces(
    ap_owner: Mapping[str, str],
    components: Sequence[str],
    max_len: int,
) -> Iterator[DecentralizedTrace]:
    """All decentralized traces up to ``max_len`` in which every proposition
    is observed every round."""
    aps = sorted(ap_owner)
    assignments = list(itertools.product((TOP, BOTTOM), repeat=len(aps)))
    comps = tuple(components)
    for n in range(0, max_len + 1):
        for rounds in itertools.product(assignments, repeat=n):
            events: dict[tuple[int, str], Event] = {}
            for t, assign in enumerate(rounds, start=1):
                per_comp: dict[str, set[tuple[str, Verdict]]] = {}
                for ap, value in zip(aps, assign):
                    per_comp.setdefault(ap_owner[ap], set()).add((ap, value))
                for comp, obs in per_comp.items():
                    events[(t, comp)] = Event(frozenset(obs))
            yield DecentralizedTrace(comps, n, events)


def count_compatible(net: an.Graph, sys: an.Graph, constraint: Mapping[str, str]) -> int:
    """Number of total compatible assignments extending the constraint
    (exhaustive)."""
    return sum(1 for _ in an._compatible_assignments(net, sys, constraint))


def tree_size(e: ex.Expr) -> tuple[int, int]:
    """(atom leaves, NOT/AND/OR nodes) of ``e`` as a tree: shared subtrees
    are counted once per occurrence."""
    return ex.bottom_up(
        e,
        {},
        lambda _: (1, 0),
        lambda _: (0, 0),
        lambda n: (n[0], n[1] + 1),
        lambda _, l, r: (l[0] + r[0], l[1] + r[1] + 1),
    )


def dag_nodes(exprs: Iterable[ex.Expr]) -> int:
    """Distinct nodes, by identity, of the DAG under ``exprs``.  Iterative:
    encodings can nest thousands of levels deep."""
    seen: set[int] = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ex.Not):
            stack.append(node.operand)
        elif isinstance(node, (ex.And, ex.Or)):
            stack += (node.left, node.right)
    return len(seen)


def fresh_copy(e: ex.Expr, memo: Optional[dict] = None) -> ex.Expr:
    """A structurally equal copy of ``e`` made of new nodes, so it carries
    none of the facts ``expr.simplify`` records on a node; constants stay the
    shared ``TRUE`` and ``FALSE``.  Sharing is kept, also across calls that
    pass one ``memo``."""
    return ex.bottom_up(e, {} if memo is None else memo, lambda n: ex.Var(n.atom),
                        lambda n: n, ex.Not, lambda n, l, r: type(n)(l, r))


def per_round_messages(record: mt.MetricsRecord) -> dict[int, int]:
    """Messages sent in each round, summed over the monitors."""
    out: dict[int, int] = {}
    for s in record.steps:
        if s.sent:
            out[s.t] = out.get(s.t, 0) + len(s.sent)
    return out


_ROUND_FNS = {"orch": "orchestration_round", "migr": "migration_round",
              "migrr": "migration_round", "chor": "choreography_round"}


def simulate_observed(cfg: en.SimConfig, spec_input, system, tr, observe,
                      before_gc=None) -> en.SimRun:
    """``engine.simulate`` that calls ``observe(state)`` after each monitor's
    round, with the monitor state as that round left it, and, when given,
    ``before_gc(state)`` as a round's resolution is booked, with the memory
    the booking and its cut read."""
    name = _ROUND_FNS[cfg.algorithm]
    inner, book = getattr(en, name), en._book

    def round_fn(state, *args):
        out = inner(state, *args)
        observe(state)
        return out

    def hooked_book(state, *args):
        before_gc(state)
        return book(state, *args)

    setattr(en, name, round_fn)
    if before_gc is not None:
        en._book = hooked_book
    try:
        return en.simulate(cfg, spec_input, system, tr)
    finally:
        setattr(en, name, inner)
        en._book = book


def reference_owner(tr: DecentralizedTrace) -> dict[str, str]:
    """Each proposition the trace observes, mapped to the component of its
    first observation in (round, component, proposition) order, in that
    order: what ``DecentralizedTrace.observed_owner`` must return."""
    owner: dict[str, str] = {}
    for t in range(1, tr.length + 1):
        for comp in sorted(tr.components):
            for ap in sorted(tr.at(t, comp).propositions()):
                owner.setdefault(ap, comp)
    return owner


def active_counts(cfg: en.SimConfig, spec_input, system, tr) -> tuple[en.SimRun, list[int]]:
    """``engine.simulate`` and the number of monitors holding an encoding at
    the end of each round.  No message arrives in the round it is sent, so a
    monitor's state after its own step is its state at the end of the round;
    the run records one step per observed state, in the same order."""
    seen: list[bool] = []
    run = simulate_observed(cfg, spec_input, system, tr, lambda s: seen.append(s.ehe is not None))
    counts: dict[int, int] = {}
    for step, active in zip(run.record.steps, seen):
        counts[step.t] = counts.get(step.t, 0) + active
    return run, list(counts.values())


def reference_simplify(e: ex.Expr, max_atoms: int = ex.EXACT_ATOMS) -> ex.Expr:
    """``expr.simplify(e, max_atoms)`` as four separate walks: fold, atoms,
    truth table and tree size, all exact.  On a fold fixpoint, the input
    ``expr.simplify`` expects, ``expr.simplify`` must return a structurally
    equal result, and ``e`` itself exactly when this does, with one
    exception: given a sum of products that it rebuilt itself,
    ``expr.simplify`` returns that very object, where this returns a fresh
    equal copy."""
    f = ex.fold(e)
    if isinstance(f, (ex.Const, ex.Var)) or (isinstance(f, ex.Not) and isinstance(f.operand, ex.Var)):
        return f
    atoms = ex.atoms_of(f)
    k = len(atoms)
    if k > max_atoms:
        return f
    table = ex.truth_table(f, atoms)
    if table == (1 << (1 << k)) - 1:
        return ex.TRUE
    if table == 0:
        return ex.FALSE
    if k <= ex.DNF_ATOMS:
        terms = ex.qm_cover(table, k)
        if ex._cover_size(terms) <= tree_size(f):
            return ex._dnf_from_cover(terms, atoms)
    return f


def states_at(p: EHE, t: int) -> list[str]:
    """The states with an entry at round ``t``, sorted; empty when ``t`` is
    not encoded."""
    return sorted(p.table.get(t, ()))


def verdict_at(p: EHE, m: Memory, t: int) -> Verdict:
    """The verdict of the state ``sreach`` finds at round t, or UNKNOWN."""
    q = eh.sreach(p, m, t)
    return p.automaton.verdict_of(q) if q is not None else ex.UNKNOWN


def dump(p: EHE) -> str:
    """Tabular rendering: one (round, state, expression) row per entry."""
    lines = ["t\tq\te"]
    entries = p.entries
    for (t, q) in sorted(entries):
        lines.append(f"{t}\t{q}\t{ex.to_text(entries[(t, q)])}")
    return "\n".join(lines)


def last_resolved(p: EHE, m: Memory) -> Optional[tuple[int, str]]:
    """The last ``(round, state)`` that ``sreach`` resolves under ``m``,
    searching from the first round until a round is open; None when the
    first round is open.  ``ehe.drop_resolved`` cuts there."""
    resolved = None
    for t in p.rounds():
        q = eh.sreach(p, m, t)
        if q is None:
            break
        resolved = (t, q)
    return resolved


def verdict_equivalent(
    d1: DecentralizedSpec,
    d2: DecentralizedSpec,
    traces: Iterable[DecentralizedTrace],
) -> Optional[DecentralizedTrace]:
    """First trace on which the two specifications disagree, or None."""
    for tr in traces:
        if decentralized_run(d1, tr) is not decentralized_run(d2, tr):
            return tr
    return None


def reference_summarize(rec: mt.MetricsRecord) -> mt.Summary:
    """``metrics.summarize`` as one pass over the steps that did some work,
    adding every counter of each: what the fold that reads each counter once
    and adds only the non-zero ones must return, float for float."""
    n = max(rec.run_length, 1)
    delay_sum = delay_count = total_msgs = total_bytes = 0
    crit: dict[int, int] = defaultdict(int)  # round -> worst monitor's simplifications
    simplifications, evaluations = mt._work_table(rec), mt._work_table(rec)
    columns = {c: i for i, c in enumerate(rec.components)}
    for s in rec.steps:
        if not (s.delays or s.sent or s.simplifications or s.evaluations):
            continue
        delay_sum += sum(s.delays)
        delay_count += len(s.delays)
        total_msgs += len(s.sent)
        total_bytes += s.bytes_sent
        crit[s.t] = max(crit[s.t], s.simplifications)
        column = columns[s.component]
        simplifications[s.t][column] += s.simplifications
        evaluations[s.t][column] += s.evaluations
    return mt.Summary(
        average_delay=delay_sum / delay_count if delay_count else 0.0,
        messages_per_round=total_msgs / n,
        data_per_round=total_bytes / n,
        data_per_message=total_bytes / total_msgs if total_msgs else 0.0,
        critical_simplifications=sum(crit.values()) / n,
        max_simplifications=max(crit.values(), default=0),
        convergence_simplifications=mt._distance(simplifications, rec),
        convergence_evaluations=mt._distance(evaluations, rec),
    )
