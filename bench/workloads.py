"""Seeded inputs for the benchmark: one case per (specification, trace, algorithm).

Formulas come from ``scripts/synthetic_benchmark.py`` (``random_formula`` and
``DISTRIBUTIONS``), drawn with a stratified quota so that every workload holds
the same number of formulas of each shape.  Traces come from
``traces.generate``.

A seed ``n`` names a base draw ``n // VARIANTS`` and a variant.  The base draw
fixes which formulas and traces there are; the variant renames them: it
permutes the propositions inside each component, for every formula and its
traces, so atom names and sort orders change while each proposition keeps
its owner.  Run cost is set mostly by the traces (how many rounds each run
lasts): re-drawing them per seed moved ``runs_per_s`` by 27% (IQR/median over
eight 384-run corpora, one pass each in one process; 65% for ``orch``), and
permuting the components moved
``orch`` by 1.8x, because the orchestrating monitor's placement changes which
observations arrive late.  Seeds of one base draw therefore give the same
work under different names.  ``long`` has one proposition per component, so
its variants coincide.  A seed of another base draw (``VARIANTS`` and up)
gives different formulas and traces, to recheck a claim on unseen inputs.

Workloads, and why each is here:

- ``corpus``: the paper's synthetic experiment (|C| 3 and 4, two propositions
  per component, L=30, four distributions, default ``SimConfig``).  The
  Boolean core (``expr``) and ``ehe.mov`` do most of the work.
- ``long``: ``G (a || b || ...)`` over one proposition per component, L=300,
  propositions true with p=0.97, so runs reach the horizon with no verdict.
  ``ehe.sreach`` over ever longer encodings dominates, and ``chor``'s
  superlinear growth in rounds shows.
- ``delayed``: ``corpus`` shapes at |C|=4 with ``comm_delay=3`` and
  ``initial_active=2``.  Rounds stay unresolved longer, which moves work from
  ``sreach`` to ``ehe.inc`` rewrites and to encodings merged between two
  active migration monitors.  The timeout slack grows with the delay (5
  rounds per round of delay): at the default 5 rounds a migration hand-off
  chain can still be in flight when the horizon ends, and the run reports
  UNKNOWN where the reference has a verdict.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any

ALGORITHMS = ("orch", "migr", "migrr", "chor")
VARIANTS = 1000
SHAPES = ("finally_or", "finally_and", "and_of_finally", "until")


@dataclass(frozen=True)
class Case:
    """One simulator run; ``spec_input`` is what ``engine.simulate`` gets."""

    algorithm: str
    ncomp: int
    spec_id: str
    trace_id: str
    formula: Any
    automaton: Any
    trace: Any
    system: Any
    config: Any

    @property
    def spec_input(self):
        return self.formula if self.algorithm == "chor" else self.automaton


def shape_of(phi) -> str:
    """Which of ``random_formula``'s four shapes produced ``phi``."""
    from demon import ltl as lt

    if isinstance(phi, lt.Until):
        return "until"
    if isinstance(phi, lt.LAnd):
        return "and_of_finally"
    assert isinstance(phi, lt.Finally)
    return "finally_or" if isinstance(phi.operand, lt.LOr) else "finally_and"


def stratified_formulas(rng: random.Random, ncomp: int, aps: int, quota: dict[str, int]) -> list:
    """Draw ``random_formula`` until each shape has its quota; surplus draws
    of a filled shape are discarded.  Keeps draw order."""
    from synthetic_benchmark import random_formula

    left = dict(quota)
    out = []
    while any(left.values()):
        phi = random_formula(rng, ncomp, aps)
        shape = shape_of(phi)
        if left.get(shape, 0) > 0:
            left[shape] -= 1
            out.append(phi)
    return out


def rename_formula(phi, names: dict[str, str]):
    from demon import ltl as lt

    if isinstance(phi, lt.Prop):
        return lt.Prop(names[phi.name])
    return type(phi)(*(rename_formula(getattr(phi, f.name), names)
                       for f in dataclasses.fields(phi)))


def rename_trace(tr, names: dict[str, str]):
    from demon.automaton import DecentralizedTrace
    from demon.store import Event

    events = {
        key: Event(frozenset((names[ap], v) for ap, v in evt.observations))
        for key, evt in tr.events.items()
    }
    return DecentralizedTrace(tr.components, tr.length, events)


def renaming(rng: random.Random, ncomp: int, aps: int) -> dict[str, str]:
    """A permutation of each component's own propositions
    (``traces.ap_owner_for`` naming: component i owns a{i*aps}..)."""
    names = {}
    for c in range(ncomp):
        slots = list(range(aps))
        rng.shuffle(slots)
        for j, slot in enumerate(slots):
            names[f"a{c * aps + j}"] = f"a{c * aps + slot}"
    return names


def _cases(
    base: random.Random,
    variant: random.Random,
    ncomp: int,
    formulas: list,
    aps: int,
    length: int,
    distributions: list,
    traces_per_formula: int,
    sim: dict,
) -> list[Case]:
    from demon import analysis as an
    from demon import engine as en
    from demon import ltl as lt
    from demon import traces as tg

    configs = {alg: en.SimConfig(alg, **sim) for alg in ALGORITHMS}
    system = an.complete_graph(tuple(f"c{c}" for c in range(ncomp)))
    cases = []
    for f_i, phi in enumerate(formulas):
        names = renaming(variant, ncomp, aps)
        phi = rename_formula(phi, names)
        aut = lt.synthesize(phi)
        spec_id = f"C{ncomp}-f{f_i}"
        for t_i in range(traces_per_formula):
            # Rotate so that fewer traces than distributions still cover
            # every distribution across the formulas.
            dist_name, dist = distributions[(f_i * traces_per_formula + t_i) % len(distributions)]
            cfg = tg.TraceGenConfig(components=ncomp, aps_per_component=aps, length=length,
                                    distribution=dist, seed=base.randrange(2**31))
            tr = rename_trace(tg.generate(cfg), names)
            for alg in ALGORITHMS:
                cases.append(
                    Case(alg, ncomp, spec_id, f"{dist_name}-{t_i}", phi, aut, tr,
                         system, configs[alg])
                )
    return cases


def _streams(seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(seed // VARIANTS), random.Random(seed)


def corpus(seed: int, sizes=(3, 4), per_shape: int = 1, traces_per_formula: int = 4,
           sim: dict | None = None) -> tuple[Case, ...]:
    from synthetic_benchmark import DISTRIBUTIONS

    base, variant = _streams(seed)
    cases = []
    for ncomp in sizes:
        formulas = stratified_formulas(base, ncomp, 2, {s: per_shape for s in SHAPES})
        cases += _cases(base, variant, ncomp, formulas, 2, 30, DISTRIBUTIONS,
                        traces_per_formula, sim or {})
    return tuple(cases)


def delayed(seed: int, per_shape: int = 1, traces_per_formula: int = 2) -> tuple[Case, ...]:
    return corpus(seed, sizes=(4,), per_shape=per_shape, traces_per_formula=traces_per_formula,
                  sim={"comm_delay": 3, "initial_active": 2, "timeout_slack": 15})


def long(seed: int, sizes=(3, 4), traces_per_formula: int = 2) -> tuple[Case, ...]:
    from demon import ltl as lt
    from demon import traces as tg

    base, variant = _streams(seed)
    dists = [("binomial-0.97", tg.Binomial(n=100, p=0.97))]
    cases = []
    for ncomp in sizes:
        # One proposition per component: F (a || b || ...) is the only
        # disjunctive shape, and G over the same disjunction never resolves
        # while some component keeps reporting true.
        (eventually,) = stratified_formulas(base, ncomp, 1, {"finally_or": 1})
        always = lt.Globally(eventually.operand)
        cases += _cases(base, variant, ncomp, [always], 1, 300, dists,
                        traces_per_formula, {})
    return tuple(cases)


WORKLOADS = {"corpus": corpus, "long": long, "delayed": delayed}


def reference_verdicts(cases) -> list:
    """Verdict each case must report, from the reference semantics: the
    centralized automaton stepped over ``reconstruct_global`` for ``orch``,
    ``migr`` and ``migrr``, and ``decentralized_run`` over the assembled
    choreography for ``chor``.  Shared between cases with the same inputs."""
    from demon import automaton as au
    from demon import engine as en
    from demon import ltl as lt
    from demon.expr import UNKNOWN

    memo: dict = {}

    def centralized(case):
        spec = case.automaton
        q = spec.initial
        for evt in au.reconstruct_global(case.trace):
            q = au.step(spec, q, evt)
            if spec.verdict_of(q).is_final:
                return spec.verdict_of(q)
        return UNKNOWN

    def choreography(case):
        owner = case.trace.observed_owner()
        tree = lt.net_chor(case.formula, owner)
        dspec = en.assemble_choreography(tree, case.trace.components, owner)
        return au.decentralized_run(dspec, case.trace)

    out = []
    for case in cases:
        key = (case.spec_id, case.trace_id, case.ncomp, case.algorithm == "chor")
        if key not in memo:
            memo[key] = choreography(case) if case.algorithm == "chor" else centralized(case)
        out.append(memo[key])
    return out
