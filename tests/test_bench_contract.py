"""What the benchmark under ``bench/`` reads from the library: the module
attributes its tracer wraps, the round argument of the round functions, the
per-(round, monitor) message and byte mappings of a run's record, and the
entry count of the encodings its hooks see."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from demon import analysis as an
from demon import ehe as eh
from demon import engine as en
from demon import expr as ex
from demon import ltl as lt
from demon import metrics as mt
from demon import traces as tg
from demon.automaton import make_spec

from conftest import load_module

tracer = load_module("bench/tracer.py", "bench_tracer")


def test_tracer_targets_resolve():
    for _, modname, attrs in tracer.TARGETS:
        module = importlib.import_module(modname)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), (modname, attr)
    for name in tracer.ROUND_FUNCTIONS:
        params = list(inspect.signature(getattr(en, name)).parameters)
        assert params[:4] == ["state", "t", "obs", "inbox"], (name, params)


@pytest.mark.parametrize("alg", en.ALGORITHMS)
def test_record_message_totals_match_summary(alg):
    phi = lt.parse_ltl("F (a0 && a2 && a4)")
    tr = tg.generate(tg.TraceGenConfig(components=3, length=8, seed=3))
    spec_input = phi if alg == "chor" else lt.synthesize(phi)
    with tracer.Tracer() as tracing:
        tracing.run_id = 0
        result = en.simulate(en.SimConfig(alg), spec_input, an.complete_graph(tr.components), tr)
    assert tracing.round_s and all(isinstance(t, int) for _, t in tracing.round_s)

    record = result.record
    messages, data = record.messages, record.bytes_sent
    assert set(messages) == set(data)
    assert all(isinstance(t, int) and isinstance(m, str) for t, m in messages)
    summary = mt.summarize(record)
    n = record.run_length
    assert sum(messages.values()) / n == summary.messages_per_round
    assert sum(data.values()) / n == summary.data_per_round
    if alg == "orch":
        assert sum(messages.values()) > 0


def test_traced_merge_reads_entry_count():
    # Two active migration monitors hand encodings to each other, so the
    # tracer's ``ehe.merge`` hook runs and reads ``len(result.entries)``.
    phi = lt.parse_ltl("F (a0 && a2 && a4)")
    tr = tg.generate(tg.TraceGenConfig(components=3, length=8, seed=0))
    with tracer.Tracer() as tracing:
        tracing.run_id = 0
        en.simulate(en.SimConfig("migr", initial_active=2), lt.synthesize(phi),
                    an.complete_graph(tr.components), tr)
    assert tracing.counts()["ehe.merge"] > 0
    assert tracing.gauges["ehe.entries_max"] > 0


def test_traced_simplify_counts_every_qm_cover_call():
    # qm_cover is cached by (table, k); the tracer wraps the cached function,
    # so a repeated simplification still records its call.
    a, b, c = (ex.Var(ex.plain(n)) for n in "abc")
    e = ex.Or(ex.And(a, b), ex.And(a, ex.Not(c)))
    with tracer.Tracer() as tracing:
        tracing.run_id = 0
        first = ex.simplify(e)
        second = ex.simplify(e)
    assert first == second
    assert tracing.counts()["expr.qm_cover"] == 2


def test_traced_decide_constant_counts_a_decided_condition():
    # No benchmark workload hands decide_constant a condition it decides, so
    # this is what shows the ``decided`` gauge is wired to the result.
    a = ex.Var(ex.plain("a"))
    with tracer.Tracer() as tracing:
        tracing.run_id = 0
        assert ex.eval_expr(ex.Or(a, ex.Not(a)), {}) is ex.TOP
        assert ex.eval_expr(ex.And(a, ex.Var(ex.plain("b"))), {}) is ex.UNKNOWN
    assert tracing.counts()["expr.decide_constant"] == 2
    assert tracing.gauges["expr.decide_constant.decided"] == 1


def test_traced_mov_records_its_simplifications():
    # mov calls expr.simplify, bounded at DNF_ATOMS atoms, once on each new
    # entry; the call must go through the module attribute the tracer wraps.
    spec = make_spec(["q0", "q1"], "q0",
                     [("q0", "a && b", "q1"), ("q0", "!a || !b", "q0"), ("q1", "true", "q1")],
                     {"q0": "unknown", "q1": "top"})
    with tracer.Tracer() as tracing:
        tracing.run_id = 0
        p = eh.mov(eh.init(spec), 0, 3)
    assert len(p.entries) == 7
    assert tracing.counts()["ehe.mov"] == 1
    assert tracing.counts()["expr.simplify"] == 6


def test_reimported_library_leaves_no_old_module_alive():
    # The benchmark times its set-up by importing the library afresh several
    # times.  A module-level object held by a process-wide cache, such as a
    # ``typing.Union`` alias, would keep every old copy resident and set the
    # peak RSS during set-up.
    script = """
import gc, importlib, pkgutil, sys, weakref
import demon
names = [f"demon.{m.name}" for m in pkgutil.iter_modules(demon.__path__)]
old = [weakref.ref(importlib.import_module(n)) for n in names]
for n in [n for n in sys.modules if n == "demon" or n.startswith("demon.")]:
    del sys.modules[n]
del demon
importlib.import_module("demon.engine")
gc.collect()
print(sorted(r().__name__ for r in old if r() is not None))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
