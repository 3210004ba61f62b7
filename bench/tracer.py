"""Per-layer tracing by wrapping module attributes of ``demon.*`` from outside.

Every call through a wrapped attribute becomes a span (name, start, end,
parent span, run id).  Calls that resolve through module globals are caught
too: wrapping ``demon.expr.atoms_of`` also catches the calls ``simplify``
makes.  A name imported with ``from ... import`` is a separate attribute of
the importing module, so ``memory_merge`` is wrapped where ``engine`` holds
it.  A span's self time is its duration minus the time of its wrapped
children.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
from array import array
from time import perf_counter

# (metric prefix, module holding the attribute, attribute names)
TARGETS = (
    ("engine", "demon.engine",
     ("simulate", "setup", "orchestration_round", "migration_round", "choreography_round")),
    ("store", "demon.engine", ("memory_merge",)),
    ("ehe", "demon.ehe", ("mov", "inc", "sreach", "drop_resolved", "merge")),
    ("expr", "demon.expr",
     ("simplify", "eval_expr", "rewrite_fold", "fold", "decide_constant", "truth_table",
      "qm_cover", "atoms_of")),
    ("metrics", "demon.metrics", ("summarize", "size_of")),
    ("ltl", "demon.ltl", ("synthesize", "net_chor")),
    ("traces", "demon.traces", ("generate",)),
)
ROUND_FUNCTIONS = ("orchestration_round", "migration_round", "choreography_round")

NAMES = tuple(f"{prefix}.{attr}" for prefix, _, attrs in TARGETS for attr in attrs)
# Timed like the rest, but only their call counts are result metrics: ``merge``
# runs only with several active migration monitors (``delayed``), so on the
# other workloads its self time would read 0 on every run.
COUNT_ONLY = ("ehe.merge",)


class Tracer:
    """Installs span-recording wrappers; counters accumulate over every
    installation of one tracer."""

    def __init__(self) -> None:
        self.run_id = -1
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.gauges = {
            "ehe.entries_max": 0,
            "ehe.sreach.resolved": 0,
            "ehe.drop_resolved.useful": 0,
            "expr.decide_constant.decided": 0,
            "expr.truth_table.atoms_max": 0,
            "store.memory_atoms_max": 0,
            "ltl.synthesize.states": 0,
        }
        # (run id, round) -> host seconds spent in monitor round functions
        self.round_s: dict[tuple[int, int], float] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._span_cols = {
            "id": array("q"), "name": array("h"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "run": array("q"),
        }
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        idx = 0
        for prefix, modname, attrs in TARGETS:
            module = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(idx, fn, self._hook(prefix, attr)))
                idx += 1

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, idx: int, fn, hook):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        cols = self._span_cols
        c_id, c_name, c_start = cols["id"].append, cols["name"].append, cols["start"].append
        c_end, c_parent, c_run = cols["end"].append, cols["parent"].append, cols["run"].append

        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                c_id(span)
                c_name(idx)
                c_start(start)
                c_end(end)
                c_parent(parent)
                c_run(self.run_id)
            if hook is not None:
                hook(args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, prefix: str, attr: str):
        g = self.gauges

        def entries_max(args, result, dur):
            g["ehe.entries_max"] = max(g["ehe.entries_max"], len(result.entries))

        def sreach(args, result, dur):
            g["ehe.sreach.resolved"] += result is not None

        def drop_resolved(args, result, dur):
            # The result keeps a subset of the input's keys, so a smaller
            # result dropped something.
            g["ehe.drop_resolved.useful"] += len(result.entries) < len(args[0].entries)
            entries_max(args, result, dur)

        def decide_constant(args, result, dur):
            g["expr.decide_constant.decided"] += result is not None

        def truth_table(args, result, dur):
            g["expr.truth_table.atoms_max"] = max(g["expr.truth_table.atoms_max"], len(args[1]))

        def memory_merge(args, result, dur):
            g["store.memory_atoms_max"] = max(g["store.memory_atoms_max"], len(result))

        def synthesize(args, result, dur):
            g["ltl.synthesize.states"] += len(result.states)

        def round_time(args, result, dur):
            key = (self.run_id, args[1])
            self.round_s[key] = self.round_s.get(key, 0.0) + dur

        hooks = {
            "ehe.mov": entries_max, "ehe.inc": entries_max, "ehe.merge": entries_max,
            "ehe.sreach": sreach, "ehe.drop_resolved": drop_resolved,
            "expr.decide_constant": decide_constant, "expr.truth_table": truth_table,
            "store.memory_merge": memory_merge, "ltl.synthesize": synthesize,
        }
        hooks.update({f"engine.{fn}": round_time for fn in ROUND_FUNCTIONS})
        return hooks.get(f"{prefix}.{attr}")

    # -- results ----------------------------------------------------------
    def counts(self) -> dict[str, int]:
        return dict(zip(NAMES, self.calls))

    def step_growth(self, run_ids) -> float:
        """Median over runs of (mean round time in the last third of rounds) /
        (mean in the first third); runs shorter than six rounds are skipped.
        0.0 when no run qualifies."""
        per_run: dict[int, dict[int, float]] = {}
        wanted = set(run_ids)
        for (run, t), s in self.round_s.items():
            if run in wanted:
                per_run.setdefault(run, {})[t] = s
        ratios = []
        for rounds in per_run.values():
            n = max(rounds)
            third = n // 3
            if third < 2:
                continue
            first = sum(rounds.get(t, 0.0) for t in range(1, third + 1))
            last = sum(rounds.get(t, 0.0) for t in range(n - third + 1, n + 1))
            if first > 0:
                ratios.append(last / first)
        return statistics.median(ratios) if ratios else 0.0

    def write(self, path) -> None:
        """Spans as gzipped tab-separated text: id, name, start, end, parent,
        run (-1 for set-up)."""
        cols = self._span_cols
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\trun\n")
            for row in zip(cols["id"], cols["name"], cols["start"], cols["end"],
                           cols["parent"], cols["run"]):
                fh.write(f"{row[0]}\t{NAMES[row[1]]}\t{row[2]:.9f}\t{row[3]:.9f}\t"
                         f"{row[4]}\t{row[5]}\n")
