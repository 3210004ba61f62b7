"""Command-line entry points: trace generation, static checks, single
monitoring runs, and batch experiments.

Machine-readable results go to stdout; log and warning text goes to stderr.
Exit codes: 0 for success / property holds, 1 for property violations or
timeout verdicts, 2 for input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import analysis, engine, ltl as lt, metrics as mt, traces
from .automaton import DecentralizedSpec, any_spec_from_dict, validate
from .errors import DemonError
from .expr import UNKNOWN

_DISTRIBUTIONS = {"normal": traces.Normal, "binomial": traces.Binomial, "beta": traces.Beta}
# errors in what an input holds, which ``_naming`` makes name the input
_BAD_CONTENT = (DemonError, json.JSONDecodeError, UnicodeDecodeError)
_INPUT_ERRORS = (OSError, *_BAD_CONTENT)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _naming(what: str, path: str, load, *args):
    """``load(*args)``, with any input error it raises naming ``path``."""
    try:
        return load(*args)
    except _BAD_CONTENT as exc:
        if path in str(exc):
            raise
        raise DemonError(f"{what} {path}: {exc}") from None


def _load(path: str, what: str, build, text: str | None = None):
    """``build`` of the JSON object in ``path`` (or in ``text``, its text when
    already read).  Bytes that are not UTF-8, malformed JSON, any other JSON
    value, JSON nested past the interpreter's recursion limit and whatever
    ``build`` rejects are input errors naming the file."""
    if text is None:
        text = _naming(what, path, Path(path).read_text, "utf-8")
    try:
        data = _naming(what, path, json.loads, text)
    except RecursionError:
        raise DemonError(f"{what} {path} nests too deeply") from None
    if not isinstance(data, dict):
        raise DemonError(f"{what} {path} must hold a JSON object, got {type(data).__name__}")
    return _naming(what, path, build, data)


def _int_option(config: dict, key: str, default=None) -> int:
    """``config[key]`` (or ``default`` when absent) as an int; a value that
    is not integral (a bool, a fraction, or text that does not convert) is an
    input error naming the key."""
    value = config.get(key, default)
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise DemonError(f"config key {key!r} must be an integer, got {value!r}") from None


def _str_list(config: dict, key: str) -> list[str]:
    """``config[key]`` (empty when absent), which must be a list of strings."""
    value = config.get(key, [])
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise DemonError(f"config key {key!r} must be a list of strings, got {value!r}")
    return value


def _distribution_from(data: dict) -> traces.Distribution:
    kind = data.get("kind")
    if kind not in _DISTRIBUTIONS:
        raise DemonError(f"unknown distribution kind {kind!r}")
    cls = _DISTRIBUTIONS[kind]
    params = {k: v for k, v in data.items() if k != "kind"}
    unknown = sorted(set(params) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise DemonError(f"unknown {kind} distribution parameters {unknown}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise DemonError(f"{kind} distribution parameter {key!r} must be a finite "
                             f"number, got {value!r}")
    return cls(**params)


def _gen_plan(config: dict) -> tuple[int, list[tuple[str, traces.TraceGenConfig]]]:
    """A gen-traces config's trace count per distribution, and one generation
    config per distribution, at the config's base seed."""
    missing = [key for key in ("components", "distributions") if key not in config]
    if missing:
        raise DemonError(f"missing keys {missing}")
    options = {key: _int_option(config, key, default) for key, default in (
        ("components", None), ("aps_per_component", 2), ("length", 60), ("seed", 0))}
    count = _int_option(config, "count", 1)
    if count < 0:
        raise DemonError(f"config key 'count' must be >= 0, got {count}")
    distributions = config["distributions"]
    if not (isinstance(distributions, list) and all(isinstance(d, dict) for d in distributions)):
        raise DemonError(f"config key 'distributions' must be a list of objects, "
                         f"got {distributions!r}")
    return count, [(d.get("kind"), traces.TraceGenConfig(distribution=_distribution_from(d),
                                                         **options)) for d in distributions]


def cmd_gen_traces(args: argparse.Namespace) -> int:
    count, plan = _load(args.config, "gen-traces config", _gen_plan)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for kind, cfg in plan:
        for i in range(count):
            tr = traces.generate(dataclasses.replace(cfg, seed=cfg.seed + written))
            traces.store(tr, str(out_dir / f"trace_{kind}_{i:03d}.csv"))
            written += 1
    print(written)
    return 0


def _constraint(data: dict) -> dict:
    if not all(isinstance(comp, str) for comp in data.values()):
        raise DemonError("constraint must map monitor names to component names")
    return data


def _validation(spec) -> tuple[bool, dict]:
    """Whether ``spec``, or each monitor of a decentralized one, is
    deterministic and complete, and the states where it is not."""
    if isinstance(spec, DecentralizedSpec):
        checked = {name: _validation(spec.monitors[name]) for name in spec.monitor_labels}
        return (all(ok for ok, _ in checked.values()),
                {name: payload for name, (_, payload) in checked.items()})
    r = validate(spec)
    return r.ok, {"determinism": [q for q, _, _ in r.determinism],
                  "completeness": r.completeness}


def cmd_check(args: argparse.Namespace) -> int:
    if args.mode == "compatibility":
        net, sysg = (_load(path, "graph file", analysis.graph_from_dict)
                     for path in (args.network, args.system))
        if args.constraint:  # the one input that can name nodes the graphs lack
            constraint = _load(args.constraint, "constraint file", _constraint)
            ok, assignment = _naming("constraint file", args.constraint, analysis.compatible,
                                     net, sysg, constraint)
        else:
            ok, assignment = analysis.compatible(net, sysg, {})
        print(json.dumps({"compatible": ok, "assignment": assignment}, sort_keys=True))
        return 0 if ok else 1

    spec = _load(args.spec, "spec file", any_spec_from_dict)
    if args.mode == "validate":
        ok, payload = _validation(spec)
        print(json.dumps({"valid": ok, "violations": payload}, sort_keys=True))
        return 0 if ok else 1

    assert args.mode == "monitorability"
    if isinstance(spec, DecentralizedSpec):
        witnesses = {}
        for name in spec.monitor_labels:
            mon_ok, marked = analysis.ca_monitorable(spec.monitors[name])
            if not mon_ok:
                witnesses[name] = sorted(set(spec.monitors[name].states) - marked)
        if analysis.has_cycle(analysis.mdg(spec)):
            witnesses["__dependency_cycle__"] = True
        ok = not witnesses  # as analysis.decentralized_monitorable decides
        print(json.dumps({"monitorable": ok, "witnesses": witnesses}, sort_keys=True))
        return 0 if ok else 1
    ok, marked = analysis.ca_monitorable(spec)
    bad = sorted(set(spec.states) - marked)
    print(json.dumps({"monitorable": ok, "non_monitorable_states": bad}, sort_keys=True))
    return 0 if ok else 1


def _spec_input_for(algorithm: str, spec_path: str):
    """Resolve a spec file for one algorithm.

    LTL inputs (plain text or {"ltl": ...} JSON) drive every algorithm:
    choreography consumes the formula, the others its synthesized automaton.
    An automaton JSON fits the centralized algorithms, and a decentralized
    specification JSON fits choreography; ``engine.setup`` rejects a mismatch.
    """
    text = _naming("spec file", spec_path, Path(spec_path).read_text, "utf-8").strip()
    if text.startswith("{"):
        spec = _load(spec_path, "spec file", _spec_of, text)
    else:
        spec = _naming("spec file", spec_path, _spec_of, {"ltl": text})
    return lt.synthesize(spec) if isinstance(spec, lt.Ltl) and algorithm != "chor" else spec


def _spec_of(data: dict):
    """The formula under key ``ltl``, else the automaton or decentralized
    specification ``data`` describes."""
    if "ltl" not in data:
        return any_spec_from_dict(data)
    if not isinstance(data["ltl"], str):
        raise DemonError(f"key 'ltl' must be a formula string, got {data['ltl']!r}")
    return lt.parse_ltl(data["ltl"])


def _write_rows(fh, rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(mt.CSV_HEADER)
    writer.writerows(rows)


def cmd_run(args: argparse.Namespace) -> int:
    tr = _naming("trace", args.trace, traces.load, args.trace)
    cfg = engine.SimConfig(args.algorithm, args.comm_delay, args.active, args.timeout_slack)
    spec_input = _spec_input_for(args.algorithm, args.spec)
    system = _load(args.system, "graph file", analysis.graph_from_dict) if args.system \
        else analysis.complete_graph(tr.components)
    on = f" on system {args.system}" if args.system else ""
    run = _naming(f"spec file {args.spec}{on} over trace", args.trace, engine.simulate,
                  cfg, spec_input, system, tr)
    if args.format == "json":
        print(json.dumps(run.to_dict(), sort_keys=True))
    else:
        _write_rows(sys.stdout, [mt.csv_row(
            cfg.algorithm, len(system.nodes), Path(args.spec).name, Path(args.trace).name,
            run.verdict, run.stop_round, mt.summarize(run.record))])
    return 0 if run.verdict is not UNKNOWN else 1


def _trace_paths(base: Path, entries) -> list[str]:
    """Trace sources may be files or directories of CSV traces."""
    out = []
    for entry in entries:
        path = base / entry
        if path.is_dir():
            out.extend(str(p) for p in sorted(path.glob("*.csv")))
        else:
            out.append(str(path))
    return out


def _attempt(fn, *args):
    """``fn(*args)``, or the input error it raised, to be reported per run."""
    try:
        return fn(*args)
    except _INPUT_ERRORS as exc:
        return exc


def _experiment_plan(config: dict):
    """An experiment config's simulation configs, specs, trace sources and
    output."""
    algorithms, specs, sources = (
        _str_list(config, key) for key in ("algorithms", "specs", "traces")
    )
    if not (algorithms and specs and sources):
        raise DemonError("experiment needs at least one algorithm, spec, and trace source")
    out_path = config.get("output")
    if out_path is not None and not isinstance(out_path, str):
        raise DemonError(f"config key 'output' must be a file name, got {out_path!r}")
    params = {
        "comm_delay": _int_option(config, "comm_delay", 1),
        "initial_active": _int_option(config, "active", 1),
        "timeout_slack": _int_option(config, "timeout_slack", 5),
    }
    configs = [engine.SimConfig(algorithm, **params) for algorithm in algorithms]
    return configs, specs, sources, out_path


def cmd_experiment(args: argparse.Namespace) -> int:
    configs, specs, sources, out_path = _load(args.config, "experiment config",
                                              _experiment_plan)
    base = Path(args.config).parent
    loaded = [(p, _attempt(_naming, "trace", p, traces.load, p))
              for p in _trace_paths(base, sources)]
    rows = []
    for cfg in configs:
        algorithm = cfg.algorithm
        for spec_entry in specs:
            spec_path = str(base / spec_entry)
            spec_input = _attempt(_spec_input_for, algorithm, spec_path)
            for trace_path, tr in loaded:
                try:
                    for given in (tr, spec_input):  # input errors are reported per run
                        if isinstance(given, Exception):
                            raise given
                    system = analysis.complete_graph(tr.components)
                    run = _naming(f"spec file {spec_path} over trace", trace_path,
                                  engine.simulate, cfg, spec_input, system, tr)
                except _INPUT_ERRORS as exc:
                    if args.strict:
                        raise
                    _log(f"skipping {algorithm}/{spec_entry}/{Path(trace_path).name}: {exc}")
                    continue
                rows.append(
                    mt.csv_row(
                        algorithm,
                        len(system.nodes),
                        Path(spec_path).name,
                        Path(trace_path).name,
                        run.verdict,
                        run.stop_round,
                        mt.summarize(run.record),
                    )
                )
    rows.sort()
    if out_path:
        with open(str(base / out_path), "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh, rows)
        _log(f"wrote {len(rows)} rows")
    else:
        _write_rows(sys.stdout, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demon", description="Decentralized-specification monitoring toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-traces", help="generate synthetic trace files")
    p.add_argument("config", help="JSON generation config")
    p.add_argument("out", help="output directory")
    p.set_defaults(fn=cmd_gen_traces)

    p = sub.add_parser("check", help="static checks on specifications")
    p.add_argument("mode", choices=["monitorability", "compatibility", "validate"])
    p.add_argument("--spec", help="specification file (monitorability/validate)")
    p.add_argument("--network", help="monitor network graph file (compatibility)")
    p.add_argument("--system", help="system graph file (compatibility)")
    p.add_argument("--constraint", help="constraint assignment file (compatibility)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="one monitoring run")
    p.add_argument("--spec", required=True,
                   help="LTL text file (any algorithm), automaton JSON (orch/migr/migrr) "
                        "or decentralized-specification JSON (chor)")
    p.add_argument("--trace", required=True, help="trace CSV file")
    p.add_argument("--algorithm", required=True, choices=list(engine.ALGORITHMS))
    p.add_argument("--system", help="system graph file (default: complete)")
    p.add_argument("--comm-delay", dest="comm_delay", type=int, default=1)
    p.add_argument("--active", type=int, default=1)
    p.add_argument("--timeout-slack", dest="timeout_slack", type=int, default=5)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("experiment", help="batch of runs from a config file")
    p.add_argument("config", help="experiment JSON config")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        if args.mode == "compatibility" and not (args.network and args.system):
            parser.error("compatibility needs --network and --system")
        if args.mode != "compatibility" and not args.spec:
            parser.error(f"{args.mode} needs --spec")
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
