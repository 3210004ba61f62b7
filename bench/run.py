#!/usr/bin/env python3
"""Benchmark of the demon simulator: seeded workloads, closed-loop runs/s,
checked outputs, and per-layer timings from a separate traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(plus ``trace.overhead``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Details, run
metadata and, for traced runs, every span land in ``bench/out/``.  The exit
code is 0 only when every run agreed with the reference semantics and the
metrics-row digest matched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
HASH_SEED = "0"
SETUP_REPEATS = 7


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def locate_sources() -> None:
    for needed in (ROOT / "src" / "demon" / "__init__.py",
                   ROOT / "scripts" / "synthetic_benchmark.py"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} not found; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]


def purge_modules() -> None:
    for name in list(sys.modules):
        if name == "demon" or name.startswith("demon.") or name == "synthetic_benchmark":
            del sys.modules[name]


def timed_setup(build, seed: int):
    """Import the program and build the workload's inputs SETUP_REPEATS
    times from a clean module table.  Each repeat is normalised like the run
    times, by reference units taken just before it; ``setup_s`` is the
    median.  The last build is the one measured."""
    import harness

    times = []
    for _ in range(SETUP_REPEATS):
        unit = statistics.fmean(harness.unit_seconds() for _ in range(5))
        purge_modules()
        start = perf_counter()
        import demon.engine  # noqa: F401
        cases = build(seed)
        times.append((perf_counter() - start) * harness.REF_S / unit)
    return cases, statistics.median(times)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    src = ROOT / "src" / "demon"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "demon_lines": lines,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def recorded_digest(workload: str, seed: int):
    recorded = json.loads(DIGESTS.read_text())
    return recorded.get(workload, {}).get(str(seed))


def check_digests(digests: list[str], recorded) -> list[str]:
    """Problems with a run's per-pass digests: passes that disagree, or a
    disagreement with the digest recorded for this workload and seed."""
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"metrics rows differ between passes: {sorted(set(digests))}")
    if recorded is not None and digests[0] != recorded:
        problems.append(f"metrics-row digest {digests[0]} != recorded {recorded}")
    return problems


def benchmark(name: str, seed: int, seconds: float, trace: bool, build=None) -> dict:
    """Set up, measure and check one workload; ``build(seed)`` makes its
    cases (default: the workload called ``name``)."""
    import harness
    import workloads
    from tracer import COUNT_ONLY, NAMES, Tracer

    build = build or workloads.WORKLOADS[name]
    tracer = Tracer() if trace else None
    if trace:
        # Set-up is traced too, so ``traces.generate`` and ``ltl.synthesize``
        # show; it is not timed as ``setup_s`` here.
        with tracer:
            cases = build(seed)
        setup_s = None
    else:
        cases, setup_s = timed_setup(build, seed)
    expected = workloads.reference_verdicts(cases)

    m = harness.measure(cases, expected, seconds / 2 if trace else seconds)
    passes = list(m.passes)
    if trace:
        untraced = harness.end_to_end(cases, m, 0.0)[0]["runs_per_s"][0]
        with tracer:
            traced = harness.run_pass(cases, expected, tracer=tracer)
        passes.append(traced)
        metrics = harness.per_layer(cases, tracer, traced, untraced)
        info = {f"{n}.self_s": s for n, s in zip(NAMES, tracer.self_s) if n in COUNT_ONLY}
    else:
        metrics, info = harness.end_to_end(cases, m, setup_s)

    digests = [p.digest for p in passes]
    problems = check_digests(digests, recorded_digest(name, seed))
    failures = [(i, msg) for p in passes for i, msg in p.failures]
    attempted = len(cases) * len(passes)
    return {
        "workload": name, "seed": seed, "trace": trace, "cases": len(cases),
        "passes": len(passes), "pass_host_s": [sum(p.seconds) for p in passes],
        "pass_normalised_s": [sum(p.normalised()) for p in passes],
        "measured_s": m.wall_s, "attempted": attempted,
        "failed": len(failures), "digest": digests[0], "problems": problems,
        "failures": [
            f"{cases[i].algorithm} {cases[i].spec_id} {cases[i].trace_id}: {msg}"
            for i, msg in failures
        ],
        "info": info, "metrics": metrics, "meta": metadata(),
        "tracer": tracer,
    }


def report(result: dict) -> dict:
    """Print the human-readable lines, then the JSON result line; return it."""
    r = result
    print(f"# workload={r['workload']} seed={r['seed']} trace={int(r['trace'])} "
          f"cases={r['cases']} passes={r['passes']} measured_s={r['measured_s']:.2f}")
    print("# meta " + " ".join(f"{k}={v}" for k, v in r["meta"].items()))
    for name, (value, unit) in r["metrics"].items():
        extra = ""
        if name == "run_ms_tail":
            extra = f"  (p{r['info']['percentile']} of {r['info']['samples']} runs)"
        print(f"{name} {value:.6g} {unit}{extra}")
    if r["trace"]:
        for name, value in r["info"].items():
            print(f"# {name} {value:.6g} s  (not a result metric)")
    print(f"fail_ratio {r['failed'] / r['attempted']:.6g} ratio  "
          f"({r['failed']} of {r['attempted']} runs)")
    print(f"digest {r['digest']}")
    for line in r["failures"][:20] + r["problems"]:
        print(f"FAIL {line}")
    line = {
        "correct": not r["failures"] and not r["problems"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(line), flush=True)
    return line


def save(result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    payload = {k: v for k, v in result.items() if k != "tracer"}
    (OUT / f"{stem}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write(OUT / f"{stem}.spans.tsv.gz")


def run_all(args) -> int:
    """Every workload in a fresh process, one after the other."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Both commits of a comparison must see the same set orders and caches.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__)), *sys.argv[1:]], env)
    locate_sources()
    if args.workload == "all":
        return run_all(args)
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    save(result)
    return 0 if report(result)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
