"""Smoke tests of the benchmark harness at a tiny size.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "scripts")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(seed):
    """Four |C|=3 formulas, one per shape, on one trace per distribution."""
    return workloads.corpus(seed, sizes=(3,), per_shape=1, traces_per_formula=4)


def printed(result, capsys) -> tuple[dict, str]:
    line = run.report(result)
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1]) == line
    return line, out


def check_names(line, out, declared):
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} " in out and f" {m['unit']}" in out


def test_every_end_to_end_metric_printed_with_unit(capsys):
    result = run.benchmark("tiny", 0, 0.0, False, build=tiny)
    line, out = printed(result, capsys)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 64
    check_names(line, out, SPEC["end_to_end"])
    assert "fail_ratio 0 ratio" in out
    assert f"(p{result['info']['percentile']} of 64 runs)" in out


def test_traced_run_prints_layers_repeats_counts_and_keeps_digest(capsys):
    first = run.benchmark("tiny", 0, 0.0, True, build=tiny)
    second = run.benchmark("tiny", 0, 0.0, True, build=tiny)
    line, out = printed(first, capsys)
    assert line["correct"], first["problems"]
    check_names(line, out, SPEC["per_layer"])
    # Untraced and traced passes hashed alike, or ``problems`` says so.
    assert first["passes"] == 2 and not first["problems"]
    counts = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert counts == {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert counts["engine.simulate.calls"][0] == 64
    assert counts["ltl.synthesize.calls"][0] > 4  # set-up plus chor's own synthesis
    assert first["digest"] == run.benchmark("tiny", 0, 0.0, False, build=tiny)["digest"]


def test_perturbed_row_fails_digest_check():
    cases = tiny(0)
    rows = harness.run_pass(cases, workloads.reference_verdicts(cases)).rows
    digest = harness.rows_digest(rows)
    assert harness.rows_digest(list(reversed(rows))) == digest
    perturbed = [list(r) for r in rows]
    perturbed[5][6] = "9.999999"
    bad = harness.rows_digest(perturbed)
    assert bad != digest
    assert run.check_digests([digest, digest], digest) == []
    assert run.check_digests([bad], digest)
    assert run.check_digests([digest, bad], None)


def test_injected_verdict_mismatch_raises_fail_ratio(capsys):
    cases = tiny(0)
    expected = workloads.reference_verdicts(cases)
    from demon.expr import BOTTOM, TOP

    expected[3] = BOTTOM if expected[3] is TOP else TOP
    p = harness.run_pass(cases, expected)
    assert [i for i, _ in p.failures] == [3]

    result = run.benchmark("tiny", 0, 0.0, False, build=tiny)
    result["failures"], result["failed"] = ["injected"], 1
    line, out = printed(result, capsys)
    assert not line["correct"] and line["failed"] == 1
    assert f"fail_ratio {1 / 64:.6g} ratio" in out


def test_seed_fixes_inputs_and_variants_rename_them():
    def rows(seed):
        cases = tiny(seed)
        return harness.run_pass(cases, workloads.reference_verdicts(cases)).rows

    assert harness.rows_digest(rows(0)) == harness.rows_digest(rows(0))
    names = workloads.renaming(random.Random(3), 4, 2)
    assert sorted(names.values()) == sorted(names)
    assert all(int(k[1:]) // 2 == int(v[1:]) // 2 for k, v in names.items())
    f0 = [c.formula for c in tiny(0)]
    assert f0 != [c.formula for c in tiny(1)]
    other = [c.formula for c in tiny(workloads.VARIANTS)]
    assert other != f0
    assert sorted(map(workloads.shape_of, other)) == sorted(map(workloads.shape_of, f0))


def test_tail_percentile_leaves_ten_beyond():
    assert harness.tail(range(100)) == (90, 89)
    assert harness.tail(range(11)) == (9, 0)
    with pytest.raises(ValueError):
        harness.tail(range(10))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
