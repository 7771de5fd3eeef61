"""Smoke test of the benchmark harness on a tiny input, and of its gate.

    python3 -m pytest perfbench

Each workload runs on the calibration scenario (4 days, 25 injections), once
untraced and once traced, and must emit every metric BENCHMARK.json declares,
with its unit.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import gate  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, record["jobs"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for key in ("git_sha", "python", "numpy", "nproc", "loadavg_1m_start",
                "loadavg_1m_end", "child_env", "sha256"):
        assert key in record


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "3",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _rows():
    rows = [
        {"params_json": '{"n": 0.1}', "counts": [90, 10, 1, 19], "thresholds": [0.1]},
        {"params_json": '{"n": 0.2}', "counts": [95, 5, 1, 19], "thresholds": [0.2]},
        {"params_json": '{"n": 0.3}', "counts": [99, 1, 5, 15], "thresholds": [0.3]},
    ]
    for row, on in zip(rows, (False, True, True)):
        row.update(structural="{}", on_frontier=on)
    return {"proposed": rows}


def test_gate_accepts_consistent_evaluate_output():
    found = _rows()
    assert gate.evaluate_invariants(found, injected=100, real=20) == []
    assert gate.det_at_mis10(found["proposed"]) == 0.95


def test_gate_rejects_a_wrong_frontier_or_count():
    found = _rows()
    found["proposed"][0]["on_frontier"] = True
    assert gate.evaluate_invariants(found, injected=100, real=20)
    assert gate.evaluate_invariants(_rows(), injected=101, real=20)


def test_diff_allows_float_noise_within_tolerance_only():
    canon = gate.canonical_evaluate(_rows())
    near, far, flipped = (copy.deepcopy(canon) for _ in range(3))
    near["proposed"]["{}"][0][5] += 1e-13
    far["proposed"]["{}"][0][5] += 1e-9
    flipped["proposed"]["{}"][0][4] = not flipped["proposed"]["{}"][0][4]
    assert gate.diff(canon, near) is None
    assert gate.diff(canon, far)
    assert gate.diff(canon, flipped)
