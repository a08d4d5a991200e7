"""Smoke tests of the benchmark itself (about three minutes):

    python3 -m pytest perfbench/test_smoke.py

A tiny size of each workload (deep_search too, which BENCHMARK.json
does not list) must finish without a failed check and emit exactly the
metric names and units BENCHMARK.json lists; the same seed must give
byte-identical inputs; and the benchmark must refuse to run where the
rhombikit sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(script: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["deep_search", "batch_sweep", "cli_cold"])
def test_tiny_run_is_correct_and_complete(workload, trace):
    res = _run(
        HERE / "run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert "error_rate = 0 ratio" in lines
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_same_seed_gives_identical_inputs():
    res = _run(HERE / "gen.py", "--seed", "11")
    assert res.returncode == 0, res.stderr
    assert "inputs identical" in res.stdout


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        res = _run(
            bare / HERE.name / "run.py",
            "--workload", "deep_search", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
