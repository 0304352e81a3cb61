"""Smoke test of the benchmark itself at its smallest size.

    python3 -m pytest perfbench/test_smoke.py     # from the checkout root, ~4 min

Each workload runs with ``--seconds 1`` (one round, or one untraced and one
traced round), and the test asserts that every metric named in
BENCHMARK.json prints with its unit and that no request failed.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_and_nothing_fails(workload, trace):
    proc = run("--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    assert any(line.startswith("failed_share 0/") for line in lines)


def test_refuses_without_the_program():
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state) as tmp:
        bench = Path(tmp) / "perfbench"
        bench.mkdir()
        for f in BENCH.iterdir():
            if f.is_file():
                (bench / f.name).write_bytes(f.read_bytes())
        (Path(tmp) / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moment-suite",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
