"""Tiny-shape smoke runs: every metric of BENCHMARK.json, with its unit.

Run with ``python3 -m pytest inflexbench/tests`` from the repository
root; each run takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "inflexbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("build", 0), ("serve-cold", 0), ("serve-mixed", 0), ("serve-mixed", 1)],
)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
              "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "--workload", "serve-cold", "--seed", "1",
              "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
