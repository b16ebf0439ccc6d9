"""Smoke test of the benchmark itself: every workload at its tiny size,
untraced and traced, emits every metric ``BENCHMARK.json`` names, with
its unit, and every traced entry point still resolves."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert not [line for line in lines
                if line.startswith(("unmeasured", "partial", "FAILED"))]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_traced_entry_point_resolves():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import resolve_all

    assert resolve_all() == {}


def test_compare_flags_a_backend_mismatch(tmp_path):
    env = {"packet_backend": {"engine": "pure-python"},
           "fluid_backend": "numpy", "repro_env": {}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    files = []
    for engine in ("pure-python", "compiled-c"):
        env["packet_backend"]["engine"] = engine
        path = tmp_path / f"{engine}.txt"
        path.write_text(f"env {json.dumps(env)}\n{json.dumps(result)}\n")
        files.append(str(path))
    out = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--before", files[0],
         "--after", files[1]],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2 and "backend mismatch" in out.stdout
