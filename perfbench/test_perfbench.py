"""Self-test of the benchmark harness, on its seconds-long smoke mode.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import gate  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra, bench=BENCH_DIR):
    cmd = [sys.executable, str(bench / "run.py"), "--seed", "7",
           "--seconds", "0", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def copy_bench(dest):
    shutil.copytree(BENCH_DIR, dest, ignore=shutil.ignore_patterns(
        "out", ".work", "__pycache__"))
    return dest


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    res, lines = result_of(run_bench("--workload", workload, "--trace", "0",
                                     "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert any(line.startswith("failed_frac") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    res, _ = result_of(run_bench("--workload", workload, "--trace", "1",
                                 "--smoke"))
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    # the wrapped entry points, not cli's glue, take the pass's time
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    assert 0 < vals["cli.self_s"] <= 0.05 * vals["trace.pass_wall_s"]
    assert vals["solver.factor_calls"] == 2
    assert vals["mesh.n_points"] > 0 and vals["solver.lu_fill_nnz"] > 0


def test_perturbed_reference_counts_as_failure(tmp_path):
    # a copy of the benchmark, run on this checkout, uses its own references
    workload = "size_calibration"
    bench = copy_bench(tmp_path / "perfbench")
    refs = bench / "references" / "smoke" / workload
    for path in refs.glob("*.json"):
        doc = json.loads(path.read_text())
        doc["power"]["w0_re"] *= 1.0 + 1e-8
        path.write_text(json.dumps(doc))
    res, lines = result_of(run_bench("--workload", workload, "--trace", "0",
                                     "--smoke", bench=bench))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert any("power.w0_re" in line for line in lines)


def test_gate_tolerance():
    ref_dir = BENCH_DIR / "references" / "smoke" / "fine_solve"
    ref = json.loads(next(ref_dir.glob("*.json")).read_text())
    assert gate.check(json.loads(json.dumps(ref)), 0, ref) == []

    close = json.loads(json.dumps(ref))
    close["power"]["delta_w_re"] *= 1.0 + 1e-12
    assert gate.check(close, 0, ref) == []

    far = json.loads(json.dumps(ref))
    far["power"]["delta_w_re"] *= 1.0 + 1e-9
    assert gate.check(far, 0, ref)

    # another seed draws another three-region family, and nothing else
    reseeded = json.loads(json.dumps(ref))
    reseeded["config"]["seed"] = ref["config"]["seed"] + 1
    reseeded["checks"]["three_region"]["max_constant"] *= 2.0
    assert gate.check(reseeded, 0, ref) == []
    reseeded["mesh"]["n_points"] += 1
    assert gate.check(reseeded, 0, ref)

    assert gate.check(ref, 3, ref) == ["exit code 3"]
    noisy = json.loads(json.dumps(ref))
    noisy["solve"]["residual_u1"] = 1e-5
    assert len(gate.check(noisy, 0, ref)) == 1
    del noisy["solve"]["residual_u1"]
    assert len(gate.check(noisy, 0, ref)) == 1


def test_gate_rounding_level_fields():
    ref_dir = BENCH_DIR / "references" / "smoke" / "check_heavy"
    ref = json.loads(next(ref_dir.glob("*.json")).read_text())
    moved = json.loads(json.dumps(ref))
    # a centre coordinate that is 0 up to rounding, and a residual that is
    moved["checks"]["lipschitz"]["argmin"][1] = -4.4e-16
    moved["checks"]["scaling"]["theta_1.0"] = 2.2e-16
    assert gate.check(moved, 0, ref) == []
    moved["checks"]["lipschitz"]["argmin"][1] = 1e-9
    moved["checks"]["scaling"]["theta_1.0"] = 1e-9
    assert len(gate.check(moved, 0, ref)) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy_bench(tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine_solve",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
