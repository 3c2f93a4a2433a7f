"""Tests of the benchmark itself: every workload runs a couple of scenes,
prints every metric named in BENCHMARK.json with its unit, and passes its
output checks.

    python3 -m pytest -q perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_and_outputs_check(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--scenes", "2")
    out, lines = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == 2 * (1 + trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        printed = out["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]
        assert math.isfinite(printed["value"]), m["name"]
        assert f"{m['name']} " in "\n".join(lines)
    assert any(line.startswith("failed_frac 0 ratio") for line in lines)
    assert any(line.startswith("digest sha256:") for line in lines)


def _traced(workload):
    out, _ = result(bench("--workload", workload, "--seed", "0", "--seconds", "0",
                          "--trace", "1", "--scenes", "1"))
    return {k: v["value"] for k, v in out["metrics"].items()}


def test_layers_that_a_workload_does_not_run_read_zero():
    clean, crowded, cli = (_traced(w) for w in ("clean-128", "crowded-noisy-96", "cli-64"))
    assert clean["priors.extract_centers_s"] == 0 and cli["priors.extract_centers_s"] == 0
    assert crowded["priors.extract_centers_s"] > 0
    for in_process in (clean, crowded):
        for name, value in in_process.items():
            if name.split(".")[0] in ("mesh", "losses", "containers", "cli"):
                assert value == 0, name
    for name in ("mesh.export_obj_s", "losses.tsdf_from_occupancy_s", "containers.write_s",
                 "cli.group_s", "mesh.triangles", "containers.written_mb"):
        assert cli[name] > 0, name


def test_other_seed_reorders_the_same_scenes():
    runs = [result(bench("--workload", "crowded-noisy-96", "--seed", seed, "--seconds", "0",
                         "--scenes", "3"))[1]
            for seed in ("1", "2")]
    keep = [[line for line in lines if line.startswith(("prq_mean exactly", "digest"))]
            for lines in runs]
    assert len(keep[0]) == 2 and keep[0] == keep[1]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_vanished_function_reads_missing_not_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import panrec.cli  # noqa: F401
    import tracing

    monkeypatch.delattr(sys.modules["panrec.mesh"], "export_obj")
    tracer = tracing.Tracer()
    metrics = tracing.layer_metrics(tracer, 1)
    assert "mesh.export_obj" in tracer.missing
    assert metrics["mesh.export_obj_s"][0] is None and metrics["mesh.triangles"][0] is None
    assert metrics["lifting.occupancy_aware_lift_s"] == (0.0, "s")
