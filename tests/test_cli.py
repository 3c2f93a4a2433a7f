import numpy as np
import pytest
from click.testing import CliRunner

from panrec.cli import main
from panrec.containers import read_container, read_manifest
from panrec.synth import SynthError

runner = CliRunner()


def run(*args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def build_chain(tmp_path, seed=3, size=32, extra_synth=()):
    scene = tmp_path / "scene"
    priors = tmp_path / "priors"
    feats = tmp_path / "features.bin"
    pred = tmp_path / "pred.bin"
    run("synth", "--seed", str(seed), "--out", str(scene), "--width", str(size),
        "--height", str(size), "--planes", str(size), "--things", "3",
        "--min-separation", "8", *extra_synth)
    run("derive-priors", str(scene), "--out", str(priors))
    run("lift", str(priors), "--out", str(feats))
    run("group", str(feats), str(priors), "--out", str(pred))
    return scene, priors, feats, pred


def test_full_chain_perfect_score(tmp_path):
    scene, priors, feats, pred = build_chain(tmp_path)
    record = tmp_path / "scores.txt"
    result = run("eval", str(pred), str(scene / "panoptic.bin"),
                 "--categories-from", str(scene / "manifest.json"),
                 "--record", str(record))
    assert "PRQ" in result.output
    lines = dict(l.split() for l in record.read_text().splitlines())
    assert float(lines["prq"]) == 1.0
    assert float(lines["prq_th"]) == 1.0
    assert float(lines["prq_st"]) == 1.0


def test_demo_prints_perfect_prq():
    result = run("demo")
    assert result.output.strip().endswith("PRQ 100.00")


def test_reruns_byte_identical(tmp_path):
    a = build_chain(tmp_path / "a", seed=5)
    b = build_chain(tmp_path / "b", seed=5)
    for pa, pb in zip(a, b):
        if pa.is_dir():
            for child in sorted(pa.iterdir()):
                assert child.read_bytes() == (pb / child.name).read_bytes()
        else:
            assert pa.read_bytes() == pb.read_bytes()


def test_threads_flag_does_not_change_output(tmp_path):
    scene1 = tmp_path / "t1"
    scene8 = tmp_path / "t8"
    run("--threads", "1", "synth", "--seed", "2", "--out", str(scene1))
    run("--threads", "8", "synth", "--seed", "2", "--out", str(scene8))
    assert (scene1 / "panoptic.bin").read_bytes() == (scene8 / "panoptic.bin").read_bytes()


def test_topdown_lift_modes(tmp_path):
    scene, priors, _, _ = build_chain(tmp_path)
    cat = tmp_path / "td_cat.bin"
    rnd = tmp_path / "td_rnd.bin"
    run("lift", str(priors), "--out", str(cat), "--mode", "top-down",
        "--assignment", "category", "--n-channels", "8")
    run("lift", str(priors), "--out", str(rnd), "--mode", "top-down",
        "--assignment", "random:4", "--n-channels", "8")
    a = read_container(cat).array
    b = read_container(rnd).array
    assert a.shape == b.shape
    assert sorted(a[..., c].tobytes() for c in range(8)) == \
        sorted(b[..., c].tobytes() for c in range(8))


def test_lift_bad_assignment_fails(tmp_path):
    _, priors, _, _ = build_chain(tmp_path)
    result = runner.invoke(main, ["lift", str(priors), "--out",
                                  str(tmp_path / "x.bin"), "--mode", "top-down",
                                  "--assignment", "nope"])
    assert result.exit_code != 0


def test_noisy_priors_lower_score(tmp_path):
    scene = tmp_path / "scene"
    run("synth", "--seed", "9", "--out", str(scene))
    noisy = tmp_path / "noisy"
    run("derive-priors", str(scene), "--out", str(noisy),
        "--depth-sigma", "0.2", "--noise-seed", "1")
    feats = tmp_path / "f.bin"
    pred = tmp_path / "p.bin"
    run("lift", str(noisy), "--out", str(feats))
    run("group", str(feats), str(noisy), "--out", str(pred))
    record = tmp_path / "r.txt"
    run("eval", str(pred), str(scene / "panoptic.bin"),
        "--categories-from", str(scene / "manifest.json"), "--record", str(record))
    lines = dict(l.split() for l in record.read_text().splitlines())
    assert float(lines["prq"]) < 1.0


def test_loss_command_zero_for_clean_priors(tmp_path):
    scene, priors, _, _ = build_chain(tmp_path)
    record = tmp_path / "loss.txt"
    result = run("loss", str(scene), str(priors), "--record", str(record))
    lines = dict(l.split() for l in record.read_text().splitlines())
    assert float(lines["depth"]) == 0.0
    assert float(lines["l3d_offset_l1"]) == 0.0
    assert "p2d_total" in lines


def test_mesh_export(tmp_path):
    scene, priors, feats, _ = build_chain(tmp_path)
    pred = tmp_path / "pred2.bin"
    mesh = tmp_path / "scene.obj"
    run("group", str(feats), str(priors), "--out", str(pred), "--mesh", str(mesh))
    text = mesh.read_text()
    assert text.startswith("mtllib")
    assert "\nv " in text and "\nf " in text
    assert (tmp_path / "scene.mtl").exists()


def test_bench_runs():
    result = run("bench", "--sizes", "16", "--reps", "1")
    rows = [line.split() for line in result.output.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["occupancy_aware_lift", "16"],
                                         ["reconstruct_from_priors", "16"],
                                         ["prq", "16"]]
    assert all(float(row[2]) >= 0 for row in rows)


def test_manifest_written_with_generator(tmp_path):
    scene = tmp_path / "scene"
    run("synth", "--seed", "4", "--out", str(scene))
    manifest = read_manifest(scene / "manifest.json")
    assert manifest["generator"]["seed"] == 4


def test_synth_rejects_grid_too_small_for_things(tmp_path):
    result = runner.invoke(main, ["synth", "--width", "4", "--height", "4", "--planes", "4",
                                  "--out", str(tmp_path / "scene")])
    assert isinstance(result.exception, SynthError)
    assert "width" in str(result.exception)


def test_entry_reports_errors(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import panrec

    # The child runs in an empty directory, where a relative PYTHONPATH (such
    # as "src") finds nothing; point it at the directory this process imported
    # panrec from, so both processes test the same code.
    package_root = str(Path(panrec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "panrec.cli", "eval", "missing.bin", "missing.bin",
         "--categories-from", "missing.json"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1, proc.stderr
