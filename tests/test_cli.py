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



# sha256 of every file the README chain writes on one 32^3 scene, pinned from
# the copying container writer (header bytes, then `array.tobytes()`). The
# container format is an output contract: any change to the writer or to the
# commands must reproduce these bytes exactly.
GOLDEN_CHAIN_FILES = {
    "features.bin":
        "c5845d89b3175145ee50aeb4a2f530ed1f8671b0db600390826d17934745fbb3",
    "features_occupancy.bin":
        "ce3ecc6a2c4bab562728e9e35d8631efb85c02d4548084fd35d6fded6843ecc9",
    "pred.bin":
        "008ac2be934180f5574ed88d927085d2198238589becb14eca5789f040d68374",
    "priors/depth.bin":
        "99913672df8b6057b7cc683f4e90dfe6d5e8cace1e485fe078d9a5c57d5084b4",
    "priors/heatmap.bin":
        "8511a4190679b7e1fe7b72aae97703c15bc56eda6cb1f6ed240bf287bc5d0851",
    "priors/instances2d.bin":
        "20caa32ecd534b832dc8e98c53f16bcbd427e0f3d9975e9a1733bdd018033331",
    "priors/manifest.json":
        "eeac91f28d3111815fe50154b2f2eec5e4368231916461f1f2e8608b23318ee8",
    "priors/mp_occupancy.bin":
        "ce3ecc6a2c4bab562728e9e35d8631efb85c02d4548084fd35d6fded6843ecc9",
    "priors/offsets3d.bin":
        "386ea4d40dceff199ac7fead1f3e8b438add41a1430f470b3424a3a698f0a555",
    "priors/semantics2d.bin":
        "af8fa8c6c9204fefb5b45b05a4ece975e7aa411f253b1720eb07b0204bafd327",
    "prq.txt":
        "67d0cf8c7b084d05d043cea356b6d39ef73ef57a806a5f66f8d55bde89e4a9a3",
    "scene/manifest.json":
        "e38d5133f9fd76098073666c80943465a0651cdfc7aea58c16a79ea36155bc4e",
    "scene/panoptic.bin":
        "008ac2be934180f5574ed88d927085d2198238589becb14eca5789f040d68374",
    "scene.mtl":
        "825714babe2fddad24a75ee5bf1459823a5419e845ce156e46f20251afd0f44c",
    "scene.obj":
        "d20e76092d558f3713290949bfffc67eb1f7bd590212b17d2ea569a1794911e3",
    "topdown.bin":
        "c01f7164a3d6407957bc63168f1cc7844a27f98273a0839e798ca0225b2f9249",
    "topdown_occupancy.bin":
        "cfdb04e20441f271def982c6ca57b5e1a82d199db601e6ba68fe150ed4b73e32",
}


def test_readme_chain_matches_golden_hashes(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    run("synth", "--seed", "3", "--out", "scene", "--width", "32", "--height", "32",
        "--planes", "32", "--things", "3", "--min-separation", "8")
    run("derive-priors", "scene", "--out", "priors")
    run("lift", "priors", "--out", "features.bin")
    run("lift", "priors", "--out", "topdown.bin", "--mode", "top-down",
        "--assignment", "random:4")
    run("group", "features.bin", "priors", "--out", "pred.bin", "--mesh", "scene.obj")
    run("eval", "pred.bin", "scene/panoptic.bin",
        "--categories-from", "scene/manifest.json", "--record", "prq.txt")
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    assert digests == GOLDEN_CHAIN_FILES
