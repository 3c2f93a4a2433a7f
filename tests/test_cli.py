import dataclasses
import json
import re
import shlex
import shutil
import struct
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, reject, settings, strategies as st

from panrec import containers
from panrec.cli import PRIOR_KINDS, entry, main
from panrec.containers import read_container, read_manifest
from panrec.lifting import lift_instances_topdown
from panrec.metrics import prq
from panrec.pipeline import reconstruct_from_priors
from panrec.priors import Priors2D, derive_instance_map2d, derive_priors
from panrec.synth import SynthConfig, SynthError, generate_scene
from panrec.volume import PanopticVolume

README = Path(__file__).resolve().parent.parent / "README.md"

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
    a = read_container(cat, "feature-volume").array
    b = read_container(rnd, "feature-volume").array
    assert a.shape == b.shape
    assert sorted(a[..., c].tobytes() for c in range(8)) == \
        sorted(b[..., c].tobytes() for c in range(8))


def test_lift_bad_assignment_fails(tmp_path, monkeypatch, capsys):
    _, priors, _, _ = build_chain(tmp_path)
    for value in ("nope", "random:x", "random:", "random:3.5", "random:-1"):
        code, err = entry_result(monkeypatch, capsys, "lift", priors, "--out", tmp_path / "x.bin",
                                 "--mode", "top-down", "--assignment", value)
        assert code == 2  # a usage error, as in click's standalone mode
        assert err.startswith("error: ") and "'--assignment'" in err and err.count("\n") == 1, err
    assert not (tmp_path / "x.bin").exists()


def test_topdown_lift_rejects_a_negative_instance_id(tmp_path, monkeypatch, capsys):
    _, priors, _, _ = build_chain(tmp_path)
    path = priors / "instances2d.bin"
    cont = read_container(path, "panoptic-volume")
    array = cont.array.copy()
    array[..., 1][array[..., 1] == 1] = -5
    containers.write_container(path, "panoptic-volume", array, cont.frame, cont.intrinsics,
                               cont.planes)
    code, err = entry_result(monkeypatch, capsys, "lift", priors, "--out", tmp_path / "t.bin",
                             "--mode", "top-down")
    assert code == 1
    assert err.startswith("error: instances2d") and err.count("\n") == 1, err
    assert not (tmp_path / "t.bin").exists()


@pytest.mark.parametrize("category", [99, -7, 1])
def test_topdown_lift_rejects_a_category_that_is_not_a_thing(tmp_path, monkeypatch, capsys,
                                                              category):
    # outside the manifest's 7-category table, or stuff (category 1, the wall)
    _, priors, _, _ = build_chain(tmp_path)
    path = priors / "instances2d.bin"
    cont = read_container(path, "panoptic-volume")
    array = cont.array.copy()
    array[..., 0][array[..., 1] == 2] = category
    containers.write_container(path, "panoptic-volume", array, cont.frame, cont.intrinsics,
                               cont.planes)
    code, err = entry_result(monkeypatch, capsys, "lift", priors, "--out", tmp_path / "t.bin",
                             "--mode", "top-down")
    assert code == 1
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "t.bin").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_n_channels_below_one_is_rejected_by_name(tmp_path, value):
    _, priors, _, _ = build_chain(tmp_path, size=16)
    result = runner.invoke(main, ["lift", str(priors), "--out", str(tmp_path / "t.bin"),
                                  "--mode", "top-down", "--n-channels", value])
    assert result.exit_code == 2
    assert "'--n-channels'" in result.output and f"{value} is not in the range x>=1" \
        in result.output, result.output
    assert not (tmp_path / "t.bin").exists()


@pytest.mark.parametrize("option, value", [
    ("--assignment", "random:3"), ("--assignment", "category"),
    ("--n-channels", "5"), ("--n-channels", "16"),
])
def test_bottom_up_lift_rejects_a_top_down_option(tmp_path, option, value):
    # given on the command line, even at its default, the option is an error
    _, priors, _, _ = build_chain(tmp_path, size=16)
    result = runner.invoke(main, ["lift", str(priors), "--out", str(tmp_path / "t.bin"),
                                  option, value])
    assert result.exit_code == 2
    assert f"Error: {option} applies only to --mode top-down" in result.output, result.output
    assert not (tmp_path / "t.bin").exists()


@pytest.mark.filterwarnings("ignore:dropping")
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_cli_topdown_writes_the_in_process_lift(tmp_path, seed):
    run("synth", "--seed", str(seed), "--out", str(tmp_path / "scene"), "--width", "32",
        "--height", "32", "--planes", "32", "--things", "3", "--min-separation", "8")
    run("derive-priors", str(tmp_path / "scene"), "--out", str(tmp_path / "priors"))
    scene = generate_scene(SynthConfig(seed=seed, width=32, height=32, planes=32, n_things=3,
                                       min_center_separation=8.0))
    instances2d = derive_instance_map2d(scene)
    depth, header = derive_priors(scene).depth, (scene.frame, scene.intrinsics, scene.planes)

    def assert_written(path, kind, array):
        containers.write_container(tmp_path / "expected.bin", kind, array, *header)
        assert path.read_bytes() == (tmp_path / "expected.bin").read_bytes(), path

    assert_written(tmp_path / "priors" / "instances2d.bin", "panoptic-volume", instances2d)
    n_instances = len(np.unique(instances2d[..., 1])) - 1
    assert n_instances >= 2
    for assignment, order in (("category", None), (f"random:{seed + 4}", seed + 4)):
        for n_channels in (n_instances - 1, n_instances + 1):
            run("lift", str(tmp_path / "priors"), "--out", str(tmp_path / "topdown.bin"),
                "--mode", "top-down", "--assignment", assignment,
                "--n-channels", str(n_channels))
            fv = lift_instances_topdown(instances2d, depth, *header, order, n_channels)
            assert_written(tmp_path / "topdown.bin", "feature-volume", fv.features)
            assert_written(tmp_path / "topdown_occupancy.bin", "multiplane", fv.occupancy)


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


def group_error(monkeypatch, capsys, tmp_path, features, priors):
    """`panrec group`'s exit code and its one-line stderr, through the entry point."""
    code, err = entry_result(monkeypatch, capsys, "group", features, priors,
                             "--out", tmp_path / "out.bin")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out.bin").exists()
    return code, err


def test_group_rejects_a_panoptic_volume_as_scores(tmp_path, monkeypatch, capsys):
    _, priors, feats, pred = build_chain(tmp_path)
    shutil.copy(pred, tmp_path / "wrong.bin")
    shutil.copy(feats.with_name("features_occupancy.bin"), tmp_path / "wrong_occupancy.bin")
    code, err = group_error(monkeypatch, capsys, tmp_path, tmp_path / "wrong.bin", priors)
    assert code == 1
    assert err.startswith("error: ") and "wrong.bin" in err and "kind" in err
    assert "panoptic-volume" in err


def test_group_rejects_channels_other_than_the_categories(tmp_path, monkeypatch, capsys):
    _, priors, _, _ = build_chain(tmp_path)
    run("lift", str(priors), "--out", str(tmp_path / "topdown.bin"), "--mode", "top-down")
    code, err = group_error(monkeypatch, capsys, tmp_path, tmp_path / "topdown.bin", priors)
    assert code == 1
    assert err.startswith("error: ") and "topdown.bin" in err and "channels 16" in err


def test_group_rejects_occupancy_of_another_kind(tmp_path, monkeypatch, capsys):
    _, priors, feats, _ = build_chain(tmp_path)
    shutil.copy(priors / "depth.bin", feats.with_name("features_occupancy.bin"))
    code, err = group_error(monkeypatch, capsys, tmp_path, feats, priors)
    assert code == 1
    assert err.startswith("error: ") and "features_occupancy.bin" in err
    assert "kind" in err and "'depth'" in err


def test_group_rejects_features_in_another_frame(tmp_path, monkeypatch, capsys):
    _, priors, _, _ = build_chain(tmp_path)
    _, _, small_feats, _ = build_chain(tmp_path / "small", size=16)
    code, err = group_error(monkeypatch, capsys, tmp_path, small_feats, priors)
    assert code == 1
    assert err.startswith("error: ") and "features.bin" in err and "frame" in err


def rewrite(path, kind, new_kind=None, **header):
    """Rewrite the container at `path` as `new_kind`, with some of its frame,
    intrinsics and planes replaced by `header`."""
    cont = read_container(path, kind)
    fields = {"frame": cont.frame, "intrinsics": cont.intrinsics, "planes": cont.planes}
    containers.write_container(path, new_kind or kind, cont.array,
                               **{**fields, **header})


def test_group_rejects_features_with_other_planes(tmp_path, monkeypatch, capsys):
    _, priors, feats, _ = build_chain(tmp_path)
    planes = read_container(feats, "feature-volume").planes
    rewrite(feats, "feature-volume", planes=dataclasses.replace(planes, z_far=9.0))
    code, err = group_error(monkeypatch, capsys, tmp_path, feats, priors)
    assert code == 1
    assert err.startswith(f"error: {feats}: planes ") and "differs" in err


@pytest.mark.parametrize("kind", ["id-0", "duplicate-id"])
def test_group_rejects_bad_manifest_centers(tmp_path, monkeypatch, capsys, kind):
    _, priors, feats, _ = build_chain(tmp_path)
    corrupt_priors_dir(priors, "centers", kind)
    code, err = group_error(monkeypatch, capsys, tmp_path, feats, priors)
    assert code == 1
    assert err.startswith("error: centers: instance ids must be >= 1 and distinct")


@pytest.mark.parametrize("name, kind, change", [
    ("features.bin", "feature-volume", lambda a: np.full_like(a, np.nan)),
    ("features.bin", "feature-volume", lambda a: -a),
    ("features_occupancy.bin", "multiplane", lambda a: np.full_like(a, np.nan)),
    ("features_occupancy.bin", "multiplane", lambda a: 3 * a),
], ids=["nan-features", "negated-features", "nan-occupancy", "occupancy-times-3"])
def test_group_rejects_lifted_values_out_of_range(tmp_path, monkeypatch, capsys, name, kind,
                                                  change):
    _, priors, feats, _ = build_chain(tmp_path)
    path = tmp_path / name
    cont = read_container(path, kind)
    containers.write_container(path, kind, change(cont.array), cont.frame, cont.intrinsics,
                               cont.planes)
    code, err = group_error(monkeypatch, capsys, tmp_path, feats, priors)
    assert code == 1
    field, high = ("features", "inf") if kind == "feature-volume" else ("occupancy", "1.0")
    assert err == f"error: {path}: {field} must be finite and within [0.0, {high}]\n"


def lift_error(monkeypatch, capsys, tmp_path, priors):
    """Bottom-up `panrec lift`'s exit code and its one-line stderr."""
    code, err = entry_result(monkeypatch, capsys, "lift", priors, "--out", tmp_path / "f.bin")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "f.bin").exists()
    return code, err


def test_lift_rejects_a_prior_with_another_camera_and_planes(tmp_path, monkeypatch, capsys):
    _, priors, _, _ = build_chain(tmp_path)
    cont = read_container(priors / "mp_occupancy.bin", "multiplane")
    rewrite(priors / "mp_occupancy.bin", "multiplane",
            intrinsics=dataclasses.replace(cont.intrinsics, fx=2 * cont.intrinsics.fx),
            planes=dataclasses.replace(cont.planes, z_far=9.0))
    code, err = lift_error(monkeypatch, capsys, tmp_path, priors)
    assert code == 1
    assert err.startswith(f"error: {priors / 'mp_occupancy.bin'}: intrinsics ")


def test_lift_rejects_a_heatmap_of_kind_depth(tmp_path, monkeypatch, capsys):
    _, priors, _, _ = build_chain(tmp_path)
    rewrite(priors / "heatmap.bin", "heatmap", new_kind="depth")
    code, err = lift_error(monkeypatch, capsys, tmp_path, priors)
    assert code == 1
    assert err == f"error: {priors / 'heatmap.bin'}: kind is 'depth', expected 'heatmap'\n"


def test_lift_names_a_truncated_prior_file(tmp_path, monkeypatch, capsys):
    _, priors, _, _ = build_chain(tmp_path)
    path = priors / "heatmap.bin"
    path.write_bytes(path.read_bytes()[:-8])
    code, err = lift_error(monkeypatch, capsys, tmp_path, priors)
    assert code == 1
    payload = 32 * 32 * 8
    assert err == (f"error: {path}: payload length {payload - 8} != expected {payload} "
                   "(field dims/channels)\n")


@pytest.mark.parametrize("option, value", [("--w-semantic2d", "nan"), ("--w-offset3d", "inf")])
def test_loss_rejects_a_weight_that_is_not_finite(tmp_path, monkeypatch, capsys, option, value):
    # checked before the scene or the priors are read, so no directory needs to hold them
    code, err = entry_result(monkeypatch, capsys, "loss", tmp_path, tmp_path, option, value)
    field = option.removeprefix("--w-")
    assert (code, err) == (1, f"error: weight {field} must be finite and nonnegative\n")


@pytest.mark.parametrize("case", ["manifest", "manifest-and-header", "frame"])
def test_loss_rejects_a_scene_of_another_camera_or_frame(tmp_path, monkeypatch, capsys, case):
    # 32^3 seed-3 priors against a seed-4 scene whose manifest (and header) say
    # fx 64 and z_far 9.0, or against a 16^3 scene
    _, priors, _, _ = build_chain(tmp_path)
    scene = tmp_path / "other"
    size = "16" if case == "frame" else "32"
    run("synth", "--seed", "4", "--out", str(scene), "--width", size, "--height", size,
        "--planes", size, "--things", "3", "--min-separation", "8")
    manifest = json.loads((scene / "manifest.json").read_text())
    manifest["intrinsics"]["fx"], manifest["planes"]["z_far"] = 64.0, 9.0
    if case != "frame":
        (scene / "manifest.json").write_text(json.dumps(manifest))
    if case == "manifest-and-header":
        rewrite(scene / "panoptic.bin", "panoptic-volume",
                intrinsics=containers.manifest_intrinsics(manifest),
                planes=containers.manifest_planes(manifest))
    code, err = entry_result(monkeypatch, capsys, "loss", scene, priors)
    assert code == 1 and err.count("\n") == 1, err
    named, field = {"manifest": (scene / "panoptic.bin", "intrinsics"),
                    "manifest-and-header": (priors / "semantics2d.bin", "intrinsics"),
                    "frame": (priors / "semantics2d.bin", "frame")}[case]
    assert err.startswith(f"error: {named}: {field} ") and "differs from" in err


@pytest.mark.parametrize("field", ["intrinsics", "planes"])
def test_eval_rejects_pred_and_gt_of_another_camera_or_planes(tmp_path, monkeypatch, capsys,
                                                             field):
    scene, priors, _, pred = build_chain(tmp_path)
    gt = scene / "panoptic.bin"
    cont = read_container(gt, "panoptic-volume")
    other = {"intrinsics": dataclasses.replace(cont.intrinsics, fx=64.0),
             "planes": dataclasses.replace(cont.planes, z_far=9.0)}[field]
    rewrite(gt, "panoptic-volume", **{field: other})
    code, err = entry_result(monkeypatch, capsys, "eval", pred, gt, "--categories-from",
                             priors / "manifest.json")
    assert code == 1 and err.count("\n") == 1, err
    assert err.startswith(f"error: {gt}: {field} ") and f"differs from {pred}'s" in err


def small_scene_dir(tmp_path):
    scene = tmp_path / "scene"
    run("synth", "--seed", "3", "--out", str(scene), "--width", "16", "--height", "16",
        "--planes", "16", "--things", "2", "--min-separation", "4")
    return scene


def test_eval_names_a_panoptic_file_whose_camera_is_not_finite(tmp_path, monkeypatch, capsys):
    # fx = NaN in the header: it is not a camera, so no comparison of two of them runs
    scene = small_scene_dir(tmp_path)
    path = tmp_path / "nan.bin"
    data = bytearray((scene / "panoptic.bin").read_bytes())
    struct.pack_into("<d", data, struct.calcsize("<4sHBBHB3IBIII"), float("nan"))
    path.write_bytes(bytes(data))
    code, err = entry_result(monkeypatch, capsys, "eval", path, path, "--categories-from",
                             scene / "manifest.json")
    assert (code, err) == (
        1, f"error: {path}: invalid intrinsics: focal length fx must be finite and positive\n")


@pytest.mark.parametrize("command", ["eval", "derive-priors"])
def test_a_category_without_an_id_is_one_error_line_naming_the_manifest(
        tmp_path, monkeypatch, capsys, command):
    scene = small_scene_dir(tmp_path)
    path = scene / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["categories"][1]["id"]
    path.write_text(json.dumps(manifest))
    args = {"eval": ["eval", scene / "panoptic.bin", scene / "panoptic.bin",
                     "--categories-from", path],
            "derive-priors": ["derive-priors", scene, "--out", tmp_path / "p"]}[command]
    code, err = entry_result(monkeypatch, capsys, *args)
    assert (code, err) == (1, f"error: manifest {path}: categories must be objects with a "
                              "boolean is_thing and integer ids contiguous from 0\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_derive_priors_rejects_a_depth_sigma_that_is_not_finite(tmp_path, monkeypatch, capsys,
                                                                value):
    scene = small_scene_dir(tmp_path)
    code, err = entry_result(monkeypatch, capsys, "derive-priors", scene, "--out",
                             tmp_path / "p", "--depth-sigma", value)
    assert (code, err) == (1, "error: noise magnitudes must be finite and nonnegative\n")
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("command", ["eval-pred", "eval-gt", "derive-priors", "loss"])
def test_a_malformed_panoptic_file_is_one_error_line_naming_it(tmp_path, monkeypatch, capsys,
                                                               command):
    # instance id 5 written onto one stuff cell of the scene's panoptic.bin
    scene, priors, _, pred = build_chain(tmp_path)
    path = scene / "panoptic.bin"
    cont = read_container(path, "panoptic-volume")
    stuff = ~np.asarray(containers.manifest_categories(
        read_manifest(scene / "manifest.json")).is_thing)[cont.array[..., 0]]
    array = cont.array.copy()
    array[tuple(np.argwhere(stuff & (cont.array[..., 0] != 0))[0]) + (1,)] = 5
    containers.write_container(path, "panoptic-volume", array, cont.frame, cont.intrinsics,
                               cont.planes)
    categories = ["--categories-from", scene / "manifest.json"]
    args = {"eval-pred": ["eval", path, pred, *categories],
            "eval-gt": ["eval", pred, path, *categories],
            "derive-priors": ["derive-priors", scene, "--out", tmp_path / "p2"],
            "loss": ["loss", scene, priors]}[command]
    code, err = entry_result(monkeypatch, capsys, *args)
    assert code == 1
    assert err == f"error: {path}.instances: instance id on a stuff or void cell\n"


@pytest.mark.parametrize("command, manifest_dir, name", [
    ("derive-priors", "scene", "panoptic"),
    ("lift", "priors", "heatmap"),
    ("lift-top-down", "priors", "instances2d"),
    ("group", "priors", "offsets3d"),
    ("loss", "priors", "mp_occupancy"),
])
def test_missing_manifest_entry_is_one_error_line(tmp_path, monkeypatch, capsys, command,
                                                  manifest_dir, name):
    scene, priors, feats, _ = build_chain(tmp_path, size=16)
    path = tmp_path / manifest_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["files"][name]
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out.bin"
    args = {"derive-priors": ["derive-priors", scene, "--out", tmp_path / "p2"],
            "lift": ["lift", priors, "--out", out],
            "lift-top-down": ["lift", priors, "--out", out, "--mode", "top-down"],
            "group": ["group", feats, priors, "--out", out],
            "loss": ["loss", scene, priors]}[command]
    code, err = entry_result(monkeypatch, capsys, *args)
    assert code == 1
    assert err == f"error: manifest {path} has no files entry {name!r}\n"


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
    # usage errors exit 2, as in click's standalone mode; runtime failures exit 1
    for args, code in (
        (["eval", "missing.bin", "missing.bin", "--categories-from", "missing.json"], 2),
        (["synth", "--out", "scene", "--bogus"], 2),
        (["synth", "--width", "4", "--height", "4", "--planes", "4", "--out", "scene"], 1),
    ):
        proc = subprocess.run([sys.executable, "-m", "panrec.cli", *args],
                              capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == code, (args, proc.stderr)
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


def readme_cli_lines():
    """The `panrec` command lines of the README's CLI block."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("panrec ")]


def test_readme_cli_block_parses(monkeypatch):
    # Parse each line as `panrec` would, with every command's body replaced by
    # a no-op, and without checking that the paths exist.
    for command in main.commands.values():
        monkeypatch.setattr(command, "callback", lambda **kwargs: None)
    monkeypatch.setattr(click.Path, "convert", lambda self, value, param, ctx: value)
    parse = lambda line: main.main(shlex.split(line)[1:], "panrec", standalone_mode=False)
    lines = readme_cli_lines()
    assert len(lines) == 9 and lines[0] == "panrec demo"
    for line in lines:
        parse(line)
    for wrong in ("panrec lift priors/ --output features.bin", "panrec loss scene/",
                  "panrec lift priors/ --out f.bin --mode sideways", "panrec ablate",
                  "panrec bench"):
        with pytest.raises(click.UsageError):
            parse(wrong)


def entry_result(monkeypatch, capsys, *args):
    """`panrec ARGS` through the console entry point: exit code and stderr."""
    monkeypatch.setattr(sys, "argv", ["panrec", *map(str, args)])
    with pytest.raises(SystemExit) as exited:
        entry()
    return exited.value.code, capsys.readouterr().err


def corrupt_priors_dir(priors, field, kind):
    """Overwrite one prior file in `priors` with a corrupted array, or corrupt
    the manifest's center ids."""
    if field == "centers":
        path = priors / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["centers"][-1][3] = 0 if kind == "id-0" else manifest["centers"][0][3]
        path.write_text(json.dumps(manifest))
        return
    name = {"semantics": "semantics2d"}.get(field, field)
    path = priors / f"{name}.bin"
    cont = read_container(path, PRIOR_KINDS[name])
    array = cont.array.copy()
    if kind == "times-3":
        array *= 3.0
    else:
        array[2:4, 3:5] = {"nan": np.nan, "negative": -0.25, "above-1": 1.5}[kind]
    containers.write_container(path, PRIOR_KINDS[name], array, cont.frame, cont.intrinsics,
                               cont.planes)


@pytest.mark.parametrize("field, kind", [
    ("semantics", "nan"), ("semantics", "negative"), ("depth", "negative"),
    ("mp_occupancy", "nan"), ("mp_occupancy", "times-3"), ("heatmap", "above-1"),
    ("centers", "id-0"), ("centers", "duplicate-id"),
])
def test_lift_and_loss_reject_a_corrupt_bundle_with_one_error_line(
        tmp_path, monkeypatch, capsys, field, kind):
    scene, priors, _, _ = build_chain(tmp_path, size=16)
    corrupt_priors_dir(priors, field, kind)
    for args in (["lift", priors, "--out", tmp_path / "bad.bin"],
                 ["loss", scene, priors]):
        code, err = entry_result(monkeypatch, capsys, *args)
        assert code == 1
        assert err.startswith(f"error: {field}") and err.count("\n") == 1, err
    assert not (tmp_path / "bad.bin").exists()


def test_commands_read_only_the_prior_files_they_use(tmp_path, monkeypatch):
    scene, priors, feats, _ = build_chain(tmp_path, size=16)
    read = []
    read_file = containers.read_container
    monkeypatch.setattr(containers, "read_container",
                        lambda path, kind: read.append(Path(path).name) or read_file(path, kind))
    bundle = ["semantics2d.bin", "depth.bin", "heatmap.bin", "mp_occupancy.bin"]
    for args, files in (
        (["lift", priors, "--out", tmp_path / "f.bin"], bundle),
        (["lift", priors, "--out", tmp_path / "t.bin", "--mode", "top-down"],
         ["depth.bin", "instances2d.bin"]),
        (["group", feats, priors, "--out", tmp_path / "p.bin"],
         ["offsets3d.bin", "features.bin", "features_occupancy.bin"]),
        (["loss", scene, priors], ["panoptic.bin", *bundle, "offsets3d.bin"]),
    ):
        read.clear()
        run(*map(str, args))
        assert read == files


def test_each_command_validates_its_bundle_once(tmp_path, monkeypatch):
    scene, priors, feats, _ = build_chain(tmp_path, size=16)
    calls = []
    validate = Priors2D.validate
    monkeypatch.setattr(Priors2D, "validate",
                        lambda self, *a: calls.append(self) or validate(self, *a))
    for args, count in (
        (["lift", priors, "--out", tmp_path / "f.bin"], 1),
        # the top-down lift is the bottom-up lift of a bundle it builds
        (["lift", priors, "--out", tmp_path / "t.bin", "--mode", "top-down"], 1),
        (["group", feats, priors, "--out", tmp_path / "p.bin"], 0),
        (["loss", scene, priors], 1),
        (["demo", "--seed", "3"], 1),
    ):
        calls.clear()
        run(*map(str, args))
        assert len(calls) == count, args


def test_each_volume_is_validated_once(tmp_path, monkeypatch):
    # A volume's constructor applies the rule, and nothing applies it again:
    # a command or a step runs it once per volume it builds or reads.
    scene, priors, feats, pred = build_chain(tmp_path, size=16)
    cfg = SynthConfig(seed=3, width=16, height=16, planes=16, n_things=3,
                      min_center_separation=8.0)
    gt = generate_scene(cfg)
    bundle = derive_priors(gt)
    calls = []
    validate = PanopticVolume.validate
    monkeypatch.setattr(PanopticVolume, "validate",
                        lambda self, *a: calls.append(self) or validate(self, *a))
    for step, count in (
        (["synth", "--seed", "3", "--out", tmp_path / "again", "--width", "16",
          "--height", "16", "--planes", "16", "--things", "3"], 1),
        (["derive-priors", scene, "--out", tmp_path / "derived"], 1),
        (["lift", priors, "--out", tmp_path / "f.bin"], 0),
        (["group", feats, priors, "--out", tmp_path / "p.bin"], 1),
        (["eval", pred, scene / "panoptic.bin", "--categories-from", scene / "manifest.json"], 2),
        (["loss", scene, priors], 1),
        (["demo", "--seed", "3"], 2),
        (lambda: generate_scene(cfg), 1),
        (lambda: reconstruct_from_priors(bundle, gt.frame, gt.intrinsics, gt.planes,
                                         gt.categories), 1),
        (lambda: prq(gt.volume, gt.volume), 0),
    ):
        calls.clear()
        step() if callable(step) else run(*map(str, step))
        assert len(calls) == count, step
        assert len({id(volume) for volume in calls}) == count, step


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), width=st.integers(6, 24), height=st.integers(6, 24),
       planes=st.integers(3, 24), things=st.integers(0, 4), stuff=st.integers(0, 2),
       separation=st.floats(0.0, 8.0), occlusion=st.booleans())
def test_cli_chain_writes_the_in_process_reconstruction(
        tmp_path_factory, seed, width, height, planes, things, stuff, separation, occlusion):
    try:
        scene = generate_scene(SynthConfig(
            seed=seed, width=width, height=height, planes=planes, n_things=things,
            n_stuff=stuff, min_center_separation=separation, occlusion_allowed=occlusion))
    except SynthError:
        reject()
    volume = reconstruct_from_priors(derive_priors(scene), scene.frame, scene.intrinsics,
                                     scene.planes, scene.categories)
    tmp = tmp_path_factory.mktemp("chain")
    run("synth", "--seed", str(seed), "--out", str(tmp / "scene"), "--width", str(width),
        "--height", str(height), "--planes", str(planes), "--things", str(things),
        "--stuff", str(stuff), "--min-separation", repr(separation),
        "--occlusion" if occlusion else "--no-occlusion")
    run("derive-priors", str(tmp / "scene"), "--out", str(tmp / "priors"))
    run("lift", str(tmp / "priors"), "--out", str(tmp / "features.bin"))
    run("group", str(tmp / "features.bin"), str(tmp / "priors"), "--out", str(tmp / "pred.bin"))
    containers.write_panoptic(tmp / "in_process.bin", volume, scene.intrinsics, scene.planes)
    assert (tmp / "pred.bin").read_bytes() == (tmp / "in_process.bin").read_bytes()
