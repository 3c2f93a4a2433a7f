"""Command-line surface: scene synthesis, prior derivation, lifting, grouping,
evaluation, loss reports, and an end-to-end demo."""
from __future__ import annotations

import re
import sys
from pathlib import Path

import click
import numpy as np

from . import containers as C
from .lifting import (FeatureVolume, lift_instances_topdown, lift_priors, lifted_occupancy,
                      occupancy_aware_lift)
from .losses import (
    LossWeights,
    loss_3d,
    loss_depth,
    loss_mp_occupancy,
    loss_panoptic2d,
    tsdf_from_occupancy,
)
from .mesh import export_obj
from .metrics import prq
from .pipeline import reconstruct_from_priors
from .priors import Priors2D, SceneGT, checked_centers, derive_instance_map2d, derive_priors
from .reconstruction import ReconstructionError, identity_refine, reconstruct
from .synth import NoiseSpec, SynthConfig, generate_scene, perturb_priors


@click.group()
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads; results are identical for any value.")
def main(threads):
    """Deterministic bottom-up panoptic 3D reconstruction toolkit."""


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


# The prior files that `derive-priors` writes, `<name>.bin` each: name -> kind.
PRIOR_KINDS = {
    "semantics2d": "semantic-volume", "depth": "depth", "heatmap": "heatmap",
    "mp_occupancy": "multiplane", "offsets3d": "offsets", "instances2d": "panoptic-volume",
}


def _load_scene(scene_dir: Path):
    """A scene's ground truth and panoptic file, whose header has the manifest's camera, planes."""
    manifest = C.read_manifest(scene_dir / "manifest.json", ["panoptic"])
    path = scene_dir / manifest["files"]["panoptic"]
    cont = C.read_container(path, "panoptic-volume")
    scene = SceneGT(C.panoptic_volume(path, cont, C.manifest_categories(manifest)),
                    C.manifest_intrinsics(manifest), C.manifest_planes(manifest))
    C.check_shared([(scene_dir / "manifest.json", scene), (path, cont)])
    return scene, path


def _write_scene(scene: SceneGT, out_dir: Path, generator=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    C.write_panoptic(out_dir / "panoptic.bin", scene.volume, scene.intrinsics, scene.planes)
    manifest = C.manifest_dict(
        scene.intrinsics, scene.planes, scene.categories, [],
        files={"panoptic": "panoptic.bin"}, generator=generator,
    )
    C.write_manifest(out_dir / "manifest.json", manifest)


def _write_priors(priors: Priors2D, scene: SceneGT, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays = {
        "semantics2d": priors.semantics, "depth": priors.depth, "heatmap": priors.heatmap,
        "mp_occupancy": priors.mp_occupancy, "offsets3d": priors.offsets3d,
        "instances2d": derive_instance_map2d(scene),
    }
    for name, kind in PRIOR_KINDS.items():
        C.write_container(out_dir / f"{name}.bin", kind, arrays[name], scene.frame,
                          scene.intrinsics, scene.planes)
    manifest = C.manifest_dict(scene.intrinsics, scene.planes, scene.categories,
                               priors.centers, files={n: f"{n}.bin" for n in PRIOR_KINDS})
    C.write_manifest(out_dir / "manifest.json", manifest)


def _read_priors(priors_dir: Path, *names, also=(), like=()):
    """A prior directory's manifest and the containers of the named prior files
    only, then of `also`, (path, kind) pairs; all share one frame, camera, planes
    with `like`, (path, header) pairs read before."""
    manifest = C.read_manifest(priors_dir / "manifest.json", names)
    files = [*((priors_dir / manifest["files"][n], PRIOR_KINDS[n]) for n in names), *also]
    return manifest, C.read_containers(files, like)


def _load_priors(priors_dir: Path, offsets: bool, like=()):
    """A prior bundle (offsets3d only if `offsets`) and its depth's frame, camera, planes."""
    names = ("semantics2d", "depth", "heatmap", "mp_occupancy") + ("offsets3d",) * offsets
    manifest, read = _read_priors(priors_dir, *names, like=like)
    semantics, depth, heatmap, mp_occupancy = read[:4]
    priors = Priors2D(semantics=semantics.array, depth=depth.array,
                      centers=C.manifest_centers(manifest), heatmap=heatmap.array,
                      mp_occupancy=mp_occupancy.array, offsets3d=read[4].array if offsets else None)
    return priors, depth.frame, depth.intrinsics, depth.planes


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--width", type=int, default=64, show_default=True)
@click.option("--height", type=int, default=64, show_default=True)
@click.option("--planes", type=int, default=64, show_default=True)
@click.option("--things", type=int, default=4, show_default=True)
@click.option("--stuff", type=int, default=2, show_default=True)
@click.option("--min-separation", type=float, default=10.0, show_default=True)
@click.option("--occlusion/--no-occlusion", default=False, show_default=True)
def synth(seed, out_dir, width, height, planes, things, stuff, min_separation, occlusion):
    """Generate a seeded ground-truth scene into OUT."""
    cfg = SynthConfig(
        seed=seed, width=width, height=height, planes=planes,
        n_things=things, n_stuff=stuff, min_center_separation=min_separation,
        occlusion_allowed=occlusion,
    )
    scene = generate_scene(cfg)
    _write_scene(scene, out_dir, generator={"seed": seed, "width": width,
                                            "height": height, "planes": planes,
                                            "things": things, "stuff": stuff})
    click.echo(f"wrote scene to {out_dir}")


@main.command("derive-priors")
@click.argument("scene_dir", type=click.Path(exists=True, path_type=Path))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--noise-seed", type=int, default=0, show_default=True)
@click.option("--depth-sigma", type=float, default=0.0, show_default=True)
@click.option("--semantic-flip", type=float, default=0.0, show_default=True)
@click.option("--occupancy-flip", type=float, default=0.0, show_default=True)
@click.option("--center-jitter", type=int, default=0, show_default=True)
def derive_priors_cmd(scene_dir, out_dir, noise_seed, depth_sigma,
                      semantic_flip, occupancy_flip, center_jitter):
    """Derive GT priors (optionally perturbed) from a scene directory."""
    scene, _path = _load_scene(scene_dir)
    priors = derive_priors(scene)
    noise = NoiseSpec(depth_sigma=depth_sigma, semantic_flip=semantic_flip,
                      occupancy_flip=occupancy_flip, center_jitter=center_jitter)
    priors = perturb_priors(priors, noise, noise_seed, scene.planes)
    _write_priors(priors, scene, out_dir)
    click.echo(f"wrote priors to {out_dir}")


def _assignment_seed(_ctx, _param, value):
    """`--assignment`: 'category' -> None, 'random:SEED' -> SEED, an integer >= 0."""
    if value == "category":
        return None
    if match := re.fullmatch(r"random:([0-9]+)", value):
        return int(match.group(1))
    raise click.BadParameter(f"{value!r} is not 'category' or 'random:SEED', SEED an integer >= 0")


@main.command()
@click.argument("priors_dir", type=click.Path(exists=True, path_type=Path))
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--mode", type=click.Choice(["bottom-up", "top-down"]),
              default="bottom-up", show_default=True)
@click.option("--assignment", "seed", default="category", callback=_assignment_seed,
              show_default=True, help="Top-down channel assignment: 'category' or 'random:SEED'.")
@click.option("--n-channels", type=click.IntRange(min=1), default=16, show_default=True)
def lift(priors_dir, out_path, mode, seed, n_channels):
    """Lift a prior bundle to a 3D feature volume container."""
    if mode == "bottom-up":
        ctx = click.get_current_context()
        for name, option in (("seed", "--assignment"), ("n_channels", "--n-channels")):
            if ctx.get_parameter_source(name) is click.core.ParameterSource.COMMANDLINE:
                raise click.UsageError(f"{option} applies only to --mode top-down", ctx)
        priors, frame, intr, planes = _load_priors(priors_dir, offsets=False)
        fv = occupancy_aware_lift(priors, frame, intr, planes)
    else:
        manifest, (depth, inst) = _read_priors(priors_dir, "depth", "instances2d")
        frame, intr, planes = depth.frame, depth.intrinsics, depth.planes
        things = np.flatnonzero(C.manifest_categories(manifest).is_thing)
        if not np.isin(inst.array[..., 0][inst.array[..., 1] > 0], things).all():
            _fail(f"{priors_dir / manifest['files']['instances2d']}: an instance's category "
                  "is not a thing category of the manifest's table")
        fv = lift_instances_topdown(inst.array, depth.array, frame, intr, planes, seed, n_channels)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    C.write_container(out_path, "feature-volume", fv.features, frame, intr, planes)
    occ_path = out_path.with_name(out_path.stem + "_occupancy.bin")
    C.write_container(occ_path, "multiplane", fv.occupancy, frame, intr, planes)
    click.echo(f"wrote {out_path} and {occ_path}")


@main.command()
@click.argument("features_path", type=click.Path(exists=True, path_type=Path))
@click.argument("priors_dir", type=click.Path(exists=True, path_type=Path))
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--occ-threshold", type=float, default=0.5, show_default=True)
@click.option("--mesh", "mesh_path", type=click.Path(path_type=Path), default=None)
def group(features_path, priors_dir, out_path, occ_threshold, mesh_path):
    """Group a lifted/refined volume into a panoptic volume container."""
    occ_path = features_path.with_name(features_path.stem + "_occupancy.bin")
    manifest, (offsets, features, occ) = _read_priors(
        priors_dir, "offsets3d",
        also=[(features_path, "feature-volume"), (occ_path, "multiplane")])
    intr, planes = offsets.intrinsics, offsets.planes
    categories = C.manifest_categories(manifest)
    centers = checked_centers(C.manifest_centers(manifest))
    if features.array.shape[-1] != len(categories):
        _fail(f"{features_path}: channels {features.array.shape[-1]} != "
              f"{len(categories)} categories in the priors' manifest")
    lifted = FeatureVolume(features.frame, features.array, occ.array)
    try:
        refined = identity_refine(lifted, offsets.array)
    except ReconstructionError as exc:  # it names features or occupancy first
        _fail(f"{features_path if str(exc).startswith('features') else occ_path}: {exc}")
    volume = reconstruct(refined, centers, intr, categories, occ_threshold)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    C.write_panoptic(out_path, volume, intr, planes)
    if mesh_path is not None:
        export_obj(volume, mesh_path)
    click.echo(f"wrote {out_path}")


def _format_report(report):
    lines = []
    header = f"{'category':>10} {'PRQ':>8} {'RSQ':>8} {'RRQ':>8} {'TP':>4} {'FP':>4} {'FN':>4}"
    lines.append(header)
    for k in report.categories:
        s = report.per_category[k]
        lines.append(f"{k:>10} {100*s.prq:8.2f} {100*s.rsq:8.2f} {100*s.rrq:8.2f} "
                     f"{s.tp:>4} {s.fp:>4} {s.fn:>4}")
    lines.append(f"{'all':>10} {100*report.prq:8.2f} {100*report.rsq:8.2f} {100*report.rrq:8.2f}")
    lines.append(f"{'things':>10} {100*report.prq_things:8.2f} {100*report.rsq_things:8.2f} "
                 f"{100*report.rrq_things:8.2f}")
    lines.append(f"{'stuff':>10} {100*report.prq_stuff:8.2f} {100*report.rsq_stuff:8.2f} "
                 f"{100*report.rrq_stuff:8.2f}")
    return "\n".join(lines)


@main.command("eval")
@click.argument("pred_path", type=click.Path(exists=True, path_type=Path))
@click.argument("gt_path", type=click.Path(exists=True, path_type=Path))
@click.option("--iou-threshold", type=float, default=0.25, show_default=True)
@click.option("--record", "record_path", type=click.Path(path_type=Path), default=None)
@click.option("--categories-from", type=click.Path(exists=True, path_type=Path),
              required=True, help="Manifest supplying the category table.")
def eval_cmd(pred_path, gt_path, iou_threshold, record_path, categories_from):
    """Panoptic reconstruction quality of PRED against GT."""
    categories = C.manifest_categories(C.read_manifest(categories_from))
    paths = (pred_path, gt_path)
    pred, gt = (C.panoptic_volume(path, cont, categories) for path, cont in zip(
        paths, C.read_containers([(path, "panoptic-volume") for path in paths])))
    report = prq(pred, gt, iou_threshold)
    click.echo(_format_report(report))
    if record_path is not None:
        lines = [f"{k} {v:.6f}" for k, v in report.as_records().items()]
        Path(record_path).write_text("\n".join(lines) + "\n")


@main.command()
@click.argument("scene_dir", type=click.Path(exists=True, path_type=Path))
@click.argument("priors_dir", type=click.Path(exists=True, path_type=Path))
@click.option("--record", "record_path", type=click.Path(path_type=Path), default=None)
@click.option("--w-semantic2d", type=float, default=1.0, show_default=True)
@click.option("--w-center2d", type=float, default=1.0, show_default=True)
@click.option("--w-occupancy3d", type=float, default=1.0, show_default=True)
@click.option("--w-semantic3d", type=float, default=1.0, show_default=True)
@click.option("--w-offset3d", type=float, default=1.0, show_default=True)
def loss(scene_dir, priors_dir, record_path, w_semantic2d, w_center2d,
         w_occupancy3d, w_semantic3d, w_offset3d):
    """Loss report of a (possibly perturbed) prior bundle against scene GT."""
    weights = LossWeights(semantic2d=w_semantic2d, center2d=w_center2d,
                          occupancy3d=w_occupancy3d, semantic3d=w_semantic3d,
                          offset3d=w_offset3d)
    scene, scene_path = _load_scene(scene_dir)
    pred, frame, intr, planes = _load_priors(priors_dir, offsets=True, like=[(scene_path, scene)])
    gt_priors = derive_priors(scene)
    occupied, sem_pred, _labels = lift_priors(pred, frame, intr, planes)
    occ_pred = lifted_occupancy(occupied, frame)
    report2d = loss_panoptic2d(pred.semantics, gt_priors.semantics,
                               pred.heatmap, gt_priors.heatmap, weights)
    depth_term = loss_depth(pred.depth, gt_priors.depth)
    mp_term = loss_mp_occupancy(pred.mp_occupancy, gt_priors.mp_occupancy)
    occ_gt = scene.volume.occupancy
    report3d = loss_3d(
        sem_pred=sem_pred, offsets_pred=pred.offsets3d, occ_pred=occ_pred,
        tsdf_pred=tsdf_from_occupancy(occ_pred >= 0.5),
        sem_gt=scene.volume.semantics, offsets_gt=gt_priors.offsets3d, occ_gt=occ_gt,
        tsdf_gt=tsdf_from_occupancy(occ_gt), thing_mask=scene.volume.thing_mask(),
        weights=weights,
    )
    records = {}
    for prefix, rep in (("p2d", report2d), ("l3d", report3d)):
        for name, value in rep.terms.items():
            records[f"{prefix}_{name}"] = value
        records[f"{prefix}_total"] = rep.total
    records["depth"] = depth_term
    records["mp_occupancy"] = mp_term
    for name, value in records.items():
        click.echo(f"{name} {value:.6f}")
    if record_path is not None:
        Path(record_path).write_text(
            "".join(f"{k} {v:.9f}\n" for k, v in records.items())
        )


@main.command()
@click.option("--seed", type=int, default=7, show_default=True)
def demo(seed):
    """Synthesize, derive, lift, group, and evaluate one scene end to end."""
    cfg = SynthConfig(seed=seed)
    scene = generate_scene(cfg)
    priors = derive_priors(scene)
    volume = reconstruct_from_priors(priors, scene.frame, scene.intrinsics,
                                     scene.planes, scene.categories)
    report = prq(volume, scene.volume)
    click.echo(_format_report(report))
    click.echo(f"PRQ {100 * report.prq:.2f}")


def entry():
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:  # usage errors exit 2, as in click's standalone mode
        _fail(exc.format_message(), exc.exit_code)
    except click.Abort:
        sys.exit(130)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        _fail(str(exc))


if __name__ == "__main__":
    entry()
