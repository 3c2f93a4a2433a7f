"""The benchmark's workloads: how one scene is produced, and how its output is
checked.

Each workload is a closed loop with a single caller: the next scene starts
only after the previous one has finished and been checked. `produce` is the
timed part and calls into panrec through module attributes (for example
`pipeline.reconstruct_from_priors`), so the tracer can wrap those attributes.
`check` runs outside the timed region and returns the scene's PRQ, a sha256
digest of its outputs and a list of problems (empty when the output is right).
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import panrec.cli
from panrec import containers, metrics, pipeline, priors, synth


@dataclass(frozen=True)
class Workload:
    name: str
    size: str            # stated input size, printed with every run
    scenes: int          # fixed length of the seed list
    produce: Callable    # (seed, workdir) -> output; timed
    check: Callable      # (seed, output, workdir) -> (prq, digest, problems)


def _volume_digest(volume) -> str:
    h = hashlib.sha256()
    h.update(volume.semantics.tobytes())
    h.update(volume.instances.tobytes())
    return h.hexdigest()


def _check_in_process(output, exact_prq: bool):
    pred, report = output
    problems = []
    try:
        pred.validate()
    except ValueError as exc:
        problems.append(f"invalid predicted volume: {exc}")
    if exact_prq and report.prq != 1.0:
        problems.append(f"PRQ {report.prq!r} != 1.0 on ground-truth priors")
    if not 0.0 <= report.prq <= 1.0:
        problems.append(f"PRQ {report.prq!r} outside [0, 1]")
    return report.prq, _volume_digest(pred), problems


# clean-128 ------------------------------------------------------------------

def _clean_128(seed, _workdir):
    cfg = synth.SynthConfig(seed=seed, width=128, height=128, planes=128,
                            n_thing_categories=8)
    scene = synth.generate_scene(cfg)
    bundle = priors.derive_priors(scene)
    pred = pipeline.reconstruct_from_priors(
        bundle, scene.frame, scene.intrinsics, scene.planes, scene.categories
    )
    return pred, metrics.prq(pred, scene.volume)


# crowded-noisy-96 -------------------------------------------------------------

CROWDED_NOISE = synth.NoiseSpec(depth_sigma=0.05, semantic_flip=0.05,
                                occupancy_flip=0.02, center_jitter=2)


def _crowded_noisy_96(seed, _workdir):
    cfg = synth.SynthConfig(seed=seed, width=96, height=96, planes=96,
                            n_things=16, min_center_separation=8.0)
    scene = synth.generate_scene(cfg)
    bundle = priors.derive_priors(scene)
    bundle = synth.perturb_priors(bundle, CROWDED_NOISE, seed, scene.planes)
    centers = priors.extract_centers(bundle.heatmap, bundle.semantics)
    bundle = dataclasses.replace(bundle, centers=centers)
    pred = pipeline.reconstruct_from_priors(
        bundle, scene.frame, scene.intrinsics, scene.planes, scene.categories
    )
    return pred, metrics.prq(pred, scene.volume)


# cli-64 -----------------------------------------------------------------------

def _cli_commands(seed):
    """The README pipeline for one scene, as `panrec` argument lists."""
    return [
        ["synth", "--seed", str(seed), "--out", "scene"],
        ["derive-priors", "scene", "--out", "priors"],
        ["lift", "priors", "--out", "features.bin"],
        ["group", "features.bin", "priors", "--out", "pred.bin", "--mesh", "scene.obj"],
        ["eval", "pred.bin", "scene/panoptic.bin",
         "--categories-from", "scene/manifest.json", "--record", "prq.txt"],
        ["loss", "scene", "priors", "--record", "losses.txt"],
    ]


@contextlib.contextmanager
def _inside(workdir):
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(previous)


def _cli_64(seed, workdir):
    workdir.mkdir()
    with _inside(workdir), contextlib.redirect_stdout(io.StringIO()):
        for args in _cli_commands(seed):
            panrec.cli.main.main(args=args, prog_name="panrec", standalone_mode=False)
    return None


def _read_records(path: Path) -> dict:
    return {k: float(v) for k, v in (line.split() for line in path.read_text().splitlines())}


def _check_cli(_seed, _output, workdir):
    problems = []
    h = hashlib.sha256()
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(workdir)).encode() + b"\0")
        h.update(path.read_bytes())
    manifest = containers.read_manifest(workdir / "scene" / "manifest.json")
    categories = containers.manifest_categories(manifest)
    pred = containers.read_panoptic(workdir / "pred.bin", categories)
    gt = containers.read_panoptic(workdir / "scene" / "panoptic.bin", categories)
    value = metrics.prq(pred, gt).prq
    recorded = (workdir / "prq.txt").read_text().split("\n")[0]
    if recorded != f"prq {value:.6f}":
        problems.append(f"eval --record says {recorded!r}, read-back PRQ is {value!r}")
    if value != 1.0:
        problems.append(f"PRQ {value!r} != 1.0 on ground-truth priors")
    losses = _read_records(workdir / "losses.txt")
    if not all(v == v and abs(v) != float("inf") for v in losses.values()):
        problems.append(f"non-finite loss record: {losses}")
    return value, h.hexdigest(), problems


WORKLOADS = {
    w.name: w
    for w in [
        # Top grid size with GT priors: the dense lifted tensor, mask/assemble
        # and PRQ extraction dominate; no losses, mesh or container code runs.
        Workload(
            name="clean-128",
            size="128x128x128 frustum, 11 categories, 4 things",
            scenes=16,
            produce=_clean_128,
            check=lambda seed, out, _w: _check_in_process(out, exact_prq=True),
        ),
        # Many instances and corrupted priors: synth placement, the peak loop in
        # extract_centers and grouping against 16 centers dominate.
        Workload(
            name="crowded-noisy-96",
            size="96x96x96 frustum, 7 categories, 16 things, noisy priors",
            scenes=26,
            produce=_crowded_noisy_96,
            check=lambda seed, out, _w: _check_in_process(out, exact_prq=False),
        ),
        # The README command pipeline: the only workload that runs containers,
        # mesh export and the TSDF losses.
        Workload(
            name="cli-64",
            size="64x64x64 frustum, 7 categories, 4 things, 6 CLI commands",
            scenes=26,
            produce=_cli_64,
            check=_check_cli,
        ),
    ]
}
