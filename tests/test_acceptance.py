"""End-to-end acceptance checks. Each test prints one PASS/FAIL line; run with
`pytest tests/test_acceptance.py -s` to see them as they complete."""
import dataclasses
import time

import numpy as np
from click.testing import CliRunner

from panrec.cli import main as cli_main
from panrec.geometry import DepthPlanes, FrustumGrid, backproject, plane_index, project
from panrec.lifting import lift_instances_topdown, occupancy_aware_lift, surface_only_occupancy
from panrec.losses import (
    binary_cross_entropy,
    cross_entropy,
    loss_3d,
    tsdf_from_occupancy,
)
from panrec.metrics import extract_segments, match_segments, prq
from panrec.pipeline import reconstruct_from_priors
from panrec.priors import ThingOffsets, derive_instance_map2d, derive_priors
from panrec.reconstruction import (
    assemble_panoptic,
    group_instances,
    identity_refine,
    mask_by_occupancy,
)
from panrec.synth import NoiseSpec, SynthConfig, generate_scene, perturb_priors
from panrec.volume import CategoryTable, PanopticVolume
from conftest import rows_of


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_oracle_round_trip():
    t0 = time.perf_counter()
    ok = True
    for seed in range(50):
        cfg = SynthConfig(seed=seed, width=64, height=64,
                          planes=(32, 64, 128)[seed % 3],
                          n_things=2 + seed % 5, n_stuff=2,
                          min_center_separation=8.0)
        scene = generate_scene(cfg)
        priors = derive_priors(scene)
        lifted = occupancy_aware_lift(priors, scene.frame, scene.intrinsics, scene.planes)
        refined = identity_refine(lifted, priors.offsets3d)
        cells, labels, gate = mask_by_occupancy(refined)
        things = group_instances(cells, labels, gate, refined.offsets, priors.centers,
                                 scene.frame, scene.intrinsics, scene.categories)
        pred = assemble_panoptic(scene.frame, cells, labels, things, scene.categories)
        if not np.array_equal(pred.semantics, scene.volume.semantics):
            ok = False
        rep = prq(pred, scene.volume)
        if any(s.prq != 1.0 for s in rep.per_category.values()):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(1, f"oracle round trip, 50 scenes in {elapsed:.1f}s", ok)


def random_labeled_volume(rng, frame, cats):
    sem = np.zeros(frame.shape, np.int32)
    inst = np.zeros(frame.shape, np.int32)
    flat = sem.reshape(-1)
    iflat = inst.reshape(-1)
    for cat in (1, 2):
        n_seg = int(rng.integers(0, 5))
        for i in range(1, n_seg + 1):
            cells = rng.choice(flat.size, size=int(rng.integers(1, 20)),
                               replace=False)
            flat[cells] = cat
            iflat[cells] = i if cats.is_thing[cat] else 0
    return PanopticVolume(frame, sem, inst, cats)


def brute_force_match(preds, gts, threshold):
    """Exhaustive one-to-one matching maximizing (pair count, total IoU) over
    same-category segments, each given as (category, set of cells)."""
    cand = []
    for gi, (g_cat, g) in enumerate(gts):
        for pi, (p_cat, p) in enumerate(preds):
            if g_cat != p_cat:
                continue
            score = len(g & p) / len(g | p)
            if score >= threshold:
                cand.append((score, gi, pi))

    best = [0, -1.0]

    def recurse(i, used_g, used_p, count, total):
        if (count, total) > tuple(best):
            best[0], best[1] = count, total
        if i == len(cand):
            return
        recurse(i + 1, used_g, used_p, count, total)
        score, gi, pi = cand[i]
        if gi not in used_g and pi not in used_p:
            recurse(i + 1, used_g | {gi}, used_p | {pi}, count + 1, total + score)

    recurse(0, frozenset(), frozenset(), 0, 0.0)
    return best[0], max(best[1], 0.0)


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    frame = FrustumGrid(8, 8, 8)
    cats = CategoryTable((False, True, False))
    ok = True
    for _ in range(500):
        pred = random_labeled_volume(rng, frame, cats)
        gt = random_labeled_volume(rng, frame, cats)
        every_cell = np.arange(np.prod(frame.shape))
        pred_segs, pred_index = extract_segments(pred, every_cell)
        gt_segs, gt_index = extract_segments(gt, every_cell)
        pred_cells = [(s.category, set(np.flatnonzero(pred_index == i).tolist()))
                      for i, s in enumerate(pred_segs)]
        gt_cells = [(s.category, set(np.flatnonzero(gt_index == i).tolist()))
                    for i, s in enumerate(gt_segs)]
        overlap = np.array([[len(g & p) for _, p in pred_cells] for _, g in gt_cells],
                           dtype=np.int64).reshape(len(gt_cells), len(pred_cells))
        tp, fp, fn = match_segments(pred_segs, gt_segs, overlap)
        for cat in (1, 2):
            ps = [c for c in pred_cells if c[0] == cat]
            gs = [c for c in gt_cells if c[0] == cat]
            cat_tp = [t for t in tp if gt_segs[t[0]].category == cat]
            count, total = brute_force_match(ps, gs, 0.25)
            if len(cat_tp) != count or abs(sum(t[2] for t in cat_tp) - total) > 1e-12:
                ok = False
        rep = prq(pred, gt)
        for s in rep.per_category.values():
            if abs(s.prq - s.rsq * s.rrq) > 1e-12:
                ok = False
    report(2, "greedy matcher equals exhaustive on 1000 random volumes", ok)


def test_criterion_3_closed_form_losses():
    ok = True
    for c in (3, 7, 11):
        pred = np.full((10, 10, c), 1.0 / c)
        target = np.zeros((10, 10, c))
        target[..., 1] = 1.0
        ok &= abs(cross_entropy(pred, target) - np.log(c)) <= 1e-9
    half = np.full((10, 10), 0.5)
    ok &= abs(binary_cross_entropy(half, np.ones((10, 10))) - np.log(2)) <= 1e-9
    scene = generate_scene(SynthConfig(seed=1, width=32, height=32, planes=32,
                                       n_things=3, min_center_separation=8.0))
    priors = derive_priors(scene)
    occ = scene.volume.occupancy.astype(np.float64)
    sem = np.eye(len(scene.categories))[scene.volume.semantics]
    tsdf = tsdf_from_occupancy(scene.volume.occupancy)
    thing = scene.volume.thing_mask()
    base = loss_3d(rows_of(sem), priors.offsets3d, occ, tsdf, scene.volume.semantics,
                   priors.offsets3d, occ, tsdf, thing)
    ok &= base.total < 1e-5
    # each term responds only to its own perturbation
    perturbations = {
        "occupancy_bce": dict(occ_pred=np.clip(occ, 0.2, 0.8)),
        "tsdf_l1": dict(tsdf_pred=np.clip(tsdf + 0.5, -3, 3)),
        "semantic_ce": dict(sem_pred=rows_of(np.full_like(sem, 1 / sem.shape[-1]))),
        "offset_l1": dict(offsets_pred=ThingOffsets.of(priors.offsets3d.dense() + 1.0)),
    }
    for target_term, kwargs in perturbations.items():
        args = dict(sem_pred=rows_of(sem), offsets_pred=priors.offsets3d, occ_pred=occ,
                    tsdf_pred=tsdf, sem_gt=scene.volume.semantics, offsets_gt=priors.offsets3d,
                    occ_gt=occ, tsdf_gt=tsdf, thing_mask=thing)
        args.update(kwargs)
        rep = loss_3d(**args)
        for name, value in rep.terms.items():
            if name == target_term:
                ok &= value > 1e-3
            else:
                ok &= abs(value - base.terms[name]) <= 1e-9
    report(3, "closed-form loss values and term isolation", ok)


def test_criterion_4_instance_channel_ambiguity():
    ok = True
    rng = np.random.default_rng(4)
    for seed in range(20):
        cfg = SynthConfig(seed=seed, width=32, height=32, planes=32, n_things=3,
                          min_center_separation=8.0)
        scene = generate_scene(cfg)
        priors = derive_priors(scene)
        args = (scene.frame, scene.intrinsics, scene.planes)
        base = occupancy_aware_lift(priors, *args)
        # bottom-up: permuting the instance enumeration leaves the lift bytes
        # untouched (it never sees instance ids)
        perm = rng.permutation(np.arange(1, 4))
        relabeled = scene.volume.instances.copy()
        for old, new in zip((1, 2, 3), perm):
            relabeled[scene.volume.instances == old] = int(new)
        permuted_scene = dataclasses.replace(
            scene, volume=dataclasses.replace(scene.volume, instances=relabeled))
        p2 = derive_priors(permuted_scene)
        again = occupancy_aware_lift(p2, *args)
        ok &= base.features.tobytes() == again.features.tobytes()
        # top-down: random channel assignment is seed dependent but content
        # preserving
        inst_map = derive_instance_map2d(scene)
        a = lift_instances_topdown(inst_map, priors.depth, *args, 0, 16)
        b = lift_instances_topdown(inst_map, priors.depth, *args, 1, 16)
        ok &= not np.array_equal(a.features, b.features)
        ok &= sorted(a.features[..., c].tobytes() for c in range(16)) == \
            sorted(b.features[..., c].tobytes() for c in range(16))
    report(4, "lift invariant to instance enumeration, random channels differ", ok)


def test_criterion_5_degradation_monotonicity():
    sigmas = (0.0, 0.05, 0.1, 0.2)
    means = []
    for sigma in sigmas:
        scores = []
        for seed in range(20):
            scene = generate_scene(SynthConfig(seed=seed))
            priors = derive_priors(scene)
            if sigma > 0:
                priors = perturb_priors(priors, NoiseSpec(depth_sigma=sigma),
                                        seed=seed, planes=scene.planes)
            pred = reconstruct_from_priors(priors, scene.frame, scene.intrinsics,
                                           scene.planes, scene.categories)
            scores.append(prq(pred, scene.volume).prq)
        means.append(float(np.mean(scores)))
    steps_ok = all(means[i + 1] <= means[i] + 0.01 for i in range(3))
    drop_ok = means[-1] <= means[0] - 0.05
    report(5, f"PRQ degrades with depth noise {[f'{m:.3f}' for m in means]}",
           steps_ok and drop_ok)


def test_criterion_6_surface_only_is_worse():
    full_ious, surface_ious = [], []
    for seed in range(20):
        scene = generate_scene(SynthConfig(seed=seed, width=32, height=32,
                                           planes=32, n_things=3,
                                           min_center_separation=8.0))
        priors = derive_priors(scene)
        gt_occ = scene.volume.occupancy
        surface = dataclasses.replace(
            priors, mp_occupancy=surface_only_occupancy(priors.depth, scene.planes))
        for bundle, sink in ((priors, full_ious), (surface, surface_ious)):
            pred = reconstruct_from_priors(bundle, scene.frame, scene.intrinsics,
                                           scene.planes, scene.categories)
            occ = pred.occupancy
            sink.append((occ & gt_occ).sum() / (occ | gt_occ).sum())
    full_mean = float(np.mean(full_ious))
    surface_mean = float(np.mean(surface_ious))
    report(6, f"surface-only occupancy IoU {surface_mean:.3f} < full {full_mean:.3f}",
           surface_mean < full_mean)


def test_criterion_7_geometry_exactness():
    from panrec.geometry import CameraIntrinsics

    k = CameraIntrinsics(fx=60.0, fy=75.0, cx=63.5, cy=47.5, width=128, height=96)
    rng = np.random.default_rng(7)
    n = 100_000
    u = rng.uniform(0, k.width - 1, n)
    v = rng.uniform(0, k.height - 1, n)
    z = rng.uniform(0.4, 6.0, n)
    uu, vv, zz = project(backproject(u, v, z, k), k)
    ok = max(np.abs(uu - u).max(), np.abs(vv - v).max(), np.abs(zz - z).max()) < 1e-9
    for count in (1, 32, 64, 128):
        planes = DepthPlanes(count=count)
        m = np.arange(count)
        ok &= np.array_equal(plane_index(planes.center(m), planes), m)
    # TSDF against the O(n^2) definition on random 8^3 grids
    for _ in range(10):
        occ = rng.random((8, 8, 8)) < 0.3
        if not occ.any() or occ.all():
            continue
        ref = np.empty(occ.shape)
        occ_pts = np.argwhere(occ)
        free_pts = np.argwhere(~occ)
        for idx in np.ndindex(occ.shape):
            pts = free_pts if occ[idx] else occ_pts
            d = np.sqrt(((pts - idx) ** 2).sum(axis=1)).min()
            ref[idx] = -d if occ[idx] else d
        ref = np.clip(ref, -3.0, 3.0)
        ok &= np.allclose(tsdf_from_occupancy(occ), ref, atol=1e-9)
    report(7, "projection, plane index, and TSDF exactness", ok)


def test_criterion_8_determinism_and_performance(tmp_path):
    runner = CliRunner()
    dirs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        for cmd in (
            ["--threads", str(threads), "synth", "--seed", "6", "--out",
             str(out / "scene"), "--width", "32", "--height", "32",
             "--planes", "32", "--things", "3", "--min-separation", "8"],
            ["--threads", str(threads), "derive-priors", str(out / "scene"),
             "--out", str(out / "priors")],
            ["--threads", str(threads), "lift", str(out / "priors"),
             "--out", str(out / "features.bin")],
            ["--threads", str(threads), "group", str(out / "features.bin"),
             str(out / "priors"), "--out", str(out / "pred.bin")],
        ):
            result = runner.invoke(cli_main, cmd, catch_exceptions=False)
            assert result.exit_code == 0, result.output
        dirs[threads] = out
    identical = all(
        f.read_bytes() == (dirs[8] / f.relative_to(dirs[1])).read_bytes()
        for f in sorted(dirs[1].rglob("*")) if f.is_file()
    )
    scene = generate_scene(SynthConfig(seed=8, width=128, height=128, planes=128,
                                       n_thing_categories=8))  # 11 categories
    priors = derive_priors(scene)
    t0 = time.perf_counter()
    occupancy_aware_lift(priors, scene.frame, scene.intrinsics, scene.planes)
    lift_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    prq(scene.volume, scene.volume)
    prq_s = time.perf_counter() - t0
    ok = identical and lift_s < 1.0 and prq_s < 2.0
    report(8, f"byte-identical across threads, lift {lift_s:.2f}s, prq {prq_s:.2f}s",
           ok)
