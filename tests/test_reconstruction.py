import contextlib
import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panrec.geometry import (
    AxisGrid,
    CameraIntrinsics,
    DepthPlanes,
    FrustumGrid,
    project_cells,
    resample_volume,
)
from panrec.lifting import (
    FeatureVolume,
    lift_priors,
    lifted_occupancy,
    occupancy_aware_lift,
    scores_to_labels,
    surface_only_occupancy,
)
from panrec.metrics import prq
from panrec.pipeline import reconstruct_from_priors
from panrec import lifting
from panrec.priors import (
    InstanceCenter,
    Priors2D,
    PriorsError,
    ThingOffsets,
    derive_priors,
    extract_centers,
)
from panrec.reconstruction import (
    ReconstructionError,
    Refined3D,
    Things,
    assemble_panoptic,
    group_instances,
    identity_refine,
    mask_by_occupancy,
    reconstruct,
)
from panrec.volume import VOID, CategoryTable, PanopticVolume
from panrec.synth import NoiseSpec, SynthConfig, SynthError, generate_scene, perturb_priors
from conftest import (
    CROWDED_NOISE,
    GOLDEN_AXES,
    GOLDEN_LIFT_SCENES,
    array_digest,
    labels_of,
    occupied_of,
    reference_occupancy_aware_lift,
    resampled_offsets,
    seeded_scenes,
)

CATS = CategoryTable((False, False, True, True))
INTR = CameraIntrinsics(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
FRAME = FrustumGrid(16, 16, 8)


def make_refined(sem=None, offs=None, occ=None):
    shape = FRAME.shape
    occ = np.zeros(shape) if occ is None else occ
    return Refined3D(
        frame=FRAME,
        labels=labels_of(np.zeros(shape + (4,)) if sem is None else sem, occ),
        offsets=ThingOffsets.of(np.zeros(shape + (2,)) if offs is None else offs),
        occupied=occupied_of(occ),
    )


def test_mask_identity_when_fully_occupied():
    rng = np.random.default_rng(0)
    sem = rng.random(FRAME.shape + (4,))
    refined = make_refined(sem=sem, offs=rng.normal(size=FRAME.shape + (2,)),
                           occ=np.ones(FRAME.shape))
    cells, labels, gate = mask_by_occupancy(refined)
    assert labels.dtype == np.int32
    assert np.array_equal(labels, np.argmax(sem, axis=-1).ravel())
    # a gate of 1 leaves the offsets that grouping reads unchanged
    assert np.array_equal(gate, np.ones(FRAME.shape).ravel())
    assert np.array_equal(cells, np.arange(sem[..., 0].size))


def test_mask_zero_occupancy():
    refined = make_refined(sem=np.ones(FRAME.shape + (4,)),
                           offs=np.ones(FRAME.shape + (2,)))
    cells, labels, gate = mask_by_occupancy(refined)
    assert cells.size == 0
    assert labels.size == 0 and gate.size == 0


def test_mask_threshold_counting():
    rng = np.random.default_rng(1)
    occ = rng.random(FRAME.shape)
    refined = make_refined(occ=occ)
    cells, _, gate = mask_by_occupancy(refined, occ_threshold=0.3)
    assert cells.size == np.sum(occ >= 0.3)
    assert np.array_equal(cells, np.flatnonzero(occ >= 0.3))
    assert np.count_nonzero(gate) == cells.size  # the gate is > 0 at every listed cell
    with pytest.raises(ReconstructionError):
        mask_by_occupancy(refined, occ_threshold=1.5)


def centers_pair():
    return [InstanceCenter(2, 2, 2, 1), InstanceCenter(8, 8, 2, 2)]


def grouping_inputs(offset_cells):
    labels = np.zeros(FRAME.shape, dtype=np.int32)
    dc3d = np.zeros(FRAME.shape + (2,))
    for (v, u, m), (du, dv) in offset_cells.items():
        labels[v, u, m] = 2
        dc3d[v, u, m] = (du, dv)
    return labels, dc3d


def group(labels, offsets, centers, frame=FRAME, gate=1.0):
    """group_instances on the non-void cells of a label volume, all with the
    same gate, its result scattered back into (semantics, instances) volumes."""
    cells = np.flatnonzero(labels)
    things = group_instances(cells, labels.reshape(-1)[cells], np.full(cells.size, gate),
                             ThingOffsets.of(offsets), centers, frame, INTR, CATS)
    assert np.array_equal(things.cells, cells[np.asarray(CATS.is_thing)[labels.ravel()[cells]]])
    out = SimpleNamespace(semantics=np.zeros(frame.shape, np.int32),
                          instances=np.zeros(frame.shape, np.int32))
    out.semantics.reshape(-1)[things.cells] = things.semantics
    out.instances.reshape(-1)[things.cells] = things.instances
    return out


def test_group_exact_hit():
    labels, dc3d = grouping_inputs({(3, 3, 4): (-1, -1)})
    out = group(labels, dc3d, centers_pair())
    assert out.instances[3, 3, 4] == 1
    assert out.semantics[3, 3, 4] == 2


def test_group_scales_offsets_by_the_gate():
    # at gate 0.5 the offset (2, 2) moves cell (4, 4) to (5, 5), a tie that the
    # first center wins; the ungated offset reaches (6, 6), nearer the second
    labels, dc3d = grouping_inputs({(4, 4, 4): (2, 2)})
    assert group(labels, dc3d, centers_pair(), gate=0.5).instances[4, 4, 4] == 1
    assert group(labels, dc3d, centers_pair()).instances[4, 4, 4] == 2


def test_group_tie_breaks_to_first_center():
    # cell at (5, 5) with zero offset is equidistant from (2, 2) and (8, 8)
    labels, dc3d = grouping_inputs({(5, 5, 4): (0, 0)})
    out = group(labels, dc3d, centers_pair())
    assert out.instances[5, 5, 4] == 1
    swapped = list(reversed(centers_pair()))
    out2 = group(labels, dc3d, swapped)
    assert out2.instances[5, 5, 4] == 2


def test_group_centerless_category_dropped():
    labels, dc3d = grouping_inputs({(3, 3, 4): (0, 0)})
    labels[3, 3, 4] = 3  # category 3 has no center
    with pytest.warns(UserWarning):
        out = group(labels, dc3d, centers_pair())
    assert out.semantics[3, 3, 4] == 0
    assert out.instances[3, 3, 4] == 0


def test_dropped_counts_the_thing_cells_without_a_center():
    # the crowded-noisy-96 benchmark scenes: 3 of the 26 drop cells, the
    # benchmark's 0.115 warnings per scene; the warning is built from `dropped`
    scenes_with_drops = 0
    for seed in range(26):
        scene = generate_scene(SynthConfig(seed=seed, width=96, height=96, planes=96,
                                           n_things=16, min_center_separation=8.0))
        p = perturb_priors(derive_priors(scene), CROWDED_NOISE, seed, scene.planes)
        centers = extract_centers(p.heatmap, p.semantics)
        occupied, _rows, labels = lift_priors(p, scene.frame, scene.intrinsics, scene.planes)
        cells, labels, gate = mask_by_occupancy(Refined3D(scene.frame, labels, p.offsets3d,
                                                          occupied))
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            things = group_instances(cells, labels, gate, p.offsets3d, centers, scene.frame,
                                     scene.intrinsics, scene.categories)
        with_center = {c.category for c in centers}
        brute = sum(1 for k in labels.tolist()
                    if scene.categories.is_thing[k] and k not in with_center)
        assert things.dropped == brute
        assert [str(w.message) for w in warned] == (
            [f"{brute} thing cells had no center of their category; set to void"] if brute
            else [])
        scenes_with_drops += brute > 0
    assert scenes_with_drops == 3


def test_group_center_permutation_equivariance():
    cells = {(3, 3, 4): (-1, -1), (9, 7, 2): (1, 1), (12, 12, 5): (-4, -4)}
    labels, dc3d = grouping_inputs(cells)
    out = group(labels, dc3d, centers_pair())
    swapped = list(reversed(centers_pair()))
    out2 = group(labels, dc3d, swapped)
    # same partition of cells into instances (ids may differ, bijection holds)
    for cell in cells:
        a, b = out.instances[cell], out2.instances[cell]
        assert (a == 1) == (b == 1)


def test_group_oracle_round_trip():
    for scene in seeded_scenes(5):
        priors = derive_priors(scene)
        fv = occupancy_aware_lift(priors, scene.frame, scene.intrinsics, scene.planes)
        refined = identity_refine(fv, priors.offsets3d)
        cells, labels, gate = mask_by_occupancy(refined)
        things = group_instances(cells, labels, gate, refined.offsets, priors.centers,
                                 scene.frame, scene.intrinsics, scene.categories)
        instances = np.zeros(scene.frame.shape, np.int32)
        instances.reshape(-1)[things.cells] = things.instances
        assert np.array_equal(instances, scene.volume.instances)


# sha256 of reconstruct_from_priors' (semantics, instances) on axis frames, with
# the priors' offsets resampled onto the frame, on ground-truth priors and on
# priors under the crowded-noisy-96 noise spec.
GOLDEN_AXIS_RECONSTRUCTIONS = {
    ("32", "gt"): "0114b528fe4376518a5a13c35caaf7f28ab9cab154f5b06d1210b732376afae3",
    ("32", "noisy"): "44368901790931b8d449ac4eb299b17e0ca18904080ac20a657447d8593f7f6b",
    ("64", "gt"): "5d03256f1cbb502d44857554f815d76495e5e3c6d9fa115ffa0e677c6d334518",
    ("64", "noisy"): "9ea49a6c22094cb6ed599bdee91f9a6feb51e2ad71ca965bbc28fabbebd6f12b",
}
# Thing cells that the noisy cases drop to void: the noise moves them onto
# categories that no center has.
AXIS_CELLS_WITHOUT_CENTER = {("32", "noisy"): 15, ("64", "noisy"): 300}


@pytest.mark.parametrize("case", sorted(GOLDEN_AXIS_RECONSTRUCTIONS), ids="-".join)
def test_axis_reconstruction_matches_golden_hash(case):
    size, prior_kind = case
    dropped = AXIS_CELLS_WITHOUT_CENTER.get(case)
    kwargs = GOLDEN_LIFT_SCENES[size]
    scene = generate_scene(SynthConfig(**kwargs))
    p = derive_priors(scene)
    if prior_kind == "noisy":
        p = perturb_priors(p, CROWDED_NOISE, kwargs["seed"], scene.planes)
    axis = GOLDEN_AXES[size]
    p.offsets3d = resampled_offsets(p, scene, axis)
    with (pytest.warns(UserWarning, match=f"^{dropped} thing cells had no center") if dropped
          else contextlib.nullcontext()):
        out = reconstruct_from_priors(p, axis, scene.intrinsics, scene.planes,
                                      scene.categories)
    assert out.instances.any()
    assert array_digest(out.semantics, out.instances) == GOLDEN_AXIS_RECONSTRUCTIONS[case]
    if prior_kind == "gt":  # ground truth round-trips: criterion 1 on axis frames
        semantics, instances = (resample_volume(labels, scene.frame, axis, scene.intrinsics,
                                                scene.planes)
                                for labels in (scene.volume.semantics, scene.volume.instances))
        assert np.array_equal(out.semantics, semantics)
        assert np.array_equal(out.instances, instances)
        assert prq(out, PanopticVolume(axis, semantics, instances, scene.categories)).prq == 1.0


def test_every_thing_cell_gets_exactly_one_instance(small_scene):
    priors = derive_priors(small_scene)
    out = reconstruct_from_priors(priors, small_scene.frame, small_scene.intrinsics,
                                  small_scene.planes, small_scene.categories)
    thing_cells = out.thing_mask()
    assert np.all(out.instances[thing_cells] > 0)
    assert np.all(out.instances[~thing_cells] == 0)


def no_things():
    return Things(cells=np.zeros(0, np.intp), semantics=np.zeros(0, np.int32),
                  instances=np.zeros(0, np.int32))


def test_assemble_stuff_only():
    cells = np.arange(np.prod(FRAME.shape))
    labels = np.ones(cells.size, dtype=np.int32)
    out = assemble_panoptic(FRAME, cells, labels, no_things(), CATS)
    assert np.all(out.semantics == 1)
    assert np.all(out.instances == 0)
    out.validate()


def test_assemble_empty_occupancy():
    # no occupied cell: every cell is void
    out = assemble_panoptic(FRAME, np.zeros(0, np.intp), np.zeros(0, np.int32), no_things(),
                            CATS)
    assert np.all(out.semantics == 0)


def test_assemble_things_take_their_grouping():
    # cells 5 and 9 hold stuff 1 and thing 2; grouping gives cell 9 instance 4
    # and drops thing cell 7 to void
    cells, labels = np.array([5, 7, 9]), np.array([1, 2, 2], np.int32)
    things = Things(cells=np.array([7, 9]), semantics=np.array([VOID, 2], np.int32),
                    instances=np.array([0, 4], np.int32))
    out = assemble_panoptic(FRAME, cells, labels, things, CATS).validate()
    assert out.semantics.ravel()[[5, 7, 9]].tolist() == [1, VOID, 2]
    assert out.instances.ravel()[[5, 7, 9]].tolist() == [0, 0, 4]
    assert np.count_nonzero(out.semantics) == 2


def test_assemble_output_validates(small_scene):
    priors = derive_priors(small_scene)
    out = reconstruct_from_priors(priors, small_scene.frame, small_scene.intrinsics,
                                  small_scene.planes, small_scene.categories)
    out.validate()


def test_identity_refine_passthrough_and_errors():
    rng = np.random.default_rng(4)
    occ = rng.uniform(0.1, 1.0, FRAME.shape)
    fv = FeatureVolume(frame=FRAME, features=rng.random(FRAME.shape + (4,)), occupancy=occ)
    offs = ThingOffsets.of(np.zeros(FRAME.shape + (2,)))
    refined = identity_refine(fv, offs)
    # the features pass through: the labels are the argmax of their rows gated
    # by the cells' occupancy
    cells = rng.permutation(occ.size)
    labels = refined.labels(cells)
    assert np.array_equal(labels, scores_to_labels(fv.features.reshape(-1, 4)[cells]
                                                   * occ.ravel()[cells, None]))
    assert np.array_equal(labels, np.argmax(fv.features.reshape(-1, 4)[cells], axis=-1))
    cells, gate = refined.occupied(0.25)
    assert np.array_equal(cells, np.flatnonzero(occ >= 0.25))
    assert np.array_equal(gate, occ[occ >= 0.25])
    assert refined.occupied(np.nextafter(occ.max(), 1.0))[0].size == 0
    with pytest.raises(ReconstructionError, match=r"^offsets shape \(2, 2, 2, 2\)"):
        identity_refine(fv, ThingOffsets.of(np.zeros((2, 2, 2, 2))))
    with pytest.raises(ReconstructionError, match="^offsets must map flat cells"):
        identity_refine(fv, np.zeros(FRAME.shape + (2,)))
    with pytest.raises(ReconstructionError, match="^occupancy shape"):
        identity_refine(FeatureVolume(FRAME, fv.features, np.zeros((2, 2, 2))), offs)
    small = FeatureVolume(frame=FRAME, features=np.ones((2, 2, 2, 4)), occupancy=occ)
    with pytest.raises(ReconstructionError, match="features shape"):
        identity_refine(small, offs)
    # features finite and >= 0, occupancy finite and within [0, 1]
    for features, occupancy, field in ((fv.features - 0.5, occ, "features"),
                                       (fv.features + np.inf, occ, "features"),
                                       (fv.features, occ - 0.5, "occupancy"),
                                       (fv.features, occ * 8, "occupancy"),
                                       (fv.features, occ * np.inf, "occupancy")):
        with pytest.raises(ReconstructionError, match=f"^{field} must be finite and within"):
            identity_refine(FeatureVolume(FRAME, features, occupancy), offs)


def test_labels_outside_the_category_table_are_a_typed_error(small_scene, small_priors):
    # An 8-channel feature volume under the 7-category table labels cells 7.
    scene, priors = small_scene, small_priors
    fv = occupancy_aware_lift(priors, scene.frame, scene.intrinsics, scene.planes)
    assert fv.features.shape[-1] == len(scene.categories) == 7
    wide = np.concatenate([fv.features, 2 * fv.features.max(axis=-1, keepdims=True)], axis=-1)
    refined = identity_refine(FeatureVolume(fv.frame, wide, fv.occupancy), priors.offsets3d)
    with pytest.raises(ReconstructionError,
                       match=r"^labels must lie in the category table \[0, 7\), got \[7, 7\]"):
        reconstruct(refined, priors.centers, scene.intrinsics, scene.categories)
    cells, labels, gate = mask_by_occupancy(identity_refine(fv, priors.offsets3d))
    labels[0] = -1
    with pytest.raises(ReconstructionError, match=r"^labels .*, got \[-1, 6\]"):
        group_instances(cells, labels, gate, priors.offsets3d, priors.centers, scene.frame,
                        scene.intrinsics, scene.categories)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), width=st.integers(6, 16), height=st.integers(6, 16),
       planes=st.integers(3, 16), n_things=st.integers(0, 4),
       noise=st.one_of(st.none(), st.just(CROWDED_NOISE), st.builds(
           NoiseSpec, depth_sigma=st.floats(0.0, 1.0), semantic_flip=st.floats(0.0, 1.0),
           occupancy_flip=st.floats(0.0, 1.0), center_jitter=st.integers(0, 4))),
       k=st.integers(-64, 64), axis=st.booleans())
def test_identity_refine_accepts_every_lift_of_a_valid_bundle(seed, width, height, planes,
                                                              n_things, noise, k, axis):
    try:
        scene = generate_scene(SynthConfig(
            seed=seed, width=width, height=height, planes=planes, n_things=n_things,
            min_center_separation=0.0))
    except SynthError:
        reject()
    priors = derive_priors(scene)
    if noise is not None:
        priors = perturb_priors(priors, noise, seed, scene.planes)
    priors = dataclasses.replace(priors, semantics=priors.semantics * 2.0**k)
    frame = GOLDEN_AXES["32"] if axis else scene.frame
    fv = occupancy_aware_lift(priors, frame, scene.intrinsics, scene.planes)
    identity_refine(fv, ThingOffsets.of(np.zeros(frame.shape + (2,))))


def test_zero_occupancy_source_gives_empty_reconstruction(small_scene):
    priors = derive_priors(small_scene)
    fv = occupancy_aware_lift(priors, small_scene.frame, small_scene.intrinsics,
                              small_scene.planes)
    refined = identity_refine(dataclasses.replace(fv, occupancy=np.zeros(small_scene.frame.shape)),
                              priors.offsets3d)
    out = reconstruct(refined, priors.centers, small_scene.intrinsics, small_scene.categories)
    assert np.all(out.semantics == 0)


def test_grouping_scale_invariance():
    # argmin over center distances is invariant under any common positive
    # scaling of offsets and center displacements about the cell
    rng = np.random.default_rng(3)
    for _ in range(200):
        cell = rng.uniform(0, 16, size=2)
        offset = rng.normal(size=2)
        centers = rng.uniform(0, 16, size=(4, 2))
        scale = rng.uniform(0.1, 10.0)
        target = cell + offset
        base = np.argmin(np.sum((centers - target) ** 2, axis=1))
        scaled_target = cell + scale * offset
        scaled_centers = cell + scale * (centers - cell)
        scaled = np.argmin(np.sum((scaled_centers - scaled_target) ** 2, axis=1))
        assert base == scaled


def reference_group_and_assemble(labels, dc3d, occ_bin, centers, frame, intrinsics,
                                 categories):
    """The full-volume grouping and assembly that the occupied-cell tail
    replaced, kept as the oracle with its own per-cell projection. Each
    occupied thing cell's image position plus its offset is compared with every
    center of its category; ties keep the first-listed center. Cells of a
    thing category with no center become void, with one warning. Returns
    (semantics, instances) volumes."""
    if isinstance(frame, FrustumGrid):
        v, u = (a.astype(np.float64) for a in np.indices(frame.shape)[:2])
    else:
        idx = np.stack(np.indices(frame.shape), axis=-1).astype(np.float64)
        centers_xyz = np.asarray(frame.origin) + (idx + 0.5) * frame.voxel_size
        x, y, z = centers_xyz[..., 0], centers_xyz[..., 1], centers_xyz[..., 2]
        zsafe = np.where(z > 0, z, 1.0)
        u = np.where(z > 0, intrinsics.fx * x / zsafe + intrinsics.cx, np.nan)
        v = np.where(z > 0, intrinsics.fy * y / zsafe + intrinsics.cy, np.nan)
    thing = occ_bin & np.asarray(categories.is_thing)[labels]
    tu, tv = u + dc3d[..., 0], v + dc3d[..., 1]
    if not (np.isfinite(tu[thing]).all() and np.isfinite(tv[thing]).all()):
        raise ReconstructionError("offset-shifted positions are not finite (offsets)")
    semantics = np.where(occ_bin, labels, VOID).astype(np.int32)
    instances = np.zeros(frame.shape, dtype=np.int32)
    dropped = 0
    for k in np.unique(labels[thing]):
        sel = thing & (labels == k)
        cands = [c for c in centers if c.category == k]
        if not cands:
            dropped += np.count_nonzero(sel)
            semantics[sel] = VOID
            continue
        dist2 = np.stack([(tu[sel] - c.u) ** 2 + (tv[sel] - c.v) ** 2 for c in cands],
                         axis=-1)
        instances[sel] = np.asarray([c.instance_id for c in cands])[np.argmin(dist2, axis=-1)]
    if dropped:
        warnings.warn(f"{dropped} thing cells had no center of their category; set to void")
    return semantics, instances


def dense_reference(priors, mp, frame, intrinsics, planes, categories, occ_threshold):
    """The tail before it became label-first: dense lift, dense occupancy
    gate, full-volume argmax, full-volume grouping and assembly. Returns
    (labels, gated offsets, volume)."""
    lifted = reference_occupancy_aware_lift(priors.semantics, mp, priors.depth, frame,
                                            intrinsics, planes)
    occ_bin = lifted.occupancy >= occ_threshold
    gate = lifted.occupancy * occ_bin
    s3d = lifted.features * gate[..., None]
    labels = np.where(occ_bin & (s3d.max(axis=-1) > 0), np.argmax(s3d, axis=-1), VOID)
    dc3d = priors.offsets3d(np.arange(gate.size)).reshape(gate.shape + (2,)) * gate[..., None]
    semantics, instances = reference_group_and_assemble(labels, dc3d, occ_bin, priors.centers,
                                                        frame, intrinsics, categories)
    return labels, dc3d, PanopticVolume(frame, semantics, instances, categories)


def assert_label_first_matches_dense(priors, frame, intrinsics, planes, categories,
                                     occ_threshold, surface_only=False):
    if surface_only:
        priors = dataclasses.replace(priors,
                                     mp_occupancy=surface_only_occupancy(priors.depth, planes))
    mp = priors.mp_occupancy
    with warnings.catch_warnings(record=True) as ref_warned:
        warnings.simplefilter("always")
        ref_labels, ref_dc3d, ref = dense_reference(priors, mp, frame, intrinsics, planes,
                                                    categories, occ_threshold)
    occupied, rows, labels = lift_priors(priors, frame, intrinsics, planes)
    refined = Refined3D(frame, labels, priors.offsets3d, occupied)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        out = reconstruct(refined, priors.centers, intrinsics, categories, occ_threshold)
    assert np.array_equal(out.semantics, ref.semantics)
    assert np.array_equal(out.instances, ref.instances)
    assert len(warned) == len(ref_warned)
    if occ_threshold == 0.5:  # reconstruct_from_priors' threshold: the same volume
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            same = reconstruct_from_priors(priors, frame, intrinsics, planes, categories)
        assert np.array_equal(same.semantics, out.semantics)
        assert np.array_equal(same.instances, out.instances)
    # the stages in between: feature rows, labels and gated offsets
    dense = reference_occupancy_aware_lift(priors.semantics, mp, priors.depth, frame,
                                           intrinsics, planes)
    occ = dense.occupancy
    cells = np.flatnonzero(occ > 0)
    assert np.array_equal(rows(cells), dense.features.reshape(occ.size, -1)[cells])
    cells, labels, gate = mask_by_occupancy(refined, occ_threshold)
    assert np.array_equal(cells, np.flatnonzero(occ >= occ_threshold))
    assert gate.tobytes() == occ.ravel()[cells].tobytes()
    assert np.array_equal(labels, ref_labels.ravel()[cells])
    assert not ref_labels.ravel()[np.setdiff1d(np.arange(occ.size), cells)].any()
    # the offsets grouping reads: the prior offsets times the gate
    dc3d = np.zeros(ref_dc3d.shape)
    dc3d.reshape(-1, 2)[cells] = priors.offsets3d(cells) * gate[:, None]
    assert np.array_equal(dc3d, ref_dc3d)
    return out


@st.composite
def label_first_cases(draw):
    h, w, m = (draw(st.integers(1, 5)) for _ in range(3))
    c = draw(st.integers(2, 4))
    threshold = draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
    # the first alternative of each element strategy is the typical value
    unit = st.floats(0, 1)
    sem = draw(hnp.arrays(np.float64, (h, w, c),
                          elements=st.one_of(st.floats(1e-3, 1), st.just(0.0))))
    sem[..., 0] *= 0.5  # void (channel 0) wins less often
    # exact ties and 1-ulp near-ties between the first two channels
    ties = draw(hnp.arrays(np.int8, (h, w), elements=st.integers(0, 3)))
    sem[..., 1] = np.select(
        [ties == 1, ties == 2, ties == 3],
        [sem[..., 0], np.nextafter(sem[..., 0], 2.0), np.nextafter(sem[..., 0], -1.0)],
        sem[..., 1],
    ).clip(0, None)
    planes = DepthPlanes(count=m)
    depth = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.floats(planes.z_near, planes.z_far), st.just(0.0))))
    mp = draw(hnp.arrays(np.float64, (h, w, m),
                         elements=st.one_of(st.just(1.0), unit, st.just(threshold))))
    intrinsics = CameraIntrinsics(fx=float(w), fy=float(h), cx=(w - 1) / 2,
                                  cy=(h - 1) / 2, width=w, height=h)
    if draw(st.sampled_from(["frustum", "axis"])) == "frustum":
        frame = FrustumGrid(w, h, m)
    else:
        n = draw(st.integers(2, 5))
        # origin z = -1.5 / n puts the first cell centers at z = 0
        oz = draw(st.one_of(st.just(0.4), st.floats(-2.0, 1.0), st.just(-1.5 / n)))
        frame = AxisGrid(dims=[n, n, 2 * n], voxel_size=3.0 / n, origin=[-1.5, -1.5, oz])
    offsets = draw(hnp.arrays(np.float64, frame.shape + (2,), elements=st.floats(-4, 4)))
    stuff = draw(st.lists(st.booleans(), min_size=c - 1, max_size=c - 1))
    is_thing = (False,) + tuple(not b for b in stuff)
    centers = []
    for k in np.flatnonzero(is_thing):
        for _ in range(draw(st.one_of(st.integers(1, 2), st.just(0)))):
            centers.append(InstanceCenter(draw(st.integers(0, w - 1)),
                                          draw(st.integers(0, h - 1)),
                                          int(k), len(centers) + 1))
    priors = Priors2D(semantics=sem, depth=depth, centers=centers,
                      heatmap=np.zeros((h, w)), mp_occupancy=mp, offsets3d=ThingOffsets.of(offsets))
    return (priors, frame, intrinsics, planes, CategoryTable(is_thing), threshold,
            draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(label_first_cases())
def test_label_first_tail_equals_dense_reference(case):
    assert_label_first_matches_dense(*case)


def test_label_first_keeps_the_double_occupancy_product():
    # argmax(sem) is 2, but argmax((sem * o) * o) is 1: the occupancy scaling
    # can reorder near-equal scores, so labels come from the exact product
    sem = np.array([0.0, 0.7296554464299441, 0.7296554464299442])
    o = 0.5878278103012795
    assert np.argmax(sem) == 2 and np.argmax((sem * o) * o) == 1
    planes = DepthPlanes(count=1)
    intrinsics = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=1)
    priors = Priors2D(semantics=sem.reshape(1, 1, 3), depth=np.full((1, 1), 1.0),
                      centers=[], heatmap=np.zeros((1, 1)),
                      mp_occupancy=np.full((1, 1, 1), o),
                      offsets3d=ThingOffsets.of(np.zeros((1, 1, 1, 2))))
    out = assert_label_first_matches_dense(priors, FrustumGrid(1, 1, 1), intrinsics,
                                           planes, CategoryTable((False,) * 3), 0.5)
    assert out.semantics[0, 0, 0] == 1


@settings(max_examples=24, deadline=None)
@given(size=st.sampled_from(sorted(GOLDEN_AXES)), seed=st.integers(0, 2**16),
       n_things=st.integers(0, 3), n_stuff=st.integers(0, 2),
       n_thing_categories=st.integers(1, 4), on_axis=st.booleans(), noisy=st.booleans(),
       occ_threshold=st.sampled_from([0.3, 0.5, 0.7]))
def test_reconstruction_equals_dense_reference_on_synth_scenes(
        size, seed, n_things, n_stuff, n_thing_categories, on_axis, noisy, occ_threshold):
    # Ground-truth priors or priors under the crowded-noisy-96 noise spec with
    # extracted centers, on the frustum frame or the pinned axis frame of the
    # camera size.
    config = dict(GOLDEN_LIFT_SCENES[size], seed=seed, n_things=n_things, n_stuff=n_stuff,
                  n_thing_categories=n_thing_categories, min_center_separation=8.0)
    try:
        scene = generate_scene(SynthConfig(**config))
    except SynthError:
        reject()
    p = derive_priors(scene)
    if noisy:
        p = perturb_priors(p, CROWDED_NOISE, seed, scene.planes)
        p.centers = extract_centers(p.heatmap, p.semantics)
    frame = GOLDEN_AXES[size] if on_axis else scene.frame
    p.offsets3d = resampled_offsets(p, scene, frame)
    assert_label_first_matches_dense(p, frame, scene.intrinsics, scene.planes,
                                     scene.categories, occ_threshold)


@pytest.mark.parametrize("occ_threshold", [0.3, 0.5, 0.7])
def test_label_first_matches_dense_on_noisy_scenes(occ_threshold):
    from panrec.synth import NoiseSpec, perturb_priors

    noise = NoiseSpec(depth_sigma=0.05, semantic_flip=0.1, occupancy_flip=0.05,
                      center_jitter=2)
    axis = AxisGrid(dims=[12, 12, 24], voxel_size=0.125, origin=[-0.75, -0.75, 0.4])
    rng = np.random.default_rng(5)
    for seed, scene in enumerate(seeded_scenes(3, width=16, height=16, planes=16)):
        priors = perturb_priors(derive_priors(scene), noise, seed, scene.planes)
        # soft occupancy, so the threshold and the occupancy product matter
        priors.mp_occupancy *= rng.uniform(0.2, 1.0, priors.mp_occupancy.shape)
        args = (scene.intrinsics, scene.planes, scene.categories, occ_threshold)
        out = assert_label_first_matches_dense(priors, scene.frame, *args)
        assert out.instances.any()
        priors.offsets3d = ThingOffsets.of(rng.normal(size=axis.shape + (2,)))
        out = assert_label_first_matches_dense(priors, axis, *args)
        assert out.instances.any()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), kind=st.sampled_from(["gt", "noisy", "soft"]),
       on_axis=st.booleans(), k=st.integers(-64, 64))
def test_scaling_semantics_by_a_power_of_two_changes_no_label(seed, kind, on_axis, k):
    # Ground-truth priors, noisy priors with extracted centers, or noisy priors
    # with soft semantics and soft occupancy, on the frustum frame or the pinned
    # 32^3 axis frame. Scaling by 2**k is exact in float64, so no score changes
    # its order: semantics and instances stay byte-identical.
    try:
        scene = generate_scene(SynthConfig(**{**GOLDEN_LIFT_SCENES["32"], "seed": seed}))
    except SynthError:
        reject()
    p = derive_priors(scene)
    if kind != "gt":
        p = perturb_priors(p, CROWDED_NOISE, seed, scene.planes)
        p.centers = extract_centers(p.heatmap, p.semantics)
    if kind == "soft":
        rng = np.random.default_rng(seed)
        p.semantics = 0.7 * p.semantics + rng.uniform(0, 0.3, p.semantics.shape)
        p.mp_occupancy = p.mp_occupancy * rng.uniform(0.2, 1.0, p.mp_occupancy.shape)
    frame = GOLDEN_AXES["32"] if on_axis else scene.frame
    p.offsets3d = resampled_offsets(p, scene, frame)
    scaled = dataclasses.replace(p, semantics=p.semantics * 2.0 ** k)
    args = (frame, scene.intrinsics, scene.planes, scene.categories)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thing cells with no center of their category
        out, out_scaled = reconstruct_from_priors(p, *args), reconstruct_from_priors(scaled, *args)
    assert out_scaled.semantics.tobytes() == out.semantics.tobytes()
    assert out_scaled.instances.tobytes() == out.instances.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_group_rejects_non_finite_thing_offsets(bad):
    labels, dc3d = grouping_inputs({(3, 3, 4): (-1, -1), (9, 7, 2): (1, 1)})
    dc3d[9, 7, 2, 1] = bad
    with pytest.raises(ReconstructionError, match="offsets"):
        group(labels, dc3d, centers_pair())
    # Offsets outside the grouped thing cells are never read.
    labels, dc3d = grouping_inputs({(3, 3, 4): (-1, -1)})
    dc3d[0, 0, 0] = bad
    out = group(labels, dc3d, centers_pair())
    assert out.instances[3, 3, 4] == 1


def test_group_rejects_thing_cells_behind_the_camera():
    # cell [3, 3, 0] has its center at z = -0.75: it has no image position
    axis = AxisGrid(dims=(4, 4, 4), voxel_size=0.5, origin=(-1.0, -1.0, -1.0))
    labels = np.zeros(axis.shape, dtype=np.int32)
    labels[3, 3, 0] = 2
    with pytest.raises(ReconstructionError, match="offsets"):
        group(labels, np.zeros(axis.shape + (2,)), centers_pair(), frame=axis)


def test_reconstruct_rejects_all_nan_offsets():
    scene = seeded_scenes(1, width=16, height=16, planes=16)[0]
    priors = derive_priors(scene)
    priors.offsets3d = ThingOffsets.of(np.full(scene.frame.shape + (2,), np.nan))
    with pytest.raises(ReconstructionError, match="offsets"):
        reconstruct_from_priors(priors, scene.frame, scene.intrinsics, scene.planes,
                                scene.categories)


def test_reconstruct_rejects_offsets_of_the_wrong_shape():
    scene = seeded_scenes(1)[0]
    priors = derive_priors(scene)
    h, w, m = scene.frame.shape
    dense = priors.offsets3d.dense()
    for shape in [(h, w, m // 2, 4), (h, w, 2 * m, 1), (h, w * m, 2)]:
        priors.offsets3d = ThingOffsets.of(dense.reshape(shape))
        with pytest.raises(ReconstructionError, match="offsets shape"):
            reconstruct_from_priors(priors, scene.frame, scene.intrinsics, scene.planes,
                                    scene.categories)
    # the frustum record read on an axis frame, without resampling it
    priors.offsets3d = derive_priors(scene).offsets3d
    with pytest.raises(ReconstructionError, match=r"^offsets shape \(32, 32, 32, 2\)"):
        reconstruct_from_priors(priors, GOLDEN_AXES["32"], scene.intrinsics, scene.planes,
                                scene.categories)
    # a dense array enters only through ThingOffsets.of
    priors.offsets3d = dense
    with pytest.raises(ReconstructionError, match="^offsets must map flat cells"):
        reconstruct_from_priors(priors, scene.frame, scene.intrinsics, scene.planes,
                                scene.categories)


def test_reconstruct_names_missing_offsets(small_scene):
    priors = derive_priors(small_scene)
    priors.offsets3d = None
    with pytest.raises(ReconstructionError, match="offsets3d"):
        reconstruct_from_priors(priors, small_scene.frame, small_scene.intrinsics,
                                small_scene.planes, small_scene.categories)


@pytest.mark.parametrize("bad", ["2-d", "extra-axis", "3-of-7-channels"])
def test_reconstruct_rejects_malformed_semantics(bad, monkeypatch):
    scene = seeded_scenes(1, width=16, height=16, planes=16)[0]
    priors = derive_priors(scene)
    h, w, c = priors.semantics.shape
    assert c == len(scene.categories) == 7
    priors.semantics = {"2-d": priors.semantics[..., 1],
                        "extra-axis": priors.semantics.reshape(h, w, 1, c),
                        "3-of-7-channels": priors.semantics[..., :3]}[bad]
    error = ReconstructionError if bad == "3-of-7-channels" else PriorsError
    built = []
    surface = lifting.surface_planes
    monkeypatch.setattr(lifting, "surface_planes",
                        lambda *args: built.append(1) or surface(*args))
    with pytest.raises(error, match="^semantics"):
        reconstruct_from_priors(priors, scene.frame, scene.intrinsics, scene.planes,
                                scene.categories)
    # rejected before any volume is built; a good bundle builds one
    assert built == []
    reconstruct_from_priors(derive_priors(scene), scene.frame, scene.intrinsics, scene.planes,
                            scene.categories)
    assert built == [1]


def test_zero_channel_semantics_are_rejected_by_name():
    scene = seeded_scenes(1, width=16, height=16, planes=16)[0]
    priors = derive_priors(scene)
    priors.semantics = priors.semantics[..., :0]
    args = (scene.frame, scene.intrinsics, scene.planes)
    for lift in (lift_priors, occupancy_aware_lift):
        with pytest.raises(PriorsError, match="^semantics has no channels$"):
            lift(priors, *args)
    # reconstruct_from_priors compares the channels with the category table first
    with pytest.raises(ReconstructionError,
                       match=r"^semantics has 0 channels, the category table 7 categories$"):
        reconstruct_from_priors(priors, *args, scene.categories)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**16), noisy=st.booleans(), on_axis=st.booleans(),
       data=st.data())
def test_a_bijection_on_center_ids_relabels_the_output_instances(seed, noisy, on_axis, data):
    # Ground-truth priors, or noisy priors with extracted centers, on the
    # frustum frame or the pinned 32^3 axis frame.
    try:
        scene = generate_scene(SynthConfig(**{**GOLDEN_LIFT_SCENES["32"], "seed": seed}))
    except SynthError:
        reject()
    p = derive_priors(scene)
    if noisy:
        p = perturb_priors(p, CROWDED_NOISE, seed, scene.planes)
        p.centers = extract_centers(p.heatmap, p.semantics)
    frame = GOLDEN_AXES["32"] if on_axis else scene.frame
    p.offsets3d = resampled_offsets(p, scene, frame)
    ids = [c.instance_id for c in p.centers]
    relabel = dict(zip(ids, data.draw(st.lists(st.integers(1, 2**31 - 1), min_size=len(ids),
                                               max_size=len(ids), unique=True))))
    moved = dataclasses.replace(p, centers=[
        dataclasses.replace(c, instance_id=relabel[c.instance_id]) for c in p.centers])
    args = (frame, scene.intrinsics, scene.planes, scene.categories)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thing cells with no center of their category
        out, out_moved = reconstruct_from_priors(p, *args), reconstruct_from_priors(moved, *args)
    assert out_moved.semantics.tobytes() == out.semantics.tobytes()
    expected = out.instances.copy()
    for old, new in relabel.items():
        expected[out.instances == old] = new
    assert out_moved.instances.tobytes() == expected.tobytes()


NOISE_SPECS = st.one_of(st.none(), st.just(CROWDED_NOISE), st.builds(
    NoiseSpec, depth_sigma=st.floats(0.0, 0.3), semantic_flip=st.floats(0.0, 0.3),
    occupancy_flip=st.floats(0.0, 0.1), center_jitter=st.integers(0, 4)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), things=st.integers(2, 5), kinds=st.integers(1, 2),
       noise=NOISE_SPECS, on_axis=st.booleans(), data=st.data())
def test_reordering_the_centers_moves_only_tied_cells(seed, things, kinds, noise, on_axis, data):
    # Ground-truth priors, or noisy priors with extracted centers, on the
    # frustum frame or the pinned 32^3 axis frame; several centers per thing
    # category, in any order.
    try:
        scene = generate_scene(SynthConfig(**{**GOLDEN_LIFT_SCENES["32"], "seed": seed,
                                              "n_things": things, "n_thing_categories": kinds}))
    except SynthError:
        reject()
    p = derive_priors(scene)
    if noise is not None:
        p = perturb_priors(p, noise, seed, scene.planes)
        p.centers = extract_centers(p.heatmap, p.semantics)
    frame = GOLDEN_AXES["32"] if on_axis else scene.frame
    p.offsets3d = resampled_offsets(p, scene, frame)
    moved = dataclasses.replace(p, centers=data.draw(st.permutations(p.centers)))
    args = (frame, scene.intrinsics, scene.planes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thing cells with no center of their category
        out = reconstruct_from_priors(p, *args, scene.categories)
        out_moved = reconstruct_from_priors(moved, *args, scene.categories)
    assert out_moved.semantics.tobytes() == out.semantics.tobytes()
    # A cell that changed instance is as near to the center it took in one
    # order as to the one it took in the other: it has no unique nearest center.
    cells = np.flatnonzero(out.instances != out_moved.instances)
    gate = lifted_occupancy(lift_priors(p, *args)[0], frame).reshape(-1)[cells]
    du, dv = (p.offsets3d(cells) * gate[:, None]).T
    u, v = project_cells(frame, scene.intrinsics, cells)
    by_id = {c.instance_id: c for c in p.centers}
    dist2 = [np.array([(tu - by_id[i].u) ** 2 + (tv - by_id[i].v) ** 2
                       for tu, tv, i in zip(u + du, v + dv, ids.reshape(-1)[cells])])
             for ids in (out.instances, out_moved.instances)]
    assert np.array_equal(*dist2)
