import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panrec import lifting
from panrec.geometry import AxisGrid, CameraIntrinsics, DepthPlanes, FrustumGrid
from panrec.lifting import (
    LiftingError,
    lift_instances_topdown,
    lift_priors,
    occupancy_aware_lift,
    scores_to_labels,
    surface_only_occupancy,
)
from panrec.priors import (
    PriorsError,
    derive_depth,
    derive_instance_map2d,
    derive_multiplane_occupancy,
    derive_priors,
    derive_semantics2d,
)
from panrec.synth import NoiseSpec, SynthConfig, SynthError, generate_scene, perturb_priors
from conftest import (
    CROWDED_NOISE,
    GOLDEN_AXES,
    GOLDEN_LIFT_SCENES,
    array_digest,
    bundle,
    reference_occupancy_aware_lift,
)


def lifted_semantics(sem2d, depth, frame, intrinsics, planes):
    """The semantics alone lifted to every cell at or behind the depth surface:
    on a frustum frame, the lift with all-ones multi-plane occupancy."""
    ones = np.ones(frame.shape)
    return occupancy_aware_lift(bundle(sem2d, ones, depth), frame, intrinsics, planes).features


def test_lift_semantics_case_split(small_scene):
    h, w = small_scene.frame.height, small_scene.frame.width
    planes = small_scene.planes
    sem2d = np.zeros((h, w, 5))
    sem2d[..., 3] = 1.0
    depth = np.full((h, w), planes.center(5))
    vol = lifted_semantics(sem2d, depth, small_scene.frame, small_scene.intrinsics, planes)
    assert np.all(vol[:, :, :5, :] == 0)
    assert np.all(vol[:, :, 5:, 3] == 1.0)


def test_lift_semantics_no_surface_is_zero(small_scene):
    h, w = small_scene.frame.height, small_scene.frame.width
    sem2d = np.ones((h, w, 5)) / 5
    vol = lifted_semantics(sem2d, np.zeros((h, w)), small_scene.frame,
                           small_scene.intrinsics, small_scene.planes)
    assert np.all(vol == 0)


def test_lift_semantics_column_sums(small_scene):
    from panrec.geometry import plane_index

    sem2d = derive_semantics2d(small_scene)
    depth = derive_depth(small_scene)
    vol = lifted_semantics(sem2d, depth, small_scene.frame,
                           small_scene.intrinsics, small_scene.planes)
    m_count = small_scene.planes.count
    sums = vol.sum(axis=2)
    for v in range(small_scene.frame.height):
        for u in range(small_scene.frame.width):
            if depth[v, u] > 0:
                m0 = plane_index(depth[v, u], small_scene.planes)
                assert np.allclose(sums[v, u], (m_count - m0) * sem2d[v, u])
            else:
                assert np.all(sums[v, u] == 0)


def test_lift_semantics_shape_mismatch(small_scene):
    with pytest.raises(PriorsError, match="depth"):
        lifted_semantics(np.zeros((4, 4, 2)), np.zeros((4, 4)), small_scene.frame,
                         small_scene.intrinsics, small_scene.planes)


def test_lift_occupancy_reproduces_scene(small_scene):
    priors = bundle(derive_semantics2d(small_scene), derive_multiplane_occupancy(small_scene),
                    derive_depth(small_scene))
    lifted, _rows, _labels = lift_priors(priors, small_scene.frame, small_scene.intrinsics,
                                         small_scene.planes)
    assert np.array_equal(lifted > 0, small_scene.volume.occupancy)


def test_lift_occupancy_constants(small_scene):
    h, w = small_scene.frame.height, small_scene.frame.width
    m = small_scene.planes.count
    depth = np.full((h, w), small_scene.planes.center(0))
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    ones, *_ = lift_priors(bundle(np.ones((h, w, 1)), np.ones((h, w, m)), depth), *args)
    assert np.all(ones == 1.0)
    zeros, *_ = lift_priors(bundle(np.ones((h, w, 1)), np.zeros((h, w, m)), depth), *args)
    assert np.all(zeros == 0.0)


def test_occupancy_aware_lift_matches_scene(small_scene):
    sem2d = derive_semantics2d(small_scene)
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    fv = occupancy_aware_lift(bundle(sem2d, occ_mp, depth), small_scene.frame,
                              small_scene.intrinsics, small_scene.planes)
    occupied = small_scene.volume.occupancy
    assert np.array_equal(fv.features.sum(axis=-1) > 0, occupied)
    # lifted one-hot equals the front-most ray category on occupied cells
    cats = np.argmax(fv.features, axis=-1)[occupied]
    expected = np.argmax(sem2d, axis=-1)
    vs, us, _ = np.nonzero(occupied)
    assert np.array_equal(cats, expected[vs, us])


def test_occupancy_absorbing_and_bilinear(small_scene):
    sem2d = derive_semantics2d(small_scene)
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    zero = occupancy_aware_lift(bundle(sem2d, np.zeros_like(occ_mp), depth), *args)
    assert np.all(zero.features == 0)
    full = occupancy_aware_lift(bundle(sem2d, occ_mp, depth), *args)
    half = occupancy_aware_lift(bundle(sem2d, 0.5 * occ_mp, depth), *args)
    assert np.allclose(half.features, 0.5 * full.features)


def test_occupancy_aware_lift_below_semantics(small_scene):
    sem2d = derive_semantics2d(small_scene)
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    fv = occupancy_aware_lift(bundle(sem2d, occ_mp, depth), *args)
    plain = lifted_semantics(sem2d, depth, *args)
    assert np.all(fv.features <= plain + 1e-12)


def test_free_space_is_exactly_zero(small_scene):
    sem2d = derive_semantics2d(small_scene)
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    fv = occupancy_aware_lift(bundle(sem2d, occ_mp, depth), *args)
    z = small_scene.planes.centers()
    free = (depth[..., None] == 0) | (z[None, None, :] < depth[..., None])
    assert np.all(fv.features[free] == 0)
    assert np.all(fv.occupancy[free] == 0)


def test_topdown_single_instance(small_scene):
    from panrec.geometry import plane_index

    h, w = small_scene.frame.height, small_scene.frame.width
    inst_map = np.zeros((h, w, 2), np.int32)
    inst_map[4:8, 4:8] = (3, 1)
    depth = np.full((h, w), small_scene.planes.center(6))
    fv = lift_instances_topdown(inst_map, depth, small_scene.frame,
                                small_scene.intrinsics, small_scene.planes,
                                None, n_channels=4)
    m = plane_index(small_scene.planes.center(6), small_scene.planes)
    assert np.all(fv.features[4:8, 4:8, m, 0] == 1.0)
    assert fv.features[..., 1:].sum() == 0
    surface_only = fv.features[..., 0].copy()
    surface_only[:, :, m] = 0
    assert surface_only.sum() == 0


def test_topdown_random_assignment_is_channel_permutation(small_scene):
    inst_map = derive_instance_map2d(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    a = lift_instances_topdown(inst_map, depth, *args, 0, 8)
    b = lift_instances_topdown(inst_map, depth, *args, 1, 8)
    multiset_a = sorted(a.features[..., c].tobytes() for c in range(8))
    multiset_b = sorted(b.features[..., c].tobytes() for c in range(8))
    assert multiset_a == multiset_b


def test_topdown_category_sorted_enumeration_invariant(small_scene):
    inst_map = derive_instance_map2d(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    base = lift_instances_topdown(inst_map, depth, *args, None, 8)
    # relabel instance ids with an order-reversing bijection that preserves
    # the (category, id) sort order
    cats = {int(i): int(c) for c, i in inst_map.reshape(-1, 2) if i > 0}
    ids = sorted(cats, key=lambda i: (cats[i], i))
    remapped = inst_map.copy()
    for rank, old in enumerate(ids):
        remapped[..., 1][inst_map[..., 1] == old] = 100 + rank
    again = lift_instances_topdown(remapped, depth, *args, None, 8)
    assert np.array_equal(base.features, again.features)


@pytest.mark.parametrize("depth_sigma", [0.0, 0.05, 0.5])
def test_both_baselines_fill_the_lifts_first_filled_plane(depth_sigma):
    # Under noisy depth, the depth-only baseline keeps exactly one occupied
    # cell, its surface cell, on every ray with a surface, and the top-down
    # baseline places its instances on cells that the lift fills.
    scene = generate_scene(SynthConfig(**{**GOLDEN_LIFT_SCENES["32"], "seed": 3}))
    args = (scene.frame, scene.intrinsics, scene.planes)
    p = perturb_priors(derive_priors(scene), NoiseSpec(depth_sigma=depth_sigma), 3, scene.planes)
    surface, hit = lifting.surface_planes(p.depth, scene.planes)
    centers, depth = scene.planes.centers(), p.depth[hit]
    assert np.array_equal(hit, (p.depth > 0) & (p.depth <= centers[-1]))
    assert (centers[surface[hit]] >= depth).all()
    assert (centers[surface[hit] - 1][surface[hit] > 0] < depth[surface[hit] > 0]).all()
    mp = surface_only_occupancy(p.depth, scene.planes)
    occ, _rows, _labels = lift_priors(bundle(p.semantics, mp, p.depth), *args)
    assert np.array_equal(np.count_nonzero(occ, axis=2), hit)
    assert np.array_equal(np.argmax(occ, axis=2)[hit], surface[hit])
    inst_map = derive_instance_map2d(scene)
    topdown = lift_instances_topdown(inst_map, p.depth, *args, n_channels=8)
    placed = topdown.occupancy > 0
    assert np.count_nonzero(placed) == np.count_nonzero((inst_map[..., 1] > 0) & hit)
    assert (occ[placed] > 0).all()


def test_topdown_overflow_keeps_largest():
    from panrec.geometry import CameraIntrinsics, DepthPlanes, FrustumGrid

    intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=3.5, cy=3.5, width=8, height=8)
    frame = FrustumGrid(8, 8, 8)
    planes = DepthPlanes(count=8)
    inst_map = np.zeros((8, 8, 2), np.int32)
    inst_map[0:4, 0:4] = (3, 1)   # area 16
    inst_map[6, 6] = (3, 2)       # area 1
    depth = np.full((8, 8), planes.center(2))
    with pytest.warns(UserWarning):
        fv = lift_instances_topdown(inst_map, depth, frame, intr,
                                    planes, None, n_channels=1)
    assert fv.features[0:4, 0:4, 2, 0].sum() == 16
    assert fv.features[6, 6].sum() == 0


def test_frustum_frame_must_match_camera_and_planes():
    from panrec.geometry import CameraIntrinsics, DepthPlanes, FrustumGrid

    intr = CameraIntrinsics(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    planes = DepthPlanes(count=16)
    sem2d = np.ones((16, 16, 7)) / 7
    mp = np.ones((16, 16, 16))
    depth = np.full((16, 16), planes.center(3))
    priors = bundle(sem2d, mp, depth)
    occupancy_aware_lift(priors, FrustumGrid(16, 16, 16), intr, planes)
    inst_map = np.zeros((16, 16, 2), np.int32)
    for frame in (FrustumGrid(8, 8, 8), FrustumGrid(16, 16, 8), FrustumGrid(8, 16, 16)):
        for call in (
            lambda: occupancy_aware_lift(priors, frame, intr, planes),
            lambda: lift_priors(priors, frame, intr, planes),
            lambda: lift_instances_topdown(inst_map, depth, frame, intr, planes),
        ):
            with pytest.raises(PriorsError, match=r"frame dims .*\(height, width, planes\)"):
                call()


@pytest.mark.parametrize("bad", ["map-32x16", "id-minus-5"])
def test_topdown_rejects_a_malformed_instance_map(bad):
    scene = generate_scene(SynthConfig(**{**GOLDEN_LIFT_SCENES["32"], "seed": 3}))
    inst_map = derive_instance_map2d(scene)
    assert (inst_map[..., 1] == 1).any()
    if bad == "id-minus-5":
        inst_map[..., 1][inst_map[..., 1] == 1] = -5
    else:
        inst_map = inst_map[:, :16, 1]
    args = (derive_depth(scene), scene.frame, scene.intrinsics, scene.planes)
    with pytest.raises(LiftingError, match="^instances2d"):
        lift_instances_topdown(inst_map, *args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_depth_must_be_finite_and_nonnegative(small_scene, bad):
    depth = derive_depth(small_scene)
    depth[3, 4] = bad
    priors = bundle(derive_semantics2d(small_scene), derive_multiplane_occupancy(small_scene),
                    depth)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    inst_map = derive_instance_map2d(small_scene)
    with pytest.raises(PriorsError, match="depth"):
        lift_priors(priors, *args)
    with pytest.raises(PriorsError, match="depth"):
        occupancy_aware_lift(priors, *args)
    with pytest.raises(PriorsError, match="depth"):
        lift_instances_topdown(inst_map, depth, *args)


@pytest.mark.parametrize("shape", ["2-d", "extra-axis", "wrong-width"])
def test_semantics_must_be_height_width_channels(small_scene, shape):
    sem2d = derive_semantics2d(small_scene)
    h, w, c = sem2d.shape
    sem2d = {"2-d": sem2d[..., 0], "extra-axis": sem2d.reshape(h, w, 1, c),
             "wrong-width": sem2d[:, 1:]}[shape]
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    with pytest.raises(PriorsError, match=r"^semantics shape"):
        lift_priors(bundle(sem2d, occ_mp, depth), *args)
    with pytest.raises(PriorsError, match=r"^semantics shape"):
        occupancy_aware_lift(bundle(sem2d, occ_mp, depth), *args)


# sha256 of occupancy_aware_lift's (features, occupancy), pinned from the dense
# product of the lifted semantics and the lifted occupancy, on ground-truth
# priors and on priors under the crowded-noisy-96 noise spec.
GOLDEN_LIFTS = {
    ("32", "frustum", "gt"):
        "e6f746c7f9436091ef61448e219605f940fe5bf4e8b94bcf1b6cc2c60895fadc",
    ("32", "frustum", "noisy"):
        "1c0f2354e971cfd5f960fe5913181a8da67cb439b5528153c8992721d750a14c",
    ("32", "axis", "gt"):
        "307db2a7fd309a6630d8dfe26ce1801ff7874650b07c66b2ed4429ec505c6017",
    ("32", "axis", "noisy"):
        "6dae5583d55f83013c333c8c5ba5cbf7f405582987c49a5f262072f31cb32ebb",
    ("64", "axis", "gt"):
        "e604c0e670c7591a11bc99c59dfb7c25c78175218feae26412d73295edc20664",
    ("64", "axis", "noisy"):
        "43dc45da5537f73d36178658ed91b6d0fd541f84d2b41855991d9114ed495bc8",
    ("64", "frustum", "gt"):
        "d08aa790b1657f812efb72699a2114e913123df6de67da0b438aad777f75e628",
    ("64", "frustum", "noisy"):
        "091a2c163118a1e5ced98573f488639b9c7dccde8bff78a3dc7b831294dc9f40",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_LIFTS))
def test_occupancy_aware_lift_matches_golden_hash(case):
    size, frame_kind, prior_kind = case
    kwargs = GOLDEN_LIFT_SCENES[size]
    scene = generate_scene(SynthConfig(**kwargs))
    p = derive_priors(scene)
    if prior_kind == "noisy":
        p = perturb_priors(p, CROWDED_NOISE, kwargs["seed"], scene.planes)
    frame = scene.frame if frame_kind == "frustum" else GOLDEN_AXES[size]
    fv = occupancy_aware_lift(p, frame, scene.intrinsics, scene.planes)
    assert array_digest(fv.features, fv.occupancy) == GOLDEN_LIFTS[case]


@st.composite
def lift_cases(draw):
    h, w, m = (draw(st.integers(1, 5)) for _ in range(3))
    c = draw(st.integers(1, 4))
    # the first alternative of each element strategy is the typical value
    sem = draw(hnp.arrays(np.float64, (h, w, c), elements=st.one_of(
        st.floats(0, 1), st.just(0.0), st.just(-0.0), st.just(np.nan), st.just(np.inf))))
    planes = DepthPlanes(count=m)
    depth = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.floats(planes.z_near, planes.z_far), st.just(0.0), st.floats(0, 8))))
    mp = draw(hnp.arrays(np.float64, (h, w, m), elements=st.one_of(
        st.floats(0, 1), st.just(0.0), st.just(1.0))))
    intrinsics = CameraIntrinsics(fx=float(w), fy=float(h), cx=(w - 1) / 2,
                                  cy=(h - 1) / 2, width=w, height=h)
    if draw(st.sampled_from(["frustum", "axis"])) == "frustum":
        frame = FrustumGrid(w, h, m)
    else:
        n = draw(st.integers(1, 5))
        # origin z = -1.5 / n puts the first cell centers at z = 0
        oz = draw(st.one_of(st.floats(-2.0, 1.0), st.just(-1.5 / n)))
        frame = AxisGrid(dims=[n, n + 1, 2 * n], voxel_size=3.0 / n, origin=[-1.5, -1.5, oz])
    return sem, mp, depth, frame, intrinsics, planes


@settings(max_examples=300, deadline=None)
@given(lift_cases())
def test_occupancy_aware_lift_equals_dense_reference(case):
    sem, mp, depth, frame, intrinsics, planes = case
    priors = bundle(sem, mp, depth)
    if not np.isfinite(sem).all():
        with pytest.raises(PriorsError, match="semantics must be finite"):
            occupancy_aware_lift(priors, frame, intrinsics, planes)
        return
    fv = occupancy_aware_lift(priors, frame, intrinsics, planes)
    ref = reference_occupancy_aware_lift(*case)
    occ, rows, _labels = lift_priors(priors, frame, intrinsics, planes)
    cells = np.arange(ref.occupancy.size)[::-1]
    picked = rows(cells)
    assert occ.tobytes() == ref.occupancy.tobytes()
    assert fv.features.shape == ref.features.shape
    assert fv.features.tobytes() == ref.features.tobytes()
    assert fv.occupancy.tobytes() == ref.occupancy.tobytes()
    # rows at cells in any order are the reference's rows byte for byte
    dense = ref.features.reshape(-1, sem.shape[-1])
    assert picked.tobytes() == dense[cells].tobytes()


@st.composite
def labeler_cases(draw):
    """Bundles whose channels sit at t * (1 - 2**-k) of their pixel's top score
    t for k in 38..53, or tie with it exactly; tops near 1e-300 with small
    occupancies and gates, so scores are subnormal; all-zero pixels and cells
    with occupancy 0; on a frustum or an axis frame. Returns the bundle, its
    frame, camera and planes, cells in any order and gates in (0, 1]."""
    h, w, m = (draw(st.integers(1, 4)) for _ in range(3))
    c = draw(st.integers(2, 5))
    top = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.floats(1e-3, 1e3), st.floats(1e-305, 1e-295), st.just(0.0))))
    near = st.integers(38, 53).map(lambda k: 1 - 2.0 ** -k)
    rel = draw(hnp.arrays(np.float64, (h, w, c), elements=st.one_of(
        near, st.just(1.0), st.floats(0, 1), st.just(0.0))))
    planes = DepthPlanes(count=m)
    depth = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.floats(planes.z_near, planes.z_far), st.just(0.0))))
    small = st.floats(1e-14, 1e-6)
    mp = draw(hnp.arrays(np.float64, (h, w, m), elements=st.one_of(
        st.floats(0, 1), st.just(1.0), small, st.just(0.0))))
    intrinsics = CameraIntrinsics(fx=float(w), fy=float(h), cx=(w - 1) / 2,
                                  cy=(h - 1) / 2, width=w, height=h)
    if draw(st.sampled_from(["frustum", "axis"])) == "frustum":
        frame = FrustumGrid(w, h, m)
    else:
        n = draw(st.integers(2, 4))
        frame = AxisGrid(dims=[n, n, 2 * n], voxel_size=3.0 / n, origin=[-1.5, -1.5, 0.4])
    size = int(np.prod(frame.shape))
    cells = np.asarray(draw(st.permutations(range(size))), dtype=np.int64)
    gate = draw(hnp.arrays(np.float64, size, elements=st.one_of(
        st.floats(0, 1, exclude_min=True), st.just(1.0), small)))
    return bundle(top[..., None] * rel, mp, depth), frame, intrinsics, planes, cells, gate


@settings(max_examples=300, deadline=None)
@given(labeler_cases())
def test_labels_equal_the_row_reduction(case):
    priors, frame, intrinsics, planes, cells, gate = case
    occ, rows, labels = lift_priors(priors, frame, intrinsics, planes)
    expected = scores_to_labels(rows(cells) * gate[:, None])
    assert labels(cells, gate).tobytes() == expected.tobytes()
    # the cells that the tail labels: occupancy at or above a threshold, gated by it
    for threshold in (0.5, 1e-9):
        occupied = np.flatnonzero(occ >= threshold)
        gate = occ.reshape(-1)[occupied]
        expected = scores_to_labels(rows(occupied) * gate[:, None])
        assert labels(occupied, gate).tobytes() == expected.tobytes()


def test_labels_of_subnormal_scores_come_from_rows():
    # 1e-300 * 1e-20 is subnormal: channel 0, 2**-20 below channel 1, rounds to
    # the same score, so the row's first argmax is channel 0, not the pixel's 1
    sem = np.array([1e-300 * (1 - 2.0 ** -20), 1e-300]).reshape(1, 1, 2)
    priors = bundle(sem, np.full((1, 1, 1), 1e-20), np.ones((1, 1)))
    args = (FrustumGrid(1, 1, 1),
            CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=1),
            DepthPlanes(count=1))
    _occ, rows, labels = lift_priors(priors, *args)
    cells, gate = np.zeros(1, dtype=np.int64), np.ones(1)
    assert np.argmax(sem) == 1 and rows(cells)[0, 0] == rows(cells)[0, 1] > 0
    assert labels(cells, gate).tolist() == scores_to_labels(rows(cells)).tolist() == [0]


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("on_axis", [False, True])
def test_one_hot_bundles_take_no_row_fallback(monkeypatch, noisy, on_axis):
    # GT-derived and crowded-noisy-96 semantics are one-hot: every occupied
    # cell takes its pixel's label, and no score row is reduced
    reduced = []
    reduce = lifting.scores_to_labels
    monkeypatch.setattr(lifting, "scores_to_labels",
                        lambda scores: reduced.append(len(scores)) or reduce(scores))
    for seed in range(3):
        try:
            scene = generate_scene(SynthConfig(**{**GOLDEN_LIFT_SCENES["32"], "seed": seed}))
        except SynthError:
            continue
        p = derive_priors(scene)
        if noisy:
            p = perturb_priors(p, CROWDED_NOISE, seed, scene.planes)
        frame = GOLDEN_AXES["32"] if on_axis else scene.frame
        occ, _rows, labels = lift_priors(p, frame, scene.intrinsics, scene.planes)
        cells = np.flatnonzero(occ >= 0.5)
        assert cells.size and labels(cells, occ.reshape(-1)[cells]).any()
        assert reduced == []
        # ties between channels send their pixels' cells to the rows
        p.semantics[:] = p.semantics.max(axis=-1, keepdims=True)
        _occ, _rows, labels = lift_priors(p, frame, scene.intrinsics, scene.planes)
        labels(cells, occ.reshape(-1)[cells])
        assert 0 < sum(reduced) <= cells.size
        reduced.clear()


def test_lift_leaves_no_reference_cycle(small_priors, small_scene):
    # reference counting alone frees the lift's arrays: no cycle holds them
    gc.collect()
    gc.disable()
    try:
        occ, rows, labels = lift_priors(small_priors, small_scene.frame,
                                        small_scene.intrinsics, small_scene.planes)
        labels(np.arange(8), np.ones(8))
        freed = weakref.ref(occ)
        del occ, rows, labels
        assert freed() is None
    finally:
        gc.enable()
