import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panrec import lifting
from panrec.geometry import (
    AxisGrid,
    CameraIntrinsics,
    DepthPlanes,
    FrustumGrid,
    resample_volume,
)
from panrec.lifting import (
    LiftingError,
    lift_instances_topdown,
    lift_priors,
    lifted_occupancy,
    occupancy_aware_lift,
    scores_to_labels,
    surface_only_occupancy,
)
from panrec.losses import tsdf_from_occupancy
from panrec.mesh import _CHUNK, _digit_table, _write_lines, export_obj
from panrec.pipeline import reconstruct_from_priors
from panrec.priors import (
    PriorsError,
    ThingOffsets,
    derive_instance_map2d,
    derive_priors,
)
from panrec.reconstruction import Refined3D, mask_by_occupancy
from panrec.synth import NoiseSpec, SynthConfig, SynthError, generate_scene, perturb_priors
from panrec.volume import CategoryTable
from conftest import (
    CROWDED_NOISE,
    GOLDEN_AXES,
    GOLDEN_LIFT_SCENES,
    array_digest,
    bundle,
    reference_occupancy_aware_lift,
    traced_peak,
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

    priors = derive_priors(small_scene)
    sem2d, depth = priors.semantics, priors.depth
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
    gt = derive_priors(small_scene)
    priors = bundle(gt.semantics, gt.mp_occupancy, gt.depth)
    occupied, _rows, _labels = lift_priors(priors, small_scene.frame, small_scene.intrinsics,
                                           small_scene.planes)
    assert np.array_equal(lifted_occupancy(occupied, small_scene.frame) > 0,
                          small_scene.volume.occupancy)
    cells, gate = occupied(0.5)
    assert np.array_equal(cells, np.flatnonzero(small_scene.volume.occupancy))
    assert (gate == 1.0).all()


def test_lift_occupancy_constants(small_scene):
    h, w = small_scene.frame.height, small_scene.frame.width
    m = small_scene.planes.count
    depth = np.full((h, w), small_scene.planes.center(0))
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    for value in (1.0, 0.0):
        occupied, *_ = lift_priors(bundle(np.ones((h, w, 1)), np.full((h, w, m), value),
                                          depth), *args)
        assert np.all(lifted_occupancy(occupied, small_scene.frame) == value)
        assert occupied(0.5)[0].size == value * h * w * m


def test_occupancy_aware_lift_matches_scene(small_scene):
    priors = derive_priors(small_scene)
    sem2d, occ_mp, depth = priors.semantics, priors.mp_occupancy, priors.depth
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
    priors = derive_priors(small_scene)
    sem2d, occ_mp, depth = priors.semantics, priors.mp_occupancy, priors.depth
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    zero = occupancy_aware_lift(bundle(sem2d, np.zeros_like(occ_mp), depth), *args)
    assert np.all(zero.features == 0)
    full = occupancy_aware_lift(bundle(sem2d, occ_mp, depth), *args)
    half = occupancy_aware_lift(bundle(sem2d, 0.5 * occ_mp, depth), *args)
    assert np.allclose(half.features, 0.5 * full.features)


def test_occupancy_aware_lift_below_semantics(small_scene):
    priors = derive_priors(small_scene)
    sem2d, occ_mp, depth = priors.semantics, priors.mp_occupancy, priors.depth
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    fv = occupancy_aware_lift(bundle(sem2d, occ_mp, depth), *args)
    plain = lifted_semantics(sem2d, depth, *args)
    assert np.all(fv.features <= plain + 1e-12)


def test_free_space_is_exactly_zero(small_scene):
    priors = derive_priors(small_scene)
    sem2d, occ_mp, depth = priors.semantics, priors.mp_occupancy, priors.depth
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
    depth = derive_priors(small_scene).depth
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    a = lift_instances_topdown(inst_map, depth, *args, 0, 8)
    b = lift_instances_topdown(inst_map, depth, *args, 1, 8)
    multiset_a = sorted(a.features[..., c].tobytes() for c in range(8))
    multiset_b = sorted(b.features[..., c].tobytes() for c in range(8))
    assert multiset_a == multiset_b


def test_topdown_category_sorted_enumeration_invariant(small_scene):
    inst_map = derive_instance_map2d(small_scene)
    depth = derive_priors(small_scene).depth
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
    surface = lifting.surface_planes(p.depth, scene.planes)
    hit = surface < scene.planes.count
    centers, depth = scene.planes.centers(), p.depth[hit]
    assert np.array_equal(hit, (p.depth > 0) & (p.depth <= centers[-1]))
    assert (centers[surface[hit]] >= depth).all()
    assert (centers[surface[hit] - 1][surface[hit] > 0] < depth[surface[hit] > 0]).all()
    mp = surface_only_occupancy(p.depth, scene.planes)
    occ = lifted_occupancy(lift_priors(bundle(p.semantics, mp, p.depth), *args)[0], scene.frame)
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


@pytest.mark.parametrize("axis", sorted(GOLDEN_AXES))
def test_topdown_rejects_an_axis_frame(axis):
    scene = generate_scene(SynthConfig(**GOLDEN_LIFT_SCENES["32"]))
    with pytest.raises(LiftingError, match="^top-down baseline is defined on the frustum frame"):
        lift_instances_topdown(derive_instance_map2d(scene), derive_priors(scene).depth,
                               GOLDEN_AXES[axis], scene.intrinsics, scene.planes)


@pytest.mark.parametrize("bad", ["map-32x16", "id-minus-5"])
def test_topdown_rejects_a_malformed_instance_map(bad):
    scene = generate_scene(SynthConfig(**{**GOLDEN_LIFT_SCENES["32"], "seed": 3}))
    inst_map = derive_instance_map2d(scene)
    assert (inst_map[..., 1] == 1).any()
    if bad == "id-minus-5":
        inst_map[..., 1][inst_map[..., 1] == 1] = -5
    else:
        inst_map = inst_map[:, :16, 1]
    args = (derive_priors(scene).depth, scene.frame, scene.intrinsics, scene.planes)
    with pytest.raises(LiftingError, match="^instances2d"):
        lift_instances_topdown(inst_map, *args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_depth_must_be_finite_and_nonnegative(small_scene, bad):
    gt = derive_priors(small_scene)
    depth = gt.depth
    depth[3, 4] = bad
    priors = bundle(gt.semantics, gt.mp_occupancy, depth)
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
    priors = derive_priors(small_scene)
    sem2d, occ_mp, depth = priors.semantics, priors.mp_occupancy, priors.depth
    h, w, c = sem2d.shape
    sem2d = {"2-d": sem2d[..., 0], "extra-axis": sem2d.reshape(h, w, 1, c),
             "wrong-width": sem2d[:, 1:]}[shape]
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
        "2fc82222e87641eedd9dc862ed9752fa778be7decf8d1d7c1ee1dcef3bf188b5",
    ("32", "axis", "noisy"):
        "d733f950235e56c07701f6db6552436ca8de06e2a14c06edeac2ee5a8c7ffdce",
    ("64", "axis", "gt"):
        "2e3284cacca7dc42b7e5fb287996af36397651ec302ed57464d94f1250476a38",
    ("64", "axis", "noisy"):
        "4d42ff20ec28862fdd191a4d38689514d2da5d219e1ccfb4adf6068e05328ddc",
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
    if frame_kind == "axis":  # the frustum lift, read at the frustum cell of each axis cell
        frustum = occupancy_aware_lift(p, scene.frame, scene.intrinsics, scene.planes)
        for axis_volume, frustum_volume in ((fv.features, frustum.features),
                                            (fv.occupancy, frustum.occupancy)):
            assert np.array_equal(axis_volume, resample_volume(
                frustum_volume, scene.frame, frame, scene.intrinsics, scene.planes))


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
# the cells at ix = 1, iz = 3 fall in pixel (0, 1) but past the last plane: not
# inside, so they read pixel (0, 0), whose +0.0 semantics give +0.0 features
@example((np.array([[[0.0], [-0.0]]]), np.ones((1, 2, 1)), np.ones((1, 2)),
          AxisGrid(dims=[2, 3, 4], voxel_size=1.5, origin=[-1.5, -1.5, 1.0]),
          CameraIntrinsics(fx=2.0, fy=1.0, cx=0.5, cy=0.0, width=2, height=1),
          DepthPlanes(count=1)))
def test_occupancy_aware_lift_equals_dense_reference(case):
    sem, mp, depth, frame, intrinsics, planes = case
    priors = bundle(sem, mp, depth)
    if not np.isfinite(sem).all():
        with pytest.raises(PriorsError, match="semantics must be finite"):
            occupancy_aware_lift(priors, frame, intrinsics, planes)
        return
    fv = occupancy_aware_lift(priors, frame, intrinsics, planes)
    ref = reference_occupancy_aware_lift(*case)
    occupied, rows, _labels = lift_priors(priors, frame, intrinsics, planes)
    cells = np.arange(ref.occupancy.size)[::-1]
    picked = rows(cells)
    assert lifted_occupancy(occupied, frame).tobytes() == ref.occupancy.tobytes()
    assert fv.features.shape == ref.features.shape
    assert fv.features.tobytes() == ref.features.tobytes()
    assert fv.occupancy.tobytes() == ref.occupancy.tobytes()
    # rows at cells in any order are the reference's rows byte for byte
    dense = ref.features.reshape(-1, sem.shape[-1])
    assert picked.tobytes() == dense[cells].tobytes()


@st.composite
def labeler_cases(draw):
    """Bundles whose channels sit at t * (1 - 2**-k) of their pixel's top score
    t for k in 38..53 (most often 38, 39, 52 and 53, the edges of the margin),
    or tie with it exactly; tops near 1e-300 with occupancies 1e-6 to 1e-14,
    or tops near 1 with occupancies 1e-150 to 1e-160, so scores gated by the
    occupancy are subnormal; tops and occupancies with full mantissas, whose
    products round; all-zero pixels and cells with occupancy 0; on a frustum
    or an axis frame. Every element is drawn on its own. Returns the bundle,
    its frame, camera and planes and its cells in any order."""
    h, w, m = (draw(st.integers(1, 4)) for _ in range(3))
    c = draw(st.integers(2, 5))
    arrays = lambda shape, *values: hnp.arrays(np.float64, shape, elements=st.one_of(*values),
                                               fill=st.nothing())
    mantissa = st.integers(1, 2**53).map(lambda i: i * 2.0 ** -53)
    top = draw(arrays((h, w), st.floats(1e-3, 1e3), st.floats(1e-305, 1e-295), st.just(0.0),
                      mantissa))
    near = st.one_of(st.sampled_from([38, 39, 52, 53]), st.integers(38, 53))
    rel = draw(arrays((h, w, c), near.map(lambda k: 1 - 2.0 ** -k), st.just(1.0),
                      st.floats(0, 1), st.just(0.0)))
    planes = DepthPlanes(count=m)
    depth = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.floats(planes.z_near, planes.z_far), st.just(0.0))))
    small = st.one_of(st.floats(6, 14), st.floats(150, 160)).map(lambda k: 10.0 ** -k)
    mp = draw(arrays((h, w, m), st.floats(0, 1), st.just(1.0), small, st.just(0.0), mantissa))
    intrinsics = CameraIntrinsics(fx=float(w), fy=float(h), cx=(w - 1) / 2,
                                  cy=(h - 1) / 2, width=w, height=h)
    if draw(st.sampled_from(["frustum", "axis"])) == "frustum":
        frame = FrustumGrid(w, h, m)
    else:
        n = draw(st.integers(2, 4))
        frame = AxisGrid(dims=[n, n, 2 * n], voxel_size=3.0 / n, origin=[-1.5, -1.5, 0.4])
    size = int(np.prod(frame.shape))
    cells = np.asarray(draw(st.permutations(range(size))), dtype=np.int64)
    return bundle(top[..., None] * rel, mp, depth), frame, intrinsics, planes, cells


def one_cell_case(semantics, occupancy):
    """A labeler case of one pixel, one plane and one cell, filled with
    `occupancy`, whose pixel has the channels `semantics`."""
    planes = DepthPlanes(count=1)
    return (bundle(np.reshape(semantics, (1, 1, -1)), np.full((1, 1, 1), occupancy),
                   np.full((1, 1), planes.center(0))),
            FrustumGrid(1, 1, 1),
            CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=1), planes,
            np.zeros(1, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(labeler_cases())
# gated by 0.463 twice, channel 0, 2**-53 below channel 1, rounds to the same
# normal score: a near tie that the margin sends to the rows
@example(one_cell_case([3 * (1 - 2.0 ** -53), 3.0], 0.463))
# gated by 10**-161.5 twice, channel 0, 2**-38 below channel 1 and outside the
# margin, rounds to the same subnormal score
@example(one_cell_case([1 - 2.0 ** -38, 1.0], 10 ** -161.5))
def test_labels_equal_the_row_reduction(case):
    # labels(cells) is the argmax of each cell's row gated by the cell's own
    # occupancy, taken from the dense oracle
    priors, frame, intrinsics, planes, cells = case
    occupied, rows, labels = lift_priors(priors, frame, intrinsics, planes)
    occupancy = reference_occupancy_aware_lift(priors.semantics, priors.mp_occupancy,
                                               priors.depth, frame, intrinsics, planes).occupancy
    expected = scores_to_labels(rows(cells) * occupancy.reshape(-1)[cells, None])
    assert labels(cells).tobytes() == expected.tobytes()
    # the cells that the tail labels: occupancy at or above a threshold, gated by it
    for threshold in (0.5, 1e-9, np.nextafter(0.0, 1.0)):
        listed, gate = occupied(threshold)
        expected = scores_to_labels(rows(listed) * gate[:, None])
        assert labels(listed).tobytes() == expected.tobytes()


def test_labels_of_subnormal_scores_come_from_rows():
    # 1e-280 * 1e-20 is normal, but gated once more by the occupancy 1e-20 it
    # is subnormal: channel 0, 2**-20 below channel 1, rounds to the same
    # score, so the gated row's first argmax is channel 0, not the pixel's 1
    sem = [1e-280 * (1 - 2.0 ** -20), 1e-280]
    priors, *args, cells = one_cell_case(sem, 1e-20)
    _occ, rows, labels = lift_priors(priors, *args)
    gated = rows(cells) * 1e-20
    assert np.argmax(sem) == np.argmax(rows(cells)) == 1 and gated[0, 0] == gated[0, 1] > 0
    assert labels(cells).tolist() == scores_to_labels(gated).tolist() == [0]


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
        occupied, _rows, labels = lift_priors(p, frame, scene.intrinsics, scene.planes)
        cells, _gate = occupied(0.5)
        assert cells.size and labels(cells).any()
        assert reduced == []
        # ties between channels send their pixels' cells to the rows
        p.semantics[:] = p.semantics.max(axis=-1, keepdims=True)
        _occupied, _rows, labels = lift_priors(p, frame, scene.intrinsics, scene.planes)
        labels(cells)
        assert 0 < sum(reduced) <= cells.size
        reduced.clear()


def test_lift_leaves_no_reference_cycle(small_priors, small_scene):
    # reference counting alone frees the lift's arrays: no cycle holds them
    gc.collect()
    gc.disable()
    try:
        occupied, rows, labels = lift_priors(small_priors, small_scene.frame,
                                             small_scene.intrinsics, small_scene.planes)
        labels(np.arange(8))
        occupied(0.5)
        freed = [weakref.ref(f) for f in (occupied, rows, labels)]
        del occupied, rows, labels
        assert [f() for f in freed] == [None] * 3
    finally:
        gc.enable()


@st.composite
def lister_cases(draw):
    """`lift_cases`' random bundles with finite semantics, or 16^3 scene priors,
    clean or with noisy depth and multi-plane occupancy, some of whose rays have
    depth 0 or lie beyond the last plane center, on the frustum frame or an axis
    frame (one that reaches behind the camera). Returns the bundle, frame,
    camera and planes."""
    if draw(st.booleans()):
        sem, mp, depth, frame, intrinsics, planes = draw(
            lift_cases().filter(lambda case: np.isfinite(case[0]).all()))
        return bundle(sem, mp, depth), frame, intrinsics, planes
    seed = draw(st.integers(0, 2**16))
    try:
        scene = generate_scene(SynthConfig(seed=seed, width=16, height=16, planes=16,
                                           n_things=2, min_center_separation=4.0))
    except SynthError:
        reject()
    noise = NoiseSpec(depth_sigma=draw(st.sampled_from([0.0, 0.05, 0.5])),
                      occupancy_flip=draw(st.sampled_from([0.0, 0.02, 0.3])))
    p = perturb_priors(derive_priors(scene), noise, seed, scene.planes)
    rays = draw(hnp.arrays(np.int8, p.depth.shape, elements=st.sampled_from([0, 0, 1, 2])))
    p.depth[rays == 1] = 0.0
    p.depth[rays == 2] = draw(st.floats(scene.planes.centers()[-1], 2 * scene.planes.z_far,
                                        exclude_min=True))
    frame = scene.frame if draw(st.booleans()) else AxisGrid(
        dims=(12, 12, 20), voxel_size=0.3, origin=(-1.8, -1.8, draw(st.sampled_from([0.4, -0.15]))))
    return p, frame, scene.intrinsics, scene.planes


@settings(max_examples=200, deadline=None)
@given(case=lister_cases(), data=st.data())
def test_the_lister_equals_the_dense_threshold(case, data):
    # occupied(t) is the oracle's flatnonzero(occupancy >= t) and the occupancy
    # there, bit for bit, at thresholds in (0, 1) and at occupancy values; rows
    # are the oracle's rows at any cells
    priors, frame, intrinsics, planes = case
    ref = reference_occupancy_aware_lift(priors.semantics, priors.mp_occupancy, priors.depth,
                                         frame, intrinsics, planes)
    occ = ref.occupancy.reshape(-1)
    occupied, rows, _labels = lift_priors(priors, frame, intrinsics, planes)
    values = sorted(set(occ[(occ > 0) & (occ < 1)].tolist()))
    below_one = st.floats(0, 1, exclude_min=True, exclude_max=True)
    t = data.draw(st.one_of(below_one, st.sampled_from(values)) if values else below_one)
    cells, gate = occupied(t)
    expected = np.flatnonzero(occ >= t)
    assert cells.tobytes() == expected.tobytes()
    assert gate.tobytes() == occ[expected].tobytes()
    picked = data.draw(hnp.arrays(np.int64, st.integers(0, 64),
                                  elements=st.integers(0, occ.size - 1)))
    assert rows(picked).tobytes() == ref.features.reshape(occ.size, -1)[picked].tobytes()


@settings(max_examples=100, deadline=None)
@given(case=lister_cases(), data=st.data())
def test_the_lift_does_not_depend_on_how_mp_occupancy_is_stored(case, data):
    # a binary multi-plane occupancy stored as bool, uint8 or float64 gives the same
    # listed cells and gates, rows, labels, dense lift and reconstruction, byte for byte
    priors, frame, intrinsics, planes = case
    binary = np.asarray(priors.mp_occupancy) >= 0.5
    categories = (SynthConfig().categories if priors.centers
                  else CategoryTable((False,) * priors.semantics.shape[-1]))
    t = data.draw(st.floats(0, 1, exclude_min=True))
    picked = data.draw(hnp.arrays(np.int64, st.integers(0, 64),
                                  elements=st.integers(0, np.prod(frame.shape) - 1)))

    def outputs(mp):
        p = dataclasses.replace(priors, mp_occupancy=mp,
                                offsets3d=ThingOffsets.of(np.zeros(frame.shape + (2,))))
        occupied, rows, labels = lift_priors(p, frame, intrinsics, planes)
        fv = occupancy_aware_lift(p, frame, intrinsics, planes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            volume = reconstruct_from_priors(p, frame, intrinsics, planes, categories)
        return array_digest(*occupied(t), rows(picked), labels(picked),
                            lifted_occupancy(occupied, frame), fv.features, fv.occupancy,
                            volume.semantics, volume.instances,
                            extra=repr([str(w.message) for w in caught]).encode())

    assert outputs(binary) == outputs(binary.astype(np.uint8)) == outputs(binary * 1.0)


def test_lift_and_mask_stay_below_one_dense_volume():
    # the in-process tail never holds a float64 volume of the frame: at 128^3
    # the traced peak of the lift, the listing and the labels stays below one
    scene = generate_scene(SynthConfig(seed=1, width=128, height=128, planes=128,
                                       n_thing_categories=8))
    p = derive_priors(scene)
    tracemalloc.start()
    try:
        occupied, _rows, labels = lift_priors(p, scene.frame, scene.intrinsics, scene.planes)
        cells, _labels, _gate = mask_by_occupancy(
            Refined3D(scene.frame, labels, p.offsets3d, occupied), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.size == np.count_nonzero(scene.volume.occupancy)
    assert peak < 8 * np.prod(scene.frame.shape)


def test_the_axis_lister_stays_below_three_dense_volumes():
    # an axis lift maps its cells to frustum cells once and lists them in blocks:
    # at 128^3 the traced peak of the lift, the listing and the labels stays
    # below three float64 volumes of the frame
    scene = generate_scene(SynthConfig(seed=1, width=128, height=128, planes=128,
                                       n_thing_categories=8))
    p = derive_priors(scene)
    frame = AxisGrid((128, 128, 128), 0.03515625, (-3, -3, 0.3))
    # no thing cell listed: zero offsets at every cell
    offsets = ThingOffsets(np.zeros(0, np.intp), np.zeros((0, 2)), frame.shape + (2,))
    tracemalloc.start()
    try:
        occupied, _rows, labels = lift_priors(p, frame, scene.intrinsics, scene.planes)
        cells, _labels, _gate = mask_by_occupancy(Refined3D(frame, labels, offsets, occupied), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * np.prod(frame.shape)
    assert cells.size and np.array_equal(
        cells, np.flatnonzero(lifted_occupancy(occupied, frame) >= 0.5))


def test_tsdf_and_mesh_export_stay_below_their_memory_bounds(tmp_path):
    # at 64^3 the TSDF holds less than 3 float64 volumes of the grid at once,
    # and the mesh export no more than the 8.45 MB of the exporter it replaced
    scene = generate_scene(SynthConfig(seed=3))
    pred = reconstruct_from_priors(derive_priors(scene), scene.frame, scene.intrinsics,
                                   scene.planes, scene.categories)
    for volume in (scene.volume, pred):
        occupancy = volume.occupancy
        assert traced_peak(tsdf_from_occupancy, occupancy) < 3 * 8 * occupancy.size
        assert traced_peak(export_obj, volume, tmp_path / "scene.obj") <= 8.45e6
    # the OBJ text is built a chunk of rows at a time, so writing 64 chunks of face
    # rows costs less than a quarter of the text they make
    rows = np.random.default_rng(3).integers(1, 10**5, size=(64 * _CHUNK, 3))
    table = _digit_table(np.arange(10**5))
    with (tmp_path / "rows.obj").open("wb") as out:
        peak = traced_peak(_write_lines, out, "f", rows, table)
    assert peak < (tmp_path / "rows.obj").stat().st_size / 4


def reference_lift_instances_topdown(instances2d, depth, planes, seed, n_channels):
    """The top-down lift before it went through `occupancy_aware_lift`, kept as
    the oracle: channels assigned id by id, then each channel broadcast over
    the surface-only occupancy of its instance's pixels. Returns (features,
    occupancy)."""
    category, instance = instances2d.reshape(-1, 2).T
    ids = sorted(set(instance.tolist()) - {0})
    area = {i: np.count_nonzero(instance == i) for i in ids}
    first_category = {i: category[np.flatnonzero(instance == i)[0]] for i in ids}
    kept = sorted(sorted(ids, key=lambda i: (-area[i], i))[:n_channels])
    if seed is None:
        kept.sort(key=lambda i: (first_category[i], i))
    else:
        kept = np.array(kept)
        np.random.Generator(np.random.PCG64(seed)).shuffle(kept)
    channel = np.full(instance.shape, -1)
    for c, i in enumerate(kept):
        channel[instance == i] = c
    channel = channel.reshape(depth.shape)
    occupancy = surface_only_occupancy(depth, planes) * (channel >= 0)[..., None]
    features = occupancy[..., None] * (channel[..., None, None] == np.arange(n_channels))
    return features, occupancy


@st.composite
def topdown_cases(draw):
    """(category, id) maps with any distinct ids >= 1 and one category per
    id, any category under id 0; depth with zeros and rays beyond the last
    plane center; 1 to 8 channels, fewer than the instances or not; category
    order or a seed."""
    h, w, m = (draw(st.integers(1, 6)) for _ in range(3))
    n = draw(st.integers(0, 10))
    ids = draw(st.lists(st.integers(1, 2**31 - 1), min_size=n, max_size=n, unique=True))
    categories = draw(st.lists(st.integers(-3, 12), min_size=n, max_size=n))
    which = draw(hnp.arrays(np.int64, (h, w), elements=st.integers(0, n)))
    background = draw(hnp.arrays(np.int32, (h, w), elements=st.integers(-3, 12)))
    instances2d = np.stack([np.where(which > 0, np.take([0] + categories, which), background),
                            np.take([0] + ids, which)], axis=-1).astype(np.int32)
    planes = DepthPlanes(count=m)
    depth = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.floats(planes.z_near, planes.z_far), st.just(0.0),
        st.floats(planes.centers()[-1], 2 * planes.z_far, exclude_min=True))))
    intrinsics = CameraIntrinsics(fx=float(w), fy=float(h), cx=(w - 1) / 2,
                                  cy=(h - 1) / 2, width=w, height=h)
    seed, n_channels = draw(st.one_of(st.none(), st.integers(0, 2**32))), draw(st.integers(1, 8))
    return instances2d, depth, FrustumGrid(w, h, m), intrinsics, planes, seed, n_channels


@settings(max_examples=200, deadline=None)
@given(topdown_cases())
def test_topdown_lift_equals_the_broadcast_oracle(case):
    instances2d, depth, frame, intrinsics, planes, seed, n_channels = case
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        fv = lift_instances_topdown(instances2d, depth, frame, intrinsics, planes, seed,
                                    n_channels)
    dropped = np.count_nonzero(np.unique(instances2d[..., 1])) - n_channels
    assert [str(w.message) for w in warned] == (
        [f"dropping {dropped} instances beyond {n_channels} channels"] if dropped > 0 else [])
    features, occupancy = reference_lift_instances_topdown(instances2d, depth, planes, seed,
                                                           n_channels)
    assert fv.features.shape == features.shape == frame.shape + (n_channels,)
    assert fv.features.tobytes() == features.tobytes()
    assert fv.occupancy.tobytes() == occupancy.tobytes()


def test_topdown_rejects_an_instance_of_two_categories(small_scene):
    inst_map = derive_instance_map2d(small_scene)
    depth = derive_priors(small_scene).depth
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    ids = np.unique(inst_map[..., 1])[1:]
    bad = inst_map.copy()
    v, u = np.argwhere(inst_map[..., 1] == ids[0])[-1]
    bad[v, u, 0] += 1  # the last pixel of the first instance
    with pytest.raises(LiftingError, match=rf"^instances2d: instances \[{ids[0]}\] carry"):
        lift_instances_topdown(bad, depth, *args)
    for n_channels in (0, -3):
        with pytest.raises(LiftingError, match=f"^n_channels must be >= 1, got {n_channels}"):
            lift_instances_topdown(inst_map, depth, *args, None, n_channels)
