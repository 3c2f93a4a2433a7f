import numpy as np
import pytest

from panrec.lifting import (
    CategorySortedAssignment,
    LiftingError,
    RandomAssignment,
    feature_rows,
    lift_instances_topdown,
    lift_occupancy,
    lift_semantics,
    occupancy_aware_lift,
)
from panrec.priors import (
    derive_depth,
    derive_instance_map2d,
    derive_multiplane_occupancy,
    derive_semantics2d,
)
from conftest import seeded_scenes


def test_lift_semantics_case_split(small_scene):
    h, w = small_scene.frame.height, small_scene.frame.width
    planes = small_scene.planes
    sem2d = np.zeros((h, w, 5))
    sem2d[..., 3] = 1.0
    depth = np.full((h, w), planes.center(5))
    vol = lift_semantics(sem2d, depth, small_scene.frame, small_scene.intrinsics, planes)
    assert np.all(vol[:, :, :5, :] == 0)
    assert np.all(vol[:, :, 5:, 3] == 1.0)


def test_lift_semantics_no_surface_is_zero(small_scene):
    h, w = small_scene.frame.height, small_scene.frame.width
    sem2d = np.ones((h, w, 5)) / 5
    vol = lift_semantics(sem2d, np.zeros((h, w)), small_scene.frame,
                         small_scene.intrinsics, small_scene.planes)
    assert np.all(vol == 0)


def test_lift_semantics_column_sums(small_scene):
    from panrec.geometry import plane_index

    sem2d = derive_semantics2d(small_scene)
    depth = derive_depth(small_scene)
    vol = lift_semantics(sem2d, depth, small_scene.frame,
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
    with pytest.raises(LiftingError):
        lift_semantics(np.zeros((4, 4, 2)), np.zeros((4, 4)), small_scene.frame,
                       small_scene.intrinsics, small_scene.planes)


def test_lift_occupancy_reproduces_scene(small_scene):
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    lifted = lift_occupancy(occ_mp, depth, small_scene.frame,
                            small_scene.intrinsics, small_scene.planes)
    assert np.array_equal(lifted > 0, small_scene.volume.occupancy)


def test_lift_occupancy_constants(small_scene):
    h, w = small_scene.frame.height, small_scene.frame.width
    m = small_scene.planes.count
    depth = np.full((h, w), small_scene.planes.center(0))
    ones = lift_occupancy(np.ones((h, w, m)), depth, small_scene.frame,
                          small_scene.intrinsics, small_scene.planes)
    assert np.all(ones == 1.0)
    zeros = lift_occupancy(np.zeros((h, w, m)), depth, small_scene.frame,
                           small_scene.intrinsics, small_scene.planes)
    assert np.all(zeros == 0.0)


def test_occupancy_aware_lift_matches_scene(small_scene):
    sem2d = derive_semantics2d(small_scene)
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    fv = occupancy_aware_lift(sem2d, occ_mp, depth, small_scene.frame,
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
    zero = occupancy_aware_lift(sem2d, np.zeros_like(occ_mp), depth, *args)
    assert np.all(zero.features == 0)
    full = occupancy_aware_lift(sem2d, occ_mp, depth, *args)
    half = occupancy_aware_lift(sem2d, 0.5 * occ_mp, depth, *args)
    assert np.allclose(half.features, 0.5 * full.features)


def test_occupancy_aware_lift_below_semantics(small_scene):
    sem2d = derive_semantics2d(small_scene)
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    fv = occupancy_aware_lift(sem2d, occ_mp, depth, *args)
    plain = lift_semantics(sem2d, depth, *args)
    assert np.all(fv.features <= plain + 1e-12)


def test_free_space_is_exactly_zero(small_scene):
    sem2d = derive_semantics2d(small_scene)
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    fv = occupancy_aware_lift(sem2d, occ_mp, depth, *args)
    z = small_scene.planes.centers()
    free = (depth[..., None] == 0) | (z[None, None, :] < depth[..., None])
    assert np.all(fv.features[free] == 0)
    assert np.all(fv.occupancy[free] == 0)


def test_transform_hooks(small_scene):
    sem2d = derive_semantics2d(small_scene)
    occ_mp = derive_multiplane_occupancy(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    base = occupancy_aware_lift(sem2d, occ_mp, depth, *args)
    doubled = occupancy_aware_lift(sem2d, occ_mp, depth, *args,
                                   semantic_transform=lambda x: 2.0 * x)
    assert np.allclose(doubled.features, 2.0 * base.features)


def test_topdown_single_instance(small_scene):
    from panrec.geometry import plane_index

    h, w = small_scene.frame.height, small_scene.frame.width
    inst_map = np.zeros((h, w), np.int32)
    inst_map[4:8, 4:8] = 1
    depth = np.full((h, w), small_scene.planes.center(6))
    fv = lift_instances_topdown(inst_map, {1: 3}, depth, small_scene.frame,
                                small_scene.intrinsics, small_scene.planes,
                                CategorySortedAssignment(), n_channels=4)
    m = plane_index(small_scene.planes.center(6), small_scene.planes)
    assert np.all(fv.features[4:8, 4:8, m, 0] == 1.0)
    assert fv.features[..., 1:].sum() == 0
    surface_only = fv.features[..., 0].copy()
    surface_only[:, :, m] = 0
    assert surface_only.sum() == 0


def test_topdown_random_assignment_is_channel_permutation(small_scene):
    inst_map, cats = derive_instance_map2d(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    a = lift_instances_topdown(inst_map, cats, depth, *args, RandomAssignment(0), 8)
    b = lift_instances_topdown(inst_map, cats, depth, *args, RandomAssignment(1), 8)
    multiset_a = sorted(a.features[..., c].tobytes() for c in range(8))
    multiset_b = sorted(b.features[..., c].tobytes() for c in range(8))
    assert multiset_a == multiset_b


def test_topdown_category_sorted_enumeration_invariant(small_scene):
    inst_map, cats = derive_instance_map2d(small_scene)
    depth = derive_depth(small_scene)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    base = lift_instances_topdown(inst_map, cats, depth, *args,
                                  CategorySortedAssignment(), 8)
    # relabel instance ids with an order-reversing bijection that preserves
    # the (category, id) sort order
    ids = sorted(cats, key=lambda i: (cats[i], i))
    mapping = {old: 100 + rank for rank, old in enumerate(ids)}
    remapped = np.zeros_like(inst_map)
    for old, new in mapping.items():
        remapped[inst_map == old] = new
    new_cats = {mapping[i]: c for i, c in cats.items()}
    again = lift_instances_topdown(remapped, new_cats, depth, *args,
                                   CategorySortedAssignment(), 8)
    assert np.array_equal(base.features, again.features)


def test_topdown_overflow_keeps_largest():
    from panrec.geometry import CameraIntrinsics, DepthPlanes, FrustumGrid

    intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=3.5, cy=3.5, width=8, height=8)
    frame = FrustumGrid(8, 8, 8)
    planes = DepthPlanes(count=8)
    inst_map = np.zeros((8, 8), np.int32)
    inst_map[0:4, 0:4] = 1   # area 16
    inst_map[6, 6] = 2       # area 1
    depth = np.full((8, 8), planes.center(2))
    with pytest.warns(UserWarning):
        fv = lift_instances_topdown(inst_map, {1: 3, 2: 3}, depth, frame, intr,
                                    planes, CategorySortedAssignment(), n_channels=1)
    assert fv.features[0:4, 0:4, 2, 0].sum() == 16
    assert fv.features[6, 6].sum() == 0


def test_frustum_frame_must_match_camera_and_planes():
    from panrec.geometry import CameraIntrinsics, DepthPlanes, FrustumGrid

    intr = CameraIntrinsics(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    planes = DepthPlanes(count=16)
    sem2d = np.ones((16, 16, 7)) / 7
    mp = np.ones((16, 16, 16))
    depth = np.full((16, 16), planes.center(3))
    occupancy_aware_lift(sem2d, mp, depth, FrustumGrid(16, 16, 16), intr, planes)
    for frame in (FrustumGrid(8, 8, 8), FrustumGrid(16, 16, 8), FrustumGrid(8, 16, 16)):
        for call in (
            lambda: occupancy_aware_lift(sem2d, mp, depth, frame, intr, planes),
            lambda: lift_semantics(sem2d, depth, frame, intr, planes),
            lambda: lift_occupancy(mp, depth, frame, intr, planes),
            lambda: feature_rows(sem2d, depth, np.ones(frame.shape), frame, intr, planes),
        ):
            with pytest.raises(LiftingError, match=r"frame dims .*\(height, width, planes\)"):
                call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_depth_must_be_finite_and_nonnegative(small_scene, bad):
    depth = derive_depth(small_scene)
    depth[3, 4] = bad
    args = (depth, small_scene.frame, small_scene.intrinsics, small_scene.planes)
    with pytest.raises(LiftingError, match="depth"):
        lift_occupancy(derive_multiplane_occupancy(small_scene), *args)
    with pytest.raises(LiftingError, match="depth"):
        lift_semantics(derive_semantics2d(small_scene), *args)
    with pytest.raises(LiftingError, match="depth"):
        feature_rows(derive_semantics2d(small_scene), depth,
                     np.ones(small_scene.frame.shape), *args[1:])
