from dataclasses import replace

import numpy as np
import pytest

from panrec.geometry import (
    OUT_OF_RANGE,
    AxisGrid,
    CameraIntrinsics,
    DepthPlanes,
    FrustumGrid,
    GeometryError,
    backproject,
    cell_centers,
    frustum_cells,
    plane_index,
    project,
    project_cells,
    resample_volume,
    round_half_up,
)
from panrec.volume import VOID

K = CameraIntrinsics(fx=70.0, fy=80.0, cx=31.5, cy=23.5, width=64, height=48)
UNIT_K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)


def test_backproject_principal_point_is_optical_axis():
    p = backproject(K.cx, K.cy, 2.0, K)
    assert np.allclose(p, [0.0, 0.0, 2.0])


def test_backproject_unit_intrinsics():
    assert np.allclose(backproject(1.0, 0.0, 1.0, UNIT_K), [1.0, 0.0, 1.0])


def test_project_trivials():
    u, v, z = project(np.array([0.0, 0.0, 2.0]), K)
    assert (u, v, z) == (K.cx, K.cy, 2.0)
    u, v, z = project(np.array([1.0, 0.0, 1.0]), UNIT_K)
    assert (u, v, z) == (1.0, 0.0, 1.0)


def test_project_backproject_round_trip():
    rng = np.random.default_rng(0)
    u = rng.uniform(0, K.width - 1, 1000)
    v = rng.uniform(0, K.height - 1, 1000)
    z = rng.uniform(0.4, 6.0, 1000)
    uu, vv, zz = project(backproject(u, v, z, K), K)
    assert np.max(np.abs(uu - u)) < 1e-9
    assert np.max(np.abs(vv - v)) < 1e-9
    assert np.max(np.abs(zz - z)) < 1e-9


def test_depth_errors():
    with pytest.raises(GeometryError):
        backproject(0.0, 0.0, 0.0, K)
    with pytest.raises(GeometryError):
        project(np.array([0.0, 0.0, -1.0]), K)


def test_invalid_intrinsics_and_planes():
    with pytest.raises(GeometryError):
        CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=4, height=4)
    with pytest.raises(GeometryError):
        CameraIntrinsics(fx=1, fy=1, cx=5, cy=0, width=4, height=4)
    with pytest.raises(GeometryError):
        DepthPlanes(count=0)
    with pytest.raises(GeometryError):
        DepthPlanes(count=4, z_near=2.0, z_far=1.0)


# case -> (construction, message): a camera, depth planes or axis frame with a
# value that is not finite
NON_FINITE = {
    "intrinsics-fx-nan": (lambda: replace(K, fx=np.nan), "^focal length fx must be finite"),
    "intrinsics-fx-inf": (lambda: replace(K, fx=np.inf), "^focal length fx must be finite"),
    "intrinsics-fy-inf": (lambda: replace(K, fy=np.inf), "^focal length fy must be finite"),
    "planes-z_far-inf": (lambda: DepthPlanes(count=4, z_far=np.inf), "z_far < inf"),
    "axis-voxel_size-nan": (lambda: AxisGrid((2, 2, 2), np.nan, (0, 0, 1)),
                            "^voxel_size must be finite"),
    "axis-voxel_size-inf": (lambda: AxisGrid((2, 2, 2), np.inf, (0, 0, 1)),
                            "^voxel_size must be finite"),
    "axis-origin-nan": (lambda: AxisGrid((2, 2, 2), 0.5, (0, np.nan, 1)), "^origin .* finite"),
    "axis-origin-inf": (lambda: AxisGrid((2, 2, 2), 0.5, (-np.inf, 0, 1)), "^origin .* finite"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_values_are_rejected(case):
    build, message = NON_FINITE[case]
    with pytest.raises(GeometryError, match=message):
        build()


def test_plane_index_bounds_and_midpoint():
    planes = DepthPlanes(count=128)
    assert plane_index(planes.z_near, planes) == 0
    mid = planes.z_near + 0.5 * (planes.z_far - planes.z_near)
    assert plane_index(mid, planes) == 64
    assert plane_index(planes.z_far, planes) == OUT_OF_RANGE
    assert plane_index(planes.z_near - 1e-9, planes) == OUT_OF_RANGE


@pytest.mark.parametrize("count", [1, 7, 32, 128])
def test_plane_center_round_trip_exhaustive(count):
    planes = DepthPlanes(count=count)
    m = np.arange(count)
    assert np.array_equal(plane_index(planes.center(m), planes), m)


def test_plane_centers_strictly_increasing_and_index_monotone():
    planes = DepthPlanes(count=64)
    centers = planes.centers()
    assert np.all(np.diff(centers) > 0)
    z = np.linspace(planes.z_near, planes.z_far - 1e-9, 500)
    idx = plane_index(z, planes)
    assert np.all(np.diff(idx) >= 0)


def test_round_half_up():
    assert round_half_up(1.5) == 2
    assert round_half_up(1.49) == 1
    assert round_half_up(-0.5) == 0


@pytest.mark.parametrize("frame", [
    FrustumGrid(K.width, K.height, 8),
    # cell centers at z = -1.0, -0.5, 0.0, 0.5, ..., some outside the image
    AxisGrid(dims=(6, 5, 8), voxel_size=0.5, origin=(-1.5, -1.25, -1.25)),
], ids=["frustum", "axis"])
def test_cell_maps_are_the_projected_cell_centers(frame):
    planes = DepthPlanes(count=8, z_near=0.4, z_far=2.0)  # axis centers at z >= 2 are past it
    centers = cell_centers(frame, K, planes).reshape(-1, 3)
    cells = np.arange(len(centers))[::-1]
    centers = centers[cells]
    front = centers[:, 2] > 0
    u, v = project_cells(frame, K, cells)
    pu, pv, _ = project(centers[front], K)
    np.testing.assert_allclose(u[front], pu, rtol=0, atol=1e-9)
    np.testing.assert_allclose(v[front], pv, rtol=0, atol=1e-9)
    assert np.isnan(u[~front]).all() and np.isnan(v[~front]).all()
    if isinstance(frame, AxisGrid):
        pixel, inside, m, z = frustum_cells(frame, K, planes, cells)
        assert np.array_equal(z, centers[:, 2]) and np.array_equal(m, plane_index(z, planes))
        ui, vi = round_half_up(pu), round_half_up(pv)
        in_image = (ui >= 0) & (ui < K.width) & (vi >= 0) & (vi < K.height)
        in_range = (m != OUT_OF_RANGE)[front]
        assert (in_image & ~in_range).any()  # in the image, past the last plane
        assert np.array_equal(inside[front], in_image & in_range) and not inside[~front].any()
        # the pixel is 0 behind the camera or outside the image, whatever the plane
        assert np.array_equal(pixel[front], np.where(in_image, vi * K.width + ui, 0))
        assert not pixel[~front].any()
        # every cell at once, in C order, is the same map
        for whole, part in zip(frustum_cells(frame, K, planes), (pixel, inside, m, z), strict=True):
            whole = np.broadcast_to(whole, frame.shape).reshape(-1)
            assert np.array_equal(whole[cells], part)


def test_resample_identity():
    planes = DepthPlanes(count=8)
    frame = FrustumGrid(K.width, K.height, 8)
    rng = np.random.default_rng(1)
    vol = rng.integers(0, 5, frame.shape).astype(np.int32)
    out = resample_volume(vol, frame, frame, K, planes)
    assert np.array_equal(out, vol)
    assert out is not vol


def _covering_axis_grid(frame, intrinsics, planes, scale):
    corners = cell_centers(frame, intrinsics, planes).reshape(-1, 3)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    # smallest frustum cell extent, divided for >= `scale` x resolution
    size = min(
        planes.spacing,
        planes.z_near / intrinsics.fx,
        planes.z_near / intrinsics.fy,
    ) / scale
    dims = tuple(int(np.ceil((h - l) / size)) + 2 for l, h in zip(lo, hi))
    return AxisGrid(dims=dims, voxel_size=size, origin=tuple(lo - size))


def test_resample_round_trip_preserves_labels():
    from panrec.synth import SynthConfig, generate_scene

    preserved = []
    for seed in range(20):
        cfg = SynthConfig(seed=seed, width=16, height=16, planes=16, n_things=2,
                          z_near=1.0, z_far=2.0, min_center_separation=5.0)
        scene = generate_scene(cfg)
        frame = scene.frame
        axis = _covering_axis_grid(frame, scene.intrinsics, scene.planes, scale=2)
        vol = scene.volume.semantics
        mid = resample_volume(vol, frame, axis, scene.intrinsics, scene.planes)
        back = resample_volume(mid, axis, frame, scene.intrinsics, scene.planes)
        nonvoid = vol != 0
        preserved.append(np.mean(back[nonvoid] == vol[nonvoid]))
    assert np.mean(preserved) >= 0.95


def test_single_voxel_label_lands_in_containing_cell():
    planes = DepthPlanes(count=8)
    frame = FrustumGrid(K.width, K.height, 8)
    vol = np.zeros(frame.shape, dtype=np.int32)
    vol[10, 20, 3] = 7
    point = np.asarray(backproject(20, 10, planes.center(3), K)).ravel()
    # axis grid aligned so that cell (1, 1, 1) has its center exactly on the voxel
    size = 0.02
    axis = AxisGrid(dims=(4, 4, 4), voxel_size=size, origin=tuple(point - 1.5 * size))
    out = resample_volume(vol, frame, axis, K, planes)
    assert out[1, 1, 1] == 7


def test_resample_shape_mismatch_errors():
    planes = DepthPlanes(count=8)
    frame = FrustumGrid(K.width, K.height, 8)
    with pytest.raises(GeometryError):
        resample_volume(np.zeros((2, 2, 2)), frame, frame, K, planes)


def reference_resample(volume, src, dst, intrinsics, planes):
    """`resample_volume` between a frustum and an axis frame, one destination
    cell center at a time: projected and rounded into a frustum source, floored
    into an axis source, VOID outside the source."""
    out = np.full(dst.shape + volume.shape[3:], VOID, dtype=volume.dtype)
    centers = cell_centers(dst, intrinsics, planes).reshape(-1, 3)
    for cell, point in zip(np.ndindex(dst.shape), centers):
        if isinstance(src, FrustumGrid):
            if point[2] <= 0:
                continue
            u, v, z = project(point, intrinsics)
            index = (round_half_up(v), round_half_up(u), plane_index(z, planes))
            if index[2] == OUT_OF_RANGE:
                continue
        else:
            index = tuple(np.floor((point - src.origin) / src.voxel_size).astype(np.int64))
        if all(0 <= i < n for i, n in zip(index, src.shape)):
            out[cell] = volume[index]
    return out


def test_resample_is_the_per_cell_reference():
    rng = np.random.default_rng(17)
    for case in range(240):
        w, h, m = (int(n) for n in rng.integers(1, 7, 3))
        cam = CameraIntrinsics(fx=rng.uniform(1, 12), fy=rng.uniform(1, 12),
                               cx=rng.uniform(0, w), cy=rng.uniform(0, h), width=w, height=h)
        z_near = rng.uniform(0.2, 1.5)
        planes = DepthPlanes(count=m, z_near=z_near, z_far=z_near + rng.uniform(0.3, 4.0))
        # axis frames that reach behind the camera and past the image and planes
        axis = AxisGrid(dims=tuple(rng.integers(1, 7, 3)), voxel_size=rng.uniform(0.05, 0.8),
                        origin=(rng.uniform(-2, 1), rng.uniform(-2, 1), rng.uniform(-1, 3)))
        frustum = FrustumGrid(w, h, m)
        channels = (int(rng.integers(1, 4)),) if case % 2 else ()
        for src, dst in ((frustum, axis), (axis, frustum)):
            # labels >= 1, so that a VOID cell is one outside the source
            vol = rng.integers(1, 100, src.shape + channels).astype(np.int16)
            out = resample_volume(vol, src, dst, cam, planes)
            assert out.dtype == vol.dtype
            assert np.array_equal(out, reference_resample(vol, src, dst, cam, planes)), case


def test_resample_rejects_a_frustum_frame_off_the_camera():
    cam = CameraIntrinsics(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    planes = DepthPlanes(count=16)
    axis = AxisGrid(dims=(8, 8, 8), voxel_size=0.25, origin=(-1.0, -1.0, 0.5))
    small = FrustumGrid(8, 8, 8)
    for src, dst in ((small, axis), (axis, small), (small, small),
                     (FrustumGrid(16, 16, 8), FrustumGrid(16, 16, 16))):
        with pytest.raises(GeometryError, match="do not match the camera and depth planes"):
            resample_volume(np.zeros(src.shape), src, dst, cam, planes)
    assert resample_volume(np.zeros(axis.shape), axis, FrustumGrid(16, 16, 16), cam,
                           planes).shape == (16, 16, 16)


# case -> (call, message): a frame argument that is not a grid frame of the kind
# the function needs
AXIS = AxisGrid(dims=(2, 2, 2), voxel_size=0.5, origin=(0.0, 0.0, 1.0))
PLANES = DepthPlanes(count=8)
FRAME_ERRORS = {
    "centers-of-a-tuple": (lambda: cell_centers((4, 4, 4), K, PLANES), "^unknown grid frame"),
    "resample-from-a-tuple": (
        lambda: resample_volume(np.zeros((2, 2, 2)), (2, 2, 2), AXIS, K, PLANES),
        "^unknown grid frame"),
    "resample-to-a-tuple": (
        lambda: resample_volume(np.zeros((2, 2, 2)), AXIS, (2, 2, 2), K, PLANES),
        "^unknown grid frame"),
    "project-a-tuple": (lambda: project_cells((2, 2, 2), K, [0]), "^not an axis grid frame"),
    "frustum-cells-of-a-frustum": (
        lambda: frustum_cells(FrustumGrid(K.width, K.height, 8), K, PLANES),
        "^not an axis grid frame"),
}


@pytest.mark.parametrize("case", sorted(FRAME_ERRORS))
def test_frame_arguments_are_checked(case):
    call, message = FRAME_ERRORS[case]
    with pytest.raises(GeometryError, match=message):
        call()


def test_axis_grid_from_lists_equals_and_hashes_as_tuples():
    from panrec.metrics import prq
    from panrec.volume import CategoryTable, PanopticVolume

    listed = AxisGrid(dims=[4, 4, 4], voxel_size=0.1, origin=[0, 0, 1])
    tupled = AxisGrid(dims=(4, 4, 4), voxel_size=0.1, origin=(0.0, 0.0, 1.0))
    arrays = AxisGrid(dims=np.array([4, 4, 4]), voxel_size=0.1,
                      origin=np.array([0.0, 0.0, 1.0]))
    assert listed == tupled == arrays
    assert hash(listed) == hash(tupled) == hash(arrays)
    assert listed.dims == (4, 4, 4) and all(type(d) is int for d in arrays.dims)
    assert listed.origin == (0.0, 0.0, 1.0) and all(type(o) is float for o in listed.origin)
    # the frame check of prq and the identity shortcut of resample_volume
    cats = CategoryTable((False, True))
    void = np.zeros((4, 4, 4), np.int32)
    prq(PanopticVolume(listed, void, void, cats), PanopticVolume(tupled, void, void, cats))
    vol = np.arange(64).reshape(4, 4, 4)
    assert np.array_equal(resample_volume(vol, listed, tupled, K, DepthPlanes(count=8)), vol)
    with pytest.raises(GeometryError):
        AxisGrid(dims=[4, 4], voxel_size=0.1, origin=[0, 0, 1])
