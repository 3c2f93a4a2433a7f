import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panrec.containers import (
    DTYPE_CODES,
    DTYPES,
    KINDS,
    MAGIC,
    VERSION,
    ContainerError,
    manifest_categories,
    manifest_centers,
    manifest_dict,
    manifest_intrinsics,
    manifest_planes,
    read_container,
    read_manifest,
    read_panoptic,
    write_container,
    write_manifest,
    write_panoptic,
)
from panrec.geometry import AxisGrid, CameraIntrinsics, DepthPlanes, FrustumGrid
from panrec.priors import InstanceCenter

INTR = CameraIntrinsics(fx=32.0, fy=32.0, cx=15.5, cy=15.5, width=32, height=32)
PLANES = DepthPlanes(count=8)
FRAME = FrustumGrid(32, 32, 8)


def test_round_trip_frustum(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((32, 32, 8)).astype(np.float32)
    p = tmp_path / "a.bin"
    write_container(p, "multiplane", arr, FRAME, INTR, PLANES)
    cont = read_container(p)
    assert cont.kind == "multiplane"
    assert cont.array.dtype == np.float32
    assert np.array_equal(cont.array, arr)
    assert cont.frame == FRAME
    assert cont.intrinsics == INTR
    assert cont.planes == PLANES


def test_round_trip_axis_frame_and_channels(tmp_path):
    axis = AxisGrid(dims=(4, 5, 6), voxel_size=0.25, origin=(-1.0, 0.5, 2.0))
    arr = np.arange(4 * 5 * 6 * 3, dtype=np.float64).reshape(4, 5, 6, 3)
    p = tmp_path / "b.bin"
    write_container(p, "offsets", arr, axis, INTR, PLANES, channels=3)
    cont = read_container(p)
    assert np.array_equal(cont.array, arr)
    assert cont.frame == axis


def test_write_rerun_byte_identical(tmp_path):
    arr = np.ones((32, 32), np.float32)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_container(a, "depth", arr, FRAME, INTR, PLANES)
    write_container(b, "depth", arr, FRAME, INTR, PLANES)
    assert a.read_bytes() == b.read_bytes()


def test_write_validation(tmp_path):
    arr = np.zeros((4, 4))
    with pytest.raises(ContainerError):
        write_container(tmp_path / "x.bin", "nope", arr, FRAME, INTR, PLANES)
    with pytest.raises(ContainerError):
        write_container(tmp_path / "x.bin", "depth", arr.astype(np.float16),
                        FRAME, INTR, PLANES)
    with pytest.raises(ContainerError):
        write_container(tmp_path / "x.bin", "offsets", np.zeros((4, 4, 2)),
                        FRAME, INTR, PLANES, channels=3)
    with pytest.raises(ContainerError):
        write_container(tmp_path / "x.bin", "depth", arr, object(), INTR, PLANES)


def test_read_bad_magic_names_offset(tmp_path):
    p = tmp_path / "bad.bin"
    write_container(p, "depth", np.zeros((4, 4), np.float32), FRAME, INTR, PLANES)
    data = bytearray(p.read_bytes())
    data[:4] = b"JUNK"
    p.write_bytes(bytes(data))
    with pytest.raises(ContainerError, match="magic.*offset 0"):
        read_container(p)


def test_read_bad_version_kind_dtype(tmp_path):
    p = tmp_path / "bad.bin"
    write_container(p, "depth", np.zeros((4, 4), np.float32), FRAME, INTR, PLANES)
    base = p.read_bytes()
    for offset, value, msg in ((4, 9, "version"), (6, 200, "kind"), (7, 99, "dtype")):
        data = bytearray(base)
        data[offset] = value
        p.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match=msg):
            read_container(p)


def test_read_truncated_payload(tmp_path):
    p = tmp_path / "short.bin"
    write_container(p, "depth", np.zeros((4, 4), np.float32), FRAME, INTR, PLANES)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ContainerError, match="payload length"):
        read_container(p)
    p.write_bytes(data[:10])
    with pytest.raises(ContainerError, match="truncated"):
        read_container(p)


def test_panoptic_round_trip(tmp_path, small_scene):
    p = tmp_path / "pan.bin"
    write_panoptic(p, small_scene.volume, small_scene.intrinsics, small_scene.planes)
    back = read_panoptic(p, small_scene.categories)
    assert np.array_equal(back.semantics, small_scene.volume.semantics)
    assert np.array_equal(back.instances, small_scene.volume.instances)
    assert back.frame == small_scene.frame


def test_panoptic_kind_checked(tmp_path):
    p = tmp_path / "d.bin"
    write_container(p, "depth", np.zeros((4, 4), np.float32), FRAME, INTR, PLANES)
    from panrec.volume import CategoryTable

    with pytest.raises(ContainerError, match="panoptic"):
        read_panoptic(p, CategoryTable((False, True)))


def test_manifest_round_trip(tmp_path):
    from panrec.volume import CategoryTable

    cats = CategoryTable((False, False, True))
    centers = [InstanceCenter(3, 4, 2, 1)]
    (tmp_path / "depth.bin").write_bytes(b"")
    man = manifest_dict(INTR, PLANES, cats, centers,
                        files={"depth": "depth.bin"},
                        generator={"seed": 7})
    mp = tmp_path / "manifest.json"
    write_manifest(mp, man)
    back = read_manifest(mp)
    assert manifest_intrinsics(back) == INTR
    assert manifest_planes(back) == PLANES
    assert manifest_categories(back) == cats
    assert manifest_centers(back) == centers
    assert back["generator"]["seed"] == 7


def test_manifest_validation(tmp_path):
    mp = tmp_path / "manifest.json"
    mp.write_text("{not json")
    with pytest.raises(ContainerError, match="malformed"):
        read_manifest(mp)
    from panrec.volume import CategoryTable

    cats = CategoryTable((False, True))
    man = manifest_dict(INTR, PLANES, cats, [], files={})
    del man["planes"]
    write_manifest(mp, man)
    with pytest.raises(ContainerError, match="planes"):
        read_manifest(mp)
    man = manifest_dict(INTR, PLANES, cats, [], files={"depth": "missing.bin"})
    write_manifest(mp, man)
    with pytest.raises(ContainerError, match="missing file"):
        read_manifest(mp)
    man = manifest_dict(INTR, PLANES, cats, [], files={})
    man["categories"][1]["id"] = 5
    write_manifest(mp, man)
    with pytest.raises(ContainerError, match="contiguous"):
        read_manifest(mp)


def reference_container_bytes(kind, array, frame, intrinsics, planes, channels=0):
    """The copying writer: header fields packed one by one, then
    `array.astype(dtype).tobytes()` of the C-contiguous little-endian array."""
    array = np.ascontiguousarray(array)
    dtype = array.dtype.newbyteorder("<")
    spatial = array.shape[:-1] if channels else array.shape
    parts = [struct.pack("<4sHBBHB", MAGIC, VERSION, KINDS.index(kind),
                         DTYPE_CODES[dtype], channels, len(spatial)),
             struct.pack(f"<{len(spatial)}I", *spatial)]
    if isinstance(frame, FrustumGrid):
        parts.append(struct.pack("<BIII", 0, frame.width, frame.height, frame.planes))
    else:
        parts.append(struct.pack("<BIIId3d", 1, *frame.shape, frame.voxel_size,
                                 *frame.origin))
    parts.append(struct.pack("<4dII", intrinsics.fx, intrinsics.fy, intrinsics.cx,
                             intrinsics.cy, intrinsics.width, intrinsics.height))
    parts.append(struct.pack("<I2d", planes.count, planes.z_near, planes.z_far))
    parts.append(array.astype(dtype).tobytes())
    return b"".join(parts)


AXIS = AxisGrid(dims=(4, 5, 6), voxel_size=0.25, origin=(-1.0, 0.5, 2.0))


@settings(max_examples=150, deadline=None)
@given(
    code=st.sampled_from(sorted(DTYPES)),
    order=st.sampled_from("<>"),
    layout=st.sampled_from(["C", "F", "sliced"]),
    spatial=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    channels=st.integers(0, 3),
    frame=st.sampled_from([FRAME, AXIS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_matches_copying_oracle(tmp_path_factory, code, order, layout, spatial,
                                      channels, frame, seed):
    shape = tuple(spatial) + ((channels,) if channels else ())
    dtype = DTYPES[code].newbyteorder(order)
    rng = np.random.default_rng(seed)
    values = (rng.random(tuple(2 * n + 1 for n in shape)) * 255).astype(dtype)
    if layout == "sliced":
        array = values[tuple(slice(1, None, 2) for _ in shape)]
    else:
        array = values[tuple(slice(0, n) for n in shape)]
        array = np.asfortranarray(array) if layout == "F" else np.ascontiguousarray(array)
    assert array.shape == shape
    path = tmp_path_factory.mktemp("oracle") / "c.bin"
    kind = KINDS[seed % len(KINDS)]
    write_container(path, kind, array, frame, INTR, PLANES, channels=channels)
    assert path.read_bytes() == reference_container_bytes(kind, array, frame, INTR,
                                                          PLANES, channels)
    back = read_container(path)
    assert back.array.dtype == DTYPES[code] and np.array_equal(back.array, array)


def test_overflowing_dims_product_is_a_payload_error(tmp_path):
    # 2**21 * 2**21 * 2**22 == 2**64 wraps to 0 in int64, which an empty
    # payload would match.
    p = tmp_path / "huge.bin"
    write_container(p, "multiplane", np.zeros((1, 1, 1), np.float32), FRAME, INTR, PLANES)
    data = bytearray(p.read_bytes()[:-4])
    data[11:23] = struct.pack("<3I", 2**21, 2**21, 2**22)
    p.write_bytes(bytes(data))
    with pytest.raises(ContainerError, match="payload length 0 != expected"):
        read_container(p)


@pytest.mark.parametrize("frame, offset, fmt, value, field", [
    (FRAME, 20, "<I", 0, "frustum frame"),   # frustum width
    (FRAME, 32, "<d", -1.0, "intrinsics"),   # fx
    (FRAME, 48, "<d", 99.0, "intrinsics"),   # cx outside the image
    (FRAME, 72, "<I", 0, "planes"),          # plane count
    (FRAME, 76, "<d", 9.0, "planes"),        # z_near beyond z_far
    (AXIS, 32, "<d", 0.0, "axis frame"),     # voxel size
])
def test_read_invalid_geometry_names_field(tmp_path, frame, offset, fmt, value, field):
    p = tmp_path / "bad.bin"
    write_container(p, "depth", np.zeros((4, 4), np.float32), frame, INTR, PLANES)
    data = bytearray(p.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    p.write_bytes(bytes(data))
    with pytest.raises(ContainerError, match=f"invalid {field}"):
        read_container(p)


def test_short_payload_read_is_a_container_error(tmp_path, monkeypatch):
    # A file that shrinks between the size check and the read.
    p = tmp_path / "shrinking.bin"
    write_container(p, "depth", np.zeros((4, 4), np.float32), FRAME, INTR, PLANES)
    full = p.stat().st_size
    p.write_bytes(p.read_bytes()[:-8])
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        fstat(fd)[:6] + (full,) + fstat(fd)[7:]))
    with pytest.raises(ContainerError, match="short read: 56 of 64"):
        read_container(p)


def assert_fresh_array(array):
    assert array.flags.writeable and array.flags.owndata


@settings(max_examples=100, deadline=None)
@given(
    code=st.sampled_from(sorted(DTYPES)),
    spatial=st.lists(st.integers(0, 4), min_size=0, max_size=4),
    channels=st.integers(0, 3),
    frustum=st.tuples(st.integers(1, 2**32 - 1), st.integers(1, 2**32 - 1),
                      st.integers(1, 2**32 - 1)),
    axis=st.tuples(st.integers(1, 2**32 - 1), st.floats(1e-6, 1e6),
                   st.floats(-1e6, 1e6)),
    use_axis=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(tmp_path_factory, code, spatial, channels, frustum, axis,
                             use_axis, seed):
    shape = tuple(spatial) + ((channels,) if channels else ())
    array = np.asarray(np.random.default_rng(seed).integers(0, 256, size=shape),
                       DTYPES[code])
    shape = shape or (1,)  # a 0-d array is written with shape (1,)
    n, voxel, o = axis
    frame = (AxisGrid(dims=(n, n, n), voxel_size=voxel, origin=(o, -o, o))
             if use_axis else FrustumGrid(*frustum))
    path = tmp_path_factory.mktemp("prop") / "c.bin"
    write_container(path, "tsdf", array, frame, INTR, PLANES, channels=channels)
    cont = read_container(path)
    assert cont.array.dtype == DTYPES[code] and cont.array.shape == shape
    assert np.array_equal(cont.array, array.reshape(shape))
    assert (cont.kind, cont.frame, cont.intrinsics, cont.planes) == \
        ("tsdf", frame, INTR, PLANES)
    assert_fresh_array(cont.array)


def read_or_reject(path):
    """A damaged container either raises ContainerError or reads back whole."""
    try:
        cont = read_container(path)
    except ContainerError:
        return None
    assert isinstance(cont.frame, (FrustumGrid, AxisGrid))
    assert_fresh_array(cont.array)
    return cont


@pytest.mark.parametrize("frame", [FRAME, AXIS], ids=["frustum", "axis"])
def test_every_truncation_and_bit_flip_is_rejected_or_valid(tmp_path, frame):
    p = tmp_path / "c.bin"
    write_container(p, "depth", np.arange(16, dtype=np.float32).reshape(4, 4), frame,
                    INTR, PLANES)
    data = p.read_bytes()
    for cut in range(len(data)):
        p.write_bytes(data[:cut])
        assert read_or_reject(p) is None
    for offset in range(len(data)):
        for bit in range(8):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << bit
            p.write_bytes(bytes(damaged))
            read_or_reject(p)


@settings(max_examples=200, deadline=None)
@given(offset=st.integers(0, 10_000), mask=st.integers(1, 255),
       use_axis=st.booleans(), channels=st.integers(0, 2))
def test_any_byte_change_is_rejected_or_valid(tmp_path_factory, offset, mask, use_axis,
                                              channels):
    p = tmp_path_factory.mktemp("flip") / "c.bin"
    shape = (3, 5) + ((channels,) if channels else ())
    write_container(p, "offsets", np.ones(shape), AXIS if use_axis else FRAME, INTR,
                    PLANES, channels=channels)
    damaged = bytearray(p.read_bytes())
    damaged[offset % len(damaged)] ^= mask
    p.write_bytes(bytes(damaged))
    read_or_reject(p)
