import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panrec import containers
from panrec.containers import (
    ANY,
    DTYPE_CODES,
    DTYPES,
    FRAME as FRAME_DIMS,
    IMAGE,
    IMAGE_PLANES,
    KINDS,
    MAGIC,
    VERSION,
    ContainerError,
    Manifest,
    check_shared,
    manifest_dict,
    panoptic_array,
    read_container,
    read_manifest,
    read_panoptic,
    write_container,
    write_manifest,
)
from panrec.geometry import AxisGrid, CameraIntrinsics, DepthPlanes, FrustumGrid
from panrec.priors import InstanceCenter

INTR = CameraIntrinsics(fx=32.0, fy=32.0, cx=15.5, cy=15.5, width=32, height=32)
PLANES = DepthPlanes(count=8)
FRAME = FrustumGrid(32, 32, 8)


def camera(height, width):
    return CameraIntrinsics(fx=float(width), fy=float(width), cx=(width - 1) / 2,
                            cy=(height - 1) / 2, width=width, height=height)


# The camera of the 4 x 4 depth maps below.
INTR4 = camera(4, 4)


def test_round_trip_frustum(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((32, 32, 8))
    p = tmp_path / "a.bin"
    write_container(p, "multiplane", arr, FRAME, INTR, PLANES)
    cont = read_container(p, "multiplane")
    assert cont.array.dtype == np.float64
    assert np.array_equal(cont.array, arr)
    assert cont.frame == FRAME
    assert cont.intrinsics == INTR
    assert cont.planes == PLANES


def test_round_trip_axis_frame_and_channels(tmp_path):
    axis = AxisGrid(dims=(4, 5, 6), voxel_size=0.25, origin=(-1.0, 0.5, 2.0))
    arr = np.arange(4 * 5 * 6 * 3, dtype=np.float64).reshape(4, 5, 6, 3)
    p = tmp_path / "b.bin"
    write_container(p, "feature-volume", arr, axis, INTR, PLANES)
    cont = read_container(p, "feature-volume")
    assert np.array_equal(cont.array, arr)
    assert cont.frame == axis


def test_write_rerun_byte_identical(tmp_path):
    arr = np.ones((32, 32))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_container(a, "depth", arr, FRAME, INTR, PLANES)
    write_container(b, "depth", arr, FRAME, INTR, PLANES)
    assert a.read_bytes() == b.read_bytes()


def test_write_validation(tmp_path):
    arr = np.zeros((32, 32))
    with pytest.raises(ContainerError):
        write_container(tmp_path / "x.bin", "nope", arr, FRAME, INTR, PLANES)
    with pytest.raises(ContainerError):
        write_container(tmp_path / "x.bin", "depth", arr.astype(np.complex128),
                        FRAME, INTR, PLANES)
    with pytest.raises(ContainerError):
        write_container(tmp_path / "x.bin", "offsets", np.zeros(FRAME.shape + (3,)),
                        FRAME, INTR, PLANES)
    with pytest.raises(ContainerError):
        write_container(tmp_path / "x.bin", "depth", arr, object(), INTR, PLANES)


def test_read_bad_magic_names_offset(tmp_path):
    p = tmp_path / "bad.bin"
    write_container(p, "depth", np.zeros((4, 4)), FRAME, INTR4, PLANES)
    data = bytearray(p.read_bytes())
    data[:4] = b"JUNK"
    p.write_bytes(bytes(data))
    with pytest.raises(ContainerError, match="magic.*offset 0"):
        read_container(p, "depth")


def test_read_bad_version_kind_dtype(tmp_path):
    p = tmp_path / "bad.bin"
    write_container(p, "depth", np.zeros((4, 4)), FRAME, INTR4, PLANES)
    base = p.read_bytes()
    for offset, value, msg in ((4, 9, "version"), (6, 200, "kind"), (7, 99, "dtype")):
        data = bytearray(base)
        data[offset] = value
        p.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match=msg):
            read_container(p, "depth")


def test_read_truncated_payload(tmp_path):
    p = tmp_path / "short.bin"
    write_container(p, "depth", np.zeros((4, 4)), FRAME, INTR4, PLANES)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ContainerError, match="payload length"):
        read_container(p, "depth")
    p.write_bytes(data[:10])
    with pytest.raises(ContainerError, match="truncated"):
        read_container(p, "depth")


def test_panoptic_round_trip(tmp_path, small_scene):
    p = tmp_path / "pan.bin"
    write_container(p, "panoptic-volume", panoptic_array(small_scene.volume),
                    small_scene.frame, small_scene.intrinsics, small_scene.planes)
    back = read_panoptic(p, small_scene.categories)
    assert np.array_equal(back.semantics, small_scene.volume.semantics)
    assert np.array_equal(back.instances, small_scene.volume.instances)
    assert back.frame == small_scene.frame


def test_panoptic_kind_checked(tmp_path):
    p = tmp_path / "d.bin"
    write_container(p, "depth", np.zeros((4, 4)), FRAME, INTR4, PLANES)
    from panrec.volume import CategoryTable

    with pytest.raises(ContainerError, match="panoptic"):
        read_panoptic(p, CategoryTable((False, True)))


@st.composite
def cameras(draw):
    width, height = draw(st.integers(1, 4096)), draw(st.integers(1, 4096))
    focal = st.floats(1e-3, 1e6)
    return CameraIntrinsics(fx=draw(focal), fy=draw(focal),
                            cx=draw(st.floats(0, width, exclude_max=True)),
                            cy=draw(st.floats(0, height, exclude_max=True)),
                            width=width, height=height)


@settings(max_examples=200, deadline=None)
@given(
    intrinsics=cameras(),
    planes=st.builds(lambda count, near, span: DepthPlanes(count, near, near + span),
                     st.integers(1, 512), st.floats(1e-3, 10.0), st.floats(1e-3, 100.0)),
    is_thing=st.lists(st.booleans(), max_size=12),
    centers=st.lists(st.builds(InstanceCenter, *[st.integers(-2**31, 2**31)] * 4),
                     max_size=6),
    files=st.dictionaries(st.text(max_size=8), st.sampled_from(["a.bin", "sub/b.bin"]),
                          max_size=4),
    generator=st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=6),
                              max_size=4),
)
def test_manifest_round_trip(tmp_path_factory, intrinsics, planes, is_thing, centers, files,
                             generator):
    # a written record reads back equal, and writing what was read gives the same bytes
    from panrec.volume import CategoryTable

    root = tmp_path_factory.mktemp("manifest")
    (root / "sub").mkdir()
    for ref in ("a.bin", "sub/b.bin"):
        (root / ref).write_bytes(b"")
    record = Manifest(intrinsics, planes, CategoryTable((False, *is_thing)), tuple(centers),
                      files, generator)
    mp = root / "manifest.json"
    write_manifest(mp, manifest_dict(record))
    written = mp.read_bytes()
    back = read_manifest(mp, entries=files)
    assert back == record
    write_manifest(mp, manifest_dict(back))
    assert mp.read_bytes() == written


def test_manifest_validation(tmp_path):
    mp = tmp_path / "manifest.json"
    mp.write_text("{not json")
    with pytest.raises(ContainerError, match="malformed"):
        read_manifest(mp)
    from panrec.volume import CategoryTable

    cats = CategoryTable((False, True))
    man = manifest_dict(Manifest(INTR, PLANES, cats, (), {}, {}))
    del man["planes"]
    write_manifest(mp, man)
    with pytest.raises(ContainerError, match="planes"):
        read_manifest(mp)
    man = manifest_dict(Manifest(INTR, PLANES, cats, (), {"depth": "missing.bin"}, {}))
    write_manifest(mp, man)
    with pytest.raises(ContainerError, match="missing file"):
        read_manifest(mp)
    man = manifest_dict(Manifest(INTR, PLANES, cats, (), {}, {}))
    man["categories"][1]["id"] = 5
    write_manifest(mp, man)
    with pytest.raises(ContainerError, match="contiguous"):
        read_manifest(mp)
    man = manifest_dict(Manifest(INTR, PLANES, cats, (), {}, {}))
    write_manifest(mp, man)
    assert read_manifest(mp).files == {}
    with pytest.raises(ContainerError, match=f"manifest {mp} has no files entry 'depth'"):
        read_manifest(mp, ["depth"])


# case -> (an edit of a valid manifest, the start of the error after "manifest PATH")
BAD_MANIFESTS = {
    "category-without-id": (lambda m: m["categories"][1].pop("id"), ": categories must be"),
    "category-id-true": (lambda m: m["categories"][1].update(id=True), ": categories must be"),
    "category-not-an-object": (lambda m: m["categories"].__setitem__(1, 1),
                               ": categories must be"),
    "is_thing-a-string": (lambda m: m["categories"][1].update(is_thing="no"),
                          ": categories must be"),
    "is_thing-an-integer": (lambda m: m["categories"][0].update(is_thing=0),
                            ": categories must be"),
    "intrinsics-without-fx": (lambda m: m["intrinsics"].pop("fx"),
                              ": intrinsics fx must be a number"),
    "intrinsics-fx-a-string": (lambda m: m["intrinsics"].update(fx="64"),
                               ": intrinsics fx must be a number"),
    "intrinsics-fx-true": (lambda m: m["intrinsics"].update(fx=True),
                           ": intrinsics fx must be a number"),
    "intrinsics-width-a-float": (lambda m: m["intrinsics"].update(width=5.0),
                                 ": intrinsics width must be an integer"),
    "intrinsics-fx-nan": (lambda m: m["intrinsics"].update(fx=float("nan")),
                          ": focal length fx must be finite"),
    "intrinsics-a-list": (lambda m: m.update(intrinsics=[]), ": intrinsics fx must be"),
    "planes-count-a-string": (lambda m: m["planes"].update(count="8"),
                              ": planes count must be an integer"),
    "planes-z_far-inf": (lambda m: m["planes"].update(z_far=float("inf")), ": need 0 < z_near"),
    "files-a-list": (lambda m: m.update(files=[]), ": files must map names to file names"),
    "files-a-number": (lambda m: m["files"].update(depth=3), ": files must map names to file"),
    "category-0-a-thing": (lambda m: m["categories"][0].update(is_thing=True),
                           ": category 0 must exist and be void"),
    "categories-empty": (lambda m: m.update(categories=[]), ": category 0 must exist"),
}


@pytest.mark.parametrize("text", ["3", "null", "true"])
def test_a_manifest_that_is_not_an_object_is_rejected(tmp_path, text):
    mp = tmp_path / "manifest.json"
    mp.write_text(text)
    with pytest.raises(ContainerError, match=re.escape(f"manifest {mp} is missing field")):
        read_manifest(mp)


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_manifest_entries_are_checked(tmp_path, case):
    from panrec.volume import CategoryTable

    edit, message = BAD_MANIFESTS[case]
    mp = tmp_path / "manifest.json"
    man = manifest_dict(Manifest(INTR, PLANES, CategoryTable((False, True)), (), {}, {}))
    edit(man)
    write_manifest(mp, man)
    with pytest.raises(ContainerError, match=re.escape(f"manifest {mp}{message}")):
        read_manifest(mp)


@pytest.mark.parametrize("centers", [
    [[3.7, 2.2, 3, 1]], [[True, -4, 3.0, 2]], [[3, 2, 1]], [[3, 2, 1, 4, 5]], [[3, 2, "1", 4]],
    [3, 2, 1, 4], {"u": 3},
])
def test_manifest_centers_must_be_rows_of_four_integers(tmp_path, centers):
    # cast with int(), the first two would read as u=3, v=2 and as u=1, category=3
    from panrec.volume import CategoryTable

    mp = tmp_path / "manifest.json"
    man = manifest_dict(Manifest(INTR, PLANES, CategoryTable((False, True)), (), {}, {}))
    man["centers"] = centers
    write_manifest(mp, man)
    with pytest.raises(ContainerError, match=f"^manifest {mp}: centers must be rows of four"):
        read_manifest(mp)


def reference_container_bytes(kind, array, frame, intrinsics, planes, channels=0):
    """The copying writer: header fields packed one by one, then
    `array.astype(dtype).tobytes()` of the C-contiguous array in the kind's type."""
    array = np.ascontiguousarray(array)
    dtype = KINDS[kind][2]
    spatial = array.shape[:-1] if channels else array.shape
    parts = [struct.pack("<4sHBBHB", MAGIC, VERSION, list(KINDS).index(kind),
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


def fitting_shape(kind, frame, intrinsics, planes, channels, pick=0):
    """A payload shape that fits `kind`'s layout, and its channel count: the
    `pick`-th (mod their number) spatial dims the kind may have, then
    `channels` channels where the kind takes any count >= 1."""
    layouts, want, _dtype = KINDS[kind]
    image = (intrinsics.height, intrinsics.width)
    dims = {IMAGE: image, IMAGE_PLANES: image + (planes.count,), FRAME_DIMS: frame.shape}
    count = channels if want == ANY else want
    return dims[layouts[pick % len(layouts)]] + ((count,) if count else ()), count


# A type that casts safely to every kind's element type, <f8 and <i4.
SAFE = np.dtype("u1")


@settings(max_examples=150, deadline=None)
@given(
    own=st.booleans(),
    order=st.sampled_from("<>"),
    layout=st.sampled_from(["C", "F", "sliced"]),
    image=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    plane_count=st.integers(1, 5),
    channels=st.integers(1, 3),
    use_axis=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_matches_copying_oracle(tmp_path_factory, own, order, layout, image,
                                      plane_count, channels, use_axis, seed):
    kind = list(KINDS)[seed % len(KINDS)]
    intr, planes = camera(*image), DepthPlanes(count=plane_count)
    frame = AXIS if use_axis else FrustumGrid(image[1], image[0], plane_count)
    shape, channels = fitting_shape(kind, frame, intr, planes, channels, pick=seed // 8)
    dtype = (KINDS[kind][2] if own else SAFE).newbyteorder(order)
    rng = np.random.default_rng(seed)
    values = (rng.random(tuple(2 * n + 1 for n in shape)) * 255).astype(dtype)
    if layout == "sliced":
        array = values[tuple(slice(1, None, 2) for _ in shape)]
    else:
        array = values[tuple(slice(0, n) for n in shape)]
        array = np.asfortranarray(array) if layout == "F" else np.ascontiguousarray(array)
    assert array.shape == shape
    path = tmp_path_factory.mktemp("oracle") / "c.bin"
    write_container(path, kind, array, frame, intr, planes)
    assert path.read_bytes() == reference_container_bytes(kind, array, frame, intr,
                                                          planes, channels)
    back = read_container(path, kind)
    assert back.array.dtype == KINDS[kind][2] and np.array_equal(back.array, array)


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_dtype_code_but_the_kinds_is_rejected(tmp_path, kind):
    # same-size codes (<f8 as <i8, <i4 as <f4) would read with a matching length
    intr, planes = camera(4, 5), DepthPlanes(count=3)
    frame = FrustumGrid(5, 4, 3)
    shape, _channels = fitting_shape(kind, frame, intr, planes, 2)
    p = tmp_path / "c.bin"
    write_container(p, kind, np.zeros(shape, KINDS[kind][2]), frame, intr, planes)
    data = bytearray(p.read_bytes())
    own = data[7]
    assert DTYPES[own] == KINDS[kind][2]
    for code in sorted(set(range(256)) - {own}):
        data[7] = code
        p.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match=re.escape(
                f"{p}: dtype code {code} at offset 7, expected {KINDS[kind][2].str}")):
            read_container(p, kind)


@pytest.mark.parametrize("kind", [k for k, (_dims, _channels, dtype) in KINDS.items()
                                  if dtype == np.dtype("<f8")])
@pytest.mark.parametrize("dtype", ["<i8", "<u8", ">i8"])
def test_writer_refuses_integers_wider_than_32_bits_for_f8_kinds(tmp_path, kind, dtype):
    # numpy counts int64 -> float64 as a "safe" cast, yet 2**53 + 1 rounds to 2**53
    shape, _channels = fitting_shape(kind, FrustumGrid(5, 4, 3), camera(4, 5),
                                     DepthPlanes(count=3), 2)
    array = np.full(shape, 2**53 + 1, dtype)
    p = tmp_path / "c.bin"
    with pytest.raises(ContainerError, match=re.escape(
            f"{p}: {kind} elements {array.dtype} do not fit <f8 exactly")):
        write_container(p, kind, array, FrustumGrid(5, 4, 3), camera(4, 5), DepthPlanes(count=3))
    assert not p.exists()


@pytest.mark.parametrize("dtype", ["?", "<i4", "<u4", ">i2", SAFE])
def test_writer_stores_narrower_integers_exactly_in_f8_kinds(tmp_path, dtype):
    array = np.array([[0, 1, 2, 3, 4]] * 4).astype(dtype)
    array[0, 0] = np.iinfo(dtype).max if array.dtype.kind in "iu" else True
    p = tmp_path / "d.bin"
    write_container(p, "depth", array, FrustumGrid(5, 4, 3), camera(4, 5), DepthPlanes(count=3))
    assert np.array_equal(read_container(p, "depth").array, array)


def test_the_docstring_states_the_format_that_kinds_and_dtypes_hold():
    doc = containers.__doc__.splitlines()
    codes = ", ".join(f"{code} = {dtype.str}" for code, dtype in DTYPES.items())
    assert f"    dtype      u8   {codes} (DTYPES); the kind's element type" in doc
    start = doc.index("    code  kind             spatial dims        channels  dtype") + 1
    table = [re.split(r"\s{2,}", line.strip()) for line in doc[start:doc.index("", start)]]
    assert table == [
        [str(code), kind, " or ".join(layouts),
         ">= 1" if want == ANY else str(want or "none"), dtype.str]
        for code, (kind, (layouts, want, dtype)) in enumerate(KINDS.items())]


def test_overflowing_dims_product_is_a_payload_error(tmp_path):
    # 2**21 * 2**21 * 2**22 == 2**64 wraps to 0 in int64, which an empty
    # payload would match.
    p = tmp_path / "huge.bin"
    write_container(p, "multiplane", np.zeros((1, 1, 1)), FrustumGrid(1, 1, 1),
                    camera(1, 1), DepthPlanes(count=1))
    data = bytearray(p.read_bytes()[:-8])
    data[11:23] = struct.pack("<3I", 2**21, 2**21, 2**22)
    p.write_bytes(bytes(data))
    with pytest.raises(ContainerError, match="payload length 0 != expected"):
        read_container(p, "multiplane")


def test_read_names_the_file_and_another_kind(tmp_path):
    p = tmp_path / "heatmap.bin"
    write_container(p, "depth", np.zeros((4, 4)), FRAME, INTR4, PLANES)
    with pytest.raises(ContainerError, match=r"heatmap\.bin: kind is 'depth', expected 'heatmap'"):
        read_container(p, "heatmap")


@pytest.mark.parametrize("kind, shape, channels, field", [
    ("depth", (3, 5), 0, "dims"),                  # not the 32 x 32 camera's image
    ("heatmap", (32, 32, 8), 0, "dims"),           # an image has no planes
    ("multiplane", (32, 32, 7), 0, "dims"),        # the header has 8 planes
    ("feature-volume", (32, 32), 0, "dims"),       # not the frame
    ("offsets", (32, 32, 8, 3), 3, "channels"),    # offsets have exactly 2
    ("panoptic-volume", (32, 32, 8), 0, "channels"),
    ("semantic-volume", (32, 32), 0, "channels"),  # at least 1
])
def test_layout_breaks_are_rejected_by_reader_and_writer(tmp_path, kind, shape, channels,
                                                         field):
    p = tmp_path / "c.bin"
    array = np.zeros(shape, KINDS[kind][2])
    p.write_bytes(reference_container_bytes(kind, array, FRAME, INTR, PLANES, channels))
    with pytest.raises(ContainerError, match=f"c\\.bin: {kind} {field} "):
        read_container(p, kind)
    # The writer takes the channel axis from the kind, so it may name the other
    # field; it fails before it opens the file.
    w = tmp_path / "w.bin"
    w.write_bytes(b"kept")
    with pytest.raises(ContainerError, match=f"w\\.bin: {kind} (dims|channels) "):
        write_container(w, kind, array, FRAME, INTR, PLANES)
    assert w.read_bytes() == b"kept"


@pytest.mark.parametrize("field, value", [
    ("frame", FrustumGrid(32, 32, 7)),
    ("intrinsics", CameraIntrinsics(fx=30.0, fy=32.0, cx=15.5, cy=15.5, width=32, height=32)),
    ("planes", DepthPlanes(count=8, z_near=0.5)),
])
def test_check_shared_names_a_file_of_another_frame_camera_or_planes(tmp_path, field, value):
    args = {"frame": FRAME, "intrinsics": INTR, "planes": PLANES}
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_container(a, "depth", np.zeros((32, 32)), *args.values())
    write_container(b, "heatmap", np.zeros((32, 32)), *{**args, field: value}.values())
    read_a, read_b = (a, read_container(a, "depth")), (b, read_container(b, "heatmap"))
    check_shared([read_a, read_a])
    with pytest.raises(ContainerError, match=f"b\\.bin: {field} .* differs from .*a\\.bin's"):
        check_shared([read_a, read_b])


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
    write_container(p, "depth", np.zeros((4, 4)), frame, INTR4, PLANES)
    data = bytearray(p.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    p.write_bytes(bytes(data))
    with pytest.raises(ContainerError, match=f"invalid {field}"):
        read_container(p, "depth")


def test_short_payload_read_is_a_container_error(tmp_path, monkeypatch):
    # A file that shrinks between the size check and the read.
    p = tmp_path / "shrinking.bin"
    write_container(p, "depth", np.zeros((4, 4)), FRAME, INTR4, PLANES)
    full = p.stat().st_size
    p.write_bytes(p.read_bytes()[:-8])
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        fstat(fd)[:6] + (full,) + fstat(fd)[7:]))
    with pytest.raises(ContainerError, match="short read: 120 of 128"):
        read_container(p, "depth")


def assert_fresh_array(array):
    assert array.flags.writeable and array.flags.owndata


@settings(max_examples=100, deadline=None)
@given(
    own=st.booleans(),
    spatial=st.one_of(st.lists(st.integers(1, 4), min_size=2, max_size=2),
                      st.lists(st.integers(0, 4), min_size=0, max_size=4)),
    channels=st.integers(0, 3),
    frustum=st.tuples(st.integers(1, 2**32 - 1), st.integers(1, 2**32 - 1),
                      st.integers(1, 2**32 - 1)),
    axis=st.tuples(st.integers(1, 2**32 - 1), st.floats(1e-6, 1e6),
                   st.floats(-1e6, 1e6)),
    use_axis=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(tmp_path_factory, own, spatial, channels, frustum, axis,
                             use_axis, seed):
    shape = tuple(spatial) + ((channels,) if channels else ())
    # both image kinds take <f8
    array = np.asarray(np.random.default_rng(seed).integers(0, 256, size=shape),
                       np.float64 if own else SAFE)
    n, voxel, o = axis
    frame = (AxisGrid(dims=(n, n, n), voxel_size=voxel, origin=(o, -o, o))
             if use_axis else FrustumGrid(*frustum))
    # An image kind under a camera of the first two dims: the array fits its
    # layout exactly when it has two spatial dims, both >= 1.
    kind = "semantic-volume" if channels else "depth"
    intr = camera(*(max(d, 1) for d in (list(spatial) + [1, 1])[:2]))
    path = tmp_path_factory.mktemp("prop") / "c.bin"
    if len(spatial) != 2 or 0 in spatial:
        # 0-d arrays included: they would be written with shape (1,)
        with pytest.raises(ContainerError, match=f"{kind} dims"):
            write_container(path, kind, array, frame, intr, PLANES)
        assert not path.exists()
        return
    write_container(path, kind, array, frame, intr, PLANES)
    cont = read_container(path, kind)
    assert cont.array.dtype == np.float64 and cont.array.shape == shape
    assert np.array_equal(cont.array, array)
    assert (cont.frame, cont.intrinsics, cont.planes) == (frame, intr, PLANES)
    assert_fresh_array(cont.array)


def read_or_reject(path, kind):
    """A damaged container either raises ContainerError or reads back whole."""
    try:
        cont = read_container(path, kind)
    except ContainerError:
        return None
    assert isinstance(cont.frame, (FrustumGrid, AxisGrid))
    assert_fresh_array(cont.array)
    return cont


@pytest.mark.parametrize("frame", [FRAME, AXIS], ids=["frustum", "axis"])
def test_every_truncation_and_bit_flip_is_rejected_or_valid(tmp_path, frame):
    p = tmp_path / "c.bin"
    write_container(p, "depth", np.arange(16, dtype=np.float64).reshape(4, 4), frame,
                    INTR4, PLANES)
    data = p.read_bytes()
    for cut in range(len(data)):
        p.write_bytes(data[:cut])
        assert read_or_reject(p, "depth") is None
    for offset in range(len(data)):
        for bit in range(8):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << bit
            p.write_bytes(bytes(damaged))
            read_or_reject(p, "depth")


@settings(max_examples=200, deadline=None)
@given(offset=st.integers(0, 10_000), mask=st.integers(1, 255),
       use_axis=st.booleans(), channels=st.integers(0, 2))
def test_any_byte_change_is_rejected_or_valid(tmp_path_factory, offset, mask, use_axis,
                                              channels):
    p = tmp_path_factory.mktemp("flip") / "c.bin"
    shape = (3, 5) + ((channels,) if channels else ())
    kind = "semantic-volume" if channels else "depth"
    write_container(p, kind, np.ones(shape), AXIS if use_axis else FRAME, camera(3, 5),
                    PLANES)
    damaged = bytearray(p.read_bytes())
    damaged[offset % len(damaged)] ^= mask
    p.write_bytes(bytes(damaged))
    read_or_reject(p, kind)
