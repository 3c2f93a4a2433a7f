"""Binary volume containers and the scene manifest.

Container layout (all integers little-endian):

    magic      4s   = b"BUOL"
    version    u16  = 1
    kind       u8   (position in KINDS)
    dtype      u8   (see DTYPES)
    channels   u16  (0 = no trailing channel axis)
    ndim       u8, then ndim x u32 spatial dims
    frame tag  u8: 0 = frustum {u32 W, H, M}
                   1 = axis    {u32 nx, ny, nz; f64 voxel_size; 3 x f64 origin}
    intrinsics f64 fx, fy, cx, cy; u32 width, height
    planes     u32 count; f64 z_near, z_far
    payload    row-major little-endian array data

Each kind (KINDS) fixes its payload's layout: spatial dims of the camera
image (H, W), of the image times the depth planes (H, W, M) or of the frame,
and no channel axis, exactly 2 channels or any count >= 1. The writer and
`read_container(path, kind)` reject any other payload, naming file and field:

    code  kind             spatial dims        channels
    0     semantic-volume  (H, W)              >= 1
    1     panoptic-volume  frame or (H, W)     2
    2     feature-volume   frame               >= 1
    3     multiplane       (H, W, M) or frame  none
    4     depth            (H, W)              none
    5     heatmap          (H, W)              none
    6     offsets          frame               2
    7     tsdf             frame               none

The manifest is a JSON document referencing the containers of one scene along
with intrinsics, planes, the category table, and instance center rows.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import AxisGrid, CameraIntrinsics, DepthPlanes, FrustumGrid, GeometryError
from .priors import InstanceCenter
from .volume import CategoryTable, PanopticVolume

MAGIC = b"BUOL"
VERSION = 1

IMAGE, IMAGE_PLANES, FRAME = "(H, W)", "(H, W, M)", "frame"
ANY = -1  # any channel count >= 1

# kind -> (the spatial dims it may have, its channel count: 0 = none or ANY).
# A kind's code is its position, so the order is part of the format.
KINDS = {
    "semantic-volume": ((IMAGE,), ANY),
    "panoptic-volume": ((FRAME, IMAGE), 2),
    "feature-volume": ((FRAME,), ANY),
    "multiplane": ((IMAGE_PLANES, FRAME), 0),
    "depth": ((IMAGE,), 0),
    "heatmap": ((IMAGE,), 0),
    "offsets": ((FRAME,), 2),
    "tsdf": ((FRAME,), 0),
}

DTYPES = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("<i4"),
    3: np.dtype("<i8"),
    4: np.dtype("<u1"),
}
DTYPE_CODES = {v: k for k, v in DTYPES.items()}


class ContainerError(ValueError):
    pass


@dataclass
class Container:
    array: np.ndarray
    frame: object
    intrinsics: CameraIntrinsics
    planes: DepthPlanes


def _check_layout(kind, spatial, channels, frame, intrinsics, planes):
    """Raise ContainerError unless `spatial` dims and `channels` fit `kind`'s
    layout under this frame, camera and planes."""
    layouts, want = KINDS[kind]
    image = (intrinsics.height, intrinsics.width)
    dims = {IMAGE: image, IMAGE_PLANES: image + (planes.count,), FRAME: frame.shape}
    if tuple(spatial) not in [dims[layout] for layout in layouts]:
        raise ContainerError(f"{kind} dims {tuple(spatial)} are not " + " or ".join(
            f"{layout} = {dims[layout]}" for layout in layouts))
    if channels != want and not (want == ANY and channels >= 1):
        raise ContainerError(f"{kind} channels {channels}, expected "
                             f"{'>= 1' if want == ANY else want or 'none'}")


def write_container(path, kind: str, array: np.ndarray, frame, intrinsics: CameraIntrinsics,
                    planes: DepthPlanes):
    """Serialize one array; its last axis is the channel axis if `kind` has one."""
    try:
        if kind not in KINDS:
            raise ContainerError(f"unknown payload kind {kind!r}")
        if not isinstance(frame, (FrustumGrid, AxisGrid)):
            raise ContainerError(f"unknown grid frame {frame!r}")
        array = np.asarray(array)
        dtype = array.dtype.newbyteorder("<")
        if dtype not in DTYPE_CODES:
            raise ContainerError(f"unsupported element type {array.dtype}")
        # One conversion at most: C order and little-endian, no copy if already so.
        array = np.ascontiguousarray(array, dtype=dtype)
        spatial, channels = (array.shape[:-1], array.shape[-1]) if KINDS[kind][1] else \
            (array.shape, 0)
        _check_layout(kind, spatial, channels, frame, intrinsics, planes)
    except ContainerError as exc:
        raise ContainerError(f"{path}: {exc}") from exc
    parts = [struct.pack("<4sHBBHB", MAGIC, VERSION, list(KINDS).index(kind),
                         DTYPE_CODES[dtype], channels, len(spatial))]
    parts.append(struct.pack(f"<{len(spatial)}I", *spatial))
    if isinstance(frame, FrustumGrid):
        parts.append(struct.pack("<BIII", 0, frame.width, frame.height, frame.planes))
    else:
        parts.append(struct.pack("<BIIId3d", 1, *frame.shape, frame.voxel_size, *frame.origin))
    parts.append(struct.pack("<4dII", intrinsics.fx, intrinsics.fy, intrinsics.cx,
                             intrinsics.cy, intrinsics.width, intrinsics.height))
    parts.append(struct.pack("<I2d", planes.count, planes.z_near, planes.z_far))
    with open(path, "wb") as f:
        f.write(b"".join(parts))
        f.write(array.reshape(-1).view(np.uint8))


# ndim is a u8: magic..ndim, 255 dims, the axis frame, intrinsics, planes.
_MAX_HEADER = struct.calcsize("<4sHBBHB") + 255 * 4 + struct.calcsize("<BIIId3d") \
    + struct.calcsize("<4dII") + struct.calcsize("<I2d")


def _unpack(fmt, data, offset, what):
    size = struct.calcsize(fmt)
    if offset + size > len(data):
        raise ContainerError(f"truncated container: {what} at offset {offset}")
    return struct.unpack_from(fmt, data, offset), offset + size


def _build(cls, what, **fields):
    try:
        return cls(**fields)
    except GeometryError as exc:
        raise ContainerError(f"invalid {what}: {exc}") from exc


def read_container(path, kind: str) -> Container:
    """Read and validate a container of `kind`; raises ContainerError naming the
    file and the bad field."""
    try:
        with open(path, "rb") as f:
            data = f.read(_MAX_HEADER)
            header, off = _unpack("<4sHBBHB", data, 0, "header")
            magic, version, kind_code, dtype_code, channels, ndim = header
            if magic != MAGIC:
                raise ContainerError(f"bad magic {magic!r} at offset 0")
            if version != VERSION:
                raise ContainerError(f"unsupported format version {version}")
            if kind_code >= len(KINDS):
                raise ContainerError(f"unknown kind code {kind_code} at offset 6")
            if list(KINDS)[kind_code] != kind:
                raise ContainerError(f"kind is {list(KINDS)[kind_code]!r}, expected {kind!r}")
            if dtype_code not in DTYPES:
                raise ContainerError(f"unknown dtype code {dtype_code} at offset 7")
            dims, off = _unpack(f"<{ndim}I", data, off, "dims")
            (frame_tag,), off = _unpack("<B", data, off, "frame tag")
            if frame_tag == 0:
                (w, h, m), off = _unpack("<III", data, off, "frustum frame")
                frame = _build(FrustumGrid, "frustum frame", width=w, height=h, planes=m)
            elif frame_tag == 1:
                vals, off = _unpack("<IIId3d", data, off, "axis frame")
                frame = _build(AxisGrid, "axis frame", dims=vals[:3], voxel_size=vals[3],
                               origin=vals[4:])
            else:
                raise ContainerError(f"unknown frame tag {frame_tag}")
            (fx, fy, cx, cy, iw, ih), off = _unpack("<4dII", data, off, "intrinsics")
            intrinsics = _build(CameraIntrinsics, "intrinsics", fx=fx, fy=fy, cx=cx, cy=cy,
                                width=iw, height=ih)
            (pcount, z_near, z_far), off = _unpack("<I2d", data, off, "planes")
            planes = _build(DepthPlanes, "planes", count=pcount, z_near=z_near, z_far=z_far)
            dtype = DTYPES[dtype_code]
            shape = tuple(dims) + ((channels,) if channels else ())
            # math.prod on Python ints: np.prod would wrap in int64.
            expected = math.prod(shape) * dtype.itemsize
            length = os.fstat(f.fileno()).st_size - off
            if length != expected:
                raise ContainerError(f"payload length {length} != expected {expected} "
                                     "(field dims/channels)")
            _check_layout(kind, dims, channels, frame, intrinsics, planes)
            array = np.empty(shape, dtype)
            f.seek(off)
            got = f.readinto(array.reshape(-1).view(np.uint8))
            if got != expected:
                raise ContainerError(f"short read: {got} of {expected} payload bytes")
    except ContainerError as exc:
        raise ContainerError(f"{path}: {exc}") from exc
    return Container(array=array, frame=frame, intrinsics=intrinsics, planes=planes)


def check_shared(headers):
    """Raise ContainerError naming the file unless each (path, header) pair's
    header (anything with these fields) has the first's frame, intrinsics, planes."""
    (first_path, first), *rest = headers
    for path, header in rest:
        for field in ("frame", "intrinsics", "planes"):
            if getattr(header, field) != getattr(first, field):
                raise ContainerError(f"{path}: {field} {getattr(header, field)} differs from "
                                     f"{first_path}'s {getattr(first, field)}")


def read_containers(files, like=()) -> list:
    """The containers of `files`, (path, kind) pairs, after `check_shared` over
    `like`, (path, header) pairs read before, and them."""
    read = [read_container(path, kind) for path, kind in files]
    check_shared([*like, *zip([path for path, _kind in files], read)])
    return read


def write_panoptic(path, volume: PanopticVolume, intrinsics, planes):
    stacked = np.stack([volume.semantics, volume.instances], axis=-1).astype(
        "<i4", copy=False)
    write_container(path, "panoptic-volume", stacked, volume.frame, intrinsics, planes)


def panoptic_volume(path, cont: Container, categories: CategoryTable) -> PanopticVolume:
    """The volume of the panoptic-volume container read from `path`, named by that path."""
    return PanopticVolume(cont.frame, cont.array[..., 0], cont.array[..., 1],
                          categories, name=str(path))


def read_panoptic(path, categories: CategoryTable) -> PanopticVolume:
    return panoptic_volume(path, read_container(path, "panoptic-volume"), categories)


def manifest_dict(intrinsics, planes, categories, centers, files, generator=None):
    return {
        "intrinsics": {
            "fx": intrinsics.fx, "fy": intrinsics.fy,
            "cx": intrinsics.cx, "cy": intrinsics.cy,
            "width": intrinsics.width, "height": intrinsics.height,
        },
        "planes": {"count": planes.count, "z_near": planes.z_near, "z_far": planes.z_far},
        "categories": [
            {"id": k, "is_thing": bool(t)} for k, t in enumerate(categories.is_thing)
        ],
        "centers": [[c.u, c.v, c.category, c.instance_id] for c in centers],
        "files": dict(files),
        "generator": generator or {},
    }


def write_manifest(path, manifest: dict):
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path, entries=()) -> dict:
    """The manifest at `path`, checked; `entries` names `files` entries it must have."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ContainerError(f"malformed manifest {path}: {exc}") from exc
    for key in ("intrinsics", "planes", "categories", "centers", "files"):
        if not isinstance(manifest, dict) or key not in manifest:  # a JSON number has none
            raise ContainerError(f"manifest {path} is missing field {key!r}")
    # `type(x) is int`: JSON true and 3.0 are not ids and are not rounded or cast to one
    categories = manifest["categories"]
    if not isinstance(categories, list) or not all(
            isinstance(c, dict) and type(c.get("id")) is int and c["id"] == k
            and type(c.get("is_thing")) is bool for k, c in enumerate(categories)):
        raise ContainerError(f"manifest {path}: categories must be objects with a boolean "
                             "is_thing and integer ids contiguous from 0")
    for key, cls in (("intrinsics", CameraIntrinsics), ("planes", DepthPlanes)):
        for f in fields(cls):  # an int field takes an integer, a float field any number
            value = manifest[key].get(f.name) if isinstance(manifest[key], dict) else None
            if type(value) not in ((int,) if f.type == "int" else (int, float)):
                raise ContainerError(f"manifest {path}: {key} {f.name} must be "
                                     f"{'an integer' if f.type == 'int' else 'a number'}")
        _build(cls, f"{key} in manifest {path}", **_entry(manifest, key, cls))
    centers = manifest["centers"]
    if not isinstance(centers, list) or not all(
            isinstance(row, list) and len(row) == 4 and all(type(x) is int for x in row)
            for row in centers):
        raise ContainerError(f"manifest {path}: centers must be rows of four integers "
                             f"(u, v, category, instance id)")
    if not isinstance(manifest["files"], dict) or not all(
            isinstance(ref, str) for ref in manifest["files"].values()):
        raise ContainerError(f"manifest {path}: files must map names to file names")
    for name in entries:
        if name not in manifest["files"]:
            raise ContainerError(f"manifest {path} has no files entry {name!r}")
    for name, ref in manifest["files"].items():
        if not (path.parent / ref).exists():
            raise ContainerError(f"manifest {path} references missing file {ref!r} ({name})")
    return manifest


def _entry(manifest, key, cls) -> dict:
    """The arguments of `cls` in the manifest's `key` entry."""
    return {f.name: manifest[key][f.name] for f in fields(cls)}


def manifest_intrinsics(manifest) -> CameraIntrinsics:
    return CameraIntrinsics(**_entry(manifest, "intrinsics", CameraIntrinsics))


def manifest_planes(manifest) -> DepthPlanes:
    return DepthPlanes(**_entry(manifest, "planes", DepthPlanes))


def manifest_categories(manifest) -> CategoryTable:
    return CategoryTable(is_thing=tuple(bool(c["is_thing"]) for c in manifest["categories"]))


def manifest_centers(manifest):
    """The centers of a manifest that `read_manifest` checked: rows (u, v, category, id)."""
    return [InstanceCenter(*row) for row in manifest["centers"]]
