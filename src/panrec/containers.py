"""Binary volume containers and the scene manifest.

Container layout (all integers little-endian):

    magic      4s   = b"BUOL"
    version    u16  = 1
    kind       u8   (position in KINDS)
    dtype      u8   1 = <f8, 2 = <i4 (DTYPES); the kind's element type
    channels   u16  (0 = no trailing channel axis)
    ndim       u8, then ndim x u32 spatial dims
    frame tag  u8: 0 = frustum {u32 W, H, M}
                   1 = axis    {u32 nx, ny, nz; f64 voxel_size; 3 x f64 origin}
    intrinsics f64 fx, fy, cx, cy; u32 width, height
    planes     u32 count; f64 z_near, z_far
    payload    row-major little-endian array data

Each kind (KINDS) fixes its payload's layout: spatial dims of the camera
image (H, W), of the image times the depth planes (H, W, M) or of the frame;
no channel axis, exactly 2 channels or any count >= 1; and one element type,
to which the writer casts where numpy's "safe" casting allows, except integers
wider than 32 bits to <f8, which could round. The writer and
`read_container(path, kind)` reject any other payload, naming file and field:

    code  kind             spatial dims        channels  dtype
    0     semantic-volume  (H, W)              >= 1      <f8
    1     panoptic-volume  frame or (H, W)     2         <i4
    2     feature-volume   frame               >= 1      <f8
    3     multiplane       (H, W, M) or frame  none      <f8
    4     depth            (H, W)              none      <f8
    5     heatmap          (H, W)              none      <f8
    6     offsets          frame               2         <f8

The manifest is a JSON document referencing the containers of one scene along
with intrinsics, planes, the category table, and instance center rows.
`read_manifest` checks it and returns a frozen `Manifest` record that holds the
camera, planes and table its checks built; `manifest_dict` is that record's one
serializer, and `write_manifest` writes the dict it returns.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import (AxisGrid, CameraIntrinsics, DepthPlanes, FrustumGrid, GeometryError,
                       PanrecError)
from .priors import InstanceCenter
from .volume import CategoryTable, PanopticVolume, VolumeError

MAGIC = b"BUOL"
VERSION = 1

IMAGE, IMAGE_PLANES, FRAME = "(H, W)", "(H, W, M)", "frame"
ANY = -1  # any channel count >= 1

DTYPES = {1: np.dtype("<f8"), 2: np.dtype("<i4")}  # code -> element type
DTYPE_CODES = {v: k for k, v in DTYPES.items()}
F8, I4 = DTYPES[1], DTYPES[2]

# kind -> (the spatial dims it may have, its channel count: 0 = none or ANY, its
# element type). A kind's code is its position, so the order is part of the format.
KINDS = {
    "semantic-volume": ((IMAGE,), ANY, F8),
    "panoptic-volume": ((FRAME, IMAGE), 2, I4),
    "feature-volume": ((FRAME,), ANY, F8),
    "multiplane": ((IMAGE_PLANES, FRAME), 0, F8),
    "depth": ((IMAGE,), 0, F8),
    "heatmap": ((IMAGE,), 0, F8),
    "offsets": ((FRAME,), 2, F8),
}


class ContainerError(PanrecError):
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
    layouts, want, _dtype = KINDS[kind]
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
        array, dtype = np.asarray(array), KINDS[kind][2]
        wide = array.dtype.kind in "iu" and array.dtype.itemsize > 4  # <f8 rounds past 2**53
        if wide or not np.can_cast(array.dtype, dtype, "safe"):
            raise ContainerError(f"{kind} elements {array.dtype} do not fit {dtype.str} exactly")
        # One conversion at most: C order and the kind's type, no copy if already so.
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
    except (GeometryError, VolumeError) as exc:
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
            dtype = KINDS[kind][2]
            if dtype_code != DTYPE_CODES[dtype]:
                raise ContainerError(f"dtype code {dtype_code} at offset 7, expected {dtype.str}")
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


def panoptic_array(volume: PanopticVolume) -> np.ndarray:
    """The (..., 2) payload of a panoptic-volume container: semantics, instances."""
    return np.stack([volume.semantics, volume.instances], axis=-1)


def panoptic_volume(path, cont: Container, categories: CategoryTable) -> PanopticVolume:
    """The volume of the panoptic-volume container read from `path`, named by that path."""
    return PanopticVolume(cont.frame, cont.array[..., 0], cont.array[..., 1],
                          categories, name=str(path))


def read_panoptic(path, categories: CategoryTable) -> PanopticVolume:
    return panoptic_volume(path, read_container(path, "panoptic-volume"), categories)


@dataclass(frozen=True)
class Manifest:
    """A scene or prior directory's manifest: camera, planes, category table, centers,
    files (name -> file name beside the manifest) and the generator's settings."""
    intrinsics: CameraIntrinsics
    planes: DepthPlanes
    categories: CategoryTable
    centers: tuple  # InstanceCenter rows
    files: dict
    generator: dict


def manifest_dict(manifest: Manifest) -> dict:
    """The JSON object of `manifest`, as `write_manifest` writes it."""
    return {
        "intrinsics": asdict(manifest.intrinsics),
        "planes": asdict(manifest.planes),
        "categories": [
            {"id": k, "is_thing": bool(t)} for k, t in enumerate(manifest.categories.is_thing)
        ],
        "centers": [[c.u, c.v, c.category, c.instance_id] for c in manifest.centers],
        "files": dict(manifest.files),
        "generator": manifest.generator,
    }


def write_manifest(path, document: dict):
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def read_manifest(path, entries=()) -> Manifest:
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
    built = {"categories": _build(CategoryTable, f"categories in manifest {path}",
                                  is_thing=tuple(c["is_thing"] for c in categories))}
    for key, cls in (("intrinsics", CameraIntrinsics), ("planes", DepthPlanes)):
        entry = manifest[key] if isinstance(manifest[key], dict) else {}
        for f in fields(cls):  # an int field takes an integer, a float field any number
            if type(entry.get(f.name)) not in ((int,) if f.type == "int" else (int, float)):
                raise ContainerError(f"manifest {path}: {key} {f.name} must be "
                                     f"{'an integer' if f.type == 'int' else 'a number'}")
        built[key] = _build(cls, f"{key} in manifest {path}",
                            **{f.name: entry[f.name] for f in fields(cls)})
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
    return Manifest(centers=tuple(InstanceCenter(*row) for row in centers),
                    files=manifest["files"], generator=manifest.get("generator", {}), **built)


def manifest_categories(manifest: Manifest) -> CategoryTable:
    """`manifest.categories`, kept because `perfbench/workloads.py` calls it."""
    return manifest.categories
