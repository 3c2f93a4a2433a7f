"""Binary volume containers and the scene manifest.

Container layout (all integers little-endian):

    magic      4s   = b"BUOL"
    version    u16  = 1
    kind       u8   (see KINDS)
    dtype      u8   (see DTYPES)
    channels   u16  (0 = no trailing channel axis)
    ndim       u8, then ndim x u32 spatial dims
    frame tag  u8: 0 = frustum {u32 W, H, M}
                   1 = axis    {u32 nx, ny, nz; f64 voxel_size; 3 x f64 origin}
    intrinsics f64 fx, fy, cx, cy; u32 width, height
    planes     u32 count; f64 z_near, z_far
    payload    row-major little-endian array data

The manifest is a JSON document referencing the containers of one scene along
with intrinsics, planes, the category table, and instance center rows.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import AxisGrid, CameraIntrinsics, DepthPlanes, FrustumGrid, GeometryError
from .priors import InstanceCenter
from .volume import CategoryTable, PanopticVolume

MAGIC = b"BUOL"
VERSION = 1

KINDS = (
    "semantic-volume",
    "panoptic-volume",
    "feature-volume",
    "multiplane",
    "depth",
    "heatmap",
    "offsets",
    "tsdf",
)

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
    kind: str
    array: np.ndarray
    frame: object
    intrinsics: CameraIntrinsics
    planes: DepthPlanes


def write_container(
    path,
    kind: str,
    array: np.ndarray,
    frame,
    intrinsics: CameraIntrinsics,
    planes: DepthPlanes,
    channels: int = 0,
):
    """Serialize one array. `channels` > 0 marks a trailing channel axis."""
    if kind not in KINDS:
        raise ContainerError(f"unknown payload kind {kind!r}")
    array = np.asarray(array)
    dtype = array.dtype.newbyteorder("<")
    if dtype not in DTYPE_CODES:
        raise ContainerError(f"unsupported element type {array.dtype}")
    # One conversion at most: C order and little-endian, no copy if already so.
    array = np.ascontiguousarray(array, dtype=dtype)
    spatial = array.shape[:-1] if channels else array.shape
    if channels and array.shape[-1] != channels:
        raise ContainerError("channel count does not match the array")
    parts = [struct.pack("<4sHBBHB", MAGIC, VERSION, KINDS.index(kind),
                         DTYPE_CODES[dtype], channels, len(spatial))]
    parts.append(struct.pack(f"<{len(spatial)}I", *spatial))
    if isinstance(frame, FrustumGrid):
        parts.append(struct.pack("<BIII", 0, frame.width, frame.height, frame.planes))
    elif isinstance(frame, AxisGrid):
        parts.append(
            struct.pack(
                "<BIIId3d", 1, *frame.shape, frame.voxel_size, *frame.origin
            )
        )
    else:
        raise ContainerError(f"unknown grid frame {frame!r}")
    parts.append(
        struct.pack(
            "<4dII",
            intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy,
            intrinsics.width, intrinsics.height,
        )
    )
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


def read_container(path) -> Container:
    """Read and validate a container; raises ContainerError naming the bad field."""
    with open(path, "rb") as f:
        data = f.read(_MAX_HEADER)
        (magic, version, kind_code, dtype_code, channels, ndim), off = _unpack(
            "<4sHBBHB", data, 0, "header"
        )
        if magic != MAGIC:
            raise ContainerError(f"bad magic {magic!r} at offset 0")
        if version != VERSION:
            raise ContainerError(f"unsupported format version {version}")
        if kind_code >= len(KINDS):
            raise ContainerError(f"unknown kind code {kind_code} at offset 6")
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
            raise ContainerError(
                f"payload length {length} != expected {expected} (field dims/channels)"
            )
        array = np.empty(shape, dtype)
        f.seek(off)
        got = f.readinto(array.reshape(-1).view(np.uint8))
        if got != expected:
            raise ContainerError(f"short read: {got} of {expected} payload bytes")
    return Container(
        kind=KINDS[kind_code], array=array, frame=frame,
        intrinsics=intrinsics, planes=planes,
    )


def write_panoptic(path, volume: PanopticVolume, intrinsics, planes):
    stacked = np.stack([volume.semantics, volume.instances], axis=-1).astype(
        "<i4", copy=False)
    write_container(
        path, "panoptic-volume", stacked, volume.frame, intrinsics, planes, channels=2
    )


def read_panoptic(path, categories: CategoryTable) -> PanopticVolume:
    cont = read_container(path)
    if cont.kind != "panoptic-volume":
        raise ContainerError(f"expected a panoptic volume, got {cont.kind}")
    return PanopticVolume(
        frame=cont.frame,
        semantics=cont.array[..., 0],
        instances=cont.array[..., 1],
        categories=categories,
    ).validate()


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


def read_manifest(path) -> dict:
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ContainerError(f"malformed manifest {path}: {exc}") from exc
    for key in ("intrinsics", "planes", "categories", "centers", "files"):
        if key not in manifest:
            raise ContainerError(f"manifest {path} is missing field {key!r}")
    ids = [c["id"] for c in manifest["categories"]]
    if ids != list(range(len(ids))):
        raise ContainerError("category ids must be contiguous from 0")
    for name, ref in manifest["files"].items():
        if not (path.parent / ref).exists():
            raise ContainerError(f"manifest references missing file {ref!r} ({name})")
    return manifest


def manifest_intrinsics(manifest) -> CameraIntrinsics:
    d = manifest["intrinsics"]
    return CameraIntrinsics(
        fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"],
        width=d["width"], height=d["height"],
    )


def manifest_planes(manifest) -> DepthPlanes:
    d = manifest["planes"]
    return DepthPlanes(count=d["count"], z_near=d["z_near"], z_far=d["z_far"])


def manifest_categories(manifest) -> CategoryTable:
    return CategoryTable(is_thing=tuple(bool(c["is_thing"]) for c in manifest["categories"]))


def manifest_centers(manifest):
    return [
        InstanceCenter(u=int(u), v=int(v), category=int(k), instance_id=int(i))
        for u, v, k, i in manifest["centers"]
    ]
