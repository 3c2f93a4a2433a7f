"""Pinhole camera model, depth-plane discretization, the map from an axis cell to
the frustum cell it reads, and grid-frame resampling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Sentinel returned by plane_index for depths outside [z_near, z_far).
OUT_OF_RANGE = -1


class PanrecError(ValueError):
    """The base of every panrec error: bad input, named by its field or file."""


class GeometryError(PanrecError):
    pass


def _is_size(value) -> bool:
    """An integer >= 1: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixel units; +z forward, +x right, +y down."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise GeometryError(f"focal length {name} must be finite and positive")
        for name in ("width", "height"):
            if not _is_size(getattr(self, name)):
                raise GeometryError(f"image {name} must be an integer >= 1")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise GeometryError("principal point must lie inside the image")


@dataclass(frozen=True)
class DepthPlanes:
    """Uniform discretization of [z_near, z_far) into `count` metric depth planes."""

    count: int
    z_near: float = 0.4
    z_far: float = 6.0

    def __post_init__(self):
        if not _is_size(self.count):
            raise GeometryError("plane count must be an integer >= 1")
        if not (0 < self.z_near < self.z_far < np.inf):
            raise GeometryError("need 0 < z_near < z_far < inf")

    @property
    def spacing(self) -> float:
        return (self.z_far - self.z_near) / self.count

    def center(self, m):
        """Metric depth of the center of plane m (vectorized)."""
        return self.z_near + (np.asarray(m) + 0.5) * self.spacing

    def centers(self) -> np.ndarray:
        return self.center(np.arange(self.count))


@dataclass(frozen=True)
class FrustumGrid:
    """Pixel-aligned grid: cell (u, v, m) is one ray sample. Arrays are (H, W, M)."""

    width: int
    height: int
    planes: int

    def __post_init__(self):
        for name in ("width", "height", "planes"):
            if not _is_size(getattr(self, name)):
                raise GeometryError(f"frustum {name} must be an integer >= 1")

    @property
    def shape(self):
        return (self.height, self.width, self.planes)


@dataclass(frozen=True)
class AxisGrid:
    """Axis-aligned camera-space grid. Arrays are (nx, ny, nz); cell centers at
    origin + (index + 0.5) * voxel_size."""

    dims: tuple
    voxel_size: float
    origin: tuple

    def __post_init__(self):
        dims = tuple(self.dims)
        if len(dims) != 3 or not all(_is_size(d) for d in dims):
            raise GeometryError("axis dims must be three integers >= 1")
        # Tuples of Python numbers, so that equal frames compare and hash equal.
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if not 0 < self.voxel_size < np.inf:
            raise GeometryError("voxel_size must be finite and positive")
        if not np.isfinite(self.origin).all():
            raise GeometryError(f"origin {self.origin} must be finite")

    @property
    def shape(self):
        return self.dims


def backproject(u, v, z, intrinsics: CameraIntrinsics):
    """Pixel (u, v) at metric depth z -> camera-space point (x, y, z)."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0):
        raise GeometryError("backproject requires z > 0")
    x = z * (np.asarray(u, dtype=np.float64) - intrinsics.cx) / intrinsics.fx
    y = z * (np.asarray(v, dtype=np.float64) - intrinsics.cy) / intrinsics.fy
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def project(points, intrinsics: CameraIntrinsics):
    """Camera-space points (..., 3) -> continuous (u, v, z). No rounding."""
    points = np.asarray(points, dtype=np.float64)
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    if np.any(z <= 0):
        raise GeometryError("project requires points in front of the camera (z > 0)")
    u = intrinsics.fx * x / z + intrinsics.cx
    v = intrinsics.fy * y / z + intrinsics.cy
    return u, v, z


def plane_index(z, planes: DepthPlanes):
    """Depth plane containing metric depth z; OUT_OF_RANGE outside [z_near, z_far)."""
    z = np.asarray(z, dtype=np.float64)
    m = np.floor((z - planes.z_near) * planes.count / (planes.z_far - planes.z_near))
    m = m.astype(np.int64)
    out = (z < planes.z_near) | (z >= planes.z_far)
    m = np.where(out, OUT_OF_RANGE, np.clip(m, 0, planes.count - 1))
    return int(m) if m.ndim == 0 else m


def round_half_up(x):
    """Continuous image coordinate -> integer cell index (half rounds up)."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


def cell_centers(frame, intrinsics: CameraIntrinsics, planes: DepthPlanes) -> np.ndarray:
    """Camera-space center points of every cell, shaped frame.shape + (3,)."""
    if not isinstance(frame, (FrustumGrid, AxisGrid)):
        raise GeometryError(f"unknown grid frame {frame!r}")
    a, b, c = np.indices(frame.shape)
    if isinstance(frame, FrustumGrid):
        return backproject(b, a, planes.center(c), intrinsics)
    idx = np.stack([a, b, c], axis=-1).astype(np.float64)
    return np.asarray(frame.origin) + (idx + 0.5) * frame.voxel_size


def frame_error(frame, intrinsics: CameraIntrinsics, planes: DepthPlanes):
    """Why `frame` is not a grid frame of this camera and these planes, or None:
    a frustum frame must have dims (height, width, planes)."""
    dims = (intrinsics.height, intrinsics.width, planes.count)
    if not isinstance(frame, (FrustumGrid, AxisGrid)):
        return f"unknown grid frame {frame!r}"
    if isinstance(frame, FrustumGrid) and frame.shape != dims:
        return (f"frustum frame dims (height, width, planes) {frame.shape} "
                f"do not match the camera and depth planes {dims}")


def _axis_tables(frame, intrinsics: CameraIntrinsics):
    """Image position of axis cell centers as tables: u over (ix, iz), v over
    (iy, iz) and depth z over iz, since a center's x depends only on ix, y only
    on iy and z only on iz. Where z <= 0, u and v are taken at z = 1."""
    if not isinstance(frame, AxisGrid):
        raise GeometryError(f"not an axis grid frame: {frame!r}")
    x, y, z = (o + (np.arange(n, dtype=np.float64) + 0.5) * frame.voxel_size
               for o, n in zip(frame.origin, frame.dims))
    zsafe = np.where(z > 0, z, 1.0)
    u = intrinsics.fx * x[:, None] / zsafe + intrinsics.cx
    v = intrinsics.fy * y[:, None] / zsafe + intrinsics.cy
    return u, v, z


def frustum_cells(frame, intrinsics: CameraIntrinsics, planes: DepthPlanes):
    """The frustum cell each axis cell center falls in: (cell, inside) over frame.shape.

    `cell` is the flat frustum index pixel * planes.count + plane, where the pixel
    is the flat image index v * width + u of the nearest pixel (half rounds up)
    and the plane is `plane_index` of the center's depth. `inside` marks centers
    whose pixel lies in the image and whose plane is in range (so in front of
    the camera); `cell` is 0 wherever a center is not inside.
    """
    u, v, z = _axis_tables(frame, intrinsics)
    ui, vi = round_half_up(u), round_half_up(v)
    m = plane_index(z, planes)
    in_u = (ui >= 0) & (ui < intrinsics.width)
    in_v = (vi >= 0) & (vi < intrinsics.height) & (m != OUT_OF_RANGE)
    inside = in_u[:, None] & in_v
    cell = (ui * planes.count + m)[:, None] + vi * (intrinsics.width * planes.count)
    cell *= inside
    return cell, inside


def project_cells(frame, intrinsics: CameraIntrinsics, cells):
    """Continuous image position (u, v) of the centers of the flat cell indices
    `cells`. u and v are NaN at or behind the camera."""
    if isinstance(frame, FrustumGrid):
        v, u = np.unravel_index(cells, frame.shape)[:2]
        return u.astype(np.float64), v.astype(np.float64)
    u, v, z = _axis_tables(frame, intrinsics)
    front = z > 0
    ix, iy, iz = np.unravel_index(cells, frame.shape)
    return np.where(front, u, np.nan)[ix, iz], np.where(front, v, np.nan)[iy, iz]


def resample_volume(volume: np.ndarray, src_frame, dst_frame, intrinsics: CameraIntrinsics,
                    planes: DepthPlanes) -> np.ndarray:
    """Nearest-neighbor resampling of a labeled volume between grid frames.

    Each destination cell samples the source cell containing its center point:
    on a frustum source, the cell of `frustum_cells`; on an axis source, the
    cell the center floors to. Centers outside the source frame become VOID.
    Identical frames return a copy of the input unchanged. A frustum frame,
    source or destination, must have the dims (height, width, planes) of the
    camera and depth planes.
    """
    for frame in (src_frame, dst_frame):
        if error := frame_error(frame, intrinsics, planes):
            raise GeometryError(error)
    volume = np.asarray(volume)
    if volume.shape[: len(src_frame.shape)] != src_frame.shape:
        raise GeometryError(f"volume shape {volume.shape} does not match source frame "
                            f"{src_frame.shape}")
    if src_frame == dst_frame:
        return volume.copy()
    if isinstance(src_frame, FrustumGrid):
        cells, valid = frustum_cells(dst_frame, intrinsics, planes)
    else:
        centers = cell_centers(dst_frame, intrinsics, planes)
        idx = np.floor((centers - src_frame.origin) / src_frame.voxel_size).astype(np.int64)
        valid = np.all((idx >= 0) & (idx < src_frame.shape), axis=-1)
        cells = np.ravel_multi_index(np.moveaxis(idx, -1, 0), src_frame.shape, mode="clip")
    from .volume import VOID  # not at the top: volume imports this module
    out = volume.reshape((-1,) + volume.shape[3:])[cells]
    return np.where(valid.reshape(valid.shape + (1,) * (out.ndim - valid.ndim)), out, VOID)
