"""2D-to-3D lifting: occupancy-aware semantic lifting and the surface-only
baselines, depth-only occupancy and the top-down instance lift with
category-sorted or seeded channel order."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraIntrinsics,
    DepthPlanes,
    FrustumGrid,
    OUT_OF_RANGE,
    cell_pixels,
    plane_index,
    project_cells,
)
from .priors import Priors2D, checked_depth
from .volume import VOID


# Cells per block in `occupancy_aware_lift` and `lift_priors`' labels: their
# temporaries stay a few MB, reused block to block, instead of growing with the grid.
LIFT_BLOCK = 1 << 16

# A cell takes its pixel's first argmax channel b, of top score t. Its row is
# (s * occupancy) * gate per channel s; rounding is monotone, so no channel can
# overtake b, and in the normal range each product errs by at most 2**-53, so a
# channel below t * (1 - 2**-50) stays strictly below b: no new tie. Cells whose
# pixel has another channel within this margin of t, or whose score at b is
# subnormal (where that bound fails), are labeled from their rows.
LABEL_MARGIN = 2.0 ** -40


class LiftingError(ValueError):
    pass


@dataclass
class FeatureVolume:
    """Dense per-cell features (last axis = channels) and occupancy."""

    frame: object
    features: np.ndarray
    occupancy: np.ndarray


def _frustum_fill_mask(depth: np.ndarray, planes: DepthPlanes) -> np.ndarray:
    """(H, W, M) mask of cells at or behind the pixel's depth surface."""
    m, hit = surface_planes(depth, planes)
    return np.arange(planes.count) >= np.where(hit, m, planes.count)[..., None]


def surface_planes(depth: np.ndarray, planes: DepthPlanes):
    """Per pixel, the plane of its depth surface, the first plane whose center
    is at or behind the depth, and whether it has one (depth > 0 and at most the
    last center): the one surface-plane rule of the lift and both baselines."""
    m = np.searchsorted(planes.centers(), depth)
    return m, (depth > 0) & (m < planes.count)


def surface_only_occupancy(depth: np.ndarray, planes: DepthPlanes) -> np.ndarray:
    """Multi-plane occupancy that marks only the depth-surface plane per ray: the
    one placement of both baselines' surface cells."""
    m, hit = surface_planes(np.asarray(depth, dtype=np.float64), planes)
    return (np.arange(planes.count) == np.where(hit, m, planes.count)[..., None]).astype(np.float64)


def scores_to_labels(scores: np.ndarray) -> np.ndarray:
    """(N, C) scores -> int32 labels: argmax with the first index winning ties,
    VOID where no score is > 0."""
    best = np.argmax(scores, axis=-1)
    # The score at the argmax is the row maximum (NaN if any score is NaN).
    top = np.take_along_axis(scores, best[..., None], axis=-1)[..., 0]
    return np.where(top > 0, best, VOID).astype(np.int32)


def lift_priors(priors: Priors2D, frame, intrinsics: CameraIntrinsics, planes: DepthPlanes):
    """`Priors2D.validate`, then the occupancy-aware lift: (occupancy, rows, labels).
    `occupancy` is the multi-plane occupancy at every cell, zero in free space
    (in front of the depth surface) and on rays with no surface; `rows` maps
    flat cell indices to their (N, C) features: pixel semantics times it. For gates
    in (0, 1], `labels(cells, gate)` is `scores_to_labels(rows(cells) * gate[:, None])`
    bit for bit, from one argmax per pixel (see LABEL_MARGIN)."""
    priors.validate(frame, intrinsics, planes)
    depth = np.asarray(priors.depth, dtype=np.float64)
    mp_occupancy = np.asarray(priors.mp_occupancy, dtype=np.float64)
    if isinstance(frame, FrustumGrid):
        occupancy = mp_occupancy * _frustum_fill_mask(depth, planes)
    else:
        pixel, inside = cell_pixels(frame, intrinsics)
        _u, _v, z = project_cells(frame, intrinsics, planes)
        m = plane_index(z, planes)
        d = depth.reshape(-1)[pixel]
        keep = inside & (m != OUT_OF_RANGE) & (d > 0) & (z >= d)
        occupancy = mp_occupancy.reshape(-1, planes.count)[pixel, np.where(keep, m, 0)] * keep
    semantics = np.asarray(priors.semantics, dtype=np.float64)
    pixels = semantics.reshape(-1, semantics.shape[-1])

    def rows(cells):
        pixel, _inside = cell_pixels(frame, intrinsics, cells)
        out = np.take(pixels, pixel, axis=0)
        out *= occupancy.reshape(-1)[cells, None]
        return out

    def labels(cells, gate):
        best = np.argmax(pixels, axis=1).astype(np.int32)
        top = np.take_along_axis(pixels, best[:, None], axis=1)[:, 0]
        close = (pixels >= (top * (1 - LABEL_MARGIN))[:, None]) @ np.ones(pixels.shape[1]) > 1
        out = np.empty(len(cells), dtype=np.int32)
        for start in range(0, len(cells), LIFT_BLOCK):
            block, g = cells[start:start + LIFT_BLOCK], gate[start:start + LIFT_BLOCK]
            pixel, _inside = cell_pixels(frame, intrinsics, block)
            score = np.take(top, pixel) * np.take(occupancy, block) * g
            hit = score > 0
            label = np.take(best, pixel, out=out[start:start + LIFT_BLOCK])
            label[~hit] = VOID
            exact = np.flatnonzero(hit & (np.take(close, pixel) | (score < np.finfo(float).tiny)))
            if exact.size:
                label[exact] = scores_to_labels(rows(block[exact]) * g[exact, None])
        return out

    return occupancy, rows, labels


def occupancy_aware_lift(priors: Priors2D, frame, intrinsics: CameraIntrinsics,
                         planes: DepthPlanes) -> FeatureVolume:
    """Hadamard product of lifted semantics and lifted occupancy, dense:
    `lift_priors`' rows at every cell, evaluated in blocks of LIFT_BLOCK cells."""
    occ, rows, _labels = lift_priors(priors, frame, intrinsics, planes)
    features = np.empty(occ.shape + np.shape(priors.semantics)[-1:])
    flat = features.reshape(occ.size, features.shape[-1])
    for start in range(0, occ.size, LIFT_BLOCK):
        flat[start:start + LIFT_BLOCK] = rows(np.arange(start, min(start + LIFT_BLOCK, occ.size)))
    return FeatureVolume(frame=frame, features=features, occupancy=occ)


def lift_instances_topdown(
    instances2d: np.ndarray,
    depth: np.ndarray,
    frame,
    intrinsics: CameraIntrinsics,
    planes: DepthPlanes,
    seed: int | None = None,
    n_channels: int = 16,
) -> FeatureVolume:
    """Surface-only lifting of 2D instance masks into fixed voxel channels.

    `instances2d` is the (height, width, 2) (category, instance id) map of
    `instances2d.bin`, id 0 where there is no instance; an instance's category
    is the one at its first pixel in C order. Each instance fills one channel at
    its pixels' `surface_only_occupancy` cells. Channels go in (category, id)
    order, or with an int `seed`, in a PCG64 shuffle of the ids in ascending
    order. When more instances exist than channels, the largest-area instances
    are kept (the lower id on equal areas).
    """
    if n_channels < 1:
        raise LiftingError("need at least one instance channel")
    if not isinstance(frame, FrustumGrid):
        raise LiftingError("top-down baseline is defined on the frustum frame")
    depth = checked_depth(depth, frame, intrinsics, planes)
    instances2d = np.asarray(instances2d)
    if instances2d.shape != depth.shape + (2,):
        raise LiftingError(f"instances2d shape {instances2d.shape} != the camera's "
                           f"(height, width, 2) {depth.shape + (2,)}")
    if (instances2d[..., 1] < 0).any():
        raise LiftingError("instances2d has a negative instance id")
    ids, first, inverse, area = np.unique(instances2d[..., 1], return_index=True,
                                          return_inverse=True, return_counts=True)
    kept = np.flatnonzero(ids > 0)
    if len(kept) > n_channels:
        warnings.warn(f"dropping {len(kept) - n_channels} instances beyond {n_channels} channels")
        kept = np.sort(kept[np.lexsort((kept, -area[kept]))[:n_channels]])
    if seed is None:
        kept = kept[np.lexsort((kept, instances2d[..., 0].ravel()[first[kept]]))]
    else:
        np.random.Generator(np.random.PCG64(seed)).shuffle(kept)
    channel = np.full(len(ids), -1)
    channel[kept] = np.arange(len(kept))
    channel = channel[inverse.reshape(depth.shape)]
    occupancy = surface_only_occupancy(depth, planes) * (channel >= 0)[..., None]
    features = occupancy[..., None] * (channel[..., None, None] == np.arange(n_channels))
    return FeatureVolume(frame=frame, features=features, occupancy=occupancy)
