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
    PanrecError,
    frustum_cells,
)
from .priors import Priors2D, checked, checked_depth
from .volume import BLOCK, VOID


# A cell takes its pixel's first argmax channel b, of top score t. Its gated row
# is (s * occupancy) * occupancy per channel s; rounding is monotone, so no
# channel can overtake b, and in the normal range each product errs by at most
# 2**-53, so a channel below t * (1 - 2**-50) stays strictly below b: no new tie.
# Cells whose pixel has another channel within this margin of t, or whose score
# at b is subnormal (where that bound fails), are labeled from their rows.
LABEL_MARGIN = 2.0 ** -40


class LiftingError(PanrecError):
    pass


@dataclass
class FeatureVolume:
    """Dense per-cell features (last axis = channels) and occupancy."""

    frame: object
    features: np.ndarray
    occupancy: np.ndarray


def surface_planes(depth: np.ndarray, planes: DepthPlanes) -> np.ndarray:
    """Per pixel, the plane of its depth surface, the first plane whose center
    is at or behind the depth, or `planes.count` on a ray with none (depth 0 or
    past the last center): the one surface-plane rule of the lift and baselines."""
    return np.where(depth > 0, np.searchsorted(planes.centers(), depth), planes.count)


def surface_only_occupancy(depth: np.ndarray, planes: DepthPlanes) -> np.ndarray:
    """Multi-plane occupancy that marks only the depth-surface plane per ray: the
    one placement of both baselines' surface cells."""
    surface = surface_planes(np.asarray(depth, dtype=np.float64), planes)
    return (np.arange(planes.count) == surface[..., None]).astype(np.float64)


def scores_to_labels(scores: np.ndarray) -> np.ndarray:
    """(N, C) scores -> int32 labels: argmax with the first index winning ties,
    VOID where no score is > 0."""
    best = np.argmax(scores, axis=-1)
    # The score at the argmax is the row maximum (NaN if any score is NaN).
    top = np.take_along_axis(scores, best[..., None], axis=-1)[..., 0]
    return np.where(top > 0, best, VOID).astype(np.int32)


def lift_priors(priors: Priors2D, frame, intrinsics: CameraIntrinsics, planes: DepthPlanes):
    """`Priors2D.validate`, then the occupancy-aware lift: (occupied, rows, labels).
    A frustum cell's occupancy is its pixel's multi-plane occupancy at its plane
    if that plane is at or past the pixel's `surface_planes` plane, else 0; an
    axis cell's is that of the frustum cell its center falls in (`frustum_cells`),
    0 where it falls in none. For t > 0, `occupied(t)` lists the flat cells of
    occupancy >= t in ascending order, and their occupancy; `rows` maps flat cell
    indices to their (N, C) features, pixel semantics times occupancy.
    `labels(cells)` is `scores_to_labels(rows(cells) * occupancy[:, None])`, the
    rows gated by the cells' own occupancy, bit for bit, from one argmax per
    pixel (see LABEL_MARGIN)."""
    priors.validate(frame, intrinsics, planes)
    depth = np.asarray(priors.depth, dtype=np.float64)
    mp = np.asarray(priors.mp_occupancy).reshape(-1)  # in its own dtype: bool when GT-derived
    # per ray, the flat index of its surface cell (of the next ray's first cell
    # on a ray with none): a ray's cells from there on are filled
    first = np.arange(depth.size) * planes.count + surface_planes(depth, planes).ravel()

    def frustum_at(cells):  # the frustum cells' pixels and float64 occupancy
        pixel = cells // planes.count
        return pixel, np.multiply(np.take(mp, cells), cells >= np.take(first, pixel), dtype=float)

    if isinstance(frame, FrustumGrid):  # a frustum cell falls in itself
        at, frustum_of = frustum_at, (lambda cells: cells)
    else:  # the frustum cell each axis cell falls in, mapped once
        cell, inside = (a.reshape(-1) for a in frustum_cells(frame, intrinsics, planes))
        frustum_of = lambda cells: cell[cells]  # flat indices or a slice

        def at(cells):
            pixel, occupancy = frustum_at(frustum_of(cells))
            return pixel, occupancy * np.take(inside, cells)
    semantics = np.asarray(priors.semantics, dtype=np.float64)
    pixels = semantics.reshape(-1, semantics.shape[-1])

    def occupied(t):
        # a cell's occupancy is 0 or the multi-plane occupancy at its frustum cell
        blocks = (np.flatnonzero(mp[frustum_of(slice(start, start + BLOCK))] >= t) + start
                  for start in range(0, np.prod(frame.shape), BLOCK))
        cells = np.concatenate([block[at(block)[1] >= t] for block in blocks])
        return cells, np.take(mp, frustum_of(cells)).astype(np.float64, copy=False)

    def rows(cells):
        pixel, occupancy = at(cells)
        out = np.take(pixels, pixel, axis=0)
        out *= occupancy[:, None]
        return out

    def labels(cells):
        best = np.argmax(pixels, axis=1).astype(np.int32)
        top = np.take_along_axis(pixels, best[:, None], axis=1)[:, 0]
        close = (pixels >= (top * (1 - LABEL_MARGIN))[:, None]) @ np.ones(pixels.shape[1]) > 1
        out = np.empty(len(cells), dtype=np.int32)
        for start in range(0, len(cells), BLOCK):
            block = cells[start:start + BLOCK]
            pixel, occupancy = at(block)
            score = np.take(top, pixel) * occupancy * occupancy
            hit = score > 0
            label = np.take(best, pixel, out=out[start:start + BLOCK])
            label[~hit] = VOID
            exact = np.flatnonzero(hit & (np.take(close, pixel) | (score < np.finfo(float).tiny)))
            if exact.size:
                label[exact] = scores_to_labels(rows(block[exact]) * occupancy[exact, None])
        return out

    return occupied, rows, labels


def lifted_occupancy(occupied, frame) -> np.ndarray:
    """The lifted occupancy of every cell, dense, from `lift_priors`' lister
    `occupied`: for `occupancy_aware_lift` and `panrec loss`, which need it."""
    volume = np.zeros(frame.shape)
    cells, gate = occupied(np.nextafter(0.0, 1.0))
    volume.reshape(-1)[cells] = gate
    return volume


def occupancy_aware_lift(priors: Priors2D, frame, intrinsics: CameraIntrinsics,
                         planes: DepthPlanes) -> FeatureVolume:
    """Hadamard product of lifted semantics and lifted occupancy, dense:
    `lift_priors`' rows at every cell, evaluated in blocks of BLOCK cells,
    and `lifted_occupancy`."""
    occupied, rows, _labels = lift_priors(priors, frame, intrinsics, planes)
    occ = lifted_occupancy(occupied, frame)
    features = np.empty(occ.shape + np.shape(priors.semantics)[-1:])
    flat = features.reshape(occ.size, features.shape[-1])
    for start in range(0, occ.size, BLOCK):
        flat[start:start + BLOCK] = rows(np.arange(start, min(start + BLOCK, occ.size)))
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
    `instances2d.bin`, id 0 where there is no instance and one category per
    instance. Each instance fills one channel at its pixels'
    `surface_only_occupancy` cells: `occupancy_aware_lift` of one-hot channel
    semantics. Channels go in (category, id) order, or with an int `seed`, in a
    PCG64 shuffle of the ids in ascending order. When more instances exist than
    channels, the largest-area instances are kept (the lower id on equal areas).
    """
    if n_channels < 1:
        raise LiftingError(f"n_channels must be >= 1, got {n_channels}")
    if not isinstance(frame, FrustumGrid):
        raise LiftingError("top-down baseline is defined on the frustum frame")
    depth = checked_depth(depth, frame, intrinsics, planes)
    instances2d = checked("instances2d", instances2d, depth.shape + (2,), error=LiftingError)
    if (instances2d[..., 1] < 0).any():
        raise LiftingError("instances2d has a negative instance id")
    category, instance = instances2d.reshape(-1, 2).T
    ids, first, inverse, area = np.unique(instance, return_index=True, return_inverse=True,
                                          return_counts=True)
    mixed = np.unique(instance[(category != category[first[inverse]]) & (instance > 0)])
    if mixed.size:
        raise LiftingError(f"instances2d: instances {mixed.tolist()} carry more than one category")
    kept = np.flatnonzero(ids > 0)
    if len(kept) > n_channels:
        warnings.warn(f"dropping {len(kept) - n_channels} instances beyond {n_channels} channels")
        kept = np.sort(kept[np.lexsort((kept, -area[kept]))[:n_channels]])
    if seed is None:
        kept = kept[np.lexsort((kept, category[first[kept]]))]
    else:
        np.random.Generator(np.random.PCG64(seed)).shuffle(kept)
    channel = np.full(len(ids), -1)
    channel[kept] = np.arange(len(kept))
    channel = channel[inverse].reshape(depth.shape)
    mp = surface_only_occupancy(depth, planes) * (channel[..., None] >= 0)
    priors = Priors2D(semantics=(channel[..., None] == np.arange(n_channels)).astype(np.float64),
                      depth=depth, centers=[], heatmap=np.zeros(depth.shape), mp_occupancy=mp)
    return occupancy_aware_lift(priors, frame, intrinsics, planes)
