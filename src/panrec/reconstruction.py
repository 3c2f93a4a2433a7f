"""Bottom-up panoptic assembly: occupancy masking, center-based instance
grouping, and the final per-voxel labeling."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import CameraIntrinsics, DepthPlanes, project_cells
from .lifting import FeatureVolume
from .volume import VOID, CategoryTable, PanopticVolume


class ReconstructionError(ValueError):
    pass


@dataclass
class Refined3D:
    """Per-cell semantic scores, pixel offsets, and occupancy over one frame.

    `semantics` maps flat cell indices to their (N, C) score rows
    (`lifting.feature_rows`); offsets and occupancy cover the frame.
    """

    frame: object
    semantics: Callable     # cells -> (N, C) rows
    offsets: np.ndarray     # (..., 2) as (du, dv)
    occupancy: np.ndarray   # (...) in [0, 1]

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        self.occupancy = np.asarray(self.occupancy, dtype=np.float64)
        shape = self.frame.shape
        if self.offsets.shape != shape + (2,):
            raise ReconstructionError(f"offsets shape {self.offsets.shape} != {shape + (2,)}")
        if self.occupancy.shape != shape:
            raise ReconstructionError(f"occupancy shape {self.occupancy.shape} != {shape}")


def identity_refine(lifted: FeatureVolume, offsets: np.ndarray, occupancy: np.ndarray) -> Refined3D:
    """Pack lifted semantics with externally provided offsets and occupancy.

    Stand-in hook for a learned 3D refinement stage; values pass through
    unchanged. The dense `lifted.features` become score rows here.
    """
    features = lifted.features
    if features.shape[:-1] != lifted.frame.shape:
        raise ReconstructionError(f"features shape {features.shape} does not cover the "
                                  f"frame {lifted.frame.shape}")
    flat = features.reshape(-1, features.shape[-1])
    return Refined3D(lifted.frame, lambda cells: flat[cells], offsets, occupancy)


def scores_to_labels(scores: np.ndarray) -> np.ndarray:
    """(N, C) scores -> int32 labels: argmax with the first index winning ties,
    VOID where no score is > 0."""
    best = np.argmax(scores, axis=-1)
    # The score at the argmax is the row maximum (NaN if any score is NaN).
    top = np.take_along_axis(scores, best[..., None], axis=-1)[..., 0]
    return np.where(top > 0, best, VOID).astype(np.int32)


def mask_by_occupancy(refined: Refined3D, occ_threshold: float = 0.5):
    """Reduce semantics to labels and gate offsets at occupied cells only.

    Returns (labels, gated offsets, binary occupancy). Where occupancy >=
    `occ_threshold`, scores and offsets are multiplied by the occupancy and the
    scores reduced by `scores_to_labels`; other cells are VOID, offsets zero.
    """
    if not (0 < occ_threshold < 1):
        raise ReconstructionError("occupancy threshold must be in (0, 1)")
    occ = refined.occupancy
    occ_bin = occ >= occ_threshold
    cells = np.flatnonzero(occ_bin)
    gate = occ.reshape(-1)[cells, None]
    labels = np.zeros(occ.shape, dtype=np.int32)
    labels.reshape(-1)[cells] = scores_to_labels(refined.semantics(cells) * gate)
    dc3d = np.zeros(occ.shape + (2,))
    dc3d.reshape(-1, 2)[cells] = refined.offsets.reshape(-1, 2)[cells] * gate
    return labels, dc3d, occ_bin


def group_instances(
    labels: np.ndarray,
    dc3d: np.ndarray,
    centers,
    frame,
    intrinsics: CameraIntrinsics,
    planes: DepthPlanes,
    occ_bin: np.ndarray,
    categories: CategoryTable,
) -> PanopticVolume:
    """Assign each occupied thing cell to the nearest same-category 2D center.

    Only occupied cells with a thing label visit the centers: the cell's pixel
    position shifted by its offset is compared with every center of its
    category; ties keep the first-listed center. Thing cells whose category has
    no center are dropped to void (warned). A shifted position that is not
    finite (a non-finite offset, or a cell at or behind the camera) raises
    ReconstructionError. The result holds things only.
    """
    labels = np.asarray(labels, dtype=np.int32)
    thing_flags = np.asarray(categories.is_thing)
    cells = np.flatnonzero(np.asarray(occ_bin, dtype=bool) & thing_flags[labels])
    cell_labels = labels.reshape(-1)[cells]
    u_px, v_px, _z = project_cells(frame, intrinsics, planes, cells)
    du, dv = np.asarray(dc3d).reshape(-1, 2)[cells].T
    tu, tv = u_px + du, v_px + dv
    bad = np.count_nonzero(~(np.isfinite(tu) & np.isfinite(tv)))
    if bad:
        raise ReconstructionError(f"offset-shifted positions are not finite at {bad} thing "
                                  "cells (non-finite offsets, or cells behind the camera)")
    semantics = np.zeros(labels.shape, dtype=np.int32)
    instances = np.zeros(labels.shape, dtype=np.int32)
    by_category = {}
    for c in centers:
        by_category.setdefault(c.category, []).append(c)
    dropped = 0
    for k in np.unique(cell_labels):
        sel = cell_labels == k
        cands = by_category.get(int(k), [])
        if not cands:
            dropped += int(np.sum(sel))
            continue
        # Distances to candidate centers, argmin with first-listed tie-break.
        dist2 = np.stack(
            [(tu[sel] - c.u) ** 2 + (tv[sel] - c.v) ** 2 for c in cands], axis=-1
        )
        choice = np.argmin(dist2, axis=-1)
        ids = np.asarray([c.instance_id for c in cands], dtype=np.int32)
        semantics.reshape(-1)[cells[sel]] = k
        instances.reshape(-1)[cells[sel]] = ids[choice]
    if dropped:
        warnings.warn(f"{dropped} thing cells had no center of their category; set to void")
    return PanopticVolume(
        frame=frame, semantics=semantics, instances=instances, categories=categories
    )


def assemble_panoptic(
    labels: np.ndarray,
    things: PanopticVolume,
    occ_bin: np.ndarray,
    categories: CategoryTable,
) -> PanopticVolume:
    """Combine labels of occupied cells with grouped thing instances: thing
    cells take the `things` volume, unoccupied cells are void."""
    labels = np.asarray(labels, dtype=np.int32)
    occ_bin = np.asarray(occ_bin, dtype=bool)
    if things.semantics.shape != occ_bin.shape or labels.shape != occ_bin.shape:
        raise ReconstructionError("inconsistent frames between semantics and things volume")
    if things.frame.shape != occ_bin.shape:
        raise ReconstructionError("things volume frame does not match occupancy")
    labels = np.where(occ_bin, labels, VOID)
    is_thing = np.asarray(categories.is_thing)[labels]
    return PanopticVolume(
        frame=things.frame,
        semantics=np.where(is_thing, things.semantics, labels),
        instances=np.where(is_thing, things.instances, 0),
        categories=categories,
    )


def reconstruct(
    refined: Refined3D,
    centers,
    intrinsics: CameraIntrinsics,
    planes: DepthPlanes,
    categories: CategoryTable,
    occ_threshold: float = 0.5,
) -> PanopticVolume:
    """Full bottom-up tail: labels at occupied cells, grouping, assembly."""
    labels, dc3d, occ_bin = mask_by_occupancy(refined, occ_threshold)
    things = group_instances(
        labels, dc3d, centers, refined.frame, intrinsics, planes, occ_bin, categories
    )
    return assemble_panoptic(labels, things, occ_bin, categories)
