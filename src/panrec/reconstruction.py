"""Bottom-up panoptic assembly over the occupied cells: occupancy masking,
center-based instance grouping, and the final per-voxel labeling."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import CameraIntrinsics, PanrecError, project_cells
from .lifting import FeatureVolume, scores_to_labels
from .priors import ThingOffsets, checked, checked_offsets
from .volume import VOID, CategoryTable, PanopticVolume


class ReconstructionError(PanrecError):
    pass


@dataclass
class Refined3D:
    """Per-cell semantic labels, pixel offsets, and the occupied cells of one frame.

    `occupied(t)` lists in ascending order the flat cells of occupancy >= t and
    their occupancy; `labels(cells)` labels cells by their score rows gated by
    their occupancy. Both are `lifting.lift_priors`', or `identity_refine`'s
    dense threshold and row reduction. `offsets`, a `priors.ThingOffsets` of the
    frame, gives the cells' rows; `panrec group` reads it from `offsets3d.bin`.
    """

    frame: object
    labels: Callable        # cells -> (N,) int32 labels
    offsets: ThingOffsets   # cells -> (N, 2) float64 (du, dv)
    occupied: Callable      # t -> (cells, occupancy in [0, 1] at the cells)

    def __post_init__(self):
        checked_offsets("offsets", self.offsets, self.frame.shape, ReconstructionError)


def identity_refine(lifted: FeatureVolume, offsets: ThingOffsets) -> Refined3D:
    """Pack a lifted volume with externally provided offsets.

    Stand-in hook for a learned 3D refinement stage; values pass through
    unchanged. Its lister thresholds the dense `lifted.occupancy`, and its labeler
    reduces the dense `lifted.features` row by row, gated by it. Features must be
    finite and >= 0 and occupancy finite and within [0, 1], as `lift_priors`
    makes them; each ReconstructionError begins with the field.
    """
    shape = lifted.frame.shape
    features = checked("features", lifted.features, shape + (None,), 0.0,
                       error=ReconstructionError)
    occ = checked("occupancy", np.asarray(lifted.occupancy, dtype=np.float64), shape, 0.0, 1.0,
                  error=ReconstructionError)
    flat = features.reshape(-1, features.shape[-1])
    labels = lambda cells: scores_to_labels(flat[cells] * np.take(occ, cells)[:, None])

    def occupied(t):
        cells = np.flatnonzero(occ >= t)
        return cells, np.take(occ, cells)
    return Refined3D(lifted.frame, labels, offsets, occupied)


def mask_by_occupancy(refined: Refined3D, occ_threshold: float = 0.5):
    """Labels of the occupied cells: (cells, labels, gate), the cells and the
    occupancy (> 0) that `refined.occupied(occ_threshold)` lists, and their
    labels from `refined.labels`, which gates each score row by that same
    occupancy (the argmax of the gated row, void where no score is > 0)."""
    if not (0 < occ_threshold < 1):
        raise ReconstructionError("occupancy threshold must be in (0, 1)")
    cells, gate = refined.occupied(occ_threshold)
    return cells, refined.labels(cells), gate


@dataclass
class Things:
    """Grouped thing cells: flat indices, labels (VOID where the category has
    no center) and instance ids (0 there)."""

    cells: np.ndarray
    semantics: np.ndarray
    instances: np.ndarray

    @property
    def dropped(self) -> int:
        """The thing cells set to void because no center of their category exists."""
        return int(np.count_nonzero(self.semantics == VOID))


def group_instances(cells: np.ndarray, labels: np.ndarray, gate: np.ndarray,
                    offsets: ThingOffsets, centers, frame, intrinsics: CameraIntrinsics,
                    categories: CategoryTable) -> Things:
    """Assign each occupied thing cell to the nearest same-category 2D center.

    `cells`, `labels` and `gate` are `mask_by_occupancy`'s result; `offsets`
    (flat cells -> (N, 2) rows, as `Refined3D.offsets`) is read at the thing
    cells only. A thing cell's pixel position shifted by its offset times its
    gate is compared with every center of its category; ties keep the
    first-listed center. Thing cells whose category has no center are dropped
    to void (warned, and counted in `Things.dropped`). A shifted
    position that is not finite (a non-finite offset, or a cell at or behind
    the camera) or a label outside the category table raises ReconstructionError.
    """
    if len(labels) and not 0 <= labels.min() <= labels.max() < len(categories):
        raise ReconstructionError(f"labels must lie in the category table [0, {len(categories)}),"
                                  f" got [{labels.min()}, {labels.max()}]")
    thing = np.asarray(categories.is_thing)[labels]
    cells, labels = cells[thing], labels[thing]
    du, dv = (offsets(cells) * gate[thing, None]).T
    u_px, v_px = project_cells(frame, intrinsics, cells)
    tu, tv = u_px + du, v_px + dv
    bad = np.count_nonzero(~(np.isfinite(tu) & np.isfinite(tv)))
    if bad:
        raise ReconstructionError(f"offset-shifted positions are not finite at {bad} thing "
                                  "cells (non-finite offsets, or cells behind the camera)")
    semantics = labels.astype(np.int32)
    instances = np.zeros(len(cells), dtype=np.int32)
    for k in np.unique(labels):
        sel = labels == k
        cands = [c for c in centers if c.category == k]
        if not cands:
            semantics[sel] = VOID
            continue
        # Distances to candidate centers, argmin with first-listed tie-break.
        dist2 = np.stack(
            [(tu[sel] - c.u) ** 2 + (tv[sel] - c.v) ** 2 for c in cands], axis=-1
        )
        ids = np.asarray([c.instance_id for c in cands], dtype=np.int32)
        instances[sel] = ids[np.argmin(dist2, axis=-1)]
    things = Things(cells=cells, semantics=semantics, instances=instances)
    if dropped := things.dropped:
        warnings.warn(f"{dropped} thing cells had no center of their category; set to void")
    return things


def assemble_panoptic(frame, cells: np.ndarray, labels: np.ndarray, things: Things,
                      categories: CategoryTable) -> PanopticVolume:
    """Scatter the labels of the occupied `cells` and the grouped `things` into
    one volume: thing cells take the `things` labels and ids, every cell not
    listed is void."""
    semantics = np.zeros(frame.shape, dtype=np.int32)
    instances = np.zeros(frame.shape, dtype=np.int32)
    semantics.reshape(-1)[cells] = labels
    semantics.reshape(-1)[things.cells] = things.semantics
    instances.reshape(-1)[things.cells] = things.instances
    return PanopticVolume(frame, semantics, instances, categories)


def reconstruct(
    refined: Refined3D,
    centers,
    intrinsics: CameraIntrinsics,
    categories: CategoryTable,
    occ_threshold: float = 0.5,
) -> PanopticVolume:
    """Full bottom-up tail over the occupied cells only: labels, grouping of
    the thing cells, one scatter into the output volume."""
    cells, labels, gate = mask_by_occupancy(refined, occ_threshold)
    things = group_instances(cells, labels, gate, refined.offsets, centers, refined.frame,
                             intrinsics, categories)
    return assemble_panoptic(refined.frame, cells, labels, things, categories)
