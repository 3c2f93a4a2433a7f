"""End-to-end deterministic pipeline: priors -> lifting -> refinement stand-in
-> grouping -> panoptic assembly."""
from __future__ import annotations

import numpy as np

from .geometry import CameraIntrinsics, DepthPlanes, OUT_OF_RANGE, plane_index
from .lifting import feature_rows, lift_occupancy
from .priors import Priors2D
from .reconstruction import ReconstructionError, Refined3D, reconstruct
from .volume import CategoryTable, PanopticVolume


def surface_only_occupancy(depth: np.ndarray, planes: DepthPlanes) -> np.ndarray:
    """Multi-plane occupancy that marks only the depth-surface plane per ray."""
    depth = np.asarray(depth, dtype=np.float64)
    h, w = depth.shape
    occ = np.zeros((h, w, planes.count), dtype=np.float64)
    m = plane_index(np.where(depth > 0, depth, planes.z_near), planes)
    vs, us = np.nonzero((depth > 0) & (m != OUT_OF_RANGE))
    occ[vs, us, m[vs, us]] = 1.0
    return occ


def reconstruct_from_priors(
    priors: Priors2D,
    frame,
    intrinsics: CameraIntrinsics,
    planes: DepthPlanes,
    categories: CategoryTable,
    occ_threshold: float = 0.5,
    surface_only: bool = False,
) -> PanopticVolume:
    """Run the bottom-up tail of the pipeline on a prior bundle.

    `surface_only` replaces the multi-plane occupancy with a surface-plane-only
    variant (the depth-only lifting baseline). Offsets must be present in the
    bundle; they stand in for the refinement stage's offset prediction.
    Label-first: scores are formed at occupied cells only, with the same
    result as `reconstruct` on `occupancy_aware_lift`. A channel count other
    than the category table's is rejected before any volume is built.
    """
    if priors.offsets3d is None:
        raise ReconstructionError("prior bundle carries no 3D offsets (offsets3d)")
    shape = np.shape(priors.semantics)
    if len(shape) == 3 and shape[-1] != len(categories):
        raise ReconstructionError(f"semantics has {shape[-1]} channels, the category table "
                                  f"{len(categories)} categories")
    mp = surface_only_occupancy(priors.depth, planes) if surface_only else priors.mp_occupancy
    occ = lift_occupancy(mp, priors.depth, frame, intrinsics, planes)
    rows = feature_rows(priors.semantics, priors.depth, occ, frame, intrinsics, planes)
    refined = Refined3D(frame, rows, priors.offsets3d, occ)
    return reconstruct(refined, priors.centers, intrinsics, planes, categories, occ_threshold)
