"""End-to-end deterministic pipeline: priors -> lifting -> refinement stand-in
-> grouping -> panoptic assembly."""
from __future__ import annotations

import numpy as np

from .geometry import CameraIntrinsics, DepthPlanes
from .lifting import lift_priors
from .priors import Priors2D
from .reconstruction import ReconstructionError, Refined3D, reconstruct
from .volume import CategoryTable, PanopticVolume


def reconstruct_from_priors(
    priors: Priors2D,
    frame,
    intrinsics: CameraIntrinsics,
    planes: DepthPlanes,
    categories: CategoryTable,
) -> PanopticVolume:
    """Run the bottom-up tail of the pipeline on a prior bundle, label-first:
    scores are formed at occupied cells only, with the same result as
    `reconstruct` on `occupancy_aware_lift`. The occupancy threshold is 0.5;
    `reconstruct` and `panrec group --occ-threshold` take others. Offsets must be
    present and cover `frame`; they stand in for the refinement stage's offset
    prediction. A channel count other than the category table's, like anything
    `Priors2D.validate` rejects, fails before any volume is built. The depth-only
    baseline is a bundle with `lifting.surface_only_occupancy` as its multi-plane
    occupancy."""
    if priors.offsets3d is None:
        raise ReconstructionError("prior bundle carries no 3D offsets (offsets3d)")
    shape = np.shape(priors.semantics)
    if len(shape) == 3 and shape[-1] != len(categories):
        raise ReconstructionError(f"semantics has {shape[-1]} channels, the category table "
                                  f"{len(categories)} categories")
    occupied, _rows, labels = lift_priors(priors, frame, intrinsics, planes)
    refined = Refined3D(frame, labels, priors.offsets3d, occupied)
    return reconstruct(refined, priors.centers, intrinsics, categories)
