"""Deterministic core of bottom-up panoptic 3D scene reconstruction."""

from .geometry import (
    AxisGrid,
    CameraIntrinsics,
    DepthPlanes,
    FrustumGrid,
    OUT_OF_RANGE,
    PanrecError,
    backproject,
    plane_index,
    project,
    resample_volume,
)
from .lifting import (
    FeatureVolume,
    lift_instances_topdown,
    lift_priors,
    occupancy_aware_lift,
    surface_only_occupancy,
)
from .losses import (
    LossReport,
    LossWeights,
    loss_3d,
    loss_depth,
    loss_mp_occupancy,
    loss_panoptic2d,
    tsdf_from_occupancy,
)
from .metrics import PrqReport, Segment, extract_segments, iou, match_segments, prq
from .pipeline import reconstruct_from_priors
from .priors import (
    InstanceCenter,
    Priors2D,
    SceneGT,
    ThingOffsets,
    derive_priors,
    encode_center_heatmap,
    extract_centers,
)
from .reconstruction import (
    Refined3D,
    Things,
    assemble_panoptic,
    group_instances,
    identity_refine,
    mask_by_occupancy,
    reconstruct,
)
from .synth import NoiseSpec, SynthConfig, generate_scene, perturb_priors
from .volume import CategoryTable, PanopticVolume

__version__ = "0.1.0"
