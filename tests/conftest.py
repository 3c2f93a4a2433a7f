import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from panrec.geometry import (AxisGrid, FrustumGrid, OUT_OF_RANGE, plane_index, resample_volume,
                             round_half_up)
from panrec.lifting import FeatureVolume, scores_to_labels
from panrec.priors import Priors2D, ThingOffsets, derive_priors
from panrec.synth import NoiseSpec, SynthConfig, generate_scene

# CI runs (GitHub sets CI) draw the same examples every time, so a property
# test cannot pass on one push and fail on the next with unchanged code.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def small_scene():
    return generate_scene(
        SynthConfig(seed=11, width=32, height=32, planes=32, n_things=3,
                    min_center_separation=8.0)
    )


@pytest.fixture
def small_priors(small_scene):
    return derive_priors(small_scene)


def seeded_scenes(n, **overrides):
    """Deterministic batch of small scenes for oracle comparisons."""
    defaults = dict(width=32, height=32, planes=32, n_things=3,
                    min_center_separation=8.0)
    defaults.update(overrides)
    return [generate_scene(SynthConfig(seed=s, **defaults)) for s in range(n)]


# The noise spec of the crowded-noisy-96 benchmark workload.
CROWDED_NOISE = NoiseSpec(depth_sigma=0.05, semantic_flip=0.05, occupancy_flip=0.02,
                          center_jitter=2)

# Scenes and axis frames of the pinned lift and reconstruction digests. The
# 64^3 axis frame reaches behind the camera: its cell iz = 1 lies at z = 0.
GOLDEN_LIFT_SCENES = {
    "32": dict(seed=11, width=32, height=32, planes=32, n_things=3,
               min_center_separation=8.0),
    "64": dict(seed=2, width=64, height=64, planes=64),
}
GOLDEN_AXES = {
    "32": AxisGrid(dims=(24, 24, 40), voxel_size=0.15, origin=(-1.8, -1.8, 0.4)),
    "64": AxisGrid(dims=(64, 64, 64), voxel_size=0.09375, origin=(-3.0, -3.0, -0.140625)),
}


def array_digest(*arrays, extra=b""):
    """sha256 over each array's dtype, shape and bytes, then `extra`."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(extra)
    return h.hexdigest()


def rows_of(volume):
    """A dense (..., C) score volume as the cells -> (N, C) row function that
    `loss_3d` takes."""
    flat = np.reshape(volume, (-1, np.shape(volume)[-1]))
    return lambda cells: flat[cells]


def resampled_offsets(priors, scene, frame):
    """The bundle's offsets, densified on the scene's frustum frame, resampled
    onto `frame` and kept as `ThingOffsets.of` the resampled array."""
    return ThingOffsets.of(resample_volume(priors.offsets3d.dense(), scene.frame, frame,
                                           scene.intrinsics, scene.planes))


def labels_of(volume, occupancy):
    """A dense (..., C) score volume and its occupancy as the cells -> labels
    function that `Refined3D.labels` takes: the row reduction of
    `identity_refine`, each row gated by its cell's occupancy."""
    rows, occ = rows_of(volume), np.reshape(occupancy, -1)
    return lambda cells: scores_to_labels(rows(cells) * occ[cells, None])


def occupied_of(occupancy):
    """A dense occupancy volume as the t -> (cells, occupancy) lister that
    `Refined3D.occupied` takes: the dense threshold of `identity_refine`."""
    flat = np.reshape(occupancy, -1)

    def occupied(t):
        cells = np.flatnonzero(flat >= t)
        return cells, flat[cells]
    return occupied


def bundle(semantics, mp_occupancy, depth, **fields):
    """A prior bundle of the three lifted priors; no centers, an all-zero
    heatmap and no offsets unless given in `fields`."""
    fields = {"centers": [], "heatmap": np.zeros(np.shape(depth)), **fields}
    return Priors2D(semantics=semantics, depth=depth, mp_occupancy=mp_occupancy, **fields)


def reference_occupancy_aware_lift(semantics2d, mp_occupancy, depth, frame, intrinsics,
                                   planes):
    """The dense lift that `lift_priors`' rows replaced, kept as the oracle with its
    own per-cell projection: the semantics propagated to every cell whose depth
    plane's center is at or behind its pixel's depth (zero in free space and on
    rays with no surface), times the multi-plane occupancy at the cell's pixel
    and depth plane. An axis cell takes the pixel and plane its center falls in;
    where either is out of range it reads pixel (0, 0) and is zero there, so
    its features carry that pixel's signs of zero."""
    semantics2d = np.asarray(semantics2d, dtype=np.float64)
    mp_occupancy = np.asarray(mp_occupancy, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    if isinstance(frame, FrustumGrid):
        z = planes.centers()
        keep = (depth[..., None] > 0) & (z[None, None, :] >= depth[..., None])
        sem = semantics2d[:, :, None, :] * keep[..., None]
        occ = mp_occupancy * keep
    else:
        # Each cell center on its own, projected with z = 1 where z <= 0.
        idx = np.stack(np.indices(frame.shape), axis=-1).astype(np.float64)
        centers = np.asarray(frame.origin) + (idx + 0.5) * frame.voxel_size
        x, y, z = centers[..., 0], centers[..., 1], centers[..., 2]
        front = z > 0
        zsafe = np.where(front, z, 1.0)
        ui = round_half_up(intrinsics.fx * x / zsafe + intrinsics.cx)
        vi = round_half_up(intrinsics.fy * y / zsafe + intrinsics.cy)
        m = plane_index(z, planes)
        valid = ((m != OUT_OF_RANGE) & (ui >= 0) & (ui < intrinsics.width)
                 & (vi >= 0) & (vi < intrinsics.height))
        ui, vi = np.where(valid, ui, 0), np.where(valid, vi, 0)
        d = depth[vi, ui]
        keep = valid & (d > 0) & (planes.center(m) >= d)
        sem = semantics2d[vi, ui] * keep[..., None]
        occ = mp_occupancy[vi, ui, np.where(keep, m, 0)] * keep
    return FeatureVolume(frame=frame, features=sem * occ[..., None], occupancy=occ)


def traced_peak(function, *args):
    """The tracemalloc peak, in bytes, of one call `function(*args)`."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
