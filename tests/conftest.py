import hashlib
import os

import numpy as np
import pytest
from hypothesis import settings

from panrec.geometry import FrustumGrid
from panrec.lifting import FeatureVolume, _axis_sampling, lift_occupancy
from panrec.priors import derive_priors
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
    `Refined3D.semantics` and `loss_3d` take."""
    flat = np.reshape(volume, (-1, np.shape(volume)[-1]))
    return lambda cells: flat[cells]


def reference_occupancy_aware_lift(semantics2d, mp_occupancy, depth, frame, intrinsics,
                                   planes):
    """The dense lift that `feature_rows` replaced, kept as the oracle: the
    semantics propagated to every cell at or behind the depth surface (zero
    in free space and on rays with no surface), times the lifted occupancy."""
    semantics2d = np.asarray(semantics2d, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    occ = lift_occupancy(mp_occupancy, depth, frame, intrinsics, planes)
    if isinstance(frame, FrustumGrid):
        z = planes.centers()
        fill = (depth[..., None] > 0) & (z[None, None, :] >= depth[..., None])
        sem = semantics2d[:, :, None, :] * fill[..., None]
    else:
        vi, ui, z, valid = _axis_sampling(frame, intrinsics, planes)
        d = depth[vi, ui]
        keep = valid & (d > 0) & (z >= d)
        sem = semantics2d[vi, ui] * keep[..., None]
    return FeatureVolume(frame=frame, features=sem * occ[..., None], occupancy=occ)
