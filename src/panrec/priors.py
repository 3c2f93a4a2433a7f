"""2D priors (semantics, depth, centers, multi-plane occupancy) and their
ground-truth derivation from a labeled frustum scene, plus 3D offset targets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, DepthPlanes, FrustumGrid, frame_error, round_half_up
from .volume import VOID, CategoryTable, PanopticVolume


class PriorsError(ValueError):
    pass


@dataclass(frozen=True)
class InstanceCenter:
    """2D instance center in pixel coordinates with its thing category."""

    u: int
    v: int
    category: int
    instance_id: int


@dataclass
class SceneGT:
    """Ground-truth panoptic frustum volume with camera and plane config."""

    volume: PanopticVolume
    intrinsics: CameraIntrinsics
    planes: DepthPlanes

    @property
    def frame(self):
        return self.volume.frame

    @property
    def categories(self) -> CategoryTable:
        return self.volume.categories


@dataclass
class Priors2D:
    """The four 2D priors plus per-cell 3D offset targets."""

    semantics: np.ndarray        # (H, W, C) probabilities, one-hot when GT-derived
    depth: np.ndarray            # (H, W) meters, 0 = no surface along the ray
    centers: list                # list[InstanceCenter]
    heatmap: np.ndarray          # (H, W) in [0, 1]
    mp_occupancy: np.ndarray     # (H, W, M) in [0, 1], binary when GT-derived
    offsets3d: np.ndarray = None  # (H, W, M, 2) pixel offsets toward 2D centers

    def validate(self, frame, intrinsics: CameraIntrinsics, planes: DepthPlanes) -> Priors2D:
        """The bundle, after checking that it can be lifted into `frame`; raises
        PriorsError naming the field. Frame and depth as in `checked_depth`;
        semantics (H, W, C), C >= 1, finite and >= 0 with no upper bound; mp_occupancy
        (H, W, M) and heatmap (H, W) within [0, 1]; center instance ids >= 1 and
        distinct. Not checked: center categories (grouping ignores stuff and
        void ones) and offsets (checked where they are read)."""
        checked_depth(self.depth, frame, intrinsics, planes)
        h, w, m = intrinsics.height, intrinsics.width, planes.count
        if not _checked("semantics", self.semantics, (h, w, None), 0.0).shape[-1]:
            raise PriorsError("semantics has no channels")
        _checked("mp_occupancy", self.mp_occupancy, (h, w, m), 0.0, 1.0)
        _checked("heatmap", self.heatmap, (h, w), 0.0, 1.0)
        checked_centers(self.centers)
        return self


def checked_centers(centers):
    """`centers`, after checking that their instance ids are >= 1 and distinct."""
    ids = [c.instance_id for c in centers]
    if min(ids, default=1) < 1 or len(set(ids)) < len(ids):
        raise PriorsError(f"centers: instance ids must be >= 1 and distinct, got {ids}")
    return centers


def _checked(field: str, array, shape, low: float, high: float = np.inf):
    """`array` after checking that its shape is `shape` (None matches any
    length) and that every value is finite and within [low, high]."""
    array = np.asarray(array)
    if array.ndim != len(shape) or any(n not in (None, s) for n, s in zip(shape, array.shape)):
        raise PriorsError(f"{field} shape {array.shape} is not (height, width, ...) = {shape}")
    if not within(array, low, high):
        raise PriorsError(f"{field} must be finite and within [{low}, {high}]")
    return array


def within(array: np.ndarray, low: float, high: float = np.inf) -> bool:
    """Whether all of `array` is finite and within [low, high]; NaN fails every test."""
    return not array.size or bool(array.min() >= low and high >= array.max() < np.inf)


def checked_depth(depth, frame, intrinsics: CameraIntrinsics, planes: DepthPlanes):
    """Depth as float64, after checking that `frame` is a grid frame (of dims
    (height, width, planes) if frustum) and depth an (H, W) map, finite, >= 0."""
    if error := frame_error(frame, intrinsics, planes):
        raise PriorsError(error)
    return _checked("depth", np.asarray(depth, dtype=np.float64),
                    (intrinsics.height, intrinsics.width), 0.0)


# Standard deviation in pixels of each center's Gaussian bump in the heatmap.
HEATMAP_SIGMA = 8.0
# The most centers that `extract_centers` returns.
MAX_CENTERS = 64


def encode_center_heatmap(centers, height: int, width: int) -> np.ndarray:
    """Max-combined Gaussian bumps of HEATMAP_SIGMA pixels at the instance centers; peak value 1."""
    heatmap = np.zeros((height, width), dtype=np.float64)
    vv, uu = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    for c in centers:
        d2 = (uu - c.u) ** 2 + (vv - c.v) ** 2
        np.maximum(heatmap, np.exp(-d2 / (2.0 * HEATMAP_SIGMA * HEATMAP_SIGMA)), out=heatmap)
    return heatmap


def extract_centers(heatmap: np.ndarray, semantics: np.ndarray, threshold: float = 0.1) -> list:
    """Peak extraction: local maxima of a 3 x 3 window at value >= threshold.

    Equal-valued peaks within one window keep only the (v, u)-lexicographically
    smallest pixel; output is the top MAX_CENTERS peaks by value with the same
    deterministic tie-break. Category is the semantic argmax at the peak.
    """
    if not (0 < threshold < 1):
        raise PriorsError("threshold must be in (0, 1)")
    heatmap = np.asarray(heatmap, dtype=np.float64)
    if heatmap.ndim != 2 or not np.all(np.isfinite(heatmap)):
        raise PriorsError(f"heatmap must be a finite (H, W) map, got shape {heatmap.shape}")
    # The rule of `Priors2D.validate`: heatmap's (H, W) + (C,), C >= 1, finite, >= 0.
    semantics = _checked("semantics", semantics, heatmap.shape + (None,), 0.0)
    if not semantics.shape[-1]:
        raise PriorsError("semantics has no channels")
    h, w = heatmap.shape
    padded = np.pad(heatmap, 1, mode="constant", constant_values=-1.0)
    # No neighbour in the window may be greater; on ties only the
    # (v, u)-lexicographically smallest pixel of the window survives.
    peak = heatmap >= threshold
    for dv in range(3):
        for du in range(3):
            nb = padded[dv : dv + h, du : du + w]
            peak &= (nb < heatmap) if (dv, du) < (1, 1) else (nb <= heatmap)
    vs, us = np.nonzero(peak)
    order = np.lexsort((us, vs, -heatmap[vs, us]))[:MAX_CENTERS]
    vs, us = vs[order], us[order]
    cats = np.argmax(semantics[vs, us], axis=-1)
    return [
        InstanceCenter(u=u, v=v, category=cat, instance_id=i + 1)
        for i, (u, v, cat) in enumerate(zip(us.tolist(), vs.tolist(), cats.tolist()))
    ]


def _occupancy(scene: SceneGT) -> np.ndarray:
    """The scene's (H, W, M) occupancy, once the scene is known to be in a frustum frame."""
    if not isinstance(scene.frame, FrustumGrid):
        raise PriorsError("scene must be in a frustum-aligned frame (resample first)")
    return scene.volume.occupancy


def _front(labels: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """Per pixel, `labels` (H, W, M) at the pixel's front `plane`: the first occupied
    one along the ray, or 0 on a ray that meets none, whose cells are all void
    with instance id 0."""
    return np.take_along_axis(labels, plane[..., None], axis=2)[..., 0]


def derive_instance_map2d(scene: SceneGT) -> np.ndarray:
    """The (H, W, 2) int32 (category, instance id) map of `instances2d.bin`: per
    pixel, the front-most instance id and the category at that instance's first
    pixel in C order, (0, 0) where there is no instance.

    Input surface for the top-down lifting baseline; not one of the four priors.
    """
    plane = np.argmax(_occupancy(scene), axis=2)
    # A well-formed volume has nonzero instance ids only on thing cells.
    inst = _front(scene.volume.instances, plane)
    _ids, first, inverse = np.unique(inst, return_index=True, return_inverse=True)
    cats = _front(scene.volume.semantics, plane).ravel()[first]
    cat = np.where(inst > 0, cats[inverse.reshape(inst.shape)], 0)
    return np.stack([cat, inst], axis=-1).astype(np.int32)


def derive_priors(scene: SceneGT) -> Priors2D:
    """All GT priors plus offset targets for one scene, from one read of each
    ray's front cell and one pass over the thing cells:
    - semantics: one-hot (H, W, C) category of the front cell, void where the ray
      meets no occupied cell; depth: that cell's plane-center depth, 0 there;
    - centers: per thing instance, the mean pixel position of all its cells,
      visible or not, rounded to the nearest pixel, with the category of its
      first cell in C order; heatmap: `encode_center_heatmap` of the centers;
    - mp_occupancy: 1 wherever the cell is occupied by things or stuff;
    - offsets3d: per thing cell, the (du, dv) pixel offset from its ray pixel to
      its instance's center; zero elsewhere."""
    vol = scene.volume
    occ = _occupancy(scene)
    plane = np.argmax(occ, axis=2)
    mp_occupancy = occ.astype(np.float64)
    del occ  # freed before offsets3d, the largest array here, is allocated
    front = _front(vol.semantics, plane)
    depth = np.where(front != VOID, scene.planes.center(plane), 0.0)
    semantics = np.zeros(front.shape + (len(vol.categories),), dtype=np.float64)
    np.put_along_axis(semantics, front[..., None], 1.0, axis=2)

    flat = np.flatnonzero(vol.instances > 0)
    vs, us, _ms = np.unravel_index(flat, vol.instances.shape)
    ids, first, inverse, counts = np.unique(
        vol.instances.ravel()[flat], return_index=True, return_inverse=True, return_counts=True
    )
    # Integer coordinate sums are exact in float64, so sum / count is the mean.
    cu = round_half_up(np.bincount(inverse, weights=us, minlength=len(ids)) / counts)
    cv = round_half_up(np.bincount(inverse, weights=vs, minlength=len(ids)) / counts)
    cats = vol.semantics.ravel()[flat[first]]
    centers = [
        InstanceCenter(u=u, v=v, category=cat, instance_id=inst_id)
        for u, v, cat, inst_id in zip(cu.tolist(), cv.tolist(), cats.tolist(), ids.tolist())
    ]
    heatmap = encode_center_heatmap(centers, *front.shape)  # its temporaries too
    offsets3d = np.zeros(vol.semantics.shape + (2,), dtype=np.float64)
    offsets3d.reshape(-1, 2)[flat] = np.column_stack((cu[inverse] - us, cv[inverse] - vs))
    return Priors2D(semantics=semantics, depth=depth, centers=centers, heatmap=heatmap,
                    mp_occupancy=mp_occupancy, offsets3d=offsets3d)
