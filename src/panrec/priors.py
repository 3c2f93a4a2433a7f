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
        semantics (H, W, C), finite and >= 0 with no upper bound; mp_occupancy
        (H, W, M) and heatmap (H, W) within [0, 1]; center instance ids >= 1 and
        distinct. Not checked: center categories (grouping ignores stuff and
        void ones) and offsets (checked where they are read)."""
        checked_depth(self.depth, frame, intrinsics, planes)
        h, w, m = intrinsics.height, intrinsics.width, planes.count
        _checked("semantics", self.semantics, (h, w, None), 0.0)
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


def _require_frustum(scene: SceneGT):
    if not isinstance(scene.frame, FrustumGrid):
        raise PriorsError("scene must be in a frustum-aligned frame (resample first)")


def _front_cells(scene: SceneGT):
    """Per pixel: the first occupied plane along the ray, whether the ray has
    one, and the (v, u) index grids."""
    _require_frustum(scene)
    occ = scene.volume.occupancy
    vv, uu = np.meshgrid(np.arange(occ.shape[0]), np.arange(occ.shape[1]), indexing="ij")
    return np.argmax(occ, axis=2), occ.any(axis=2), vv, uu


def derive_depth(scene: SceneGT) -> np.ndarray:
    """Per pixel, the plane-center depth of the first occupied cell along the ray."""
    m_first, hit, _vv, _uu = _front_cells(scene)
    return np.where(hit, scene.planes.center(m_first), 0.0)


def derive_semantics2d(scene: SceneGT) -> np.ndarray:
    """One-hot (H, W, C) category map of the front-most occupied cell per ray."""
    m_first, hit, vv, uu = _front_cells(scene)
    cat = np.where(hit, scene.volume.semantics[vv, uu, m_first], VOID)
    one_hot = np.zeros(hit.shape + (len(scene.categories),), dtype=np.float64)
    one_hot[vv, uu, cat] = 1.0
    return one_hot


def _thing_cells(vol: PanopticVolume):
    """One pass over the thing cells: their flat C-order indices and (v, u)
    coordinates, the sorted instance ids, and per id its first cell's position,
    each cell's id position and per-id cell counts."""
    flat = np.flatnonzero(vol.instances > 0)
    vs, us, _ms = np.unravel_index(flat, vol.instances.shape)
    ids, first, inverse, counts = np.unique(
        vol.instances.ravel()[flat], return_index=True, return_inverse=True, return_counts=True
    )
    return flat, vs, us, ids.tolist(), first, inverse, counts


def derive_centers(scene: SceneGT) -> list:
    """Mass center (mean pixel position of all cells, visible or not) per thing
    instance, rounded to the nearest pixel."""
    _require_frustum(scene)
    flat, vs, us, ids, first, inverse, counts = _thing_cells(scene.volume)
    # Integer coordinate sums are exact in float64, so sum / count is the mean.
    cu = round_half_up(np.bincount(inverse, weights=us, minlength=len(ids)) / counts)
    cv = round_half_up(np.bincount(inverse, weights=vs, minlength=len(ids)) / counts)
    cats = scene.volume.semantics.ravel()[flat[first]]
    return [
        InstanceCenter(u=u, v=v, category=cat, instance_id=inst_id)
        for u, v, cat, inst_id in zip(cu.tolist(), cv.tolist(), cats.tolist(), ids)
    ]


def encode_center_heatmap(centers, height: int, width: int, sigma: float = 8.0) -> np.ndarray:
    """Max-combined Gaussian bumps at the instance centers; peak value 1."""
    if sigma <= 0:
        raise PriorsError("sigma must be positive")
    heatmap = np.zeros((height, width), dtype=np.float64)
    vv, uu = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    for c in centers:
        d2 = (uu - c.u) ** 2 + (vv - c.v) ** 2
        np.maximum(heatmap, np.exp(-d2 / (2.0 * sigma * sigma)), out=heatmap)
    return heatmap


def extract_centers(
    heatmap: np.ndarray,
    semantics: np.ndarray,
    threshold: float = 0.1,
    nms_kernel: int = 3,
    max_n: int = 64,
) -> list:
    """Peak extraction: local maxima of a k x k window at value >= threshold.

    Equal-valued peaks within one window keep only the (v, u)-lexicographically
    smallest pixel; output is the top max_n peaks by value with the same
    deterministic tie-break. Category is the semantic argmax at the peak.
    """
    if not (0 < threshold < 1):
        raise PriorsError("threshold must be in (0, 1)")
    if nms_kernel < 3 or nms_kernel % 2 == 0:
        raise PriorsError("nms kernel must be odd and >= 3")
    if max_n < 0:
        raise PriorsError(f"max_n must be >= 0, got {max_n}")
    heatmap = np.asarray(heatmap, dtype=np.float64)
    semantics = np.asarray(semantics)
    if heatmap.ndim != 2 or not np.all(np.isfinite(heatmap)):
        raise PriorsError(f"heatmap must be a finite (H, W) map, got shape {heatmap.shape}")
    if semantics.ndim != 3 or semantics.shape[:2] != heatmap.shape or semantics.shape[2] == 0:
        raise PriorsError(f"semantics shape {semantics.shape} is not heatmap's (H, W) + (C,)")
    h, w = heatmap.shape
    r = nms_kernel // 2
    padded = np.pad(heatmap, r, mode="constant", constant_values=-1.0)
    # No neighbour in the window may be greater; on ties only the
    # (v, u)-lexicographically smallest pixel of the window survives.
    peak = heatmap >= threshold
    for dv in range(nms_kernel):
        for du in range(nms_kernel):
            nb = padded[dv : dv + h, du : du + w]
            peak &= (nb < heatmap) if (dv, du) < (r, r) else (nb <= heatmap)
    vs, us = np.nonzero(peak)
    order = np.lexsort((us, vs, -heatmap[vs, us]))[:max_n]
    vs, us = vs[order], us[order]
    cats = np.argmax(semantics[vs, us], axis=-1)
    return [
        InstanceCenter(u=u, v=v, category=cat, instance_id=i + 1)
        for i, (u, v, cat) in enumerate(zip(us.tolist(), vs.tolist(), cats.tolist()))
    ]


def derive_multiplane_occupancy(scene: SceneGT) -> np.ndarray:
    """Binary (H, W, M) map: 1 wherever the cell is occupied by things or stuff."""
    _require_frustum(scene)
    return scene.volume.occupancy.astype(np.float64)


def derive_offsets3d(scene: SceneGT, centers) -> np.ndarray:
    """Per occupied thing cell, the pixel offset from the cell's ray pixel to its
    instance's 2D center; zero elsewhere. Shape (H, W, M, 2) as (du, dv)."""
    _require_frustum(scene)
    flat, vs, us, ids, _first, inverse, _counts = _thing_cells(scene.volume)
    by_id = {c.instance_id: c for c in centers}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise PriorsError(f"no center provided for instance ids {missing}")
    cu = np.array([by_id[i].u for i in ids])
    cv = np.array([by_id[i].v for i in ids])
    offsets = np.zeros(scene.volume.semantics.shape + (2,), dtype=np.float64)
    offsets.reshape(-1, 2)[flat] = np.column_stack((cu[inverse] - us, cv[inverse] - vs))
    return offsets


def derive_instance_map2d(scene: SceneGT) -> np.ndarray:
    """The (H, W, 2) int32 (category, instance id) map of `instances2d.bin`: per
    pixel, the front-most instance id and the category at that instance's first
    pixel in C order, (0, 0) where there is no instance.

    Input surface for the top-down lifting baseline; not one of the four priors.
    """
    m_first, hit, vv, uu = _front_cells(scene)
    # A well-formed volume has nonzero instance ids only on thing cells.
    inst = np.where(hit, scene.volume.instances[vv, uu, m_first], 0)
    _ids, first, inverse = np.unique(inst, return_index=True, return_inverse=True)
    cats = scene.volume.semantics[vv, uu, m_first].ravel()[first]
    cat = np.where(inst > 0, cats[inverse.reshape(inst.shape)], 0)
    return np.stack([cat, inst], axis=-1).astype(np.int32)


def derive_priors(scene: SceneGT, sigma: float = 8.0) -> Priors2D:
    """All GT priors plus offset targets for one scene."""
    centers = derive_centers(scene)
    h, w = scene.frame.height, scene.frame.width
    return Priors2D(
        semantics=derive_semantics2d(scene),
        depth=derive_depth(scene),
        centers=centers,
        heatmap=encode_center_heatmap(centers, h, w, sigma),
        mp_occupancy=derive_multiplane_occupancy(scene),
        offsets3d=derive_offsets3d(scene, centers),
    )
