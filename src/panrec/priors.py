"""2D priors (semantics, depth, centers, multi-plane occupancy) and their
ground-truth derivation from a labeled frustum scene, plus 3D offset targets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, DepthPlanes, FrustumGrid, round_half_up
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
    num_c = scene.categories.num_categories
    one_hot = np.zeros(hit.shape + (num_c,), dtype=np.float64)
    one_hot[vv, uu, cat] = 1.0
    return one_hot


def derive_centers(scene: SceneGT) -> list:
    """Mass center (mean pixel position of all cells, visible or not) per thing
    instance, rounded to the nearest pixel."""
    _require_frustum(scene)
    vol = scene.volume
    centers = []
    for inst_id in vol.instance_labels():
        vs, us, _ms = np.nonzero(vol.instances == inst_id)
        cats = vol.semantics[vol.instances == inst_id]
        centers.append(
            InstanceCenter(
                u=int(round_half_up(us.mean())),
                v=int(round_half_up(vs.mean())),
                category=int(cats[0]),
                instance_id=inst_id,
            )
        )
    return centers


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
    heatmap = np.asarray(heatmap, dtype=np.float64)
    h, w = heatmap.shape
    r = nms_kernel // 2
    padded = np.pad(heatmap, r, mode="constant", constant_values=-1.0)
    peaks = []
    cand_v, cand_u = np.nonzero(heatmap >= threshold)
    for v, u in zip(cand_v.tolist(), cand_u.tolist()):
        window = padded[v : v + nms_kernel, u : u + nms_kernel]
        val = heatmap[v, u]
        if np.any(window > val):
            continue
        # On ties, only the lexicographically smallest pixel of the window survives.
        tie = False
        tv, tu = np.nonzero(window == val)
        for dv, du in zip(tv.tolist(), tu.tolist()):
            ov, ou = v + dv - r, u + du - r
            if (ov, ou) < (v, u):
                tie = True
                break
        if not tie:
            peaks.append((v, u, val))
    peaks.sort(key=lambda p: (-p[2], p[0], p[1]))
    peaks = peaks[:max_n]
    centers = []
    for i, (v, u, _val) in enumerate(peaks):
        centers.append(
            InstanceCenter(
                u=u, v=v, category=int(np.argmax(semantics[v, u])), instance_id=i + 1
            )
        )
    return centers


def derive_multiplane_occupancy(scene: SceneGT) -> np.ndarray:
    """Binary (H, W, M) map: 1 wherever the cell is occupied by things or stuff."""
    _require_frustum(scene)
    return scene.volume.occupancy.astype(np.float64)


def derive_offsets3d(scene: SceneGT, centers) -> np.ndarray:
    """Per occupied thing cell, the pixel offset from the cell's ray pixel to its
    instance's 2D center; zero elsewhere. Shape (H, W, M, 2) as (du, dv)."""
    _require_frustum(scene)
    vol = scene.volume
    by_id = {c.instance_id: c for c in centers}
    present = vol.instance_labels()
    missing = [i for i in present if i not in by_id]
    if missing:
        raise PriorsError(f"no center provided for instance ids {missing}")
    offsets = np.zeros(vol.semantics.shape + (2,), dtype=np.float64)
    for inst_id in present:
        c = by_id[inst_id]
        vs, us, ms = np.nonzero(vol.instances == inst_id)
        offsets[vs, us, ms, 0] = c.u - us
        offsets[vs, us, ms, 1] = c.v - vs
    return offsets


def derive_instance_map2d(scene: SceneGT):
    """Front-most instance id and category per pixel (0 where none).

    Input surface for the top-down lifting baseline; not one of the four priors.
    """
    m_first, hit, vv, uu = _front_cells(scene)
    inst = np.where(hit, scene.volume.instances[vv, uu, m_first], 0)
    thing = np.asarray(scene.categories.is_thing)[
        np.where(hit, scene.volume.semantics[vv, uu, m_first], VOID)
    ]
    inst = np.where(thing, inst, 0).astype(np.int32)
    cats = {}
    for inst_id in np.unique(inst[inst > 0]):
        vs, us = np.nonzero(inst == inst_id)
        cat = scene.volume.semantics[vs[0], us[0], m_first[vs[0], us[0]]]
        cats[int(inst_id)] = int(cat)
    return inst, cats


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
