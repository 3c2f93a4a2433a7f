"""2D priors (semantics, depth, centers, multi-plane occupancy) and their
ground-truth derivation from a labeled frustum scene, plus 3D offset targets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (CameraIntrinsics, DepthPlanes, FrustumGrid, PanrecError, frame_error,
                       round_half_up)
from .volume import VOID, CategoryTable, PanopticVolume


class PriorsError(PanrecError):
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


@dataclass(frozen=True)
class ThingOffsets:
    """Pixel offsets toward 2D centers, kept at the thing cells only: `cells`
    the ascending flat thing cells, `rows` their (N, 2) float64 (du, dv), and
    `shape` that of the dense array it stands for, grid + (2,). Called with
    flat cells, it returns their rows, (0, 0) at a cell not listed."""

    cells: np.ndarray
    rows: np.ndarray
    shape: tuple

    @classmethod
    def of(cls, array) -> ThingOffsets:
        """The record of a dense grid + (2,) `array`: the cells whose row is not
        (0, 0), NaN and inf included, their rows, and `array.shape`."""
        array = np.asarray(array, dtype=np.float64)
        rows = array.reshape(-1, array.shape[-1])
        cells = np.unique(np.flatnonzero(rows != 0) // rows.shape[-1])
        return cls(cells, rows[cells], array.shape)

    def __call__(self, cells) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.intp)
        at = np.searchsorted(self.cells, cells)
        hit = at < len(self.cells)
        hit[hit] = self.cells[at[hit]] == cells[hit]
        out = np.zeros((len(cells), 2), dtype=np.float64)
        out[hit] = self.rows[at[hit]]
        return out

    def dense(self) -> np.ndarray:
        """The dense `shape` array (`offsets3d.bin`'s layout), zero at cells not listed."""
        out = np.zeros(self.shape, dtype=np.float64)
        out.reshape(-1, 2)[self.cells] = self.rows
        return out


def checked_offsets(field: str, offsets, grid, error: type = PriorsError):
    """`offsets` after checking that it is a `ThingOffsets` of shape grid + (2,).
    Raises `error` naming `field`."""
    if not isinstance(offsets, ThingOffsets):
        raise error(f"{field} must map flat cells to their (N, 2) rows (see ThingOffsets.of)")
    if offsets.shape != tuple(grid) + (2,):
        raise error(f"{field} shape {offsets.shape} is not {tuple(grid) + (2,)}")
    return offsets


@dataclass
class Priors2D:
    """The four 2D priors plus 3D offset targets: a `ThingOffsets`, dense in `offsets3d.bin`."""

    semantics: np.ndarray        # (H, W, C) probabilities, one-hot when GT-derived
    depth: np.ndarray            # (H, W) meters, 0 = no surface along the ray
    centers: list                # list[InstanceCenter]
    heatmap: np.ndarray          # (H, W) in [0, 1]
    mp_occupancy: np.ndarray     # (H, W, M) bool or real in [0, 1], bool when GT-derived
    offsets3d: ThingOffsets = None  # pixel offsets toward 2D centers

    def validate(self, frame, intrinsics: CameraIntrinsics, planes: DepthPlanes) -> Priors2D:
        """The bundle, after checking that it can be lifted into `frame`; raises
        PriorsError naming the field. Frame and depth as in `checked_depth`;
        semantics (H, W, C), C >= 1, finite and >= 0 with no upper bound; mp_occupancy
        (H, W, M), bool or real (bool when ground-truth derived), and heatmap (H, W)
        within [0, 1]; center instance ids >= 1 and distinct. Not checked: center
        categories (grouping ignores stuff and void ones) and offsets (checked where
        they are read)."""
        checked_depth(self.depth, frame, intrinsics, planes)
        h, w, m = intrinsics.height, intrinsics.width, planes.count
        if not checked("semantics", self.semantics, (h, w, None), 0.0).shape[-1]:
            raise PriorsError("semantics has no channels")
        checked("mp_occupancy", self.mp_occupancy, (h, w, m), 0.0, 1.0)
        checked("heatmap", self.heatmap, (h, w), 0.0, 1.0)
        checked_centers(self.centers)
        return self


def checked_centers(centers):
    """`centers`, after checking that their instance ids are distinct and in
    [1, 2**31 - 1], the range of the int32 ids that volumes store."""
    ids = [c.instance_id for c in centers]
    if not 1 <= min(ids, default=1) <= max(ids, default=1) < 2**31 or len(set(ids)) < len(ids):
        raise PriorsError(f"centers: instance ids must be >= 1 and distinct and < 2**31, got {ids}")
    return centers


def checked(field: str, array, shape, low: float | None = None, high: float = np.inf,
            error: type = PriorsError):
    """`array` after checking that its shape is `shape` (None matches any length)
    and, given `low`, that every value is finite and within [low, high]: the one
    rule for array inputs. Raises `error` naming `field`."""
    array = np.asarray(array)
    if array.ndim != len(shape) or any(n not in (None, s) for n, s in zip(shape, array.shape)):
        raise error(f"{field} shape {array.shape} is not {shape}")
    # NaN fails every comparison
    if low is not None and array.size and not (
            -np.inf < array.min() >= low and high >= array.max() < np.inf):
        raise error(f"{field} must be finite and within [{low}, {high}]")
    return array


def checked_depth(depth, frame, intrinsics: CameraIntrinsics, planes: DepthPlanes):
    """Depth as float64, after checking that `frame` is a grid frame (of dims
    (height, width, planes) if frustum) and depth an (H, W) map, finite, >= 0."""
    if error := frame_error(frame, intrinsics, planes):
        raise PriorsError(error)
    return checked("depth", np.asarray(depth, dtype=np.float64),
                   (intrinsics.height, intrinsics.width), 0.0)


# Standard deviation in pixels of each center's Gaussian bump in the heatmap.
HEATMAP_SIGMA = 8.0
# The most centers that `extract_centers` returns.
MAX_CENTERS = 64


def encode_center_heatmap(centers, height: int, width: int) -> np.ndarray:
    """Max-combined Gaussian bumps of HEATMAP_SIGMA pixels at the instance centers; peak value 1."""
    heatmap = np.zeros((height, width), dtype=np.float64)
    vv, uu = np.ogrid[:height, :width]
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
    heatmap = checked("heatmap", np.asarray(heatmap, dtype=np.float64), (None, None), 0.0, 1.0)
    # The rule of `Priors2D.validate`: heatmap's (H, W) + (C,), C >= 1, finite, >= 0.
    semantics = checked("semantics", semantics, heatmap.shape + (None,), 0.0)
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
    - mp_occupancy: the scene's bool occupancy, True where things or stuff occupy a cell;
    - offsets3d: the `ThingOffsets` of the thing cells, each the (du, dv) pixel
      offset from its ray pixel to its instance's center."""
    vol = scene.volume
    mp_occupancy = _occupancy(scene)
    plane = np.argmax(mp_occupancy, axis=2)
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
    offsets3d = ThingOffsets(flat, np.column_stack((cu[inverse] - us, cv[inverse] - vs)),
                             vol.semantics.shape + (2,))
    return Priors2D(semantics=semantics, depth=depth, centers=centers, heatmap=heatmap,
                    mp_occupancy=mp_occupancy, offsets3d=offsets3d)
