"""Training-objective evaluators (2D and 3D terms) as pure functions, and the
truncated signed distance transform used by the 3D geometry term."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .geometry import PanrecError
from .priors import ThingOffsets, checked, checked_offsets

EPS = 1e-7

# Truncation (in cells) of the TSDF: `tsdf_from_occupancy`'s default and the
# band of `loss_3d`'s TSDF term, whose inputs are computed with it.
TRUNCATION = 3.0


class LossError(PanrecError):
    pass


@dataclass(frozen=True)
class LossWeights:
    """Finite, nonnegative balancing weights; defaults are all 1."""

    semantic2d: float = 1.0
    center2d: float = 1.0
    occupancy3d: float = 1.0
    semantic3d: float = 1.0
    offset3d: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:  # NaN fails too
                raise LossError(f"weight {f.name} must be finite and nonnegative")


@dataclass
class LossReport:
    """Named nonnegative terms with their weights and the weighted total."""

    terms: dict
    weights: dict
    total: float

    @classmethod
    def build(cls, terms: dict, weights: dict) -> "LossReport":
        total = sum(weights[name] * value for name, value in terms.items())
        return cls(terms=terms, weights=weights, total=float(total))


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, EPS, 1.0 - EPS)


def _mean(values: np.ndarray) -> float:
    """The mean of a term's values; a term over no cells is 0.0."""
    return float(values.mean()) if values.size else 0.0


def cross_entropy(pred: np.ndarray, target: np.ndarray, mask=None) -> float:
    """Mean -sum(target * log pred) over the last axis, optionally masked."""
    target = np.asarray(target, dtype=np.float64)
    pred = checked("pred", np.asarray(pred, dtype=np.float64), target.shape, error=LossError)
    ce = -np.sum(target * np.log(_clamp(pred)), axis=-1)
    if mask is not None:
        ce = ce[checked("mask", np.asarray(mask, dtype=bool), ce.shape, error=LossError)]
    return _mean(ce)


def binary_cross_entropy(pred: np.ndarray, target: np.ndarray) -> float:
    target = np.asarray(target, dtype=np.float64)
    pred = checked("pred", np.asarray(pred, dtype=np.float64), target.shape, error=LossError)
    p = _clamp(pred)  # -(t log p) - (1 - t) log(1 - p) in two buffers and one temporary
    loss = np.log(p)
    np.negative(np.multiply(loss, target, out=loss), out=loss)
    np.multiply(np.log(np.subtract(1.0, p, out=p), out=p), 1.0 - target, out=p)
    return float(np.mean(np.subtract(loss, p, out=loss)))


def loss_panoptic2d(
    sem_pred: np.ndarray,
    sem_gt: np.ndarray,
    heatmap_pred: np.ndarray,
    heatmap_gt: np.ndarray,
    weights: LossWeights = LossWeights(),
) -> LossReport:
    """Semantic cross entropy (non-void pixels) + center-heatmap MSE (all pixels)."""
    heatmap_gt = np.asarray(heatmap_gt, dtype=np.float64)
    heatmap_pred = checked("heatmap_pred", np.asarray(heatmap_pred, dtype=np.float64),
                           heatmap_gt.shape, error=LossError)
    nonvoid = np.argmax(np.asarray(sem_gt), axis=-1) != 0
    ce = cross_entropy(sem_pred, sem_gt, mask=nonvoid)
    mse = float(np.mean((heatmap_pred - heatmap_gt) ** 2))
    return LossReport.build(
        terms={"semantic_ce": ce, "center_mse": mse},
        weights={"semantic_ce": weights.semantic2d, "center_mse": weights.center2d},
    )


def loss_depth(pred: np.ndarray, gt: np.ndarray) -> float:
    """Log-L1 depth difference plus L1 of forward-difference gradients, over the
    pixels where both depth maps have a surface (depth > 0).

    One fixed variant of a scale-aware depth objective; swap here if a
    different depth criterion is needed.
    """
    gt = np.asarray(gt, dtype=np.float64)
    pred = checked("depth pred", np.asarray(pred, dtype=np.float64), gt.shape, 0.0,
                   error=LossError)
    checked("depth gt", gt, (None, None), 0.0, error=LossError)
    valid = (pred > 0) & (gt > 0)
    log_term = _mean(np.abs(np.log(pred[valid]) - np.log(gt[valid])))
    # forward differences between two valid pixels, down then across
    pairs = (valid[:-1] & valid[1:], valid[:, :-1] & valid[:, 1:])
    diffs = [np.abs(np.diff(pred, axis=axis) - np.diff(gt, axis=axis))[pair]
             for axis, pair in enumerate(pairs)]
    return log_term + _mean(np.concatenate(diffs))


def loss_mp_occupancy(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean binary cross entropy between multi-plane occupancies."""
    return binary_cross_entropy(pred, gt)


def tsdf_from_occupancy(occupancy: np.ndarray, truncation: float = TRUNCATION) -> np.ndarray:
    """Truncated signed Euclidean distance (in cells) to the occupancy boundary.

    Negative inside occupied cells, positive outside, clamped to [-t, t]: an
    exact squared EDT (Felzenszwalb & Huttenlocher) limited to the band, since a
    squared distance <= t^2 has every axis offset <= floor(t).
    """
    if not truncation >= 1:
        raise LossError(f"truncation must be >= 1, got {truncation}")
    occ = np.asarray(occupancy, dtype=bool)
    if not occ.any():
        return np.full(occ.shape, truncation, dtype=np.float64)
    if occ.all():
        return np.full(occ.shape, -truncation, dtype=np.float64)
    # squared distances stop at `cap`, the first beyond the band or the diagonal
    cap = int(min(truncation * truncation, sum((n - 1) ** 2 for n in occ.shape))) + 1
    reach = math.isqrt(cap - 1)
    dtype = np.min_scalar_type(2 * cap)
    d2 = cap * np.stack([occ, ~occ]).astype(dtype)  # to the nearest free cell / occupied cell
    for axis in range(1, d2.ndim):  # a pass reads the unchanged `src` and writes a copy
        src, d2 = d2, d2.copy()
        for k in range(1, min(reach, d2.shape[axis] - 1) + 1):
            lo, hi = ((slice(None),) * axis + (part,) for part in (slice(None, -k), slice(k, None)))
            np.minimum(d2[lo], src[hi] + k * k, out=d2[lo])
            np.minimum(d2[hi], src[lo] + k * k, out=d2[hi])
    # one gather from the signed distances: -d at occupied cells, +d elsewhere
    index = d2[1].astype(np.intp)
    np.add(d2[0], cap + 1, out=index, where=occ, dtype=np.intp)
    del src, d2
    dist = np.minimum(np.sqrt(np.arange(cap + 1.0)), truncation)
    return np.concatenate([dist, -dist])[index]


def loss_3d(
    sem_pred: Callable,
    offsets_pred: ThingOffsets,
    occ_pred: np.ndarray,
    tsdf_pred: np.ndarray,
    sem_gt: np.ndarray,
    offsets_gt: ThingOffsets,
    occ_gt: np.ndarray,
    tsdf_gt: np.ndarray,
    thing_mask: np.ndarray,
    weights: LossWeights = LossWeights(),
) -> LossReport:
    """3D objective: occupancy BCE + near-surface TSDF L1, semantic CE over
    occupied cells, and offset L1 over occupied thing cells.

    `sem_gt` is the integer label volume, `sem_pred` a function from flat cell
    indices to their (N, C) score rows (`lifting.lift_priors`); the semantic
    term is the one-hot cross entropy without its zero terms. `thing_mask`
    marks occupied thing cells. Both offsets are `priors.ThingOffsets` (flat cells
    -> their (N, 2) rows), cover `occ_gt.shape + (2,)` and are
    finite at the thing cells, every other volume is `occ_gt.shape`, and a
    misshaped input raises LossError naming it. Both TSDFs are
    `tsdf_from_occupancy` at TRUNCATION, the L1 term's band.
    """
    occ_gt = np.asarray(occ_gt, dtype=np.float64)
    grid = occ_gt.shape
    occ_bce = binary_cross_entropy(checked("occ_pred", occ_pred, grid, error=LossError), occ_gt)
    tsdf_pred = checked("tsdf_pred", np.asarray(tsdf_pred, dtype=np.float64), grid,
                        error=LossError)
    tsdf_gt = checked("tsdf_gt", tsdf_gt, grid, error=LossError)
    thing = checked("thing_mask", np.asarray(thing_mask, dtype=bool), grid, error=LossError)
    checked_offsets("offsets_pred", offsets_pred, grid, LossError)
    checked_offsets("offsets_gt", offsets_gt, grid, LossError)
    band = np.abs(tsdf_gt) < TRUNCATION
    tsdf_l1 = _mean(np.abs(tsdf_pred[band] - tsdf_gt[band]))
    sem_gt = np.asarray(sem_gt)
    if sem_gt.shape != occ_gt.shape or sem_gt.dtype.kind not in "iu":
        raise LossError(f"sem_gt must be an integer label volume of shape {occ_gt.shape}, "
                        f"got {sem_gt.dtype} {sem_gt.shape}")
    cells = np.flatnonzero(occ_gt > 0.5)
    rows = sem_pred(cells)
    labels = sem_gt.reshape(-1)[cells]
    if labels.size and not 0 <= labels.min() <= labels.max() < rows.shape[-1]:
        raise LossError(f"sem_gt labels at occupied cells must lie in [0, {rows.shape[-1]})")
    picked = rows[np.arange(labels.size), labels]
    sem_ce = _mean(-np.log(_clamp(picked)))
    # offsets are read, and must be finite, at the thing cells only
    at = np.flatnonzero(thing)
    pred_at = checked("offsets_pred", offsets_pred(at), (None, 2), -np.inf, error=LossError)
    gt_at = checked("offsets_gt", offsets_gt(at), (None, 2), -np.inf, error=LossError)
    offset_l1 = float(np.abs(pred_at - gt_at).sum() / thing.sum()) if thing.any() else 0.0
    return LossReport.build(
        terms={"occupancy_bce": occ_bce, "tsdf_l1": tsdf_l1, "semantic_ce": sem_ce,
               "offset_l1": offset_l1},
        weights={"occupancy_bce": weights.occupancy3d, "tsdf_l1": weights.occupancy3d,
                 "semantic_ce": weights.semantic3d, "offset_l1": weights.offset3d},
    )
