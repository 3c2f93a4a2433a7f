"""Training-objective evaluators (2D and 3D terms) as pure functions, and the
truncated signed distance transform used by the 3D geometry term."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

EPS = 1e-7

# Truncation (in cells) of the TSDF: `tsdf_from_occupancy`'s default and the
# band of `loss_3d`'s TSDF term, whose inputs are computed with it.
TRUNCATION = 3.0


class LossError(ValueError):
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


def cross_entropy(pred: np.ndarray, target: np.ndarray, mask=None) -> float:
    """Mean -sum(target * log pred) over the last axis, optionally masked."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise LossError(f"shape mismatch {pred.shape} vs {target.shape}")
    ce = -np.sum(target * np.log(_clamp(pred)), axis=-1)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return 0.0
        ce = ce[mask]
    return float(ce.mean()) if ce.size else 0.0


def binary_cross_entropy(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise LossError(f"shape mismatch {pred.shape} vs {target.shape}")
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
    heatmap_pred = np.asarray(heatmap_pred, dtype=np.float64)
    heatmap_gt = np.asarray(heatmap_gt, dtype=np.float64)
    if heatmap_pred.shape != heatmap_gt.shape:
        raise LossError("heatmap shapes differ")
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
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise LossError("depth map shapes differ")
    for name, depth in (("pred", pred), ("gt", gt)):
        if depth.size and not 0 <= depth.min() <= depth.max() < np.inf:  # NaN fails too
            raise LossError(f"depth {name} must be finite and >= 0")
    valid = (pred > 0) & (gt > 0)
    if not valid.any():
        return 0.0
    log_term = np.abs(np.log(pred[valid]) - np.log(gt[valid])).mean()
    diffs = []
    for axis in (0, 1):  # forward differences between two valid pixels
        pair = np.delete(valid, -1, axis) & np.delete(valid, 0, axis)
        diffs.append(np.abs(np.diff(pred, axis=axis) - np.diff(gt, axis=axis))[pair])
    diffs = np.concatenate(diffs)
    grad_term = diffs.mean() if diffs.size else 0.0
    return float(log_term + grad_term)


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
    dtype = np.promote_types(np.uint16, np.min_scalar_type(2 * cap))
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
    offsets_pred: np.ndarray,
    occ_pred: np.ndarray,
    tsdf_pred: np.ndarray,
    sem_gt: np.ndarray,
    offsets_gt: np.ndarray,
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
    marks occupied thing cells. Both offset volumes are `occ_gt.shape + (2,)`.
    Both TSDFs are `tsdf_from_occupancy` at TRUNCATION, the L1 term's band.
    """
    occ_gt = np.asarray(occ_gt, dtype=np.float64)
    for name, offsets in (("offsets_pred", offsets_pred), ("offsets_gt", offsets_gt)):
        if np.shape(offsets) != occ_gt.shape + (2,):
            raise LossError(f"{name} shape {np.shape(offsets)} is not {occ_gt.shape + (2,)}")
    occ_bce = binary_cross_entropy(occ_pred, occ_gt)
    tsdf_pred, tsdf_gt = np.asarray(tsdf_pred, dtype=np.float64), np.asarray(tsdf_gt)
    band = np.abs(tsdf_gt) < TRUNCATION
    if tsdf_pred.shape != tsdf_gt.shape:
        raise LossError("tsdf shapes differ")
    tsdf_l1 = float(np.abs(tsdf_pred[band] - tsdf_gt[band]).mean()) if band.any() else 0.0
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
    sem_ce = float(np.mean(-np.log(_clamp(picked)))) if labels.size else 0.0
    thing = np.asarray(thing_mask, dtype=bool)
    offset_diff = np.abs(np.asarray(offsets_pred)[thing] - np.asarray(offsets_gt)[thing])
    offset_l1 = float(offset_diff.sum() / thing.sum()) if thing.any() else 0.0
    return LossReport.build(
        terms={"occupancy_bce": occ_bce, "tsdf_l1": tsdf_l1, "semantic_ce": sem_ce,
               "offset_l1": offset_l1},
        weights={"occupancy_bce": weights.occupancy3d, "tsdf_l1": weights.occupancy3d,
                 "semantic_ce": weights.semantic3d, "offset_l1": weights.offset3d},
    )
