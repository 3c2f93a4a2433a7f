"""Panoptic reconstruction quality: segment extraction, greedy IoU matching at a
25% threshold, and per-category / aggregated quality scores."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .volume import VOID, PanopticVolume


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class Segment:
    """One evaluated region: a thing instance or all cells of a stuff category."""

    category: int
    instance_id: int      # 0 for stuff segments
    is_thing: bool
    size: int             # number of cells


@dataclass
class CategoryScore:
    prq: float
    rsq: float
    rrq: float
    tp: int
    fp: int
    fn: int


@dataclass
class PrqReport:
    per_category: dict          # category id -> CategoryScore
    prq: float
    rsq: float
    rrq: float
    prq_things: float
    rsq_things: float
    rrq_things: float
    prq_stuff: float
    rsq_stuff: float
    rrq_stuff: float
    categories: list = field(default_factory=list)

    def as_records(self) -> dict:
        """Flat stable-keyed record for serialization."""
        rec = {
            "prq": self.prq, "rsq": self.rsq, "rrq": self.rrq,
            "prq_th": self.prq_things, "rsq_th": self.rsq_things, "rrq_th": self.rrq_things,
            "prq_st": self.prq_stuff, "rsq_st": self.rsq_stuff, "rrq_st": self.rrq_stuff,
        }
        for k in self.categories:
            s = self.per_category[k]
            rec[f"prq_{k}"] = s.prq
            rec[f"rsq_{k}"] = s.rsq
            rec[f"rrq_{k}"] = s.rrq
        return rec


def extract_segments(volume: PanopticVolume, cells: np.ndarray):
    """One segment per thing (category, instance) pair and one per stuff category.

    `volume` must pass `PanopticVolume.validate`. `cells` lists flat cell indices,
    each once, and must hold every non-void cell. Returns (segments, index):
    segments in ascending (category, instance) order, and the segment number of
    each listed cell, `len(segments)` at void cells.
    """
    sem_at, inst_at = volume.semantics.ravel()[cells], volume.instances.ravel()[cells]
    is_thing = np.asarray(volume.categories.is_thing, dtype=bool)
    thing = is_thing[sem_at]
    # Stuff categories present, and thing (category, instance) pairs, as keys.
    present = np.bincount(sem_at, minlength=len(is_thing)) > 0
    present[VOID] = False
    # Every nonzero instance id sits on a thing cell, so on a listed one.
    span = int(inst_at.max(initial=0)) + 1
    key = sem_at.astype(np.int64) * span + inst_at
    uniq = np.union1d(np.flatnonzero(present & ~is_thing) * span, key[thing])
    index = np.searchsorted(uniq, key)
    index[sem_at == VOID] = len(uniq)
    sizes = np.bincount(index, minlength=len(uniq) + 1)[:-1]
    cats, ids = np.divmod(uniq, span)
    segments = [Segment(*seg) for seg in zip(cats.tolist(), ids.tolist(),
                                             is_thing[cats].tolist(), sizes.tolist())]
    return segments, index


def iou(inter: int, size_a: int, size_b: int) -> float:
    """Intersection over union of two segments from their overlap and sizes."""
    if size_a == 0 and size_b == 0:
        raise MetricError("IoU of two empty sets is undefined")
    return inter / (size_a + size_b - inter)


def match_segments(pred_segments, gt_segments, overlap, threshold: float = 0.25):
    """Match same-category segments greedily by decreasing IoU, then gt size
    desc, pred size desc, gt index, pred index.

    `overlap[g, p]` counts the cells shared by gt segment g and pred segment p.
    Returns (tp, fp, fn): tp as (gt_index, pred_index, iou) triples into the
    input lists, fp/fn as unmatched indices.
    """
    if not (0 < threshold <= 1):
        raise MetricError("IoU threshold must be in (0, 1]")
    pairs = []
    gis, pis = np.nonzero(overlap)
    for gi, pi, inter in zip(gis.tolist(), pis.tolist(), overlap[gis, pis].tolist()):
        g, p = gt_segments[gi], pred_segments[pi]
        if g.category == p.category:
            score = iou(inter, g.size, p.size)
            if score >= threshold:
                pairs.append((-score, -g.size, -p.size, gi, pi))
    used_gt, used_pred, tp = set(), set(), []
    for neg_score, _gs, _ps, gi, pi in sorted(pairs):
        if gi not in used_gt and pi not in used_pred:
            used_gt.add(gi)
            used_pred.add(pi)
            tp.append((gi, pi, -neg_score))
    fp = [pi for pi in range(len(pred_segments)) if pi not in used_pred]
    fn = [gi for gi in range(len(gt_segments)) if gi not in used_gt]
    return tp, fp, fn


def _category_score(tp_ious, n_fp, n_fn) -> CategoryScore:
    n_tp = len(tp_ious)
    denom = 2 * n_tp + n_fp + n_fn
    rsq = sum(tp_ious) / n_tp if n_tp else 0.0
    rrq = 2 * n_tp / denom if denom else 0.0
    prq_k = 2 * sum(tp_ious) / denom if denom else 0.0
    return CategoryScore(prq=prq_k, rsq=rsq, rrq=rrq, tp=n_tp, fp=n_fp, fn=n_fn)


def prq(pred: PanopticVolume, gt: PanopticVolume, threshold: float = 0.25) -> PrqReport:
    """Per-category and aggregated quality at the given IoU matching threshold.

    The volumes must share a frame and a category table, and each must pass
    `validate` (VolumeError naming `pred` or `gt` and the field). Categories
    absent from both volumes are excluded; aggregates are unweighted means
    over the evaluated categories. One greedy matching over all
    categories equals one per category: candidates never cross categories.
    """
    if pred.frame != gt.frame:
        raise MetricError("prediction and ground truth must share a grid frame")
    if pred.categories != gt.categories:
        raise MetricError("category tables differ")
    pred.validate("pred")
    gt.validate("gt")
    # Only cells that are non-void in at least one volume can overlap.
    cells = np.flatnonzero((pred.semantics != VOID) | (gt.semantics != VOID))
    pred_segments, pred_index = extract_segments(pred, cells)
    gt_segments, gt_index = extract_segments(gt, cells)
    # Joint counts over those cells of (gt segment or void, pred segment or void).
    cols = len(pred_segments) + 1
    overlap = np.bincount(gt_index * cols + pred_index, minlength=(len(gt_segments) + 1) * cols)
    tp, fp, fn = match_segments(pred_segments, gt_segments,
                                overlap.reshape(-1, cols)[:-1, :-1], threshold)
    cats = sorted({s.category for s in pred_segments} | {s.category for s in gt_segments})
    tp_ious = {k: [] for k in cats}
    for gi, _pi, score in tp:
        tp_ious[gt_segments[gi].category].append(score)
    n_fp = Counter(pred_segments[pi].category for pi in fp)
    n_fn = Counter(gt_segments[gi].category for gi in fn)
    thing_flags = np.asarray(gt.categories.is_thing)
    per_category = {}
    for k in cats:
        score = _category_score(tp_ious[k], n_fp[k], n_fn[k])
        # Cross-check the factored form against the direct one.
        assert abs(score.prq - score.rsq * score.rrq) <= 1e-12
        per_category[k] = score
    def mean(ids, attr):
        if not ids:
            return 0.0
        return float(np.mean([getattr(per_category[k], attr) for k in ids]))
    things = [k for k in cats if thing_flags[k]]
    stuff = [k for k in cats if not thing_flags[k]]
    return PrqReport(
        per_category=per_category,
        prq=mean(cats, "prq"), rsq=mean(cats, "rsq"), rrq=mean(cats, "rrq"),
        prq_things=mean(things, "prq"), rsq_things=mean(things, "rsq"),
        rrq_things=mean(things, "rrq"),
        prq_stuff=mean(stuff, "prq"), rsq_stuff=mean(stuff, "rsq"),
        rrq_stuff=mean(stuff, "rrq"),
        categories=cats,
    )
