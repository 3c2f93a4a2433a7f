"""Panoptic reconstruction quality: segment extraction, greedy IoU matching at a
25% threshold, and per-category / aggregated quality scores."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .geometry import PanrecError
from .volume import VOID, PanopticVolume


class MetricError(PanrecError):
    pass


@dataclass(frozen=True)
class Segment:
    """One evaluated region: a thing instance or all cells of a stuff category."""

    category: int
    instance_id: int      # 0 for stuff segments
    is_thing: bool
    size: int             # number of cells


@dataclass
class Quality:
    prq: float
    rsq: float
    rrq: float


@dataclass
class CategoryScore(Quality):
    tp: int
    fp: int
    fn: int


QUALITIES = ("prq", "rsq", "rrq")
# The aggregate groups in report order: table row, record suffix and the
# categories averaged, things (True), stuff (False) or all (None).
GROUPS = (("all", "", None), ("things", "_th", True), ("stuff", "_st", False))


@dataclass
class PrqReport(Quality):
    per_category: dict          # category id -> CategoryScore
    things: Quality
    stuff: Quality
    categories: list = field(default_factory=list)

    def aggregates(self) -> list:
        """(table row, record suffix, quality) of each group in `GROUPS`."""
        return [(row, suffix, self if thing is None else getattr(self, row))
                for row, suffix, thing in GROUPS]

    def as_records(self) -> dict:
        """Flat stable-keyed record for serialization."""
        rec = {f"{q}{suffix}": getattr(quality, q)
               for _row, suffix, quality in self.aggregates() for q in QUALITIES}
        for k in self.categories:
            rec.update({f"{q}_{k}": getattr(self.per_category[k], q) for q in QUALITIES})
        return rec


def _segment_keys(counts, sem, inst, is_thing):
    """The segment order: keys `category * span + instance`, ascending, of one
    segment per stuff category with cells in `counts` (cells per category) and
    one per thing (category, instance) pair among the cells `sem`, `inst`. They
    must hold every thing cell, so every nonzero instance id. Returns (keys, span)."""
    span = int(inst.max(initial=0)) + 1
    stuff, thing = np.flatnonzero((counts > 0) & ~is_thing), is_thing[sem]
    return np.union1d(stuff[stuff != VOID] * span,
                      sem[thing].astype(np.int64) * span + inst[thing]), span


def _segment_index(keys, span, sem, inst=0):
    """Each cell's segment number in `keys`, `len(keys)` at void cells."""
    index = np.searchsorted(keys, sem.astype(np.int64) * span + inst)
    index[sem == VOID] = len(keys)
    return index


def _segments(keys, span, sizes, is_thing):
    cats, ids = np.divmod(keys, span)
    return [Segment(*seg) for seg in zip(*(a.tolist() for a in (cats, ids, is_thing[cats], sizes)))]


def extract_segments(volume: PanopticVolume, cells: np.ndarray):
    """One segment per thing (category, instance) pair and one per stuff category:
    the per-volume reference that the tests compare `overlap_table` against.
    `cells` lists flat cell indices, each once, and must hold every non-void
    cell. Returns (segments, index): segments in ascending (category, instance)
    order, and the segment number of each listed cell, `len(segments)` at void
    cells."""
    sem, inst = volume.semantics.ravel()[cells], volume.instances.ravel()[cells]
    is_thing = np.asarray(volume.categories.is_thing, dtype=bool)
    keys, span = _segment_keys(np.bincount(sem, minlength=len(is_thing)), sem, inst, is_thing)
    index = _segment_index(keys, span, sem, inst)
    return _segments(keys, span, np.bincount(index, minlength=len(keys) + 1)[:-1],
                     is_thing), index


def overlap_table(pred: PanopticVolume, gt: PanopticVolume):
    """(pred_segments, gt_segments, overlap): segments in `extract_segments`'
    order, and `overlap[g, p]` the count of cells in gt segment g and pred
    segment p, with a last void row and column. The volumes must share a frame
    and a category table."""
    is_thing = np.asarray(gt.categories.is_thing, dtype=bool)
    # Only cells non-void in either volume can overlap. Their category pairs are
    # counted over the K categories up to the largest one present, so that memory
    # does not grow with the square of a long table's unused tail.
    cells = np.flatnonzero(np.logical_or(pred.semantics, gt.semantics))
    sides = gt.semantics.ravel()[cells], pred.semantics.ravel()[cells]
    k = int(max(s.max(initial=VOID) for s in sides)) + 1
    # Widened first, so that a narrow semantics dtype cannot wrap category * K.
    pair = sides[0].astype(np.intp) * k + sides[1]
    joint = np.bincount(pair, minlength=k * k).reshape(k, k)
    # Only cells where either side is a thing need instance ids.
    thing_k = is_thing[:k]
    hot = cells[(thing_k[:, None] | thing_k[None, :]).ravel()[pair]]
    plain = np.flatnonzero(~thing_k)  # void and the stuff categories below K

    def side(volume, counts):
        sem, inst = volume.semantics.ravel()[hot], volume.instances.ravel()[hot]
        keys, span = _segment_keys(counts, sem, inst, thing_k)
        return keys, span, _segment_index(keys, span, sem, inst), _segment_index(keys, span, plain)
    (g_keys, g_span, g_index, g_rows), (p_keys, p_span, p_index, p_cols) = \
        side(gt, joint.sum(axis=1)), side(pred, joint.sum(axis=0))
    cols = len(p_keys) + 1
    overlap = np.bincount(g_index * cols + p_index,
                          minlength=(len(g_keys) + 1) * cols).reshape(-1, cols)
    # Cells with no thing on either side: the category table holds their counts
    # (zero in the row or column of a category that a volume lacks).
    np.add.at(overlap, np.ix_(g_rows, p_cols), joint[np.ix_(plain, plain)])
    return (_segments(p_keys, p_span, overlap.sum(axis=0)[:-1], is_thing),
            _segments(g_keys, g_span, overlap.sum(axis=1)[:-1], is_thing), overlap)


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
    rrq = 2 * n_tp / denom
    prq_k = 2 * sum(tp_ious) / denom
    return CategoryScore(prq=prq_k, rsq=rsq, rrq=rrq, tp=n_tp, fp=n_fp, fn=n_fn)


def prq(pred: PanopticVolume, gt: PanopticVolume, threshold: float = 0.25) -> PrqReport:
    """Per-category and aggregated quality at the given IoU matching threshold.

    The volumes must share a frame and a category table. Categories
    absent from both volumes are excluded; aggregates are unweighted means
    over the evaluated categories. One greedy matching over all
    categories equals one per category: candidates never cross categories.
    """
    if pred.frame != gt.frame:
        raise MetricError("prediction and ground truth must share a grid frame")
    if pred.categories != gt.categories:
        raise MetricError("category tables differ")
    pred_segments, gt_segments, overlap = overlap_table(pred, gt)
    tp, fp, fn = match_segments(pred_segments, gt_segments, overlap[:-1, :-1], threshold)
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
    def mean(thing) -> Quality:
        ids = [k for k in cats if thing is None or thing_flags[k] == thing]
        if not ids:
            return Quality(0.0, 0.0, 0.0)
        return Quality(*(float(np.mean([getattr(per_category[k], q) for k in ids]))
                         for q in QUALITIES))
    overall, things, stuff = (mean(thing) for _row, _suffix, thing in GROUPS)
    return PrqReport(**vars(overall), per_category=per_category, things=things, stuff=stuff,
                     categories=cats)
