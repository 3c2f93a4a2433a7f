import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panrec.metrics import (
    CategoryScore,
    MetricError,
    PrqReport,
    Quality,
    Segment,
    extract_segments,
    iou,
    match_segments,
    overlap_table,
    prq,
)
from panrec.pipeline import reconstruct_from_priors
from panrec.priors import derive_priors, extract_centers
from panrec.synth import NoiseSpec, SynthConfig, generate_scene, perturb_priors
from panrec.volume import CategoryTable, PanopticVolume, VolumeError
from panrec.geometry import AxisGrid, FrustumGrid
from conftest import seeded_scenes, traced_peak

CATS = CategoryTable((False, True, False, True))
FRAME = FrustumGrid(4, 4, 4)
EVERY_CELL = np.arange(64)


def vol(sem, inst):
    return PanopticVolume(FRAME, np.asarray(sem, np.int32).reshape(FRAME.shape),
                          np.asarray(inst, np.int32).reshape(FRAME.shape), CATS)


def blank():
    return np.zeros(FRAME.shape, np.int32), np.zeros(FRAME.shape, np.int32)


def segments_and_overlap(pred, gt):
    """Segments of both volumes and their overlap counts, from cell sets."""
    pred_segs, pred_index = extract_segments(pred, EVERY_CELL)
    gt_segs, gt_index = extract_segments(gt, EVERY_CELL)
    overlap = np.zeros((len(gt_segs), len(pred_segs)), np.int64)
    for g in range(len(gt_segs)):
        for p in range(len(pred_segs)):
            overlap[g, p] = np.count_nonzero((gt_index == g) & (pred_index == p))
    return pred_segs, gt_segs, overlap


def test_extract_segments_empty_and_counts():
    sem, inst = blank()
    segs, index = extract_segments(vol(sem, inst), EVERY_CELL)
    assert segs == [] and index.tolist() == [0] * 64
    sem[0, 0, 0] = 2           # stuff
    sem[1, 1, 1] = sem[1, 1, 2] = 1
    inst[1, 1, 1] = inst[1, 1, 2] = 5
    sem[2, 2, 2] = 1
    inst[2, 2, 2] = 6
    segs, index = extract_segments(vol(sem, inst), EVERY_CELL)
    assert len(segs) == 3
    by_key = {(s.category, s.instance_id): s for s in segs}
    assert by_key[(2, 0)].size == 1 and not by_key[(2, 0)].is_thing
    assert by_key[(1, 5)].size == 2 and by_key[(1, 5)].is_thing
    assert by_key[(1, 6)].size == 1
    assert [(s.category, s.instance_id) for s in segs] == [(1, 5), (1, 6), (2, 0)]
    index = index.reshape(FRAME.shape)
    assert index[1, 1, 1] == index[1, 1, 2] == 0
    assert index[2, 2, 2] == 1 and index[0, 0, 0] == 2
    assert np.count_nonzero(index == 3) == 64 - 4


def test_stuff_cells_merge_into_one_segment():
    sem, inst = blank()
    sem[0, 0, 0] = sem[3, 3, 3] = 2
    segs, index = extract_segments(vol(sem, inst), EVERY_CELL)
    assert len(segs) == 1
    assert segs[0].size == 2
    assert np.flatnonzero(index == 0).tolist() == [0, 63]
    assert np.count_nonzero(index == 1) == 62


def test_iou_values_and_error():
    # the same cell sets as {0, 1} vs {0, 1}, {0, 1} vs {2, 3}, {0, 1, 2} vs {2, 3}
    assert iou(2, 2, 2) == 1.0
    assert iou(0, 2, 2) == 0.0
    assert iou(1, 3, 2) == pytest.approx(0.25)
    with pytest.raises(MetricError):
        iou(0, 0, 0)


def thing(instance_id, size, category=1):
    return Segment(category, instance_id, True, size)


def test_match_prefers_higher_iou():
    gt = [thing(1, 10)]                  # one instance over 10 cells
    preds = [thing(1, 8), thing(2, 4)]   # A: inside gt, iou 8/10; B: disjoint
    tp, fp, fn = match_segments(preds, gt, np.array([[8, 0]]))
    assert len(tp) == 1 and tp[0][2] == pytest.approx(0.8)
    assert len(fp) == 1 and len(fn) == 0


def test_greedy_takes_best_pair_first():
    # pred A straddles gt G (iou 1/3) and gt H (iou 5/17); pred B sits
    # inside H (iou 1/2). Greedy fixes (H, B) first, then (G, A), and the
    # weaker (H, A) candidate is dropped because H is already matched.
    gt = [thing(1, 10), thing(2, 12)]     # G: cells 0-9, H: cells 10-21
    preds = [thing(1, 10), thing(2, 6)]   # A: cells 5-14, B: cells 16-21
    overlap = np.array([[5, 0],           # G & A = 5 cells, G & B = 0
                        [5, 6]])          # H & A = 5 cells, H & B = 6
    tp, fp, fn = match_segments(preds, gt, overlap)
    assert len(tp) == 2 and not fp and not fn
    ious = sorted(t[2] for t in tp)
    assert ious == pytest.approx([1 / 3, 1 / 2])


def test_match_threshold_validation():
    none = np.zeros((0, 0), np.int64)
    with pytest.raises(MetricError):
        match_segments([], [], none, threshold=0.0)
    with pytest.raises(MetricError):
        match_segments([], [], none, threshold=1.5)


def test_prq_identity_is_one():
    sem, inst = blank()
    sem.ravel()[:6] = 1
    inst.ravel()[:6] = 1
    sem.ravel()[20:30] = 2
    v = vol(sem, inst)
    rep = prq(v, v)
    assert rep.prq == 1.0 and rep.rsq == 1.0 and rep.rrq == 1.0
    assert rep.things.prq == 1.0 and rep.stuff.prq == 1.0


def test_prq_zero_overlap():
    sem, inst = blank()
    sem.ravel()[:4] = 1
    inst.ravel()[:4] = 1
    gt = vol(sem, inst)
    sem2, inst2 = blank()
    sem2.ravel()[30:34] = 1
    inst2.ravel()[30:34] = 1
    rep = prq(vol(sem2, inst2), gt)
    score = rep.per_category[1]
    assert score.tp == 0 and score.fp == 1 and score.fn == 1
    assert score.prq == 0.0 and score.rsq == 0.0 and score.rrq == 0.0


def test_prq_absent_categories_excluded():
    sem, inst = blank()
    sem.ravel()[:4] = 2
    v = vol(sem, inst)
    rep = prq(v, v)
    assert rep.categories == [2]
    assert rep.things.prq == 0.0  # no thing category evaluated
    assert rep.prq == 1.0


def test_prq_instance_relabel_invariance():
    sem, inst = blank()
    sem.ravel()[:5] = 1
    inst.ravel()[:5] = 1
    sem.ravel()[8:12] = 1
    inst.ravel()[8:12] = 2
    gt = vol(sem, inst)
    relabeled = inst.copy()
    relabeled[inst == 1] = 9
    relabeled[inst == 2] = 4
    rep = prq(vol(sem, relabeled), gt)
    assert rep.prq == 1.0


def test_prq_half_overlap_closed_form():
    sem, inst = blank()
    sem.ravel()[:8] = 1
    inst.ravel()[:8] = 1
    gt = vol(sem, inst)
    sem2, inst2 = blank()
    sem2.ravel()[4:12] = 1    # overlap 4 of 8, union 12, iou 1/3
    inst2.ravel()[4:12] = 1
    rep = prq(vol(sem2, inst2), gt)
    s = rep.per_category[1]
    assert s.rsq == pytest.approx(1 / 3)
    assert s.rrq == 1.0
    assert s.prq == pytest.approx(1 / 3)


def test_prq_frame_and_table_mismatch():
    sem, inst = blank()
    v = vol(sem, inst)
    other = PanopticVolume(FrustumGrid(4, 4, 8), np.zeros((4, 4, 8), np.int32),
                           np.zeros((4, 4, 8), np.int32), CATS)
    with pytest.raises(MetricError):
        prq(v, other)
    small_cats = PanopticVolume(FRAME, np.zeros(FRAME.shape, np.int32),
                                np.zeros(FRAME.shape, np.int32),
                                CategoryTable((False, True)))
    with pytest.raises(MetricError):
        prq(v, small_cats)
    # tables of one length that disagree on which category is a thing
    sem.ravel()[:4] = 1
    a, b = (PanopticVolume(FRAME, sem, inst, CategoryTable(flags))
            for flags in ((False, True, False), (False, False, True)))
    with pytest.raises(MetricError, match="category tables differ"):
        prq(a, b)


def test_prq_memory_does_not_grow_with_the_category_table():
    # an 8^3 volume with 256 cells of categories 1-10, scored against itself under
    # its 11-entry table and under a 2,000-entry one: the pair table stops at the
    # largest category present, so the long table costs no more and scores the same
    # bits
    frame = FrustumGrid(8, 8, 8)
    rng = np.random.default_rng(0)
    sem = np.zeros(frame.shape, np.int32)
    sem.ravel()[rng.choice(sem.size, 256, replace=False)] = rng.integers(1, 11, 256)
    tables = [CategoryTable((False,) + tuple(k % 3 != 0 for k in range(1, n)))
              for n in (11, 2000)]
    inst = np.where(np.asarray(tables[0].is_thing)[sem], rng.integers(1, 9, sem.shape), 0)
    volumes = [PanopticVolume(frame, sem, inst.astype(np.int32), table) for table in tables]
    peak = traced_peak(prq, volumes[1], volumes[1])
    assert peak < 2e6, peak
    assert report_lines(prq(*volumes[:1] * 2)) == report_lines(prq(*volumes[1:] * 2))


def test_prq_reconstruction_round_trip():
    for scene in seeded_scenes(3):
        priors = derive_priors(scene)
        pred = reconstruct_from_priors(priors, scene.frame, scene.intrinsics,
                                       scene.planes, scene.categories)
        rep = prq(pred, scene.volume)
        assert rep.prq == 1.0
        rec = rep.as_records()
        assert rec["prq"] == 1.0 and "prq_th" in rec


# sha256 over every `as_records()` value and every per-category (tp, fp, fn),
# pinned from the per-segment cell-array implementation. Scenes are built the
# way the crowded-noisy benchmark builds them (perturbed priors, extracted
# centers) at 48^3, so the reports have misses, false positives and matches
# that change with the threshold.
GOLDEN_PRQ_RECORDS = {
    0: "8e8cc515f2b65ce67e75ccfcb71f33f83362dbb54c1023dd88a0fd0266cdd546",
    1: "8c0e0235e508aee1c9353740889978bcf97d25023d6b1e912416f8f3543d8247",
    2: "e6ff953219d1290cab902a92f3a47605d4dbce04b4f0deb44c4d72b829bc548a",
}
GOLDEN_THRESHOLDS = (0.1, 0.25, 0.5, 0.9)
NOISE = NoiseSpec(depth_sigma=0.05, semantic_flip=0.05, occupancy_flip=0.02,
                  center_jitter=2)


def noisy_prediction(seed):
    scene = generate_scene(SynthConfig(seed=seed, width=48, height=48, planes=48,
                                       n_things=8, min_center_separation=8.0))
    bundle = perturb_priors(derive_priors(scene), NOISE, seed, scene.planes)
    bundle = dataclasses.replace(
        bundle, centers=extract_centers(bundle.heatmap, bundle.semantics))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pred = reconstruct_from_priors(bundle, scene.frame, scene.intrinsics,
                                       scene.planes, scene.categories)
    return pred, scene.volume


def report_lines(rep):
    lines = [f"{k} {float(v).hex()}" for k, v in rep.as_records().items()]
    lines += [f"{k} {s.tp} {s.fp} {s.fn}" for k, s in rep.per_category.items()]
    return lines


@pytest.mark.parametrize("seed", sorted(GOLDEN_PRQ_RECORDS))
def test_prq_records_match_golden_hash(seed):
    pred, gt = noisy_prediction(seed)
    lines = []
    for threshold in GOLDEN_THRESHOLDS:
        lines += [f"threshold {threshold}"] + report_lines(prq(pred, gt, threshold))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_PRQ_RECORDS[seed]


def reference_prq(pred, gt, threshold=0.25):
    """The per-segment cell-array PRQ that the joint overlap table replaced,
    kept as the oracle: a stable argsort per volume, one sorted cell array per
    segment, per-category segment lists and `np.intersect1d` per pair."""

    def segments(volume):
        sem = volume.semantics.ravel()
        inst = volume.instances.ravel()
        key = sem.astype(np.int64) * (int(inst.max(initial=0)) + 1) + inst
        key = np.where(sem == 0, -1, key)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        uniq, starts = np.unique(sorted_key, return_index=True)
        out = []
        for i, k in enumerate(uniq):
            if k < 0:
                continue
            stop = starts[i + 1] if i + 1 < len(uniq) else len(sorted_key)
            cells = np.sort(order[starts[i]:stop])
            out.append((int(sem[cells[0]]), cells))
        return out

    def match(preds, gts):
        if not (0 < threshold <= 1):
            raise MetricError("IoU threshold must be in (0, 1]")
        pairs = []
        for gi, (_, g) in enumerate(gts):
            for pi, (_, p) in enumerate(preds):
                inter = len(np.intersect1d(g, p, assume_unique=True))
                score = inter / (len(g) + len(p) - inter)
                if score >= threshold:
                    pairs.append((score, len(g), len(p), gi, pi))
        pairs.sort(key=lambda q: (-q[0], -q[1], -q[2], q[3], q[4]))
        used_gt, used_pred, tp = set(), set(), []
        for score, _gs, _ps, gi, pi in pairs:
            if gi not in used_gt and pi not in used_pred:
                used_gt.add(gi)
                used_pred.add(pi)
                tp.append(score)
        return tp, len(preds) - len(tp), len(gts) - len(tp)

    pred_segments, gt_segments = segments(pred), segments(gt)
    cats = sorted({s[0] for s in pred_segments} | {s[0] for s in gt_segments})
    per_category = {}
    for k in cats:
        tp, n_fp, n_fn = match([s for s in pred_segments if s[0] == k],
                               [s for s in gt_segments if s[0] == k])
        n_tp = len(tp)
        denom = 2 * n_tp + n_fp + n_fn
        per_category[k] = CategoryScore(
            prq=2 * sum(tp) / denom if denom else 0.0,
            rsq=sum(tp) / n_tp if n_tp else 0.0,
            rrq=2 * n_tp / denom if denom else 0.0, tp=n_tp, fp=n_fp, fn=n_fn)
    thing_flags = gt.categories.is_thing

    def mean(ids, attr):
        return float(np.mean([getattr(per_category[k], attr) for k in ids])) if ids else 0.0

    overall, things, stuff = (
        Quality(*(mean(ids, attr) for attr in ("prq", "rsq", "rrq")))
        for ids in (cats, [k for k in cats if thing_flags[k]],
                    [k for k in cats if not thing_flags[k]]))
    return PrqReport(**vars(overall), per_category=per_category, things=things, stuff=stuff,
                     categories=cats)


ORACLE_CATS = CategoryTable((False, True, False, True, True))
INSTANCE_IDS = (1, 2, 3, 2**20, 2**20 + 1, 2**31 - 1)


@st.composite
def labeled_volume(draw, shape, categories):
    """A valid volume over `categories`: all void, or random labels with large
    instance ids on thing cells only."""
    if draw(st.booleans()) and draw(st.booleans()):
        sem = np.zeros(shape, np.int32)
    else:
        sem = draw(hnp.arrays(np.int32, shape, elements=st.integers(0, len(categories) - 1)))
    ids = draw(hnp.arrays(np.int32, shape, elements=st.sampled_from(INSTANCE_IDS)))
    thing = np.asarray(categories.is_thing)[sem]
    return sem, np.where(thing, ids, 0).astype(np.int32)


@st.composite
def volume_pairs(draw, categories=ORACLE_CATS):
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=3, max_size=3)))
    (gs, gi), (ps, pi) = (draw(labeled_volume(shape, categories)),
                          draw(labeled_volume(shape, categories)))
    things = [k for k, thing in enumerate(categories.is_thing) if thing]
    if things and gs.size >= 4 and draw(st.booleans()):
        # Plant an exact tie: two gt and two pred instances of 2 cells each,
        # every pred sharing one cell with every gt, so all four IoUs are 1/3.
        gs.ravel()[:4] = ps.ravel()[:4] = draw(st.sampled_from(things))
        a, b = draw(st.lists(st.sampled_from(INSTANCE_IDS), min_size=2, max_size=2,
                             unique=True))
        gi.ravel()[:4] = (a, a, b, b)
        pi.ravel()[:4] = (a, b, a, b)
    frame = FrustumGrid(shape[1], shape[0], shape[2])
    return (PanopticVolume(frame, ps, pi, categories),
            PanopticVolume(frame, gs, gi, categories))


@settings(max_examples=400, deadline=None)
@given(pair=volume_pairs(), threshold=st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 1.0]))
def test_prq_matches_reference_on_random_volumes(pair, threshold):
    pred, gt = pair
    for a, b in ((pred, gt), (gt, pred), (gt, gt)):
        assert report_lines(prq(a, b, threshold)) == \
            report_lines(reference_prq(a, b, threshold))


def reference_table(pred, gt):
    """Both volumes' `extract_segments` over every cell, and their overlap
    table from one bincount: a row per gt segment and a column per pred
    segment, then the void row and column."""
    every = np.arange(gt.semantics.size)
    pred_segments, pred_index = extract_segments(pred, every)
    gt_segments, gt_index = extract_segments(gt, every)
    cols = len(pred_segments) + 1
    overlap = np.bincount(gt_index * cols + pred_index, minlength=(len(gt_segments) + 1) * cols)
    overlap = overlap.reshape(-1, cols)
    overlap[-1, -1] = 0  # void in both volumes: no PRQ count covers these cells
    return pred_segments, gt_segments, overlap


# One category besides void, void alone, and stuff alone, next to ORACLE_CATS, and
# a 300-entry table, whose categories past the largest one present `overlap_table`
# leaves out.
TABLE_CATS = [ORACLE_CATS, CategoryTable((False, True)), CategoryTable((False, False)),
              CategoryTable((False,)), CategoryTable((False, False, False, False)),
              CategoryTable((False,) + tuple(k % 3 == 1 for k in range(1, 300)))]


@pytest.mark.parametrize("categories", TABLE_CATS, ids=lambda c: f"long-{len(c)}" if len(c) > 8
                         else "".join("t" if thing else "s" for thing in c.is_thing[1:]) or "void")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_overlap_table_matches_extract_segments(categories, data):
    # prq's segments and its whole table, void row and column included: the
    # void column is what a GT segment lost to cells void in the prediction.
    pred, gt = data.draw(volume_pairs(categories))
    for a, b in ((pred, gt), (gt, pred), (gt, gt)):
        pred_segments, gt_segments, overlap = overlap_table(a, b)
        want_pred, want_gt, want_overlap = reference_table(a, b)
        assert pred_segments == want_pred and gt_segments == want_gt
        assert overlap.dtype == want_overlap.dtype
        np.testing.assert_array_equal(overlap, want_overlap)


def narrowed(volume, dtype):
    """`volume` with its semantics in `dtype`. The constructor casts to int32,
    but the frozen field can be forced after it, and `validate` does not check dtypes."""
    out = dataclasses.replace(volume)
    object.__setattr__(out, "semantics", volume.semantics.astype(dtype))
    return out.validate()


# Each table is long enough that category * len(table) overflows its dtype.
@pytest.mark.parametrize("dtype,n_categories", [(np.uint8, 20), (np.int8, 20),
                                                (np.int16, 200), (np.uint16, 300)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_narrow_semantics_score_as_int32(dtype, n_categories, data):
    categories = CategoryTable((False,) + tuple(k % 3 == 1 for k in range(1, n_categories)))
    pred, gt = data.draw(volume_pairs(categories))
    for a, b in ((pred, gt), (gt, pred)):
        narrow_a, narrow_b = narrowed(a, dtype), narrowed(b, dtype)
        pred_segments, gt_segments, overlap = overlap_table(narrow_a, narrow_b)
        want_pred, want_gt, want_overlap = overlap_table(a, b)
        assert pred_segments == want_pred and gt_segments == want_gt
        np.testing.assert_array_equal(overlap, want_overlap)
        assert report_lines(prq(narrow_a, narrow_b)) == report_lines(reference_prq(a, b))


def edge_support_pair(case):
    """(pred, gt) whose non-void cells are: gt's only ("one-all-void"), two
    disjoint sets ("disjoint"), or the single cell 17 ("single-cell-*")."""
    sem, inst = blank()
    sem2, inst2 = blank()
    if case in ("one-all-void", "disjoint"):
        sem.ravel()[:5], inst.ravel()[:5], sem.ravel()[5:12] = 1, 3, 2
    if case == "disjoint":
        sem2.ravel()[30:33], inst2.ravel()[30:33], sem2.ravel()[40:50] = 1, 3, 2
    if case == "single-cell-both":
        sem.ravel()[17], inst.ravel()[17], sem2.ravel()[17], inst2.ravel()[17] = 3, 2, 3, 9
    if case == "single-cell-gt":
        sem.ravel()[17] = 2
    return vol(sem2, inst2), vol(sem, inst)


@pytest.mark.parametrize("case", ["one-all-void", "disjoint", "single-cell-both",
                                  "single-cell-gt"])
def test_prq_matches_reference_on_edge_supports(case):
    pred, gt = edge_support_pair(case)
    for a, b in ((pred, gt), (gt, pred)):
        for threshold in (0.25, 1.0):
            assert report_lines(prq(a, b, threshold)) == \
                report_lines(reference_prq(a, b, threshold))
    rep = prq(pred, gt)
    assert rep.prq == (1.0 if case == "single-cell-both" else 0.0)


def test_planted_tie_breaks_by_gt_then_pred_order():
    # gt instances 1, 2 and pred instances 1, 2, each pair sharing one of
    # four cells; gt 1 takes pred 1 and gt 2 takes pred 2, all at IoU 1/3.
    sem, inst = blank()
    sem.ravel()[:4] = 1
    inst.ravel()[:4] = (1, 1, 2, 2)
    inst2 = inst.copy()
    inst2.ravel()[:4] = (1, 2, 1, 2)
    preds, gts, overlap = segments_and_overlap(vol(sem, inst2), vol(sem, inst))
    tp, fp, fn = match_segments(preds, gts, overlap, threshold=1 / 3)
    assert tp == [(0, 0, 1 / 3), (1, 1, 1 / 3)] and not fp and not fn
    # equal IoUs with unequal sizes: the larger gt, then the larger pred wins
    assert match_segments([thing(1, 10)], [thing(1, 2), thing(2, 8)],
                          np.array([[2], [3]]), threshold=0.2)[0] == [(1, 0, 0.2)]
    assert match_segments([thing(1, 2), thing(2, 8)], [thing(1, 10)],
                          np.array([[2, 3]]), threshold=0.2)[0] == [(0, 1, 0.2)]


def test_size_tie_break_matches_reference():
    # pred P (10 cells) holds all of gt G1 (2 cells) and 3 cells of gt G2 (8
    # cells): both IoUs are 1/5, so the larger G2 takes P. Pred Q shares one
    # cell with G2 (IoU 1/10) and stays unmatched; had G1 taken P, Q would
    # match G2 and the category would score 2 TPs. Swapping the volumes tests
    # the pred-size tie-break the same way.
    sem, inst = blank()
    sem.ravel()[:10] = 1
    inst.ravel()[:10] = (1, 1, 2, 2, 2, 2, 2, 2, 2, 2)
    gt = vol(sem, inst)
    sem2, inst2 = blank()
    for cells, instance in (([0, 1, 2, 3, 4, 20, 21, 22, 23, 24], 1), ([9, 30, 31], 2)):
        sem2.ravel()[cells] = 1
        inst2.ravel()[cells] = instance
    pred = vol(sem2, inst2)
    for a, b in ((pred, gt), (gt, pred)):
        rep = prq(a, b, threshold=0.1)
        assert report_lines(rep) == report_lines(reference_prq(a, b, threshold=0.1))
        s = rep.per_category[1]
        assert (s.tp, s.fp, s.fn) == (1, 1, 1) and s.rsq == 0.2


def test_threshold_is_checked_without_segments():
    sem, inst = blank()
    empty = vol(sem, inst)
    for threshold in (5.0, 0.0, -0.25):
        with pytest.raises(MetricError, match="threshold"):
            prq(empty, empty, threshold)


# case -> (field, cell, value): one label of an otherwise valid volume that
# holds a stuff cell at (0, 0, 0) and thing instance 4 at (0, 0, 1).
MALFORMED = {
    "negative-semantic": ("semantics", (1, 1, 1), -1),
    "semantic-outside-table": ("semantics", (1, 1, 1), 4),
    "instance-on-stuff": ("instances", (0, 0, 0), 3),
    "negative-instance": ("instances", (0, 0, 1), -2),
    "negative-instance-on-void": ("instances", (1, 1, 1), -2),
    "instance-on-void": ("instances", (1, 1, 1), 7),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_prq_rejects_malformed_volumes(case):
    # prq cannot be given such a volume: its constructor rejects it.
    field, cell, value = MALFORMED[case]
    sem, inst = blank()
    sem[0, 0, 0], sem[0, 0, 1], inst[0, 0, 1] = 2, 1, 4
    vol(sem.copy(), inst.copy())  # valid but for the one label written below
    (sem if field == "semantics" else inst)[cell] = value
    with pytest.raises(VolumeError, match=f"^volume\\.{field}: "):
        vol(sem, inst)


# case -> (call, message): the checks that come before the per-cell rule
UNBUILDABLE = {
    "no-categories": (lambda: CategoryTable(()), "^category 0 must exist"),
    "category-0-a-thing": (lambda: CategoryTable((True, False)), "^category 0 must exist"),
    "frame-a-tuple": (lambda: PanopticVolume((4, 4, 4), *blank(), CATS),
                      r"^volume\.frame: unknown grid frame"),
    "semantics-off-the-frame": (lambda: PanopticVolume(FrustumGrid(4, 4, 2), *blank(), CATS),
                                r"^volume\.semantics: shape"),
    "instances-off-the-frame": (lambda: PanopticVolume(FRAME, blank()[0], blank()[1][:2], CATS),
                                r"^volume\.instances: shape"),
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_volume_rejects_a_bad_table_frame_or_shape(case):
    call, message = UNBUILDABLE[case]
    with pytest.raises(VolumeError, match=message):
        call()


# case -> (field, the labels of its first cells, their dtype): labels that a cast
# to int32 would change (1.7 -> 1, 2**32 + 5 -> 5, 2**31 -> -2**31)
UNCASTABLE = {
    "float-semantics": ("semantics", [1.7, 2.9], np.float64),
    "int64-id-2**32": ("instances", [2**32, 2**32 + 5], np.int64),
    "int64-id-2**31": ("instances", [2**31], np.int64),
}


def first_cells(field, values, dtype):
    """blank() with two thing cells, where `field` holds `values` in `dtype`."""
    labels = dict(zip(("semantics", "instances"), blank()))
    labels["semantics"].ravel()[:2] = 1
    labels[field] = labels[field].astype(dtype)
    labels[field].ravel()[:len(values)] = values
    return labels["semantics"], labels["instances"]


@pytest.mark.parametrize("case", sorted(UNCASTABLE))
def test_volume_rejects_labels_that_int32_does_not_hold(case):
    field, values, dtype = UNCASTABLE[case]
    with pytest.raises(VolumeError, match=f"^volume\\.{field}: ids must be integers that "
                                          f"fit int32, got {np.dtype(dtype)}$"):
        PanopticVolume(FRAME, *first_cells(field, values, dtype), CATS)


def test_volume_keeps_wider_and_narrower_ids_that_int32_holds():
    semantics, instances = first_cells("instances", [2**31 - 1, 1], np.int64)
    volume = PanopticVolume(FRAME, semantics.astype(np.uint8), instances, CATS)
    assert volume.instances.dtype == volume.semantics.dtype == np.int32
    assert volume.instances.ravel()[:3].tolist() == [2**31 - 1, 1, 0]


def reference_violation(semantics, instances, categories):
    """The field that the per-cell rule finds broken first, or None: semantic
    ids in the category table, then instance ids >= 0 and nonzero only on thing cells."""
    is_thing = categories.is_thing
    cells = list(zip(semantics.ravel().tolist(), instances.ravel().tolist()))
    if any(not 0 <= sem < len(is_thing) for sem, _inst in cells):
        return "semantics"
    if any(inst < 0 or (inst != 0 and not is_thing[sem]) for sem, inst in cells):
        return "instances"
    return None


rule_frames = st.one_of(
    st.builds(FrustumGrid, st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    st.builds(lambda dims: AxisGrid(dims, 0.1, (0.0, 0.0, 1.0)),
              st.tuples(*[st.integers(1, 5)] * 3)))


@settings(max_examples=300, deadline=None)
@given(frame=rule_frames, data=st.data())
def test_validate_is_the_per_cell_rule(frame, data):
    # a well-formed volume, then MALFORMED values written at random cells: at
    # some cells they break the rule, at others (a thing cell) they do not
    sem = data.draw(hnp.arrays(np.int32, frame.shape, elements=st.integers(0, 3)))
    inst = data.draw(hnp.arrays(np.int32, frame.shape, elements=st.integers(0, 6)))
    inst[~np.asarray(CATS.is_thing)[sem]] = 0
    for case in data.draw(st.lists(st.sampled_from(sorted(MALFORMED)), max_size=3)):
        field, _cell, value = MALFORMED[case]
        cell = data.draw(st.integers(0, sem.size - 1))
        (sem if field == "semantics" else inst).ravel()[cell] = value
    field = reference_violation(sem, inst, CATS)
    if field is not None:
        with pytest.raises(VolumeError, match=f"^v\\.{field}: "):
            PanopticVolume(frame, sem, inst, CATS, name="v")
        return
    # A valid volume reads the caller's arrays without a copy, through views
    # that cannot be written; the caller's arrays stay writable.
    volume = PanopticVolume(frame, sem, inst, CATS, name="v")
    assert volume.validate() is volume
    for array, given in ((volume.semantics, sem), (volume.instances, inst)):
        assert np.shares_memory(array, given) and given.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(VolumeError, match="^v\\.instances: "):
        dataclasses.replace(volume, instances=np.full(frame.shape, -1, np.int32))


def relabeled(volume, new_ids):
    """`volume` with its distinct instance ids, ascending, mapped to `new_ids`."""
    ids = np.unique(volume.instances[volume.instances > 0])
    instances = volume.instances.copy()
    thing = instances > 0
    instances[thing] = np.asarray(new_ids, np.int32)[np.searchsorted(ids, instances[thing])]
    return PanopticVolume(volume.frame, volume.semantics, instances, volume.categories)


@settings(max_examples=400, deadline=None)
@given(pair=volume_pairs(), side=st.sampled_from(["pred", "gt"]), data=st.data())
def test_prq_is_invariant_to_instance_relabeling(pair, side, data):
    pred, gt = pair
    volume = pred if side == "pred" else gt
    n = len(np.unique(volume.instances[volume.instances > 0]))
    new_ids = data.draw(st.lists(st.integers(1, 2**31 - 1), min_size=n, max_size=n,
                                 unique=True))
    pair = (relabeled(pred, new_ids), gt) if side == "pred" else (pred, relabeled(gt, new_ids))
    assert report_lines(prq(*pair)) == report_lines(prq(pred, gt))


def cell_sets(volume):
    """`extract_segments` of `volume` over every cell, and each segment as
    (category, set of its cells)."""
    segments, index = extract_segments(volume, np.arange(volume.semantics.size))
    return segments, [(s.category, set(np.flatnonzero(index == i).tolist()))
                      for i, s in enumerate(segments)]


@settings(max_examples=300, deadline=None)
@given(pair=volume_pairs(), threshold=st.sampled_from([0.5 + 2**-20, 0.6, 2 / 3, 1.0]))
def test_matching_above_half_is_unique(pair, threshold):
    # Above IoU 0.5 a segment overlaps at most one other segment that much
    # (Kirillov et al., arXiv 1801.00868): the candidate pairs already form a
    # matching, so it is the exhaustive optimum of criterion 2 (every matching
    # is a subset of it), and swapping pred and gt only swaps FP and FN.
    a, b = pair
    ab, ba = prq(a, b, threshold), prq(b, a, threshold)
    assert ab.categories == ba.categories
    for k in ab.categories:
        s, t = ab.per_category[k], ba.per_category[k]
        assert (s.tp, s.fp, s.fn) == (t.tp, t.fn, t.fp)
        assert all(abs(getattr(s, f) - getattr(t, f)) <= 1e-12 for f in ("prq", "rsq", "rrq"))
    preds, pred_cells = cell_sets(a)
    gts, gt_cells = cell_sets(b)
    overlap = np.array([[len(g & p) for _, p in pred_cells] for _, g in gt_cells],
                       dtype=np.int64).reshape(len(gts), len(preds))
    candidates = sorted(
        (gi, pi, len(g & p) / len(g | p))
        for gi, (g_cat, g) in enumerate(gt_cells) for pi, (p_cat, p) in enumerate(pred_cells)
        if g_cat == p_cat and len(g & p) / len(g | p) >= threshold)
    assert len({c[0] for c in candidates}) == len({c[1] for c in candidates}) == len(candidates)
    tp, _fp, _fn = match_segments(preds, gts, overlap, threshold)
    assert sorted(tp) == candidates


@pytest.mark.xfail(strict=True, reason="greedy matching at IoU 0.25 breaks equal-IoU ties "
                                       "by segment order, which follows instance ids")
def test_prq_relabeling_keeps_an_equal_iou_tie_chain():
    # gt 1 = cells {0, 1} ties with pred P = {0, 5} and Q = {1, 2} (IoU 1/3, sizes
    # equal); gt 2 = {2, 6, 7} overlaps only Q (IoU 1/4). Whichever of P, Q has
    # the lower id takes gt 1, so relabeling decides between 1 and 2 matches.
    frame = FrustumGrid(8, 1, 1)

    def volume(segments):
        sem, inst = np.zeros((1, 8, 1), np.int32), np.zeros((1, 8, 1), np.int32)
        for instance, cells in segments.items():
            sem[0, cells, 0], inst[0, cells, 0] = 1, instance
        return PanopticVolume(frame, sem, inst, CategoryTable((False, True)))

    gt = volume({1: [0, 1], 2: [2, 6, 7]})
    assert report_lines(prq(volume({1: [0, 5], 2: [1, 2]}), gt)) == \
        report_lines(prq(volume({2: [0, 5], 1: [1, 2]}), gt))
