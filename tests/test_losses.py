import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import panrec
from panrec.cli import main as cli_main
from panrec.lifting import lift_priors, lifted_occupancy
from panrec.losses import (
    EPS,
    LossError,
    LossReport,
    LossWeights,
    binary_cross_entropy,
    cross_entropy,
    loss_3d,
    loss_depth,
    loss_mp_occupancy,
    loss_panoptic2d,
    tsdf_from_occupancy,
)
from panrec.priors import derive_priors
from panrec.synth import NoiseSpec, perturb_priors
from conftest import reference_occupancy_aware_lift, rows_of, seeded_scenes, traced_peak


def test_cross_entropy_uniform_closed_form():
    for c in (2, 5, 11):
        pred = np.full((6, 6, c), 1.0 / c)
        target = np.zeros((6, 6, c))
        target[..., 1] = 1.0
        assert cross_entropy(pred, target) == pytest.approx(np.log(c), abs=1e-9)


def test_cross_entropy_perfect_prediction_near_zero():
    target = np.zeros((8, 8, 4))
    target[..., 2] = 1.0
    assert cross_entropy(target, target) < 1e-5


def test_cross_entropy_mask_and_errors():
    pred = np.full((4, 4, 3), 1.0 / 3)
    target = np.zeros((4, 4, 3))
    target[..., 0] = 1.0
    mask = np.zeros((4, 4), bool)
    assert cross_entropy(pred, target, mask) == 0.0
    mask[0, 0] = True
    assert cross_entropy(pred, target, mask) == pytest.approx(np.log(3))
    with pytest.raises(LossError):
        cross_entropy(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))


def test_bce_closed_forms():
    half = np.full((5, 5), 0.5)
    assert binary_cross_entropy(half, np.ones((5, 5))) == pytest.approx(np.log(2))
    assert binary_cross_entropy(half, np.zeros((5, 5))) == pytest.approx(np.log(2))
    ones = np.ones((5, 5))
    assert binary_cross_entropy(ones, ones) < 1e-5
    # clamping keeps the worst case finite
    assert binary_cross_entropy(np.zeros((2, 2)), np.ones((2, 2))) == pytest.approx(
        -np.log(EPS)
    )


def reference_binary_cross_entropy(pred, target):
    """The one-expression BCE that the in-place one replaced, kept as the oracle."""
    p = np.clip(np.asarray(pred, dtype=np.float64), EPS, 1.0 - EPS)
    target = np.asarray(target, dtype=np.float64)
    return float(np.mean(-target * np.log(p) - (1.0 - target) * np.log(1.0 - p)))


# probabilities at and past both clamp bounds, and anywhere in [0, 1]
EXTREMES = [0.0, 5e-324, EPS / 2, EPS, 1.0 - EPS, 1.0 - EPS / 2, np.nextafter(1.0, 0.0), 1.0]
PROBABILITIES = st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
       binary=st.booleans())
def test_bce_is_bit_identical_to_the_reference(data, shape, binary):
    pred = data.draw(hnp.arrays(np.float64, shape, elements=PROBABILITIES))
    targets = st.sampled_from([0.0, 1.0]) if binary else PROBABILITIES
    target = data.draw(hnp.arrays(np.float64, shape, elements=targets))
    expected = reference_binary_cross_entropy(pred, target)
    assert binary_cross_entropy(pred, target).hex() == expected.hex()
    assert binary_cross_entropy(pred.tolist(), target.tolist()).hex() == expected.hex()


def test_bce_stays_below_its_memory_bound():
    # at 64^3 the BCE holds the clamped prediction, one product and one temporary
    # at once: fewer than 3.1 float64 volumes, against 5 for the one-expression form
    rng = np.random.default_rng(3)
    pred, target = rng.random((64, 64, 64)), (rng.random((64, 64, 64)) < 0.3).astype(np.float64)
    assert traced_peak(binary_cross_entropy, pred, target) < 3.1 * pred.nbytes


def test_panoptic2d_closed_form():
    sem_gt = np.zeros((6, 6, 4))
    sem_gt[..., 2] = 1.0
    sem_pred = np.full((6, 6, 4), 0.25)
    hm_gt = np.zeros((6, 6))
    hm_pred = np.full((6, 6), 0.5)
    rep = loss_panoptic2d(sem_pred, sem_gt, hm_pred, hm_gt)
    assert rep.terms["semantic_ce"] == pytest.approx(np.log(4), abs=1e-9)
    assert rep.terms["center_mse"] == pytest.approx(0.25)
    assert rep.total == pytest.approx(np.log(4) + 0.25)


def test_panoptic2d_void_pixels_excluded():
    sem_gt = np.zeros((4, 4, 3))
    sem_gt[..., 0] = 1.0  # all void
    rep = loss_panoptic2d(np.full((4, 4, 3), 1 / 3), sem_gt,
                          np.zeros((4, 4)), np.zeros((4, 4)))
    assert rep.terms["semantic_ce"] == 0.0


def test_depth_loss_closed_form():
    gt = np.full((8, 8), 1.0)
    pred = np.full((8, 8), 2.0)
    # constant maps have zero gradient difference
    assert loss_depth(pred, gt) == pytest.approx(np.log(2))
    assert loss_depth(gt, gt) == 0.0


def test_depth_loss_gradient_term():
    gt = np.ones((1, 4))
    pred = np.array([[1.0, 2.0, 1.0, 1.0]])
    # log term: (ln2)/4; grads pred: [1,-1,0] vs gt zeros, mean |diff| = 2/3
    assert loss_depth(pred, gt) == pytest.approx(np.log(2) / 4 + 2.0 / 3.0)


def test_depth_loss_counts_pixels_where_both_maps_have_a_surface():
    gt = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    pred = np.array([[2.0, 0.0, 4.0], [1.0, 1.0, 1.0]])
    # valid: (0, 0) and the bottom row; log term (ln2)/4. Valid pairs: the
    # bottom row's two horizontal ones (no difference) and (0, 0)-(1, 0), whose
    # gradients differ by 1, so the gradient term is 1/3
    assert loss_depth(pred, gt) == pytest.approx(np.log(2) / 4 + 1.0 / 3.0)


def test_depth_loss_validation():
    # no pixel where both maps have a surface, so no loss
    assert loss_depth(np.zeros((2, 2)), np.ones((2, 2))) == 0.0
    with pytest.raises(LossError):
        loss_depth(np.ones((2, 2)), np.ones((3, 3)))


@pytest.mark.parametrize("name", ["pred", "gt"])
@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_depth_loss_rejects_depth_that_is_not_finite_and_nonnegative(name, value):
    maps = {"pred": np.ones((2, 2)), "gt": np.ones((2, 2))}
    maps[name][1, 0] = value
    with pytest.raises(LossError, match=f"^depth {name} must be finite and >= 0$"):
        loss_depth(**maps)


def test_mp_occupancy_alias():
    pred = np.full((4, 4, 8), 0.5)
    gt = np.zeros((4, 4, 8))
    assert loss_mp_occupancy(pred, gt) == pytest.approx(np.log(2))


# case -> (call, message): two inputs that must share a shape and do not
OCC, OFFSETS = np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2))
SHAPE_ERRORS = {
    "bce": (lambda: binary_cross_entropy(np.zeros(3), np.zeros(4)), "^shape mismatch"),
    "heatmap": (lambda: loss_panoptic2d(np.ones((2, 2, 3)), np.ones((2, 2, 3)), np.zeros((2, 2)),
                                        np.zeros((2, 3))), "^heatmap shapes differ"),
    "tsdf": (lambda: loss_3d(lambda cells: np.ones((len(cells), 2)), OFFSETS, OCC,
                             np.zeros((2, 2, 3)), np.zeros((2, 2, 2), np.int32), OFFSETS, OCC,
                             OCC, OCC > 0), "^tsdf shapes differ"),
}


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_losses_reject_inputs_of_different_shapes(case):
    call, message = SHAPE_ERRORS[case]
    with pytest.raises(LossError, match=message):
        call()


def brute_force_tsdf(occ, truncation):
    occ = np.asarray(occ, bool)
    pts = np.argwhere(occ)
    free = np.argwhere(~occ)
    out = np.empty(occ.shape)
    for idx in np.ndindex(occ.shape):
        if occ[idx]:
            d = np.sqrt(((free - idx) ** 2).sum(axis=1)).min()
            out[idx] = -d
        else:
            d = np.sqrt(((pts - idx) ** 2).sum(axis=1)).min()
            out[idx] = d
    return np.clip(out, -truncation, truncation)


def test_tsdf_special_cases():
    assert np.all(tsdf_from_occupancy(np.zeros((4, 4, 4))) == 3.0)
    assert np.all(tsdf_from_occupancy(np.ones((4, 4, 4))) == -3.0)
    with pytest.raises(LossError):
        tsdf_from_occupancy(np.zeros((2, 2, 2)), truncation=0.5)


def test_tsdf_single_voxel():
    occ = np.zeros((7, 7, 7), bool)
    occ[3, 3, 3] = True
    tsdf = tsdf_from_occupancy(occ, truncation=3.0)
    assert tsdf[3, 3, 3] == -1.0
    assert tsdf[3, 3, 4] == 1.0
    assert tsdf[3, 4, 4] == pytest.approx(np.sqrt(2))
    assert tsdf[0, 0, 0] == 3.0


def test_tsdf_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(10):
        occ = rng.random((8, 8, 8)) < 0.3
        if not occ.any() or occ.all():
            continue
        edt = tsdf_from_occupancy(occ, truncation=4.0)
        ref = brute_force_tsdf(occ, 4.0)
        # edt measures distance to nearest complement cell center; inside
        # distances differ from the boundary-face convention by <= 1 cell
        assert np.allclose(edt[~occ], ref[~occ])
        assert np.all(np.sign(edt) == np.sign(ref))
        assert np.max(np.abs(edt - ref)) <= 1.0 + 1e-12


def reference_tsdf(occupancy, truncation=3.0):
    """The scipy EDT version that the band-limited transform replaced, kept as
    the oracle: two full Euclidean distance transforms, then a clip to +-t."""
    occ = np.asarray(occupancy, dtype=bool)
    if not occ.any():
        return np.full(occ.shape, truncation, dtype=np.float64)
    if occ.all():
        return np.full(occ.shape, -truncation, dtype=np.float64)
    outside = ndimage.distance_transform_edt(~occ)
    inside = ndimage.distance_transform_edt(occ)
    return np.clip(np.where(occ, -inside, outside), -truncation, truncation)


# Integer and non-integer bands, one wider than any 12^3 diagonal (19.05), and
# no truncation at all.
TRUNCATIONS = st.one_of(st.integers(1, 5).map(float), st.floats(1, 5), st.just(20.0),
                        st.just(np.inf))


@settings(max_examples=300, deadline=None)
@given(occ=hnp.arrays(bool, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=12)),
       truncation=TRUNCATIONS)
def test_tsdf_matches_reference_on_random_volumes(occ, truncation):
    ours = tsdf_from_occupancy(occ, truncation)
    assert ours.dtype == np.float64
    assert ours.tobytes() == reference_tsdf(occ, truncation).tobytes()


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 5), (12, 12, 12)])
@pytest.mark.parametrize("truncation", [1.0, 2.5, 20.0, np.inf])
def test_tsdf_matches_reference_on_empty_and_full(shape, truncation):
    for occ in (np.zeros(shape, bool), np.ones(shape, bool)):
        assert tsdf_from_occupancy(occ, truncation).tobytes() == \
            reference_tsdf(occ, truncation).tobytes()


def test_tsdf_matches_reference_on_scene_occupancy():
    rng = np.random.default_rng(2)
    for scene in seeded_scenes(3):
        occ = scene.volume.occupancy
        for volume in (occ, occ ^ (rng.random(occ.shape) < 0.05)):
            for truncation in (3.0, 1.0, 4.5):
                assert tsdf_from_occupancy(volume, truncation).tobytes() == \
                    reference_tsdf(volume, truncation).tobytes()


def test_tsdf_rejects_nan_truncation():
    with pytest.raises(LossError, match="truncation"):
        tsdf_from_occupancy(np.zeros((2, 2, 2), bool), float("nan"))


def test_tsdf_from_scene_signs(small_scene):
    tsdf = tsdf_from_occupancy(small_scene.volume.occupancy)
    occ = small_scene.volume.occupancy
    assert np.all(tsdf[occ] < 0)
    assert np.all(tsdf[~occ] > 0)
    assert np.max(np.abs(tsdf)) <= 3.0


def zero_loss_inputs(scene):
    priors = derive_priors(scene)
    occ = scene.volume.occupancy.astype(np.float64)
    c = len(scene.categories)
    sem = np.zeros(scene.frame.shape + (c,))
    idx = scene.volume.semantics
    np.put_along_axis(sem, idx[..., None], 1.0, axis=-1)
    tsdf = tsdf_from_occupancy(scene.volume.occupancy)
    thing = scene.volume.thing_mask()
    return sem, priors.offsets3d, occ, tsdf, thing


def test_loss3d_ground_truth_near_zero(small_scene):
    sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    sem = rows_of(sem)
    rep = loss_3d(sem, offs, occ, tsdf, small_scene.volume.semantics, offs, occ, tsdf, thing)
    assert rep.total < 1e-5


def test_loss3d_term_isolation(small_scene):
    sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    sem = rows_of(sem)
    base = loss_3d(sem, offs, occ, tsdf, small_scene.volume.semantics, offs, occ, tsdf, thing)
    shifted = loss_3d(sem, offs + 1.0, occ, tsdf, small_scene.volume.semantics, offs, occ, tsdf,
                      thing)
    # offsets have 2 channels, so +1 on each adds 2 per thing cell
    assert shifted.terms["offset_l1"] == pytest.approx(2.0)
    for name in ("occupancy_bce", "tsdf_l1", "semantic_ce"):
        assert shifted.terms[name] == pytest.approx(base.terms[name])


def test_loss3d_weight_linearity(small_scene):
    sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    sem = rows_of(sem)
    pred_occ = np.clip(occ, 0.3, 0.7)
    one = loss_3d(sem, offs, pred_occ, tsdf, small_scene.volume.semantics, offs, occ, tsdf,
                  thing)
    two = loss_3d(sem, offs, pred_occ, tsdf, small_scene.volume.semantics, offs, occ, tsdf,
                  thing, weights=LossWeights(occupancy3d=2.0))
    gain = two.total - one.total
    expected = one.terms["occupancy_bce"] + one.terms["tsdf_l1"]
    assert gain == pytest.approx(expected)


def test_loss3d_tsdf_band(small_scene):
    sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    sem = rows_of(sem)
    pred_tsdf = tsdf.copy()
    saturated = np.abs(tsdf) >= 3.0
    pred_tsdf[saturated] = 3.0  # flipping far cells must not change the loss
    rep = loss_3d(sem, offs, occ, pred_tsdf, small_scene.volume.semantics, offs, occ, tsdf,
                  thing)
    assert rep.terms["tsdf_l1"] == 0.0


def test_loss3d_semantic_term_equals_one_hot_cross_entropy(small_scene):
    priors = perturb_priors(derive_priors(small_scene), NoiseSpec(depth_sigma=0.05,
                            semantic_flip=0.1, occupancy_flip=0.05), 3, small_scene.planes)
    args = (small_scene.frame, small_scene.intrinsics, small_scene.planes)
    lifted = reference_occupancy_aware_lift(priors.semantics, priors.mp_occupancy,
                                            priors.depth, *args)
    occupied, rows, _labels = lift_priors(priors, *args)
    occ_pred = lifted_occupancy(occupied, small_scene.frame)
    _sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    labels = small_scene.volume.semantics
    one_hot = np.eye(len(small_scene.categories))[labels]
    expected = cross_entropy(lifted.features, one_hot, mask=occ > 0.5)
    for sem_pred in (rows_of(lifted.features), rows):
        rep = loss_3d(sem_pred, offs, occ_pred, tsdf, labels, offs, occ, tsdf, thing)
        assert rep.terms["semantic_ce"] == expected > 0.1


@pytest.mark.parametrize("bad", ["one-hot", "float", "shape", "negative", "too-large"])
def test_loss3d_rejects_bad_sem_gt(small_scene, bad):
    sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    labels = small_scene.volume.semantics.copy()
    cell = np.flatnonzero(occ)[17]
    sem_gt = {"one-hot": sem, "float": labels.astype(np.float64), "shape": labels[:-1],
              "negative": labels, "too-large": labels}[bad]
    labels.reshape(-1)[cell] = {"negative": -1, "too-large": sem.shape[-1]}.get(bad, 0)
    with pytest.raises(LossError, match="sem_gt"):
        loss_3d(rows_of(sem), offs, occ, tsdf, sem_gt, offs, occ, tsdf, thing)


@pytest.mark.parametrize("shape", ["channels-only", "one-channel", "other-grid"])
@pytest.mark.parametrize("field", ["offsets_pred", "offsets_gt"])
def test_loss3d_rejects_offsets_of_the_wrong_shape(small_scene, field, shape):
    sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    bad = {"channels-only": np.zeros(2), "one-channel": offs[..., :1],
           "other-grid": offs[:, :-1]}[shape]
    pred, gt = (bad, offs) if field == "offsets_pred" else (offs, bad)
    with pytest.raises(LossError, match=f"^{field} shape"):
        loss_3d(rows_of(sem), pred, occ, tsdf, small_scene.volume.semantics, gt, occ, tsdf,
                thing)


# Each weight and the report terms it scales.
WEIGHTED_TERMS = {
    "semantic2d": {"p2d_semantic_ce"},
    "center2d": {"p2d_center_mse"},
    "occupancy3d": {"l3d_occupancy_bce", "l3d_tsdf_l1"},
    "semantic3d": {"l3d_semantic_ce"},
    "offset3d": {"l3d_offset_l1"},
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(LossWeights)])
def test_each_weight_scales_exactly_its_own_terms(small_scene, field):
    sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    labels = small_scene.volume.semantics
    sem_pred = rows_of(np.clip(sem, 0.2, 0.8))
    occ_pred = np.clip(occ, 0.3, 0.7)
    priors = derive_priors(small_scene)

    def reports(weights):
        report2d = loss_panoptic2d(np.clip(priors.semantics, 0.2, 0.8), priors.semantics,
                                   0.5 * priors.heatmap, priors.heatmap, weights)
        report3d = loss_3d(sem_pred, offs + 1.0, occ_pred, -tsdf, labels, offs, occ, tsdf,
                           thing, weights=weights)
        return {"p2d": report2d, "l3d": report3d}

    base, scaled = reports(LossWeights()), reports(LossWeights(**{field: 3.0}))
    for prefix, rep in scaled.items():
        own = [name for name in rep.terms if f"{prefix}_{name}" in WEIGHTED_TERMS[field]]
        assert rep.weights == {name: 3.0 if name in own else 1.0 for name in rep.terms}
        assert rep.terms == base[prefix].terms
        gain = 2.0 * sum(rep.terms[name] for name in own)
        assert rep.total == pytest.approx(base[prefix].total + gain)
        assert all(rep.terms[name] > 0 for name in own)
    assert set(WEIGHTED_TERMS) == {f.name for f in dataclasses.fields(LossWeights)}


def test_loss3d_checks_labels_only_at_occupied_cells(small_scene):
    sem, offs, occ, tsdf, thing = zero_loss_inputs(small_scene)
    sem = rows_of(sem)
    labels = small_scene.volume.semantics.copy()
    base = loss_3d(sem, offs, occ, tsdf, labels, offs, occ, tsdf, thing)
    labels[occ == 0] = -1
    rep = loss_3d(sem, offs, occ, tsdf, labels, offs, occ, tsdf, thing)
    assert rep.terms == base.terms


def test_import_does_not_load_scipy():
    package_root = str(Path(panrec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    code = "import sys, panrec, panrec.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(LossWeights)])
def test_weights_must_be_finite(field, value):
    # unchecked, a NaN or infinite weight would make the weighted total NaN
    with pytest.raises(LossError, match=f"^weight {field} must be finite and nonnegative$"):
        LossWeights(**{field: value})


def test_weights_validation_and_report():
    with pytest.raises(LossError):
        LossWeights(semantic2d=-0.1)
    rep = LossReport.build({"a": 2.0, "b": 3.0}, {"a": 1.0, "b": 0.5})
    assert rep.total == pytest.approx(3.5)


# sha256 of `panrec loss --record` output, pinned from the scipy-EDT TSDF and
# the one-hot semantic term. `losses.txt` is part of the output contract: any
# rewrite of the TSDF or of `loss_3d` must reproduce these bytes exactly.
GOLDEN_LOSS_RECORDS = {
    "clean": ((), "bf8fb7916ce1a91c4f5778e7a718d9cd1040142e09b862e5e8e1c86285b9abb6"),
    "occupancy-flip": (("--noise-seed", "3", "--occupancy-flip", "0.05"),
                       "9f12dbc7080d3a527d7512233cf055d53f553f2ea81e04f55844fb4105339fe8"),
    "depth-semantic-centers": (("--noise-seed", "4", "--depth-sigma", "0.05",
                                "--semantic-flip", "0.1", "--center-jitter", "2"),
                               "129dbdab720d53e66c8dc48bfc41efa86d1f67da83553f2914564492f439f819"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LOSS_RECORDS))
def test_loss_record_matches_golden_hash(name, tmp_path):
    noise, digest = GOLDEN_LOSS_RECORDS[name]
    scene, priors, record = tmp_path / "scene", tmp_path / "priors", tmp_path / "losses.txt"
    for args in (["synth", "--seed", "6", "--out", str(scene), "--width", "40",
                  "--height", "32", "--planes", "36", "--things", "3"],
                 ["derive-priors", str(scene), "--out", str(priors), *noise],
                 ["loss", str(scene), str(priors), "--record", str(record)]):
        result = CliRunner().invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    assert hashlib.sha256(record.read_bytes()).hexdigest() == digest
