import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panrec import lifting
from panrec.geometry import CameraIntrinsics, DepthPlanes, FrustumGrid, plane_index, round_half_up
from panrec.lifting import lift_priors, occupancy_aware_lift
from panrec.pipeline import reconstruct_from_priors
from panrec.priors import (
    HEATMAP_SIGMA,
    MAX_CENTERS,
    InstanceCenter,
    Priors2D,
    PriorsError,
    SceneGT,
    ThingOffsets,
    checked_offsets,
    derive_instance_map2d,
    derive_priors,
    encode_center_heatmap,
    extract_centers,
)
from panrec.synth import NoiseSpec, SynthConfig, SynthError, generate_scene, perturb_priors
from panrec.volume import CategoryTable, PanopticVolume
from conftest import CROWDED_NOISE, GOLDEN_AXES, seeded_scenes, traced_peak

CATS = CategoryTable((False, False, False, True, True))


def make_scene(*labels, w=8, h=8, m=8):
    """A void scene, but for each (cells, category, instance) of `labels`,
    written into the arrays before the volume is built."""
    frame = FrustumGrid(w, h, m)
    intr = CameraIntrinsics(fx=float(w), fy=float(w), cx=(w - 1) / 2,
                            cy=(h - 1) / 2, width=w, height=h)
    sem, inst = np.zeros(frame.shape, np.int32), np.zeros(frame.shape, np.int32)
    for cells, category, instance in labels:
        sem[cells], inst[cells] = category, instance
    return SceneGT(volume=PanopticVolume(frame, sem, inst, CATS), intrinsics=intr,
                   planes=DepthPlanes(count=m))


def test_derive_depth_empty_scene():
    assert np.all(derive_priors(make_scene()).depth == 0)


def test_derive_depth_single_cell():
    scene = make_scene(((4, 2, 5), 3, 1))
    depth = derive_priors(scene).depth
    assert depth[4, 2] == scene.planes.center(5)
    assert np.count_nonzero(depth) == 1


def test_derive_depth_matches_ray_march_oracle():
    for scene in seeded_scenes(20, width=16, height=16, planes=16, n_things=2,
                               min_center_separation=5.0):
        depth = derive_priors(scene).depth
        sem = scene.volume.semantics
        for v in range(16):
            for u in range(16):
                expected = 0.0
                for m in range(16):
                    if sem[v, u, m] != 0:
                        expected = scene.planes.center(m)
                        break
                assert depth[v, u] == expected


def test_derive_semantics2d_empty_is_void():
    sem = derive_priors(make_scene()).semantics
    assert np.all(np.argmax(sem, axis=-1) == 0)
    assert np.all(sem.sum(axis=-1) == 1)


def test_derive_semantics2d_full_plane():
    scene = make_scene((np.s_[:, :, 5], 3, 1))
    sem = derive_priors(scene).semantics
    assert np.all(np.argmax(sem, axis=-1) == 3)


def test_semantics_consistent_with_depth(small_scene):
    priors = derive_priors(small_scene)
    sem2d, depth = priors.semantics, priors.depth
    for v in range(small_scene.frame.height):
        for u in range(small_scene.frame.width):
            if depth[v, u] > 0:
                m = plane_index(depth[v, u], small_scene.planes)
                assert np.argmax(sem2d[v, u]) == small_scene.volume.semantics[v, u, m]
            else:
                assert np.argmax(sem2d[v, u]) == 0


def test_derive_centers_arithmetic_mean():
    scene = make_scene(*(((2, u, 3), 3, 1) for u in (2, 4)))
    (center,) = derive_priors(scene).centers
    assert (center.u, center.v) == (3, 2)
    assert center.category == 3


def test_derive_centers_single_cell():
    scene = make_scene(((5, 6, 2), 4, 9))
    (center,) = derive_priors(scene).centers
    assert (center.u, center.v, center.instance_id) == (6, 5, 9)


def test_derive_centers_matches_brute_force(small_scene):
    centers = derive_priors(small_scene).centers
    inst = small_scene.volume.instances
    for c in centers:
        vs, us, _ = np.nonzero(inst == c.instance_id)
        assert c.u == int(np.floor(us.mean() + 0.5))
        assert c.v == int(np.floor(vs.mean() + 0.5))


def test_heatmap_trivials():
    assert np.all(encode_center_heatmap([], 8, 8) == 0)
    hm = encode_center_heatmap([InstanceCenter(3, 4, 3, 1)], 16, 16)
    assert hm[4, 3] == 1.0
    assert hm[4, 5] == pytest.approx(np.exp(-0.5 * (2.0 / HEATMAP_SIGMA) ** 2))


def test_heatmap_max_combination():
    centers = [InstanceCenter(2, 2, 3, 1), InstanceCenter(3, 2, 3, 2)]
    hm = encode_center_heatmap(centers, 8, 8)
    assert hm.max() == 1.0
    assert np.all(hm <= 1.0)


def test_extract_centers_round_trip():
    centers = [InstanceCenter(5, 5, 3, 1), InstanceCenter(25, 20, 4, 2)]
    sem = np.zeros((32, 32, 5))
    sem[..., 0] = 1.0
    sem[5, 5] = [0, 0, 0, 1, 0]
    sem[20, 25] = [0, 0, 0, 0, 1]
    hm = encode_center_heatmap(centers, 32, 32)
    found = extract_centers(hm, sem)
    assert {(c.u, c.v, c.category) for c in found} == {(5, 5, 3), (25, 20, 4)}


def test_extract_centers_empty():
    assert extract_centers(np.zeros((8, 8)), np.zeros((8, 8, 3))) == []


def test_extract_centers_tie_break():
    hm = np.zeros((8, 8))
    hm[3, 3] = hm[3, 4] = 0.9
    sem = np.zeros((8, 8, 4))
    sem[..., 3] = 1.0
    found = extract_centers(hm, sem)
    assert len(found) == 1
    assert (found[0].v, found[0].u) == (3, 3)


def test_extract_centers_validation():
    with pytest.raises(PriorsError):
        extract_centers(np.zeros((4, 4)), np.zeros((4, 4, 2)), threshold=0.0)


@pytest.mark.parametrize("heatmap, semantics, field", [
    (np.zeros((4, 4)), np.zeros((4, 5, 2)), "semantics"),
    (np.zeros((4, 4)), np.zeros((4, 4)), "semantics"),
    (np.zeros((4, 4)), np.zeros((4, 4, 0)), "semantics"),
    (np.zeros(4), np.zeros((4, 4, 2)), "heatmap"),
    (np.full((4, 4), np.inf), np.zeros((4, 4, 2)), "heatmap"),
    (np.full((4, 4), np.nan), np.zeros((4, 4, 2)), "heatmap"),
    # unchecked, a NaN score at the peak would make its channel the center's category
    (np.pad([[0.9]], ((3, 0), (4, 0))), np.pad([[[0, 0, np.nan]]], ((3, 0), (4, 0), (0, 0))),
     "^semantics must be finite"),
    (np.zeros((4, 4)), np.full((4, 4, 2), np.inf), "^semantics must be finite"),
    (np.zeros((4, 4)), np.full((4, 4, 2), -0.5), "^semantics must be finite"),
    # outside [0, 1], as `Priors2D.validate` rejects it, not a map with a center
    (np.pad([[5.0, -2.0]], ((3, 3), (3, 3))), np.ones((8, 8, 2)), "^heatmap must be finite"),
])
def test_extract_centers_rejects_malformed_inputs(heatmap, semantics, field):
    with pytest.raises(PriorsError, match=field):
        extract_centers(heatmap, semantics)


def reference_extract_centers(heatmap, semantics, threshold=0.1, max_n=MAX_CENTERS):
    """The per-candidate 3 x 3 window loop that the shifted comparisons
    replaced, keeping the top `max_n` peaks."""
    heatmap = np.asarray(heatmap, dtype=np.float64)
    h, w = heatmap.shape
    padded = np.pad(heatmap, 1, mode="constant", constant_values=-1.0)
    peaks = []
    cand_v, cand_u = np.nonzero(heatmap >= threshold)
    for v, u in zip(cand_v.tolist(), cand_u.tolist()):
        window = padded[v : v + 3, u : u + 3]
        val = heatmap[v, u]
        if np.any(window > val):
            continue
        tie = False
        tv, tu = np.nonzero(window == val)
        for dv, du in zip(tv.tolist(), tu.tolist()):
            ov, ou = v + dv - 1, u + du - 1
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


LEVELS = (0.0, 0.05, 0.1, 0.3, 0.5, 0.5, 0.9, 1.0)


@st.composite
def plateau_heatmaps(draw):
    """Heatmaps of a few repeated levels with equal-valued rectangles planted
    anywhere, borders included, plus a semantics map with tied channels."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    heatmap = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.sampled_from(LEVELS), st.floats(0.0, 1.0))))
    for _ in range(draw(st.integers(0, 4))):
        v0, u0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        v1, u1 = draw(st.integers(v0 + 1, h)), draw(st.integers(u0 + 1, w))
        heatmap[v0:v1, u0:u1] = draw(st.sampled_from(LEVELS))
    c = draw(st.integers(1, 4))
    semantics = draw(hnp.arrays(np.float64, (h, w, c), elements=st.sampled_from((0.0, 0.5, 1.0))))
    return heatmap, semantics


@settings(max_examples=400, deadline=None)
@given(plateau_heatmaps(), st.sampled_from((0.05, 0.1, 0.3, 0.5, 0.9)) | st.floats(0.01, 0.99))
def test_extract_centers_matches_reference_loop(maps, threshold):
    heatmap, semantics = maps
    assert extract_centers(heatmap, semantics, threshold) == \
        reference_extract_centers(heatmap, semantics, threshold)


def test_extract_centers_keeps_the_top_max_centers():
    rng = np.random.default_rng(0)
    for _ in range(4):
        # a few repeated levels, so that equal-valued peaks straddle the cut
        heatmap = rng.choice(LEVELS, size=(40, 40))
        semantics = rng.choice((0.0, 0.5, 1.0), size=(40, 40, 3))
        uncapped = reference_extract_centers(heatmap, semantics, max_n=None)
        assert len(uncapped) > MAX_CENTERS
        assert extract_centers(heatmap, semantics) == reference_extract_centers(heatmap, semantics)


def test_multiplane_occupancy_trivials():
    assert np.all(derive_priors(make_scene()).mp_occupancy == 0)
    assert np.all(derive_priors(make_scene((np.s_[:], 1, 0))).mp_occupancy == 1)


def test_multiplane_occupancy_counting(small_scene):
    occ = derive_priors(small_scene).mp_occupancy
    assert occ.dtype == bool and np.array_equal(occ, small_scene.volume.occupancy)
    assert occ.sum() == np.count_nonzero(small_scene.volume.semantics)


def test_derive_priors_stays_below_its_memory_bound():
    # at 64^3 (the scene of the perturb bound) the priors hold the scene's bool
    # occupancy, an eighth of a float64 volume of the grid, offset rows at the
    # thing cells only, and little else: below one float64 volume of the grid
    scene = generate_scene(SynthConfig(seed=11, width=64, height=64, planes=64, n_things=3,
                                       min_center_separation=8.0))
    peak = traced_peak(derive_priors, scene)
    assert peak < 8 * scene.volume.semantics.size, peak / (8 * scene.volume.semantics.size)


def test_offsets_trivials():
    scene = make_scene(((3, 3, 2), 3, 1))
    offs = derive_priors(scene).offsets3d.dense()
    assert tuple(offs[3, 3, 2]) == (0.0, 0.0)
    # two cells of one instance: the center is their midpoint (3, 3)
    offs = derive_priors(make_scene(*(((3, u, 2), 3, 1) for u in (2, 4)))).offsets3d.dense()
    assert tuple(offs[3, 2, 2]) == (1.0, 0.0) and tuple(offs[3, 4, 2]) == (-1.0, 0.0)


def test_offsets_point_at_centers(small_scene):
    priors = derive_priors(small_scene)
    centers, offs = priors.centers, priors.offsets3d.dense()
    by_id = {c.instance_id: c for c in centers}
    inst = small_scene.volume.instances
    vs, us, ms = np.nonzero(inst > 0)
    for v, u, m in zip(vs, us, ms):
        c = by_id[int(inst[v, u, m])]
        assert u + offs[v, u, m, 0] == c.u
        assert v + offs[v, u, m, 1] == c.v
    # zero on non-thing cells
    assert np.all(offs[inst == 0] == 0)


def dense_offset_scatter(scene):
    """The dense (H, W, M, 2) offsets that `derive_priors` scattered before it
    kept thing-cell rows: at each thing cell, its instance's mean pixel
    position rounded half up, minus the cell's pixel; zero elsewhere."""
    inst = scene.volume.instances
    dense = np.zeros(inst.shape + (2,))
    vs, us, _ms = np.indices(inst.shape)
    for i in np.unique(inst[inst > 0]):
        at = inst == i
        dense[at] = np.column_stack((round_half_up(us[at].mean()) - us[at],
                                     round_half_up(vs[at].mean()) - vs[at]))
    return dense


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), size=st.integers(6, 16),
       n_things=st.one_of(st.integers(1, 4), st.just(0)), data=st.data())
def test_thing_offsets_read_the_dense_scatter_bit_for_bit(seed, size, n_things, data):
    # listed cells, unlisted cells, in any order and repeated, or none at all
    try:
        scene = generate_scene(SynthConfig(seed=seed, width=size, height=size, planes=size,
                                           n_things=n_things, min_center_separation=0.0))
    except SynthError:
        reject()
    offsets = derive_priors(scene).offsets3d
    want = dense_offset_scatter(scene)
    assert np.array_equal(offsets.cells, np.flatnonzero(scene.volume.instances > 0))
    listed = st.sampled_from(offsets.cells) if offsets.cells.size else st.nothing()
    cells = np.asarray(data.draw(st.lists(st.one_of(listed, st.integers(0, want.size // 2 - 1)),
                                          max_size=64)), dtype=np.intp)
    for at in (cells, offsets.cells, np.zeros(0, np.intp)):
        rows = offsets(at)
        assert rows.dtype == np.float64 and rows.shape == (at.size, 2)
        assert rows.tobytes() == want.reshape(-1, 2)[at].tobytes()
    dense = offsets.dense()
    assert dense.shape == want.shape and dense.tobytes() == want.tobytes()


def test_thing_offsets_of_a_scene_without_things():
    scene = make_scene(((np.s_[:], np.s_[:], 5), 1, 0))  # stuff only
    offsets = derive_priors(scene).offsets3d
    assert offsets.cells.size == 0 and offsets.rows.shape == (0, 2)
    every = np.arange(scene.volume.semantics.size)
    assert offsets(every).tobytes() == np.zeros((every.size, 2)).tobytes()
    assert not offsets.dense().any()


# every kind of offset value, -0.0 and the non-finite ones included
OFFSET_VALUES = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]) | st.floats(-1e3, 1e3)


@settings(max_examples=100, deadline=None)
@given(array=hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=5).map(
    lambda shape: shape + (2,)), elements=OFFSET_VALUES), data=st.data())
def test_thing_offsets_of_an_array_read_its_rows(array, data):
    offsets = ThingOffsets.of(array)
    rows = array.reshape(-1, 2)
    drawn = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=32))
    for at in (np.asarray(drawn, dtype=np.intp), np.arange(len(rows))):
        # NaN in the same places; a -0.0 reads as 0.0, which equals it
        np.testing.assert_array_equal(offsets(at), rows[at])
    kept = ~((array == 0) & np.signbit(array))
    dense = offsets.dense()
    assert dense.shape == array.shape and dense[kept].tobytes() == array[kept].tobytes()
    grid = array.shape[:-1]
    assert checked_offsets("offsets", offsets, grid) is offsets
    with pytest.raises(PriorsError, match=rf"^offsets shape {re.escape(str(array.shape))} is not"):
        checked_offsets("offsets", offsets, grid + (1,))
    # a single channel, of an odd cell count too, is rejected by its shape
    with pytest.raises(PriorsError, match=r"^offsets shape \(.*, 1\) is not"):
        checked_offsets("offsets", ThingOffsets.of(array[..., :1]), grid)
    with pytest.raises(PriorsError, match="^offsets must map flat cells"):
        checked_offsets("offsets", array, grid)


def test_instance_map2d_categories_match_per_id_scan():
    for scene in seeded_scenes(6, n_things=5, min_center_separation=4.0,
                               occlusion_allowed=True):
        inst = derive_instance_map2d(scene)
        m_first = np.argmax(scene.volume.occupancy, axis=2)
        ids = np.take_along_axis(scene.volume.instances, m_first[..., None], axis=2)[..., 0]
        expected = np.zeros(ids.shape + (2,), np.int32)
        for inst_id in np.unique(ids[ids > 0]):
            vs, us = np.nonzero(ids == inst_id)
            cat = scene.volume.semantics[vs[0], us[0], m_first[vs[0], us[0]]]
            expected[vs, us] = (cat, inst_id)
        assert inst.dtype == np.int32 and np.array_equal(inst, expected)


def test_depth_occupancy_equivalence(small_scene):
    priors = derive_priors(small_scene)
    depth, occ = priors.depth, priors.mp_occupancy
    assert np.array_equal(depth > 0, occ.any(axis=2))
    # no occupancy strictly in front of the depth surface
    z = small_scene.planes.centers()
    front = (depth[..., None] > 0) & (z[None, None, :] < depth[..., None])
    assert np.all(occ[front] == 0)


def test_non_frustum_frame_rejected(small_scene):
    from panrec.geometry import AxisGrid

    bad = SceneGT(
        volume=PanopticVolume(
            frame=AxisGrid(dims=(4, 4, 4), voxel_size=0.1, origin=(0, 0, 1)),
            semantics=np.zeros((4, 4, 4), np.int32),
            instances=np.zeros((4, 4, 4), np.int32),
            categories=CATS,
        ),
        intrinsics=small_scene.intrinsics,
        planes=small_scene.planes,
    )
    with pytest.raises(PriorsError, match="frustum"):
        derive_priors(bad)
    with pytest.raises(PriorsError, match="frustum"):
        derive_instance_map2d(bad)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), width=st.integers(6, 24), height=st.integers(6, 24),
       planes=st.integers(3, 24), n_things=st.integers(0, 4), n_stuff=st.integers(0, 2),
       n_thing_categories=st.integers(1, 4), separation=st.floats(0.0, 8.0),
       occlusion=st.booleans(),
       noise=st.one_of(st.none(), st.just(CROWDED_NOISE), st.builds(
           NoiseSpec, depth_sigma=st.floats(0.0, 1.0), semantic_flip=st.floats(0.0, 1.0),
           occupancy_flip=st.floats(0.0, 1.0), center_jitter=st.integers(0, 4))),
       extracted=st.booleans(), k=st.integers(-64, 64))
def test_validate_accepts_derived_perturbed_and_scaled_bundles(
        seed, width, height, planes, n_things, n_stuff, n_thing_categories, separation,
        occlusion, noise, extracted, k):
    try:
        scene = generate_scene(SynthConfig(
            seed=seed, width=width, height=height, planes=planes, n_things=n_things,
            n_stuff=n_stuff, n_thing_categories=n_thing_categories,
            min_center_separation=separation, occlusion_allowed=occlusion))
    except SynthError:
        reject()
    frames = [scene.frame, *GOLDEN_AXES.values()]
    priors = derive_priors(scene)
    bundles = [priors]
    if noise is not None:
        bundles.append(perturb_priors(priors, noise, seed, scene.planes))
    if extracted:
        bundles.append(dataclasses.replace(
            bundles[-1], centers=extract_centers(bundles[-1].heatmap, bundles[-1].semantics)))
    bundles.append(dataclasses.replace(bundles[-1], semantics=bundles[-1].semantics * 2.0**k))
    for bundle in bundles:
        for frame in frames:
            assert bundle.validate(frame, scene.intrinsics, scene.planes) is bundle


# Values written into a 2 x 2 pixel patch of a prior field.
BAD_VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "negative": -0.25,
              "above-1": 1.5}
CORRUPTIONS = (
    [(f, k) for f in ("semantics", "depth", "mp_occupancy", "heatmap")
     for k in ("nan", "+inf", "-inf", "negative", "shape")]
    + [("mp_occupancy", "above-1"), ("mp_occupancy", "times-3"), ("heatmap", "above-1"),
       ("centers", "id-0"), ("centers", "duplicate-id")]
)


def corrupt(priors: Priors2D, field: str, kind: str) -> Priors2D:
    """A copy of `priors` with one field corrupted as `kind` says."""
    if field == "centers":
        centers = list(priors.centers)
        bad_id = 0 if kind == "id-0" else centers[0].instance_id
        centers[-1] = dataclasses.replace(centers[-1], instance_id=bad_id)
        return dataclasses.replace(priors, centers=centers)
    array = np.array(getattr(priors, field), dtype=np.float64)
    if kind == "shape":
        array = array[:, 1:]
    elif kind == "times-3":
        array = 3.0 * array
    else:
        array[2:4, 3:5] = BAD_VALUES[kind]
    return dataclasses.replace(priors, **{field: array})


@pytest.mark.parametrize("field, kind", CORRUPTIONS)
def test_every_entry_rejects_a_corrupt_bundle_before_building_a_volume(
        field, kind, monkeypatch):
    scene = seeded_scenes(1, width=16, height=16, planes=16)[0]
    priors = derive_priors(scene)
    assert len(priors.centers) >= 2 and priors.mp_occupancy.max() == 1.0
    bad = corrupt(priors, field, kind)
    args = (scene.frame, scene.intrinsics, scene.planes)
    built = []
    surface = lifting.surface_planes
    monkeypatch.setattr(lifting, "surface_planes",
                        lambda *a: built.append(1) or surface(*a))
    for call in (lambda: bad.validate(*args),
                 lambda: lift_priors(bad, *args),
                 lambda: occupancy_aware_lift(bad, *args),
                 lambda: reconstruct_from_priors(bad, *args, scene.categories)):
        with pytest.raises(PriorsError, match=f"^{field}"):
            call()
    assert built == []
    occupancy_aware_lift(priors, *args)
    assert built == [1]


def test_each_entry_validates_a_bundle_once(monkeypatch):
    scene = seeded_scenes(1, width=16, height=16, planes=16)[0]
    priors = derive_priors(scene)
    args = (scene.frame, scene.intrinsics, scene.planes)
    calls = []
    validate = Priors2D.validate
    monkeypatch.setattr(Priors2D, "validate",
                        lambda self, *a: calls.append(self) or validate(self, *a))
    for entry in (lambda: lift_priors(priors, *args),
                  lambda: occupancy_aware_lift(priors, *args),
                  lambda: reconstruct_from_priors(priors, *args, scene.categories)):
        calls.clear()
        entry()
        assert len(calls) == 1 and calls[0] is priors


def test_derive_priors_reads_the_front_and_thing_cells_once(monkeypatch):
    scene = seeded_scenes(1, width=16, height=16, planes=16)[0]
    expected = derive_priors(scene)
    calls = []
    occupancy, unique = PanopticVolume.occupancy, np.unique
    monkeypatch.setattr(PanopticVolume, "occupancy",
                        property(lambda vol: calls.append("occupancy") or occupancy.fget(vol)))
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append("unique") or unique(*a, **k))
    p = derive_priors(scene)
    assert calls == ["occupancy", "unique"]
    for field in ("semantics", "depth", "heatmap", "mp_occupancy"):
        assert getattr(p, field).tobytes() == getattr(expected, field).tobytes()
    for field in ("cells", "rows"):
        assert (getattr(p.offsets3d, field).tobytes()
                == getattr(expected.offsets3d, field).tobytes())
    assert p.centers == expected.centers
