import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panrec.priors import derive_priors
from panrec.synth import (
    NoiseSpec,
    SynthConfig,
    SynthError,
    _rasterize_ellipsoid,
    generate_scene,
    perturb_priors,
)
from conftest import CROWDED_NOISE, array_digest, seeded_scenes, traced_peak


def test_config_validation():
    with pytest.raises(SynthError):
        SynthConfig(n_stuff=3)
    with pytest.raises(SynthError):
        SynthConfig(n_thing_categories=0)
    with pytest.raises(SynthError):
        NoiseSpec(depth_sigma=-1.0)
    with pytest.raises(SynthError):
        NoiseSpec(semantic_flip=1.5)


@pytest.mark.parametrize("field", ["depth_sigma", "center_jitter"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_noise_rejects_non_finite_magnitudes(field, value):
    with pytest.raises(SynthError, match="^noise magnitudes must be finite and nonnegative$"):
        NoiseSpec(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("n_things", -1, "n_things"),
    ("min_center_separation", -1.0, "min center separation"),
    ("min_center_separation", np.nan, "min center separation"),
])
def test_config_names_what_it_rejects(field, value, message):
    with pytest.raises(SynthError, match=message):
        SynthConfig(**{field: value})


@pytest.mark.parametrize("dims, field", [
    ((4, 4, 4), "width"),
    ((5, 32, 32), "width"),
    ((32, 5, 32), "height"),
    ((32, 32, 1), "planes"),
    ((32, 32, 2), "planes"),
])
def test_config_rejects_grids_too_small_for_things(dims, field):
    width, height, planes = dims
    with pytest.raises(SynthError, match=field):
        SynthConfig(width=width, height=height, planes=planes, n_things=1)
    # without things any grid of at least one cell is fine
    scene = generate_scene(SynthConfig(width=width, height=height, planes=planes, n_things=0))
    assert not scene.volume.instances.any()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40), height=st.integers(1, 40),
       planes=st.integers(1, 24), n_things=st.integers(0, 4), n_stuff=st.integers(0, 2),
       separation=st.floats(0.0, 12.0), occlusion=st.booleans())
def test_valid_config_generates_or_fails_placement(seed, width, height, planes, n_things,
                                                   n_stuff, separation, occlusion):
    try:
        cfg = SynthConfig(seed=seed, width=width, height=height, planes=planes,
                          n_things=n_things, n_stuff=n_stuff,
                          min_center_separation=separation,
                          occlusion_allowed=occlusion)
    except SynthError:
        assert n_things > 0 and (min(width, height) < 6 or planes < 3)
        return
    try:
        scene = generate_scene(cfg)
    except SynthError as err:
        assert "could not place instance" in str(err)
        return
    ids = scene.volume.instances
    assert np.unique(ids[ids > 0]).tolist() == list(range(1, n_things + 1))


def reference_rasterize_ellipsoid(rng, w, h, m_count):
    """The full-grid rasterizer that the bounding-box scan replaced."""
    ru = float(rng.uniform(2.0, max(2.5, min(w // 8, 7))))
    rv = float(rng.uniform(2.0, max(2.5, min(h // 8, 7))))
    rm = float(rng.uniform(1.0, max(1.5, m_count // 8)))
    uc = float(rng.uniform(ru, w - 1 - ru))
    vc = float(rng.uniform(rv, h - 1 - rv))
    back_margin = max(2, m_count // 16)
    mc = float(rng.uniform(rm, max(rm + 0.5, m_count - 1 - rm - back_margin)))
    vv, uu, mm = np.meshgrid(
        np.arange(h), np.arange(w), np.arange(m_count), indexing="ij"
    )
    inside = (
        ((uu - uc) / ru) ** 2 + ((vv - vc) / rv) ** 2 + ((mm - mc) / rm) ** 2
    ) <= 1.0
    return np.nonzero(inside)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), w=st.integers(6, 80), h=st.integers(6, 80),
       m=st.integers(1, 80))
def test_rasterize_ellipsoid_matches_full_grid(seed, w, h, m):
    rng_a = np.random.Generator(np.random.PCG64(seed))
    rng_b = np.random.Generator(np.random.PCG64(seed))
    got = _rasterize_ellipsoid(rng_a, w, h, m)
    want = reference_rasterize_ellipsoid(rng_b, w, h, m)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_empty_scene():
    scene = generate_scene(SynthConfig(seed=0, width=16, height=16, planes=16,
                                       n_things=0, n_stuff=0))
    assert np.all(scene.volume.semantics == 0)
    assert np.all(scene.volume.instances == 0)


def test_same_seed_bit_identical():
    cfg = SynthConfig(seed=42, width=32, height=32, planes=32, n_things=3,
                      min_center_separation=8.0)
    a = generate_scene(cfg)
    b = generate_scene(cfg)
    assert np.array_equal(a.volume.semantics, b.volume.semantics)
    assert np.array_equal(a.volume.instances, b.volume.instances)


def test_different_seeds_differ():
    scenes = seeded_scenes(2)
    assert not np.array_equal(scenes[0].volume.semantics, scenes[1].volume.semantics)


def test_structural_invariants():
    for scene in seeded_scenes(10):
        vol = scene.volume
        vol.validate()
        inst_ids = set(np.unique(vol.instances)) - {0}
        assert inst_ids == {1, 2, 3}
        # things get thing categories, stuff cells carry no instance id
        thing = vol.thing_mask()
        assert np.all((vol.instances > 0) == thing)
        stuff_cells = (vol.semantics > 0) & ~thing
        assert set(np.unique(vol.semantics[stuff_cells])) <= {1, 2}


def test_footprints_disjoint_without_occlusion():
    for scene in seeded_scenes(10):
        inst = scene.volume.instances
        h, w = scene.frame.height, scene.frame.width
        for v in range(h):
            for u in range(w):
                ids = set(inst[v, u, :][inst[v, u, :] > 0])
                assert len(ids) <= 1


def test_rays_single_category():
    for scene in seeded_scenes(10):
        sem = scene.volume.semantics
        h, w = scene.frame.height, scene.frame.width
        flat = sem.reshape(h * w, -1)
        for ray in flat:
            cats = set(ray[ray > 0])
            assert len(cats) <= 1


def test_center_separation():
    cfg = dict(min_center_separation=9.0)
    for scene in seeded_scenes(5, **cfg):
        inst = scene.volume.instances
        centers = []
        for i in sorted(set(np.unique(inst)) - {0}):
            vs, us, _ = np.nonzero(inst == i)
            centers.append((us.mean(), vs.mean()))
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                d = np.hypot(centers[i][0] - centers[j][0],
                             centers[i][1] - centers[j][1])
                assert d >= 9.0


def test_placement_failure_raises():
    cfg = SynthConfig(seed=0, width=16, height=16, planes=16, n_things=10,
                      min_center_separation=50.0)
    with pytest.raises(SynthError, match="within 200 attempts"):
        generate_scene(cfg)


def priors_digest(p):
    """sha256 of a bundle's arrays and center tuples."""
    centers = repr([(c.u, c.v, c.category, c.instance_id) for c in p.centers])
    return array_digest(p.depth, p.semantics, p.mp_occupancy, p.heatmap, p.offsets3d,
                        extra=centers.encode())


PRIOR_FIELDS = ("depth", "semantics", "mp_occupancy", "heatmap", "centers", "offsets3d")


def test_perturb_zero_noise_identity(small_priors, small_scene):
    out = perturb_priors(small_priors, NoiseSpec(), seed=0,
                         planes=small_scene.planes)
    assert np.array_equal(out.depth, small_priors.depth)
    assert np.array_equal(out.semantics, small_priors.semantics)
    assert np.array_equal(out.mp_occupancy, small_priors.mp_occupancy)
    assert np.array_equal(out.heatmap, small_priors.heatmap)
    assert out.centers == small_priors.centers
    for field in PRIOR_FIELDS:
        assert getattr(out, field) is getattr(small_priors, field)


# the fields that each single-magnitude noise spec corrupts
SINGLE_NOISE = {
    "zero": (NoiseSpec(), ()),
    "depth": (NoiseSpec(depth_sigma=0.1), ("depth",)),
    "semantic": (NoiseSpec(semantic_flip=0.2), ("semantics",)),
    "occupancy": (NoiseSpec(occupancy_flip=0.05), ("mp_occupancy",)),
    "jitter": (NoiseSpec(center_jitter=2), ("heatmap", "centers")),
}


@pytest.mark.parametrize("name", sorted(SINGLE_NOISE))
def test_perturb_copies_only_the_fields_it_corrupts(small_priors, small_scene, name):
    # a corrupted field is a new object that shares no memory with the input;
    # every other field is the input's own, and the input is left unchanged
    noise, corrupted = SINGLE_NOISE[name]
    before = priors_digest(small_priors)
    out = perturb_priors(small_priors, noise, seed=3, planes=small_scene.planes)
    for field in PRIOR_FIELDS:
        assert (getattr(out, field) is getattr(small_priors, field)) == (field not in corrupted)
    for field in set(corrupted) - {"centers"}:
        assert not np.shares_memory(getattr(out, field), getattr(small_priors, field))
    assert priors_digest(small_priors) == before


def test_perturb_stays_below_its_memory_bound():
    # at 64^3 the corrupted bundle costs its copies and the occupancy flip's random
    # blocks, less than 1.6 multi-plane occupancy volumes; a zero spec allocates
    # next to nothing
    scene = generate_scene(SynthConfig(seed=11, width=64, height=64, planes=64, n_things=3,
                                       min_center_separation=8.0))
    priors = derive_priors(scene)
    volume = priors.mp_occupancy.nbytes
    for noise, bound in ((CROWDED_NOISE, 1.6 * volume), (NoiseSpec(), 0.05 * volume)):
        peak = traced_peak(perturb_priors, priors, noise, 11, scene.planes)
        assert peak < bound, (noise, peak / volume)


def test_perturb_same_seed_reproducible(small_priors, small_scene):
    noise = NoiseSpec(depth_sigma=0.1, semantic_flip=0.2, occupancy_flip=0.05,
                      center_jitter=2)
    a = perturb_priors(small_priors, noise, seed=3, planes=small_scene.planes)
    b = perturb_priors(small_priors, noise, seed=3, planes=small_scene.planes)
    assert np.array_equal(a.depth, b.depth)
    assert np.array_equal(a.semantics, b.semantics)
    assert np.array_equal(a.mp_occupancy, b.mp_occupancy)
    assert a.centers == b.centers


def test_depth_noise_folded_normal_mean():
    # over many surface pixels, mean |perturbation| approaches sigma*sqrt(2/pi)
    sigma = 0.05
    total_abs = 0.0
    count = 0
    for seed in range(40):
        scene = generate_scene(SynthConfig(seed=seed, width=64, height=64,
                                           planes=64, n_things=4))
        priors = derive_priors(scene)
        noisy = perturb_priors(priors, NoiseSpec(depth_sigma=sigma), seed=seed,
                               planes=scene.planes)
        surface = priors.depth > 0
        diff = np.abs(noisy.depth - priors.depth)[surface]
        total_abs += diff.sum()
        count += diff.size
    assert count > 1e5
    expected = sigma * np.sqrt(2.0 / np.pi)
    assert total_abs / count == pytest.approx(expected, rel=0.05)


def test_depth_noise_stays_in_plane_range(small_priors, small_scene):
    noisy = perturb_priors(small_priors, NoiseSpec(depth_sigma=5.0), seed=1,
                           planes=small_scene.planes)
    surface = small_priors.depth > 0
    assert np.all(noisy.depth[surface] >= small_scene.planes.z_near)
    assert np.all(noisy.depth[surface] < small_scene.planes.z_far)
    assert np.all(noisy.depth[~surface] == 0)


def test_occupancy_flip_prob_one_is_complement(small_priors, small_scene):
    noisy = perturb_priors(small_priors, NoiseSpec(occupancy_flip=1.0), seed=1,
                           planes=small_scene.planes)
    assert np.array_equal(noisy.mp_occupancy, 1.0 - small_priors.mp_occupancy)


def test_semantic_flip_prob_one_stays_one_hot(small_priors, small_scene):
    noisy = perturb_priors(small_priors, NoiseSpec(semantic_flip=1.0), seed=1,
                           planes=small_scene.planes)
    assert np.all(noisy.semantics.sum(axis=-1) == 1.0)
    assert set(np.unique(noisy.semantics)) <= {0.0, 1.0}


def test_center_jitter_bounds_and_heatmap(small_priors, small_scene):
    noisy = perturb_priors(small_priors, NoiseSpec(center_jitter=2), seed=1,
                           planes=small_scene.planes)
    assert len(noisy.centers) == len(small_priors.centers)
    for a, b in zip(small_priors.centers, noisy.centers):
        assert abs(a.u - b.u) <= 2 and abs(a.v - b.v) <= 2
        assert (a.category, a.instance_id) == (b.category, b.instance_id)
    # heatmap re-encoded from the jittered centers peaks at each new center
    for c in noisy.centers:
        assert noisy.heatmap[c.v, c.u] == 1.0


# sha256 of generate_scene's (semantics, instances) and of derive_priors'
# depth, semantics, mp_occupancy, heatmap, offsets3d and center tuples, pinned
# from the full-volume rasterizer and the per-instance derivation scans. The
# configs cover the crowded benchmark scene, occlusion, no stuff, a non-square
# grid and a grid so small that every padded ellipsoid box is clipped.
GOLDEN_SCENES = {
    "crowded-96": (
        dict(seed=0, width=96, height=96, planes=96, n_things=16,
             min_center_separation=8.0),
        "ca18ef6a6a870f1118ce2584dca97e273828a47cb3d00639137608b527adb70f",
        "dbd26f4cf0fcf41dffdd1fbb82e40c27145795f7b694cde301c03d6bd902bc79"),
    "occlusion": (
        dict(seed=3, width=32, height=32, planes=32, n_things=6,
             min_center_separation=6.0, occlusion_allowed=True),
        "6ad9c7aeadbd402257dbadd83926efdba01d3801988fec998e4a549d3b31c11a",
        "da4428c78d87532978f808e59476082e85bac7c8e4037a7ad4e7e8014d27a813"),
    "no-stuff": (
        dict(seed=4, width=32, height=32, planes=32, n_things=4, n_stuff=0,
             min_center_separation=8.0),
        "178e29922d34c6a2b064d61a482185f01ee1d4d3becac3e943f63e38d26a8af5",
        "eb01a396016d3bcdb099a8c0cb3a7ac6961175aafc7bbc09b0d21a54a62b69e5"),
    "anisotropic-40x24x12": (
        dict(seed=5, width=40, height=24, planes=12, n_things=4,
             min_center_separation=6.0),
        "60a60744c5499feb6361fee0be17196de6d4377ab8223e4de2a4b3bed7abc3fb",
        "255cd3cee00549e8e584f04165cc713d530d3c8d41f38e74e0b537d287a261a1"),
    "edge-clipped-6x6x3": (
        dict(seed=0, width=6, height=6, planes=3, n_things=1,
             min_center_separation=0.0),
        "878d7e0811408130e29588ac623845d9a5d4356d87164afc01c7b3e7ff202fde",
        "960cfb32f0cae702f25ad2058c10084481dbd76a5649380ce24ca99f4c95c0c9"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENES))
def test_scene_and_priors_match_golden_hash(name):
    kwargs, scene_sha, priors_sha = GOLDEN_SCENES[name]
    scene = generate_scene(SynthConfig(**kwargs))
    assert array_digest(scene.volume.semantics, scene.volume.instances) == scene_sha
    p = derive_priors(scene)
    assert priors_digest(p) == priors_sha


# sha256 of perturb_priors' depth, semantics, mp_occupancy, heatmap, offsets3d
# and center tuples under CROWDED_NOISE, pinned from the copy-then-`np.where`
# occupancy flip.
GOLDEN_PERTURBED = {
    "crowded-96": (
        0, "bf3af616ee653b01b9a599e8c83ab84a509c4e528bd17123bf36002d889514e5"),
    "occlusion": (
        3, "e5c54f7a3d95cd2b0b031aea23b3c9bc9cbeeabd72b9b28523ff31bf45813a69"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PERTURBED))
def test_perturbed_priors_match_golden_hash(name):
    seed, digest = GOLDEN_PERTURBED[name]
    scene = generate_scene(SynthConfig(**GOLDEN_SCENES[name][0]))
    p = perturb_priors(derive_priors(scene), CROWDED_NOISE, seed, scene.planes)
    assert priors_digest(p) == digest
