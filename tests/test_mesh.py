import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panrec.geometry import AxisGrid, FrustumGrid, resample_volume
from panrec.lifting import lift_priors
from panrec.mesh import _FACES, _digit_table, _write_lines, export_obj, label_color
from panrec.pipeline import reconstruct_from_priors
from panrec.priors import derive_priors
from panrec.reconstruction import Refined3D, reconstruct
from panrec.synth import NoiseSpec, SynthConfig, generate_scene, perturb_priors
from panrec.volume import CategoryTable, PanopticVolume

# sha256 of (scene.obj, scene.mtl), pinned from the per-voxel exporter. The
# OBJ/MTL bytes are part of the output contract: any rewrite of export_obj
# must reproduce them exactly.
GOLDEN = {
    "clean-prediction": ("b2ce72efeef2e80baf743edaf0d2340877a5f6a8a6fcdc8fcec5f4b3aade0a78",
                         "825714babe2fddad24a75ee5bf1459823a5419e845ce156e46f20251afd0f44c"),
    "gt-12-things": ("2f984d2006c07ad11db532c09715e774911d3beeb1c307ad457e5dd3a54564ce",
                     "12ad25fc40284e4fb7ed89e689d8c2003fcd7b09fdbc6c851805c8061e3e0781"),
    "noisy-prediction": ("e5e646987a31670e6dffa433cc116546a015ee278878bb3866da9356d5a03943",
                         "825714babe2fddad24a75ee5bf1459823a5419e845ce156e46f20251afd0f44c"),
}


def golden_volume(name):
    if name == "gt-12-things":
        cfg = SynthConfig(seed=5, width=40, height=40, planes=24, n_things=12,
                          min_center_separation=6.0)
        return generate_scene(cfg).volume
    scene = generate_scene(SynthConfig(seed=2, width=32, height=32, planes=32, n_things=3,
                                       min_center_separation=8.0))
    priors = derive_priors(scene)
    if name == "noisy-prediction":
        noise = NoiseSpec(depth_sigma=0.05, occupancy_flip=0.05, center_jitter=2)
        priors = perturb_priors(priors, noise, 7, scene.planes)
        occupied, _rows, labels = lift_priors(priors, scene.frame, scene.intrinsics,
                                              scene.planes)
        refined = Refined3D(scene.frame, labels, priors.offsets3d, occupied)
        return reconstruct(refined, priors.centers, scene.intrinsics, scene.categories, 0.3)
    return reconstruct_from_priors(priors, scene.frame, scene.intrinsics, scene.planes,
                                   scene.categories)


def export_bytes(volume, tmp_path):
    obj = tmp_path / "scene.obj"
    export_obj(volume, obj)
    return obj.read_bytes(), obj.with_suffix(".mtl").read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_export_matches_golden_hash(name, tmp_path):
    obj, mtl = export_bytes(golden_volume(name), tmp_path)
    assert (hashlib.sha256(obj).hexdigest(), hashlib.sha256(mtl).hexdigest()) == GOLDEN[name]


def _touches(a, b):
    return any(
        np.any(np.swapaxes(a, 0, ax)[1:] & np.swapaxes(b, 0, ax)[:-1])
        or np.any(np.swapaxes(a, 0, ax)[:-1] & np.swapaxes(b, 0, ax)[1:])
        for ax in range(3)
    )


def test_golden_volumes_cover_the_ordering_cases():
    gt = golden_volume("gt-12-things").validate()
    # Ten or more instances: `thing_10` sorts before `thing_2` by name.
    assert np.unique(gt.instances[gt.instances > 0]).max() >= 10
    thing = gt.thing_mask()
    assert _touches(thing, gt.occupancy & ~thing)
    noisy = golden_volume("noisy-prediction").validate()
    occ = noisy.occupancy
    # Void holes: an empty cell between two occupied ones along the depth axis.
    assert np.any(occ[:, :, :-2] & ~occ[:, :, 1:-1] & occ[:, :, 2:])
    assert np.unique(noisy.instances[noisy.instances > 0]).size


def reference_export_obj(volume, obj_path):
    """The per-voxel exporter the vectorized one replaced, kept as the oracle."""
    obj_path = Path(obj_path)
    mtl_path = obj_path.with_suffix(".mtl")
    sem = volume.semantics
    inst = volume.instances
    occ = volume.occupancy
    labels = {}
    for idx in np.argwhere(occ):
        i, j, k = (int(x) for x in idx)
        name = f"thing_{inst[i, j, k]}" if inst[i, j, k] > 0 else f"stuff_{sem[i, j, k]}"
        labels.setdefault(name, []).append((i, j, k))

    vertices = {}
    def vid(p):
        if p not in vertices:
            vertices[p] = len(vertices) + 1
        return vertices[p]

    groups = {}
    shape = occ.shape
    for name, cells in sorted(labels.items()):
        faces = []
        for i, j, k in cells:
            for (di, dj, dk), corners in _FACES.items():
                ni, nj, nk = i + di, j + dj, k + dk
                inside = 0 <= ni < shape[0] and 0 <= nj < shape[1] and 0 <= nk < shape[2]
                if inside and occ[ni, nj, nk] and inst[ni, nj, nk] == inst[i, j, k] \
                        and sem[ni, nj, nk] == sem[i, j, k]:
                    continue
                quad = [vid((i + ci, j + cj, k + ck)) for ci, cj, ck in corners]
                faces.append((quad[0], quad[1], quad[2]))
                faces.append((quad[0], quad[2], quad[3]))
        groups[name] = faces

    with mtl_path.open("w") as mtl:
        for name in groups:
            r, g, b = label_color(name)
            mtl.write(f"newmtl {name}\nKd {r:.4f} {g:.4f} {b:.4f}\n")
    with obj_path.open("w") as obj:
        obj.write(f"mtllib {mtl_path.name}\n")
        for (i, j, k), _n in sorted(vertices.items(), key=lambda kv: kv[1]):
            obj.write(f"v {j} {i} {k}\n")
        for name, faces in groups.items():
            obj.write(f"usemtl {name}\n")
            for a, b, c in faces:
                obj.write(f"f {a} {b} {c}\n")


def assert_matches_reference(volume, directory):
    directory.mkdir(parents=True, exist_ok=True)
    ours = export_bytes(volume, directory)
    reference_export_obj(volume, directory / "scene.obj")
    assert ours == ((directory / "scene.obj").read_bytes(), (directory / "scene.mtl").read_bytes())


# Stuff categories 1 and 2, thing categories 3 and 4.
CATS = CategoryTable((False, False, False, True, True))
THING = np.asarray(CATS.is_thing)


def small_volume(sem, ids):
    sem = np.asarray(sem, dtype=np.int32)
    inst = np.where(THING[sem], ids, 0)
    h, w, m = sem.shape
    return PanopticVolume(FrustumGrid(w, h, m), sem, inst, CATS)


@st.composite
def small_volumes(draw):
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6))
    # A subset of categories: {0} is empty, {1, 2} stuff only, no 0 fully occupied.
    allowed = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    sem = draw(hnp.arrays(np.int32, shape, elements=st.sampled_from(allowed)))
    # Up to 12 ids; one id may be carried by both thing categories.
    max_id = draw(st.sampled_from([1, 2, 12]))
    ids = draw(hnp.arrays(np.int32, shape, elements=st.integers(1, max_id)))
    return small_volume(sem, ids)


@settings(max_examples=300, deadline=None)
@given(volume=small_volumes())
def test_export_matches_reference_on_random_volumes(volume, tmp_path_factory):
    assert_matches_reference(volume, tmp_path_factory.mktemp("mesh"))


# Cells of a (3, 4, 5) grid: those at a row's or plane's end are next, in flat
# C order, to those at the next one's start, but they do not touch in the grid.
I, J, K = np.indices((3, 4, 5))
ROW_ENDS = (K == 0) | (K == 4)
PLANE_ENDS = (J == 0) & (K == 0) | (J == 3) & (K == 4)

CASES = {
    "empty": (np.zeros((3, 4, 5)), 1),
    "stuff-only": (np.indices((4, 5, 6)).sum(axis=0) % 2 + 1, 1),
    "fully-occupied": (np.full((5, 5, 5), 3), np.arange(125).reshape(5, 5, 5) % 3 + 1),
    "ids-up-to-12": (np.full((6, 6, 6), 4), np.arange(216).reshape(6, 6, 6) // 18 + 1),
    # Instance 7 in both thing categories: one `thing_7` group, split faces.
    "shared-id": (np.where(np.arange(6)[:, None, None] < 3, 3, 4) * np.ones((6, 4, 4), int), 7),
    "row-wrap-two-segments": (np.where(ROW_ENDS, 1 + (K == 0), 0), 1),
    "row-wrap-one-segment": (np.where(ROW_ENDS, 1, 0), 1),
    "plane-wrap-two-segments": (np.where(PLANE_ENDS, 3, 0), 1 + (J == 0)),
    "plane-wrap-one-segment": (np.where(PLANE_ENDS, 3, 0), 5),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_export_matches_reference_on_edge_cases(case, tmp_path):
    sem, ids = CASES[case]
    assert_matches_reference(small_volume(sem, ids), tmp_path)


def test_export_matches_reference_on_axis_frame_volume(tmp_path):
    scene = generate_scene(SynthConfig(seed=2, width=32, height=32, planes=32, n_things=3,
                                       min_center_separation=8.0))
    frame = AxisGrid(dims=(24, 24, 32), voxel_size=0.15, origin=(-1.8, -1.8, 0.4))
    sem, inst = (resample_volume(a, scene.frame, frame, scene.intrinsics, scene.planes)
                 for a in (scene.volume.semantics, scene.volume.instances))
    volume = PanopticVolume(frame, sem, inst, scene.categories)
    assert np.unique(volume.instances[volume.instances > 0]).size and \
        np.any(volume.occupancy & ~volume.thing_mask())
    assert_matches_reference(volume, tmp_path)


@st.composite
def int_rows(draw):
    """(n, c) non-negative ints with 0 to 12 rows and 1 to 3 columns, each value 0
    or of 1 to 10 digits."""
    columns = draw(st.integers(1, 3))
    value = st.integers(0, 10).flatmap(lambda k: st.integers(10 ** k // 10, 10 ** k - 1))
    rows = draw(st.lists(st.lists(value, min_size=columns, max_size=columns), max_size=12))
    return np.array(rows, dtype=np.int64).reshape(len(rows), columns)


@settings(max_examples=300, deadline=None)
@given(rows=int_rows(), letter=st.sampled_from("vf"))
@example(rows=np.zeros((0, 3), np.int64), letter="f")
def test_write_lines_matches_percent_formatting(rows, letter):
    # the table holds the rows' distinct values and a spare 0, which no row uses
    values, index = np.unique(rows, return_inverse=True)
    out = io.BytesIO()
    _write_lines(out, letter, index.reshape(rows.shape), _digit_table(np.append(values, 0)))
    line = letter + " %d" * rows.shape[1] + "\n"
    assert out.getvalue() == ((line * len(rows)) % tuple(rows.ravel().tolist())).encode()
