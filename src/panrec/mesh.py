"""Indexed triangle export of panoptic volumes for visual inspection.

One material per instance (stuff uses the category), colored by a stable hash
of the label so identical ids always render identically.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .volume import VOID, PanopticVolume

# Faces of a unit cube at integer corner offsets, one per axis direction.
_FACES = {
    (-1, 0, 0): [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)],
    (1, 0, 0): [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],
    (0, -1, 0): [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],
    (0, 1, 0): [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)],
    (0, 0, -1): [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)],
    (0, 0, 1): [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
}
_STEPS = np.array(list(_FACES))              # (6, 3) neighbour offsets
_CORNERS = np.array(list(_FACES.values()))   # (6, 4, 3) quad corners
_CHUNK = 4096                                # lines written per write call


def label_color(label: str):
    """Deterministic RGB in [0, 1] from a label string."""
    digest = hashlib.sha256(label.encode()).digest()
    return tuple(0.2 + 0.8 * b / 255.0 for b in digest[:3])


def _digit_table(values):
    """Row i: b" " and the digits of the int values[i] >= 0, left-padded with NUL bytes."""
    n = np.maximum(values, 1)
    table = np.zeros((len(values), len(str(values.max())) + 1), np.uint8)
    for d in range(table.shape[1]):  # column -1-d: digit d, or the space before the first digit
        table[:, -1 - d] = np.select([n >= 10**d, 10 * n >= 10**d], [48 + values // 10**d % 10, 32])
    return table


def _write_lines(out, letter, rows, table):
    """Write one line per row of a 2D array of `table` row indices: `letter`, then b" " and
    the digits of each value (`_digit_table`); a bounded chunk of rows at a time."""
    for start in range(0, len(rows), _CHUNK):
        digits = table[rows[start:start + _CHUNK]]
        lines = np.pad(digits.reshape(len(digits), -1), ((0, 0), (1, 1)),
                       constant_values=((0, 0), (ord(letter), ord("\n"))))
        out.write(lines[lines != 0].tobytes())


def export_obj(volume: PanopticVolume, obj_path):
    """Write an .obj (plus .mtl) of all boundary faces, grouped per segment.

    Segments (`thing_<instance>`, else `stuff_<category>`) are written in name
    order, each cell's faces in C order of the cells and `_FACES` order. A face
    is on the boundary where the neighbour is outside the grid or carries
    another (category, instance) pair. Vertices are numbered by first use.
    """
    obj_path = Path(obj_path)
    mtl_path = obj_path.with_suffix(".mtl")
    # Labels in a -1 border: a cell's neighbours are its flat index plus fixed
    # offsets, and every neighbour outside the grid carries another label.
    sem, inst = (np.pad(a, 1, constant_values=-1).reshape(-1)
                 for a in (volume.semantics, volume.instances))
    shape = np.add(volume.semantics.shape, 2)
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    flat = np.flatnonzero(sem > VOID)
    s, t = sem[flat], inst[flat]
    # Segment of each occupied cell: its instance id, or minus its stuff category.
    keys, segment = np.unique(np.where(t > 0, t, -s), return_inverse=True)
    names, rank = np.unique([f"thing_{k}" if k > 0 else f"stuff_{-k}" for k in keys.tolist()],
                            return_inverse=True)
    order = np.argsort(rank[segment], kind="stable")
    flat, s, t, segment = flat[order], s[order], t[order], rank[segment[order]]
    near = flat[:, None] + _STEPS @ strides
    boundary = (sem[near] != s[:, None]) | (inst[near] != t[:, None])
    del sem, inst, near
    cell, face = np.nonzero(boundary)
    # Corner (i, j, k) of the (H+1, W+1, M+1) corner grid is padded cell (i, j, k).
    corners = ((flat[cell] - strides.sum())[:, None] + (_CORNERS @ strides)[face]).reshape(-1)
    first = np.full(np.prod(shape), corners.size, dtype=np.intp)
    np.minimum.at(first, corners, np.arange(corners.size))
    used = np.flatnonzero(first[corners] == np.arange(corners.size))  # vertices by first use
    first[corners[used]] = np.arange(1, used.size + 1)
    triangles = first[corners].reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    ends = 2 * np.cumsum(np.bincount(segment[cell], minlength=len(names)))
    vertices = np.stack(np.unravel_index(corners[used], shape), axis=1)

    with mtl_path.open("w") as mtl:
        for name in names:
            r, g, b = label_color(name)
            mtl.write(f"newmtl {name}\nKd {r:.4f} {g:.4f} {b:.4f}\n")
    table = _digit_table(np.arange(max(used.size, shape.max()) + 1))
    with obj_path.open("wb") as obj:
        obj.write(f"mtllib {mtl_path.name}\n".encode())
        _write_lines(obj, "v", vertices[:, [1, 0, 2]], table)
        for name, start, end in zip(names, [0, *ends.tolist()], ends.tolist()):
            obj.write(f"usemtl {name}\n".encode())
            _write_lines(obj, "f", triangles[start:end], table)
