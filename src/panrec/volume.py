"""Per-voxel panoptic labeling and its structural validator."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AxisGrid, FrustumGrid

VOID = 0


class VolumeError(ValueError):
    pass


@dataclass(frozen=True)
class CategoryTable:
    """Thing/stuff flag per category id; category 0 is void and never a thing."""

    is_thing: tuple

    def __post_init__(self):
        if len(self.is_thing) < 1 or self.is_thing[0]:
            raise VolumeError("category 0 must exist and be void (not a thing)")

    def __len__(self):
        return len(self.is_thing)


@dataclass
class PanopticVolume:
    """Grid frame plus per-cell (semantic_id, instance_id) labels. A cell is
    occupied iff its semantic id is non-void; `validate` states the labels' rule."""

    frame: object
    semantics: np.ndarray
    instances: np.ndarray
    categories: CategoryTable

    def __post_init__(self):
        self.semantics = np.asarray(self.semantics, dtype=np.int32)
        self.instances = np.asarray(self.instances, dtype=np.int32)

    @property
    def occupancy(self) -> np.ndarray:
        return self.semantics != VOID

    def validate(self, name: str = "volume"):
        """The volume, unless it breaks the one rule for a well-formed volume:
        a grid frame, arrays of its shape, semantic ids in the category table,
        instance ids >= 0 and nonzero only on thing cells (void is not a thing).
        Raises VolumeError naming `name` and the field, e.g. `pred.instances: ...`."""
        if not isinstance(self.frame, (FrustumGrid, AxisGrid)):
            raise VolumeError(f"{name}.frame: unknown grid frame {self.frame!r}")
        for field, array in (("semantics", self.semantics), ("instances", self.instances)):
            if array.shape != self.frame.shape:
                raise VolumeError(f"{name}.{field}: shape {array.shape} != frame shape "
                                  f"{self.frame.shape}")
        semantics = self.semantics.reshape(-1)
        if semantics.min() < 0 or semantics.max() >= len(self.categories):
            raise VolumeError(f"{name}.semantics: category id outside the category table")
        # Both instance clauses hold wherever the id is 0, so only the other cells are read.
        cells = np.flatnonzero(self.instances != 0)
        if self.instances.reshape(-1)[cells].min(initial=0) < 0:
            raise VolumeError(f"{name}.instances: negative instance id")
        if not np.asarray(self.categories.is_thing)[semantics[cells]].all():
            raise VolumeError(f"{name}.instances: instance id on a stuff or void cell")
        return self

    def thing_mask(self) -> np.ndarray:
        return np.asarray(self.categories.is_thing)[self.semantics]
