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

    @property
    def num_categories(self) -> int:
        return len(self.is_thing)


@dataclass
class PanopticVolume:
    """Grid frame plus per-cell (semantic_id, instance_id) labels.

    A cell is occupied iff its semantic id is non-void. Stuff and void cells
    carry instance id 0; thing instances have ids > 0.
    """

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

    def validate(self):
        """Raise VolumeError on any structural violation."""
        if not isinstance(self.frame, (FrustumGrid, AxisGrid)):
            raise VolumeError(f"unknown grid frame {self.frame!r}")
        if self.semantics.shape != self.frame.shape:
            raise VolumeError(
                f"semantics shape {self.semantics.shape} != frame shape {self.frame.shape}"
            )
        if self.instances.shape != self.semantics.shape:
            raise VolumeError("instance and semantic arrays must have the same shape")
        if self.semantics.min(initial=0) < 0 or self.semantics.max(initial=0) >= len(self.categories):
            raise VolumeError("semantic id outside category table")
        if self.instances.min(initial=0) < 0:
            raise VolumeError("negative instance id")
        thing_mask = np.asarray(self.categories.is_thing)[self.semantics]
        if np.any((self.instances > 0) & ~thing_mask):
            raise VolumeError("instance id set on a non-thing cell")
        if np.any((self.semantics == VOID) & (self.instances != 0)):
            raise VolumeError("void cell with instance id")
        return self

    def thing_mask(self) -> np.ndarray:
        return np.asarray(self.categories.is_thing)[self.semantics]

    def instance_labels(self):
        """Sorted ids of thing instances present in the volume."""
        ids = np.unique(self.instances[self.instances > 0])
        return [int(i) for i in ids]


def empty_volume(frame, categories: CategoryTable) -> PanopticVolume:
    shape = frame.shape
    return PanopticVolume(
        frame=frame,
        semantics=np.zeros(shape, dtype=np.int32),
        instances=np.zeros(shape, dtype=np.int32),
        categories=categories,
    )
