"""Per-voxel panoptic labeling, valid by construction: the constructor applies
the one rule for a well-formed volume, and the labels are read-only after it."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import AxisGrid, FrustumGrid, PanrecError

VOID = 0
# Cells per block of the passes that walk a full grid a block at a time (the scan
# of `PanopticVolume.validate`, the lift's lister and labels, `perturb_priors`'
# occupancy flips): their temporaries stay a few MB instead of growing with the grid.
BLOCK = 1 << 16


class VolumeError(PanrecError):
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


@dataclass(frozen=True)
class PanopticVolume:
    """Grid frame plus per-cell (semantic_id, instance_id) integer labels that
    fit int32. A cell is occupied iff its semantic id is non-void. The constructor
    applies `validate`, whose errors name `name`, and keeps read-only int32 views
    of the arrays, so a volume is well formed for as long as it exists."""

    frame: object
    semantics: np.ndarray
    instances: np.ndarray
    categories: CategoryTable
    name: str = field(default="volume", compare=False, repr=False)

    def __post_init__(self):
        for label in ("semantics", "instances"):
            given = np.asarray(getattr(self, label))
            # bool and ids no wider than int32 cast safely, so only wider ids are scanned
            if given.dtype.kind not in "biu" or not np.can_cast(given.dtype, np.int32) and (
                    given.size and not -2**31 <= given.min() <= given.max() < 2**31):
                raise VolumeError(f"{self.name}.{label}: ids must be integers that fit int32, "
                                  f"got {given.dtype}")
            view = np.asarray(given, dtype=np.int32).view()
            view.flags.writeable = False
            object.__setattr__(self, label, view)
        self.validate()

    @property
    def occupancy(self) -> np.ndarray:
        return self.semantics != VOID

    def validate(self):
        """The volume, unless it breaks the one rule for a well-formed volume:
        a grid frame, arrays of its shape, semantic ids in the category table,
        instance ids >= 0 and nonzero only on thing cells (void is not a thing).
        Raises VolumeError naming the volume and the field, e.g. `pred.instances: ...`."""
        name = self.name
        if not isinstance(self.frame, (FrustumGrid, AxisGrid)):
            raise VolumeError(f"{name}.frame: unknown grid frame {self.frame!r}")
        for label, array in (("semantics", self.semantics), ("instances", self.instances)):
            if array.shape != self.frame.shape:
                raise VolumeError(f"{name}.{label}: shape {array.shape} != frame shape "
                                  f"{self.frame.shape}")
        semantics = self.semantics.reshape(-1)
        if semantics.min() < 0 or semantics.max() >= len(self.categories):
            raise VolumeError(f"{name}.semantics: category id outside the category table")
        # Both instance clauses hold wherever the id is 0, so only the other cells
        # are read; they are found a block at a time, without a full-grid mask.
        instances = self.instances.reshape(-1)
        cells = np.concatenate([np.flatnonzero(instances[start:start + BLOCK] != 0) + start
                                for start in range(0, instances.size, BLOCK)])
        if instances[cells].min(initial=0) < 0:
            raise VolumeError(f"{name}.instances: negative instance id")
        if not np.asarray(self.categories.is_thing)[semantics[cells]].all():
            raise VolumeError(f"{name}.instances: instance id on a stuff or void cell")
        return self

    def thing_mask(self) -> np.ndarray:
        return np.asarray(self.categories.is_thing)[self.semantics]
