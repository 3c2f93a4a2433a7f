"""Seeded procedural frustum scenes (boxes, ellipsoids, stuff slabs) and
controlled corruption of derived priors.

All randomness flows through numpy's PCG64 generator seeded from a
SeedSequence; per-entity streams are split with SeedSequence.spawn so results
are reproducible across platforms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CameraIntrinsics, DepthPlanes, FrustumGrid
from .priors import Priors2D, SceneGT, encode_center_heatmap
from .volume import BLOCK, CategoryTable, PanopticVolume


class SynthError(RuntimeError):
    pass


@dataclass(frozen=True)
class NoiseSpec:
    """Prior-corruption magnitudes; zero everywhere means no perturbation."""

    depth_sigma: float = 0.0       # meters
    semantic_flip: float = 0.0     # per-pixel relabel probability
    occupancy_flip: float = 0.0    # per-cell bit-flip probability
    center_jitter: int = 0         # max |pixel| offset per axis

    def __post_init__(self):
        if not (0 <= self.depth_sigma < math.inf and 0 <= self.center_jitter < math.inf):
            raise SynthError("noise magnitudes must be finite and nonnegative")
        for p in (self.semantic_flip, self.occupancy_flip):
            if not (0 <= p <= 1):
                raise SynthError("flip probabilities must be in [0, 1]")


# Smallest upper ends of the rasterizers' size ranges. They set the smallest grid
# that fits every thing: an ellipsoid's center range [r, n - 1 - r] needs 2 r + 1.
_BOX_SIDE = 4
_BOX_DEPTH = 3
_ELLIPSOID_RADIUS = 2.5
_MIN_THING_PIXELS = max(_BOX_SIDE, math.ceil(2 * _ELLIPSOID_RADIUS + 1))
# Random placements tried per thing before `generate_scene` gives up.
MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    width: int = 64
    height: int = 64
    planes: int = 64
    z_near: float = 0.4
    z_far: float = 6.0
    n_things: int = 4
    n_stuff: int = 2               # 0 none, 1 wall, 2 wall + floor
    n_thing_categories: int = 4
    min_center_separation: float = 10.0
    occlusion_allowed: bool = False

    def __post_init__(self):
        if self.n_things < 0 or not (0 <= self.n_stuff <= 2):
            raise SynthError("need n_things >= 0 and n_stuff in {0, 1, 2}")
        if self.n_thing_categories < 1:
            raise SynthError("need at least one thing category")
        if not self.min_center_separation >= 0:
            raise SynthError("min center separation must be nonnegative")
        if self.n_things > 0:
            # Every box and ellipsoid the rasterizers can draw must fit the grid.
            for name, low in (("width", _MIN_THING_PIXELS), ("height", _MIN_THING_PIXELS),
                              ("planes", _BOX_DEPTH)):
                if getattr(self, name) < low:
                    raise SynthError(f"{name} must be >= {low} to place things")

    @property
    def categories(self) -> CategoryTable:
        flags = [False] + [False] * self.n_stuff + [True] * self.n_thing_categories
        return CategoryTable(is_thing=tuple(flags))

    @property
    def first_thing_category(self) -> int:
        return 1 + self.n_stuff

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            fx=float(self.width),
            fy=float(self.width),
            cx=(self.width - 1) / 2.0,
            cy=(self.height - 1) / 2.0,
            width=self.width,
            height=self.height,
        )

    def depth_planes(self) -> DepthPlanes:
        return DepthPlanes(count=self.planes, z_near=self.z_near, z_far=self.z_far)


def _rasterize_box(rng, w, h, m_count):
    wu = int(rng.integers(3, max(_BOX_SIDE, min(w // 4, 14)) + 1))
    wv = int(rng.integers(3, max(_BOX_SIDE, min(h // 4, 14)) + 1))
    wm = int(rng.integers(2, max(_BOX_DEPTH, m_count // 4) + 1))
    u0 = int(rng.integers(0, w - wu + 1))
    v0 = int(rng.integers(0, h - wv + 1))
    m0 = int(rng.integers(0, max(1, m_count - wm - max(2, m_count // 16))))
    vv, uu, mm = np.meshgrid(
        np.arange(v0, v0 + wv), np.arange(u0, u0 + wu), np.arange(m0, m0 + wm),
        indexing="ij",
    )
    return vv.ravel(), uu.ravel(), mm.ravel()


def _rasterize_ellipsoid(rng, w, h, m_count):
    ru = float(rng.uniform(2.0, max(_ELLIPSOID_RADIUS, min(w // 8, 7))))
    rv = float(rng.uniform(2.0, max(_ELLIPSOID_RADIUS, min(h // 8, 7))))
    rm = float(rng.uniform(1.0, max(1.5, m_count // 8)))
    uc = float(rng.uniform(ru, w - 1 - ru))
    vc = float(rng.uniform(rv, h - 1 - rv))
    back_margin = max(2, m_count // 16)
    mc = float(rng.uniform(rm, max(rm + 0.5, m_count - 1 - rm - back_margin)))
    # A cell outside the box is more than r + 1 from the center on some axis, so
    # that term alone exceeds 1: the clipped box holds the same cells, in C order.
    box = [(max(0, math.floor(c - r) - 1), min(n, math.ceil(c + r) + 2))
           for c, r, n in ((vc, rv, h), (uc, ru, w), (mc, rm, m_count))]
    vv, uu, mm = np.meshgrid(*(np.arange(a, b) for a, b in box), indexing="ij", sparse=True)
    inside = (
        ((uu - uc) / ru) ** 2 + ((vv - vc) / rv) ** 2 + ((mm - mc) / rm) ** 2
    ) <= 1.0
    return tuple(idx + a for idx, (a, _b) in zip(np.nonzero(inside), box))


def generate_scene(cfg: SynthConfig):
    """Deterministic ground-truth scene for one seed.

    Thing instances are connected boxes or digitized ellipsoids whose pixel
    footprints keep their 2D mass centers pairwise separated; stuff slabs fill
    the back planes (wall) and bottom rows (floor) of the frustum at pixels not
    claimed by any thing, so every ray meets a single category unless occlusion
    is explicitly allowed.
    """
    frame = FrustumGrid(cfg.width, cfg.height, cfg.planes)
    semantics = np.zeros(frame.shape, dtype=np.int32)
    instances = np.zeros(frame.shape, dtype=np.int32)
    claimed = np.zeros((cfg.height, cfg.width), dtype=bool)
    root = np.random.SeedSequence(cfg.seed)
    placement_rng = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))
    centers = []
    for inst_id in range(1, cfg.n_things + 1):
        for _attempt in range(MAX_ATTEMPTS):
            shape = placement_rng.choice(["box", "ellipsoid"])
            if shape == "box":
                vs, us, ms = _rasterize_box(placement_rng, cfg.width, cfg.height, cfg.planes)
            else:
                vs, us, ms = _rasterize_ellipsoid(placement_rng, cfg.width, cfg.height, cfg.planes)
            if len(vs) == 0:
                continue
            if cfg.occlusion_allowed:
                if np.any(semantics[vs, us, ms] != 0):
                    continue
            else:
                if np.any(claimed[vs, us]):
                    continue
            cu, cv = us.mean(), vs.mean()
            if any(
                np.hypot(cu - c[0], cv - c[1]) < cfg.min_center_separation
                for c in centers
            ):
                continue
            category = cfg.first_thing_category + int(
                placement_rng.integers(0, cfg.n_thing_categories)
            )
            semantics[vs, us, ms] = category
            instances[vs, us, ms] = inst_id
            claimed[vs, us] = True
            centers.append((cu, cv))
            break
        else:
            raise SynthError(
                f"could not place instance {inst_id} within {MAX_ATTEMPTS} attempts "
                "(footprint overlap or center-separation constraint)"
            )
    if cfg.n_stuff >= 2:
        floor_rows = max(2, cfg.height // 6)
        floor_m0 = cfg.planes // 2
        region = ~claimed[cfg.height - floor_rows :, :]
        sub = semantics[cfg.height - floor_rows :, :, floor_m0:]
        sub[region] = 2
        claimed[cfg.height - floor_rows :, :] = True
    if cfg.n_stuff >= 1:
        wall_t = max(2, cfg.planes // 16)
        region = ~claimed
        sub = semantics[:, :, cfg.planes - wall_t :]
        sub[region] = 1
    volume = PanopticVolume(frame, semantics, instances, cfg.categories)
    return SceneGT(volume=volume, intrinsics=cfg.intrinsics(), planes=cfg.depth_planes())


def perturb_priors(
    priors: Priors2D,
    noise: NoiseSpec,
    seed: int,
    planes: DepthPlanes,
) -> Priors2D:
    """Deterministically corrupt a prior bundle. Only the fields that a nonzero
    magnitude corrupts are copied; the rest, always `offsets3d`, are the input's own."""
    streams = np.random.SeedSequence(seed).spawn(4)
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams]
    changed = {}
    if noise.depth_sigma > 0:
        depth = changed["depth"] = priors.depth.copy()
        surface = depth > 0
        depth[surface] += rngs[0].normal(0.0, noise.depth_sigma, size=int(surface.sum()))
        depth[surface] = np.clip(
            depth[surface], planes.z_near, np.nextafter(planes.z_far, planes.z_near)
        )
    if noise.semantic_flip > 0:
        semantics = changed["semantics"] = priors.semantics.copy()
        h, w, c = semantics.shape
        flip = rngs[1].random((h, w)) < noise.semantic_flip
        labels = rngs[1].integers(0, c, size=(h, w))
        vs, us = np.nonzero(flip)
        semantics[vs, us, :] = 0.0
        semantics[vs, us, labels[vs, us]] = 1.0
    if noise.occupancy_flip > 0:
        mp_occupancy = changed["mp_occupancy"] = priors.mp_occupancy.copy()
        for start in range(0, mp_occupancy.size, BLOCK):  # blocked draws repeat one full draw
            block = mp_occupancy.reshape(-1)[start:start + BLOCK]
            np.subtract(1.0, block, out=block, where=rngs[2].random(block.size) < noise.occupancy_flip)
    if noise.center_jitter > 0:
        h, w = priors.heatmap.shape
        centers = changed["centers"] = []
        for c in priors.centers:
            du, dv = rngs[3].integers(-noise.center_jitter, noise.center_jitter + 1, size=2)
            centers.append(replace(c, u=int(np.clip(c.u + du, 0, w - 1)),
                                   v=int(np.clip(c.v + dv, 0, h - 1))))
        changed["heatmap"] = encode_center_heatmap(centers, h, w)
    return replace(priors, **changed)
