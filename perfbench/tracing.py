"""Per-layer tracing of panrec from outside its source tree.

panrec's modules import names directly (`from .lifting import
occupancy_aware_lift`), so each public function is wrapped at every panrec
module attribute that refers to it: that is where its callers look it up.
CLI commands are wrapped at their click `callback`. Spans (name, start, end,
parent) are kept in memory; a layer's self time is its span minus its child
spans. Counts are taken from each call's arguments and result inside a
`trace.counting` span, so they are not charged to any layer.
"""
from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from panrec.volume import VOID

ROOT = "scene"
COUNTING = "trace.counting"


@dataclass(frozen=True)
class Layer:
    name: str                          # span name; its self time is `<name>_s`
    module: str                        # module that defines the function
    attr: str                          # function name in that module
    count: Callable | None = None      # (tracer, bound arguments, result) -> None


def _lift(t, a, fv):
    t.count("lifting.feature_mb", fv.features.nbytes / 1e6)


def _mask(t, a, out):
    t.count("reconstruction.occupied_cells", int(np.count_nonzero(out[2])))


def _group(t, a, things):
    per_category = np.bincount(things.semantics.ravel(), minlength=len(a["categories"]))
    per_category[VOID] = 0
    centers = collections.Counter(c.category for c in a["centers"])
    t.count("reconstruction.thing_cells", int(per_category.sum()))
    t.count("reconstruction.center_tests",
            sum(int(per_category[k]) * n for k, n in centers.items()))


def _extract_centers(t, a, centers):
    t.count("priors.peak_candidates", int(np.count_nonzero(a["heatmap"] >= a["threshold"])))
    t.count("priors.peaks_kept", len(centers))


def _segments(t, a, segments):
    t.count("metrics.segments", len(segments))


def _match(t, a, out):
    t.count("metrics.true_positives", len(out[0]))


def _export_obj(t, a, _result):
    obj = os.fspath(a["obj_path"])
    mtl = os.path.splitext(obj)[0] + ".mtl"
    with open(obj, "rb") as f:
        t.count("mesh.triangles", f.read().count(b"\nf "))
    t.count("mesh.obj_mb", (os.path.getsize(obj) + os.path.getsize(mtl)) / 1e6)


def _written(t, a, _result):
    t.count("containers.written_mb", os.path.getsize(a["path"]) / 1e6)


def _read(t, a, _result):
    t.count("containers.read_mb", os.path.getsize(a["path"]) / 1e6)


LAYERS = [
    Layer("synth.generate_scene", "panrec.synth", "generate_scene"),
    Layer("synth.perturb_priors", "panrec.synth", "perturb_priors"),
    Layer("priors.derive_priors", "panrec.priors", "derive_priors"),
    Layer("priors.extract_centers", "panrec.priors", "extract_centers", _extract_centers),
    Layer("pipeline.reconstruct_from_priors", "panrec.pipeline", "reconstruct_from_priors"),
    Layer("lifting.occupancy_aware_lift", "panrec.lifting", "occupancy_aware_lift", _lift),
    Layer("reconstruction.mask_by_occupancy", "panrec.reconstruction", "mask_by_occupancy", _mask),
    Layer("reconstruction.group_instances", "panrec.reconstruction", "group_instances", _group),
    Layer("reconstruction.assemble_panoptic", "panrec.reconstruction", "assemble_panoptic"),
    Layer("metrics.prq", "panrec.metrics", "prq"),
    Layer("metrics.extract_segments", "panrec.metrics", "extract_segments", _segments),
    Layer("metrics.match_segments", "panrec.metrics", "match_segments", _match),
    Layer("losses.tsdf_from_occupancy", "panrec.losses", "tsdf_from_occupancy"),
    Layer("losses.loss_3d", "panrec.losses", "loss_3d"),
    Layer("mesh.export_obj", "panrec.mesh", "export_obj", _export_obj),
    Layer("containers.write", "panrec.containers", "write_container", _written),
    Layer("containers.read", "panrec.containers", "read_container", _read),
]

# Functions whose calls are only counted: timing them would cost more than
# they do. Their time stays with the calling layer.
CALL_COUNTS = [
    ("metrics.iou_pairs", "panrec.metrics", "iou"),
]

# Module-level `warnings` references whose `warn` calls are counted.
WARNING_COUNTS = [
    ("reconstruction.warnings", "panrec.reconstruction"),
]

CLI_COMMANDS = ["synth", "derive-priors", "lift", "group", "eval", "loss"]


class _CountingWarnings:
    """Stands in for the `warnings` module inside one panrec module."""

    def __init__(self, tracer, name):
        self._tracer, self._name = tracer, name

    def warn(self, *args, **kwargs):
        if self._tracer.active:
            self._tracer.count(self._name, 1)
        kwargs.setdefault("stacklevel", 2)
        return warnings.warn(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(warnings, attr)


class Tracer:
    """Builds the wrappers once; `install` and `uninstall` swap them in and out,
    so untraced scenes run panrec's own functions."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.missing = []     # layer or counter names whose function no longer exists
        self._stack = []
        self._patches = []    # (object, attribute, original, replacement)
        self._build()

    @property
    def active(self) -> bool:
        """Calls are recorded only inside a scene span; checks run outside one."""
        return bool(self._stack)

    def count(self, name, n):
        self.counts[name] += n

    def begin(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)

    def begin_scene(self):
        self.begin(ROOT)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def install(self):
        for obj, attr, _original, replacement in self._patches:
            setattr(obj, attr, replacement)

    def uninstall(self):
        for obj, attr, original, _replacement in self._patches:
            setattr(obj, attr, original)

    def _build(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "panrec" or n.startswith("panrec."))]

        def patch_everywhere(original, replacement):
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, replacement))

        for layer in LAYERS:
            original = getattr(sys.modules.get(layer.module), layer.attr, None)
            if original is None:
                self.missing.append(layer.name)
                continue
            patch_everywhere(original, self._timed(layer.name, original, layer.count))
        for name, module, attr in CALL_COUNTS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            patch_everywhere(original, self._counted(name, original))
        for name, module in WARNING_COUNTS:
            mod = sys.modules.get(module)
            if getattr(mod, "warnings", None) is not warnings:
                self.missing.append(name)
                continue
            self._patches.append((mod, "warnings", warnings, _CountingWarnings(self, name)))
        cli = sys.modules.get("panrec.cli")
        commands = getattr(getattr(cli, "main", None), "commands", {})
        for command in CLI_COMMANDS:
            if command not in commands:
                self.missing.append(f"cli.{command}")
                continue
            cmd = commands[command]
            self._patches.append(
                (cmd, "callback", cmd.callback, self._timed(f"cli.{command}", cmd.callback, None))
            )

    def _timed(self, name, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                self.begin(COUNTING)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self, bound.arguments, result)
                finally:
                    self.end()
            return result

        return traced

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name: its duration minus its children's."""
        totals = collections.Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, f)


def layer_metrics(tracer: Tracer, scenes: int) -> dict:
    """Per-scene self times and counts, as {metric name: (value, unit)}.

    A layer whose function no longer exists reads None, not zero.
    """
    selfs = tracer.self_times()
    c = tracer.counts
    out = {}

    def put(name, value, unit, source=None):
        out[name] = (None if (source or name) in tracer.missing else value, unit)

    for layer in LAYERS:
        put(f"{layer.name}_s", selfs.get(layer.name, 0.0) / scenes, "s", layer.name)
    for command in CLI_COMMANDS:
        name = f"cli.{command}"
        put(f"{name}_s", selfs.get(name, 0.0) / scenes, "s", name)
    put("scene.other_s", selfs.get(ROOT, 0.0) / scenes, "s")
    put("trace.counting_s", selfs.get(COUNTING, 0.0) / scenes, "s")
    put("lifting.feature_mb", c["lifting.feature_mb"] / scenes, "MB",
        "lifting.occupancy_aware_lift")
    for name, source in [("occupied_cells", "mask_by_occupancy"),
                         ("thing_cells", "group_instances"),
                         ("center_tests", "group_instances")]:
        put(f"reconstruction.{name}", c[f"reconstruction.{name}"] / scenes, "count",
            f"reconstruction.{source}")
    put("reconstruction.warnings", c["reconstruction.warnings"] / scenes, "count")
    put("priors.peak_candidates", c["priors.peak_candidates"] / scenes, "count",
        "priors.extract_centers")
    put("priors.peak_yield", _ratio(c["priors.peaks_kept"], c["priors.peak_candidates"]),
        "ratio", "priors.extract_centers")
    put("metrics.segments", c["metrics.segments"] / scenes, "count",
        "metrics.extract_segments")
    put("metrics.iou_pairs", c["metrics.iou_pairs"] / scenes, "count")
    put("metrics.match_yield", _ratio(c["metrics.true_positives"], c["metrics.iou_pairs"]),
        "ratio", "metrics.match_segments")
    put("mesh.triangles", c["mesh.triangles"] / scenes, "count", "mesh.export_obj")
    put("mesh.obj_mb", c["mesh.obj_mb"] / scenes, "MB", "mesh.export_obj")
    put("containers.written_mb", c["containers.written_mb"] / scenes, "MB", "containers.write")
    put("containers.read_mb", c["containers.read_mb"] / scenes, "MB", "containers.read")
    return out


def _ratio(num, den):
    return num / den if den else 0.0
