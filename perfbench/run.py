"""Run one panrec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload clean-128 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; panrec is imported from `src/`.
With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics, taken
by running every scene both untraced and traced. See README.md.
"""
import os

# Set before numpy loads anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_RUNS = 3         # fresh interpreters timed for setup_s
WARMUP_SEED = 1000     # scene seed of the warm-up scene, outside every seed list


def scene_order(seed: int, scenes: int):
    """The workload's fixed seed list 0..scenes-1, in an order drawn from `seed`.

    Every run of a workload processes the same scenes, so PRQ and the output
    digest repeat exactly across runs and seeds; `seed` only reorders them.
    """
    order = list(range(scenes))
    random.Random(seed).shuffle(order)
    return order


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum untraced scene seconds; a run covers the seed list a whole number of times")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scenes", type=int, default=None,
                   help="seed-list length (default: the workload's fixed count)")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.scenes is not None and not 1 <= args.scenes < WARMUP_SEED:
        p.error(f"--scenes must be in [1, {WARMUP_SEED - 1}]")
    return args


def import_workloads():
    """Import panrec from this checkout's `src/`, then the workload table."""
    if not (SRC / "panrec" / "__init__.py").is_file():
        raise SystemExit(f"error: no panrec sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import panrec
    import panrec.cli  # noqa: F401  (setup_s covers importing the CLI)

    if Path(panrec.__file__).resolve().parent != SRC / "panrec":
        raise SystemExit(f"error: panrec imported from {panrec.__file__}, not {SRC}")
    import workloads

    return workloads


def probe(args):
    """Child process for setup_s: import, finish the warm-up scene, report."""
    workloads = import_workloads()
    w = workloads.WORKLOADS[args.workload]
    w.produce(WARMUP_SEED, args.workdir)
    print("ready", flush=True)
    shutil.rmtree(args.workdir, ignore_errors=True)


def measure_setup(args, tmp: Path):
    """Median wall time, over fresh interpreters, from launch to warm-up done."""
    samples = []
    for k in range(SETUP_RUNS):
        cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--workdir", str(tmp / f"probe-{k}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: setup probe {k} failed (exit code {code})")
        samples.append(elapsed)
    return samples


class Pass:
    """Scenes run in one mode (untraced or traced) and what they cost."""

    def __init__(self):
        self.times = []          # wall seconds of each completed scene
        self.wall = 0.0          # timed wall seconds of every attempted scene
        self.user = self.sys = 0.0
        self.attempted = 0
        self.failed = 0

    @property
    def scenes_per_s(self):
        return len(self.times) / self.wall


def run_scene(w, seed, tmp, results, p: Pass, tracer=None):
    """Produce one scene (timed), check it (untimed) and record it in `p`.

    `results` maps seed -> (prq, digest) from the first run of that seed; any
    later run of the same seed, traced or not, must reproduce it exactly.
    """
    workdir = tmp / f"scene-{seed}"
    error = output = None
    if tracer is not None:
        tracer.install()
        tracer.begin_scene()
    cpu0 = os.times()
    t0 = time.perf_counter()
    try:
        output = w.produce(seed, workdir)
    except (Exception, SystemExit) as exc:   # the CLI exits on bad input
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        cpu1 = os.times()
        if tracer is not None:
            tracer.end()
            tracer.uninstall()
    p.attempted += 1
    p.wall += elapsed
    p.user += cpu1.user - cpu0.user
    p.sys += cpu1.system - cpu0.system
    if error is None:
        try:
            prq, digest, problems = w.check(seed, output, workdir)
        except Exception as exc:
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        else:
            first = results.setdefault(seed, (prq, digest))
            if first != (prq, digest):
                problems.append(f"not reproducible: {first} then {(prq, digest)}")
        error = "; ".join(problems) or None
    shutil.rmtree(workdir, ignore_errors=True)
    if error is None:
        p.times.append(elapsed)
    else:
        p.failed += 1
        print(f"FAILED {w.name} seed {seed}: {error}", file=sys.stderr)


def run_loop(w, seeds, seconds, tmp, results, tracer=None):
    """Closed loop over whole passes of the seed list, until `seconds` of
    untraced scene time have been measured; every seed runs equally often.

    With a tracer, each scene runs untraced and traced back to back, in an
    order that alternates per scene, so both modes see the same scenes under
    the same machine conditions and the difference is the tracing overhead.
    """
    plain, traced = Pass(), Pass()
    while True:
        for i, seed in enumerate(seeds):
            modes = [(plain, None)]
            if tracer is not None:
                modes.append((traced, tracer))
                if i % 2:
                    modes.reverse()
            for p, t in modes:
                run_scene(w, seed, tmp, results, p, t)
        if plain.wall >= seconds:
            return plain, traced


def run_digest(seeds, results) -> str:
    h = hashlib.sha256()
    for seed in sorted(seeds):
        h.update(f"{seed} {results.get(seed, ('failed', 'failed'))[1]}\n".encode())
    return h.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    BUILD.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp: Path):
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    seeds = scene_order(args.seed, args.scenes or w.scenes)
    setup = [] if args.trace else measure_setup(args, tmp)

    warm = WARMUP_SEED
    _prq, _digest, problems = w.check(warm, w.produce(warm, tmp / "warmup"), tmp / "warmup")
    shutil.rmtree(tmp / "warmup", ignore_errors=True)
    if problems:
        raise SystemExit(f"error: warm-up scene {warm} failed its check: {'; '.join(problems)}")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    results = {}
    plain, traced = run_loop(w, seeds, args.seconds, tmp, results, tracer)
    # A seed that raised has no result and counts as PRQ 0.
    prqs = [results.get(s, (0.0,))[0] for s in sorted(seeds)]
    prq_mean = statistics.fmean(prqs)
    print(f"workload {w.name}: {w.size}; seeds 0..{len(seeds) - 1} "
          f"in order {args.seed}, warm-up seed {warm}")
    if args.trace:
        from tracing import layer_metrics

        metrics = layer_metrics(tracer, traced.attempted)
        metrics.update({
            "process.user_s": (plain.user / plain.attempted, "s"),
            "process.sys_s": (plain.sys / plain.attempted, "s"),
            "scene.untraced_s": (plain.wall / plain.attempted, "s"),
            "scene.traced_s": (traced.wall / traced.attempted, "s"),
            "trace.untraced_scenes_per_s": (plain.scenes_per_s, "1/s"),
            "trace.traced_scenes_per_s": (traced.scenes_per_s, "1/s"),
            "trace.overhead_frac": (plain.scenes_per_s / traced.scenes_per_s - 1, "ratio"),
        })
        tracer.dump(BUILD / f"trace-{w.name}-seed{args.seed}.json")
        if tracer.missing:
            print(f"missing (no longer in panrec): {', '.join(tracer.missing)}")
    else:
        metrics = {
            "scenes_per_s": (plain.scenes_per_s, "1/s"),
            "scene_s_p50": (statistics.median(plain.times) if plain.times else None, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "prq_mean": (prq_mean, "ratio"),
        }
    passes = [plain, traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    for name, (value, unit) in metrics.items():
        print(f"{name} {'missing' if value is None else f'{value:.6g}'} {unit}")
    print(f"scenes timed {len(plain.times)} of {plain.attempted} attempted "
          f"in {plain.attempted // len(seeds)} pass(es), {plain.wall:.3f} s timed"
          + ("" if args.trace else f"; setup_s over {len(setup)} interpreters"))
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"prq_mean exactly {prq_mean!r} over {len(prqs)} seeds")
    print(f"digest sha256:{run_digest(seeds, results)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
