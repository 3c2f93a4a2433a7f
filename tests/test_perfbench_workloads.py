"""The benchmark's workloads produce the same outputs: for seeds 0 and 1 of each
workload in `perfbench/workloads.py`, its `produce` then its `check` report no
problem, and the scene's digest equals the one recorded here. The digests pin
every output the benchmark checks, so a change that alters any of them fails
here and not only in a benchmark run. This reads `perfbench/` and edits none of it."""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Under its own name, since its dataclasses look their module up in sys.modules.
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# (workload, seed) -> the digest that the workload's `check` returns.
GOLDEN = {
    ("clean-128", 0): "fc450f8e8a73e4437998a223ee3b6ab139bcd7244cc60b6f3f07456deb5c91e5",
    ("clean-128", 1): "2ec7abec185fbac066f153d072b646dc17af25b012311ca0da82bd643857cc91",
    ("crowded-noisy-96", 0): "93b5f0112a25fc1fed730e5e0902388c58e06d0debcf7b5ac23a11d81d7b3642",
    ("crowded-noisy-96", 1): "b6262c615feafe6d56f331ba3174b00e15ebd72770ec97049469fd22d8369843",
    ("cli-64", 0): "5745f61f48d8ed985a577df5556fac1d0a90e359cf90cce45682c5064c05a179",
    ("cli-64", 1): "5f81474befe26bb1133bc4c2d08673180f099b1a77ff0b01a24e2c1e8610dffd",
}


def test_every_workload_is_pinned():
    assert {name for name, _seed in GOLDEN} == set(workloads.WORKLOADS)


# Corrupted centers leave some thing cells without a center of their category.
@pytest.mark.filterwarnings("ignore:.*had no center of their category:UserWarning")
@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_workload_output_is_unchanged(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    workdir = tmp_path / "scene"
    output = workload.produce(seed, workdir)
    _prq, digest, problems = workload.check(seed, output, workdir)
    assert problems == []
    assert digest == GOLDEN[name, seed]
