import os

import numpy as np
import pytest
from hypothesis import settings

from panrec.priors import derive_priors
from panrec.synth import SynthConfig, generate_scene

# CI runs (GitHub sets CI) draw the same examples every time, so a property
# test cannot pass on one push and fail on the next with unchanged code.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def small_scene():
    return generate_scene(
        SynthConfig(seed=11, width=32, height=32, planes=32, n_things=3,
                    min_center_separation=8.0)
    )


@pytest.fixture
def small_priors(small_scene):
    return derive_priors(small_scene)


def seeded_scenes(n, **overrides):
    """Deterministic batch of small scenes for oracle comparisons."""
    defaults = dict(width=32, height=32, planes=32, n_things=3,
                    min_center_separation=8.0)
    defaults.update(overrides)
    return [generate_scene(SynthConfig(seed=s, **defaults)) for s in range(n)]
