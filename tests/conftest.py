import numpy as np
import pytest
from hypothesis import settings

from sceneparse import synthdata

# property tests draw the same examples on every run and keep no example
# database between runs, and a slow machine does not fail them on time
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


def make_scene(n_classes=4, size=128, n_points=6, seed=7, noise=12.0):
    """Voronoi scene raster + 1-based truth raster."""
    classes = synthdata.default_texture_classes(n_classes, noise_sigma=noise)
    spec = synthdata.SceneSpec(
        classes=classes,
        layout=synthdata.VoronoiLayout(n_points=n_points),
        height=size,
        width=size,
    )
    return synthdata.generate_scene_raster(spec, seed)


@pytest.fixture
def small_scene():
    return make_scene()
