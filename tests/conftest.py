import pytest
from hypothesis import settings

from polyscope import (WelchConfig, generate_polytree_aln, simulate,
                       spectral_matrix)
from polyscope.wiener import _clears_screen

# keep the suite deterministic run to run
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="module")
def wide_record():
    """A 32-series simulated record whose spectral matrix clears the screen."""
    sim = simulate(generate_polytree_aln(32, 7), 2 ** 13, seed=11)
    S = spectral_matrix(sim.ensemble, WelchConfig(grid_size=64))
    assert _clears_screen(S)
    return S
