import numpy as np
import pytest

from bssnmr import lineshape as ls
from bssnmr import synth


@pytest.fixture(scope="session")
def grid():
    return ls.DEFAULT_GRID


@pytest.fixture(scope="session")
def small_library(grid):
    """72-component library (4 cq x 3 eta x 3 shift x 2 smoothing)."""
    spec = ls.LibraryGridSpec.from_counts(n_cq=4, n_eta=3, n_shift=3,
                                          broaden_exponents=(3, 4))
    return ls.generate_library(spec, grid)


@pytest.fixture(scope="session")
def disjoint_pures_2(grid):
    """Two narrow lines with non-overlapping support."""
    p1 = ls.simulate_pure(ls.QuadrupolarParams(0.0, 0.0, -2500.0,
                                               gaussian_broaden=8.0), grid, "p1")
    p2 = ls.simulate_pure(ls.QuadrupolarParams(0.0, 0.5, 2500.0,
                                               gaussian_broaden=16.0), grid, "p2")
    return [p1, p2]


@pytest.fixture(scope="session")
def disjoint_pures_4(grid):
    """Four narrow lines spread across the window, supports disjoint."""
    shifts = (-3600.0, -1400.0, 800.0, 3000.0)
    etas = (0.0, 0.3, 0.6, 0.9)
    widths = (8.0, 12.0, 8.0, 16.0)
    return [ls.simulate_pure(
        ls.QuadrupolarParams(0.0, etas[j], shifts[j], gaussian_broaden=widths[j]),
        grid, f"disjoint{j}") for j in range(4)]


@pytest.fixture()
def rank1_dataset(grid, small_library):
    """Provenance-free dataset whose 20 rows are multiples of one spectrum."""
    pure = small_library[37]
    weights = synth.inversion_profile(1.0, 1.0, synth.recovery_times(1.0))
    spectra = np.outer(weights, pure.intensity)
    return synth.MixtureDataset(grid=grid, spectra=spectra), pure


def aligned_abs_correlation(estimate, truth):
    """Best |corr| assignment of estimated rows onto true rows (greedy exact
    for the small sizes used in tests)."""
    import itertools
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    corr = np.zeros((len(estimate), len(truth)))
    for i, e in enumerate(estimate):
        for j, t in enumerate(truth):
            ec = e - e.mean()
            tc = t - t.mean()
            denom = np.linalg.norm(ec) * np.linalg.norm(tc)
            corr[i, j] = abs(ec @ tc) / denom if denom > 0 else 0.0
    best = None
    for perm in itertools.permutations(range(len(estimate)), len(truth)):
        vals = [corr[perm[j], j] for j in range(len(truth))]
        score = min(vals)
        if best is None or score > best[0]:
            best = (score, vals)
    return best[1]
