import math

import numpy as np
import pytest

from bssnmr import synth
from bssnmr.errors import DegenerateRowError


# ---------------------------------------------------------------------------
# intensity profiles
# ---------------------------------------------------------------------------

def test_inversion_starts_fully_inverted():
    w = synth.inversion_profile(2.0, 1.0, np.array([0.0]))
    assert abs(w[0] + 2.0) < 1e-12


def test_inversion_zero_crossing():
    t1 = 0.8
    w = synth.inversion_profile(1.0, t1, np.array([t1 * math.log(2.0)]))
    assert abs(w[0]) < 1e-12


def test_inversion_recovery_fraction():
    # numerically solve 1 - 2 exp(-x) = 0.985 -> x = ln(2 / 0.015)
    x = math.log(2.0 / 0.015)
    assert abs(x - 4.8929) < 1e-4
    w = synth.inversion_profile(1.0, 1.0, np.array([4.8929]))
    assert abs(w[0] - 0.985) < 1e-4


def test_inversion_validation():
    with pytest.raises(ValueError):
        synth.inversion_profile(1.0, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        synth.inversion_profile(1.0, 1.0, np.array([2.0, 1.0]))


def test_nutation_endpoints():
    assert abs(synth.nutation_profile(1.5, 0.6, np.array([0.0]))[0] - 1.5) < 1e-12
    assert abs(synth.nutation_profile(1.0, 0.5, np.array([1.0]))[0] + 1.0) < 1e-12
    assert abs(synth.nutation_profile(1.0, 0.5, np.array([0.5]))[0]) < 1e-12


def test_nutation_validation():
    with pytest.raises(ValueError):
        synth.nutation_profile(1.0, 0.4, np.array([0.5]))
    with pytest.raises(ValueError):
        synth.nutation_profile(1.0, 0.6, np.array([1.5]))


# ---------------------------------------------------------------------------
# reservoir sampling
# ---------------------------------------------------------------------------

def test_sample_whole_library(small_library):
    chosen = synth.sample_components(small_library, len(small_library), 0)
    assert {c.id for c in chosen} == {c.id for c in small_library}


def test_sample_deterministic(small_library):
    a = synth.sample_components(small_library, 5, 99)
    b = synth.sample_components(small_library, 5, 99)
    assert [c.id for c in a] == [c.id for c in b]


def test_sample_bounds(small_library):
    with pytest.raises(ValueError):
        synth.sample_components(small_library, 0, 1)
    with pytest.raises(ValueError):
        synth.sample_components(small_library, len(small_library) + 1, 1)


def _reservoir_loop(library, k, rng):
    """Reservoir sampling with one ``rng.integers`` call per entry past k:
    the reference for the one-call draws of ``sample_components``."""
    reservoir = list(library[:k])
    for i in range(k, len(library)):
        j = int(rng.integers(0, i + 1))
        if j < k:
            reservoir[j] = library[i]
    return reservoir


@pytest.mark.parametrize("n", [1, 72, 1600, 32000])
def test_one_call_draws_equal_the_loop(n):
    library = [f"c{i}" for i in range(n)]
    for k in sorted({1, min(4, n), min(10, n), max(1, n // 2), n - 1 or 1, n}):
        oracle_rng = np.random.default_rng([3, n, k])
        expected = _reservoir_loop(library, k, oracle_rng)
        rng = np.random.default_rng([3, n, k])
        assert synth.sample_components(library, k, rng) == expected, (n, k)
        assert rng.random() == oracle_rng.random(), (n, k)


def test_sample_uniformity():
    items = list(range(10))
    counts = np.zeros(10)
    n_seeds = 100_000
    for seed in range(n_seeds):
        counts[synth.sample_components(items, 1, seed)[0]] += 1
    freqs = counts / n_seeds
    assert np.all(np.abs(freqs - 0.1) < 0.005)


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def test_assembly_additive_on_disjoint_supports(disjoint_pures_2):
    ds = synth.assemble_dataset(disjoint_pures_2, "inversion", 4, noise_factor=0.0)
    assert ds.spectra.shape == (20, disjoint_pures_2[0].grid.n_points)
    for i, pure in enumerate(disjoint_pures_2):
        support = pure.intensity > 1e-6 * pure.intensity.max()
        weights = ds.components[i].values
        scale = pure.intensity.max()
        for j in range(20):
            residual = ds.spectra[j, support] - weights[j] * pure.intensity[support]
            assert np.max(np.abs(residual)) < 1e-12 * scale


def test_assembly_additivity_matrix(small_library):
    pures = synth.sample_components(small_library, 4, 11)
    ds = synth.assemble_dataset(pures, "inversion", 11, noise_factor=0.0)
    weights = np.stack([s.values for s in ds.components], axis=1)
    pure_matrix = np.stack([p.intensity for p in pures])
    assert np.max(np.abs(ds.spectra - weights @ pure_matrix)) < 1e-12


def test_assembly_rank_matches_component_count(small_library):
    pures = synth.sample_components(small_library, 5, 21)
    ds = synth.assemble_dataset(pures, "nutation", 21, noise_factor=0.0)
    s = np.linalg.svd(ds.spectra, compute_uv=False)
    assert np.all(s[:5] > 1e-10 * s[0])
    assert np.all(s[5:] < 1e-10 * s[0])


def test_assembly_reproducible(small_library):
    pures = synth.sample_components(small_library, 3, 5)
    a = synth.assemble_dataset(pures, "inversion", 42, noise_factor=0.0005)
    b = synth.assemble_dataset(pures, "inversion", 42, noise_factor=0.0005)
    assert a.spectra.tobytes() == b.spectra.tobytes()


def test_assembly_accepts_noise_ladder(small_library):
    pures = synth.sample_components(small_library, 2, 7)
    for noise in synth.NOISE_LEVELS:
        ds = synth.assemble_dataset(pures, "inversion", 7, noise_factor=noise)
        assert ds.noise_factor == noise


def test_inversion_invariants(small_library):
    for seed in range(10):
        pures = synth.sample_components(small_library, 4, seed)
        ds = synth.assemble_dataset(pures, "inversion", seed, noise_factor=0.0)
        amplitudes = np.array([s.A for s in ds.components])
        assert amplitudes.min() >= synth.MIN_AMPLITUDE_FRACTION * amplitudes.max()
        for series in ds.components:
            values = series.values
            assert np.all(np.diff(values) > 0), "weights must increase with tau"
            assert values[-1] >= 0.985 * series.A - 1e-12
            # continuous profile crosses zero exactly once in (0, tau_max]
            crossing = series.T1 * math.log(2.0)
            tau_max = synth.TAU_MAX_FACTOR * max(s.T1 for s in ds.components)
            assert 0.0 < crossing < tau_max
            signs = np.sign(values)
            flips = np.sum(np.abs(np.diff(signs)) > 0)
            assert flips <= 1


def test_nutation_invariants(small_library):
    for seed in range(10):
        pures = synth.sample_components(small_library, 4, seed)
        ds = synth.assemble_dataset(pures, "nutation", seed, noise_factor=0.0)
        freqs = [s.f for s in ds.components]
        assert freqs[0] == 0.5
        assert all(0.5 < f <= 0.75 for f in freqs[1:])
        assert all(0.0 < s.A <= 1.0 for s in ds.components)


def test_assembly_component_count_bounds(small_library):
    with pytest.raises(ValueError):
        synth.assemble_dataset(small_library[:1], "inversion", 1)
    with pytest.raises(ValueError):
        synth.assemble_dataset(small_library[:11], "inversion", 1)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_none_is_identity(small_library):
    pures = synth.sample_components(small_library, 3, 2)
    ds = synth.assemble_dataset(pures, "inversion", 2)
    assert synth.normalize(ds, "none") is ds


def test_normalize_peak(small_library):
    pures = synth.sample_components(small_library, 3, 2)
    ds = synth.assemble_dataset(pures, "inversion", 2)
    out = synth.normalize(ds, "peak")
    peaks = np.max(np.abs(out.spectra), axis=1)
    assert np.max(np.abs(peaks - 1.0)) < 1e-12
    assert out.normalization == "peak"


def test_normalize_area_preserves_shape(small_library):
    pures = synth.sample_components(small_library, 3, 2)
    ds = synth.assemble_dataset(pures, "inversion", 2)
    out = synth.normalize(ds, "area")
    sums = np.sum(np.abs(out.spectra), axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    for j in range(20):
        scale = np.sum(np.abs(ds.spectra[j]))
        assert np.max(np.abs(out.spectra[j] * scale - ds.spectra[j])) < 1e-12


def test_normalize_degenerate_row(grid):
    spectra = np.vstack([np.zeros(grid.n_points), np.ones(grid.n_points)])
    ds = synth.MixtureDataset(grid=grid, spectra=spectra)
    with pytest.raises(DegenerateRowError, match="row 0"):
        synth.normalize(ds, "peak")
    with pytest.raises(ValueError):
        synth.normalize(ds, "bogus")
