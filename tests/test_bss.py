import dataclasses
import warnings

import numpy as np
import pytest

from bssnmr import bss, synth
from bssnmr.errors import TechniqueFailure
from bssnmr.scoring import best_assignment
from conftest import aligned_abs_correlation

ALL_FAMILY_REPRESENTATIVES = [
    "svd", "truncated_svd", "pca", "fastica", "jade", "sobi", "vca",
    "nnmf:nndsvd", "simplisma:offset2", "mcr:ols_als",
]


def make_dataset(spectra, grid):
    return synth.MixtureDataset(grid=grid, spectra=np.array(spectra, dtype=float))


def cosine(a, b):
    return abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


# ---------------------------------------------------------------------------
# technique identifiers
# ---------------------------------------------------------------------------

def test_technique_roster():
    names = tuple(bss.TECHNIQUES)
    assert "nnmf:nndsvdar" in names
    assert "simplisma:offset8" in names
    assert "mcr:nnls:random" in names
    assert len(names) == 7 + 4 + 5 + 4
    # the bench seeds each technique by its index in this tuple
    assert names == (
        "svd", "truncated_svd", "pca", "fastica", "jade", "sobi", "vca",
        "nnmf:random", "nnmf:nndsvd", "nnmf:nndsvda", "nnmf:nndsvdar",
        "simplisma:offset0", "simplisma:offset2", "simplisma:offset8",
        "simplisma:offset12", "simplisma:offset15",
        "mcr:ols_als", "mcr:ols_als:random", "mcr:nnls", "mcr:nnls:random")


def test_parse_technique_validates():
    tech = bss.parse_technique("nnmf:nndsvd")
    assert tech.family == "nnmf" and tech.variant == "nndsvd"
    with pytest.raises(ValueError, match="valid:"):
        bss.parse_technique("nnmf:bogus")
    with pytest.raises(ValueError):
        bss.parse_technique("unknown")
    with pytest.raises(ValueError):
        bss.parse_technique(" svd")     # a name is never stripped


# ---------------------------------------------------------------------------
# decompose dispatcher contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("technique", ALL_FAMILY_REPRESENTATIVES)
def test_rank1_recovery_every_family(technique, rank1_dataset):
    dataset, pure = rank1_dataset
    result = bss.decompose(dataset, technique, 1, seed=3)
    assert result.components.shape == (1, dataset.grid.n_points)
    assert cosine(result.components[0], pure.intensity) > 0.9999


def test_svd_full_rank_reconstruction(small_library):
    pures = synth.sample_components(small_library, 6, 31)
    ds = synth.assemble_dataset(pures, "inversion", 31, noise_factor=0.0002)
    result = bss.decompose(ds, "svd", 20)
    recon = result.coefficients @ result.components
    rel = np.linalg.norm(recon - ds.spectra) / np.linalg.norm(ds.spectra)
    assert rel < 1e-8


@pytest.mark.parametrize("technique", ALL_FAMILY_REPRESENTATIVES
                         + ["nnmf:random", "mcr:nnls:random"])
def test_decompose_deterministic(technique, small_library):
    pures = synth.sample_components(small_library, 3, 13)
    ds = synth.assemble_dataset(pures, "nutation", 13, noise_factor=0.0003)
    a = bss.decompose(ds, technique, 3, seed=17)
    b = bss.decompose(ds, technique, 3, seed=17)
    assert a.components.tobytes() == b.components.tobytes()
    assert a.coefficients.tobytes() == b.coefficients.tobytes()
    assert a.converged == b.converged


def test_decompose_k_bounds(rank1_dataset):
    dataset, _ = rank1_dataset
    with pytest.raises(ValueError):
        bss.decompose(dataset, "svd", 0)
    with pytest.raises(ValueError):
        bss.decompose(dataset, "svd", 21)


def test_decompose_does_not_mutate_input(small_library):
    pures = synth.sample_components(small_library, 3, 41)
    ds = synth.assemble_dataset(pures, "inversion", 41, noise_factor=0.0005)
    before = ds.spectra.copy()
    for technique in ("fastica", "nnmf:nndsvd", "mcr:nnls"):
        bss.decompose(ds, technique, 3, seed=1)
    assert np.array_equal(ds.spectra, before)


# ---------------------------------------------------------------------------
# shared factorizations
# ---------------------------------------------------------------------------

FACTORED_TECHNIQUES = ["svd", "truncated_svd", "pca", "fastica", "jade", "sobi",
                       "vca", *(f"nnmf:{init}" for init in bss.NNMF_INITS),
                       "mcr:ols_als", "mcr:nnls"]


def counting_svd(monkeypatch):
    calls = []
    real = bss.svd

    def svd(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(bss, "svd", svd)
    return calls


def test_warm_factors_give_the_fresh_result(small_library):
    pures = synth.sample_components(small_library, 4, 43)
    ds = synth.assemble_dataset(pures, "inversion", 43, noise_factor=0.0003)
    for technique in reversed(tuple(bss.TECHNIQUES)):
        for k in (2, 3, 5):
            bss.decompose(ds, technique, k, seed=5)
    branches = set()
    for k in (1, 4):        # vca: projective at k = 1, affine at k = 4
        for technique in FACTORED_TECHNIQUES:
            fresh = dataclasses.replace(ds, spectra=ds.spectra.copy())
            warm = bss.decompose(ds, technique, k, seed=7)
            want = bss.decompose(fresh, technique, k, seed=7)
            assert warm.components.tobytes() == want.components.tobytes(), technique
            assert warm.coefficients.tobytes() == want.coefficients.tobytes(), technique
            assert warm.converged == want.converged
            branches.add(warm.meta.get("branch"))
    assert {"projective", "affine"} <= branches


def test_factors_memoized_per_dataset_and_form(small_library, monkeypatch):
    pures = synth.sample_components(small_library, 3, 13)
    ds = synth.assemble_dataset(pures, "nutation", 13, noise_factor=0.0003)
    calls = counting_svd(monkeypatch)
    for k in (1, 2, 3):
        for technique in ("svd", "truncated_svd", "fastica", "jade", "mcr:ols_als"):
            bss.decompose(ds, technique, k, seed=1)
    assert len(calls) == 1
    bss.decompose(ds, "pca", 2)
    bss.decompose(dataclasses.replace(ds), "svd", 2)
    assert len(calls) == 3


def test_dataset_spectra_fixed_after_construction(grid):
    base = np.random.default_rng(3).standard_normal((30, grid.n_points))
    ds = synth.MixtureDataset(grid=grid, spectra=base[:20])
    first = bss.decompose(ds, "svd", 2)
    base *= 2.0
    assert base.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ds.spectra[0, 0] = 0.0
    assert np.array_equal(ds.spectra, base[:20] / 2.0)
    fresh = bss.decompose(synth.MixtureDataset(grid=grid, spectra=ds.spectra),
                          "svd", 2)
    again = bss.decompose(ds, "svd", 2)
    assert np.array_equal(again.coefficients, first.coefficients)
    assert np.array_equal(again.coefficients, fresh.coefficients)


# ---------------------------------------------------------------------------
# subspace family
# ---------------------------------------------------------------------------

def test_pca_equals_svd_on_column_centered_data(grid):
    rng = np.random.default_rng(51)
    x = rng.standard_normal((20, grid.n_points))
    x -= x.mean(axis=0, keepdims=True)
    ds = make_dataset(x, grid)
    svd_comps = bss.decompose(ds, "svd", 5).components
    pca_comps = bss.decompose(ds, "pca", 5).components
    for a, b in zip(svd_comps, pca_comps):
        assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-10


def test_explained_variance_ordering(small_library):
    pures = synth.sample_components(small_library, 6, 8)
    ds = synth.assemble_dataset(pures, "inversion", 8, noise_factor=0.0002)
    result = bss.decompose(ds, "pca", 6)
    coeff_power = np.sum(result.coefficients ** 2, axis=0)
    assert np.all(np.diff(coeff_power) <= 1e-9 * coeff_power[0])


def test_truncated_svd_exact_at_true_rank(small_library):
    pures = synth.sample_components(small_library, 4, 9)
    ds = synth.assemble_dataset(pures, "nutation", 9, noise_factor=0.0)
    rank = int(np.sum(np.linalg.svd(ds.spectra, compute_uv=False)
                      > 1e-10 * np.linalg.norm(ds.spectra)))
    result = bss.decompose(ds, "truncated_svd", rank)
    recon = result.coefficients @ result.components
    assert np.linalg.norm(recon - ds.spectra) < 1e-9 * np.linalg.norm(ds.spectra)


# ---------------------------------------------------------------------------
# fastica
# ---------------------------------------------------------------------------

def sparse_sources(rng, n_points, n_sources=2):
    """Distinctly non-Gaussian (spiky) zero-mean sources."""
    sources = rng.standard_normal((n_sources, n_points)) ** 3
    return sources - sources.mean(axis=1, keepdims=True)


def test_fastica_recovers_known_mixing(grid):
    rng = np.random.default_rng(61)
    sources = sparse_sources(rng, grid.n_points)
    mixing = rng.standard_normal((20, 2))
    ds = make_dataset(mixing @ sources, grid)
    result = bss.fastica(ds, 2, seed=5)
    corr = aligned_abs_correlation(result.components, sources)
    assert min(corr) > 0.99


def test_fastica_whitened_source_covariance(small_library):
    pures = synth.sample_components(small_library, 4, 71)
    ds = synth.assemble_dataset(pures, "nutation", 71, noise_factor=0.0002)
    result = bss.fastica(ds, 4, seed=2)
    cov = result.components @ result.components.T / ds.grid.n_points
    assert np.max(np.abs(cov - np.eye(4))) < 1e-6


def test_fastica_seed_stability(grid):
    rng = np.random.default_rng(62)
    sources = sparse_sources(rng, grid.n_points)
    mixing = rng.standard_normal((20, 2))
    ds = make_dataset(mixing @ sources, grid)
    a = bss.fastica(ds, 2, seed=1)
    b = bss.fastica(ds, 2, seed=2)
    corr = aligned_abs_correlation(a.components, b.components)
    assert min(corr) > 0.99


# ---------------------------------------------------------------------------
# jade
# ---------------------------------------------------------------------------

def test_jade_recovers_known_mixing(grid):
    rng = np.random.default_rng(63)
    sources = sparse_sources(rng, grid.n_points)
    mixing = rng.standard_normal((20, 2))
    ds = make_dataset(mixing @ sources, grid)
    result = bss.jade(ds, 2)
    corr = aligned_abs_correlation(result.components, sources)
    assert min(corr) > 0.99


def test_jade_row_permutation_invariance(small_library):
    pures = synth.sample_components(small_library, 3, 81)
    ds = synth.assemble_dataset(pures, "inversion", 81, noise_factor=0.0002)
    base = bss.jade(ds, 3)
    perm = np.random.default_rng(0).permutation(20)
    shuffled = bss.jade(make_dataset(ds.spectra[perm], ds.grid), 3)
    corr = aligned_abs_correlation(shuffled.components, base.components)
    assert min(corr) > 1.0 - 1e-6


def test_jade_rank1(rank1_dataset):
    dataset, pure = rank1_dataset
    result = bss.jade(dataset, 1)
    assert cosine(result.components[0], pure.intensity) > 0.9999


# ---------------------------------------------------------------------------
# sobi
# ---------------------------------------------------------------------------

def test_sobi_recovers_smooth_profiles(disjoint_pures_2):
    # Sources whose intensities follow recovery curves with well separated
    # T1 give lagged covariances distinct enough for a useful separation.
    # With only 20 samples along the lag axis the rotation estimate stays
    # imperfect, so the bound is looser than for the ICA family.
    taus = synth.recovery_times(1.8)
    w1 = synth.inversion_profile(1.0, 0.6, taus)
    w2 = synth.inversion_profile(0.8, 1.8, taus)
    spectra = np.outer(w1, disjoint_pures_2[0].intensity) \
        + np.outer(w2, disjoint_pures_2[1].intensity)
    ds = make_dataset(spectra, disjoint_pures_2[0].grid)
    result = bss.sobi(ds, 2)
    truth = np.stack([p.intensity for p in disjoint_pures_2])
    corr = aligned_abs_correlation(result.components, truth)
    assert min(corr) > 0.8


def test_sobi_lag_zero_equals_pca(small_library):
    pures = synth.sample_components(small_library, 3, 83)
    ds = synth.assemble_dataset(pures, "inversion", 83, noise_factor=0.0002)
    sobi_comps = bss.sobi(ds, 3, lags=(0,)).components
    pca_comps = bss.decompose(ds, "pca", 3).components
    for a, b in zip(sobi_comps, pca_comps):
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-6


def test_sobi_deterministic_without_seed(small_library):
    pures = synth.sample_components(small_library, 3, 84)
    ds = synth.assemble_dataset(pures, "nutation", 84, noise_factor=0.0003)
    a = bss.sobi(ds, 3)
    b = bss.sobi(ds, 3)
    assert a.components.tobytes() == b.components.tobytes()


def test_sobi_rejects_large_lags(small_library):
    pures = synth.sample_components(small_library, 2, 85)
    ds = synth.assemble_dataset(pures, "inversion", 85)
    with pytest.raises(ValueError):
        bss.sobi(ds, 2, lags=(25,))


# ---------------------------------------------------------------------------
# vca
# ---------------------------------------------------------------------------

def simplex_dataset(grid, n_vertices=3, seed=91):
    rng = np.random.default_rng(seed)
    j = np.arange(grid.n_points)
    vertices = np.stack([
        np.exp(-0.5 * ((j - c) / 40.0) ** 2) + 0.05
        for c in np.linspace(200, 800, n_vertices)
    ])
    weights = rng.dirichlet(np.ones(n_vertices), size=20)
    weights[:n_vertices] = np.eye(n_vertices)  # pure rows present
    return make_dataset(weights @ vertices, grid), vertices


def test_vca_recovers_simplex_vertices(grid):
    ds, vertices = simplex_dataset(grid)
    result = bss.vca(ds, 3, seed=1)
    found = {tuple(np.round(row, 6)) for row in result.components}
    for vertex in vertices:
        best = min(np.max(np.abs(np.array(f) - vertex)) for f in found)
        assert best < 1e-6


def test_vca_k1_dominant_direction(rank1_dataset):
    dataset, _ = rank1_dataset
    result = bss.vca(dataset, 1, seed=0)
    u1 = np.linalg.svd(dataset.spectra, full_matrices=False)[2][0]
    assert cosine(result.components[0], u1) > 0.999


def test_vca_overprediction_keeps_first_vertices(grid):
    # requesting one component beyond the true count must not disturb the
    # vertices already found
    ds, _ = simplex_dataset(grid, n_vertices=4, seed=92)
    base = bss.vca(ds, 4, seed=7).components
    bigger = bss.vca(ds, 5, seed=7).components
    for row in base:
        assert max(cosine(row, other) for other in bigger) > 0.99


# ---------------------------------------------------------------------------
# nnmf
# ---------------------------------------------------------------------------

def test_nnmf_preprocessing_flips_and_offset():
    x = np.array([[1.0, 2.0, 3.0],
                  [-5.0, -4.0, 1.0],
                  [-1.0, 2.0, 2.0]])
    flipped, rows = bss.flip_negative_rows(x)
    assert rows.tolist() == [1]
    assert np.array_equal(flipped[1], [5.0, 4.0, -1.0])
    shifted, offset = bss.shift_nonnegative(flipped)
    assert offset == 1.0
    assert shifted.min() == 0.0


def test_nnmf_exact_nonnegative_rank_k(grid):
    rng = np.random.default_rng(101)
    w = rng.random((20, 3))
    h = rng.random((3, grid.n_points)) * (rng.random((3, grid.n_points)) > 0.5)
    ds = make_dataset(w @ h, grid)
    result = bss.nnmf(ds, 3, init="nndsvd", seed=0, max_iter=2000, tol=1e-18)
    x = ds.spectra
    recon = result.coefficients @ result.components
    assert np.linalg.norm(recon - x) / np.linalg.norm(x) < 1e-6


def test_nnmf_objective_monotone(small_library):
    pures = synth.sample_components(small_library, 4, 102)
    ds = synth.assemble_dataset(pures, "inversion", 102, noise_factor=0.0003)
    for init in bss.NNMF_INITS:
        result = bss.nnmf(ds, 4, init=init, seed=3)
        history = np.array(result.meta["objective_history"])
        assert np.all(np.diff(history) <= 1e-10 * history[0])


def test_nnmf_objective_matches_direct_residual(small_library):
    pures = synth.sample_components(small_library, 4, 105)
    ds = synth.assemble_dataset(pures, "nutation", 105, noise_factor=0.0003)
    for init in bss.NNMF_INITS:
        result = bss.nnmf(ds, 5, init=init, seed=4)
        x, _, _ = bss.nnmf_preprocess(ds.spectra)
        direct = np.sum((x - result.coefficients @ result.components) ** 2)
        history = result.meta["objective_history"]
        assert abs(history[-1] - direct) <= 1e-10 * np.sum(x * x)


def test_hals_rows_matches_textbook_update():
    rng = np.random.default_rng(106)
    for k, n in ((4, 1024), (6, 20)):
        basis = rng.random((20, k))
        basis[:, 2] = 0.0                     # row 2 has a zero diagonal
        gram = basis.T @ basis
        rhs = basis.T @ rng.random((20, n))
        start = rng.random((k, n))
        expected = start.copy()
        for j in range(k):
            if gram[j, j] > 0.0:
                expected[j] = np.maximum(
                    expected[j] + (rhs[j] - gram[j] @ expected) / gram[j, j], 0.0)
        f = start.copy()
        bss._hals_rows(f, gram, rhs, np.finfo(float).tiny, np.empty(n))
        assert np.array_equal(f[2], start[2])
        assert np.max(np.abs(f - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert f.min() >= 0.0


def test_nndsvd_head_start_beats_random():
    rng = np.random.default_rng(103)
    wins = 0
    trials = 50
    for _ in range(trials):
        x = np.abs(rng.standard_normal((20, 60)))
        seeded_w, seeded_h = bss.nndsvd_init(x, 4, "nndsvd", rng, bss.svd(x))
        seeded = np.linalg.norm(x - seeded_w @ seeded_h)
        random_best = np.inf
        scale = np.sqrt(x.mean() / 4)
        for _ in range(10):
            w0 = scale * np.abs(rng.standard_normal((20, 4)))
            h0 = scale * np.abs(rng.standard_normal((4, 60)))
            random_best = min(random_best, np.linalg.norm(x - w0 @ h0))
        wins += seeded <= random_best
    assert wins >= 0.8 * trials


def test_nnmf_metadata_reports_preprocessing(small_library):
    pures = synth.sample_components(small_library, 3, 104)
    ds = synth.assemble_dataset(pures, "inversion", 104, noise_factor=0.0002)
    result = bss.nnmf(ds, 3, init="nndsvdar", seed=1)
    assert "flipped_rows" in result.meta
    assert result.meta["offset"] >= 0.0
    assert len(result.meta["flipped_rows"]) > 0  # early recovery rows invert


# ---------------------------------------------------------------------------
# simplisma
# ---------------------------------------------------------------------------

def normalized_worst_pair_error(result, pures):
    report = best_assignment(result, pures)
    return max(fit.lack_of_fit / float(pures[j].intensity @ pures[j].intensity)
               for _, j, fit in report.pairs)


def test_simplisma_disjoint_recovery(disjoint_pures_2):
    ds = synth.assemble_dataset(disjoint_pures_2, "inversion", 201, noise_factor=0.0)
    result = bss.simplisma(ds, 2, offset_percent=2)
    assert normalized_worst_pair_error(result, disjoint_pures_2) < 1e-6


def test_simplisma_offset_changes_first_variable(grid):
    """A noise-dominated low-mean column wins at offset 0 and loses at 15."""
    rng = np.random.default_rng(105)
    j = np.arange(grid.n_points)
    peak = np.exp(-0.5 * ((j - 512) / 30.0) ** 2)
    weights = synth.inversion_profile(1.0, 1.0, synth.recovery_times(1.0))
    spectra = np.outer(weights, peak)
    spectra[:, 100] = 1e-4 * rng.standard_normal(20)  # wild relative variance
    ds = make_dataset(spectra, grid)
    first_0 = bss.simplisma(ds, 1, offset_percent=0).meta["pure_variables"][0]
    first_15 = bss.simplisma(ds, 1, offset_percent=15).meta["pure_variables"][0]
    assert first_0 == 100
    assert first_15 != 100


def test_simplisma_deterministic(small_library):
    pures = synth.sample_components(small_library, 3, 106)
    ds = synth.assemble_dataset(pures, "nutation", 106, noise_factor=0.0004)
    a = bss.simplisma(ds, 3, offset_percent=8)
    b = bss.simplisma(ds, 3, offset_percent=8)
    assert a.components.tobytes() == b.components.tobytes()
    assert a.meta["pure_variables"] == b.meta["pure_variables"]


def full_matrix_picks(spectra, k, offset_percent):
    """Reference selection from the n x n correlation matrix and the
    determinant of every bordered (s+1) x (s+1) submatrix."""
    n_rows, n_cols = spectra.shape
    mean, std = spectra.mean(axis=0), spectra.std(axis=0)
    alpha = offset_percent / 100.0 * float(mean.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        purity = std / (mean + alpha)
    purity[std == 0.0] = 0.0
    length_sq = std ** 2 + (mean + alpha) ** 2
    inv_length = np.zeros_like(length_sq)
    np.divide(1.0, np.sqrt(length_sq), out=inv_length, where=length_sq > 0.0)
    scaled = spectra * inv_length
    coo = scaled.T @ scaled / n_rows
    picked = [int(np.argmax(np.where(np.isnan(purity), -np.inf, purity)))]
    while len(picked) < k:
        s = len(picked)
        sub = np.empty((n_cols, s + 1, s + 1))
        sub[:, 0, 0] = np.diag(coo)
        sub[:, 0, 1:] = coo[:, picked]
        sub[:, 1:, 0] = coo[picked, :].T
        sub[:, 1:, 1:] = coo[np.ix_(picked, picked)]
        with np.errstate(invalid="ignore"):
            ranking = purity * np.maximum(np.linalg.det(sub), 0.0)
        ranking[np.isnan(ranking)] = -np.inf
        ranking[picked] = -np.inf
        assert np.isfinite(ranking.max()) and ranking.max() > 0.0
        picked.append(int(np.argmax(ranking)))
    return picked


@pytest.mark.parametrize("model", ["inversion", "nutation"])
def test_simplisma_matches_full_matrix_selection(small_library, model):
    """On noisy data the Schur-complement weights pick exactly the variables
    that the full-matrix determinants pick, at every offset and every k."""
    for seed, n_pures, noise in ((107, 3, 0.0002), (108, 5, 0.001)):
        pures = synth.sample_components(small_library, n_pures, seed)
        ds = synth.assemble_dataset(pures, model, seed, noise_factor=noise)
        for offset in bss.SIMPLISMA_OFFSETS:
            reference = full_matrix_picks(ds.spectra, 10, offset)
            for k in range(1, 11):
                picks = bss.simplisma(ds, k, offset).meta["pure_variables"]
                assert picks == reference[:k], (seed, offset, k)


def test_simplisma_picks_are_nested(small_library):
    """The first k picks at k + 1 are the picks at k."""
    pures = synth.sample_components(small_library, 4, 109)
    ds = synth.assemble_dataset(pures, "inversion", 109, noise_factor=0.0)
    for offset in bss.SIMPLISMA_OFFSETS:
        picks = [bss.simplisma(ds, k, offset).meta["pure_variables"]
                 for k in range(1, 12)]
        for shorter, longer in zip(picks, picks[1:]):
            assert longer[:-1] == shorter


def test_simplisma_rank2_falls_back_to_purity(grid, monkeypatch):
    """Once two picks span rank-2 data every weight is exactly 0, and the
    remaining picks come from raw purity."""
    weights = synth.inversion_profile(1.0, 1.0, synth.recovery_times(1.0))
    spectra = np.zeros((20, grid.n_points))
    spectra[:, 300] = weights
    spectra[:, 700] = 2.0 + np.cos(np.arange(20))
    ds = make_dataset(spectra, grid)
    calls = []
    sanitize = bss._sanitize
    monkeypatch.setattr(bss, "_sanitize",
                        lambda values: calls.append(1) or sanitize(values))
    returned = 0
    for offset in bss.SIMPLISMA_OFFSETS:
        calls.clear()
        try:
            picks = bss.simplisma(ds, 4, offset).meta["pure_variables"]
        except TechniqueFailure:
            continue
        returned += 1
        assert len(set(picks)) == 4
        assert set(picks[:2]) == {300, 700}
        # the first pick, one ranking per later pick, one per fallback
        assert len(calls) == 1 + 3 + 2
    assert returned > 0


def test_simplisma_quiet_on_infinite_purity(grid):
    """A zero-mean column has infinite purity at offset 0; its zero weight
    after it is picked must not warn."""
    rng = np.random.default_rng(0)
    spectra = np.abs(rng.standard_normal((20, grid.n_points)))
    spectra[:, 5] = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    ds = make_dataset(spectra, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = bss.simplisma(ds, 3, 0)
    assert result.meta["pure_variables"] == [5, 760, 13]


# ---------------------------------------------------------------------------
# mcr
# ---------------------------------------------------------------------------

def test_regress_matches_lstsq():
    rng = np.random.default_rng(304)
    for rows, k, cols in ((20, 4, 1024), (1024, 6, 20), (50, 10, 3)):
        design = rng.standard_normal((rows, k))
        target = rng.standard_normal((rows, cols))
        coef, used_lstsq = bss._regress(design, target)
        reference, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert not used_lstsq
        assert np.max(np.abs(coef - reference)) <= 1e-10 * np.max(np.abs(reference))


def test_regress_duplicated_column_is_finite():
    rng = np.random.default_rng(305)
    for rows, cols in ((20, 1024), (1024, 20)):
        design = rng.standard_normal((rows, 3))
        design = np.column_stack([design, design[:, 1]])
        coef, _ = bss._regress(design, rng.standard_normal((rows, cols)))
        assert coef.shape == (4, cols)
        assert np.all(np.isfinite(coef))


def test_regress_exactly_singular_gram_falls_back_to_lstsq():
    # a large duplicated column: an absolute ridge on this Gram matrix
    # (diagonal ~1e13) leaves it exactly singular
    rng = np.random.default_rng(307)
    for rows, cols in ((20, 1024), (1024, 20)):
        c = 1e6 * rng.standard_normal(rows)
        design = np.column_stack([c, c, rng.standard_normal(rows)])
        target = rng.standard_normal((rows, cols))
        coef, fell_back = bss._regress(design, target)
        reference, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert fell_back
        assert np.all(np.isfinite(coef))
        assert np.array_equal(coef, reference)


def test_regress_nonfinite_inverse_falls_back_quietly():
    # a Gram matrix near the bottom of the double range: inv returns
    # non-finite entries instead of raising
    rng = np.random.default_rng(308)
    design = 1e-155 * rng.standard_normal((20, 3))
    target = rng.standard_normal((20, 1024))
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(np.linalg.inv(design.T @ design)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coef, fell_back = bss._regress(design, target)
    assert fell_back
    assert np.array_equal(coef, np.linalg.lstsq(design, target, rcond=None)[0])


def test_mcr_reports_lstsq_fallback(grid, small_library):
    # 20 identical rows give 20 identical concentration rows, so the Gram
    # matrix of the spectra step is singular at k 3
    identical = synth.MixtureDataset(
        grid=grid, spectra=np.tile(small_library[37].intensity, (20, 1)))
    for variant in ("ols_als", "nnls"):
        result = bss.mcr(identical, 3, regression=variant)
        assert result.meta["lstsq_fallback"]
        assert np.all(np.isfinite(result.components))
    pures = synth.sample_components(small_library, 3, 306)
    ds = synth.assemble_dataset(pures, "inversion", 306, noise_factor=0.0003)
    result = bss.mcr(ds, 3, regression="ols_als")
    assert not result.meta["lstsq_fallback"]


def test_mcr_true_init_is_fixed_point(disjoint_pures_2):
    ds = synth.assemble_dataset(disjoint_pures_2, "inversion", 301, noise_factor=0.0)
    # the rectified singular vectors of two disjoint lines span the true
    # spectra, so the default start is already the solution
    result = bss.mcr(ds, 2, regression="ols_als", init="provided")
    history = result.meta["residual_history"]
    assert len(history) <= 2
    assert history[-1] < 1e-10


def test_mcr_residual_monotone(small_library):
    pures = synth.sample_components(small_library, 4, 302)
    ds = synth.assemble_dataset(pures, "inversion", 302, noise_factor=0.0004)
    for variant in ("ols_als", "nnls"):
        result = bss.mcr(ds, 4, regression=variant, init="random", seed=5)
        history = np.array(result.meta["residual_history"])
        assert np.all(np.diff(history) <= 1e-9 * history[0])


def test_mcr_random_init_convergence_census(small_library):
    pures = synth.sample_components(small_library, 2, 303)
    ds = synth.assemble_dataset(pures, "inversion", 303, noise_factor=0.0)
    norm_x = np.linalg.norm(ds.spectra)
    hits = 0
    for seed in range(10):
        result = bss.mcr(ds, 2, regression="ols_als", init="random", seed=seed)
        hits += result.meta["residual_history"][-1] / norm_x < 1e-6
    assert hits >= 8
