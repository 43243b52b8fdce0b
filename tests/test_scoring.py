import itertools

import numpy as np
import pytest
import scipy.optimize

from bssnmr import bss, scoring, synth
from bssnmr.errors import DegenerateFitError, UndefinedStatistic


# ---------------------------------------------------------------------------
# fit_pair
# ---------------------------------------------------------------------------

def test_fit_identity():
    rng = np.random.default_rng(0)
    pure = rng.random(200)
    fit = scoring.fit_pair(pure, pure)
    assert abs(fit.B) < 1e-12
    assert abs(fit.M - 1.0) < 1e-12
    assert fit.lack_of_fit < 1e-12


def test_fit_exact_affine_image():
    rng = np.random.default_rng(1)
    pure = rng.random(300)
    fit = scoring.fit_pair(3.0 + 2.0 * pure, pure)
    assert abs(fit.B - 3.0) < 1e-9
    assert abs(fit.M - 2.0) < 1e-9
    assert fit.lack_of_fit < 1e-12


def test_fit_negative_multiplier_inverts():
    rng = np.random.default_rng(2)
    pure = rng.random(100)
    fit = scoring.fit_pair(-pure, pure)
    assert fit.M < 0
    assert fit.lack_of_fit < 1e-12


def test_fit_matches_simplex_minimizer():
    rng = np.random.default_rng(3)
    for _ in range(100):
        pure = rng.standard_normal(256)
        predicted = rng.standard_normal(256)
        fit = scoring.fit_pair(predicted, pure)
        res = scipy.optimize.minimize(
            lambda bm: float(np.sum((predicted - (bm[0] + bm[1] * pure)) ** 2)),
            [0.0, 1.0], method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
        assert fit.lack_of_fit <= res.fun + 1e-8
        assert abs(fit.lack_of_fit - res.fun) <= 1e-6 * max(res.fun, 1e-30)


def test_fit_scale_covariance():
    rng = np.random.default_rng(4)
    pure = rng.random(150)
    predicted = rng.standard_normal(150)
    base = scoring.fit_pair(predicted, pure)
    for c in (2.0, -0.5, 10.0):
        scaled = scoring.fit_pair(predicted, c * pure)
        assert abs(scaled.M - base.M / c) < 1e-9 * max(1.0, abs(base.M / c))
        assert abs(scaled.lack_of_fit - base.lack_of_fit) \
            < 1e-9 * max(base.lack_of_fit, 1e-30)


def test_fit_sign_symmetry():
    rng = np.random.default_rng(5)
    pure = rng.random(150)
    predicted = rng.standard_normal(150)
    fit = scoring.fit_pair(predicted, pure)
    flipped = scoring.fit_pair(-predicted, pure)
    assert abs(flipped.B + fit.B) < 1e-12
    assert abs(flipped.M + fit.M) < 1e-12
    assert abs(flipped.lack_of_fit - fit.lack_of_fit) < 1e-9 * max(fit.lack_of_fit, 1e-30)


def test_fit_rejects_constant_pure():
    with pytest.raises(DegenerateFitError):
        scoring.fit_pair(np.arange(5.0), np.full(5, 2.0))


# ---------------------------------------------------------------------------
# best_assignment
# ---------------------------------------------------------------------------

def brute_force_report(pred_rows, pure_rows):
    norms = np.linalg.norm(pred_rows, axis=1)
    scaled = pred_rows / norms[:, None]
    n, m = len(pred_rows), len(pure_rows)
    lof = np.array([[scoring.fit_pair(scaled[i], pure_rows[j]).lack_of_fit
                     for j in range(m)] for i in range(n)])
    score = 1.0 / np.maximum(lof, scoring.SCORE_EPSILON)
    best = None
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            total = sum(score[i, c] for i, c in enumerate(cols))
            if best is None or total > best[0]:
                best = (total, sorted((i, c) for i, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n), m):
            total = sum(score[r, j] for j, r in enumerate(rows))
            if best is None or total > best[0]:
                best = (total, sorted((r, j) for j, r in enumerate(rows)))
    return best


def test_single_forced_pair():
    rng = np.random.default_rng(6)
    pure = rng.random(64)
    report = scoring.best_assignment(pure[None, :], [pure])
    assert [(i, j) for i, j, _ in report.pairs] == [(0, 0)]
    assert not report.discarded_predicted
    assert not report.unmatched_pure


def test_anti_stealing_assignment():
    """A prediction fitting both pures well must not steal the only pure a
    second prediction can match."""
    rng = np.random.default_rng(7)
    pure0 = np.abs(rng.random(128))
    pure1 = np.abs(rng.random(128))
    good_both = pure1 + 0.001 * rng.standard_normal(128)   # best for pure1
    only_pure0 = pure0 + 0.05 * rng.standard_normal(128)
    preds = np.vstack([good_both, only_pure0])
    report = scoring.best_assignment(preds, [pure0, pure1])
    _, expected = brute_force_report(preds, np.vstack([pure0, pure1]))
    assert sorted((i, j) for i, j, _ in report.pairs) == expected
    assert [(i, j) for i, j, _ in report.pairs] == [(0, 1), (1, 0)]


def test_assignment_matches_bruteforce_random():
    rng = np.random.default_rng(8)
    for n, m in [(3, 3), (4, 4), (5, 3), (3, 5)]:
        for _ in range(20):
            preds = rng.standard_normal((n, 32))
            pures = np.abs(rng.standard_normal((m, 32))) + 0.1
            report = scoring.best_assignment(preds, pures)
            best_total, best_pairs = brute_force_report(preds, pures)
            assert sorted((i, j) for i, j, _ in report.pairs) == best_pairs
            assert abs(report.ensemble_score - best_total) \
                <= 1e-9 * max(best_total, 1.0)
            scaled = preds / np.linalg.norm(preds, axis=1)[:, None]
            for i, j, fit in report.pairs:
                single = scoring.fit_pair(scaled[i], pures[j])
                for got, want in ((fit.B, single.B), (fit.M, single.M),
                                  (fit.lack_of_fit, single.lack_of_fit)):
                    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
            assert len(report.pairs) == min(n, m)


def test_assignment_invariant_to_prediction_order():
    rng = np.random.default_rng(9)
    preds = rng.standard_normal((4, 64))
    pures = np.abs(rng.standard_normal((3, 64))) + 0.1
    base = scoring.best_assignment(preds, pures)
    perm = [2, 0, 3, 1]
    shuffled = scoring.best_assignment(preds[perm], pures)
    base_pairs = {(i, j) for i, j, _ in base.pairs}
    unshuffled = {(perm[i], j) for i, j, _ in shuffled.pairs}
    assert base_pairs == unshuffled
    assert abs(base.ensemble_score - shuffled.ensemble_score) \
        <= 1e-9 * max(base.ensemble_score, 1.0)


def test_assignment_scale_invariance():
    rng = np.random.default_rng(10)
    preds = rng.standard_normal((3, 64))
    pures = np.abs(rng.standard_normal((3, 64))) + 0.1
    base = scoring.best_assignment(preds, pures)
    scaled = scoring.best_assignment(preds * 37.5, pures)
    assert abs(base.dataset_error - scaled.dataset_error) \
        < 1e-9 * max(base.dataset_error, 1e-30)


def test_assignment_discards_excess_predictions():
    rng = np.random.default_rng(11)
    preds = rng.standard_normal((5, 32))
    pures = np.abs(rng.standard_normal((2, 32))) + 0.1
    report = scoring.best_assignment(preds, pures)
    assert len(report.pairs) == 2
    assert len(report.discarded_predicted) == 3
    assert not report.unmatched_pure


def _broadcast_affine_fits(predicted, pures):
    """The affine fits with every pure-side term recomputed and the residual
    formed by broadcasting: the reference for ``scoring._affine_fits``."""
    pure_mean = pures.mean(axis=1)
    centered = pures - pure_mean[:, None]
    variance = np.einsum("jn,jn->j", centered, centered)
    pred_mean = predicted.mean(axis=1)
    m = (predicted - pred_mean[:, None]) @ centered.T / variance
    b = pred_mean[:, None] - m * pure_mean
    residual = predicted[:, None, :] - (b[:, :, None] + m[:, :, None] * pures)
    return b, m, np.einsum("ijn,ijn->ij", residual, residual)


def test_affine_fits_equal_broadcast_reference():
    rng = np.random.default_rng(14)
    for k in range(1, 15):
        for q in range(1, 11):
            predicted = rng.standard_normal((k, 300))
            predicted /= np.linalg.norm(predicted, axis=1)[:, None]
            predicted[k // 2] = 0.0
            pures = rng.random((q, 300))
            got = scoring._affine_fits(predicted, scoring.PureStatistics(pures))
            want = _broadcast_affine_fits(predicted, pures)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (k, q)


def test_best_assignment_same_from_statistics_or_list(small_library):
    for seed, k in ((1, 2), (2, 4), (3, 10)):
        pures = synth.sample_components(small_library, 4, seed)
        dataset = synth.assemble_dataset(pures, "nutation", seed, noise_factor=3e-4)
        result = bss.decompose(dataset, "svd", k, seed=seed)
        from_list = scoring.best_assignment(result, pures)
        from_stats = scoring.best_assignment(result, scoring.PureStatistics(pures))
        assert from_stats.pairs == from_list.pairs
        assert from_stats.ensemble_score == from_list.ensemble_score
        assert from_stats.dataset_error == from_list.dataset_error
    with pytest.raises(DegenerateFitError):
        scoring.best_assignment(
            result, scoring.PureStatistics(np.ones((2, dataset.grid.n_points))))


# ---------------------------------------------------------------------------
# dataset_error / overprediction_ratio
# ---------------------------------------------------------------------------

def test_dataset_error_zero_for_exact():
    rng = np.random.default_rng(12)
    pures = np.abs(rng.random((3, 64))) + 0.1
    report = scoring.best_assignment(pures.copy(), pures)
    assert report.dataset_error < 1e-25


def test_dead_prediction_scores_worse_than_garbage():
    rng = np.random.default_rng(13)
    pures = np.abs(rng.random((2, 64))) + 0.1
    zeros = scoring.best_assignment(np.vstack([pures[0], np.zeros(64)]), pures)
    garbage = scoring.best_assignment(
        np.vstack([pures[0], rng.standard_normal(64)]), pures)
    assert [(i, j) for i, j, _ in zeros.pairs] == [(0, 0), (1, 1)]
    assert zeros.pairs[1][2].lack_of_fit == 1.0
    assert zeros.dataset_error > garbage.dataset_error


def test_dataset_error_constant_residual():
    report = scoring.MatchReport(pairs=[(0, 0, scoring.PairFit(0.0, 1.0, 64 * 0.25))])
    # residual c = 0.5 at each of 64 points -> per-point error c^2
    assert abs(scoring.dataset_error(report, 64) - 0.25) < 1e-15


def test_report_fields_equal_their_pair_by_pair_definitions():
    rng = np.random.default_rng(15)
    for k in range(1, 15):
        for q in range(1, 11):
            predicted = rng.standard_normal((k, 64))
            predicted[k // 2] = 0.0
            report = scoring.best_assignment(predicted, rng.random((q, 64)))
            assert report.dataset_error == scoring.dataset_error(report, 64), (k, q)
            assert type(report.dataset_error) is float
            assert type(report.ensemble_score) is float
            assert type(report.pairs) is list and len(report.pairs) == min(k, q)
            for i, j, fit in report.pairs:
                assert type(i) is int and type(j) is int
                assert all(type(v) is float for v in (fit.B, fit.M, fit.lack_of_fit))
            matched_pred = {i for i, _, _ in report.pairs}
            matched_pure = {j for _, j, _ in report.pairs}
            assert report.discarded_predicted == [i for i in range(k)
                                                  if i not in matched_pred]
            assert report.unmatched_pure == [j for j in range(q)
                                             if j not in matched_pure]


def test_dataset_error_averages_pairs():
    report = scoring.MatchReport(pairs=[
        (0, 0, scoring.PairFit(0.0, 1.0, 10.0)),
        (1, 1, scoring.PairFit(0.0, 1.0, 30.0)),
    ])
    assert abs(scoring.dataset_error(report, 10) - 2.0) < 1e-15


def test_dataset_error_empty_undefined():
    with pytest.raises(UndefinedStatistic):
        scoring.dataset_error(scoring.MatchReport(), 10)


def test_overprediction_ratio_identity():
    assert scoring.overprediction_ratio([1.0, 2.0], [1.0, 2.0]) == 1.0


def test_overprediction_ratio_value():
    assert abs(scoring.overprediction_ratio([1.0, 3.0], [4.0, 4.0]) - 2.0) < 1e-15


def test_overprediction_ratio_undefined_on_zero_baseline():
    with pytest.raises(UndefinedStatistic):
        scoring.overprediction_ratio([0.0, 0.0], [1.0])
    with pytest.raises(UndefinedStatistic):
        scoring.overprediction_ratio([], [1.0])
