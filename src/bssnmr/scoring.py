"""Predicted-to-pure component matching and error quantification.

Each predicted component is fitted to each pure component with an affine
map (offset B plus signed multiplier M) minimizing the residual sum of
squares; the optimal one-to-one assignment then maximizes the summed
inverse lack-of-fit, so a sloppy prediction can never steal the partner of
a nearly exact one.  Excess predictions are discarded with zero score
contribution.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError, UndefinedStatistic
from .numkernel import assign_max

# Floor guarding 1/lack_of_fit when a fit is numerically perfect.
SCORE_EPSILON = 1e-300


@dataclass(frozen=True)
class PairFit:
    B: float
    M: float
    lack_of_fit: float


@dataclass
class MatchReport:
    pairs: list = field(default_factory=list)   # (predicted idx, pure idx, PairFit)
    ensemble_score: float = 0.0
    discarded_predicted: list = field(default_factory=list)
    unmatched_pure: list = field(default_factory=list)
    dataset_error: float = 0.0


class PureStatistics:
    """The pure-side terms of every affine fit against one set of pure
    spectra: the stacked (q, n) ``rows``, their ``mean``, the ``centered``
    rows and their sums of squares ``variance``.

    ``pures`` is a sequence of PureComponent or a (q, n) array.  A dataset's
    pure components are the same for all of its records, so build this once
    per dataset and pass it to :func:`best_assignment` for each record.
    """

    def __init__(self, pures):
        self.rows = np.asarray([getattr(p, "intensity", p) for p in pures], dtype=float)
        if self.rows.ndim != 2 or not len(self.rows):
            raise ValueError("scoring needs at least one pure spectrum, as (q, n) rows")
        self.mean = self.rows.mean(axis=1)
        self.centered = self.rows - self.mean[:, None]
        self.variance = np.einsum("jn,jn->j", self.centered, self.centered)


def _affine_fits(predicted: np.ndarray, pures: PureStatistics):
    """Least-squares fits predicted[i] ~ B + M * pures.rows[j] for every pair.

    ``predicted`` is (k, n) and ``pures`` holds q rows; returns the (k, q)
    arrays B, M and lack_of_fit.  Each lack-of-fit is the sum of squares of
    its explicitly formed residual, so an exact fit comes out at rounding
    level and never negative.  The residual is built in one (k, q, n) array.
    """
    if np.any(pures.variance == 0.0):
        raise DegenerateFitError("pure spectrum is constant; affine fit undefined")
    pred_mean = predicted.mean(axis=1)
    m = (predicted - pred_mean[:, None]) @ pures.centered.T / pures.variance
    b = pred_mean[:, None] - m * pures.mean
    residual = np.multiply(m[:, :, None], pures.rows)
    np.add(b[:, :, None], residual, out=residual)
    np.subtract(predicted[:, None, :], residual, out=residual)
    return b, m, np.einsum("ijn,ijn->ij", residual, residual)


def fit_pair(predicted, pure) -> PairFit:
    """Closed-form least-squares fit of predicted ~ B + M * pure."""
    predicted = np.asarray(predicted, dtype=float)
    pure = np.asarray(pure, dtype=float)
    if predicted.shape != pure.shape or predicted.ndim != 1 or predicted.size < 2:
        raise ValueError("fit_pair expects two equal-length vectors of size >= 2")
    b, m, lof = _affine_fits(predicted[None, :], PureStatistics(pure[None, :]))
    return PairFit(B=float(b[0, 0]), M=float(m[0, 0]), lack_of_fit=float(lof[0, 0]))


def best_assignment(predicted, pures) -> MatchReport:
    """Optimal one-to-one matching by maximal summed inverse lack-of-fit.

    ``predicted`` is a ComponentSet or a (k, n) array; ``pures`` is a
    :class:`PureStatistics`, or a sequence of PureComponent or a (q, n)
    array, from which one is built.  Every predicted component
    is brought to unit Euclidean norm before fitting, so the reported
    errors do not depend on each technique's arbitrary output scaling and
    are comparable across techniques.  A zero-norm prediction scores zero
    against everything, and if it is matched anyway its lack-of-fit is
    1.0, the largest a unit-norm prediction can have, so it never passes
    for a perfect fit.  All k x q fits come from one array computation.
    """
    pred_rows = np.asarray(getattr(predicted, "components", predicted), dtype=float)
    if pred_rows.ndim != 2 or not len(pred_rows):
        raise ValueError("best_assignment needs at least one predicted and one pure")
    if not isinstance(pures, PureStatistics):
        pures = PureStatistics(pures)
    if pred_rows.shape[1] != pures.rows.shape[1]:
        raise ValueError("predicted and pure spectra have different lengths")

    norms = np.linalg.norm(pred_rows, axis=1)
    alive = norms > 0.0
    scaled = pred_rows / np.where(alive, norms, 1.0)[:, None]

    b, m, lof = _affine_fits(scaled, pures)
    lof[~alive] = 1.0
    score = np.where(alive[:, None], 1.0 / np.maximum(lof, SCORE_EPSILON), 0.0)
    pairs = assign_max(score)
    rows, cols = zip(*pairs)
    # as lists: reading a few numpy scalars costs more than converting all
    b, m, lof = b.tolist(), m.tolist(), lof.tolist()
    report = MatchReport(
        pairs=[(i, j, PairFit(b[i][j], m[i][j], lof[i][j])) for i, j in pairs],
        ensemble_score=float(sum(score[i, j] for i, j in pairs)),
        discarded_predicted=sorted(set(range(len(pred_rows))).difference(rows)),
        unmatched_pure=sorted(set(range(len(pures.rows))).difference(cols)))
    report.dataset_error = dataset_error(report, pred_rows.shape[1])
    return report


def dataset_error(report: MatchReport, n_points: int) -> float:
    """Mean over matched pairs of the per-point lack-of-fit."""
    if not report.pairs:
        raise UndefinedStatistic("dataset error undefined with no matched pairs")
    return float(np.mean([fit.lack_of_fit / n_points
                          for _, _, fit in report.pairs]))


def overprediction_ratio(errors_at_exact: Sequence[float],
                         errors_at_plus_j: Sequence[float]) -> float:
    """Fractional error increase when predicting extra components."""
    exact = np.asarray(list(errors_at_exact), dtype=float)
    plus = np.asarray(list(errors_at_plus_j), dtype=float)
    if exact.size == 0 or plus.size == 0:
        raise UndefinedStatistic("overprediction ratio needs errors on both sides")
    denom = float(exact.mean())
    if denom == 0.0:
        raise UndefinedStatistic("overprediction ratio undefined: zero baseline error")
    return float(plus.mean()) / denom
