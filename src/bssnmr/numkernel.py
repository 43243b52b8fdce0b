"""Shared numerical primitives.

The thin SVD and the rectangular maximum-weight assignment are delegated
to numpy/scipy behind small validating wrappers.  The batched nonnegative
least squares solver and the round-robin Jacobi joint diagonalizer are
implemented here directly.
"""

import functools
from typing import NamedTuple, Sequence

import numpy as np
import scipy.optimize

from .errors import NumericalFailure


# ---------------------------------------------------------------------------
# random number streams
# ---------------------------------------------------------------------------

def seeded_rng(seed) -> np.random.Generator:
    """Deterministic generator for an integer seed or a SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.PCG64(seed))


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent child stream identified by a tuple of integers.

    Streams for distinct keys are statistically independent, and the mapping
    (master_seed, key) -> stream is reproducible across runs and platforms.
    """
    return seeded_rng(np.random.SeedSequence([int(master_seed), *map(int, key)]))


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

class SvdResult(NamedTuple):
    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray


def svd(m) -> SvdResult:
    """Thin SVD with singular values in descending order."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("svd expects a 2-d matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input contains non-finite values")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"svd did not converge: {exc}") from exc
    return SvdResult(u, s, vt)


def nnls(a, b, start=None) -> np.ndarray:
    """Nonnegative least squares min ||a x - b|| s.t. x >= 0, every column
    of ``b`` at once.

    Lawson-Hanson active-set method worked in Gram space (G = a.T a,
    R = a.T b) as in FNNLS (Bro & De Jong, J. Chemometrics 11:393, 1997),
    with all right-hand sides advanced together as in fast combinatorial
    NNLS (Van Benthem & Keenan, J. Chemometrics 18:441, 2004).  ``b`` is a
    vector or an (n, m) matrix; the result is shaped like ``b`` with the
    first axis of length a.shape[1].  ``start`` (shaped like the result) is
    a previous solution whose support seeds the passive sets; any start
    gives the same optimum, a close one gives it in fewer steps.  Raises
    :class:`NumericalFailure` past 3 k outer iterations, scipy's cap.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[0] != b.shape[0]:
        raise ValueError("nnls shape mismatch between matrix and rhs")
    k = a.shape[1]
    gram = a.T @ a
    rhs = (a.T @ b.reshape(b.shape[0], -1)).T         # (m, k): one row per rhs
    # a non-finite entry of a or b always reaches the diagonal of gram or rhs
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise ValueError("nnls input contains non-finite values")
    if start is None:
        passive = np.zeros(rhs.shape, dtype=bool)
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (k,) + b.shape[1:]:
            raise ValueError("nnls start must have the shape of the solution")
        passive = start.reshape(k, -1).T > 0

    x = np.zeros(rhs.shape)
    if passive.any():
        # Feasible start: the passive-set solution clipped to its positive
        # part, made stationary again where clipping shrank the passive set.
        s = _passive_solve(gram, rhs, passive)
        clipped = np.flatnonzero((passive & (s <= 0)).any(axis=1))
        passive &= s > 0
        x = np.where(passive, s, 0.0)
        if clipped.size:
            _make_feasible(gram, rhs, x, passive, clipped,
                           _passive_solve(gram, rhs[clipped], passive[clipped]))

    eps = np.finfo(float).eps
    blocked = np.zeros_like(passive)
    iterations = 0
    while True:
        fit = x @ gram
        dual = rhs - fit
        tol = 10.0 * k * eps * np.maximum(np.abs(rhs).max(axis=1),
                                          np.abs(fit).max(axis=1))
        free = ~passive & ~blocked & (dual > tol[:, None])
        todo = np.flatnonzero(free.any(axis=1))
        if todo.size == 0:
            break
        iterations += 1
        if iterations > 3 * k:
            raise NumericalFailure(f"nnls iteration cap of {3 * k} exceeded")
        enter = np.argmax(np.where(free[todo], dual[todo], -np.inf), axis=1)
        passive[todo, enter] = True
        s = _passive_solve(gram, rhs[todo], passive[todo])
        # A variable whose dual was rounding noise comes out nonpositive
        # (it cannot in exact arithmetic): leave it out of this column
        # until another variable enters, as Lawson and Hanson do.
        rejected = s[np.arange(todo.size), enter] <= 0
        passive[todo[rejected], enter[rejected]] = False
        blocked[todo[rejected], enter[rejected]] = True
        todo, s = todo[~rejected], s[~rejected]
        blocked[todo] = False
        _make_feasible(gram, rhs, x, passive, todo, s)
    return x.T.reshape((k,) + b.shape[1:])


def _make_feasible(gram, rhs, x, passive, todo, s) -> None:
    """Lawson-Hanson inner loop on rows ``todo``, in place.

    ``x`` is feasible and ``s`` the passive-set solution of each row.  Step
    from x towards s until s is feasible, dropping the variables that reach
    zero (at least one per pass); x ends as the final s.
    """
    while True:
        bad = passive[todo] & (s <= 0)
        rows = bad.any(axis=1)
        if not rows.any():
            break
        h = todo[rows]
        xh, sh = x[h], s[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(bad[rows], xh / (xh - sh), np.inf)
        hit = np.argmin(ratio, axis=1)
        alpha = ratio[np.arange(h.size), hit]
        xh = xh + alpha[:, None] * (sh - xh)
        xh[np.arange(h.size), hit] = 0.0
        x[h] = xh
        passive[h] &= xh > 0
        s[rows] = _passive_solve(gram, rhs[h], passive[h])
    x[todo] = np.where(passive[todo], s, 0.0)


def _passive_solve(gram, rhs, passive) -> np.ndarray:
    """Unconstrained least squares on each row's passive set, one stacked
    solve: active rows and columns of the Gram matrix become identity and
    their right-hand sides zero, so active variables come out 0."""
    both = passive[:, :, None] & passive[:, None, :]
    g = np.where(both, gram, 0.0)
    diag = np.arange(gram.shape[0])
    g[:, diag, diag] = np.where(passive, g[:, diag, diag], 1.0)
    r = np.where(passive, rhs, 0.0)[:, :, None]
    try:
        return np.linalg.solve(g, r)[:, :, 0]
    except np.linalg.LinAlgError:
        # an exactly dependent passive set: minimum-norm least squares
        return (np.linalg.pinv(g, hermitian=True) @ r)[:, :, 0]


# ---------------------------------------------------------------------------
# Jacobi joint diagonalization
# ---------------------------------------------------------------------------

class JointDiagResult(NamedTuple):
    V: np.ndarray
    converged: bool
    sweeps: int
    off_diagonal: list


def _off_diag_energy(mats: np.ndarray) -> float:
    k = mats.shape[1]
    mask = ~np.eye(k, dtype=bool)
    return float(np.sum(mats[:, mask] ** 2))


def joint_diagonalize(matrices: Sequence[np.ndarray], tol: float = 1e-12,
                      max_sweeps: int = 200) -> JointDiagResult:
    """Simultaneous diagonalization of symmetric matrices by Givens sweeps.

    Returns an orthogonal V such that V.T @ M @ V is jointly as diagonal as
    possible.  Each pair (p, q) is rotated by the closed-form angle of
    Cardoso & Souloumiac (SIAM J. Matrix Anal. Appl. 17(1), 1996).  The
    pairs are visited in the parallel round-robin order of Brent & Luk
    (SIAM J. Sci. Stat. Comput. 6(1), 1985): a sweep is k - 1 steps (k for
    odd k) of disjoint pairs.  Rotations of disjoint pairs commute, so one
    step takes all its angles at once and applies them as one k x k
    orthogonal matrix J (``M <- J.T @ M @ J``, ``V <- V @ J``); this is
    exact cyclic Jacobi in that pair order.  A pair is left alone when its
    off-diagonal content or its rotation sine is at most ``tol`` times the
    largest input magnitude (at least 1).  The sweeps stop after the first
    sweep that rotates nothing (``converged``) or after ``max_sweeps``.
    The summed squared off-diagonal energy is non-increasing across sweeps;
    the per-sweep values are recorded in the result.
    """
    mats = np.array([np.asarray(m, dtype=float) for m in matrices])
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("joint_diagonalize expects square matrices of equal size")
    k = mats.shape[1]
    v = np.eye(k)
    history = [_off_diag_energy(mats)]
    scale = max(1.0, float(np.max(np.abs(mats))))
    threshold = tol * scale

    converged = False
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        rotated = False
        for p, q in round_robin(k):
            mats, v, turned = _jacobi_step(mats, v, p, q, threshold)
            rotated |= turned
        history.append(_off_diag_energy(mats))
        if not rotated:
            converged = True
            break
    return JointDiagResult(v, converged, sweeps, history)


@functools.lru_cache(maxsize=None)
def round_robin(k: int) -> tuple:
    """One sweep of the round-robin tournament on k indices, as a tuple of
    steps (p, q): integer arrays of disjoint pairs with p < q.

    Step r pairs i with j where i + j = r (mod m - 1), m = k rounded up to
    even; the index i with 2 i = r pairs with m - 1, a bye when k is odd.
    Every unordered pair appears in exactly one step.
    """
    m = k + k % 2
    steps = []
    for r in range(m - 1):
        pairs = []
        for i in range(m - 1):
            j = (r - i) % (m - 1)
            j = m - 1 if j == i else j
            if i < j < k:
                pairs.append((i, j))
        if pairs:
            step = np.array(pairs, dtype=np.intp).T
            step.setflags(write=False)          # shared by every caller
            steps.append((step[0], step[1]))
    return tuple(steps)


def _jacobi_step(mats, v, p, q, threshold):
    """Rotate every pair (p[i], q[i]) of one round-robin step at once.

    Returns the rotated matrices and V, and whether any pair was rotated.
    """
    g1 = mats[:, p, p] - mats[:, q, q]                # (n_matrices, n_pairs)
    g2 = mats[:, p, q] + mats[:, q, p]
    g2g2 = np.einsum("ij,ij->j", g2, g2)
    ton = np.einsum("ij,ij->j", g1, g1) - g2g2
    toff = 2.0 * np.einsum("ij,ij->j", g1, g2)
    theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
    s = np.sin(theta)
    # no off-diagonal content -> the optimal angle is numerically undefined
    # and rotating would scramble V for zero gain
    turn = (np.sqrt(g2g2) > threshold) & (np.abs(s) > threshold)
    if not turn.any():
        return mats, v, False
    s = np.where(turn, s, 0.0)
    c = np.where(turn, np.cos(theta), 1.0)
    j = np.eye(mats.shape[1])
    j[p, p] = c
    j[q, q] = c
    j[p, q] = -s
    j[q, p] = s
    return j.T @ mats @ j, v @ j, True


# ---------------------------------------------------------------------------
# rectangular maximum-weight assignment
# ---------------------------------------------------------------------------

def assign_max(score) -> list:
    """Exact one-to-one assignment maximizing the summed score.

    ``score[i, j]`` is the (finite, nonnegative) reward for pairing row i
    with column j.  Exactly min(rows, cols) pairs are selected, sorted.
    Solved exactly by scipy's shortest augmenting path method (Crouse,
    IEEE TAES 52(4), 2016).
    """
    score = np.asarray(score, dtype=float)
    if score.ndim != 2 or score.size == 0:
        raise ValueError("assign_max expects a non-empty 2-d score matrix")
    if not np.all(np.isfinite(score)):
        raise ValueError("assign_max scores must be finite")
    if np.any(score < 0):
        raise ValueError("assign_max scores must be nonnegative")

    rows, cols = scipy.optimize.linear_sum_assignment(score, maximize=True)
    return sorted(zip(rows.tolist(), cols.tolist()))
