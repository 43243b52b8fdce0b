"""Shared numerical primitives.

The thin SVD is delegated to numpy behind a small validating wrapper.  The
batched nonnegative least squares solver, the round-robin Jacobi joint
diagonalizer and the rectangular maximum-weight assignment are implemented
here directly, so these numerics need numpy alone.
"""

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalFailure


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


JACOBI_TOL, JACOBI_MAX_SWEEPS = 1e-12, 200


def joint_diagonalize(matrices: Sequence[np.ndarray]) -> JointDiagResult:
    """Simultaneous diagonalization of symmetric matrices by Givens sweeps.

    Returns an orthogonal V such that V.T @ M @ V is jointly as diagonal as
    possible.  Each pair (p, q) is rotated by the closed-form angle of
    Cardoso & Souloumiac (SIAM J. Matrix Anal. Appl. 17(1), 1996), taken
    in its quarter-angle form (see :func:`_jacobi_step`).  The pairs are
    visited in the parallel round-robin order of Brent & Luk (SIAM J. Sci.
    Stat. Comput. 6(1), 1985): a sweep is k - 1 steps (k for odd k) of
    disjoint pairs.  Rotations of disjoint pairs commute, so one step takes
    all its angles at once and applies them as one k x k orthogonal matrix
    J (``M <- J.T @ M @ J``, ``V <- V @ J``); this is exact cyclic Jacobi in
    that pair order.  The n matrices are held as one (k, n, k) stack,
    ``a[r, i, c] = M_i[r, c]``, so that J.T @ M_i for every i is one 2-d
    product on the (k, n k) view and the right product with J another on
    the (k n, k) view.  A pair is left alone when its off-diagonal content
    or its rotation sine is at most :data:`JACOBI_TOL` times the largest
    input magnitude (at least 1).  The sweeps stop after the first sweep
    that rotates nothing (``converged``) or after
    :data:`JACOBI_MAX_SWEEPS`.  The summed squared off-diagonal energy is
    non-increasing across sweeps; the per-sweep values are recorded in the
    result.
    """
    a = np.stack([np.asarray(m, dtype=float) for m in matrices], axis=1)
    if a.ndim != 3 or a.shape[0] != a.shape[2]:
        raise ValueError("joint_diagonalize expects square matrices of equal size")
    k = a.shape[0]
    steps, off_rows, off_cols = _sweep(k)
    v = np.eye(k)
    history = [float(np.sum(a[off_rows, :, off_cols] ** 2))]
    scale = max(1.0, float(np.max(np.abs(a))))
    threshold = JACOBI_TOL * scale

    converged = False
    sweeps = 0
    while sweeps < JACOBI_MAX_SWEEPS:
        sweeps += 1
        rotated = False
        for rows, cols in steps:
            a, v, turned = _jacobi_step(a, v, rows, cols, threshold)
            rotated |= turned
        history.append(float(np.sum(a[off_rows, :, off_cols] ** 2)))
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


def _pair_blocks(p, q) -> tuple:
    """Row and column indices of the 2 x 2 blocks of the pairs (p, q): four
    runs of one entry per pair, (p, p), (q, q), (p, q) and (q, p)."""
    rows = np.concatenate((p, q, p, q))
    cols = np.concatenate((p, q, q, p))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=None)
def _sweep(k: int) -> tuple:
    """Per-k constants of a sweep: the block indices of every round-robin
    step, then the row and column indices of the off-diagonal entries."""
    off_rows, off_cols = np.nonzero(~np.eye(k, dtype=bool))
    off_rows.setflags(write=False)
    off_cols.setflags(write=False)
    return tuple(_pair_blocks(p, q) for p, q in round_robin(k)), off_rows, off_cols


@functools.lru_cache(maxsize=None)
def _step_constants(k: int) -> tuple:
    """Constants of a step on k indices, whose m = k // 2 pairs give 4 m
    gathered blocks: the sign matrix that forms g1 = pp - qq and
    g2 = pq + qp from them (one product, exact: each entry adds one term to
    another), the flat indices of g1.g1, g2.g2 and g1.g2 in the Gram matrix
    of g, and the identity."""
    m = k // 2
    i = np.arange(m)
    signs = np.zeros((2 * m, 4 * m))
    signs[i, i] = signs[m + i, 2 * m + i] = signs[m + i, 3 * m + i] = 1.0
    signs[i, m + i] = -1.0
    sums = np.stack((i * (2 * m + 1), (m + i) * (2 * m + 1), i * 2 * m + m + i))
    constants = signs, sums, np.eye(k)
    for c in constants:
        c.setflags(write=False)
    return constants


def _jacobi_step(a, v, rows, cols, threshold):
    """Rotate every pair of one round-robin step at once.

    ``a`` is the (k, n, k) stack and ``rows, cols`` the step's
    :func:`_pair_blocks`.  One gather takes every pair's 2 x 2 block in every
    matrix, and the sums over the matrices are read off one Gram matrix.
    The angle is the Cardoso-Souloumiac angle in its quarter-angle form,
    theta = atan2(toff, ton) / 4, equal in exact arithmetic to the
    half-angle form atan2(toff, ton + hypot(ton, toff)) / 2 but free of its
    cancellation near toff = 0, ton < 0 (equal diagonals), where it gives
    the optimal pi/4 and the half-angle form 0.  J is applied as two plain
    2-d products.  Returns the rotated stack and V, and whether any pair
    was rotated.
    """
    k, n, _ = a.shape
    signs, sums, eye = _step_constants(k)
    g = signs @ a[rows, :, cols]                  # rows: g1 per pair, g2 per pair
    g1g1, g2g2, g1g2 = (g @ g.T).take(sums)
    ton = g1g1 - g2g2
    toff = 2.0 * g1g2
    theta = 0.25 * np.arctan2(toff, ton)
    s = np.sin(theta)
    # no off-diagonal content -> the optimal angle is numerically undefined
    # and rotating would scramble V for zero gain
    turn = (np.sqrt(g2g2) > threshold) & (np.abs(s) > threshold)
    if not turn.any():
        return a, v, False
    s = np.where(turn, s, 0.0)
    c = np.where(turn, np.cos(theta), 1.0)
    j = eye.copy()
    j[rows, cols] = np.concatenate((c, c, -s, s))
    a = (j.T @ a.reshape(k, n * k)).reshape(k * n, k) @ j
    return a.reshape(k, n, k), v @ j, True


# ---------------------------------------------------------------------------
# rectangular maximum-weight assignment
# ---------------------------------------------------------------------------

def assign_max(score) -> list:
    """Exact one-to-one assignment maximizing the summed score.

    ``score[i, j]`` is the (finite, nonnegative) reward for pairing row i
    with column j.  Exactly min(rows, cols) pairs are selected, sorted.
    Solved exactly by the shortest augmenting path method of Crouse (IEEE
    TAES 52(4), 2016) as scipy's ``linear_sum_assignment(score,
    maximize=True)`` runs it, step for step and in the same floating-point
    order, so the two give the same pairs, ties included: a tall matrix is
    transposed and the scores negated, and :func:`_augmenting_paths`
    assigns every row of the wide cost matrix.  It runs on Python floats:
    the matrices scoring builds are at most 14 x 10.
    """
    score = np.asarray(score, dtype=float)
    if score.ndim != 2 or score.size == 0:
        raise ValueError("assign_max expects a non-empty 2-d score matrix")
    values = score.ravel().tolist()     # checked as Python floats: faster when small
    if not all(map(math.isfinite, values)):
        raise ValueError("assign_max scores must be finite")
    if min(values) < 0:
        raise ValueError("assign_max scores must be nonnegative")

    transpose = score.shape[1] < score.shape[0]
    cost = np.negative(score.T if transpose else score).tolist()
    col4row = _augmenting_paths(cost)
    if transpose:
        return sorted((j, i) for i, j in enumerate(col4row))
    return list(enumerate(col4row))


def _augmenting_paths(cost) -> list:
    """Minimum-cost assignment of every row of a wide cost matrix (a list
    of equal-length rows of floats, no more rows than columns); returns
    the column of each row.

    A port of scipy's ``rectangular_lsap``: row by row, a Dijkstra search
    over reduced costs ``min_val + cost - u - v`` (evaluated left to right)
    finds the shortest path to a free column.  The unvisited columns are
    listed in reverse order and a visited one is removed by swapping in the
    last, so a constant matrix is assigned on the diagonal; the lowest
    reduced cost wins, a free column on ties.  Then the duals u, v are
    updated and the path is flipped.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    inf = math.inf
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        shortest = [inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        visited_rows, visited_cols = [], []
        min_val = 0.0
        i = cur_row
        while i != -1:
            visited_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == inf:
                raise NumericalFailure("assign_max found no feasible assignment")
            sink = remaining[index]
            visited_cols.append(sink)
            last = remaining.pop()
            if index < len(remaining):
                remaining[index] = last
            i = row4col[sink]                   # -1: a free column ends the path

        u[cur_row] += min_val
        for i in visited_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row
