import itertools

import numpy as np
import pytest
import scipy.optimize

from bssnmr import numkernel as nk
from bssnmr.errors import NumericalFailure


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------

def test_svd_identity():
    res = nk.svd(np.eye(3))
    assert np.allclose(res.S, [1.0, 1.0, 1.0], atol=1e-14)


def test_svd_diagonal_with_sign():
    res = nk.svd(np.array([[3.0, 0.0], [0.0, -2.0]]))
    assert np.allclose(res.S, [3.0, 2.0], atol=1e-12)
    recon = res.U @ np.diag(res.S) @ res.Vt
    assert np.max(np.abs(recon - np.array([[3.0, 0.0], [0.0, -2.0]]))) < 1e-12


def test_svd_gram_matrix_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((20, 1024))
    res = nk.svd(x)
    scale = np.linalg.norm(x)
    recon = res.U @ np.diag(res.S) @ res.Vt
    assert np.linalg.norm(recon - x) < 1e-10 * scale
    assert np.max(np.abs(res.U.T @ res.U - np.eye(20))) < 1e-10
    assert np.max(np.abs(res.Vt @ res.Vt.T - np.eye(20))) < 1e-10
    # independent oracle: eigenvalues of the 20x20 Gram matrix
    gram_eigs = np.sort(np.linalg.eigvalsh(x @ x.T))[::-1]
    assert np.allclose(res.S ** 2, gram_eigs, rtol=1e-10, atol=1e-8 * scale)
    assert np.all(np.diff(res.S) <= 1e-12)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        nk.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# nnls
# ---------------------------------------------------------------------------

def test_nnls_identity_passthrough():
    b = np.array([1.0, 2.0, 0.5])
    assert np.allclose(nk.nnls(np.eye(3), b), b, atol=1e-12)


def test_nnls_clips_negative_target():
    x = nk.nnls(np.eye(2), np.array([-1.0, 2.0]))
    assert np.allclose(x, [0.0, 2.0], atol=1e-12)


def test_nnls_kkt_and_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        x = nk.nnls(a, b)
        assert np.all(x >= 0)
        # KKT: gradient nonnegative on the active set, ~zero on the support
        grad = a.T @ (a @ x - b)
        assert np.all(grad[x == 0] >= -1e-8)
        assert np.max(np.abs(grad[x > 0])) < 1e-8 if np.any(x > 0) else True
        # dense grid oracle over a box covering the solution
        hi = max(1.0, 1.5 * x.max())
        axes = [np.linspace(0.0, hi, 13)] * 4
        grid = np.array(np.meshgrid(*axes, indexing="ij")).reshape(4, -1)
        objective = np.sum((a @ grid - b[:, None]) ** 2, axis=0)
        f_x = np.sum((a @ x - b) ** 2)
        assert f_x <= objective.min() + 1e-6


def _nnls_designs(rng):
    """(label, a, b): random, nearly collinear and rank-deficient designs."""
    for trial in range(12):
        n, k = 30, int(rng.integers(2, 9))
        a = rng.standard_normal((n, k))
        b = rng.standard_normal((n, 7))
        yield "random", a, b
        near = a[:, :1] + 1e-3 * rng.standard_normal((n, k))
        yield "collinear", near, b
        deficient = a.copy()
        deficient[:, -1] = a[:, 0] + a[:, 1]
        if k > 2:
            deficient[:, -2] = a[:, 0]
        yield "deficient", deficient, b


def test_nnls_multi_rhs_matches_scipy_per_column():
    rng = np.random.default_rng(31)
    for label, a, b in _nnls_designs(rng):
        x = nk.nnls(a, b)
        assert x.shape == (a.shape[1], b.shape[1])
        assert np.all(x >= 0), label
        for j in range(b.shape[1]):
            ref, _ = scipy.optimize.nnls(a, b[:, j])
            f = np.sum((a @ x[:, j] - b[:, j]) ** 2)
            f_ref = np.sum((a @ ref - b[:, j]) ** 2)
            assert abs(f - f_ref) <= 1e-10 * f_ref, label
            # KKT, relative to the size of the gradient's terms
            grad = a.T @ (a @ x[:, j] - b[:, j])
            scale = np.linalg.norm(a) * np.linalg.norm(b[:, j])
            assert np.all(grad >= -1e-9 * scale), label
            assert np.all(np.abs(grad[x[:, j] > 0]) <= 1e-9 * scale), label


def test_nnls_start_gives_cold_start_optimum():
    rng = np.random.default_rng(32)
    for label, a, b in _nnls_designs(rng):
        cold = nk.nnls(a, b)
        f_cold = np.sum((a @ cold - b) ** 2, axis=0)
        stale = nk.nnls(a, rng.standard_normal(b.shape))
        for start in (stale, rng.standard_normal(cold.shape), np.ones(cold.shape), cold):
            x = nk.nnls(a, b, start=start)
            assert np.all(x >= 0), label
            f = np.sum((a @ x - b) ** 2, axis=0)
            assert np.all(np.abs(f - f_cold) <= 1e-10 * f_cold), label
            if label == "random":
                assert np.allclose(x, cold, rtol=0, atol=1e-10 * np.abs(cold).max())


def test_nnls_exact_start_needs_one_solve(monkeypatch):
    rng = np.random.default_rng(35)
    a = rng.standard_normal((30, 6))
    b = rng.standard_normal((30, 7))
    x = nk.nnls(a, b)
    calls = []
    solve = nk._passive_solve
    monkeypatch.setattr(nk, "_passive_solve",
                        lambda *args: calls.append(1) or solve(*args))
    assert np.allclose(nk.nnls(a, b, start=x), x, rtol=0, atol=1e-12)
    assert len(calls) == 1


def test_nnls_near_duplicate_columns_terminate():
    # columns equal to 1e-8: the Gram matrix is singular to working
    # precision, so duals of order rounding let variables enter that the
    # solve then sets nonpositive; without rejecting them the active set
    # cycles until the iteration cap
    rng = np.random.default_rng(34)
    for _ in range(20):
        a = np.abs(rng.standard_normal((18, 1))) + 1e-8 * rng.standard_normal((18, 5))
        b = np.abs(rng.standard_normal((18, 3)))
        x = nk.nnls(a, b)
        for j in range(3):
            ref, _ = scipy.optimize.nnls(a, b[:, j])
            f = np.sum((a @ x[:, j] - b[:, j]) ** 2)
            f_ref = np.sum((a @ ref - b[:, j]) ** 2)
            assert f <= f_ref * (1 + 1e-7)


def test_nnls_vector_rhs_matches_matrix_column():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((12, 4))
    b = rng.standard_normal((12, 3))
    x = nk.nnls(a, b)
    for j in range(3):
        single = nk.nnls(a, b[:, j], start=x[:, j])
        assert single.shape == (4,)
        assert np.allclose(single, x[:, j], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        nk.nnls(a, b[:, 0], start=x)


def test_nnls_iteration_cap_raises(monkeypatch):
    # an inner loop that forgets every passive variable makes the outer loop
    # re-enter the same variable forever
    def forget(gram, rhs, x, passive, todo, s):
        passive[todo] = False
        x[todo] = 0.0

    monkeypatch.setattr(nk, "_make_feasible", forget)
    with pytest.raises(NumericalFailure):
        nk.nnls(np.eye(3), np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# joint diagonalization
# ---------------------------------------------------------------------------

def test_joint_diagonalize_already_diagonal():
    res = nk.joint_diagonalize([np.diag([4.0, 2.0, 1.0])])
    assert res.converged
    # identity up to permutation/sign
    assert np.max(np.abs(np.abs(res.V) - np.eye(3))) < 1e-10


def test_joint_diagonalize_recovers_known_rotation():
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    mats = [q @ np.diag(rng.uniform(1.0, 5.0, 5)) @ q.T for _ in range(2)]
    res = nk.joint_diagonalize(mats)
    assert res.converged
    overlap = np.abs(res.V.T @ q)
    # permutation matrix up to sign
    assert np.allclose(overlap.max(axis=0), 1.0, atol=1e-8)
    assert np.allclose(np.sort(overlap, axis=0)[:-1], 0.0, atol=1e-8)
    rotated = [res.V.T @ m @ res.V for m in mats]
    off = sum(np.sum((r - np.diag(np.diag(r))) ** 2) for r in rotated)
    assert off < 1e-10


@pytest.mark.parametrize("k", [13, 14])
def test_joint_diagonalize_recovers_known_rotation_at_jade_size(k):
    # JADE's stack: k(k+1)/2 matrices, exactly jointly diagonal
    rng = np.random.default_rng(k)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    mats = [q @ np.diag(rng.standard_normal(k)) @ q.T
            for _ in range(k * (k + 1) // 2)]
    res = nk.joint_diagonalize(mats)
    assert res.converged
    overlap = np.abs(res.V.T @ q)
    assert np.allclose(overlap.max(axis=0), 1.0, atol=1e-8)
    assert np.allclose(np.sort(overlap, axis=0)[:-1], 0.0, atol=1e-8)
    rotated = np.array([res.V.T @ m @ res.V for m in mats])
    rotated[:, np.arange(k), np.arange(k)] = 0.0
    assert np.sum(rotated ** 2) < 1e-10


def test_joint_diagonalize_off_diagonal_monotone():
    rng = np.random.default_rng(23)
    for k in (4, 7):
        for _ in range(100):
            mats = []
            for _ in range(3):
                m = rng.standard_normal((k, k))
                mats.append(m + m.T)
            res = nk.joint_diagonalize(mats)
            history = np.array(res.off_diagonal)
            assert np.all(np.diff(history) <= 1e-9 * max(1.0, history[0]))


@pytest.mark.parametrize("k", range(1, 17))
def test_round_robin_schedule_visits_every_pair_once(k):
    steps = nk.round_robin(k)
    assert len(steps) == (0 if k == 1 else k - 1 + k % 2)
    seen = []
    for p, q in steps:
        assert np.all(p < q)
        touched = np.concatenate((p, q))
        assert len(set(touched.tolist())) == touched.size   # disjoint pairs
        seen.extend(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == list(itertools.combinations(range(k), 2))


def givens_pairwise(mats, v, pairs, threshold):
    """The textbook cyclic Jacobi update, one pair at a time."""
    mats, v = mats.copy(), v.copy()
    for p, q in pairs:
        g1 = mats[:, p, p] - mats[:, q, q]
        g2 = mats[:, p, q] + mats[:, q, p]
        if np.sqrt(g2 @ g2) <= threshold:
            continue
        ton = g1 @ g1 - g2 @ g2
        toff = 2.0 * (g1 @ g2)
        theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
        c, s = np.cos(theta), np.sin(theta)
        if abs(s) <= threshold:
            continue
        for a in (mats.transpose(0, 2, 1), mats, v.T):   # columns, rows, V
            a[..., p, :], a[..., q, :] = (c * a[..., p, :] + s * a[..., q, :],
                                          -s * a[..., p, :] + c * a[..., q, :])
    return mats, v


@pytest.mark.parametrize("k", [7, 8, 13])
def test_jacobi_step_equals_pairwise_givens(k):
    rng = np.random.default_rng(29 + k)
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    for p, q in nk.round_robin(k):
        mats = rng.standard_normal((6, k, k))
        mats = mats + mats.transpose(0, 2, 1)
        # the step's first pair has off-diagonal content below the
        # threshold, though its angle is large: it must stay put
        mats[:, p[0], q[0]] = mats[:, q[0], p[0]] = 1e-14
        mats[:, q[0], q[0]] = mats[:, p[0], p[0]] + 1e-14
        want_mats, want_v = givens_pairwise(mats, v, zip(p, q), 1e-12)
        a, v, rotated = nk._jacobi_step(mats.transpose(1, 0, 2), v,
                                        *nk._pair_blocks(p, q), 1e-12)
        mats = a.transpose(1, 0, 2)
        assert rotated
        assert np.max(np.abs(mats - want_mats)) < 1e-12
        assert np.max(np.abs(v - want_v)) < 1e-12
        assert np.all(mats[:, p[0], q[0]] == 1e-14)


def test_joint_diagonalize_rotates_equal_diagonal_pairs():
    # g1 = 0 in every matrix and g2 != 0: the optimal angle is pi/4, where
    # the half-angle form of the angle cancels to 0 and rotates nothing
    rng = np.random.default_rng(31)
    mats = [np.array([[a, b], [b, a]]) for a, b in rng.standard_normal((6, 2))]
    res = nk.joint_diagonalize(mats)
    assert res.converged
    assert res.off_diagonal[-1] <= 1e-20 * res.off_diagonal[0]
    assert np.allclose(np.abs(res.V), np.sqrt(0.5), rtol=0.0, atol=1e-15)
    assert np.allclose(res.V.T @ res.V, np.eye(2), rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------

def brute_force_max(score):
    score = np.asarray(score)
    n, m = score.shape
    best = None
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            total = sum(score[i, c] for i, c in enumerate(cols))
            if best is None or total > best[0]:
                best = (total, [(i, c) for i, c in enumerate(cols)])
    else:
        for rows in itertools.permutations(range(n), m):
            total = sum(score[r, j] for j, r in enumerate(rows))
            if best is None or total > best[0]:
                best = (total, [(r, j) for j, r in enumerate(rows)])
    return best


def test_assign_max_diagonal_dominant():
    score = np.full((3, 3), 1.0)
    np.fill_diagonal(score, 10.0)
    assert nk.assign_max(score) == [(0, 0), (1, 1), (2, 2)]


def test_assign_max_matches_bruteforce_square():
    rng = np.random.default_rng(5)
    for _ in range(50):
        score = rng.random((4, 4))
        pairs = nk.assign_max(score)
        total = sum(score[i, j] for i, j in pairs)
        best_total, _ = brute_force_max(score)
        assert abs(total - best_total) < 1e-12


def test_assign_max_rectangular():
    rng = np.random.default_rng(6)
    for _ in range(20):
        score = rng.random((5, 3))
        pairs = nk.assign_max(score)
        assert len(pairs) == 3
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(set(rows)) == 3 and len(set(cols)) == 3
        total = sum(score[i, j] for i, j in pairs)
        best_total, _ = brute_force_max(score)
        assert abs(total - best_total) < 1e-12


def scipy_assignment(score):
    rows, cols = scipy.optimize.linear_sum_assignment(score, maximize=True)
    return sorted(zip(rows.tolist(), cols.tolist()))


def assignment_cases(rng, rows, cols):
    """Six score matrices of one shape: random, integer ties, tenths (ties
    up to rounding), all-zero rows, constant, and scores spanning 1e-3 to
    1e25."""
    zero_rows = rng.random((rows, cols))
    zero_rows[rng.random(rows) < 0.4] = 0.0
    return (rng.random((rows, cols)),
            rng.integers(0, 4, (rows, cols)).astype(float),
            rng.integers(0, 10, (rows, cols)) / 10.0,
            zero_rows,
            np.full((rows, cols), float(rng.integers(0, 3))),
            10.0 ** rng.uniform(-3.0, 25.0, (rows, cols)))


def test_assign_max_equals_scipy_pair_for_pair():
    """The port of scipy's shortest augmenting path solver picks scipy's
    pairs, ties included, on every shape up to 14 x 10 in both
    orientations: 280 shapes x 15 draws x 6 kinds = 25,200 matrices."""
    rng = np.random.default_rng(16)
    checked = 0
    for rows in range(1, 15):
        for cols in range(1, 11):
            for shape in ((rows, cols), (cols, rows)):
                for _ in range(15):
                    for score in assignment_cases(rng, *shape):
                        assert nk.assign_max(score) == scipy_assignment(score), score
                        checked += 1
    assert checked == 25_200


# Each matrix has two assignments whose sums are equal in tenths; which one
# comes out follows from the order of every floating-point step, the dual
# updates included.
ROUNDING_DECIDES = (
    [[0.5, 0.7, 0.3, 0.0, 0.1, 0.1, 0.7, 0.6], [0.6, 0.9, 0.5, 0.4, 0.4, 0.7, 0.8, 0.6],
     [0.5, 0.1, 0.5, 0.2, 0.6, 0.4, 0.4, 0.5], [0.1, 0.2, 0.6, 0.9, 0.5, 0.2, 0.2, 0.9],
     [0.2, 0.3, 0.1, 0.0, 0.3, 0.0, 0.0, 0.2], [0.2, 0.8, 0.6, 0.5, 0.2, 0.7, 0.4, 0.7],
     [0.2, 0.9, 0.0, 0.5, 0.0, 0.3, 0.1, 0.4], [0.3, 0.0, 0.6, 0.6, 0.1, 0.6, 0.4, 0.8]],
    [[0.0, 0.4, 0.2, 0.2], [0.1, 0.5, 0.0, 0.6], [0.1, 0.0, 0.1, 0.2],
     [0.9, 0.6, 0.8, 0.7], [0.2, 0.2, 0.1, 0.4]],
)


@pytest.mark.parametrize("score", ROUNDING_DECIDES)
def test_assign_max_rounding_order_as_scipy(score):
    score = np.array(score)
    for matrix in (score, score.T):
        assert nk.assign_max(matrix) == scipy_assignment(matrix)


def test_assign_max_validates_input():
    with pytest.raises(ValueError):
        nk.assign_max(np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        nk.assign_max(np.array([[np.inf, 1.0]]))


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def test_rng_reproducible_stream():
    a = nk.seeded_rng(123).random(1000)
    b = nk.seeded_rng(123).random(1000)
    assert np.array_equal(a, b)


def test_derive_rng_independent_keys():
    a = nk.derive_rng(1, 2, 3).random(10)
    b = nk.derive_rng(1, 2, 4).random(10)
    c = nk.derive_rng(1, 2, 3).random(10)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
