"""Blind source separation technique suite.

Every technique maps a :class:`~bssnmr.synth.MixtureDataset` and a requested
component count k to a :class:`ComponentSet`: k predicted spectra plus the
per-spectrum mixing coefficients.  Outputs carry arbitrary sign and scale;
all quality statements are made after affine alignment (see scoring).

Technique identifiers are stable strings such as ``svd``, ``fastica``,
``nnmf:nndsvdar``, ``simplisma:offset8`` or ``mcr:nnls:random``;
:data:`TECHNIQUES` maps each one to the function that runs it.
"""

import time
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import TechniqueFailure
from .numkernel import joint_diagonalize, nnls, seeded_rng, svd
from .synth import MixtureDataset

NNMF_INITS = ("random", "nndsvd", "nndsvda", "nndsvdar")
SIMPLISMA_OFFSETS = (0, 2, 8, 12, 15)
MCR_REGRESSIONS = ("ols_als", "nnls")
MCR_INITS = ("provided", "random")


# Every technique by identifier, each as run(dataset, k, seed).  The order
# is the roster order, and the bench seeds each technique by its index in
# it, so reordering changes every record.
TECHNIQUES = {
    "svd": lambda ds, k, seed: svd_like(ds, k),
    "truncated_svd": lambda ds, k, seed: svd_like(ds, k),
    "pca": lambda ds, k, seed: svd_like(ds, k, centered=True),
    "fastica": lambda ds, k, seed: fastica(ds, k, seed),
    "jade": lambda ds, k, seed: jade(ds, k),
    "sobi": lambda ds, k, seed: sobi(ds, k),
    "vca": lambda ds, k, seed: vca(ds, k, seed),
    **{f"nnmf:{init}": lambda ds, k, seed, init=init: nnmf(ds, k, init, seed)
       for init in NNMF_INITS},
    **{f"simplisma:offset{off}": lambda ds, k, seed, off=off: simplisma(ds, k, off)
       for off in SIMPLISMA_OFFSETS},
    **{f"mcr:{reg}" + ("" if init == "provided" else f":{init}"):
       lambda ds, k, seed, reg=reg, init=init: mcr(ds, k, reg, init, seed=seed)
       for reg in MCR_REGRESSIONS for init in MCR_INITS},
}


class TechniqueId(NamedTuple):
    """A roster name split at its first colon (``mcr``, ``nnls:random``)."""

    family: str
    variant: str


def parse_technique(name: str) -> TechniqueId:
    """Split a roster name; refuse a name that is not in :data:`TECHNIQUES`."""
    if name not in TECHNIQUES:
        raise ValueError(f"unknown technique {name!r}; "
                         f"valid: {', '.join(TECHNIQUES)}")
    family, _, variant = name.partition(":")
    return TechniqueId(family, variant)


@dataclass(eq=False)
class ComponentSet:
    """Output of one technique: k predicted spectra and mixing weights."""

    components: np.ndarray = field(repr=False)     # (k, n_points)
    coefficients: np.ndarray = field(repr=False)   # (n_spectra, k)
    technique: Optional[str] = None                # roster name, set by decompose
    converged: bool = True
    runtime_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.components.shape[0]


def decompose(dataset: MixtureDataset, technique: str, k: int, seed: int = 0) -> ComponentSet:
    """Run one technique on one dataset, timing the call.

    Techniques that internally produce more components than requested keep
    the top k by explained variance.  Iterative techniques that fail to
    converge return their last iterate flagged ``converged=False``; a
    technique unable to produce any output raises
    :class:`~bssnmr.errors.TechniqueFailure`.
    """
    parse_technique(technique)
    if not 1 <= k <= dataset.n_spectra:
        raise ValueError(f"k must lie in [1, {dataset.n_spectra}]")

    start = time.perf_counter()
    result = TECHNIQUES[technique](dataset, k, seed)
    result.technique = technique
    result.runtime_seconds = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# shared factorizations
# ---------------------------------------------------------------------------

# The matrices that techniques factor, each as a function of the spectra.
_FORMS = {
    "raw": lambda x: x,
    "centered": lambda x: x - x.mean(axis=0, keepdims=True),
    "transposed": lambda x: x.T,
    "transposed_centered": lambda x: x.T - x.T.mean(axis=1, keepdims=True),
    "nonnegative": lambda x: nnmf_preprocess(x)[0],
}
_FACTORS = weakref.WeakKeyDictionary()


def _factors(dataset: MixtureDataset, form: str):
    """Thin SVD of one form of the dataset's spectra, factored once.

    ``form`` names the matrix: ``raw`` (svd, truncated_svd, fastica, jade,
    mcr:ols_als), ``centered`` about the column mean (pca), ``transposed``
    (vca), ``transposed_centered`` about the row mean of the transpose
    (sobi, vca) and ``nonnegative``, the nnmf preprocessing (nnmf and
    mcr:nnls).  Each is formed by the expression its techniques used on
    their own, so the factors are bit-identical to an unshared call.  They
    are kept per dataset object, dropped with it, and shared read-only by
    every technique and k.  A dataset holds a read-only copy of its spectra
    (see :class:`~bssnmr.synth.MixtureDataset`), so the cache cannot go stale.
    """
    cached = _FACTORS.setdefault(dataset, {})
    if form not in cached:
        factors = svd(_FORMS[form](dataset.spectra))
        for a in factors:
            a.setflags(write=False)
        cached[form] = factors
    return cached[form]


# ---------------------------------------------------------------------------
# subspace techniques
# ---------------------------------------------------------------------------

def svd_like(dataset: MixtureDataset, k: int, centered: bool = False) -> ComponentSet:
    """Raw (SVD / truncated SVD) or column-centered (PCA) singular vectors.

    Components are the top-k right singular vectors; coefficients are the
    corresponding scores U * S.  Every k reads the same factorization of
    the dataset (:func:`_factors`), so svd and truncated_svd share it.
    """
    u, s, vt = _factors(dataset, "centered" if centered else "raw")
    comps = vt[:k].copy()
    coeff = u[:, :k] * s[:k]
    meta = {"singular_values": s.tolist(), "centered": centered}
    return ComponentSet(components=comps, coefficients=coeff, meta=meta)


# ---------------------------------------------------------------------------
# ICA family
# ---------------------------------------------------------------------------

def _whiten(factors, k: int):
    """Whiten to k dimensions from the thin SVD ``factors`` of the data
    (a :func:`_factors` result, samples along the columns).

    Returns (z, back): z is (k, n_samples) with unit second moment, and
    back @ z reconstructs the factored data in the k-dim subspace.
    Whitening the raw spectra about the origin keeps any common-mode
    offset inside the mixing span instead of discarding it.
    """
    u, s, vt = factors
    n_samples = vt.shape[1]
    z = np.sqrt(n_samples) * vt[:k]
    back = u[:, :k] * (s[:k] / np.sqrt(n_samples))
    return z, back


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(w @ w.T)
    vals = np.maximum(vals, np.finfo(float).tiny)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ w


def fastica(dataset: MixtureDataset, k: int, seed: int = 0,
            tol: float = 1e-6, max_iter: int = 400) -> ComponentSet:
    """Fixed-point ICA with log-cosh contrast and symmetric decorrelation.

    The frequency axis provides the samples; unmixed sources are returned
    as the predicted component spectra.
    """
    z, back = _whiten(_factors(dataset, "raw"), k)
    n = z.shape[1]
    rng = seeded_rng(seed)
    w = _sym_decorrelate(rng.standard_normal((k, k)))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        wz = w @ z
        g = np.tanh(wz)
        g_prime = 1.0 - g ** 2
        w_new = _sym_decorrelate((g @ z.T) / n - g_prime.mean(axis=1)[:, None] * w)
        delta = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0)))
        w = w_new
        if delta < tol:
            converged = True
            break
    comps = w @ z
    coeff = back @ w.T
    meta = {"iterations": iterations}
    return ComponentSet(components=comps, coefficients=coeff,
                        converged=converged, meta=meta)


def jade(dataset: MixtureDataset, k: int) -> ComponentSet:
    """Joint approximate diagonalization of fourth-order cumulant matrices."""
    z, back = _whiten(_factors(dataset, "raw"), k)
    n = z.shape[1]
    eye = np.eye(k)
    cumulants = []
    for i in range(k):
        for j in range(i, k):
            q = (z * z[i] * z[j]) @ z.T / n
            if i == j:
                q -= eye
            q[i, j] -= 1.0
            q[j, i] -= 1.0
            cumulants.append(q)
    jd = joint_diagonalize(cumulants)
    comps = jd.V.T @ z
    coeff = back @ jd.V
    meta = {"sweeps": jd.sweeps, "off_diagonal": jd.off_diagonal[-1]}
    return ComponentSet(components=comps, coefficients=coeff,
                        converged=jd.converged, meta=meta)


def sobi(dataset: MixtureDataset, k: int, lags=(1, 2, 3, 4, 5)) -> ComponentSet:
    """Second-order blind identification along the spectrum-index axis.

    The 20 spectra are treated as the sample series of every frequency
    channel, so the lagged covariances capture how smoothly each source's
    intensity evolves across the dataset (relaxation or nutation order).
    """
    n_spectra = dataset.n_spectra
    if max(lags) >= n_spectra:
        raise ValueError(f"lags must be smaller than the spectrum count {n_spectra}")
    # channels = frequency bins, samples = spectrum index
    z, back = _whiten(_factors(dataset, "transposed_centered"), k)
    t = z.shape[1]
    lagged = []
    for lag in lags:
        r = z[:, : t - lag] @ z[:, lag:].T / (t - lag)
        lagged.append(0.5 * (r + r.T))
    jd = joint_diagonalize(lagged)
    profiles = jd.V.T @ z                     # (k, n_spectra)
    comps = (back @ jd.V).T                   # (k, n_points)
    coeff = profiles.T                        # (n_spectra, k)
    meta = {"lags": list(lags), "sweeps": jd.sweeps}
    return ComponentSet(components=comps, coefficients=coeff,
                        converged=jd.converged, meta=meta)


# ---------------------------------------------------------------------------
# vertex component analysis
# ---------------------------------------------------------------------------

def vca(dataset: MixtureDataset, k: int, seed: int = 0) -> ComponentSet:
    """Iterative extreme-point selection in the k-dim signal subspace.

    The 20 mixture spectra are the candidate vertices.  Depending on the
    estimated SNR the data are projected onto the k-dim subspace of the
    correlation matrix (projective normalization) or onto the (k-1)-dim
    affine subspace with an appended constant coordinate.
    """
    y = dataset.spectra.T                     # (n_points, n_spectra)
    n_bands, n_vecs = y.shape
    rng = seeded_rng(seed)

    y_mean = y.mean(axis=1, keepdims=True)
    y_centered = y - y_mean
    u_c, _, _ = _factors(dataset, "transposed_centered")
    x_p = u_c[:, :k].T @ y_centered
    p_y = float(np.sum(y ** 2)) / n_vecs
    p_x = float(np.sum(x_p ** 2)) / n_vecs + float(np.sum(y_mean ** 2))
    denom = p_y - p_x
    if denom <= 0:
        snr_db = np.inf
    else:
        snr_db = 10.0 * np.log10(max(p_x - (k / n_bands) * p_y, 0.0) / denom
                                 + np.finfo(float).tiny)
    snr_threshold = 15.0 + 10.0 * np.log10(k)

    if k > 1 and snr_db < snr_threshold:
        branch = "affine"
        d = k - 1
        x = u_c[:, :d].T @ y_centered
        y_proj = u_c[:, :d] @ x + y_mean
        c = float(np.max(np.sqrt(np.sum(x ** 2, axis=0))))
        work = np.vstack([x, c * np.ones((1, n_vecs))])
    else:
        branch = "projective"
        u_r, _, _ = _factors(dataset, "transposed")
        ud = u_r[:, :k]
        x = ud.T @ y
        y_proj = ud @ x
        u_dir = x.mean(axis=1, keepdims=True)
        scale = x.T @ u_dir
        scale[scale == 0.0] = np.finfo(float).tiny
        work = x / scale.T

    if k == 1:
        indices = [int(np.argmax(np.abs(x[0])))]
    else:
        indices = []
        a = np.zeros((k, k))
        a[-1, 0] = 1.0
        for i in range(k):
            w = rng.standard_normal((k, 1))
            f = w - a @ np.linalg.pinv(a) @ w
            norm = float(np.sqrt(np.sum(f ** 2)))
            if norm == 0.0:
                raise TechniqueFailure("vca found no direction orthogonal to "
                                       "the selected vertices")
            f /= norm
            v = (f.T @ work).ravel()
            idx = int(np.argmax(np.abs(v)))
            indices.append(idx)
            a[:, i] = work[:, idx]

    comps = y_proj[:, indices].T
    coeff, *_ = np.linalg.lstsq(comps.T, dataset.spectra.T, rcond=None)
    meta = {"snr_db": float(snr_db), "branch": branch, "vertex_rows": indices}
    return ComponentSet(components=comps, coefficients=coeff.T, meta=meta)


# ---------------------------------------------------------------------------
# nonnegative matrix factorization
# ---------------------------------------------------------------------------

def flip_negative_rows(x: np.ndarray):
    """Invert rows carrying more negative than positive intensity."""
    neg = -np.sum(np.minimum(x, 0.0), axis=1)
    pos = np.sum(np.maximum(x, 0.0), axis=1)
    flip = neg > pos
    signs = np.where(flip, -1.0, 1.0)
    return x * signs[:, None], np.flatnonzero(flip)


def shift_nonnegative(x: np.ndarray):
    """Offset the whole matrix by a constant so every entry is >= 0."""
    low = float(x.min())
    offset = -low if low < 0 else 0.0
    return x + offset, offset


def nnmf_preprocess(x: np.ndarray):
    """Negative-intensity preprocessing: row flips, then a global offset."""
    x, flipped_rows = flip_negative_rows(x)
    x, shift = shift_nonnegative(x)
    return x, flipped_rows, shift


def nndsvd_init(x: np.ndarray, k: int, variant: str, rng, factors) -> tuple:
    """SVD-seeded nonnegative initialization (zeros kept, averaged or jittered).

    ``factors`` is the thin SVD ``(u, s, vt)`` of ``x``.
    """
    u, s, vt = factors
    m, n = x.shape
    w = np.zeros((m, k))
    h = np.zeros((k, n))
    w[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    h[0] = np.sqrt(s[0]) * np.abs(vt[0])
    for j in range(1, min(k, s.size)):
        uj, vj = u[:, j], vt[j]
        up, un = np.maximum(uj, 0.0), np.maximum(-uj, 0.0)
        vp, vn = np.maximum(vj, 0.0), np.maximum(-vj, 0.0)
        norm_p = np.linalg.norm(up) * np.linalg.norm(vp)
        norm_n = np.linalg.norm(un) * np.linalg.norm(vn)
        if norm_p >= norm_n:
            scale, uu, vv = norm_p, up, vp
        else:
            scale, uu, vv = norm_n, un, vn
        if scale > 0:
            factor = np.sqrt(s[j] * scale)
            w[:, j] = factor * uu / np.linalg.norm(uu)
            h[j] = factor * vv / np.linalg.norm(vv)
    if variant == "nndsvda":
        mean = x.mean()
        w[w == 0.0] = mean
        h[h == 0.0] = mean
    elif variant == "nndsvdar":
        mean = x.mean()
        wz = w == 0.0
        hz = h == 0.0
        w[wz] = rng.uniform(0.0, mean / 100.0, size=int(wz.sum()))
        h[hz] = rng.uniform(0.0, mean / 100.0, size=int(hz.sum()))
    return w, h


def _hals_rows(f: np.ndarray, gram: np.ndarray, rhs: np.ndarray, eps: float,
               buf: np.ndarray) -> None:
    """One cyclic HALS pass over the rows of the nonnegative factor ``f``.

    Each row is the exact nonnegative minimizer of
    ½⟨f, gram @ f⟩ − ⟨rhs, f⟩ with the other rows held, the rows before it
    already updated in this pass: for gram[j, j] > eps,
    f[j] = max((rhs[j] − off[j] @ f) / gram[j, j], 0), where off is gram
    with its diagonal zeroed.  That is the textbook update
    max(f[j] + (rhs[j] − gram[j] @ f) / gram[j, j], 0) without its
    cancelling f[j] terms.  Rows with a zero diagonal are left unchanged.
    ``f`` is updated in place; ``buf`` is scratch space for one row.
    """
    off = gram.copy()
    np.fill_diagonal(off, 0.0)
    for j in range(f.shape[0]):
        denom = gram[j, j]
        if denom <= eps:
            continue
        np.dot(off[j], f, out=buf)
        np.subtract(rhs[j], buf, out=buf)
        np.divide(buf, denom, out=buf)
        np.maximum(buf, 0.0, out=f[j])


def nnmf(dataset: MixtureDataset, k: int, init: str = "nndsvd", seed: int = 0,
         max_iter: int = 400, tol: float = 1e-9) -> ComponentSet:
    """Frobenius-loss NMF by fast HALS (Cichocki & Phan, 2009).

    W is held transposed, so each sweep is the same cyclic row pass
    (:func:`_hals_rows`) applied twice: to the rows of H against the Gram
    system (WᵀW, WᵀX), then to the rows of Wᵀ against (HHᵀ, HXᵀ).  The
    objective |X|² − 2⟨Wᵀ, HXᵀ⟩ + ⟨WᵀW, HHᵀ⟩ comes from the sweep's own
    products, and WᵀW is reused by the next sweep.  Raw factors of the
    preprocessed matrix are reported; the row flips and the additive
    offset are recorded in ``meta`` for reconstruction accounting.  The
    objective is non-increasing across sweeps.
    """
    if init not in NNMF_INITS:
        raise ValueError(f"unknown nnmf init {init!r}")
    rng = seeded_rng(seed)
    x, flipped_rows, shift = nnmf_preprocess(dataset.spectra)
    m, n = x.shape

    if init == "random":
        scale = np.sqrt(max(x.mean(), np.finfo(float).tiny) / k)
        w = scale * np.abs(rng.standard_normal((m, k)))
        h = scale * np.abs(rng.standard_normal((k, n)))
    else:
        w, h = nndsvd_init(x, k, init, rng, _factors(dataset, "nonnegative"))

    eps = np.finfo(float).tiny
    norm_x = float(np.sum(x * x))
    history = [float(np.sum((x - w @ h) ** 2))]
    wt = np.ascontiguousarray(w.T)
    h_buf, w_buf = np.empty(n), np.empty(m)
    wtw = wt @ wt.T
    converged = False
    for _ in range(max_iter):
        _hals_rows(h, wtw, wt @ x, eps, h_buf)
        hht = h @ h.T
        hxt = h @ x.T
        _hals_rows(wt, hht, hxt, eps, w_buf)
        # |X - WH|^2 from the sweep's own products: H (so hht and hxt)
        # did not change during the W half-sweep
        wtw = wt @ wt.T
        history.append(norm_x - 2.0 * float(np.vdot(wt, hxt))
                       + float(np.vdot(wtw, hht)))
        if history[-2] - history[-1] <= tol * max(norm_x, eps):
            converged = True
            break

    meta = {"init": init, "flipped_rows": flipped_rows.tolist(),
            "offset": shift, "objective_history": history}
    return ComponentSet(components=h, coefficients=np.ascontiguousarray(wt.T),
                        converged=converged, meta=meta)


# ---------------------------------------------------------------------------
# SIMPLISMA
# ---------------------------------------------------------------------------

def simplisma(dataset: MixtureDataset, k: int, offset_percent: float) -> ComponentSet:
    """Pure-variable selection followed by least-squares spectrum resolution.

    Purity of variable j is std_j / (mean_j + alpha) with alpha a fraction
    of the largest mean; later selections are weighted by the determinant of
    the correlation-around-origin submatrix of the candidate and the picks so
    far, which suppresses candidates correlated with previous picks.  The
    Schur complement det(C_PP) (c_jj - c_Pj . C_PP^-1 c_Pj) gives it from
    the picked columns alone, so the n x n matrix is never formed.
    """
    d = dataset.spectra
    n_rows, n_cols = d.shape
    if not 1 <= k <= n_cols:
        raise ValueError(f"k must lie in [1, {n_cols}]")

    mean, std = d.mean(axis=0), d.std(axis=0)
    alpha = (offset_percent / 100.0) * float(mean.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        purity = std / (mean + alpha)
    # constant variables carry no mixing information; a zero offset may
    # still push near-zero-mean noisy variables to huge (or infinite) purity
    purity[std == 0.0] = 0.0

    # correlation around the origin of length-scaled variables
    length_sq = std ** 2 + (mean + alpha) ** 2
    inv_length = np.zeros_like(length_sq)
    np.divide(1.0, np.sqrt(length_sq), out=inv_length, where=length_sq > 0.0)
    scaled = d * inv_length
    diag = np.einsum("ij,ij->j", scaled, scaled) / n_rows

    selected = [int(np.argmax(_sanitize(purity)))]
    for step in range(1, k):
        cols = scaled.T @ scaled[:, selected] / n_rows   # the picked columns
        try:
            schur = diag - np.sum(cols.T * np.linalg.solve(cols[selected], cols.T), axis=0)
            weights = np.maximum(np.linalg.det(cols[selected]) * schur, 0.0)
        except np.linalg.LinAlgError:       # exactly singular: every det is 0
            weights = np.zeros(n_cols)
        with np.errstate(invalid="ignore"):   # infinite purity x 0 is NaN
            ranking = _sanitize(purity * weights)
        ranking[selected] = -np.inf
        choice = int(np.argmax(ranking))
        if not np.isfinite(ranking[choice]) or ranking[choice] <= 0.0:
            # every weight degenerated (the picks already span the data):
            # fall back to the next-best variable by raw purity
            fallback = _sanitize(purity.copy())
            fallback[selected] = -np.inf
            choice = int(np.argmax(fallback))
            if fallback[choice] == -np.inf:
                raise TechniqueFailure(
                    "simplisma ran out of selectable pure variables "
                    f"after {step} of {k} selections")
        selected.append(choice)

    profiles = d[:, selected]                 # (n_spectra, k) concentrations
    comps, *_ = np.linalg.lstsq(profiles, d, rcond=None)
    meta = {"offset_percent": offset_percent, "pure_variables": selected}
    return ComponentSet(components=comps, coefficients=profiles, meta=meta)


def _sanitize(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[np.isnan(out)] = -np.inf
    return out


# ---------------------------------------------------------------------------
# multivariate curve resolution
# ---------------------------------------------------------------------------

def _regress(design: np.ndarray, target: np.ndarray):
    """Solve min ||design @ coef - target||_F by the normal equations.

    The k x k Gram matrix is inverted once and applied to every right-hand
    side, which for the 1,024 columns of a spectra step is several times
    faster than a stacked solve.  A singular Gram matrix, or a non-finite
    result, falls back to the minimum-norm least-squares solution of the
    design itself (``np.linalg.lstsq``), which exists for any design; the
    returned flag says so.  Returns ``(coef, fell_back)``.
    """
    try:
        with np.errstate(invalid="ignore", over="ignore"):   # checked below
            coef = np.linalg.inv(design.T @ design) @ (design.T @ target)
        if np.all(np.isfinite(coef)):
            return coef, False
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(design, target, rcond=None)[0], True


def mcr(dataset: MixtureDataset, k: int, regression: str = "ols_als",
        init: str = "provided", init_components=None, seed: int = 0,
        max_iter: int = 500, tol: float = 1e-8) -> ComponentSet:
    """Alternating regression between concentrations and spectra.

    ``ols_als`` uses unconstrained least squares in both directions;
    ``nnls`` constrains the concentration step to be nonnegative and first
    applies the same negative-intensity preprocessing as NMF.  Each sweep
    solves that step for every spectrum in one batched NNLS call, warm
    started from the previous sweep's concentrations.  The default
    "provided" initialization uses the magnitude-rectified leading right
    singular vectors.  ``meta["ridge_fallback"]`` is set when any
    unconstrained step had a singular Gram matrix and was solved by
    ``np.linalg.lstsq`` instead (see :func:`_regress`).
    """
    if regression not in MCR_REGRESSIONS:
        raise ValueError(f"unknown mcr regression {regression!r}")
    if init not in MCR_INITS:
        raise ValueError(f"unknown mcr init {init!r}")

    meta = {"regression": regression, "init": init, "ridge_fallback": False}
    if regression == "nnls":
        x, flipped_rows, shift = nnmf_preprocess(dataset.spectra)
        meta["flipped_rows"] = flipped_rows.tolist()
        meta["offset"] = shift
    else:
        x = dataset.spectra

    rng = seeded_rng(seed)
    if init == "provided":
        if init_components is not None:
            spectra = np.array(init_components, dtype=float)
            if spectra.shape != (k, x.shape[1]):
                raise ValueError("init_components must have shape (k, n_points)")
        else:
            _, _, vt = _factors(dataset, "nonnegative" if regression == "nnls" else "raw")
            spectra = np.abs(vt[:k])
    else:
        spectra = rng.random((k, x.shape[1]))

    history = []
    converged = False
    conc = np.zeros((x.shape[0], k))
    norm_x = max(float(np.linalg.norm(x)), np.finfo(float).tiny)
    for _ in range(max_iter):
        if regression == "nnls":
            conc = nnls(spectra.T, x.T, start=conc.T).T
        else:
            coef, fell_back = _regress(spectra.T, x.T)
            conc = coef.T
            meta["ridge_fallback"] |= fell_back
        spectra, fell_back = _regress(conc, x)
        meta["ridge_fallback"] |= fell_back
        residual = float(np.linalg.norm(x - conc @ spectra))
        history.append(residual)
        if len(history) > 1 and abs(history[-2] - residual) <= tol * norm_x:
            converged = True
            break

    meta["residual_history"] = history
    return ComponentSet(components=spectra, coefficients=conc,
                        converged=converged, meta=meta)
