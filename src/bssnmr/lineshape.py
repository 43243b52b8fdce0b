"""Second-order quadrupolar central-transition MAS powder lineshapes.

Simulates the frequency-domain lineshape of the central transition of a
half-integer quadrupolar nucleus under infinitely fast magic angle spinning:
only the fourth-rank angular term survives rotor averaging, first-order terms
vanish, and spinning sidebands are not modeled (the spinning rate is carried
as metadata only).

A single-crystallite frequency relative to the isotropic position is

    nu(alpha, beta) = -(nu_q**2 / (6 nu_0)) * (I(I+1) - 3/4)
                      * [A(eta, c2a) cos(beta)**4 + B(eta, c2a) cos(beta)**2
                         + C(eta, c2a)]

with nu_q = 3 Cq / (2I(2I-1)), c2a = cos(2 alpha), plus the orientation-
independent second-order shift of the center of gravity.  The angular
polynomial averages to zero over the sphere, so the two pieces separate
cleanly.  Powder averaging uses a deterministic equal-area grid over one
octant (the polynomial is even in cos(beta) and pi-periodic in alpha).

Rendering preserves spectral moments: each crystallite frequency is
deposited on a zero-padded grid with a 4-point cubic kernel whose discrete
moments match the ideal stick through third order, then Gaussian smoothing
is applied as a frequency-domain convolution (Fourier multiply) before the
window is cropped back out.  Mass that diffuses past the padded region is
lost, matching the windowed-spectrum reading of broad lines.
"""

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

# Equal-area production orientation grid (alpha x cos(beta)); the oracle in
# the test suite uses an independent dense sum instead of this path.
ORIENTATIONS = (256, 256)

# The nucleus and spinning rate every library component is simulated with.
SPIN = 1.5
SPIN_RATE_HZ = 10_000.0


@dataclass(frozen=True)
class SpectrumGrid:
    """Uniform frequency window: bin j sits at center - sw/2 + j*sw/(n-1)."""

    n_points: int
    sweep_width_hz: float
    larmor_hz: float
    center_hz: float = 0.0

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.sweep_width_hz <= 0:
            raise ValueError("sweep_width_hz must be positive")
        if self.larmor_hz <= 0:
            raise ValueError("larmor_hz must be positive")

    @property
    def bin_spacing_hz(self) -> float:
        return self.sweep_width_hz / (self.n_points - 1)

    def frequencies(self) -> np.ndarray:
        start = self.center_hz - self.sweep_width_hz / 2.0
        return start + np.arange(self.n_points) * self.bin_spacing_hz


@dataclass(frozen=True)
class QuadrupolarParams:
    cq_hz: float
    eta: float
    delta_iso_hz: float
    spin: float = SPIN
    spin_rate_hz: float = SPIN_RATE_HZ
    gaussian_broaden: float = field(kw_only=True)

    def __post_init__(self):
        if self.cq_hz < 0:
            raise ValueError("cq_hz must be nonnegative")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.spin < 1.5 or (2.0 * self.spin) % 2 != 1.0:
            raise ValueError("spin must be half-integer and at least 3/2")
        if self.spin_rate_hz <= 0:
            raise ValueError("spin_rate_hz must be positive")
        if self.gaussian_broaden <= 0:
            raise ValueError("gaussian_broaden must be positive")


@dataclass(frozen=True, eq=False)
class PureComponent:
    id: str
    params: QuadrupolarParams
    grid: SpectrumGrid
    intensity: np.ndarray = field(repr=False)


@lru_cache(maxsize=64)
def _angular_shape(eta: float, n_alpha: int, n_beta: int) -> np.ndarray:
    """Fourth-rank MAS angular polynomial on the midpoint orientation grid.

    Zero-mean over the powder by construction of the A/B/C coefficients.
    """
    alpha = (np.arange(n_alpha) + 0.5) * (np.pi / 2.0) / n_alpha
    c2a = np.cos(2.0 * alpha)
    u2 = ((np.arange(n_beta) + 0.5) / n_beta) ** 2
    a = 21.0 / 16.0 - (7.0 / 8.0) * eta * c2a + (7.0 / 48.0) * (eta * c2a) ** 2
    b = -9.0 / 8.0 + eta ** 2 / 12.0 + eta * c2a - (7.0 / 24.0) * (eta * c2a) ** 2
    c = 9.0 / 80.0 - eta ** 2 / 15.0 - (1.0 / 8.0) * eta * c2a \
        + (7.0 / 48.0) * (eta * c2a) ** 2
    g = a[:, None] * (u2 * u2)[None, :] + b[:, None] * u2[None, :] + c[:, None]
    g = g.ravel()
    g.setflags(write=False)
    return g


def isotropic_second_order_shift_hz(params: QuadrupolarParams,
                                    larmor_hz: float) -> float:
    """Center-of-gravity shift of the central transition, in Hz."""
    spin = params.spin
    ct = spin * (spin + 1.0) - 0.75
    return (-(3.0 / 40.0) * (params.cq_hz ** 2 / larmor_hz)
            * ct / (spin * spin * (2.0 * spin - 1.0) ** 2)
            * (1.0 + params.eta ** 2 / 3.0))


def anisotropy_prefactor_hz(params: QuadrupolarParams, larmor_hz: float) -> float:
    """Scale of the orientation-dependent term, in Hz."""
    spin = params.spin
    nu_q = 3.0 * params.cq_hz / (2.0 * spin * (2.0 * spin - 1.0))
    return -(nu_q ** 2 / (6.0 * larmor_hz)) * (spin * (spin + 1.0) - 0.75)


def crystallite_frequencies(params: QuadrupolarParams, grid: SpectrumGrid) -> np.ndarray:
    """Absolute frequency of every powder orientation, in Hz."""
    g = _angular_shape(params.eta, *ORIENTATIONS)
    shift = params.delta_iso_hz + isotropic_second_order_shift_hz(
        params, grid.larmor_hz)
    return shift + anisotropy_prefactor_hz(params, grid.larmor_hz) * g


def _padded_length(n_points: int) -> int:
    return 1 << int(np.ceil(np.log2(2 * n_points)))


def _deposit_scratch(n_sticks: int):
    """Work space for :func:`_deposit_sticks` over ``n_sticks`` sticks: six
    float rows, a stick-index vector and a keep mask, reused point by point."""
    return (np.empty((6, n_sticks)), np.empty(n_sticks, dtype=np.intp),
            np.empty((2, n_sticks), dtype=bool))


def _deposit_sticks(freqs_hz: np.ndarray, grid: SpectrumGrid, scratch):
    """Bin crystallite sticks onto the zero-padded grid.

    The 4-point Lagrange kernel reproduces cubic polynomials exactly, so
    the deposit carries the same mean, variance and third moment as the
    ideal sticks.  Sticks landing outside the padded region are dropped;
    total mass is normalized to 1 over the infinite line before any loss.

    Works in ``scratch`` from :func:`_deposit_scratch`.  The weights are
    the textbook products ``w * (-t*(t-1)*(t-2)/6)``, ``w * ((t+1)*(t-1)*
    (t-2)/2)``, ``w * (-(t+1)*t*(t-2)/2)`` and ``w * ((t+1)*t*(t-1)/6)``
    rearranged only by exact identities (a sign moved onto ``w``, ``/2`` as
    ``*0.5``, ``(t+1)*t`` shared), so every bit is as the textbook form gives.
    """
    rows, index, keep = scratch
    padded = _padded_length(grid.n_points)
    margin = (padded - grid.n_points) // 2
    start = grid.center_hz - grid.sweep_width_hz / 2.0
    pos = np.subtract(freqs_hz, start, out=rows[0])
    pos /= grid.bin_spacing_hz
    pos += margin

    np.greater_equal(pos, 1.0, out=keep[0])
    np.less(pos, padded - 2.0, out=keep[1])
    np.logical_and(keep[0], keep[1], out=keep[0])
    n = np.count_nonzero(keep[0])
    t, tm1, tm2, tp1, wa, wb = (row[:n] for row in rows)
    # Only about 7 % of the default grid's points drop a stick, and skipping
    # the selection for the rest saves about a tenth of a library build.
    if n < pos.size:
        pos = np.compress(keep[0], pos, out=tm1)
    base = np.floor(pos, out=tm2)
    index = index[:n]
    index[...] = base
    np.subtract(pos, base, out=t)
    np.subtract(t, 1.0, out=tm1)
    np.subtract(t, 2.0, out=tm2)
    np.add(t, 1.0, out=tp1)

    w = 1.0 / freqs_hz.size
    np.multiply(t, tm1, out=wa)
    wa *= tm2
    wa /= 6.0
    wa *= -w
    np.multiply(tp1, tm1, out=wb)
    wb *= tm2
    wb *= 0.5
    wb *= w
    index -= 1
    spectrum = np.bincount(index, weights=wa, minlength=padded)
    index += 1
    spectrum += np.bincount(index, weights=wb, minlength=padded)
    tp1 *= t                                    # (t+1)*t
    np.multiply(tp1, tm2, out=wa)
    wa *= 0.5
    wa *= -w
    np.multiply(tp1, tm1, out=wb)
    wb /= 6.0
    wb *= w
    index += 1
    spectrum += np.bincount(index, weights=wa, minlength=padded)
    index += 1
    spectrum += np.bincount(index, weights=wb, minlength=padded)
    return spectrum, margin


def _gaussian_transfers(n_points: int, widths) -> list:
    """The exact Fourier transform of the unit-area Gaussian kernel of each
    smoothing width, on the padded length of an ``n_points`` window."""
    padded = _padded_length(n_points)
    k = np.arange(padded // 2 + 1)
    sigmas = [broaden_sigma_bins(width, n_points) for width in widths]
    return [np.exp(-2.0 * (np.pi * sigma * k / padded) ** 2) for sigma in sigmas]


def _render(deposit: np.ndarray, margin: int, n_points: int, transfers) -> list:
    """Read-only window spectra of a padded deposit, one per transfer from
    :func:`_gaussian_transfers`: a Gaussian convolution (the forward
    transform taken once), then crop and clip at zero."""
    padded = deposit.size
    spectrum_fft = np.fft.rfft(deposit)
    windows = []
    for transfer in transfers:
        smoothed = np.fft.irfft(spectrum_fft * transfer, n=padded)
        window = np.maximum(smoothed[margin:margin + n_points], 0.0)
        window.setflags(write=False)
        windows.append(window)
    return windows


def broaden_sigma_bins(width: float, n_points: int) -> float:
    """Kernel standard deviation in bins for a smoothing value ``width``.

    Convention: the kernel sd in Hz is width * (sweep_width / n_points),
    which is width * (n_points - 1) / n_points bins regardless of sweep.
    """
    return width * (n_points - 1) / n_points


def simulate_pure(params: QuadrupolarParams, grid: SpectrumGrid,
                  component_id: str = "") -> PureComponent:
    """Powder-averaged, unit-area, Gaussian-smoothed lineshape.

    Deterministic: identical inputs give bit-identical spectra.
    """
    freqs = crystallite_frequencies(params, grid)
    deposit, margin = _deposit_sticks(freqs, grid, _deposit_scratch(freqs.size))
    [intensity] = _render(deposit, margin, grid.n_points,
                          _gaussian_transfers(grid.n_points, [params.gaussian_broaden]))
    return PureComponent(id=component_id, params=params, grid=grid,
                         intensity=intensity)


# ---------------------------------------------------------------------------
# component library generation
# ---------------------------------------------------------------------------

DEFAULT_GRID = SpectrumGrid(n_points=1024, sweep_width_hz=10_000.0,
                            larmor_hz=100e6, center_hz=0.0)

# Span of the default grid's cq axis (from 0) and isotropic shift axis
# (centered on the window).
CQ_MAX_HZ = 4e6
SHIFT_SPAN_HZ = 7_500.0


@dataclass(frozen=True)
class LibraryGridSpec:
    """Cartesian parameter grid from which a pure-component library is built."""

    cq_values_hz: tuple[float, ...]
    eta_values: tuple[float, ...]
    shift_values_hz: tuple[float, ...]
    broaden_values: tuple[float, ...]
    spin: float = SPIN
    spin_rate_hz: float = SPIN_RATE_HZ

    def __post_init__(self):
        for name in ("cq_values_hz", "eta_values", "shift_values_hz",
                     "broaden_values"):
            values = tuple(float(v) for v in getattr(self, name))
            if not values:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, values)

    @classmethod
    def from_counts(cls, n_cq=40, n_eta=10, n_shift=10,
                    broaden_exponents=range(3, 11)) -> "LibraryGridSpec":
        """Evenly spaced grid, endpoints inclusive on every axis.

        Defaults: 40 cq steps on [0, 4 MHz], 10 eta steps on [0, 1], 10
        isotropic shifts across the central 7,500 Hz, smoothing 2**n for
        n = 3..10; 32,000 points total.
        """
        exponents = tuple(broaden_exponents)
        if min(n_cq, n_eta, n_shift) < 1 or len(exponents) < 1:
            raise ValueError("every grid dimension needs at least one step")
        return cls(
            cq_values_hz=tuple(np.linspace(0.0, CQ_MAX_HZ, n_cq)),
            eta_values=tuple(np.linspace(0.0, 1.0, n_eta)),
            shift_values_hz=tuple(
                np.linspace(-SHIFT_SPAN_HZ / 2.0, SHIFT_SPAN_HZ / 2.0, n_shift)),
            broaden_values=tuple(2 ** n for n in exponents),
        )

    def component_id(self, i_cq: int, i_eta: int, i_shift: int,
                     i_broaden: int) -> str:
        return f"cq{i_cq:02d}_eta{i_eta:02d}_ds{i_shift:02d}_gb{i_broaden:02d}"

    def params_at(self, i_cq, i_eta, i_shift, i_broaden) -> QuadrupolarParams:
        return QuadrupolarParams(
            cq_hz=self.cq_values_hz[i_cq],
            eta=self.eta_values[i_eta],
            delta_iso_hz=self.shift_values_hz[i_shift],
            spin=self.spin,
            spin_rate_hz=self.spin_rate_hz,
            gaussian_broaden=self.broaden_values[i_broaden],
        )


def generate_library(grid_spec: LibraryGridSpec, grid: SpectrumGrid = DEFAULT_GRID) -> list:
    """All pure components on the parameter grid, in grid-index order.

    The smoothing axis is innermost so the expensive powder deposit is
    computed once per (cq, eta, shift) point; outputs are bit-identical to
    calling :func:`simulate_pure` point by point.
    """
    components = []
    scratch = _deposit_scratch(ORIENTATIONS[0] * ORIENTATIONS[1])
    transfers = _gaussian_transfers(grid.n_points, grid_spec.broaden_values)
    indices = product(range(len(grid_spec.cq_values_hz)),
                      range(len(grid_spec.eta_values)),
                      range(len(grid_spec.shift_values_hz)))
    for i_cq, i_eta, i_shift in indices:
        base = grid_spec.params_at(i_cq, i_eta, i_shift, 0)
        freqs = crystallite_frequencies(base, grid)
        deposit, margin = _deposit_sticks(freqs, grid, scratch)
        windows = _render(deposit, margin, grid.n_points, transfers)
        for i_b, intensity in enumerate(windows):
            components.append(PureComponent(
                id=grid_spec.component_id(i_cq, i_eta, i_shift, i_b),
                params=grid_spec.params_at(i_cq, i_eta, i_shift, i_b),
                grid=grid,
                intensity=intensity,
            ))
    return components


def library_checksum(components) -> str:
    """SHA-256 over component ids and raw little-endian intensity bytes."""
    digest = hashlib.sha256()
    for comp in components:
        digest.update(comp.id.encode())
        # the array's own buffer, not a bytes copy of it
        digest.update(np.ascontiguousarray(comp.intensity, dtype="<f8"))
    return digest.hexdigest()
