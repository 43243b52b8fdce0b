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
DEFAULT_ORIENTATIONS = (256, 256)


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
    spin: float = 1.5
    spin_rate_hz: float = 10_000.0
    gaussian_broaden: float = 8.0

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


def crystallite_frequencies(params: QuadrupolarParams, grid: SpectrumGrid,
                            orientations=DEFAULT_ORIENTATIONS) -> np.ndarray:
    """Absolute frequency of every powder orientation, in Hz."""
    g = _angular_shape(params.eta, orientations[0], orientations[1])
    shift = params.delta_iso_hz + isotropic_second_order_shift_hz(
        params, grid.larmor_hz)
    return shift + anisotropy_prefactor_hz(params, grid.larmor_hz) * g


def _padded_length(n_points: int) -> int:
    return 1 << int(np.ceil(np.log2(2 * n_points)))


def _deposit_sticks(freqs_hz: np.ndarray, grid: SpectrumGrid):
    """Bin crystallite sticks onto the zero-padded grid.

    The 4-point Lagrange kernel reproduces cubic polynomials exactly, so
    the deposit carries the same mean, variance and third moment as the
    ideal sticks.  Sticks landing outside the padded region are dropped;
    total mass is normalized to 1 over the infinite line before any loss.
    """
    padded = _padded_length(grid.n_points)
    margin = (padded - grid.n_points) // 2
    start = grid.center_hz - grid.sweep_width_hz / 2.0
    pos = (freqs_hz - start) / grid.bin_spacing_hz + margin

    keep = (pos >= 1.0) & (pos < padded - 2.0)
    pos = pos[keep]
    base = np.floor(pos).astype(np.intp)
    t = pos - base

    w = 1.0 / freqs_hz.size
    tm1, tm2 = t - 1.0, t - 2.0
    spectrum = (
        np.bincount(base - 1, weights=w * (-t * tm1 * tm2 / 6.0), minlength=padded)
        + np.bincount(base, weights=w * ((t + 1.0) * tm1 * tm2 / 2.0), minlength=padded)
        + np.bincount(base + 1, weights=w * (-(t + 1.0) * t * tm2 / 2.0), minlength=padded)
        + np.bincount(base + 2, weights=w * ((t + 1.0) * t * tm1 / 6.0), minlength=padded)
    )
    return spectrum, margin


def _gaussian_transfer(padded: int, sigma_bins: float) -> np.ndarray:
    k = np.arange(padded // 2 + 1)
    return np.exp(-2.0 * (np.pi * sigma_bins * k / padded) ** 2)


def _broaden_padded(padded_spectrum: np.ndarray, sigma_bins: float) -> np.ndarray:
    """Convolve with a unit-area Gaussian via its exact Fourier transform."""
    n = padded_spectrum.size
    transfer = _gaussian_transfer(n, sigma_bins)
    return np.fft.irfft(np.fft.rfft(padded_spectrum) * transfer, n=n)


def broaden_sigma_bins(width: float, n_points: int) -> float:
    """Kernel standard deviation in bins for a smoothing value ``width``.

    Convention: the kernel sd in Hz is width * (sweep_width / n_points),
    which is width * (n_points - 1) / n_points bins regardless of sweep.
    """
    return width * (n_points - 1) / n_points


def simulate_pure(params: QuadrupolarParams, grid: SpectrumGrid,
                  component_id: str = "",
                  orientations=DEFAULT_ORIENTATIONS) -> PureComponent:
    """Powder-averaged, unit-area, Gaussian-smoothed lineshape.

    Deterministic: identical inputs give bit-identical spectra.
    """
    freqs = crystallite_frequencies(params, grid, orientations)
    deposit, margin = _deposit_sticks(freqs, grid)
    sigma = broaden_sigma_bins(params.gaussian_broaden, grid.n_points)
    smoothed = _broaden_padded(deposit, sigma)
    window = smoothed[margin:margin + grid.n_points]
    intensity = np.maximum(window, 0.0)
    intensity.setflags(write=False)
    return PureComponent(id=component_id, params=params, grid=grid,
                         intensity=intensity)


# ---------------------------------------------------------------------------
# component library generation
# ---------------------------------------------------------------------------

DEFAULT_GRID = SpectrumGrid(n_points=1024, sweep_width_hz=10_000.0,
                            larmor_hz=100e6, center_hz=0.0)


@dataclass(frozen=True)
class LibraryGridSpec:
    """Cartesian parameter grid from which a pure-component library is built."""

    cq_values_hz: tuple
    eta_values: tuple
    shift_values_hz: tuple
    broaden_values: tuple
    spin: float = 1.5
    spin_rate_hz: float = 10_000.0

    def __post_init__(self):
        for name in ("cq_values_hz", "eta_values", "shift_values_hz",
                     "broaden_values"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")

    @classmethod
    def from_counts(cls, n_cq=40, cq_max_hz=4e6, n_eta=10, n_shift=10,
                    shift_span_hz=7_500.0, broaden_exponents=range(3, 11),
                    spin=1.5, spin_rate_hz=10_000.0) -> "LibraryGridSpec":
        """Evenly spaced grid, endpoints inclusive on every axis.

        Defaults: 40 cq steps on [0, 4 MHz], 10 eta steps on [0, 1], 10
        isotropic shifts across the central 7,500 Hz, smoothing 2**n for
        n = 3..10; 32,000 points total.
        """
        exponents = tuple(broaden_exponents)
        if min(n_cq, n_eta, n_shift) < 1 or len(exponents) < 1:
            raise ValueError("every grid dimension needs at least one step")
        return cls(
            cq_values_hz=tuple(np.linspace(0.0, cq_max_hz, n_cq)),
            eta_values=tuple(np.linspace(0.0, 1.0, n_eta)),
            shift_values_hz=tuple(
                np.linspace(-shift_span_hz / 2.0, shift_span_hz / 2.0, n_shift)),
            broaden_values=tuple(float(2 ** n) for n in exponents),
            spin=spin,
            spin_rate_hz=spin_rate_hz,
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


def generate_library(grid_spec: LibraryGridSpec, grid: SpectrumGrid = DEFAULT_GRID,
                     orientations=DEFAULT_ORIENTATIONS) -> list:
    """All pure components on the parameter grid, in grid-index order.

    The smoothing axis is innermost so the expensive powder deposit is
    computed once per (cq, eta, shift) point; outputs are bit-identical to
    calling :func:`simulate_pure` point by point.
    """
    components = []
    indices = product(range(len(grid_spec.cq_values_hz)),
                      range(len(grid_spec.eta_values)),
                      range(len(grid_spec.shift_values_hz)))
    for i_cq, i_eta, i_shift in indices:
        base = grid_spec.params_at(i_cq, i_eta, i_shift, 0)
        freqs = crystallite_frequencies(base, grid, orientations)
        deposit, margin = _deposit_sticks(freqs, grid)
        spectrum_fft = np.fft.rfft(deposit)
        padded = deposit.size
        for i_b, width in enumerate(grid_spec.broaden_values):
            sigma = broaden_sigma_bins(width, grid.n_points)
            transfer = _gaussian_transfer(padded, sigma)
            smoothed = np.fft.irfft(spectrum_fft * transfer, n=padded)
            intensity = np.maximum(smoothed[margin:margin + grid.n_points], 0.0)
            intensity.setflags(write=False)
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
        digest.update(np.ascontiguousarray(comp.intensity, dtype="<f8").tobytes())
    return digest.hexdigest()
