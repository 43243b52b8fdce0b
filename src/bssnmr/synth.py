"""Mixture dataset synthesis.

Stacks of 20 mixture spectra are built from sampled pure components whose
intensities follow either an inversion-recovery curve or a cosine nutation
curve, both of which swing through negative values.  Gaussian noise is added
per point after mixing; normalization is applied last.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateRowError
from .lineshape import PureComponent, SpectrumGrid

SPECTRA_PER_DATASET = 20
MIN_COMPONENTS = 2
MAX_COMPONENTS = 10

# Fraction of the equilibrium intensity every component must reach by the
# final recovery time, and the exact solution of 1 - 2*exp(-x) = fraction.
FINAL_RECOVERY_FRACTION = 0.985
TAU_MAX_FACTOR = math.log(2.0 / (1.0 - FINAL_RECOVERY_FRACTION))

# Every component amplitude stays within this fraction of the largest one.
MIN_AMPLITUDE_FRACTION = 0.2

NOISE_LEVELS = (0.0, 0.0001, 0.000178, 0.000316, 0.000562, 0.001)
NORMALIZATION_MODES = ("none", "peak", "area")
MODELS = ("inversion", "nutation")


@dataclass(frozen=True, eq=False)
class IntensitySeries:
    """Signed per-spectrum weights of one pure component."""

    component_id: str
    model: str
    A: float
    values: np.ndarray = field(repr=False)
    T1: Optional[float] = None   # inversion only
    f: Optional[float] = None    # nutation only


@dataclass(frozen=True, eq=False)
class MixtureDataset:
    """20 x n_points signed spectra plus full synthesis provenance.

    ``components`` is None for externally supplied data with no provenance.
    Construction keeps a read-only copy of ``spectra``, so the dataset, and
    every factorization cached for it, stays fixed.
    """

    grid: SpectrumGrid
    spectra: np.ndarray = field(repr=False)
    components: Optional[tuple] = None
    noise_factor: float = 0.0
    normalization: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "spectra", np.array(self.spectra, dtype=float))
        self.spectra.setflags(write=False)
        if self.spectra.ndim != 2 or self.spectra.shape[1] != self.grid.n_points:
            raise ValueError("spectra must be a (rows, n_points) matrix")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.components is not None:
            k = len(self.components)
            if not MIN_COMPONENTS <= k <= MAX_COMPONENTS:
                raise ValueError(
                    f"component count {k} outside [{MIN_COMPONENTS}, {MAX_COMPONENTS}]")

    @property
    def n_spectra(self) -> int:
        return self.spectra.shape[0]


def sample_components(library: Sequence[PureComponent], k: int, rng_seed) -> list:
    """Draw k distinct components by single-pass reservoir sampling.

    Entry i past the first k takes one bounded draw j in [0, i]; j < k puts
    it in reservoir slot j, in entry order.  All n - k draws are made in one
    ``rng.integers`` call, which gives the same values as one call per entry
    and leaves ``rng`` in the same state, so a caller that goes on drawing
    from it sees the same stream.
    """
    n = len(library)
    if not 1 <= k <= n:
        raise ValueError(f"cannot sample {k} components from a library of {n}")
    rng = np.random.default_rng(rng_seed)
    reservoir = list(library[:k])
    draws = rng.integers(0, np.arange(k + 1, n + 1))
    for i in np.flatnonzero(draws < k):
        reservoir[draws[i]] = library[k + i]
    return reservoir


def inversion_profile(A: float, T1: float, taus) -> np.ndarray:
    """Inversion recovery weights A * (1 - 2 * exp(-tau / T1))."""
    if A <= 0:
        raise ValueError("amplitude A must be positive")
    if T1 <= 0:
        raise ValueError("relaxation time T1 must be positive")
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0) or np.any(np.diff(taus) < 0):
        raise ValueError("taus must be nonnegative and ascending")
    return A * (1.0 - 2.0 * np.exp(-taus / T1))


def nutation_profile(A: float, f: float, pulses) -> np.ndarray:
    """Nutation weights A * cos(2 pi f pulse) for pulses in [0, 1]."""
    if A <= 0:
        raise ValueError("amplitude A must be positive")
    if not 0.50 <= f <= 0.75:
        raise ValueError("nutation frequency must lie in [0.50, 0.75]")
    pulses = np.asarray(pulses, dtype=float)
    if np.any(pulses < 0) or np.any(pulses > 1):
        raise ValueError("pulse values must lie in [0, 1]")
    return A * np.cos(2.0 * np.pi * f * pulses)


def recovery_times(max_t1: float) -> np.ndarray:
    """Equally spaced recovery times tau_j = j * tau_max / n, j = 1..n, for
    n = :data:`SPECTRA_PER_DATASET`.

    tau_max is chosen so the slowest component reaches the final-recovery
    fraction exactly at the last spectrum.
    """
    tau_max = TAU_MAX_FACTOR * max_t1
    return tau_max * np.arange(1, SPECTRA_PER_DATASET + 1) / SPECTRA_PER_DATASET


def nutation_pulses() -> np.ndarray:
    return np.linspace(0.0, 1.0, SPECTRA_PER_DATASET)


def assemble_dataset(pures: Sequence[PureComponent], model: str, rng_seed: int,
                     noise_factor: float = 0.0) -> MixtureDataset:
    """Mix pure components under the requested intensity model.

    Inversion: T1 uniform in [0.5, 2], amplitudes uniform in [0.2, 1] (so no
    component falls below 20% of the strongest), recovery times spanning up
    to the final-recovery point of the slowest component.  Nutation: one
    component pinned at frequency 0.50, the rest uniform in (0.50, 0.75],
    amplitudes uniform in (0, 1].  Fully determined by (pures, model, seed,
    noise_factor).
    """
    k = len(pures)
    if not MIN_COMPONENTS <= k <= MAX_COMPONENTS:
        raise ValueError(
            f"component count {k} outside [{MIN_COMPONENTS}, {MAX_COMPONENTS}]")
    if model not in MODELS:
        raise ValueError(f"unknown intensity model {model!r}")
    if noise_factor < 0:
        raise ValueError("noise_factor must be nonnegative")
    grid = pures[0].grid
    if any(p.grid != grid for p in pures):
        raise ValueError("all pure components must share one frequency grid")

    rng = np.random.default_rng(rng_seed)
    series = []
    weights = np.empty((SPECTRA_PER_DATASET, k))
    if model == "inversion":
        t1 = rng.uniform(0.5, 2.0, size=k)
        amps = rng.uniform(MIN_AMPLITUDE_FRACTION, 1.0, size=k)
        taus = recovery_times(float(t1.max()))
        for i, pure in enumerate(pures):
            values = inversion_profile(float(amps[i]), float(t1[i]), taus)
            weights[:, i] = values
            series.append(IntensitySeries(component_id=pure.id, model=model,
                                          A=float(amps[i]), T1=float(t1[i]),
                                          values=values))
    else:
        freqs = np.empty(k)
        freqs[0] = 0.50
        # 0.75 - U[0, 0.25) keeps the draw inside (0.50, 0.75]
        freqs[1:] = 0.75 - rng.uniform(0.0, 0.25, size=k - 1)
        amps = 1.0 - rng.uniform(0.0, 1.0, size=k)
        pulses = nutation_pulses()
        for i, pure in enumerate(pures):
            values = nutation_profile(float(amps[i]), float(freqs[i]), pulses)
            weights[:, i] = values
            series.append(IntensitySeries(component_id=pure.id, model=model,
                                          A=float(amps[i]), f=float(freqs[i]),
                                          values=values))

    pure_matrix = np.stack([p.intensity for p in pures])
    spectra = weights @ pure_matrix
    if noise_factor > 0:
        spectra = spectra + rng.normal(0.0, noise_factor, size=spectra.shape)
    return MixtureDataset(grid=grid, spectra=spectra, components=tuple(series),
                          noise_factor=noise_factor, normalization="none")


def normalize(dataset: MixtureDataset, mode: str) -> MixtureDataset:
    """Row-wise normalization: by max |intensity| (peak) or sum |intensity| (area)."""
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization {mode!r}")
    if mode == "none":
        return dataset
    if mode == "peak":
        scale = np.max(np.abs(dataset.spectra), axis=1)
    else:
        scale = np.sum(np.abs(dataset.spectra), axis=1)
    zero = np.flatnonzero(scale == 0.0)
    if zero.size:
        raise DegenerateRowError(
            f"row {int(zero[0])} is identically zero; cannot normalize by {mode}")
    return replace(dataset, spectra=dataset.spectra / scale[:, None],
                   normalization=mode)
