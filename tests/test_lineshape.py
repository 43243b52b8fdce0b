import itertools

import numpy as np
import pytest

from bssnmr import lineshape as ls


def dense_reference_frequencies(cq, eta, delta, spin, larmor, n_side=1024):
    """Independent dense orientation sum used as a physics oracle.

    Re-derives the central-transition second-order MAS frequency from
    scratch on its own orientation grid; shares no code with the
    production path.
    """
    alpha = (np.arange(n_side) + 0.5) * (np.pi / 2.0) / n_side
    u = (np.arange(n_side) + 0.5) / n_side
    c2a = np.cos(2.0 * alpha)
    a = 21 / 16 - (7 / 8) * eta * c2a + (7 / 48) * (eta * c2a) ** 2
    b = -9 / 8 + eta ** 2 / 12 + eta * c2a - (7 / 24) * (eta * c2a) ** 2
    c = 9 / 80 - eta ** 2 / 15 - (1 / 8) * eta * c2a + (7 / 48) * (eta * c2a) ** 2
    u2 = u * u
    g = (a[:, None] * (u2 * u2)[None, :] + b[:, None] * u2[None, :]
         + c[:, None]).ravel()
    nu_q = 3.0 * cq / (2 * spin * (2 * spin - 1))
    ct = spin * (spin + 1) - 0.75
    iso = -(3 / 40) * (cq ** 2 / larmor) * ct / (spin ** 2 * (2 * spin - 1) ** 2) \
        * (1 + eta ** 2 / 3)
    return delta + iso - (nu_q ** 2 / (6 * larmor)) * ct * g


def windowed_moments(freqs, grid):
    lo = grid.center_hz - grid.sweep_width_hz / 2
    hi = grid.center_hz + grid.sweep_width_hz / 2
    kept = freqs[(freqs >= lo) & (freqs <= hi)]
    mean = kept.mean()
    var = kept.var()
    skew = np.mean((kept - mean) ** 3) / var ** 1.5
    return mean, var, skew


def spectrum_moments(component):
    f = component.grid.frequencies()
    w = component.intensity / component.intensity.sum()
    mean = w @ f
    var = w @ (f - mean) ** 2
    skew = (w @ (f - mean) ** 3) / var ** 1.5
    return mean, var, skew


# ---------------------------------------------------------------------------
# simulate_pure
# ---------------------------------------------------------------------------

def test_zero_coupling_gives_symmetric_gaussian(grid):
    params = ls.QuadrupolarParams(cq_hz=0.0, eta=0.7, delta_iso_hz=-1250.0,
                                  gaussian_broaden=8.0)
    comp = ls.simulate_pure(params, grid)
    mean, var, skew = spectrum_moments(comp)
    assert abs(mean - params.delta_iso_hz) < 1e-6
    assert abs(skew) < 1e-9
    sigma_expected = 8.0 * grid.sweep_width_hz / grid.n_points
    assert abs(np.sqrt(var) - sigma_expected) / sigma_expected < 1e-3


def test_zero_coupling_symmetric_about_maximum():
    # odd point count puts the window center exactly on a bin
    grid = ls.SpectrumGrid(n_points=1025, sweep_width_hz=10_000.0, larmor_hz=100e6)
    comp = ls.simulate_pure(
        ls.QuadrupolarParams(0.0, 0.0, 0.0, gaussian_broaden=8.0), grid)
    m = int(np.argmax(comp.intensity))
    reach = min(m, comp.intensity.size - 1 - m)
    left = comp.intensity[m - reach:m][::-1]
    right = comp.intensity[m + 1:m + reach + 1]
    assert np.max(np.abs(left - right)) < 1e-9 * comp.intensity[m]


def test_strong_coupling_mean_matches_dense_oracle(grid):
    params = ls.QuadrupolarParams(cq_hz=4e6, eta=0.0, delta_iso_hz=0.0,
                                  spin=1.5, gaussian_broaden=8.0)
    comp = ls.simulate_pure(params, grid)
    mean_prod, _, skew_prod = spectrum_moments(comp)
    freqs = dense_reference_frequencies(4e6, 0.0, 0.0, 1.5, grid.larmor_hz)
    mean_ref, _, skew_ref = windowed_moments(freqs, grid)
    assert abs(mean_prod - mean_ref) < 0.005 * grid.sweep_width_hz
    # strong coupling with eta = 0 gives a clearly asymmetric pattern
    assert abs(skew_ref) > 0.1
    assert skew_prod * skew_ref > 0
    assert abs(skew_prod - skew_ref) < 0.1


def test_simulate_deterministic_bytes(grid):
    params = ls.QuadrupolarParams(cq_hz=2.05e6, eta=0.5, delta_iso_hz=416.7,
                                  gaussian_broaden=64.0)
    a = ls.simulate_pure(params, grid)
    b = ls.simulate_pure(params, grid)
    assert a.intensity.tobytes() == b.intensity.tobytes()


def test_simulate_nonnegative_and_unit_area(grid):
    # line fully inside the window: broadening preserves the unit integral
    params = ls.QuadrupolarParams(cq_hz=1e6, eta=0.4, delta_iso_hz=0.0,
                                  gaussian_broaden=8.0)
    comp = ls.simulate_pure(params, grid)
    assert np.all(comp.intensity >= 0)
    assert abs(comp.intensity.sum() - 1.0) < 1e-9


def test_stick_deposit_unit_mass(grid):
    params = ls.QuadrupolarParams(cq_hz=5e5, eta=0.2, delta_iso_hz=100.0,
                                  gaussian_broaden=8.0)
    freqs = ls.crystallite_frequencies(params, grid)
    deposit, _ = ls._deposit_sticks(freqs, grid, ls._deposit_scratch(freqs.size))
    assert abs(deposit.sum() - 1.0) < 1e-9


def textbook_deposit(freqs_hz, grid):
    """The stick deposit written out with fresh arrays, as the in-place
    ``_deposit_sticks`` must reproduce it bit for bit."""
    padded = ls._padded_length(grid.n_points)
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
    return spectrum, margin, keep.size - pos.size


def test_deposit_equals_textbook_formula(grid):
    # One scratch for every point, in an order that puts points which keep
    # every stick after points which drop some, as generate_library does.
    odd = ls.SpectrumGrid(n_points=1025, sweep_width_hz=10_000.0, larmor_hz=100e6)
    points = [(grid, 0.0, 0.0, 0.0),           # cq 0: every stick at one place
              (grid, 2.05e6, 0.5, 416.7),
              (grid, 4e6, 0.0, -5000.0),       # low window edge: drops sticks
              (grid, 4e6, 1.0, 5000.0),        # high window edge
              (grid, 4e6, 1.0, -5000.0),
              (grid, 1e6, 0.3, -5000.0),
              (grid, 3e6, 0.0, 5000.0),
              (odd, 4e6, 1.0, -5000.0),        # padded to 4,096: keeps all
              (odd, 0.0, 1.0, 3750.0)]
    scratch = ls._deposit_scratch(ls.ORIENTATIONS[0] * ls.ORIENTATIONS[1])
    dropped = []
    for where, cq, eta, shift in points:
        params = ls.QuadrupolarParams(cq, eta, shift, gaussian_broaden=8.0)
        freqs = ls.crystallite_frequencies(params, where)
        expected, margin, n_dropped = textbook_deposit(freqs, where)
        deposit, got_margin = ls._deposit_sticks(freqs, where, scratch)
        assert got_margin == margin
        assert np.array_equal(deposit, expected), (cq, eta, shift)
        dropped.append(n_dropped)
        if cq == 0.0:
            assert np.count_nonzero(deposit) <= 4
    assert dropped[2] > 0 and dropped[4] > 0
    assert dropped[0] == dropped[1] == dropped[3] == dropped[7] == 0


def test_spin_five_halves_shift_constant():
    # for I = 5/2 the central-transition center-of-gravity shift reduces to
    # the familiar -(6e-3) * cq^2 / nu_0 rule of thumb at eta = 0
    params = ls.QuadrupolarParams(cq_hz=3e6, eta=0.0, delta_iso_hz=0.0, spin=2.5,
                                  gaussian_broaden=8.0)
    got = ls.isotropic_second_order_shift_hz(params, 104.3e6)
    ref = -(6.0 / 1000.0) * (3e6) ** 2 / 104.3e6
    assert abs(got - ref) < 1e-9 * abs(ref)


def test_invalid_params_rejected(grid):
    with pytest.raises(ValueError):
        ls.QuadrupolarParams(cq_hz=-1.0, eta=0.0, delta_iso_hz=0.0,
                             gaussian_broaden=8.0)
    with pytest.raises(ValueError):
        ls.QuadrupolarParams(cq_hz=0.0, eta=1.5, delta_iso_hz=0.0,
                             gaussian_broaden=8.0)
    with pytest.raises(ValueError):
        ls.QuadrupolarParams(cq_hz=0.0, eta=0.0, delta_iso_hz=0.0, spin=1.0,
                             gaussian_broaden=8.0)
    with pytest.raises(ValueError):
        ls.QuadrupolarParams(cq_hz=0.0, eta=0.0, delta_iso_hz=0.0,
                             gaussian_broaden=0.0)
    with pytest.raises(ValueError):
        ls.SpectrumGrid(n_points=1, sweep_width_hz=100.0, larmor_hz=1e8)


# ---------------------------------------------------------------------------
# Gaussian broadening
# ---------------------------------------------------------------------------

def broaden(intensity, width):
    """Broaden a spectrum vector as simulate_pure does: zero-pad it to the
    padded length, smooth, crop back to the window and clip at zero."""
    n = intensity.size
    padded = ls._padded_length(n)
    margin = (padded - n) // 2
    buf = np.zeros(padded)
    buf[margin:margin + n] = intensity
    [window] = ls._render(buf, margin, n, ls._gaussian_transfers(n, [width]))
    return window


def test_broaden_impulse_response():
    spike = np.zeros(1024)
    spike[512] = 3.0
    out = broaden(spike, 8.0)
    assert abs(out.sum() - 3.0) < 1e-9 * 3.0
    assert abs(int(np.argmax(out)) - 512) <= 1
    sigma = 8.0 * 1023 / 1024
    j = np.arange(1024)
    expected = 3.0 * np.exp(-0.5 * ((j - 512) / sigma) ** 2)
    expected /= expected.sum() / 3.0
    assert np.max(np.abs(out - expected)) < 1e-9


def test_broaden_flat_limit():
    spike = np.zeros(1024)
    spike[512] = 1.0
    out = broaden(spike, 8192.0)
    central = out[256:768]
    assert central.max() / central.min() < 1.01


def test_broaden_semigroup():
    j = np.arange(1024)
    x = np.exp(-0.5 * ((j - 400) / 12.0) ** 2) + 0.6 * np.exp(-0.5 * ((j - 620) / 9.0) ** 2)
    once = broaden(x, np.hypot(3.0, 5.0))
    twice = broaden(broaden(x, 3.0), 5.0)
    assert np.max(np.abs(once - twice)) < 1e-8 * np.max(np.abs(once))


# ---------------------------------------------------------------------------
# generate_library
# ---------------------------------------------------------------------------

def test_singleton_grid_matches_direct_call(grid):
    spec = ls.LibraryGridSpec.from_counts(n_cq=1, n_eta=1, n_shift=1,
                                          broaden_exponents=(5,))
    lib = ls.generate_library(spec, grid)
    assert len(lib) == 1
    direct = ls.simulate_pure(spec.params_at(0, 0, 0, 0), grid)
    assert np.array_equal(lib[0].intensity, direct.intensity)


def test_tiny_grid_bit_identical_and_unique_ids(grid):
    spec = ls.LibraryGridSpec.from_counts(n_cq=2, n_eta=2, n_shift=2,
                                          broaden_exponents=(3, 6))
    # cq 4 MHz at both window edges: at -5 kHz the deposit drops sticks, and
    # the +5 kHz point after it keeps them all in the same scratch.
    edges = ls.LibraryGridSpec(cq_values_hz=(4e6,), eta_values=(0.0, 1.0),
                               shift_values_hz=(-5000.0, 5000.0),
                               broaden_values=(8.0, 64.0))
    for spec, size in ((spec, 16), (edges, 8)):
        lib = ls.generate_library(spec, grid)
        assert len(lib) == size
        assert len({c.id for c in lib}) == size
        index = 0
        for i_cq, i_eta, i_shift in itertools.product(
                range(len(spec.cq_values_hz)), range(len(spec.eta_values)),
                range(len(spec.shift_values_hz))):
            for i_b in range(len(spec.broaden_values)):
                direct = ls.simulate_pure(spec.params_at(i_cq, i_eta, i_shift, i_b),
                                          grid)
                assert np.array_equal(lib[index].intensity, direct.intensity)
                index += 1


def test_empty_grid_dimension_rejected():
    with pytest.raises(ValueError):
        ls.LibraryGridSpec(cq_values_hz=(), eta_values=(0.0,),
                           shift_values_hz=(0.0,), broaden_values=(8.0,))


def test_library_checksum_stable(grid):
    spec = ls.LibraryGridSpec.from_counts(n_cq=2, n_eta=1, n_shift=1,
                                          broaden_exponents=(3,))
    a = ls.library_checksum(ls.generate_library(spec, grid))
    b = ls.library_checksum(ls.generate_library(spec, grid))
    assert a == b


def test_default_grid_dimensions():
    spec = ls.LibraryGridSpec.from_counts()
    assert (len(spec.cq_values_hz) * len(spec.eta_values)
            * len(spec.shift_values_hz) * len(spec.broaden_values)) == 32_000
    assert spec.cq_values_hz[0] == 0.0 and spec.cq_values_hz[-1] == 4e6
    assert spec.eta_values[0] == 0.0 and spec.eta_values[-1] == 1.0
    assert spec.shift_values_hz[0] == -3750.0 and spec.shift_values_hz[-1] == 3750.0
    assert spec.broaden_values == tuple(float(2 ** n) for n in range(3, 11))
