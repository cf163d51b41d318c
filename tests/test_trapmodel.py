"""Trap constants, per-axis stiffness coefficients, and the scaled
(p, q, alpha) parameters."""

import math
from dataclasses import replace

import numpy as np
import pytest

from paulpath import (
    Axis,
    ConfigError,
    DimensionlessParams,
    HBAR_SI,
    MeasurementConfig,
    TrapParameters,
    ZeroQError,
    derive_frequency_coefficients,
    dimensionless,
    effective_frequency,
)
from paulpath.mathieu import mathieu_series
from paulpath.trapmodel import EffectiveFrequencySpec, whole_periods

REF = TrapParameters(
    charge=1.602176634e-19,
    mass=2.28e-25,
    half_gap=8.0e-3,
    dc_voltage=10.0,
    ac_voltage=100.0,
    drive_omega=2.0e6,
)
REF_MEAS = MeasurementConfig(t_start=0.0, t_end=30.0, resolution=2.0e-6)

# Frozen against the hand-derived value at the reference parameters.
REF_ALPHA = -2.621522008290629 - 2.808371014603125e-11j


def test_hbar_is_the_2018_si_value():
    assert HBAR_SI == 1.054571817e-34


def test_coefficient_scaling():
    c = derive_frequency_coefficients(REF, Axis.X)
    scale = REF.charge / (REF.mass * REF.half_gap**2)
    assert c.u == pytest.approx(scale * REF.dc_voltage, rel=1e-15)
    assert c.v == pytest.approx(scale * REF.ac_voltage, rel=1e-15)
    wide = replace(REF, half_gap=2.0 * REF.half_gap)
    cw = derive_frequency_coefficients(wide, Axis.X)
    assert cw.u == pytest.approx(c.u / 4.0, rel=1e-15)
    heavy = replace(REF, mass=2.0 * REF.mass)
    ch = derive_frequency_coefficients(heavy, Axis.X)
    assert ch.v == pytest.approx(c.v / 2.0, rel=1e-15)


def test_axial_axis_negates_both_coefficients():
    cx = derive_frequency_coefficients(REF, Axis.X)
    cz = derive_frequency_coefficients(REF, Axis.Z)
    assert cz.u == -cx.u and cz.v == -cx.v
    assert cz.axis is Axis.Z


def test_measurement_shift_value():
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    expected = -4.0 * REF.hbar / (REF.mass * REF_MEAS.duration * REF_MEAS.resolution**2)
    assert spec.u_tilde.imag == pytest.approx(expected, rel=1e-15)
    assert spec.u_tilde.real == derive_frequency_coefficients(REF, Axis.X).u


def test_infinite_resolution_shift_is_exactly_zero():
    meas = replace(REF_MEAS, resolution=math.inf)
    assert meas.weight_rate == 0.0
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), meas, REF
    )
    assert spec.u_tilde.imag == 0.0


def test_weight_rate():
    assert REF_MEAS.weight_rate == pytest.approx(
        2.0 / (30.0 * (2.0e-6) ** 2), rel=1e-15
    )


def test_w_squared_scalar_and_array():
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    w_scalar = spec.w_squared(0.3e-6)
    assert isinstance(w_scalar, complex)
    t = np.linspace(0.0, 3.0e-6, 7)
    w_arr = spec.w_squared(t)
    assert w_arr.shape == t.shape
    assert w_arr[0] == pytest.approx(spec.u_tilde - spec.v, rel=1e-15)
    expected = spec.u_tilde - spec.v * math.cos(spec.drive_omega * 0.3e-6)
    assert w_scalar == pytest.approx(expected, rel=1e-14)


def test_w_squared_scalar_branch_agrees_with_the_array_path():
    # the scalar branch (math.cos, one call per right-hand side) and the
    # array branch (np.cos) may differ only in the last bits of the cosine
    rng = np.random.default_rng(3)
    for u_tilde, v, omega in ((0.37 - 0.011j, 1.3, 2.7), (-4.1e10 - 2.2e8j, 3.3e11, 6.3e7)):
        spec = EffectiveFrequencySpec(u_tilde=u_tilde, v=v, drive_omega=omega)
        t = np.concatenate([[0.0, -1.0], rng.uniform(-1e3, 1e3, 4000) / omega])
        array = spec.w_squared(t)
        ulp = np.spacing(max(abs(u_tilde), abs(v)))
        for kind in (float, np.float64):
            scalar = np.array([spec.w_squared(kind(tt)) for tt in t])
            assert np.max(np.abs(scalar.real - array.real)) <= 2 * ulp
            assert np.max(np.abs(scalar.imag - array.imag)) <= 2 * ulp


def test_dimensionless_map():
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    dl = dimensionless(spec)
    assert dl.p == pytest.approx(4.0 * spec.u_tilde / REF.drive_omega**2, rel=1e-15)
    assert dl.q == pytest.approx(2.0 * spec.v / REF.drive_omega**2, rel=1e-15)


def test_reference_alpha_frozen():
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    alpha = dimensionless(spec).alpha
    assert alpha.real == pytest.approx(REF_ALPHA.real, rel=1e-12)
    assert alpha.imag == pytest.approx(REF_ALPHA.imag, rel=1e-9)


def test_axial_beta_relation():
    # On the axial axis both coefficients flip sign while the
    # measurement shift keeps its sign, so q_hat = -q and
    # p_hat = -Re(p) + i*Im(p).
    spec_x = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    spec_z = effective_frequency(
        derive_frequency_coefficients(REF, Axis.Z), REF_MEAS, REF
    )
    dx, dz = dimensionless(spec_x), dimensionless(spec_z)
    assert dz.q == -dx.q
    assert dz.p.real == -dx.p.real
    assert dz.p.imag == dx.p.imag


def test_zero_drive_raises_only_on_series_quantities():
    still = replace(REF, ac_voltage=0.0)
    spec = effective_frequency(
        derive_frequency_coefficients(still, Axis.X), REF_MEAS, still
    )
    with pytest.raises(ZeroQError):
        dimensionless(spec)
    params = DimensionlessParams(p=0.3, q=0.0)
    with pytest.raises(ZeroQError):
        params.alpha
    with pytest.raises(ZeroQError):
        mathieu_series(params)


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="trap.mass_kg"):
        replace(REF, mass=-1.0)
    with pytest.raises(ConfigError, match="trap.half_gap_m"):
        replace(REF, half_gap=0.0)
    with pytest.raises(ConfigError, match="trap.drive_omega_rad_s"):
        replace(REF, drive_omega=0.0)
    with pytest.raises(ConfigError, match="measurement.window"):
        MeasurementConfig(t_start=1.0, t_end=1.0, resolution=1e-6)
    with pytest.raises(ConfigError, match="measurement.resolution_m"):
        MeasurementConfig(t_start=0.0, t_end=1.0, resolution=-2e-6)


def test_whole_periods_split():
    omega = 2.0e6
    period = 2.0 * math.pi / omega
    # a window built as whole periods is not split into N - 1 and a
    # nearly full remainder by rounding
    for n in (1, 64, 9549296):
        assert whole_periods(n * period, omega) == (n, 0.0)
    n, rem = whole_periods(2.25 * period, omega)
    assert n == 2 and rem == pytest.approx(0.25 * period, rel=1e-12)
    n, rem = whole_periods(30.0, omega)
    assert n == 9549296 and rem / period == pytest.approx(0.5855, abs=1e-4)


def _sampled_peak(spec, t0, t1, n=200_001):
    return float(np.max(np.abs(spec.w_squared(np.linspace(t0, t1, n)))))


#: np.cos and math.cos may differ in the last bit at the same edge
_ROUNDING = 1.0 - 4.0 * np.finfo(float).eps


# (u_tilde, v, phase window [s0, s1] in omega t)
PEAK_CASES = {
    "short, monotone cosine": (0.3 - 0.05j, 1.1, 0.3, 1.2),
    "short, cosine at -1 inside": (0.3 - 0.05j, 1.1, 2.5, 4.0),
    "short, cosine at +1 inside": (-0.11 - 0.02j, -1.1, 5.9, 6.6),
    "negative start": (0.3 - 0.05j, -0.7, -0.7, 0.4),
    "negative window": (1.0 - 0.3j, 0.4, -9.0, -8.0),
    "v = 0": (0.8 - 0.1j, 0.0, 0.2, 0.9),
    "across 2 pi boundaries": (-0.4 - 1e-3j, 1.3, 3.0, 20.0),
}


@pytest.mark.parametrize("case", sorted(PEAK_CASES))
def test_peak_stiffness_is_the_sampled_maximum(case):
    u_tilde, v, s0, s1 = PEAK_CASES[case]
    omega = 1.7
    spec = EffectiveFrequencySpec(u_tilde=u_tilde, v=v, drive_omega=omega)
    t0, t1 = s0 / omega, s1 / omega
    peak = spec.peak_stiffness(t0, t1)
    sampled = _sampled_peak(spec, t0, t1)
    assert sampled * _ROUNDING <= peak <= sampled * (1.0 + 1e-9)
    if case in ("short, monotone cosine", "v = 0", "negative window"):
        # the maximum sits on an edge, which the samples hold exactly
        assert peak == pytest.approx(sampled, rel=1e-14)
    if v == 0.0:
        assert peak == abs(u_tilde)


def test_peak_stiffness_bounds_random_windows():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u_tilde = complex(rng.uniform(-2, 2), -rng.uniform(0, 0.5))
        v = rng.uniform(-2, 2)
        spec = EffectiveFrequencySpec(u_tilde=u_tilde, v=v, drive_omega=2.3)
        t0 = rng.uniform(-10, 10)
        t1 = t0 + rng.uniform(1e-3, 6.0)
        peak = spec.peak_stiffness(t0, t1)
        sampled = _sampled_peak(spec, t0, t1, n=100_001)
        assert sampled * _ROUNDING <= peak <= sampled * (1.0 + 1e-8)
