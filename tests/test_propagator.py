"""Classical trajectory, action, fluctuation prefactors, and the
assembled restricted propagator."""

import cmath
import math

import numpy as np
import pytest

from conftest import constant_frequency_spec, scaled_inputs, scaled_trap

from paulpath import (
    Axis,
    BoundaryConditions,
    CausticOnWindowError,
    ConfigError,
    ConjugatePointError,
    Forcing,
    NumericalError,
    MeasurementConfig,
    ToleranceNotMetError,
    TrapParameters,
    TruncationStiffness,
    boundary_action,
    classical_action,
    classical_trajectory,
    closed_form_prefactor,
    derive_frequency_coefficients,
    dimensionless,
    discrete_propagator,
    effective_frequency,
    floquet_propagator,
    fluctuation_prefactor_from_f,
    mathieu_series,
    periodic_propagator,
    prefactor_track,
    restricted_propagator,
    richardson,
)
from paulpath.records import ConstantRecord, SinusoidRecord

REF = TrapParameters(
    charge=1.602176634e-19,
    mass=2.28e-25,
    half_gap=8.0e-3,
    dc_voltage=10.0,
    ac_voltage=100.0,
    drive_omega=2.0e6,
)
REF_MEAS = MeasurementConfig(t_start=0.0, t_end=30.0, resolution=2.0e-6)


def _zero_forcing(T: float) -> Forcing:
    return Forcing(t_start=0.0, dt=T, values=np.zeros(2, dtype=complex))


def _constant_forcing(F: complex, T: float) -> Forcing:
    return Forcing(t_start=0.0, dt=T, values=np.full(2, F, dtype=complex))


def test_free_particle_trajectory_and_action():
    params, spec = constant_frequency_spec(w0=0.0)
    T, x0, x1 = 2.0, -0.3, 0.7
    bc = BoundaryConditions(x_start=x0, x_end=x1, t_start=0.0, t_end=T)
    sol = classical_trajectory(spec, _zero_forcing(T), bc, params)
    t = sol.grid
    expected = x0 + (x1 - x0) * t / T
    assert np.max(np.abs(sol.q - expected)) < 1e-11
    assert sol.action == pytest.approx(params.mass * (x1 - x0) ** 2 / (2 * T), rel=1e-11)


def test_harmonic_trajectory_matches_textbook_formula():
    w0 = 1.3
    params, spec = constant_frequency_spec(w0=w0)
    T, x0, x1 = 1.9, 0.4, -0.8
    bc = BoundaryConditions(x_start=x0, x_end=x1, t_start=0.0, t_end=T)
    sol = classical_trajectory(spec, _zero_forcing(T), bc, params)
    t = sol.grid
    expected = (x1 * np.sin(w0 * t) + x0 * np.sin(w0 * (T - t))) / math.sin(w0 * T)
    assert np.max(np.abs(sol.q - expected)) < 1e-10
    s_ref = (
        params.mass * w0 / (2.0 * math.sin(w0 * T))
        * ((x0**2 + x1**2) * math.cos(w0 * T) - 2 * x0 * x1)
    )
    assert sol.action == pytest.approx(s_ref, rel=1e-10)


def test_homogeneous_zero_boundary_gives_zero():
    params, spec = constant_frequency_spec(w0=1.3)
    T = 1.9
    bc = BoundaryConditions(x_start=0.0, x_end=0.0, t_start=0.0, t_end=T)
    sol = classical_trajectory(spec, _zero_forcing(T), bc, params)
    assert np.max(np.abs(sol.q)) < 1e-13
    assert abs(sol.action) < 1e-13


def test_conjugate_point_raises():
    w0 = 2.0
    params, spec = constant_frequency_spec(w0=w0)
    T = math.pi / w0
    bc = BoundaryConditions(x_start=0.1, x_end=0.2, t_start=0.0, t_end=T)
    with pytest.raises(ConjugatePointError):
        classical_trajectory(spec, _zero_forcing(T), bc, params)


def test_forced_harmonic_matches_closed_solution():
    w0, F, T = 1.4, 0.6 - 0.3j, 1.7
    params, spec = constant_frequency_spec(w0=w0)
    x0, x1 = 0.2, -0.1
    bc = BoundaryConditions(x_start=x0, x_end=x1, t_start=0.0, t_end=T)
    sol = classical_trajectory(spec, _constant_forcing(F, T), bc, params)
    xp = F / (params.mass * w0**2)
    c = (x1 - xp - (x0 - xp) * math.cos(w0 * T)) / math.sin(w0 * T)
    t = sol.grid
    expected = xp + (x0 - xp) * np.cos(w0 * t) + c * np.sin(w0 * t)
    assert np.max(np.abs(sol.q - expected)) < 1e-11


def test_action_quadrature_agrees_with_boundary_formula():
    inputs = scaled_inputs(
        u=0.4, v=0.5, T=2.2, resolution=1.3, x_start=0.3, x_end=-0.5,
        record=ConstantRecord(amplitude=0.4),
    )
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    from paulpath.records import forcing as record_forcing

    drive = record_forcing(inputs.record, inputs.meas, inputs.params)
    sol = classical_trajectory(spec, drive, inputs.bc, inputs.params)
    s_quad = classical_action(sol, spec, drive, inputs.params)
    s_bdry = boundary_action(sol, inputs.params)
    assert abs(s_quad - sol.action) < 1e-8 * abs(sol.action)
    assert abs(s_bdry - sol.action) < 1e-8 * abs(sol.action)


def test_bvp_residual_below_tolerance_budget():
    tol = 1e-11
    inputs = scaled_inputs(
        u=0.5, v=0.7, T=2.0, resolution=1.1, x_start=0.4, x_end=0.2,
        record=ConstantRecord(amplitude=0.5),
    )
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    from paulpath.records import forcing as record_forcing

    drive = record_forcing(inputs.record, inputs.meas, inputs.params)
    sol = classical_trajectory(
        spec, drive, inputs.bc, inputs.params, tol=tol, n_points=2049
    )
    # endpoints reproduced
    scale = max(abs(inputs.bc.x_start), abs(inputs.bc.x_end))
    assert abs(sol.q[0] - inputs.bc.x_start) < 1e3 * tol * scale
    assert abs(sol.q[-1] - inputs.bc.x_end) < 1e3 * tol * scale
    # interior ODE residual via a 4th-order stencil for dq_dot/dt
    h = sol.grid[1] - sol.grid[0]
    qd = sol.q_dot
    qdd = (qd[:-4] - 8 * qd[1:-3] + 8 * qd[3:-1] - qd[4:]) / (12 * h)
    ti = sol.grid[2:-2]
    m = inputs.params.mass
    resid = m * qdd + m * spec.w_squared(ti) * sol.q[2:-2] - drive(ti)
    budget = np.abs(drive(ti)) + m * np.abs(spec.w_squared(ti)) * np.abs(sol.q[2:-2])
    assert np.max(np.abs(resid)) < 1e3 * tol * np.max(budget)


def test_free_particle_propagator_exact():
    T, x0, x1 = 2.0, -0.3, 0.7
    inputs = scaled_inputs(u=0.0, v=0.0, T=T, x_start=x0, x_end=x1)
    res = restricted_propagator(inputs)
    m, hbar = inputs.params.mass, inputs.params.hbar
    expected = 0.5 * cmath.log(m / (2j * math.pi * hbar * T)) + 1j * m * (
        x1 - x0
    ) ** 2 / (2 * hbar * T)
    assert abs(res.log_amplitude - expected) < 1e-12 * abs(expected)
    assert res.record_term == 0.0


def test_harmonic_prefactors_match_analytic():
    w0, T = 1.3, 0.9  # w0*T < pi/2, cos(w0 t) zero-free
    params, spec = constant_frequency_spec(w0=w0)
    analytic = cmath.sqrt(
        params.mass * w0 / (2j * math.pi * params.hbar * math.sin(w0 * T))
    )
    robust = prefactor_track(params, spec, (0.0, T)).value
    from_f = fluctuation_prefactor_from_f(params, spec, (0.0, T), f_source="ode")
    assert abs(robust - analytic) < 1e-10 * abs(analytic)
    assert abs(from_f - analytic) < 1e-10 * abs(analytic)
    assert abs(from_f - robust) < 1e-8 * abs(robust)


def test_prefactor_free_limit():
    params, spec = constant_frequency_spec(w0=0.0)
    T = 1.7
    robust = prefactor_track(params, spec, (0.0, T)).value
    expected = cmath.sqrt(params.mass / (2j * math.pi * params.hbar * T))
    assert abs(robust - expected) < 1e-11 * abs(expected)


def test_past_caustic_branch():
    # One caustic inside the window advances the tracked phase by pi,
    # turning the e^{-i pi/4} prefactor into e^{-i 3 pi/4}.
    w0 = 2.0
    params, spec = constant_frequency_spec(w0=w0)
    T = 0.75 * math.pi  # w0*T = 1.5*pi, one zero of sin(w0 t) inside
    track = prefactor_track(params, spec, (0.0, T))
    assert track.caustic_count == 1
    assert track.theta_end == pytest.approx(math.pi, abs=1e-9)
    d_exact = math.sin(w0 * T) / w0  # negative past the caustic
    mag = math.sqrt(params.mass / (2 * math.pi * params.hbar * abs(d_exact)))
    expected = mag * cmath.exp(-0.75j * math.pi)
    assert abs(track.value - expected) < 1e-10 * abs(expected)


def test_from_f_raises_on_window_with_zero():
    w0 = 4.0
    params, spec = constant_frequency_spec(w0=w0)
    # f = cos(w0 t) vanishes at t = pi/8 < 0.6
    with pytest.raises(CausticOnWindowError):
        fluctuation_prefactor_from_f(params, spec, (0.0, 0.6), f_source="ode")


def test_from_f_matches_robust_on_reference_subwindow():
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    window = (0.0, 0.5e-6)  # scaled half-width 0.5, inside the first zero
    robust = prefactor_track(REF, spec, window).value
    from_f = fluctuation_prefactor_from_f(REF, spec, window, f_source="ode")
    assert abs(from_f - robust) < 1e-8 * abs(robust)


def test_series_f_source_exact_on_matched_stiffness():
    # The series route rests on an endpoint-product identity that is
    # exact when the stiffness is the one generated by the truncated f
    # itself, so on that stiffness it must match the robust tracker.
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    params_dl = dimensionless(spec)
    coeffs = mathieu_series(params_dl, n_terms=2)
    stiff = TruncationStiffness(coefficients=coeffs, drive_omega=REF.drive_omega)
    window = (0.5e-6, 1.3e-6)  # two-term series zero-free here
    from_f = fluctuation_prefactor_from_f(
        REF, spec, window, f_source="series", n_terms=2
    )
    robust = prefactor_track(REF, stiff, window).value
    assert abs(from_f - robust) < 1e-8 * abs(robust)


def test_log_amplitude_is_the_sum_of_its_parts():
    inputs = scaled_inputs(
        u=0.3, v=0.6, T=2.1, resolution=1.2, x_start=0.2, x_end=-0.3,
        record=ConstantRecord(amplitude=0.3),
    )
    res = restricted_propagator(inputs)
    assert res.log_amplitude == res.record_term + res.action_term + res.prefactor_term


def test_phase_winding_pair_is_lossless():
    inputs = scaled_inputs(
        u=0.3, v=0.6, T=2.1, resolution=1.2, x_start=0.2, x_end=-0.3,
        record=ConstantRecord(amplitude=0.3),
    )
    res = restricted_propagator(inputs)
    assert -math.pi < res.phase <= math.pi
    recon = res.phase + 2.0 * math.pi * res.winding
    assert recon == pytest.approx(res.log_amplitude.imag, abs=1e-12)


def test_log_amplitude_continuous_in_window_end():
    # 100 window lengths on a caustic-free range: no branch jumps.
    w0 = 2.0
    imags = []
    for T in np.linspace(0.3, 1.5, 100):
        inputs = scaled_inputs(
            u=w0 * w0, v=0.0, T=float(T), x_start=0.15, x_end=-0.1,
        )
        res = restricted_propagator(inputs, tol=1e-8)
        imags.append(res.log_amplitude.imag)
    steps = np.abs(np.diff(imags))
    assert steps.max() < math.pi


def test_record_term_hand_value():
    # constant record at half the resolution: -(2/T da^2) * A^2 T = -1/2
    inputs = scaled_inputs(
        u=0.4, v=0.5, T=2.0, resolution=1.0,
        record=ConstantRecord(amplitude=0.5),
    )
    res = restricted_propagator(inputs)
    assert res.record_term == pytest.approx(-0.5, rel=1e-13)


def test_zero_record_zero_boundary_is_prefactor_only():
    inputs = scaled_inputs(u=0.4, v=0.5, T=2.0, resolution=1.0)
    res = restricted_propagator(inputs)
    assert res.record_term == 0.0
    assert res.action_term == 0.0
    assert res.log_amplitude == res.prefactor_term


def test_no_drive_pipeline_matches_constant_frequency():
    # V = 0 is fine for the pipeline (only series quantities need q != 0)
    w0, T, x0, x1 = 1.1, 1.8, 0.3, -0.2
    inputs = scaled_inputs(u=w0 * w0, v=0.0, T=T, x_start=x0, x_end=x1)
    res = restricted_propagator(inputs)
    m, hbar = inputs.params.mass, inputs.params.hbar
    s_ref = m * w0 / (2 * math.sin(w0 * T)) * (
        (x0**2 + x1**2) * math.cos(w0 * T) - 2 * x0 * x1
    )
    pref = cmath.sqrt(m * w0 / (2j * math.pi * hbar * math.sin(w0 * T)))
    expected = cmath.log(pref) + 1j * s_ref / hbar
    assert abs(res.log_amplitude - expected) < 1e-9 * abs(expected)


# --- closed form ----------------------------------------------------------

# Scaled-time windows (converted to seconds inside the test) on which the
# two-term series is zero-free; the third one sits past the series zero
# at t_tilde = pi/2.
CF_WINDOWS = [(0.05, 0.35), (0.48, 1.40), (math.pi - 1.35, math.pi - 0.60)]


def _reference_closed_form_setup():
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    params_dl = dimensionless(spec)
    coeffs = mathieu_series(params_dl, n_terms=2)
    stiff = TruncationStiffness(coefficients=coeffs, drive_omega=REF.drive_omega)
    return spec, stiff


def test_closed_form_corrected_matches_robust_on_truncation_stiffness():
    spec, stiff = _reference_closed_form_setup()
    for a, b in CF_WINDOWS:
        window = (2.0 * a / REF.drive_omega, 2.0 * b / REF.drive_omega)
        value = closed_form_prefactor(REF, spec, window)
        robust = prefactor_track(REF, stiff, window).value
        assert abs(value - robust) < 1e-6 * abs(robust), (a, b)


# --- Floquet route ----------------------------------------------------------

# Stable traps in scaled units (drive omega = 2, so one period is pi) at
# the reference (p, q) = (0.11, 0.55) and at its axial mirror.
X_LIKE, Z_LIKE = (0.11, 1.1), (-0.11, -1.1)


def _driven_window(trap, n_periods, amplitude):
    u, v = trap
    return scaled_inputs(
        u=u, v=v, T=math.pi * n_periods, resolution=1.0, x_start=0.6,
        x_end=-0.4, record=ConstantRecord(amplitude=amplitude),
    )


@pytest.mark.parametrize("n_periods", [0.4, 10.37, 37.6])
@pytest.mark.parametrize("trap", [X_LIKE, Z_LIKE], ids=["x-like", "z-like"])
def test_floquet_matches_direct_route(trap, n_periods):
    inputs = _driven_window(trap, n_periods, amplitude=1.0)
    res = floquet_propagator(inputs)
    # under this drive the direct route's trajectory pass is the less
    # accurate side (about 1e-8 off at its default tol on the z-like trap)
    direct = restricted_propagator(inputs, tol=1e-13)
    assert abs(res.classical.forcing_integral) > 0.5
    assert res.prefactor.caustic_count == direct.prefactor.caustic_count
    assert abs(res.log_amplitude - direct.log_amplitude) < 1e-9


@pytest.mark.parametrize(
    "trap, n_periods, zeros",
    [
        (X_LIKE, 912.4, 500),
        (X_LIKE, 9120.7, 5000),
        (X_LIKE, 91200.3, 50000),
        (Z_LIKE, 2427.3, 500),
        (Z_LIKE, 24270.6, 5000),
        (Z_LIKE, 242700.2, 50000),
    ],
    ids=[f"{axis}-{zeros}-zeros"
         for axis in ("x-like", "z-like") for zeros in (500, 5000, 50000)],
)
def test_floquet_matches_periodic_oracle_past_direct_reach(trap, n_periods, zeros):
    # a record amplitude growing like sqrt(T) keeps the forced part of
    # the action O(1) as the window grows
    amplitude = 0.3 * math.sqrt(math.pi * n_periods)
    inputs = _driven_window(trap, n_periods, amplitude=amplitude)
    res = floquet_propagator(inputs)
    extr, _ = richardson(
        periodic_propagator(inputs, 2048), periodic_propagator(inputs, 4096)
    )
    assert 0.9 * zeros < res.prefactor.caustic_count < 1.1 * zeros
    assert abs(res.classical.forcing_integral) > 1.0
    assert abs(res.log_amplitude.real - extr.real) <= 1e-3
    assert abs(res.log_amplitude.imag - extr.imag) <= 1e-3


def test_floquet_rejects_non_constant_record():
    inputs = scaled_inputs(
        u=0.11, v=1.1, T=math.pi * 3.5, resolution=1.0,
        record=SinusoidRecord(amplitude=0.4, omega=1.7),
    )
    with pytest.raises(ConfigError):
        floquet_propagator(inputs)


def test_floquet_conjugate_point_raises():
    # constant stiffness 1, no measurement: D = sin(t) vanishes at
    # T = 5 pi, which is 4.25 periods of a drive at omega = 1.7
    inputs = scaled_inputs(
        u=1.0, v=0.0, T=5.0 * math.pi, omega=1.7, x_start=0.1, x_end=0.2
    )
    with pytest.raises(ConjugatePointError):
        floquet_propagator(inputs)
    with pytest.raises(ConjugatePointError):
        restricted_propagator(inputs)


def test_floquet_needs_a_solution_in_the_upper_half_plane():
    # an undamped inverted stiffness has real Floquet solutions only
    inputs = scaled_inputs(u=-0.5, v=0.0, T=3.3 * math.pi, x_start=0.1, x_end=0.2)
    with pytest.raises(NumericalError):
        floquet_propagator(inputs)


def test_monotone_arg_counts_each_half_turn_forward():
    from paulpath.propagator import _monotone_arg

    # a real solution crossing zero twice: the half turns come out as +pi
    # whichever sign the zero imaginary part carries
    values = np.array([1.0 + 0.0j, complex(-2.0, -0.0), complex(-1.0, 0.0), 0.5 + 0.0j])
    assert _monotone_arg(values) == pytest.approx(2.0 * math.pi, abs=1e-15)
    # a flat step that rounding pushes just below zero stays near zero
    values = np.array([1.0 + 1e-17j, 1.0 + 0.0j])
    assert abs(_monotone_arg(values)) < 1e-15


# --- arg D over many zeros -------------------------------------------------


def _oscillating_window(oscillations):
    # w2 = 1 - 4i / (T da^2) with da = 50: D stays close to sin(t), with
    # 2 * oscillations zeros, and the window ends 0.7 rad past the last one
    return scaled_inputs(
        u=1.0, v=0.0, T=2.0 * math.pi * oscillations + 0.7, resolution=50.0
    )


@pytest.mark.parametrize("oscillations", [25, 100, 400])
def test_every_zero_of_d_adds_pi_to_arg_d(oscillations):
    # a reading of arg D that misses whole turns shows as a caustic count
    # off by an even number and a phase off by multiples of 2 pi
    inputs = _oscillating_window(oscillations)
    res = restricted_propagator(inputs)
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    track = prefactor_track(inputs.params, spec, (0.0, inputs.bc.t_end))
    extr, _ = richardson(
        discrete_propagator(inputs, 2**15), discrete_propagator(inputs, 2**16)
    )
    assert res.prefactor.caustic_count == 2 * oscillations
    assert track.caustic_count == 2 * oscillations
    assert abs(res.log_amplitude.imag - extr.imag) <= 1e-3
    assert track.theta_end == pytest.approx(res.prefactor.theta_end, abs=1e-6)


def test_arg_d_refuses_steps_too_long_to_read():
    inputs = _oscillating_window(20)
    with pytest.raises(ToleranceNotMetError, match="oscillation phase"):
        restricted_propagator(inputs, tol=1e-3)


def test_step_arg_skips_exact_zeros():
    from paulpath.propagator import _step_arg

    # sin(t) at steps of pi/6, with its zeros at 0, pi and 2 pi exact
    times = np.linspace(0.0, 2.0 * math.pi, 13)
    values = np.sin(times).astype(complex)
    values[[0, 6, 12]] = 0.0
    assert _step_arg(times, values, 1.0) == pytest.approx(math.pi, abs=1e-15)
