"""Classical trajectory, action, fluctuation prefactors, and the
assembled restricted propagator."""

import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import constant_frequency_spec, scaled_inputs, scaled_trap

from paulpath import (
    Axis,
    BoundaryConditions,
    CausticOnWindowError,
    ConjugatePointError,
    Forcing,
    RecordWindowError,
    MeasurementConfig,
    PaulpathError,
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
    fluctuation_prefactor_from_f,
    mathieu_series,
    periodic_propagator,
    prefactor_track,
    rank_records,
    record_scorer,
    render,
    restricted_propagator,
    richardson,
)
from paulpath import cli, integrate, mathieu, propagator
from paulpath.cli import axis_inputs, load_scenario
from paulpath.records import ConstantRecord, SampledRecord, SinusoidRecord

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


def test_a_drive_not_finite_at_the_start_is_refused(monkeypatch):
    # F(t') = NaN makes the first derivative, and with it the initial
    # step, NaN: the right-hand side is then called at a NaN time, where
    # the drive's scalar rule gives NaN (np.interp's value, not an
    # exception), and the solve is refused
    params, spec = constant_frequency_spec(w0=1.4)
    T = 1.7
    bc = BoundaryConditions(x_start=0.2, x_end=-0.1, t_start=0.0, t_end=T)
    drive = Forcing(t_start=0.0, dt=T, values=np.array([np.nan, 0.5], dtype=complex))
    times, scalar_rule = [], Forcing.scalar_rule

    def recorded(self):
        drive_at = scalar_rule(self)

        def at(t):
            times.append(t)
            return drive_at(t)

        return at

    monkeypatch.setattr(Forcing, "scalar_rule", recorded)
    with pytest.raises(ToleranceNotMetError):
        classical_trajectory(spec, drive, bc, params)
    assert any(math.isnan(t) for t in times)


@pytest.mark.parametrize("case", ["zero-record", "measurement-off"])
def test_an_undriven_window_builds_no_drive_rule(monkeypatch, case):
    # a zero record, and a nonzero one with the measurement off, give a
    # zero drive: no scalar rule is built and the F terms drop out, and both
    # passes take the steps and values of passes whose right-hand sides
    # read F through the rule
    from paulpath.records import forcing as record_forcing

    record, resolution = {
        "zero-record": (ConstantRecord(amplitude=0.0), 1.0),
        "measurement-off": (SinusoidRecord(amplitude=0.4, omega=1.3, phase=0.2), math.inf),
    }[case]
    inputs = scaled_inputs(
        u=0.11, v=1.1, T=6.5 * math.pi, resolution=resolution, x_start=0.3, x_end=-0.5,
        record=record,
    )
    params, bc = inputs.params, inputs.bc
    spec = effective_frequency(inputs.coeffs, inputs.meas, params)
    drive = record_forcing(inputs.record, inputs.meas, params)
    assert not drive.values.any()
    m, drive_at = params.mass, drive.scalar_rule()
    u_tilde, v, omega = spec.u_tilde, spec.v, spec.drive_omega

    def rhs_basis(t, y):
        w2 = u_tilde - v * math.cos(omega * t)
        f = drive_at(t)
        h0, dh0, h1, dh1, p, dp = y.tolist()
        return [dh0, -w2 * h0, dh1, -w2 * h1, dp, -w2 * p + f / m]

    def rhs_traj(t, y):
        w2 = u_tilde - v * math.cos(omega * t)
        f = drive_at(t)
        q, dq, _, _ = y.tolist()
        lagr = 0.5 * m * dq * dq - 0.5 * m * w2 * q * q + f * q
        return [dq, -w2 * q + f / m, lagr, f * q]

    solves = []

    def recorded(rhs, span, y0, rtol, atol):
        solves.append((span, y0.copy(), rtol, atol))
        return integrate.solve_complex_ivp(rhs, span, y0, rtol, atol)

    def refused(self):
        raise AssertionError("an undriven window built the drive's scalar rule")

    with monkeypatch.context() as patch:
        patch.setattr(propagator, "solve_complex_ivp", recorded)
        patch.setattr(Forcing, "scalar_rule", refused)
        sol = classical_trajectory(spec, drive, bc, params)
    traj, basis = sol._passes
    ref_basis, ref_traj = (
        integrate.solve_complex_ivp(rhs, *args)
        for rhs, args in zip((rhs_basis, rhs_traj), solves, strict=True)
    )
    for ivp, ref in ((basis, ref_basis), (traj, ref_traj)):
        assert np.array_equal(ivp.t, ref.t) and np.array_equal(ivp.y, ref.y)
    rate = max(math.sqrt(spec.peak_stiffness(bc.t_start, bc.t_end)), 1.0 / bc.duration)
    assert sol.d_end == ref_basis.y_end[2]
    assert sol.d_arg == propagator._step_arg(ref_basis.t, ref_basis.y[2], rate)
    assert sol.action == ref_traj.y_end[2]


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
    from_f = fluctuation_prefactor_from_f(params, spec, (0.0, T))
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
        fluctuation_prefactor_from_f(params, spec, (0.0, 0.6))


def test_from_f_ode_refuses_zeros_between_fixed_samples():
    # f = cos t over 2000 periods: 4000 zeros, which a fixed 2001-sample
    # grid aliases away; the integrator's steps see each of them
    params, spec = constant_frequency_spec(w0=1.0)
    with pytest.raises(CausticOnWindowError):
        fluctuation_prefactor_from_f(params, spec, (0.0, 2000 * 2.0 * math.pi + 0.3))


@pytest.mark.parametrize("prefactor", [closed_form_prefactor], ids=["closed-form"])
def test_series_prefactors_refuse_zeros_between_fixed_samples(prefactor):
    # scaled window (0.05, 2000 * 2 pi (1 + 1e-7) + 0.35): cos s + alpha
    # cos 3s vanishes at every pi/2 + k pi, and 2001 samples with a step
    # of 2 pi (1 + 1e-7) all land near s = 0.05 (mod 2 pi)
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    a, b = 0.05, 2000 * 2.0 * math.pi * (1.0 + 1e-7) + 0.35
    window = (2.0 * a / REF.drive_omega, 2.0 * b / REF.drive_omega)
    with pytest.raises(CausticOnWindowError):
        prefactor(REF, spec, window)


def test_from_f_matches_robust_on_reference_subwindow():
    spec = effective_frequency(
        derive_frequency_coefficients(REF, Axis.X), REF_MEAS, REF
    )
    window = (0.0, 0.5e-6)  # scaled half-width 0.5, inside the first zero
    robust = prefactor_track(REF, spec, window).value
    from_f = fluctuation_prefactor_from_f(REF, spec, window)
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


# --- record scorer over many drive periods -----------------------------------

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
    scorer = record_scorer(inputs)
    log_k = scorer.log_amplitude(inputs.record)
    # under this drive the direct route's trajectory pass is the less
    # accurate side (about 1e-8 off at its default tol on the z-like trap)
    direct = restricted_propagator(inputs, tol=1e-13)
    assert abs(direct.classical.forcing_integral) > 0.5
    assert scorer.prefactor.caustic_count == direct.prefactor.caustic_count
    assert abs(log_k - direct.log_amplitude) < 1e-9


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
    scorer = record_scorer(inputs)
    log_k = scorer.log_amplitude(inputs.record)
    extr, _ = richardson(
        periodic_propagator(inputs, 2048), periodic_propagator(inputs, 4096)
    )
    # a zero record moves the oracle's phase by more than 1 rad, so the
    # comparison below sees the record
    silent = replace(inputs, record=render(ConstantRecord(0.0), inputs.meas))
    assert abs(periodic_propagator(silent, 2048).imag - extr.imag) > 1.0
    assert 0.9 * zeros < scorer.prefactor.caustic_count < 1.1 * zeros
    assert abs(log_k.real - extr.real) <= 1e-3
    assert abs(log_k.imag - extr.imag) <= 1e-3


def test_floquet_rejects_non_constant_record():
    # a record that is not constant has no periodic drive; the scorer
    # still takes it, one pass over its grid on the one-period basis
    inputs = scaled_inputs(
        u=0.11, v=1.1, T=math.pi * 3.5, resolution=1.0,
        record=SinusoidRecord(amplitude=0.4, omega=1.7),
    )
    log_k = record_scorer(inputs).log_amplitude(inputs.record)
    extr, _ = richardson(
        discrete_propagator(inputs, 2**15), discrete_propagator(inputs, 2**16)
    )
    assert abs(log_k - extr) <= 1e-8


def test_floquet_conjugate_point_raises():
    # constant stiffness 1, no measurement: D = sin(t) vanishes at
    # T = 5 pi, which is 4.25 periods of a drive at omega = 1.7
    inputs = scaled_inputs(
        u=1.0, v=0.0, T=5.0 * math.pi, omega=1.7, x_start=0.1, x_end=0.2
    )
    with pytest.raises(ConjugatePointError):
        record_scorer(inputs).log_amplitude(inputs.record)
    with pytest.raises(ConjugatePointError):
        restricted_propagator(inputs)


def test_floquet_needs_a_solution_in_the_upper_half_plane():
    # an undamped inverted stiffness has real Floquet solutions only, and
    # so has an undamped drive in the first instability zone: no slope
    # ratio has Im z > 0, so arg D is read on the closed-form basis over
    # the whole window
    for inputs in (
        scaled_inputs(u=-0.5, v=0.0, T=3.3 * math.pi, x_start=0.1, x_end=0.2),
        scaled_inputs(u=0.5, v=1.2, T=2.4 * math.pi, x_start=0.1, x_end=0.2),
    ):
        scorer = record_scorer(inputs)
        assert not any(z.imag > 0.0 for z in scorer.basis.slope_ratios)
        direct = restricted_propagator(inputs, tol=1e-13)
        assert abs(scorer.log_amplitude(inputs.record) - direct.log_amplitude) < 1e-9


@pytest.mark.parametrize(
    "n_periods, spans", [(10.37, [1.0]), (0.4, [0.4]), (3.0, [1.0])],
    ids=["periods-and-remainder", "remainder-only", "whole-periods"],
)
def test_floquet_runs_one_basis_pass_per_block(monkeypatch, n_periods, spans):
    # one closed-form Hill basis per scorer, over one period or over a
    # window shorter than that: the remainder block is a prefix of it;
    # the forced part comes from quadrature over the basis, and no ODE
    # pass runs at all
    calls, blocks = [], []
    solve, hill = integrate.solve_complex_ivp, propagator.hill_basis

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return solve(*args, **kwargs)

    def counted_hill(spec, window):
        blocks.append((window[1] - window[0]) * spec.drive_omega / (2.0 * math.pi))
        return hill(spec, window)

    for module in (integrate, mathieu, propagator):
        monkeypatch.setattr(module, "solve_complex_ivp", counted)
    monkeypatch.setattr(propagator, "hill_basis", counted_hill)
    inputs = _driven_window(X_LIKE, n_periods, amplitude=1.0)
    record_scorer(inputs).log_amplitude(inputs.record)
    assert calls == []
    assert blocks == pytest.approx(spans, rel=1e-12)


def test_floquet_refuses_a_coarse_basis(monkeypatch):
    # four harmonics on each side leave the one-period Hill series' tail
    # far above rounding
    monkeypatch.setattr(mathieu, "_MAX_HARMONICS", 4)
    inputs = _driven_window(X_LIKE, 10.37, amplitude=1.0)
    with pytest.raises(ToleranceNotMetError, match="harmonics"):
        record_scorer(inputs).log_amplitude(inputs.record)


def test_constant_records_agree_across_grids_and_batches():
    # constant records on three grids over 10.37 periods take the one
    # closed form, however many samples carry the level
    inputs = _driven_window(X_LIKE, 10.37, amplitude=1.0)
    scorer = record_scorer(inputs)
    records = [
        render(ConstantRecord(0.7), inputs.meas, n_samples=n) for n in (2, 65, 257)
    ]
    alone = [scorer.log_amplitude(rec) for rec in records]
    batch = scorer.log_amplitudes(records)
    for scored, single in zip(batch, alone):
        assert abs(scored - single) <= 1e-14 * abs(single)
    for single in alone[1:]:
        assert abs(single - alone[0]) <= 1e-12 * abs(alone[0])


# the x-like trap undamped and under resolutions that damp the Floquet
# solutions by up to e^113 over the window, and a 0.5 s window under a far
# stronger one
_DAMPED_WINDOWS = {
    f"resolution-{r}-{n}-periods": (r, math.pi * n)
    for r in (math.inf, 1.0, 0.5, 0.3, 0.2, 0.1) for n in (2.5, 6.5, 20.5)
}
_DAMPED_WINDOWS["resolution-0.01-T-0.5"] = (0.01, 0.5)
_DAMPED_RECORDS = {
    "sinusoid": SinusoidRecord(0.3, 1.7, 0.2),
    "constant": ConstantRecord(0.3),
}


@pytest.mark.parametrize("family", sorted(_DAMPED_RECORDS))
@pytest.mark.parametrize("window", list(_DAMPED_WINDOWS))
def test_record_scorer_on_strongly_damped_windows(window, family):
    # the sliced oracle's value, never a wrong number; only the 0.5 s
    # window, which the sliced pair resolves to about 1e-7 only, may be
    # refused instead
    resolution, T = _DAMPED_WINDOWS[window]
    inputs = scaled_inputs(
        u=0.11, v=1.1, T=T, resolution=resolution, x_start=0.3, x_end=-0.5,
        record=_DAMPED_RECORDS[family],
    )
    try:
        log_k = record_scorer(inputs).log_amplitude(inputs.record)
    except ToleranceNotMetError:
        assert window == "resolution-0.01-T-0.5"
        return
    extr, _ = richardson(
        discrete_propagator(inputs, 2**16), discrete_propagator(inputs, 2**17)
    )
    assert abs(log_k - extr) <= 1e-8 * abs(extr)


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


# --- record scorer ------------------------------------------------------------

_SHORT = load_scenario("barium_short_window.scenario")
_UM = 1e-6
_FAMILIES = {
    "constant": ConstantRecord(0.8 * _UM),
    "sinusoid": SinusoidRecord(1.0 * _UM, 1.7e6, 0.4),
    "samples-short": SampledRecord(
        tuple(_UM * np.random.default_rng(3).standard_normal(15))
    ),
    "samples-long": SampledRecord(
        tuple(_UM * np.random.default_rng(4).standard_normal(60))
    ),
    "measurement-off": SinusoidRecord(1.0 * _UM, 1.7e6, 0.4),
}


def _short_base(axis, family):
    base = axis_inputs(_SHORT, axis)
    if family == "measurement-off":
        base = replace(base, meas=replace(base.meas, resolution=math.inf))
    return base


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("axis", [Axis.X, Axis.Z])
def test_record_scorer_matches_direct_route(axis, family):
    base = _short_base(axis, family)
    rec = render(_FAMILIES[family], base.meas, n_samples=65)
    scored = record_scorer(base).log_amplitude(rec)
    direct = restricted_propagator(replace(base, record=rec), tol=1e-13).log_amplitude
    assert abs(scored.real - direct.real) <= 1e-10 * abs(direct.real)
    assert abs(scored.imag - direct.imag) <= 1e-10


_LAZY_GRID_CASES = {
    "short-x": lambda: _short_base(Axis.X, "sinusoid"),
    "damped-resolution-1.0-6.5-periods": lambda: scaled_inputs(
        u=0.11, v=1.1, T=6.5 * math.pi, resolution=1.0, x_start=0.3, x_end=-0.5,
        record=_DAMPED_RECORDS["sinusoid"],
    ),
}


@pytest.mark.parametrize("case", list(_LAZY_GRID_CASES))
def test_grid_is_built_on_first_read(case):
    from paulpath.records import forcing as record_forcing

    inputs = _LAZY_GRID_CASES[case]()
    sol = restricted_propagator(inputs).classical
    traj, basis = sol._passes
    # rhs_evals: 2 to start, 12 per step attempt; the pipeline read D(t'')
    # from the step values, so neither pass has solved for its dense output
    assert traj.rhs_evals == 2 + 12 * (traj.steps + traj.rejected)
    assert basis.rhs_evals == 2 + 12 * (basis.steps + basis.rejected)
    # reading the grid solves for the dense output of the pass it reads
    assert sol.d_function[-1].tobytes() == np.complex128(sol.d_end).tobytes()
    assert basis.rhs_evals > 2 + 12 * (basis.steps + basis.rejected)
    assert sol.q.size == sol.grid.size
    assert traj.rhs_evals > 2 + 12 * (traj.steps + traj.rejected)
    built = (traj.rhs_evals, basis.rhs_evals)
    # the same arrays, bit for bit, as a fresh solve whose grid is read
    # in another order
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    drive = record_forcing(inputs.record, inputs.meas, inputs.params)
    ref = classical_trajectory(spec, drive, inputs.bc, inputs.params)
    for name in ("d_function", "q_dot", "q"):
        assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes()
    # a second read builds nothing and gives the kept array
    assert sol.q is sol.q and sol.d_function is sol.d_function
    assert (traj.rhs_evals, basis.rhs_evals) == built


@pytest.mark.parametrize("case", list(_LAZY_GRID_CASES))
def test_dense_output_interpolates_the_steps_of_the_solve(case):
    sol = restricted_propagator(_LAZY_GRID_CASES[case]()).classical
    sol.q, sol.d_function
    for ivp in sol._passes:
        assert np.array_equal(ivp._interpolant.ts, ivp.t)


def test_a_kept_result_holds_the_step_values_only():
    # a kept result holds its passes' step values (16 bytes per step and
    # complex component: 6 in the basis pass, 4 in the trajectory pass)
    # and little else; the stage rows of every step would be ~10x that
    inputs = scaled_inputs(
        u=0.11, v=1.1, T=40 * math.pi, resolution=1.0, x_start=0.3, x_end=-0.5,
        record=SinusoidRecord(amplitude=0.4, omega=1.3, phase=0.2), n_samples=17,
    )
    restricted_propagator(inputs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = restricted_propagator(inputs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    traj, basis = result.classical._passes
    assert basis.steps >= 1000
    step_values = 16 * ((basis.steps + 1) * 6 + (traj.steps + 1) * 4)
    assert kept <= 2 * step_values + 64 * 1024, (kept, step_values)


_PREFACTOR_WINDOWS = {
    "short-x": lambda: _short_base(Axis.X, "sinusoid"),
    "short-z": lambda: _short_base(Axis.Z, "sinusoid"),
    # w2 = 1 - 0.9 cos(t/2), monitored: 44 zeros of D on the window
    "driven-44-caustics": lambda: scaled_inputs(
        u=1.0, v=0.9, omega=0.5, T=150.0, resolution=30.0
    ),
}


@pytest.mark.parametrize("case", sorted(_PREFACTOR_WINDOWS))
def test_record_scorer_prefactor_matches_prefactor_track(case):
    # the Hill basis' D, with arg D read on its own grid, against the
    # adaptive pass' D read at the integrator's steps
    inputs = _PREFACTOR_WINDOWS[case]()
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    window = (inputs.bc.t_start, inputs.bc.t_end)
    track = prefactor_track(inputs.params, spec, window, tol=1e-13)
    scored = record_scorer(inputs).prefactor
    assert scored.caustic_count == track.caustic_count
    assert abs(scored.log_value - track.log_value) <= 1e-10
    if case.startswith("driven"):
        assert track.caustic_count == 44


def test_record_scorer_exposes_its_floquet_diagnostics():
    basis = record_scorer(_short_base(Axis.X, "sinusoid")).basis
    assert basis.nu.imag < 0.0 < basis.nu.real
    assert basis.multiplier == pytest.approx(math.exp(-basis.nu.imag * math.pi / 1e6))
    assert 1.0 < basis.multiplier < 1.001
    assert basis.harmonics == basis.coefficients.size == 17
    assert basis.tail <= np.finfo(float).eps
    assert basis.wronskian_residual <= 1e-10


@pytest.mark.parametrize("n_periods", [1, 2])
def test_record_scorer_deepens_the_hill_series_on_a_strong_drive(n_periods):
    # u~ = 20 - 0.5i, v = 40, w = 1 (Mathieu q = 80): the continued
    # fractions do not reach rounding at their first depth and are doubled,
    # and the pair keeps 22 harmonics a side
    T = 2.0 * math.pi * n_periods
    inputs = scaled_inputs(
        u=20.0, v=40.0, T=T, omega=1.0, resolution=math.sqrt(8.0 / T),
        x_start=0.3, x_end=-0.2, record=SinusoidRecord(0.2, 1.3, 0.4), n_samples=513,
    )
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    assert spec.u_tilde == pytest.approx(20.0 - 0.5j, rel=1e-15)
    scorer = record_scorer(inputs)
    assert scorer.basis.harmonics > 2 * mathieu._FIRST_DEPTH + 1
    log_k = scorer.log_amplitude(inputs.record)
    extr, _ = richardson(
        discrete_propagator(inputs, 2**14), discrete_propagator(inputs, 2**15)
    )
    assert abs(log_k.real - extr.real) <= cli.VALIDATE_LOGMOD_RTOL * abs(extr.real)
    assert abs(log_k.imag - extr.imag) <= cli.VALIDATE_PHASE_ATOL


def test_record_scorer_refuses_a_record_off_the_window():
    base = _short_base(Axis.X, "sinusoid")
    short = replace(base.meas, t_end=0.5 * base.meas.t_end)
    rec = render(_FAMILIES["sinusoid"], short, n_samples=65)
    with pytest.raises(RecordWindowError):
        record_scorer(base).log_amplitude(rec)


def test_record_scorer_cost_is_flat_in_the_periods(monkeypatch):
    # 10^4 periods of a trap with ~17 rad of oscillation phase per period
    # (w2 = 1 - 0.9 cos(t/2)): a 2001-sample sinusoid scores there, and
    # the work on its grid has the shapes it has over 20 periods
    shapes = {}
    original = propagator._grid_terms

    def recorded(scorer, t_start, dt, n):
        terms = original(scorer, t_start, dt, n)
        shapes.setdefault(periods, []).append(
            [np.shape(part) for part in terms[:2]]
            + [np.shape(part) for part in terms[2]] + [np.shape(terms[3])]
        )
        return terms

    monkeypatch.setattr(propagator, "_grid_terms", recorded)
    for periods in (20, 10**4):
        inputs = scaled_inputs(
            u=1.0, v=0.9, T=periods * 4 * math.pi, omega=0.5, resolution=50.0,
            x_start=0.3, x_end=-0.5, record=SinusoidRecord(0.3, 1.7, 0.2), n_samples=2001,
        )
        assert cmath.isfinite(record_scorer(inputs).log_amplitude(inputs.record))
    assert shapes[20] == shapes[10**4]
    assert len(shapes[20]) == 1


def test_record_scorer_conjugate_point_raises():
    # w2 = 1 unmonitored: h1 = sin t vanishes at T = pi
    with pytest.raises(ConjugatePointError):
        record_scorer(scaled_inputs(u=1.0, v=0.0, T=math.pi))


def test_record_scorer_matches_the_direct_route_on_any_grid():
    base = _short_base(Axis.X, "sinusoid")
    scorer = record_scorer(base)
    for n_samples in (17, 65, 2001):
        rec = render(_FAMILIES["sinusoid"], base.meas, n_samples=n_samples)
        scored = scorer.log_amplitude(rec)
        direct = restricted_propagator(replace(base, record=rec), tol=1e-13).log_amplitude
        assert abs(scored - direct) <= 1e-10 * abs(direct), n_samples


@pytest.mark.parametrize("nu_t", [1e-2, 1e-4, 1e-6, 1e-8])
def test_record_scorer_keeps_its_digits_as_nu_nears_zero(nu_t):
    # A free particle under a weak measurement, w2 = -4i/r^2 over T = 1,
    # so |nu| T = 2/r: the particular response q_p = F g0 + F' g2 grows as
    # 1/(|nu| T)^2 and the kicks cancel it.  Measured: 1.5e-13, 3.1e-10,
    # 1.4e-9 and 7.0e-10, the same against restricted_propagator(tol=1e-13)
    inputs = scaled_inputs(
        u=0.0, v=0.0, T=1.0, resolution=2.0 / nu_t, record=SinusoidRecord(3e4, 31.7, 0.2)
    )
    scorer = record_scorer(inputs)
    assert abs(scorer.basis.nu) == pytest.approx(nu_t, rel=1e-9)
    scored = scorer.log_amplitude(inputs.record)
    extr, _ = richardson(
        discrete_propagator(inputs, 2**16), discrete_propagator(inputs, 2**17)
    )
    assert abs(scored - extr) <= 1e-8 * abs(extr)


def test_record_scorer_refuses_a_coarse_basis(monkeypatch):
    # four harmonics on each side leave a Fourier tail ~1e-6 of the
    # largest coefficient, far above rounding
    inputs = scaled_inputs(
        u=-0.11, v=-1.1, T=50.0, resolution=1.3, x_start=0.3, x_end=-0.5,
        record=SinusoidRecord(0.3, 1.7, 0.2),
    )
    monkeypatch.setattr(mathieu, "_MAX_HARMONICS", 4)
    with pytest.raises(ToleranceNotMetError, match="harmonics"):
        record_scorer(inputs)


def test_record_scorer_raises_a_typed_error_where_hill_seed_overflows():
    # a measurement this strong puts |Im sqrt(a)| near 1400, past where
    # sin^2 in Hill's determinant overflows: no bare OverflowError, but a
    # typed refusal or the sliced oracle's value
    inputs = scaled_inputs(u=0.11, v=1.1, T=0.01, resolution=0.01)
    try:
        log_k = record_scorer(inputs).log_amplitude(inputs.record)
        ranked = rank_records(inputs, [inputs.record])
    except PaulpathError:
        return
    extr, err = richardson(
        discrete_propagator(inputs, 2**15), discrete_propagator(inputs, 2**16)
    )
    assert abs(log_k - extr) <= 1e-8 * abs(extr)
    assert ranked[0].log_p_x == 2.0 * log_k.real


# --- batched scoring ----------------------------------------------------------

# (family, samples): constant, sinusoid and sampled records on 14-, 50-,
# 65- and 2001-sample grids, several records sharing each grid
_BATCH = [
    (ConstantRecord(0.8 * _UM), 50),
    (SinusoidRecord(1.0 * _UM, 1.7e6, 0.4), 65),
    (SampledRecord(tuple(_UM * np.random.default_rng(5).standard_normal(14))), 14),
    (ConstantRecord(-0.5 * _UM), 2001),
    (SinusoidRecord(0.6 * _UM, 0.5e6, -1.1), 14),
    (SampledRecord(tuple(_UM * np.random.default_rng(6).standard_normal(50))), 50),
    (SinusoidRecord(1.3 * _UM, 2.6e6, 2.0), 2001),
    (ConstantRecord(0.3 * _UM), 65),
    (SinusoidRecord(0.9 * _UM, 1.1e6, 0.0), 50),
    (SampledRecord(tuple(_UM * np.random.default_rng(7).standard_normal(65))), 65),
]


def _batch(base):
    return [render(spec, base.meas, n_samples=n) for spec, n in _BATCH]


@pytest.mark.parametrize("family", ["sinusoid", "measurement-off"])
@pytest.mark.parametrize("axis", [Axis.X, Axis.Z])
def test_batch_scores_match_each_record_scored_alone(axis, family):
    base = _short_base(axis, family)
    scorer = record_scorer(base)
    records = _batch(base)
    assert sorted({r.n_samples for r in records}) == [14, 50, 65, 2001]
    batch = scorer.log_amplitudes(records)
    assert batch.shape == (len(records),)
    for rec, scored in zip(records, batch):
        alone = scorer.log_amplitude(rec)
        assert abs(scored - alone) <= 1e-14 * abs(alone)


def test_batch_scores_do_not_depend_on_the_order_or_on_duplicates():
    scorer = record_scorer(_short_base(Axis.X, "sinusoid"))
    records = _batch(scorer.inputs)
    batch = scorer.log_amplitudes(records)
    order = np.random.default_rng(8).permutation(len(records))
    shuffled = scorer.log_amplitudes([records[i] for i in order])
    assert np.array_equal(shuffled, batch[order])
    doubled = scorer.log_amplitudes(records + records[::-1])
    assert np.array_equal(doubled, np.concatenate((batch, batch[::-1])))
    assert scorer.log_amplitudes([]).shape == (0,)


@pytest.mark.parametrize("position", [0, 4, 9])
def test_batch_refuses_an_off_window_record_before_scoring(monkeypatch, position):
    base = _short_base(Axis.X, "sinusoid")
    scorer = record_scorer(base)
    records = _batch(base)
    short = replace(base.meas, t_end=0.5 * base.meas.t_end)
    records[position] = render(_FAMILIES["sinusoid"], short, n_samples=65)
    passes = []
    original = propagator._grid_terms
    monkeypatch.setattr(
        propagator, "_grid_terms", lambda *a: passes.append(a) or original(*a)
    )
    with pytest.raises(RecordWindowError):
        scorer.log_amplitudes(records)
    assert passes == []


def test_batch_runs_one_pass_per_record_grid(monkeypatch):
    scorer = record_scorer(_short_base(Axis.Z, "sinusoid"))
    records = _batch(scorer.inputs)
    passes, stacks = [], []
    grid_terms, drive_terms = propagator._grid_terms, propagator._drive_terms
    monkeypatch.setattr(
        propagator, "_grid_terms",
        lambda scorer, t_start, dt, n: passes.append(n) or grid_terms(scorer, t_start, dt, n),
    )
    monkeypatch.setattr(
        propagator, "_drive_terms",
        lambda terms, forces, dt: stacks.append(forces.shape) or drive_terms(terms, forces, dt),
    )
    scorer.log_amplitudes(records)
    # four grids: one pass each, with every record of the grid stacked
    assert sorted(passes) == [14, 50, 65, 2001]
    assert sorted(stacks) == [(2, 14), (2, 2001), (3, 50), (3, 65)]


# --- scorer memo --------------------------------------------------------------


_MEMO_CASES = {
    "short-x": _short_base(Axis.X, "sinusoid"),
    "short-z": _short_base(Axis.Z, "sinusoid"),
    "10.37-periods": _driven_window(X_LIKE, 10.37, amplitude=1.0),
}


@pytest.mark.parametrize("case", list(_MEMO_CASES))
def test_memoised_scorer_is_bit_identical_to_a_fresh_build(case):
    base = _MEMO_CASES[case]
    records = _batch(base)
    fresh = record_scorer(base).log_amplitudes(records)
    cached = record_scorer(base)
    assert propagator._scorer_core.cache_info().hits == 1
    assert cached.inputs is base
    assert cached.log_amplitudes(records).tobytes() == fresh.tobytes()
    propagator._scorer_core.cache_clear()
    assert record_scorer(base).log_amplitudes(records).tobytes() == fresh.tobytes()


def test_equal_settings_share_one_basis_and_others_rebuild(monkeypatch):
    builds = []
    hill = propagator.hill_basis
    monkeypatch.setattr(propagator, "hill_basis", lambda *a: builds.append(a) or hill(*a))
    base = _short_base(Axis.X, "sinusoid")
    keys = ("params", "coeffs", "meas", "bc")
    twin = replace(base, **{key: replace(getattr(base, key)) for key in keys})
    assert all(getattr(twin, key) is not getattr(base, key) for key in keys)
    record_scorer(base)
    record_scorer(twin)
    # another record in the same settings is no new setting either
    record_scorer(replace(twin, record=render(_FAMILIES["constant"], twin.meas)))
    assert len(builds) == 1
    for changed in (
        replace(base, meas=replace(base.meas, resolution=2.0 * base.meas.resolution)),
        replace(base, bc=replace(base.bc, x_end=base.bc.x_end + _UM)),
        replace(base, params=replace(base.params, ac_voltage=1.01 * base.params.ac_voltage)),
    ):
        count = len(builds)
        record_scorer(changed)
        assert len(builds) == count + 1


def test_memoised_arrays_are_read_only():
    scorer = record_scorer(_driven_window(X_LIKE, 10.37, amplitude=1.0))
    arrays = (
        scorer.basis.t, scorer.basis.coefficients, scorer.basis._parts,
        scorer._columns, scorer._powers, scorer._boundary,
    )
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_memo_is_bounded_and_keeps_no_failure(monkeypatch):
    base = _driven_window(X_LIKE, 0.4, amplitude=1.0)
    size = propagator._SCORER_CACHE_SIZE
    for k in range(size + 3):
        record_scorer(replace(base, bc=replace(base.bc, x_end=0.01 * k)))
        assert propagator._scorer_core.cache_info().currsize <= size
    assert propagator._scorer_core.cache_info().currsize == size
    propagator._scorer_core.cache_clear()
    coarse = _driven_window(X_LIKE, 10.37, amplitude=1.0)
    with monkeypatch.context() as patch:
        patch.setattr(mathieu, "_MAX_HARMONICS", 4)
        with pytest.raises(ToleranceNotMetError, match="harmonics"):
            record_scorer(coarse)
    assert propagator._scorer_core.cache_info().currsize == 0
    assert math.isfinite(record_scorer(coarse).log_amplitude(coarse.record).real)
