"""Truncated cosine series, its residual, the numeric ODE route for
the scaled stability equation psi'' + [p - 2 q cos(2 t)] psi = 0, and the
Hill-Floquet pair of w2 = u~ - v cos(w t) against the adaptive basis."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import scaled_inputs

from paulpath import (
    Axis,
    DimensionlessParams,
    EffectiveFrequencySpec,
    OutOfRangeError,
    ToleranceNotMetError,
    TruncationStiffness,
    effective_frequency,
    evaluate_f,
    evaluate_f_derivative,
    evaluate_f_second_derivative,
    hill_basis,
    integrate_mathieu_ode,
    mathieu_series,
    residual_bound,
    residual_coefficients,
    residual_max_magnitude,
    record_scorer,
)
from paulpath import mathieu
from paulpath.cli import axis_inputs, load_scenario

# The reference (p, q) of the monitored barium trap (the tiny imaginary
# part of p is irrelevant for the series-structure checks below).
P_REF = 0.1097982890625 - 1.5417716622807e-11j
Q_REF = 0.5489914453125


def test_series_coefficient_formulas():
    params = DimensionlessParams(p=0.3 + 0.01j, q=0.7)
    cs = mathieu_series(params, n_terms=4).coefficients
    p, q = params.p, params.q
    base = p - 1.0 - q
    c3 = base / q
    c5 = ((p - 9.0) * base - q * q) / q**2
    assert cs[0] == 1.0
    assert cs[1] == pytest.approx(c3, rel=1e-15)
    assert cs[2] == pytest.approx(c5, rel=1e-15)
    # c7 from the three-term recurrence (p - 25) c5 = q (c3 + c7), the
    # condition for the residual channel 5 to vanish
    assert cs[3] == pytest.approx(((p - 25.0) * c5 - q * c3) / q, rel=1e-15)
    r5 = residual_coefficients(mathieu_series(params, n_terms=4)).get(5, 0.0)
    assert abs(r5) < 1e-12 * abs(cs[3])


def test_two_term_coefficient_is_alpha():
    params = DimensionlessParams(p=P_REF, q=Q_REF)
    cs = mathieu_series(params, n_terms=2)
    assert cs.coefficients[1] == pytest.approx(params.alpha, rel=1e-15)
    assert cs.harmonics == (1, 3)


def test_n_terms_out_of_range():
    params = DimensionlessParams(p=0.3, q=0.7)
    for bad in (0, 5):
        with pytest.raises(OutOfRangeError):
            mathieu_series(params, n_terms=bad)


def test_evaluate_f_and_derivatives_match_finite_differences():
    params = DimensionlessParams(p=0.3 + 0.05j, q=0.6)
    cs = mathieu_series(params, n_terms=3)
    t = np.linspace(0.1, 2.9, 11)
    h1, h2 = 1e-6, 1e-4
    fd1 = (evaluate_f(cs, t + h1) - evaluate_f(cs, t - h1)) / (2 * h1)
    fd2 = (
        evaluate_f(cs, t + h2) - 2.0 * evaluate_f(cs, t) + evaluate_f(cs, t - h2)
    ) / h2**2
    d1 = evaluate_f_derivative(cs, t)
    d2 = evaluate_f_second_derivative(cs, t)
    assert np.max(np.abs(d1 - fd1)) < 1e-8 * np.max(np.abs(d1))
    assert np.max(np.abs(d2 - fd2)) < 1e-6 * np.max(np.abs(d2))


def test_residual_decomposition_matches_direct_substitution():
    params = DimensionlessParams(p=0.25 + 0.02j, q=0.55)
    cs = mathieu_series(params, n_terms=3)
    t = np.linspace(0.0, math.pi, 301)
    direct = evaluate_f_second_derivative(cs, t) + (
        params.p - 2.0 * params.q * np.cos(2.0 * t)
    ) * evaluate_f(cs, t)
    rs = residual_coefficients(cs)
    series = sum(r * np.cos(m * t) for m, r in rs.items())
    assert np.max(np.abs(direct - series)) < 1e-12 * max(abs(r) for r in rs.values())
    assert residual_max_magnitude(cs) <= residual_bound(cs) * (1 + 1e-12)


def test_ode_wronskian_conservation():
    params = DimensionlessParams(p=0.4 + 0.03j, q=0.8)
    tol = 1e-11
    s1 = integrate_mathieu_ode(params, (0.0, 3.0), (1.0, 0.0), tol=tol)
    s2 = integrate_mathieu_ode(params, (0.0, 3.0), (0.0, 1.0), tol=tol)
    t = np.linspace(0.0, 3.0, 101)
    f1, d1 = s1.evaluate(t)
    f2, d2 = s2.evaluate(t)
    w = f1 * d2 - f2 * d1
    assert np.max(np.abs(w - 1.0)) < 10.0 * tol


def test_ode_linearity():
    params = DimensionlessParams(p=0.4, q=0.8)
    a, b = 0.7 - 0.2j, 1.3 + 0.4j
    s1 = integrate_mathieu_ode(params, (0.0, 2.0), (1.0, 0.0))
    s2 = integrate_mathieu_ode(params, (0.0, 2.0), (0.0, 1.0))
    s3 = integrate_mathieu_ode(params, (0.0, 2.0), (a, b))
    t = np.linspace(0.0, 2.0, 41)
    combo = a * s1.evaluate(t)[0] + b * s2.evaluate(t)[0]
    assert np.max(np.abs(combo - s3.evaluate(t)[0])) < 1e-9


def test_ode_runs_backward():
    # w2 = p - 2 q cos(2 t) is even, so from (1, 0) at 0 the solve over
    # (0, -2) at -t is the solve over (0, 2) at t
    params = DimensionlessParams(p=0.4 + 0.03j, q=0.8)
    forward = integrate_mathieu_ode(params, (0.0, 2.0), (1.0, 0.0))
    backward = integrate_mathieu_ode(params, (0.0, -2.0), (1.0, 0.0))
    assert np.array_equal(backward.grid, -forward.grid)
    assert np.max(np.abs(backward.psi - forward.psi)) < 1e-9
    assert np.max(np.abs(backward.psi_dot + forward.psi_dot)) < 1e-9


def test_ode_q_zero_is_trigonometric():
    params = DimensionlessParams(p=2.3, q=0.0)
    sol = integrate_mathieu_ode(params, (0.0, 1.7), (1.0, 0.0))
    t = np.linspace(0.0, 1.7, 29)
    assert np.max(np.abs(sol.evaluate(t)[0] - np.cos(math.sqrt(2.3) * t))) < 1e-10


def test_ode_p_and_q_zero_is_linear():
    params = DimensionlessParams(p=0.0, q=0.0)
    sol = integrate_mathieu_ode(params, (0.0, 2.0), (0.5, -0.25))
    t = np.linspace(0.0, 2.0, 17)
    assert np.max(np.abs(sol.evaluate(t)[0] - (0.5 - 0.25 * t))) < 1e-12


def test_series_tracks_ode_when_residual_is_small():
    # Deep in the small-q regime the two-term truncation is accurate;
    # the difference from the ODE solution with matched initial data
    # stays below the residual bound over a short span.
    params = DimensionlessParams(p=0.05, q=0.02)
    cs = mathieu_series(params, n_terms=2)
    f0 = complex(sum(cs.coefficients))
    sol = integrate_mathieu_ode(params, (0.0, 0.5), (f0, 0.0))
    t = np.linspace(0.0, 0.5, 51)
    diff = np.max(np.abs(evaluate_f(cs, t) - sol.evaluate(t)[0]))
    assert diff < residual_bound(cs)


def test_truncation_stiffness_reproduces_minus_fpp_over_f():
    params = DimensionlessParams(p=P_REF, q=Q_REF)
    cs = mathieu_series(params, n_terms=2)
    drive_omega = 2.0
    stiff = TruncationStiffness(coefficients=cs, drive_omega=drive_omega)
    t = np.array([0.1, 0.4, 0.9])
    t_tilde = 0.5 * drive_omega * t
    expected = (
        -((0.5 * drive_omega) ** 2)
        * evaluate_f_second_derivative(cs, t_tilde)
        / evaluate_f(cs, t_tilde)
    )
    assert np.max(np.abs(stiff.w_squared(t) - expected)) == 0.0
    # and the series solves that stiffness's equation identically:
    # f'' (in real time) + w2_eff f = (omega/2)^2 f'' + w2_eff f = 0.
    resid = (0.5 * drive_omega) ** 2 * evaluate_f_second_derivative(
        cs, t_tilde
    ) + stiff.w_squared(t) * evaluate_f(cs, t_tilde)
    assert np.max(np.abs(resid)) < 1e-15


# --- Hill-Floquet basis -------------------------------------------------------

_SHORT = load_scenario("barium_short_window.scenario")


def _spec(inputs):
    return effective_frequency(inputs.coeffs, inputs.meas, inputs.params)


def _short(axis, measured=True):
    base = axis_inputs(_SHORT, axis)
    if not measured:
        base = replace(base, meas=replace(base.meas, resolution=math.inf))
    return _spec(base), (base.bc.t_start, base.bc.t_end)


def _scaled(**kw):
    inputs = scaled_inputs(**kw)
    return _spec(inputs), (0.0, inputs.bc.t_end)


def _ladder_like(seed):
    # the validate-ladder family: |p|, |q| <= 0.9, 1.2-2.8 drive
    # half-periods, measurement shift Im p in 0.02-0.25
    rng = np.random.default_rng(seed)
    omega = rng.uniform(1.5, 3.0)
    q = rng.uniform(0.15, 0.9) * rng.choice([-1.0, 1.0])
    p = complex(rng.uniform(-0.8, 0.8), -rng.uniform(0.02, 0.25))
    T = 2.0 * rng.uniform(1.2, 2.8) / omega
    spec = EffectiveFrequencySpec(
        u_tilde=p * omega**2 / 4.0, v=q * omega**2 / 2.0, drive_omega=omega
    )
    return spec, (0.0, T)


_HILL_CASES = {
    "short-x": lambda: _short(Axis.X),
    "short-z": lambda: _short(Axis.Z),
    "short-x-off": lambda: _short(Axis.X, measured=False),
    "short-z-off": lambda: _short(Axis.Z, measured=False),
    **{f"ladder-{s}": (lambda s=s: _ladder_like(s)) for s in range(6)},
    # q = 5, first instability zone: |lambda| ~ 40 per period
    "unstable-q5": lambda: _scaled(u=0.5, v=10.0, T=6.0),
    "unstable-q5-measured": lambda: _scaled(u=0.5, v=10.0, T=6.0, resolution=2.0),
    # a = 4 u / omega^2 = 16 = 4 * 2^2: a row of Hill's determinant is singular
    "real-a-16": lambda: _scaled(u=1.0, v=0.9, omega=0.5, T=40.0),
    "driven-zeros": lambda: _scaled(u=1.0, v=0.9, omega=0.5, T=40.0, resolution=3.0),
    "q0-harmonic": lambda: _scaled(u=1.0, v=0.0, T=3.0),
    "q0-measured": lambda: _scaled(u=1.0, v=0.0, T=3.0, resolution=1.3),
    "q0-inverted": lambda: _scaled(u=-0.5, v=0.0, T=3.0),
    # no trap, measured: u~ = -i/(...), so nu != 0 (the unmeasured free
    # particle has no pair, see test_hill_basis_refuses_the_free_particle)
    "q0-free": lambda: _scaled(u=0.0, v=0.0, T=3.0, resolution=1.3),
}


def _pair(hill, times):
    """The Floquet pair f+, f+', f-, f-' of ``hill`` at ``times``, shape (4, len)."""
    p_plus, d_plus, p_minus, d_minus = mathieu._floquet_parts(hill, times)
    grow = np.exp(1j * hill.nu * (times - hill.t[0]))
    return np.array([grow * p_plus, grow * d_plus, p_minus / grow, d_minus / grow])


def _pair_from_basis(dop, hill, times):
    """The same pair from an adaptive basis pass (h0, h0', h1, h1' from t'),
    f = f(t') h0 + f'(t') h1, and per component the largest size of the two
    terms over ``times``: the scale the pass resolves the pair to."""
    (f_plus, df_plus, f_minus, df_minus), = _pair(hill, hill.t[:1]).T
    h0, dh0, h1, dh1 = dop.dense(times)
    pair = np.array([
        f_plus * h0 + df_plus * h1, f_plus * dh0 + df_plus * dh1,
        f_minus * h0 + df_minus * h1, f_minus * dh0 + df_minus * dh1,
    ])
    sizes = [
        abs(f_plus) * abs(h0) + abs(df_plus) * abs(h1), abs(f_plus) * abs(dh0) + abs(df_plus) * abs(dh1),
        abs(f_minus) * abs(h0) + abs(df_minus) * abs(h1), abs(f_minus) * abs(dh0) + abs(df_minus) * abs(dh1),
    ]
    return pair, np.max(sizes, axis=1)


@pytest.mark.parametrize("case", sorted(_HILL_CASES))
def test_hill_basis_matches_the_adaptive_basis(case):
    # the Floquet pair against the same pair built from the adaptive basis
    spec, (t0, t1) = _HILL_CASES[case]()
    hill = hill_basis(spec, (t0, t1))
    dop, rate = mathieu._basis_pass(spec, t0, t1, 1e-13)
    assert hill.rate == rate
    assert hill.t[0] == t0 and hill.t[-1] == t1 and hill.nu.imag <= 0.0
    # the grid steps are short enough to read arg D from
    assert np.max(np.diff(hill.t)) * rate <= 0.5 * math.pi
    assert hill.wronskian_residual <= 1e-10 and hill.tail <= np.finfo(float).eps
    for times in (np.linspace(t0, t1, 301), hill.t, np.array([t1])):
        expected, scale = _pair_from_basis(dop, hill, times)
        assert np.all(np.abs(_pair(hill, times) - expected).T <= 1e-10 * scale), case
    assert np.array_equal(hill._parts, mathieu._floquet_parts(hill, hill.t))


def test_hill_basis_is_exact_for_the_free_particle():
    # the measured free particle: w2 = u~ is constant, one Fourier term,
    # and the pair is e^{+-i nu s} with nu = sqrt(u~) to the last bit
    spec, _ = _scaled(u=0.0, v=0.0, T=3.0, resolution=1.3)
    hill = hill_basis(spec, (0.0, 3.0))
    nu = cmath.sqrt(spec.u_tilde)
    assert hill.nu in (nu, -nu) and hill.nu.imag <= 0.0
    assert np.array_equal(hill.coefficients, [1.0]) and hill.tail == 0.0
    assert hill.slope_ratios == (1j * hill.nu, -1j * hill.nu)
    assert hill.wronskian_residual == 0.0
    column = np.array([1.0, 1j * hill.nu, 1.0, -1j * hill.nu])[:, None]
    times = np.linspace(0.0, 3.0, 7)
    assert np.array_equal(mathieu._floquet_parts(hill, times), np.repeat(column, 7, axis=1))
    assert np.array_equal(hill._parts, np.repeat(column, hill.t.size, axis=1))


def test_hill_basis_refuses_the_free_particle():
    # no drive and no stiffness: nu = 0, and f+ = f- = 1 are one solution,
    # not a pair; the record scorer refuses it too, by name, before any
    # Hill basis is built
    spec, _ = _scaled(u=0.0, v=0.0, T=3.0)
    with pytest.raises(ToleranceNotMetError, match="degenerate"):
        hill_basis(spec, (0.0, 3.0))
    with pytest.raises(ToleranceNotMetError, match="free particle .* restricted_propagator"):
        record_scorer(scaled_inputs(u=0.0, v=0.0, T=3.0, x_start=0.1, x_end=0.2))


def test_hill_multiplier_is_the_monodromy_eigenvalue():
    # e^{i nu P} against the eigenvalues of the adaptive one-period map,
    # and the slope ratios against its eigenvectors
    for axis in (Axis.X, Axis.Z):
        spec, _ = _short(axis)
        period = 2.0 * math.pi / spec.drive_omega
        hill = hill_basis(spec, (0.0, period))
        dop, _ = mathieu._basis_pass(spec, 0.0, period, 1e-13)
        mono = dop.y_end.reshape(2, 2).T
        eig, vectors = np.linalg.eig(mono)
        lam = np.exp(1j * hill.nu * period)
        assert min(abs(e - lam) for e in eig) <= 1e-11 * abs(lam)
        assert hill.multiplier == pytest.approx(max(abs(eig)), rel=1e-11)
        # f+'/f+ and f-'/f- at t' are the slope ratios v'/v of the
        # eigenvectors of e^{i nu P} and e^{-i nu P}
        for multiplier, ratio in zip((lam, 1.0 / lam), hill.slope_ratios):
            k = np.argmin(np.abs(eig - multiplier))
            z = vectors[1, k] / vectors[0, k]
            assert abs(ratio - z) <= 1e-11 * abs(z)
        # 8 harmonics on each side reach rounding at |q| = 0.55
        assert hill.harmonics <= 17


#: the undamped band edge b1(q = 0.5) of w2 = u - cos(2t) (a = u, q = 0.5),
#: where the one-period monodromy has trace -2; found by bisection on the
#: adaptive monodromy at tol 1e-13
_B1 = 0.4706543549338568


def _edge_spec(du):
    return _scaled(u=_B1 + du, v=1.0, T=30.0)


def test_band_edge_constant_is_the_edge():
    spec, _ = _edge_spec(0.0)
    dop, _ = mathieu._basis_pass(spec, 0.0, math.pi, 1e-13)
    assert abs(dop.y_end[0] + dop.y_end[3] + 2.0) < 1e-10


@pytest.mark.parametrize("du", [-1e-12, 1e-12, 0.0])
def test_hill_basis_refuses_an_undamped_band_edge(du):
    # f+ and f- = f+(-t) coincide at the edge; their Wronskian cancels to
    # rounding, and its change along the grid shows it
    spec, window = _edge_spec(du)
    with pytest.raises(ToleranceNotMetError):
        hill_basis(spec, window)


@pytest.mark.parametrize("du", [-1e-6, 1e-6])
def test_hill_basis_near_a_band_edge_holds_its_accuracy(du):
    # a within 1e-6 of b1, either side: the Floquet pair is still apart
    # enough for the basis to hold 1e-10 against the adaptive one
    spec, (t0, t1) = _edge_spec(du)
    times = np.linspace(t0, t1, 301)
    hill = hill_basis(spec, (t0, t1))
    expected, scale = _pair_from_basis(mathieu._basis_pass(spec, t0, t1, 1e-13)[0], hill, times)
    assert np.all(np.abs(_pair(hill, times) - expected).T <= 1e-10 * scale)
