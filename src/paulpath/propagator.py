"""The restricted propagator of the monitored trap.

Everything here is the quadratic path integral

    U[a](x'', t''; x', t') = integral d[x] exp{ (i/hbar) S_eff[x] }
                             * exp{ -(2/(T da**2)) integral a**2 dt },

with the effective action of a driven oscillator whose stiffness
m*w2(t) is complex (see :mod:`paulpath.trapmodel`) and whose drive F(t)
encodes the candidate record (see :mod:`paulpath.records`).  For a
quadratic action the integral splits exactly into

    U = prefactor(t', t'') * exp{ (i/hbar) S_cl } * exp{ record term },

so the module provides three ingredients and an assembler:

* the classical trajectory and action of the complex boundary value
  problem, solved by superposition of two homogeneous and one forced
  initial value solution (exact for a linear system, up to integrator
  tolerance);
* the fluctuation prefactor, in two independent forms: the robust
  route takes D'' + w2 D = 0, D(t') = 0, D'(t') = 1 from a homogeneous
  basis and evaluates sqrt(m / (2 pi i hbar D(t''))) on the branch
  fixed by one rule, arg D read at the basis' steps with each zero of D
  (a caustic) advancing it by pi (see :func:`_step_arg`);
  the endpoint route evaluates
  sqrt(m / (2 pi i hbar f(t') f(t'') integral f**-2 dt)) for any
  zero-free homogeneous solution f, which equals the same D by
  reduction of order;
* a closed-form two-term evaluation of the endpoint route for the
  cosine-series f (see :func:`closed_form_prefactor`);
* :func:`restricted_propagator`, which adds the three log-domain parts
  and never exponentiates;
* :func:`record_scorer`, the same assembly in closed form for many
  records on one axis and a window of any length: the Hill-Floquet
  basis of the axis (:func:`~paulpath.mathieu.hill_basis`, no ODE pass)
  over one drive period, or over the window when that is shorter, then
  batches of records by variation of parameters, one O(n) numpy pass
  over each record grid for all the records on it.  On a window of N
  periods and a remainder, D(t'') comes from the one-period map raised
  to N, with arg D carried by the Floquet solution that the basis'
  exponent and slope ratios give, and the constant records of a batch
  take the period's affine map raised to N.

The direct route's DOP853 passes and the adaptive basis pass
(:func:`~paulpath.mathieu._basis_pass`, any stiffness) under
:func:`prefactor_track` are the independent checks of the Hill basis.

All outputs stay in log space: at realistic monitoring strengths the
record term alone spans hundreds of decades.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev, legendre
from scipy.integrate import quad, simpson

from .errors import (
    CausticOnWindowError,
    ConfigError,
    ConjugatePointError,
    OutOfRangeError,
    ToleranceNotMetError,
)
from .integrate import DEFAULT_TOL, solve_complex_ivp
from .mathieu import _GRID_PHASE, HillBasis, _basis_pass, evaluate_f, hill_basis, mathieu_series
from .records import (
    Forcing,
    MeasurementRecord,
    check_spans_window,
    drive_samples,
    forcing as record_forcing,
    misses_window,
    norm_integrals,
    record_norm_integral,
)
from .trapmodel import (
    EffectiveFrequencySpec,
    FrequencyCoefficients,
    MeasurementConfig,
    TrapParameters,
    dimensionless,
    effective_frequency,
    whole_periods,
)

#: |h1(t'')| below this fraction of max |h1| on the window counts as a
#: conjugate point (the one-unknown boundary solve is singular there).
_CONJUGATE_RTOL = 1e-10

#: most oscillation phase h * sqrt(max |w2|) one accepted step of the
#: integrator may span where arg D is read from the step values
_MAX_STEP_PHASE = 0.5 * math.pi

#: a quadrature panel of :func:`_drive_integrals` spans at most _PANEL_PHASE of
#: oscillation phase p = h * sqrt(max |w2|), with the fewest Gauss-Legendre
#: nodes n whose first inexact Taylor term (p/2)**(2n) / (2n)! is at most
#: _GAUSS_RTOL (7 nodes at p = 0.5)
_PANEL_PHASE = 0.5
_GAUSS_RTOL = 1e-16

#: largest |h0 h1' - h0' h1 - 1| _drive_integrals accepts at its nodes, and
#: the largest rounding eps e^{N |Im nu| P} that the Floquet multipliers may
#: grow to over a window of N periods; the Wronskian of the basis is exactly
#: 1, and the same 1e-6 bounds the trajectory pass's endpoint miss
_WRONSKIAN_ATOL = 1e-6

#: most quadrature nodes times records one :func:`_drive_integrals` pass
#: takes (about 250 MB of temporaries); a record that is not constant
#: needs ~14 nodes per radian of the window's oscillation phase, so this
#: refuses it on windows past ~3.7e4 rad
_NODE_BUDGET = 2**19

#: a zero of the series reference solution f within this distance
#: (scaled time, rad) of the window, or a root of its polynomial in
#: cos(s) within it of [-1, 1], counts as a zero on the window
_ZERO_MARGIN = 1e-6


@dataclass(frozen=True)
class BoundaryConditions:
    """Propagator endpoints: positions (meters) at the window edges."""

    x_start: float
    x_end: float
    t_start: float
    t_end: float

    def __post_init__(self):
        for name in ("x_start", "x_end", "t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite", field=f"boundary.{name}")
        if not self.t_end > self.t_start:
            raise ConfigError("t_end must exceed t_start", field="boundary.window")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class ClassicalSolution:
    """Complex classical trajectory q(t) of the driven window.

    ``action`` is the on-shell action accumulated by the integrator
    alongside the trajectory; :func:`classical_action` recomputes it by
    quadrature and :func:`boundary_action` from the endpoint identity,
    so the three routes can be compared.

    ``d_function`` carries the homogeneous solution with D(t') = 0,
    D'(t') = 1 sampled on ``grid`` (it falls out of the superposition
    solve for free and is exactly the fluctuation determinant input);
    ``d_arg`` is arg D(t''), read at the accepted steps of that solve
    (see :func:`_step_arg`).
    """

    grid: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray
    action: complex
    forcing_integral: complex
    d_function: np.ndarray
    d_arg: float
    _mismatch: float = 0.0

    @property
    def endpoint_mismatch(self) -> float:
        """|q(t'') - x''| actually achieved, as stored by the solver."""
        return self._mismatch


def classical_trajectory(
    spec: EffectiveFrequencySpec,
    drive: Forcing,
    bc: BoundaryConditions,
    params: TrapParameters,
    tol: float = DEFAULT_TOL,
    n_points: int = 513,
) -> ClassicalSolution:
    """Solve m q'' + m w2(t) q = F(t) with q(t') = x', q(t'') = x''.

    Superposition: with h0, h1 the homogeneous solutions with unit
    initial value / slope and qp the zero-initial-data forced solution,
    the unique off-caustic trajectory is

        q = x' h0 + c h1 + qp,   c = (x'' - x' h0(t'') - qp(t'')) / h1(t'').

    A second integration pass then accumulates q, q', the Lagrangian and
    the drive overlap integral F*q with the same error control, so the
    returned action carries the integrator tolerance rather than a
    quadrature error.

    Raises
    ------
    ConjugatePointError
        If h1(t'') is consistent with zero at the resolution of the
        window (boundary solve singular).
    ToleranceNotMetError
        If the adaptive integrator gives up, or its steps are too long
        to read arg D from (see :func:`_step_arg`).
    """
    m = params.mass
    t0, t1 = bc.t_start, bc.t_end
    grid = np.linspace(t0, t1, n_points)
    T = bc.duration
    rate = max(math.sqrt(spec.peak_stiffness(t0, t1)), 1.0 / T)
    f_max = float(np.max(np.abs(drive.values))) if drive.values.size else 0.0
    x_scale = max(abs(bc.x_start), abs(bc.x_end), f_max / (m * rate * rate), 1e-30)

    def rhs_basis(t, y):
        w2 = spec.w_squared(t)
        f = drive(t)
        h0, dh0, h1, dh1, p, dp = y.tolist()
        return np.array(
            [dh0, -w2 * h0, dh1, -w2 * h1, dp, -w2 * p + f / m], dtype=complex
        )

    init = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], dtype=complex)
    scales = np.array(
        [1.0, rate, min(T, 1.0 / rate), 1.0, x_scale, x_scale * rate]
    )
    basis = solve_complex_ivp(
        rhs_basis, (t0, t1), init, rtol=tol, atol=tol * 1e-3 * scales
    )
    h1 = basis.y[2]
    _check_not_conjugate(h1[-1], h1)
    d_arg = _step_arg(basis.t, h1, rate)
    c = (bc.x_end - bc.x_start * basis.y_end[0] - basis.y_end[4]) / h1[-1]

    def rhs_traj(t, y):
        w2 = spec.w_squared(t)
        f = drive(t)
        q, dq, _, _ = y.tolist()
        lagr = 0.5 * m * dq * dq - 0.5 * m * w2 * q * q + f * q
        return np.array([dq, -w2 * q + f / m, lagr, f * q], dtype=complex)

    q_scale = max(x_scale, abs(c) * min(T, 1.0 / rate))
    s_scale = max(m * q_scale**2 * rate, 1e-60)
    traj_scales = np.array(
        [q_scale, q_scale * rate, s_scale, max(f_max * q_scale * T, 1e-60)]
    )
    traj = solve_complex_ivp(
        rhs_traj,
        (t0, t1),
        np.array([bc.x_start, c, 0.0, 0.0], dtype=complex),
        rtol=tol,
        atol=tol * 1e-3 * traj_scales,
    )
    zs = traj.dense(grid)
    mismatch = abs(traj.y_end[0] - bc.x_end)
    if mismatch > 1e-6 * max(q_scale, abs(bc.x_end)):
        raise ToleranceNotMetError(
            f"trajectory missed the endpoint by {mismatch:.3e} m"
        )
    return ClassicalSolution(
        grid=grid,
        q=zs[0],
        q_dot=zs[1],
        action=complex(traj.y_end[2]),
        forcing_integral=complex(traj.y_end[3]),
        d_function=basis.dense(grid)[2],
        d_arg=d_arg,
        _mismatch=float(mismatch),
    )


def classical_action(
    sol: ClassicalSolution,
    spec: EffectiveFrequencySpec,
    drive: Forcing,
    params: TrapParameters,
) -> complex:
    """On-shell action by composite quadrature of the Lagrangian.

    Independent of the integrator-accumulated ``sol.action``: this
    re-evaluates L = m q'^2/2 - m w2 q^2/2 + F q on the stored grid and
    applies Simpson's rule.
    """
    m = params.mass
    w2 = spec.w_squared(sol.grid)
    f = drive(sol.grid)
    lagr = 0.5 * m * sol.q_dot**2 - 0.5 * m * w2 * sol.q**2 + f * sol.q
    return complex(
        simpson(lagr.real, x=sol.grid) + 1j * simpson(lagr.imag, x=sol.grid)
    )


def boundary_action(sol: ClassicalSolution, params: TrapParameters) -> complex:
    """On-shell action from the endpoint identity.

    Integrating the Lagrangian by parts against the equation of motion
    collapses the bulk to S = (m/2) [q q']_{t'}^{t''} + (1/2) integral F q dt.
    """
    m = params.mass
    edge = sol.q[-1] * sol.q_dot[-1] - sol.q[0] * sol.q_dot[0]
    return complex(0.5 * m * edge + 0.5 * sol.forcing_integral)


# --- fluctuation prefactor -------------------------------------------------


@dataclass(frozen=True)
class PrefactorTrack:
    """Diagnostics of the branch-tracked determinant route.

    ``theta_end`` is the phase of D(t'') continued from D ~ (t - t') > 0
    at the left edge; ``caustic_count`` rounds theta/pi, i.e. the number
    of zero crossings the tracked phase has stepped over.
    """

    d_end: complex
    theta_end: float
    log_value: complex
    caustic_count: int

    @property
    def value(self) -> complex:
        return cmath.exp(self.log_value)


def _monotone_arg(values: np.ndarray) -> float:
    """Change of arg along samples of a solution whose arg never decreases.

    With Im w2 <= 0, Im(conj(f) f') of a solution only grows, so a
    solution that starts with it >= 0 has a non-decreasing arg.  Each
    step is read in [-pi/2, 3 pi/2): the half turn across a near-zero of
    f, which a nearest-angle reading may take as -pi, counts as +pi, and
    a flat step that rounding moves below zero stays near zero.  Steps
    must stay below 3 pi/2, i.e. the samples must resolve each near-zero.
    """
    steps = np.angle(values[1:] / values[:-1])
    steps = np.mod(steps + 0.5 * math.pi, 2.0 * math.pi) - 0.5 * math.pi
    return float(np.sum(steps))


def _nearest_branch(tracked: float, principal: float) -> float:
    """The value principal + 2 pi k closest to the tracked estimate."""
    return principal + 2.0 * math.pi * round((tracked - principal) / (2.0 * math.pi))


def _step_arg(times: np.ndarray, values: np.ndarray, rate: float) -> float:
    """arg of a solution at its last step, continued along its step values.

    ``values`` are the solution at ``times``, the integrator's accepted
    steps or a Hill basis' grid: D, which starts at 0 and is (t - t') > 0
    just right of t', or a Floquet solution, which starts at 1.  The arg
    is that of the first nonzero value plus the :func:`_monotone_arg`
    steps over the nonzero values, so each zero of the solution adds pi
    (the Morette-Van Vleck/Maslov count).  An exact zero carries no arg
    and is skipped.

    ``rate`` bounds sqrt(max |w2|) on the window.

    Raises
    ------
    ToleranceNotMetError
        If a step is too long to read from (see :func:`_check_step_phase`).
    """
    _check_step_phase(times, rate)
    live = values[values != 0]
    return float(np.angle(live[0])) + _monotone_arg(live)


def _check_step_phase(times: np.ndarray, rate: float) -> None:
    """Raise ToleranceNotMetError if a step of ``times`` spans more than
    pi/2 of oscillation phase h * rate (``rate`` bounds sqrt(max |w2|)).
    A longer step can cross a zero of a solution with too little margin
    left to see it from the step values; a tighter tolerance shortens it."""
    reach = float(np.max(np.diff(times))) * rate
    if reach > _MAX_STEP_PHASE:
        raise ToleranceNotMetError(
            f"an integrator step spans {reach:.2f} rad of oscillation phase;"
            f" a solution is read from steps of at most {_MAX_STEP_PHASE:.2f} rad"
        )


def _check_not_conjugate(d_end: complex, d: np.ndarray, log_growth: float = 0.0) -> None:
    """Raise ConjugatePointError if D(t'') = ``d_end`` is consistent with
    zero at the window scale: max |d| over the step values d of D, times
    e^log_growth where the window runs on past them (the whole periods
    past the first).  The test is on the log scale, which no window overflows."""
    log_top = math.log(float(np.max(np.abs(d)))) + log_growth
    if d_end == 0 or math.log(abs(d_end)) < math.log(_CONJUGATE_RTOL) + log_top:
        raise ConjugatePointError(
            f"D(t'') = {complex(d_end):.3e} against window scale"
            f" e^{log_top:.3f}; the endpoints are conjugate"
        )


def _prefactor(
    d_end: complex, theta_end: float, mass: float, hbar: float
) -> PrefactorTrack:
    """sqrt(m / (2 pi i hbar D(t''))) on the branch fixed by arg D = theta_end."""
    log_mag = 0.5 * math.log(mass / (2.0 * math.pi * hbar * abs(d_end)))
    phase = -0.5 * (math.pi / 2.0 + theta_end)
    return PrefactorTrack(
        d_end=d_end,
        theta_end=theta_end,
        log_value=complex(log_mag, phase),
        caustic_count=int(round(theta_end / math.pi)),
    )


def prefactor_track(
    params: TrapParameters,
    spec: EffectiveFrequencySpec,
    window: tuple[float, float],
    tol: float = DEFAULT_TOL,
) -> PrefactorTrack:
    """Integrate the determinant equation and track its phase.

    D'' + w2(t) D = 0, D(t') = 0, D'(t') = 1 is h1 of the adaptive basis
    pass (:func:`~paulpath.mathieu._basis_pass`), which takes any
    stiffness with ``w_squared`` and ``peak_stiffness``, a
    :class:`~paulpath.mathieu.TruncationStiffness` too.  The prefactor is
    sqrt(m / (2 pi i hbar D(t''))) with arg D
    carried from the left edge along the integrator's steps, which keeps
    the square root on the physical branch through caustics (each zero
    of D advances arg D by pi when the measurement damping Im w2 < 0, and
    the same continuation is the standard one for real stiffness).

    Raises
    ------
    ConjugatePointError
        If D(t'') is consistent with zero at the scale of the window.
    ToleranceNotMetError
        If the integrator gives up, or its steps are too long to read
        arg D from (see :func:`_step_arg`).
    """
    t0, t1 = window
    if not t1 > t0:
        raise OutOfRangeError("window must have positive duration", field="window")
    basis, rate = _basis_pass(spec, t0, t1, tol)
    return _determinant_prefactor(basis.t, basis.y[2], rate, params)


def _determinant_prefactor(
    times: np.ndarray, d: np.ndarray, rate: float, params: TrapParameters
) -> PrefactorTrack:
    """The prefactor with D sampled as ``d`` at ``times`` (the steps of an
    adaptive basis pass, or a grid of the Hill basis), arg D read at those
    steps, checked for a conjugate point."""
    _check_not_conjugate(d[-1], d)
    return _prefactor(complex(d[-1]), _step_arg(times, d, rate), params.mass, params.hbar)


def _zero_free_or_raise(f_vals):
    """Raise CausticOnWindowError if the step values ``f_vals`` of a
    solution (steps of at most pi/2 phase) come near zero or change arg
    so fast between two steps that a zero sits between them."""
    mags = np.abs(f_vals)
    top = float(mags.max())
    if top == 0.0 or float(mags.min()) < 1e-6 * top:
        raise CausticOnWindowError(
            "reference solution f vanishes (or nearly) on the window"
        )
    jumps = np.abs(np.diff(np.angle(f_vals)))
    jumps = np.minimum(jumps, 2.0 * np.pi - jumps)
    if float(jumps.max()) > 2.5:
        raise CausticOnWindowError(
            "arg f jumps by more than 2.5 rad between adjacent steps;"
            " a zero of f sits between them"
        )


def _series_zero_free_or_raise(coefficients, s0: float, s1: float) -> None:
    """Raise CausticOnWindowError if the cosine series
    f(s) = sum_k c_k cos((2k + 1) s) has a zero on the scaled window
    [s0, s1], to within ``_ZERO_MARGIN``.

    cos(m s) = T_m(cos s), so f is an odd Chebyshev series in x = cos s
    (for two terms, x (1 + alpha (4 x^2 - 3))), and its real zeros are
    s = +-arccos(x) + 2 pi k over its roots x in [-1, 1]: cos s = 0 always,
    and the others when the series is real.  A root off [-1, 1] by at
    most the margin counts too, since the measurement damping moves the
    zeros of a real series only that far off the real axis.
    """
    cheb = np.zeros(2 * len(coefficients), dtype=complex)
    cheb[1::2] = coefficients
    for x in chebyshev.chebroots(cheb):
        if abs(x.imag) > _ZERO_MARGIN or abs(x.real) > 1.0 + _ZERO_MARGIN:
            continue
        theta = math.acos(min(1.0, max(-1.0, x.real)))
        for phase in (theta, -theta):
            first = math.ceil((s0 - _ZERO_MARGIN - phase) / math.tau)
            if first * math.tau + phase <= s1 + _ZERO_MARGIN:
                raise CausticOnWindowError(
                    f"reference solution f vanishes at scaled time"
                    f" {first * math.tau + phase:.6f}, on the window [{s0}, {s1}]"
                )


def fluctuation_prefactor_from_f(
    params: TrapParameters,
    spec: EffectiveFrequencySpec,
    window: tuple[float, float],
    f_source: str = "ode",
    n_terms: int = 2,
    tol: float = DEFAULT_TOL,
) -> complex:
    """Endpoint-product prefactor sqrt(m / (2 pi i hbar f' f'' int f**-2)).

    Valid for any homogeneous solution f with no zero on the window
    (reduction of order shows f(t') f(t'') int f**-2 dt is exactly the
    D of the robust route, independent of which solution f is).

    f_source selects the reference solution: "ode" takes f = h0 (f(t') = 1,
    f'(t') = 0) of the adaptive basis pass of the true stiffness and
    inherits only integrator error; "series" uses the truncated cosine
    series of :mod:`paulpath.mathieu` (n_terms harmonics), which solves a
    slightly different stiffness, so its prefactor carries the truncation
    error.
    f must have no zero on the window: the series is checked in closed
    form (:func:`_series_zero_free_or_raise`), the ODE solution at the
    integrator's steps under the step-phase guard of :func:`_step_arg`.

    The square root is the principal branch; on windows that stay short
    of the first caustic this coincides with the tracked branch of the
    robust route (the regime in which this formula is used for
    validation).
    """
    t0, t1 = window
    if not t1 > t0:
        raise OutOfRangeError("window must have positive duration", field="window")
    if f_source == "series":
        coeffs = mathieu_series(dimensionless(spec), n_terms)
        half_omega = 0.5 * spec.drive_omega

        def f_eval(t):
            return evaluate_f(coeffs, half_omega * np.asarray(t, dtype=float))

        _series_zero_free_or_raise(coeffs.coefficients, half_omega * t0, half_omega * t1)

    elif f_source == "ode":
        sol, rate = _basis_pass(spec, t0, t1, tol)
        _check_step_phase(sol.t, rate)
        _zero_free_or_raise(sol.y[0])

        def f_eval(t):
            return sol.dense(t)[0]

    else:
        raise OutOfRangeError(
            f"f_source must be 'series' or 'ode', got {f_source!r}",
            field="numerics.f_source",
        )

    def integrand_re(t):
        return float((1.0 / f_eval(t) ** 2).real)

    def integrand_im(t):
        return float((1.0 / f_eval(t) ** 2).imag)

    eps = max(tol, 1e-13)
    re_part, _ = quad(integrand_re, t0, t1, epsabs=0.0, epsrel=eps, limit=200)
    im_part, _ = quad(integrand_im, t0, t1, epsabs=0.0, epsrel=eps, limit=200)
    d_combo = complex(f_eval(t0)) * complex(f_eval(t1)) * complex(re_part, im_part)
    return cmath.sqrt(params.mass / (2.0j * math.pi * params.hbar * d_combo))


# --- closed-form two-term prefactor ----------------------------------------


def _series_inverse_square_antiderivative(alpha: complex, t_tilde: float) -> complex:
    """Antiderivative H with H'(t) = 1 / f(t)**2 for the two-term f.

    f = cos(t) + alpha cos(3t) factors through u = tan(t) as
    f = cos(t) (1 + alpha (4 cos^2 t - 3)) = cos^3(t) (A u^2 + B)/(u^2+1)
    with A = 1 - 3 alpha and B = 1 + alpha, giving the partial-fraction
    antiderivative below in u.  Valid within one branch of tan; callers
    handle window placement.
    """
    a_c = 1.0 - 3.0 * alpha
    b_c = 1.0 + alpha
    u = complex(math.tan(t_tilde))
    root = cmath.sqrt(a_c / b_c)
    sab = cmath.sqrt(a_c * b_c)
    atn = cmath.atan(u * root)
    term1 = u / (a_c * a_c)
    term2 = 2.0 * (a_c - b_c) / (a_c * a_c * sab) * atn
    term3 = ((a_c - b_c) ** 2 / (a_c * a_c)) * (
        u / (2.0 * b_c * (a_c * u * u + b_c)) + atn / (2.0 * b_c * sab)
    )
    return term1 + term2 + term3


def closed_form_prefactor(
    params: TrapParameters,
    spec: EffectiveFrequencySpec,
    window: tuple[float, float],
) -> complex:
    """Two-term closed-form prefactor on a zero-free window.

    The closed form packages the endpoint-product prefactor for the
    two-term cosine series f = cos + alpha cos 3t (scaled time) into a
    leading constant times two bracket factors,

        leading * [i kappa int f**-2 dt]^(-1/2) * [f(t1'') f(t1')]^(-1/2),

    with leading radicand (3a - 1)(3a^2 + 2a - 1) w m / (8 pi a hbar) and
    kappa = (3a - 1)(3a^2 + 2a - 1)/(2a) chosen so the constants cancel
    against it.  Two sub-expressions differ from the literal formula,
    whose value does not reproduce the determinant route:

    * leading radicand: (3a^2 - i + 2a) is replaced by (3a^2 + 2a - 1),
      the factorization (3a - 1)(a + 1) consistent with the arctangent
      radicands and with kappa;
    * endpoint factor: the difference f(t'') - f(t') is replaced by the
      product f(t'') f(t') required by the reduction-of-order identity
      f(t') f(t'') int f**-2 = D.
    """
    t0, t1 = window
    if not t1 > t0:
        raise OutOfRangeError("window must have positive duration", field="window")
    alpha = dimensionless(spec).alpha
    omega = spec.drive_omega
    s0, s1 = 0.5 * omega * t0, 0.5 * omega * t1

    _series_zero_free_or_raise((1.0, alpha), s0, s1)

    cubic = (3.0 * alpha - 1.0) * (3.0 * alpha**2 + 2.0 * alpha - 1.0)
    kappa = cubic / (2.0 * alpha)
    # cos s is a factor of f, so the zero-free window lies within one
    # branch of tan, and u sqrt(A/B) meets no branch cut of the arctangent
    # (its branch points are zeros of f)
    integral = _series_inverse_square_antiderivative(
        alpha, s1
    ) - _series_inverse_square_antiderivative(alpha, s0)
    bracket = 1j * kappa * integral
    leading = cmath.sqrt(
        cubic * omega * params.mass / (8.0 * math.pi * alpha * params.hbar)
    )
    f0, f1 = (math.cos(s) + alpha * math.cos(3.0 * s) for s in (s0, s1))
    endpoint = complex(f1 * f0)
    return leading / (cmath.sqrt(bracket) * cmath.sqrt(endpoint))


# --- assembly ---------------------------------------------------------------


@dataclass(frozen=True)
class PropagatorInputs:
    """One axis' complete propagation job."""

    params: TrapParameters
    coeffs: FrequencyCoefficients
    meas: MeasurementConfig
    record: MeasurementRecord
    bc: BoundaryConditions


@dataclass(frozen=True)
class PropagatorResult:
    """Log-domain restricted propagator with its additive parts.

    log_amplitude is exactly record_term + action_term + prefactor_term
    (the assembler adds, it never re-derives).  Its imaginary part is the
    continuous phase; ``phase`` folds it into (-pi, pi] and ``winding``
    keeps the discarded 2 pi turns, so the pair is lossless.
    """

    log_amplitude: complex
    action_term: complex
    prefactor_term: complex
    record_term: float
    classical: ClassicalSolution
    prefactor: PrefactorTrack

    @property
    def log_modulus(self) -> float:
        return self.log_amplitude.real

    @property
    def phase(self) -> float:
        wrapped = math.remainder(self.log_amplitude.imag, 2.0 * math.pi)
        if wrapped <= -math.pi:
            wrapped = math.pi
        return wrapped

    @property
    def winding(self) -> int:
        return int(round((self.log_amplitude.imag - self.phase) / (2.0 * math.pi)))


def _check_windows_consistent(bc: BoundaryConditions, meas: MeasurementConfig):
    if misses_window(bc.t_start, bc.t_end, meas):
        raise ConfigError(
            f"boundary window [{bc.t_start}, {bc.t_end}] does not match"
            f" measurement window [{meas.t_start}, {meas.t_end}]",
            field="boundary.window",
        )


def restricted_propagator(
    inputs: PropagatorInputs,
    tol: float = DEFAULT_TOL,
) -> PropagatorResult:
    """Assemble the full restricted propagator for one axis.

    The three additive log-domain parts:

    * record_term = -(2/(T da**2)) int a**2 dt, real and non-positive;
    * action_term = i S_cl / hbar from the classical trajectory;
    * prefactor_term = log of the branch-tracked determinant prefactor.

    The determinant input D is reused from the trajectory solve (D is
    its h1 basis solution), so no extra integration runs.
    """
    _check_windows_consistent(inputs.bc, inputs.meas)
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    drive = record_forcing(inputs.record, inputs.meas, inputs.params)
    sol = classical_trajectory(spec, drive, inputs.bc, inputs.params, tol=tol)
    track = _prefactor(
        complex(sol.d_function[-1]), sol.d_arg, inputs.params.mass, inputs.params.hbar
    )
    return _result(inputs, sol, track)


def _result(
    inputs: PropagatorInputs, sol: ClassicalSolution, track: PrefactorTrack
) -> PropagatorResult:
    """Add the record, action and prefactor terms of one axis."""
    record_term = -inputs.meas.weight_rate * record_norm_integral(inputs.record)
    action_term = 1j * sol.action / inputs.params.hbar
    return PropagatorResult(
        log_amplitude=record_term + action_term + track.log_value,
        action_term=action_term,
        prefactor_term=track.log_value,
        record_term=record_term,
        classical=sol,
        prefactor=track,
    )


# --- record scorer ----------------------------------------------------------


def _panel_layout(dt: float, rate: float) -> tuple[int, int]:
    """Panels per record segment of length ``dt``, and nodes per panel."""
    per_segment = max(1, math.ceil(dt * rate / _PANEL_PHASE))
    x = 0.5 * dt * rate / per_segment
    return per_segment, next(
        n for n in itertools.count(1) if x ** (2 * n) / math.factorial(2 * n) <= _GAUSS_RTOL
    )


@functools.cache
def _panel_rule(per_segment: int, n: int) -> tuple[np.ndarray, ...]:
    """The quadrature of one record segment cut into ``per_segment``
    panels of n Gauss-Legendre nodes: the weights of the two hat
    functions of the segment at its nodes (rows 1 - s and s, s the node
    offset as a fraction of the segment), the node weights on [-1, 1],
    and the transposed matrix whose column j integrates the polynomial
    through the nodes from -1 to node j; the last two are complex, as the
    drives they multiply are.  Built on first use: ``leggauss`` starts
    LAPACK, which the other routes never need."""
    nodes, weights = legendre.leggauss(n)
    cumulative = legendre.legval(
        nodes, legendre.legint(np.eye(nodes.size), lbnd=-1)
    ).T @ np.linalg.inv(legendre.legvander(nodes, nodes.size - 1))
    offsets = ((np.arange(per_segment)[:, None] + 0.5 * (nodes + 1.0)) / per_segment).ravel()
    hats = np.array([1.0 - offsets, offsets])
    return hats, weights.astype(complex), cumulative.T.astype(complex)


def _drive_integrals(
    basis: HillBasis, t_start: float, dt: float, forces: np.ndarray
) -> np.ndarray:
    """(A0, A1, J) of each of k drives that share a grid, in one pass:
    A_k = int F h_k dt and J = int F h0 A1(t) dt, A1(t) = int_{t0}^{t} F h1,
    over the grid's span, on the homogeneous ``basis`` (h0, h0', h1, h1')
    that starts at the grid's start ``t_start`` (it is evaluated at the
    grid's nodes, so its own span may run past the grid's end).

    ``forces`` holds the samples F(t_start + i dt) of the k drives, shape
    (k, n); the result has shape (k, 3).  Every grid segment is cut into
    panels of at most ``_PANEL_PHASE`` oscillation phase with the
    Gauss-Legendre nodes their phase needs; F is linear on a segment, so
    the rule is exact in F.  The basis is evaluated at the nodes, and its
    Wronskian checked, once for all k drives; F at the nodes is the
    segment's linear interpolant, and each step below is one array
    operation over (k, 2, panels, nodes) with the h0 and h1 rows stacked.
    A1 at the nodes comes from prefix sums over panels plus the in-panel
    integration matrix.

    Raises
    ------
    OutOfRangeError
        Before any evaluation, if the k drives need more than
        ``_NODE_BUDGET`` quadrature nodes between them.
    ToleranceNotMetError
        If the basis Wronskian at the nodes is off 1 by more than
        ``_WRONSKIAN_ATOL`` (the basis is too coarse to integrate).
    """
    k, n_samples = forces.shape
    per_segment, n_nodes = _panel_layout(dt, basis.rate)
    n_panels = (n_samples - 1) * per_segment
    if k * n_panels * n_nodes > _NODE_BUDGET:
        raise OutOfRangeError(
            f"{k} record(s) of {n_samples} samples need {k * n_panels * n_nodes}"
            f" quadrature nodes over the window, more than {_NODE_BUDGET}",
            field="record",
        )
    hats, gl_weights, gl_cumulative = _panel_rule(per_segment, n_nodes)
    h = dt / per_segment
    nodes = t_start + dt * (np.arange(n_samples - 1)[:, None] + hats[1])
    y = basis.dense(nodes.ravel())
    wronskian = float(np.abs(y[0] * y[3] - y[1] * y[2] - 1.0).max())
    if wronskian > _WRONSKIAN_ATOL:
        raise ToleranceNotMetError(
            f"basis Wronskian off 1 by {wronskian:.3e} at the quadrature"
            " nodes; the homogeneous solve is too coarse"
        )
    f = forces[:, :-1, None] * hats[0] + forces[:, 1:, None] * hats[1]
    # rows h0, h1 of the basis times each drive: shape (k, 2, panels, nodes)
    g = f.reshape(k, 1, n_panels, n_nodes) * y[::2].reshape(2, n_panels, n_nodes)
    weights = 0.5 * h * gl_weights
    panels = g @ weights
    out = np.empty((k, 3), dtype=complex)
    panels.sum(axis=-1, out=out[:, :2])
    a1_start = np.zeros((k, n_panels), dtype=complex)
    panels[:, 1, :-1].cumsum(axis=-1, out=a1_start[:, 1:])
    a1_nodes = a1_start[..., None] + 0.5 * h * (g[:, 1] @ gl_cumulative)
    ((g[:, 0] * a1_nodes) @ weights).sum(axis=-1, out=out[:, 2])
    return out


def _affine_map(ends: np.ndarray, integrals: np.ndarray, m: float) -> np.ndarray:
    """4x4 maps of (q, q', 1, int F q dt) over a span, one per row
    (A0, A1, J) of ``integrals`` (shape (k, 3), from
    :func:`_drive_integrals` on drives over that span); shape (k, 4, 4).
    ``ends`` is the basis (h0, h0', h1, h1') at the end of the span.

    By variation of parameters with W = h0 h1' - h0' h1 = 1, the
    zero-initial-data forced solution ends at qp = (h1 A0 - h0 A1)/m,
    qp' = (h1' A0 - h0' A1)/m, and int F qp dt = (A0 A1 - 2 J)/m, with
    h0, h1 at the end of the span.
    """
    e0, e0_dot, e1, e1_dot = ends
    a0, a1, j = integrals.T
    total = np.zeros((integrals.shape[0], 4, 4), dtype=complex)
    total[:, :2, :2] = ((e0, e1), (e0_dot, e1_dot))
    total[:, 0, 2] = (e1 * a0 - e0 * a1) / m
    total[:, 1, 2] = (e1_dot * a0 - e0_dot * a1) / m
    total[:, 3, :2] = integrals[:, :2]
    total[:, 3, 2] = (a0 * a1 - 2.0 * j) / m
    total[:, 2, 2] = total[:, 3, 3] = 1.0
    return total


def _boundary(total: np.ndarray, bc: BoundaryConditions, m: float):
    """(c, q(t''), q'(t''), int F q, S) of the trajectory through the
    endpoints of ``bc``, from the :func:`_affine_map` ``total`` of the
    window (shape (4, 4), or (k, 4, 4) for k maps, giving arrays of k):
    the slope c = q'(t') solves q(t'') = x'', and the action is the
    boundary identity S = (m/2) [q q']_{t'}^{t''} + (1/2) int F q."""
    e0, e1, qp = total[..., 0, 0], total[..., 0, 1], total[..., 0, 2]
    e0_dot, e1_dot, qp_dot = total[..., 1, 0], total[..., 1, 1], total[..., 1, 2]
    a0, a1, fqp = total[..., 3, 0], total[..., 3, 1], total[..., 3, 2]
    xa = bc.x_start
    c = (bc.x_end - xa * e0 - qp) / e1
    q_end = xa * e0 + c * e1 + qp
    slope_end = xa * e0_dot + c * e1_dot + qp_dot
    forcing_integral = xa * a0 + c * a1 + fqp
    action = 0.5 * m * (q_end * slope_end - xa * c) + 0.5 * forcing_integral
    return c, q_end, slope_end, forcing_integral, action


def _window_determinant(
    basis: HillBasis, bc: BoundaryConditions, params: TrapParameters, periods: tuple[int, float]
) -> tuple[np.ndarray, PrefactorTrack]:
    """(h0, h0', h1, h1') at t'' and the prefactor with D = h1(t''), from
    the Hill ``basis`` over one drive period P from t', or over the window
    when that is shorter; ``periods`` splits the window into N whole
    periods and a remainder r.

    Below one period, arg D is read on the basis' grid (:func:`_step_arg`).
    From one period on, w2 has period P, so (h, h') maps over the window
    by E_r E**N, E the basis at t' + P and E_r at t' + r (the remainder
    starting at t' + N P sees the same stiffness), and arg D is read on
    the grid over the first period only.  After that, the arg change of
    the solution from slope ratio z = D'/D at t' + P is a continuous
    function of z on the upper half plane, where Im w2 <= 0 keeps z; it
    equals (N - 1) mu + mu_r for the Floquet solution f = h0 + z* h1.
    Its slope ratio z* is the one of the basis' ``slope_ratios`` (f+'/f+
    and f-'/f- at t') with Im z* > 0 (with Im w2 < 0 the one-period map
    sends the upper half plane of z strictly into itself, so exactly one
    lies there; an undamped stable drive gives a complex conjugate pair),
    and its multiplier is e^{+-i nu P} with the same sign; the integer
    part of its arg change mu per period is fixed by the same reading of
    the grid through one period, and mu_r by the grid points below
    t' + r plus that endpoint.  The solution's first component is affine
    in z, so moving z from the Floquet value to D's value adds only the
    principal arg of the ratio of the two end values.  Where no slope
    ratio has Im z > 0 (an undamped drive outside the stability zones),
    arg D is read on the closed-form basis on a grid over the window.

    Raises
    ------
    ConjugatePointError
        If D(t'') is consistent with zero at the scale of the window.
    ToleranceNotMetError
        From one period on, before any work that grows with the window,
        if rounding grown by the Floquet multipliers over the window,
        eps e^{N |Im nu| P}, exceeds ``_WRONSKIAN_ATOL``.
    """
    n_periods, rem = periods
    if not n_periods:
        return basis.y_end, _determinant_prefactor(basis.t, basis.y[2], basis.rate, params)
    period = 2.0 * math.pi / basis.drive_omega
    # the window's largest |D| is at most the first period's, grown by the
    # Floquet multipliers |e^{+-i nu P}|
    growth = n_periods * abs(basis.nu.imag) * period
    if growth > math.log(_WRONSKIAN_ATOL / np.finfo(float).eps):
        raise ToleranceNotMetError(
            f"the Floquet multipliers grow by e^{growth:.1f} over the window,"
            f" and rounding with them past {_WRONSKIAN_ATOL:.0e}"
        )
    z_star, sign = max(zip(basis.slope_ratios, (1.0, -1.0)), key=lambda r: r[0].imag)
    if not z_star.imag > 0.0:
        grid = np.linspace(
            bc.t_start, bc.t_end, math.ceil(bc.duration * basis.rate / _GRID_PHASE) + 1
        )
        y = basis.dense(grid)
        y[:, 0] = (1.0, 0.0, 0.0, 1.0)
        return y[:, -1], _determinant_prefactor(grid, y[2], basis.rate, params)
    d = basis.y[2]
    # E maps (h, h') by the columns h0, h1 at the end of its span
    step = basis.y_end.reshape(2, 2).T
    theta = _nearest_branch(_step_arg(basis.t, d, basis.rate), cmath.phase(d[-1]))
    f_star = basis.y[0] + z_star * d
    mu = _nearest_branch(_step_arg(basis.t, f_star, basis.rate), sign * basis.nu.real * period)
    tail, mu_r = np.eye(2, dtype=complex), 0.0
    if rem > 0.0:
        t_rem = bc.t_start + rem
        ends = basis.dense(t_rem)
        tail = ends.reshape(2, 2).T
        below = basis.t < t_rem
        f_tail = np.append(f_star[below], ends[0] + z_star * ends[2])
        mu_r = _nearest_branch(
            _step_arg(np.append(basis.t[below], t_rem), f_tail, basis.rate),
            cmath.phase(f_tail[-1]),
        )
    rest = tail @ np.linalg.matrix_power(step, n_periods - 1)
    z_first = step[1, 1] / step[0, 1]
    end_first = rest[0, 0] + rest[0, 1] * z_first
    end_star = rest[0, 0] + rest[0, 1] * z_star
    theta = theta + (n_periods - 1) * mu + mu_r + cmath.phase(end_first / end_star)
    total = rest @ step
    d_end = complex(total[0, 1])
    _check_not_conjugate(d_end, d, growth)
    return total.T.ravel(), _prefactor(d_end, float(theta), params.mass, params.hbar)


@dataclass(frozen=True)
class RecordScorer:
    """Restricted propagators of many records on one axis, from one
    homogeneous solve.

    ``basis`` is the Hill-Floquet basis h0, h0', h1, h1' (unit value,
    unit slope at t') over one drive period, or over the window of
    ``inputs`` when that is shorter; the record of ``inputs`` is ignored.
    It carries the solve's diagnostics: the Floquet exponent ``nu``, the
    multiplier ``multiplier`` = |e^{i nu P}|, the harmonic count
    ``harmonics``, the coefficient ``tail`` and the
    ``wronskian_residual`` on its grid.  ``prefactor`` is the
    record-independent determinant prefactor with D = h1(t'').  Build it
    with :func:`record_scorer`.

    :meth:`log_amplitudes` scores a batch of records with one
    :func:`_drive_integrals` pass per record grid; :meth:`log_amplitude`
    is the batch of one.
    """

    inputs: PropagatorInputs
    basis: HillBasis
    prefactor: PrefactorTrack
    #: the basis at t'', and the window's whole periods and remainder
    _ends: np.ndarray = field(repr=False)
    _periods: tuple[int, float] = field(repr=False)

    def log_amplitudes(self, records: Sequence[MeasurementRecord]) -> np.ndarray:
        """log K of each of ``records`` by variation of parameters, no ODE
        pass, as a complex array in the order of ``records``.

        Every record's window is checked before any is scored.  The
        records are then grouped by grid (start, step and sample count),
        and each group takes one :func:`_drive_integrals` pass over its
        stack of drives, so the work is O(total samples) however the
        records share grids.  On a window of a period or more, the
        constant records of all grids are one group instead
        (:meth:`_constant_maps`).  The :func:`_affine_map`, the
        :func:`_boundary` solve and action, and the record norm are then
        array operations over all the records at once.

        Raises
        ------
        RecordWindowError
            For the first record that does not span the measurement window.
        OutOfRangeError
            If the records of one grid need more than ``_NODE_BUDGET``
            quadrature nodes between them (a record that is not constant,
            on a long window).
        ToleranceNotMetError
            If the basis Wronskian at a grid's nodes is off 1 by more than
            ``_WRONSKIAN_ATOL`` (the basis is too coarse to integrate).
        """
        meas, params, m = self.inputs.meas, self.inputs.params, self.inputs.params.mass
        groups: dict[tuple[float, float, int], list[int]] = {}
        constant: list[int] = []
        for i, record in enumerate(records):
            check_spans_window(record, meas)
            if self._periods[0] and np.all(record.samples == record.samples[0]):
                constant.append(i)
            else:
                groups.setdefault((record.t_start, record.dt, record.n_samples), []).append(i)
        if not records:
            return np.empty(0, dtype=complex)
        integrals, norms, maps = [], [], []
        for (t_start, dt, _), members in groups.items():
            samples = np.array([records[i].samples for i in members])
            forces = drive_samples(samples, meas, params)
            integrals.append(_drive_integrals(self.basis, t_start, dt, forces))
            norms.append(norm_integrals(samples, dt))
        if groups:
            maps.append(_affine_map(self._ends, np.concatenate(integrals), m))
        if constant:
            levels = np.array([records[i].samples[0] for i in constant])
            maps.append(self._constant_maps(drive_samples(levels, meas, params)))
            norms.append([record_norm_integral(records[i]) for i in constant])
        action = _boundary(np.concatenate(maps), self.inputs.bc, m)[-1]
        record_term = -meas.weight_rate * np.concatenate(norms)
        out = np.empty(len(records), dtype=complex)
        out[[i for members in groups.values() for i in members] + constant] = (
            record_term + 1j * action / params.hbar + self.prefactor.log_value
        )
        return out

    def log_amplitude(self, record: MeasurementRecord) -> complex:
        """log K of one record: :meth:`log_amplitudes` of ``[record]``."""
        return complex(self.log_amplitudes([record])[0])

    def _constant_maps(self, forces: np.ndarray) -> np.ndarray:
        """The :func:`_affine_map`s over the window of the constant drives
        ``forces`` (shape (k,)), E_r E**N as in :func:`_window_determinant`:
        F is constant, so the map over each whole period is the same.  One
        :func:`_drive_integrals` pass over the period and one over the
        remainder prefix serve all k drives; the shape is (k, 4, 4)."""
        t0, m = self.inputs.bc.t_start, self.inputs.params.mass
        n_periods, rem = self._periods
        drives = np.repeat(forces[:, None], 2, axis=1)

        def block(ends, length):
            return _affine_map(ends, _drive_integrals(self.basis, t0, length, drives), m)

        period = 2.0 * math.pi / self.basis.drive_omega
        total = np.linalg.matrix_power(block(self.basis.y_end, period), n_periods)
        return block(self.basis.dense(t0 + rem), rem) @ total if rem > 0.0 else total


def record_scorer(inputs: PropagatorInputs) -> RecordScorer:
    """One homogeneous solve of the axis in ``inputs``, ready to score
    batches of records with :meth:`RecordScorer.log_amplitudes`, one
    pass per record grid, on a window of any length.

    The record of ``inputs`` is not read.  The basis is the closed-form
    Floquet solution of the Mathieu stiffness
    (:func:`~paulpath.mathieu.hill_basis`) over one drive period, or over
    the window when that is shorter: no ODE pass and no tolerance, since
    its Fourier series is summed to rounding.  The conjugate-point check,
    arg D and the prefactor are computed here once
    (:func:`_window_determinant`).

    Raises
    ------
    ConfigError
        If the boundary and measurement windows differ.
    ConjugatePointError
        If D(t'') = h1(t'') is consistent with zero at the window scale.
    ToleranceNotMetError
        If the Hill series does not converge within its harmonic cap, or
        its Wronskian is off 1 (near a band edge of an undamped drive);
        or, on a window of N periods or more, if rounding grown by the
        Floquet multipliers, eps e^{N |Im nu| P}, exceeds
        ``_WRONSKIAN_ATOL``.
    """
    _check_windows_consistent(inputs.bc, inputs.meas)
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    periods = whole_periods(inputs.bc.duration, spec.drive_omega)
    t0, t1 = inputs.bc.t_start, inputs.bc.t_end
    basis = hill_basis(spec, (t0, t0 + 2.0 * math.pi / spec.drive_omega if periods[0] else t1))
    ends, track = _window_determinant(basis, inputs.bc, inputs.params, periods)
    return RecordScorer(inputs=inputs, basis=basis, prefactor=track, _ends=ends, _periods=periods)
