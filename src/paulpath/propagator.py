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
  route integrates D'' + w2 D = 0 with D(t') = 0, D'(t') = 1 and
  evaluates sqrt(m / (2 pi i hbar D(t''))) on the square-root branch
  fixed by one rule, arg D read at the integrator's accepted steps with
  each zero of D (a caustic) advancing it by pi (see :func:`_step_arg`);
  the endpoint route evaluates
  sqrt(m / (2 pi i hbar f(t') f(t'') integral f**-2 dt)) for any
  zero-free homogeneous solution f, which equals the same D by
  reduction of order;
* a closed-form two-term evaluation of the endpoint route for the
  cosine-series f (see :func:`closed_form_prefactor`);
* :func:`restricted_propagator`, which adds the three log-domain parts
  and never exponentiates;
* :func:`floquet_propagator`, the same assembly for a drive-periodic
  stiffness and a constant record over any number of drive periods.

All outputs stay in log space: at realistic monitoring strengths the
record term alone spans hundreds of decades.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, simpson

from .errors import (
    CausticOnWindowError,
    ConfigError,
    ConjugatePointError,
    NumericalError,
    OutOfRangeError,
    ToleranceNotMetError,
)
from .integrate import solve_complex_ivp
from .mathieu import evaluate_f, mathieu_series
from .records import (
    Forcing,
    MeasurementRecord,
    check_spans_window,
    forcing as record_forcing,
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

#: relative slack when comparing the boundary window to the measurement window
_WINDOW_RTOL = 1e-9

#: most oscillation phase h * sqrt(max |w2|) one accepted step of the
#: integrator may span where arg D is read from the step values
_MAX_STEP_PHASE = 0.5 * math.pi

#: integrator tolerance of the Floquet route's one-period and remainder
#: maps; their errors are raised to the power N with the maps
_FLOQUET_TOL = 1e-12


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

    :func:`floquet_propagator` samples only the two window edges, where
    ``boundary_action`` still applies.
    """

    grid: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray
    action: complex
    forcing_integral: complex
    d_function: np.ndarray
    d_arg: float

    @property
    def endpoint_mismatch(self) -> float:
        """|q(t'') - x''| actually achieved, as stored by the solver."""
        return self._mismatch

    _mismatch: float = 0.0


def _stage_scales(bc: BoundaryConditions, w_max: float, f_max: float, mass: float):
    """Rough per-component magnitudes for absolute-tolerance floors."""
    T = bc.duration
    rate = max(math.sqrt(w_max), 1.0 / T)
    x_scale = max(abs(bc.x_start), abs(bc.x_end), f_max / (mass * rate * rate), 1e-30)
    return T, rate, x_scale


def classical_trajectory(
    spec: EffectiveFrequencySpec,
    drive: Forcing,
    bc: BoundaryConditions,
    params: TrapParameters,
    tol: float = 1e-11,
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
    w_max = float(np.max(np.abs(spec.w_squared(grid))))
    f_max = float(np.max(np.abs(drive.values))) if drive.values.size else 0.0
    T, rate, x_scale = _stage_scales(bc, w_max, f_max, m)

    def rhs_basis(t, y):
        w2 = spec.w_squared(t)
        f = drive(t)
        return np.array(
            [y[1], -w2 * y[0], y[3], -w2 * y[2], y[5], -w2 * y[4] + f / m],
            dtype=complex,
        )

    init = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], dtype=complex)
    scales = np.array(
        [1.0, rate, min(T, 1.0 / rate), 1.0, x_scale, x_scale * rate]
    )
    basis = solve_complex_ivp(
        rhs_basis, (t0, t1), init, rtol=tol, atol=tol * 1e-3 * scales
    )
    h1 = basis.y[2]
    _check_not_conjugate(h1)
    d_arg = _step_arg(basis.t, h1, rate)
    c = (bc.x_end - bc.x_start * basis.y_end[0] - basis.y_end[4]) / h1[-1]

    def rhs_traj(t, y):
        w2 = spec.w_squared(t)
        f = drive(t)
        lagr = 0.5 * m * y[1] * y[1] - 0.5 * m * w2 * y[0] * y[0] + f * y[0]
        return np.array([y[1], -w2 * y[0] + f / m, lagr, f * y[0]], dtype=complex)

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
    sol = ClassicalSolution(
        grid=grid,
        q=zs[0],
        q_dot=zs[1],
        action=complex(traj.y_end[2]),
        forcing_integral=complex(traj.y_end[3]),
        d_function=basis.dense(grid)[2],
        d_arg=d_arg,
    )
    object.__setattr__(sol, "_mismatch", float(mismatch))
    return sol


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

    ``values`` are the solution at the integrator's accepted steps
    ``times``: D, which starts at 0 and is (t - t') > 0 just right of
    t', or a Floquet solution, which starts at 1.  The arg is that of
    the first nonzero value plus the :func:`_monotone_arg` steps over the
    nonzero values, so each zero of the solution adds pi (the
    Morette-Van Vleck/Maslov count).  An exact zero carries no arg and
    is skipped.

    ``rate`` bounds sqrt(max |w2|) on the window.

    Raises
    ------
    ToleranceNotMetError
        If a step spans more than pi/2 of oscillation phase h * rate.
        A longer step can cross a zero with too little margin left for
        the [-pi/2, 3 pi/2) reading; a tighter tolerance shortens it.
    """
    reach = float(np.max(np.diff(times))) * rate
    if reach > _MAX_STEP_PHASE:
        raise ToleranceNotMetError(
            f"an integrator step spans {reach:.2f} rad of oscillation phase;"
            f" arg D is read from steps of at most {_MAX_STEP_PHASE:.2f} rad"
        )
    live = values[values != 0]
    return float(np.angle(live[0])) + _monotone_arg(live)


def _check_not_conjugate(d: np.ndarray) -> None:
    """Raise ConjugatePointError if D(t'') = d[-1] is consistent with zero
    at the window scale max |d| over the step values d."""
    top = float(np.max(np.abs(d)))
    if abs(d[-1]) < _CONJUGATE_RTOL * top:
        raise ConjugatePointError(
            f"D(t'') = {complex(d[-1]):.3e} against window scale {top:.3e};"
            " the endpoints are conjugate"
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
    tol: float = 1e-11,
) -> PrefactorTrack:
    """Integrate the determinant equation and track its phase.

    D'' + w2(t) D = 0, D(t') = 0, D'(t') = 1.  The prefactor is
    sqrt(m / (2 pi i hbar D(t''))) with arg D carried from the left edge
    along the integrator's steps, which keeps the square root on the
    physical branch through caustics (each zero of D advances arg D by
    pi when the measurement damping Im w2 < 0, and the same continuation
    is the standard one for real stiffness).

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
    T = t1 - t0

    def rhs(t, y):
        return np.array([y[1], -spec.w_squared(t) * y[0]], dtype=complex)

    w_max = float(np.max(np.abs(spec.w_squared(np.linspace(t0, t1, 257)))))
    rate = max(math.sqrt(w_max), 1.0 / T)
    d_scale = min(T, 1.0 / rate)
    sol = solve_complex_ivp(
        rhs,
        (t0, t1),
        np.array([0.0, 1.0], dtype=complex),
        rtol=tol,
        atol=tol * 1e-3 * np.array([d_scale, 1.0]),
    )
    d = sol.y[0]
    _check_not_conjugate(d)
    return _prefactor(
        complex(d[-1]), _step_arg(sol.t, d, rate), params.mass, params.hbar
    )


def _zero_free_or_raise(t, f_vals):
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
            "arg f jumps by more than 2.5 rad between adjacent samples;"
            " a zero of f sits between grid points"
        )


def fluctuation_prefactor_from_f(
    params: TrapParameters,
    spec: EffectiveFrequencySpec,
    window: tuple[float, float],
    f_source: str = "ode",
    n_terms: int = 2,
    tol: float = 1e-11,
    n_check: int = 2001,
) -> complex:
    """Endpoint-product prefactor sqrt(m / (2 pi i hbar f' f'' int f**-2)).

    Valid for any homogeneous solution f with no zero on the window
    (reduction of order shows f(t') f(t'') int f**-2 dt is exactly the
    D of the robust route, independent of which solution f is).

    f_source selects the reference solution: "ode" integrates the true
    stiffness from f(t') = 1, f'(t') = 0 and inherits only integrator
    error; "series" uses the truncated cosine series of
    :mod:`paulpath.mathieu` (n_terms harmonics), which solves a slightly
    different stiffness, so its prefactor carries the truncation error.

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

    elif f_source == "ode":

        def rhs(t, y):
            return np.array([y[1], -spec.w_squared(t) * y[0]], dtype=complex)

        sol = solve_complex_ivp(
            rhs,
            (t0, t1),
            np.array([1.0, 0.0], dtype=complex),
            rtol=tol,
            atol=tol * 1e-3,
        )

        def f_eval(t):
            return sol.dense(t)[0]

    else:
        raise OutOfRangeError(
            f"f_source must be 'series' or 'ode', got {f_source!r}",
            field="numerics.f_source",
        )

    t_grid = np.linspace(t0, t1, n_check)
    f_vals = f_eval(t_grid)
    _zero_free_or_raise(t_grid, f_vals)

    def integrand_re(t):
        return float((1.0 / f_eval(t) ** 2).real)

    def integrand_im(t):
        return float((1.0 / f_eval(t) ** 2).imag)

    eps = max(tol, 1e-13)
    re_part, _ = quad(integrand_re, t0, t1, epsabs=0.0, epsrel=eps, limit=200)
    im_part, _ = quad(integrand_im, t0, t1, epsabs=0.0, epsrel=eps, limit=200)
    d_combo = complex(f_vals[0]) * complex(f_vals[-1]) * complex(re_part, im_part)
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


def _series_inverse_square_integral(
    alpha: complex, t0: float, t1: float, n_est: int = 129
) -> complex:
    """int f**-2 dt over [t0, t1] in scaled time, two-term f.

    Evaluated from the closed antiderivative; a coarse midpoint estimate
    only selects the arctangent branch (the antiderivative is multivalued
    with period pi times its arctangent coefficient), it never feeds the
    returned value.
    """
    a_c = 1.0 - 3.0 * alpha
    b_c = 1.0 + alpha
    sab = cmath.sqrt(a_c * b_c)
    atan_coef = 2.0 * (a_c - b_c) / (a_c * a_c * sab) + (a_c - b_c) ** 2 / (
        2.0 * a_c * a_c * b_c * sab
    )
    raw = _series_inverse_square_antiderivative(
        alpha, t1
    ) - _series_inverse_square_antiderivative(alpha, t0)
    if atan_coef == 0:
        return raw
    mids = t0 + (np.arange(n_est) + 0.5) * (t1 - t0) / n_est
    f_mid = np.cos(mids) + alpha * np.cos(3.0 * mids)
    est = complex(np.sum(1.0 / f_mid**2) * (t1 - t0) / n_est)
    k = round(((est - raw) / (math.pi * atan_coef)).real)
    return raw + k * math.pi * atan_coef


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

    grid = np.linspace(s0, s1, 2001)
    f_vals = np.cos(grid) + alpha * np.cos(3.0 * grid)
    _zero_free_or_raise(grid, f_vals)

    cubic = (3.0 * alpha - 1.0) * (3.0 * alpha**2 + 2.0 * alpha - 1.0)
    kappa = cubic / (2.0 * alpha)
    bracket = 1j * kappa * _series_inverse_square_integral(alpha, s0, s1)
    leading = cmath.sqrt(
        cubic * omega * params.mass / (8.0 * math.pi * alpha * params.hbar)
    )
    endpoint = complex(f_vals[-1]) * complex(f_vals[0])
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
    scale = max(abs(meas.t_start), abs(meas.t_end), meas.duration)
    tol = _WINDOW_RTOL * scale
    if abs(bc.t_start - meas.t_start) > tol or abs(bc.t_end - meas.t_end) > tol:
        raise ConfigError(
            f"boundary window [{bc.t_start}, {bc.t_end}] does not match"
            f" measurement window [{meas.t_start}, {meas.t_end}]",
            field="boundary.window",
        )


def restricted_propagator(
    inputs: PropagatorInputs,
    tol: float = 1e-11,
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
    check_spans_window(inputs.record, inputs.meas)
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    drive = record_forcing(inputs.record, inputs.meas, inputs.params)
    sol = classical_trajectory(spec, drive, inputs.bc, inputs.params, tol=tol)
    track = _prefactor(
        complex(sol.d_function[-1]), sol.d_arg, inputs.params.mass, inputs.params.hbar
    )
    record_term = -inputs.meas.weight_rate * record_norm_integral(inputs.record)
    action_term = 1j * sol.action / inputs.params.hbar
    log_amplitude = record_term + action_term + track.log_value
    return PropagatorResult(
        log_amplitude=log_amplitude,
        action_term=action_term,
        prefactor_term=track.log_value,
        record_term=record_term,
        classical=sol,
        prefactor=track,
    )


# --- Floquet route ----------------------------------------------------------


def _floquet_solution(mono: np.ndarray) -> tuple[complex, complex]:
    """Floquet multiplier lambda and slope ratio z = f'/f at the start of
    the Floquet solution f (f(t + period) = lambda f(t)) that has
    Im z > 0.

    ``mono`` is the 2x2 one-period map of (f, f').  When Im w2 < 0 the
    map sends the upper half plane of z strictly into itself, so exactly
    one Floquet solution lies there; without damping a stable drive
    still gives one (the pair is complex conjugate).

    Raises
    ------
    NumericalError
        If neither Floquet solution has Im z > 0 (an undamped drive
        outside the stability zones).
    """
    m11, m12, m21, m22 = (complex(v) for v in np.asarray(mono).ravel())
    half_trace = 0.5 * (m11 + m22)
    root = cmath.sqrt(half_trace * half_trace - (m11 * m22 - m12 * m21))
    best = None
    for lam in (half_trace + root, half_trace - root):
        # (1, z) is the eigenvector; take the better conditioned of the
        # two equivalent eigenvector equations
        if abs(lam - m22) >= abs(lam - m11):
            z = m21 / (lam - m22)
        else:
            z = (lam - m11) / m12
        if best is None or z.imag > best[1].imag:
            best = (lam, z)
    if not best[1].imag > 0.0:
        raise NumericalError(
            "no Floquet solution with Im(f'/f) > 0: the drive is undamped"
            " and outside the stability zones"
        )
    return best


def _affine_map(spec, force: complex, mass: float, t0: float, span: float):
    """Map of (q, q', 1, integral q dt) over [t0, t0 + span] for constant F.

    Columns are the homogeneous solutions h0, h1 (unit value, unit
    slope), the forced solution with zero initial data, and the
    accumulator; they are integrated together as one 9-component system.
    Returns the 4x4 matrix and the dense solution.
    """
    rate = max(math.sqrt(abs(spec.u_tilde) + abs(spec.v)), 1.0 / span)
    d_scale = min(span, 1.0 / rate)
    x_scale = max(abs(force) / (mass * rate * rate), 1e-30)

    def rhs(t, y):
        w2 = spec.w_squared(t)
        return np.array(
            [y[1], -w2 * y[0], y[3], -w2 * y[2], y[5], -w2 * y[4] + force / mass,
             y[0], y[2], y[4]],
            dtype=complex,
        )

    init = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=complex)
    scales = np.array(
        [1.0, rate, d_scale, 1.0, x_scale, x_scale * rate,
         span, span * d_scale, span * x_scale]
    )
    sol = solve_complex_ivp(
        rhs, (t0, t0 + span), init, rtol=_FLOQUET_TOL,
        atol=_FLOQUET_TOL * 1e-3 * scales,
    )
    y = sol.y_end
    step = np.array(
        [[y[0], y[2], y[4], 0.0],
         [y[1], y[3], y[5], 0.0],
         [0.0, 0.0, 1.0, 0.0],
         [y[6], y[7], y[8], 1.0]],
        dtype=complex,
    )
    return step, sol


def floquet_propagator(inputs: PropagatorInputs) -> PropagatorResult:
    """Restricted propagator over any number of drive periods.

    For a constant record the drive F is constant and w2 has the drive
    period P, so the affine map of (q, q', 1, integral q dt) over each
    whole period is the same 4x4 matrix E.  With the window split into
    N whole periods and a remainder r, the map over the window is
    E_r E**N, where E and E_r come from one integration over [t', t' + P]
    and one over [t', t' + r] (the remainder starting at t' + N P sees
    the same stiffness).  D(t'') is its (q, q') entry; the boundary
    solve and the action follow as in the direct route, with the action
    taken from the boundary identity S = (m/2) [q q'] + (1/2) F int q.

    arg D is read at the integrator's steps (:func:`_step_arg`) over the
    first period only.  After that, the arg change of the
    solution from slope ratio z = D'/D at t' + P is a continuous
    function of z on the upper half plane, where Im w2 <= 0 keeps z;
    it equals (N - 1) mu + mu_r for the Floquet solution (its arg change
    mu per period has the integer part fixed by the same reading of its
    steps through one period, mu_r over the remainder's steps likewise),
    and the solution's
    first component is affine in z, so moving z from the Floquet value
    to D's value adds only the principal arg of the ratio of the two
    end values.  See :func:`_floquet_solution`.

    Raises
    ------
    ConfigError
        If the record is not constant (the drive would not be periodic).
    ConjugatePointError
        If D(t'') is consistent with zero at the scale of the window.
    NumericalError
        If no Floquet solution has Im(f'/f) > 0.
    ToleranceNotMetError
        If an integrator step is too long to read arg from.
    """
    _check_windows_consistent(inputs.bc, inputs.meas)
    check_spans_window(inputs.record, inputs.meas)
    samples = inputs.record.samples
    if np.any(samples != samples[0]):
        raise ConfigError(
            "the Floquet route needs a constant record", field="record.kind"
        )
    params = inputs.params
    m = params.mass
    spec = effective_frequency(inputs.coeffs, inputs.meas, params)
    force = complex(record_forcing(inputs.record, inputs.meas, params).values[0])
    t0, t1 = inputs.bc.t_start, inputs.bc.t_end
    period = 2.0 * math.pi / spec.drive_omega
    n_periods, rem = whole_periods(inputs.bc.duration, spec.drive_omega)
    rate = math.sqrt(abs(spec.u_tilde) + abs(spec.v))

    tail = np.eye(4, dtype=complex)
    if rem > 0.0:
        tail, tail_sol = _affine_map(spec, force, m, t0, rem)
    if n_periods == 0:
        total = tail
        d = tail_sol.y[2]
        theta = _step_arg(tail_sol.t, d, rate)
        log_top = math.log(float(np.max(np.abs(d))))
    else:
        step, step_sol = _affine_map(spec, force, m, t0, period)
        d = step_sol.y[2]
        theta_first = _nearest_branch(
            _step_arg(step_sol.t, d, rate), cmath.phase(step[0, 1])
        )
        lam, z_star = _floquet_solution(step[:2, :2])
        mu = _nearest_branch(
            _step_arg(step_sol.t, step_sol.y[0] + z_star * d, rate), cmath.phase(lam)
        )
        mu_r = 0.0
        if rem > 0.0:
            mu_r = _nearest_branch(
                _step_arg(tail_sol.t, tail_sol.y[0] + z_star * tail_sol.y[2], rate),
                cmath.phase(tail[0, 0] + tail[0, 1] * z_star),
            )
        rest = tail @ np.linalg.matrix_power(step, n_periods - 1)
        z_first = step[1, 1] / step[0, 1]
        end_first = rest[0, 0] + rest[0, 1] * z_first
        end_star = rest[0, 0] + rest[0, 1] * z_star
        theta = (
            theta_first + (n_periods - 1) * mu + mu_r
            + cmath.phase(end_first / end_star)
        )
        total = rest @ step
        # the window's largest |D| is at most the first period's, grown by
        # the Floquet multipliers (|lambda| |1/lambda| = 1)
        log_top = math.log(float(np.max(np.abs(d)))) + n_periods * abs(
            math.log(abs(lam))
        )

    d_end = complex(total[0, 1])
    if d_end == 0 or math.log(abs(d_end)) < math.log(_CONJUGATE_RTOL) + log_top:
        raise ConjugatePointError(
            f"D(t'') = {d_end:.3e} against window scale {math.exp(log_top):.3e};"
            " the endpoints are conjugate"
        )
    xa, xb = inputs.bc.x_start, inputs.bc.x_end
    slope = (xb - total[0, 0] * xa - total[0, 2]) / d_end
    q_end = total[0, 0] * xa + d_end * slope + total[0, 2]
    slope_end = total[1, 0] * xa + total[1, 1] * slope + total[1, 2]
    forcing_integral = force * (total[3, 0] * xa + total[3, 1] * slope + total[3, 2])
    action = 0.5 * m * (q_end * slope_end - xa * slope) + 0.5 * forcing_integral
    sol = ClassicalSolution(
        grid=np.array([t0, t1]),
        q=np.array([xa, q_end], dtype=complex),
        q_dot=np.array([slope, slope_end], dtype=complex),
        action=complex(action),
        forcing_integral=complex(forcing_integral),
        d_function=np.array([0.0, d_end], dtype=complex),
        d_arg=float(theta),
        _mismatch=float(abs(q_end - xb)),
    )
    track = _prefactor(d_end, sol.d_arg, m, params.hbar)
    record_term = -inputs.meas.weight_rate * record_norm_integral(inputs.record)
    action_term = 1j * sol.action / params.hbar
    return PropagatorResult(
        log_amplitude=record_term + action_term + track.log_value,
        action_term=action_term,
        prefactor_term=track.log_value,
        record_term=record_term,
        classical=sol,
        prefactor=track,
    )
