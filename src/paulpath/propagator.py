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
  records on one axis and a window of any length, on the Floquet pair
  f+-(t) = e^{+-i nu t} p+-(t) of :func:`~paulpath.mathieu.hill_basis`
  (no ODE pass).  On a piecewise-linear record, q_p = F g0 + F' g2 solves
  each segment exactly (g0, g2 periodic), homogeneous kicks at the knots
  repair its jumps, split into the growing part f+ run back and the
  decaying part f- run on, so every exponential stays bounded
  (Yakubovich & Starzhinskii 1975 for the Floquet theory; Ascher,
  Mattheij & Russell 1988 for the dichotomy); the record-independent
  work is one O(samples x harmonics) pass per record grid, and each
  record costs O(samples) whatever the number of periods.  D(t'') is in
  log form, and arg D is read over the first drive period and carried
  by the Floquet solution that the exponent and slope ratios give.

The direct route's DOP853 passes and the adaptive basis pass
(:func:`~paulpath.mathieu._basis_pass`, any stiffness) under
:func:`prefactor_track` are the independent checks of the Hill basis.

All outputs stay in log space: at realistic monitoring strengths the
record term alone spans hundreds of decades.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (
    CausticOnWindowError,
    ConfigError,
    ConjugatePointError,
    OutOfRangeError,
    ToleranceNotMetError,
)
from .integrate import DEFAULT_TOL, solve_complex_ivp
from .mathieu import (
    _GRID_PHASE,
    HillBasis,
    _basis_pass,
    _floquet_parts,
    _fourier_rows,
    hill_basis,
)
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

#: terms of the series of phi_k(x) = int_0^1 s^k e^{x s} ds used for |x| < 1
#: (the first one left out is below 1/20! ~ 4e-19), as a table of
#: 1 / (j! (k + j + 1)) for j < _PHI_TERMS (rows) and k = 0, 1, 2
_PHI_TERMS = 20
_PHI_ORDERS = np.arange(_PHI_TERMS)[:, None]
_PHI_SERIES = np.array(
    [[1.0 / (math.factorial(j) * (k + j + 1)) for k in range(3)] for j in range(_PHI_TERMS)],
    dtype=complex,
)

#: rows: the combinations of (phi_0, phi_1, phi_2) of f+, f- and of the
#: periodic responses (columns, in that order) that weigh F at a segment's
#: knots: 1 - s with f+ (read from the segment's right end) and f-, s with
#: f+ and f-, then (1 - s)^2, 2 s (1 - s), s^2 with g0 and -(1 - s), 1 - 2 s,
#: s with g2, the terms of F q_p = F^2 g0 + (dF/ds) F g2
_SEGMENT_MIX = np.zeros((10, 3, 3))
_SEGMENT_MIX[:4, :2, :2] = [[[0, 1], [0, 0]], [[0, 0], [1, -1]], [[1, -1], [0, 0]], [[0, 0], [0, 1]]]
_SEGMENT_MIX[4:, 2] = [[1, -2, 1], [0, 2, -2], [0, 0, 1], [-1, 1, 0], [1, -2, 0], [0, 1, 0]]
#: as applied to the rows of :func:`_phi`, which run over k first
_SEGMENT_MIX = _SEGMENT_MIX.swapaxes(1, 2).reshape(10, 9)

#: most |log rho| n for which :func:`_discounted_cumsum` scales the terms
#: by rho^-i: the scale stays below e^64, and its phase's rounding below
#: 64 eps
_SCAN_REACH = 64.0

#: a zero of the series reference solution f within this distance
#: (scaled time, rad) of the window, or a root of its polynomial in
#: cos(s) within it of [-1, 1], counts as a zero on the window
_ZERO_MARGIN = 1e-6

#: settings (trap, stiffness, measurement, window) whose record-free
#: scorer work :func:`_scorer_core` keeps, 26-29 KB each on the bundled
#: short window
_SCORER_CACHE_SIZE = 16


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

    ``d_end`` is D(t'') of the homogeneous solution with D(t') = 0,
    D'(t') = 1, the fluctuation determinant input, and ``d_arg`` its arg,
    read at the accepted steps of the basis pass (see :func:`_step_arg`).

    ``q``, ``q_dot`` and ``d_function`` (D) sample the solution on
    ``grid``.  Each is built from the passes' dense output the first time
    it is read, and then kept; a step's interpolant costs 16
    right-hand-side calls (the step is re-run), and D(t'') alone builds
    one.  So a result keeps both passes (``_passes``: the trajectory
    pass, then the basis pass) alive, with their step values and the
    drive their right-hand sides read: 1.06 MB on the 520-zero window of
    the benchmark's long-window workload (8712 basis steps, seed 1), of
    which the basis pass's step values are 0.84 MB and the three grid
    arrays would take 25 KB.
    """

    grid: np.ndarray
    action: complex
    forcing_integral: complex
    d_end: complex
    d_arg: float
    _mismatch: float = 0.0
    _passes: tuple = field(default=(), repr=False, compare=False)

    @property
    def endpoint_mismatch(self) -> float:
        """|q(t'') - x''| actually achieved, as stored by the solver."""
        return self._mismatch

    @functools.cached_property
    def _trajectory(self) -> np.ndarray:
        return self._passes[0].dense(self.grid)

    @functools.cached_property
    def q(self) -> np.ndarray:
        return self._trajectory[0]

    @functools.cached_property
    def q_dot(self) -> np.ndarray:
        return self._trajectory[1]

    @functools.cached_property
    def d_function(self) -> np.ndarray:
        return self._passes[1].dense(self.grid)[2]


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

    # the right-hand sides are the passes' per-stage cost: w2 is
    # spec.w_squared's scalar expression inline, F the drive's scalar rule,
    # and a list is the cheapest return
    u_tilde, v, omega, cos = spec.u_tilde, spec.v, spec.drive_omega, math.cos
    drive_at = drive.scalar_rule()

    def rhs_basis(t, y):
        w2 = u_tilde - v * cos(omega * t)
        f = drive_at(t)
        h0, dh0, h1, dh1, p, dp = y.tolist()
        return [dh0, -w2 * h0, dh1, -w2 * h1, dp, -w2 * p + f / m]

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
        w2 = u_tilde - v * cos(omega * t)
        f = drive_at(t)
        q, dq, _, _ = y.tolist()
        lagr = 0.5 * m * dq * dq - 0.5 * m * w2 * q * q + f * q
        return [dq, -w2 * q + f / m, lagr, f * q]

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
    mismatch = abs(traj.y_end[0] - bc.x_end)
    if mismatch > 1e-6 * max(q_scale, abs(bc.x_end)):
        raise ToleranceNotMetError(
            f"trajectory missed the endpoint by {mismatch:.3e} m"
        )
    return ClassicalSolution(
        grid=grid,
        action=complex(traj.y_end[2]),
        forcing_integral=complex(traj.y_end[3]),
        d_end=basis.dense(grid[-1])[2],
        d_arg=d_arg,
        _mismatch=float(mismatch),
        _passes=(traj, basis),
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
    from scipy.integrate import simpson

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
    of zero crossings the tracked phase has stepped over.  |D(t'')| enters
    ``log_value`` only through its log, so it may be past the float range.
    """

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


def _check_not_conjugate(d_end: complex, d: np.ndarray) -> None:
    """Raise ConjugatePointError if D(t'') = ``d_end`` is consistent with
    zero at the window scale, max |d| over the step values d of D (both
    may carry one positive scale).  The test is on the log scale."""
    log_top = math.log(float(np.max(np.abs(d))))
    if d_end == 0 or math.log(abs(d_end)) < math.log(_CONJUGATE_RTOL) + log_top:
        raise ConjugatePointError(
            f"D(t'') = {complex(d_end):.3e} against window scale"
            f" e^{log_top:.3f}; the endpoints are conjugate"
        )


def _prefactor(log_d: complex, mass: float, hbar: float) -> PrefactorTrack:
    """sqrt(m / (2 pi i hbar D(t''))) with log D(t'') = ``log_d`` on the
    branch fixed by arg D = Im ``log_d``."""
    theta = log_d.imag
    return PrefactorTrack(
        theta_end=theta,
        log_value=complex(
            0.5 * (math.log(mass / (2.0 * math.pi * hbar)) - log_d.real),
            -0.5 * (math.pi / 2.0 + theta),
        ),
        caustic_count=int(round(theta / math.pi)),
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
    d = basis.y[2]
    _check_not_conjugate(d[-1], d)
    log_d = complex(math.log(abs(d[-1])), _step_arg(basis.t, d, rate))
    return _prefactor(log_d, params.mass, params.hbar)


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
    tol: float = DEFAULT_TOL,
) -> complex:
    """Endpoint-product prefactor sqrt(m / (2 pi i hbar f' f'' int f**-2)).

    Valid for any homogeneous solution f with no zero on the window
    (reduction of order shows f(t') f(t'') int f**-2 dt is exactly the
    D of the robust route, independent of which solution f is).

    f = h0 (f(t') = 1, f'(t') = 0) of the adaptive basis pass of the true
    stiffness, so the prefactor inherits only integrator error.  f must
    have no zero on the window; it is checked at the integrator's steps
    under the step-phase guard of :func:`_step_arg`.

    The square root is the principal branch; on windows that stay short
    of the first caustic this coincides with the tracked branch of the
    robust route (the regime in which this formula is used for
    validation).
    """
    from scipy.integrate import quad

    t0, t1 = window
    if not t1 > t0:
        raise OutOfRangeError("window must have positive duration", field="window")
    sol, rate = _basis_pass(spec, t0, t1, tol)
    _check_step_phase(sol.t, rate)
    _zero_free_or_raise(sol.y[0])

    def f_eval(t):
        return sol.dense(t)[0]

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
    continuous phase; ``phase`` and ``winding`` are its :func:`fold_phase`.
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
        return fold_phase(self.log_amplitude.imag)[0]

    @property
    def winding(self) -> int:
        return fold_phase(self.log_amplitude.imag)[1]


def fold_phase(theta: float) -> tuple[float, int]:
    """The continuous phase ``theta`` as (phase, winding): phase in (-pi, pi]
    and the 2 pi turns it drops, theta = phase + 2 pi winding (lossless)."""
    phase = math.remainder(theta, 2.0 * math.pi)
    if phase <= -math.pi:
        phase = math.pi
    return phase, int(round((theta - phase) / (2.0 * math.pi)))


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
    its h1 basis solution), so no extra integration runs.  Only D(t'')
    is read, which builds one interpolant; the result's grid arrays are
    built when read (see :class:`ClassicalSolution`).
    """
    _check_windows_consistent(inputs.bc, inputs.meas)
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    drive = record_forcing(inputs.record, inputs.meas, inputs.params)
    sol = classical_trajectory(spec, drive, inputs.bc, inputs.params, tol=tol)
    log_d = complex(math.log(abs(sol.d_end)), sol.d_arg)
    track = _prefactor(log_d, inputs.params.mass, inputs.params.hbar)
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


def _phi(powers: np.ndarray, dt: float, reach: float) -> np.ndarray:
    """phi_k(x) = int_0^1 s^k e^{x s} ds for k = 0, 1, 2 at x = y dt, shape
    (3, len(y)), from ``powers`` = y^j (j < _PHI_TERMS, columns), for
    Re x <= 0 and |y| <= ``reach``: by the series sum_j x^j / (j! (k + j + 1))
    where |x| < 1, and by phi_k = (e^x - k phi_{k-1}) / x elsewhere."""
    out = powers @ (_PHI_SERIES * dt ** _PHI_ORDERS)
    if reach * dt >= 1.0:
        x = powers[:, 1] * dt
        big = np.abs(x) >= 1.0
        xb = x[big]
        e = np.exp(xb)
        out[big, 0] = (e - 1.0) / xb
        out[big, 1] = (e - out[big, 0]) / xb
        out[big, 2] = (e - 2.0 * out[big, 1]) / xb
    return out.T


def _periodic_series(basis: HillBasis, spec: EffectiveFrequencySpec, bc: BoundaryConditions, m: float):
    """(columns, powers, boundary, ends, delta) on the harmonics n = -K..K
    of the Floquet pair (the periodic responses decay as fast).

    ``columns``, shape (18, 2K + 1), are the Fourier coefficients of p-, d+,
    g0 + g2', g2, d-, p+, g2, g0 + g2' (the factors of the kicks), then of
    p+, p-, p+, p-, g0, g0, g0, g2, g2, g2 (those of the segment weights),
    d+- the periodic parts of the pair's slopes.  ``powers`` are y^j
    (j < _PHI_TERMS) of the exponents y = -i (nu + n w), i (n w - nu) and
    i n w of f+ (read back from a knot), f- and the periodic responses.
    ``boundary``, shape (7, 3), takes (1, F_0, beta_0, a, F_N, beta_{N-1}, b)
    of :func:`_drive_terms` to (m/2) (x'' q'(t'') - x' q'(t')) and to the
    coefficients of f+ e^{-i nu t''} and f- e^{i nu t'} that make q(t') = x'
    and q(t'') = x''.  ``ends`` are p+, d+, p- and d- at t', and p+ and p-
    at t'', and ``delta`` = rho^2 p+(t') p-(t'') - p-(t') p+(t''), rho =
    e^{-i nu T}, for :func:`_window_prefactor`.

    g0 and g2 are the periodic responses g0'' + w2 g0 = 1/m and
    g2'' + w2 g2 = -2 g0': on the harmonics, (u~ - (n w)^2) g_n -
    (v/2) (g_{n-1} + g_{n+1}) = rhs_n.  w2 is even, so g0 is even and g2 odd,
    and each is solved from the outer harmonics in, g_n = R_n g_{n-1} + S_n,
    R_n the continued fraction of :func:`~paulpath.mathieu.hill_basis`.

    Raises
    ------
    ToleranceNotMetError
        If a Floquet multiplier is 1 (nu in w Z): there is no periodic response.
    """
    depth = basis.coefficients.size // 2
    u, half, omega = complex(spec.u_tilde), 0.5 * spec.v, basis.drive_omega
    ratios, pivots, tails = [0j] * (depth + 2), [0j] * (depth + 1), [0j] * (depth + 2)
    try:
        for n in range(depth, 0, -1):
            pivots[n] = u - (n * omega) ** 2 - half * ratios[n + 1]
            ratios[n] = half / pivots[n]
        g0 = [1.0 / (m * (u - 2.0 * half * ratios[1]))]
        for n in range(1, depth + 1):
            g0.append(ratios[n] * g0[-1])
        for n in range(depth, 0, -1):
            tails[n] = (-2j * n * omega * g0[n] + half * tails[n + 1]) / pivots[n]
    except ZeroDivisionError:
        raise ToleranceNotMetError("a Floquet multiplier is 1: no periodic response") from None
    g2 = [0j]
    for n in range(1, depth + 1):
        g2.append(ratios[n] * g2[-1] + tails[n])
    g0 = np.array(g0[:0:-1] + g0)
    g2 = np.array([-g for g in g2[:0:-1]] + g2)
    flat = 1j * omega * np.arange(-depth, depth + 1)
    back, down = -1j * basis.nu - flat, flat - 1j * basis.nu
    plus = basis.coefficients
    minus, slope = plus[::-1], g0 + flat * g2
    columns = np.array([
        minus, -back * plus, slope, g2, down * minus, plus, g2, slope,
        plus, minus, plus, minus, g0, g0, g0, g2, g2, g2,
    ])
    ends = np.array([plus, -back * plus, minus, down * minus, g0, g2, slope, flat * g0]) @ (
        _fourier_rows(omega, (bc.t_start, bc.t_end), depth)
    )
    (p0, p1), (dp0, dp1), (m0, m1), (dm0, dm1), (g00, g01), (g20, g21), (s0, s1), (h0, h1) = (
        ends.tolist()
    )
    rho_n = cmath.exp(-1j * basis.nu * bc.duration)
    delta = rho_n * rho_n * p0 * m1 - m0 * p1
    start = (bc.x_start, -g00, -g20, p0, 0.0, 0.0, 0.0)
    end = (bc.x_end, 0.0, 0.0, 0.0, -g01, -g21, -m1)
    plus = [(rho_n * m1 * a - m0 * b) / delta for a, b in zip(start, end)]
    minus = [(rho_n * p0 * b - p1 * a) / delta for a, b in zip(start, end)]
    # q'(t') and q'(t''), less the pair's share
    slope_start = (0.0, h0, s0, -dp0, 0.0, 0.0, 0.0)
    slope_end = (0.0, 0.0, 0.0, 0.0, h1, s1, dm1)
    edges = [
        0.5 * m * (
            bc.x_end * (b + dp1 * p + rho_n * dm1 * q)
            - bc.x_start * (a + rho_n * dp0 * p + dm0 * q)
        )
        for a, b, p, q in zip(slope_start, slope_end, plus, minus)
    ]
    powers = np.vander(np.concatenate((back, down, flat)), _PHI_TERMS, increasing=True)
    return columns, powers, np.array([edges, plus, minus]).T, (p0, dp0, m0, dm0, p1, m1), delta


def _grid_terms(scorer: "RecordScorer", t_start: float, dt: float, n: int):
    """Everything record-independent on the grid t_j = t_start + j dt
    (j < n, N = n - 1) that records share, O(n x harmonics), with shapes
    that do not depend on the span: (kicks, segments, squares, steps,
    log_rho) for :func:`_drive_terms`.

    ``kicks`` (2, N - 1): per unit change of F_{j+1} - F_j at an interior
    knot, e^{i nu t_j} a_j and e^{-i nu t_j} b_j of the kick a_j f+ + b_j f-
    that repairs the jump of q_p = F g0 + F' g2 there.  ``segments``
    (2, 2, N): the weights of F at a segment's two knots in int F f+
    e^{-i nu t_{k+1}} and in int F f- e^{i nu t_k}, both bounded.
    ``squares``: the weights of F_j^2 (n) and F_j F_{j+1} (N) in int F q_p.
    ``steps`` = rho^j (j < n) and ``log_rho`` = -i nu dt, |rho| <= 1.
    """
    columns, powers, basis = scorer._columns, scorer._powers, scorer.basis
    reach = abs(basis.nu) + columns.shape[1] // 2 * basis.drive_omega
    weights = _SEGMENT_MIX @ _phi(powers, dt, reach).reshape(9, -1) * columns[8:]
    weights[:7] *= dt
    # e^{i n w t_j} at the knots
    waves = _fourier_rows(basis.drive_omega, t_start + dt * np.arange(n), columns.shape[1] // 2)
    values = np.concatenate((columns[:8], weights[:4], weights[4:7] + weights[7:])) @ waves
    pm, dp, _, _, dm, pp = values[:6, 0].tolist()
    kicks = values[0:2, 1:-1] * values[2:4, 1:-1] - values[4:6, 1:-1] * values[6:8, 1:-1]
    kicks /= dt * (pp * dm - dp * pm)
    diagonal = np.zeros(n, dtype=complex)
    diagonal[:-1] = values[12, :-1]
    diagonal[1:] += values[14, :-1]
    log_rho = -1j * basis.nu * dt
    return (
        kicks, np.array((values[8:12:2, 1:], values[9:12:2, :-1])), (diagonal, values[13, :-1]),
        np.exp(log_rho * np.arange(n)), log_rho,
    )


def _discounted_cumsum(x: np.ndarray, steps: np.ndarray, log_rho: complex) -> np.ndarray:
    """sum_{i <= j} rho^(j - i) x_i along the last axis, rho = e^log_rho,
    |rho| <= 1, ``steps`` = rho^j: one cumsum of rho^-i x_i while
    |log rho| n <= _SCAN_REACH, else in place by doubling steps (Hillis &
    Steele), each with its own power rho^d, so no term is scaled up."""
    if abs(log_rho) * x.shape[-1] <= _SCAN_REACH:
        return np.cumsum(x / steps, axis=-1) * steps
    d = 1
    while d < x.shape[-1] and steps[d] != 0.0:
        x[..., d:] += steps[d] * x[..., :-d]
        d *= 2
    return x


def _drive_terms(terms, forces: np.ndarray, dt: float) -> np.ndarray:
    """For the drives ``forces`` (k, n) on the grid of :func:`_grid_terms`
    ``terms``, shape (9, k): F_0, beta_0, a, F_N, beta_{N-1}, b (inputs of
    the boundary solve of :func:`_periodic_series`), the part of int F q dt
    free of P and M, and the integrals of F f+ e^{-i nu t''} and
    F f- e^{i nu t'} that multiply them; O(n) per drive.

    On segment k, q_p = F g0 + beta_k g2 solves m q'' + m w2 q = F exactly.
    At each interior knot a homogeneous kick repairs the jump of q_p, its
    growing part a_j f+ running back to t' and its decaying part b_j f- on
    to t'', and P f+ + M f- meets the boundary conditions:

        q = q_p + sum_{t_j < t} b_j f- - sum_{t_j > t} a_j f+ + P f+ + M f-.

    Every exponential in it is e^{i nu (t_s - t_j)} with t_s <= t_j, a power
    of rho = e^{-i nu dt}; a and b are sum_j a_j f+(t') / p+(t') and
    sum_j b_j f-(t'') / p-(t''), and the kicks' part of int F q pairs
    int F f+ up to each knot with a_j and int F f- from it on with b_j,
    discounted sums (:func:`_discounted_cumsum`).
    """
    kicks, segments, (diagonal, off), steps, log_rho = terms
    left, right = forces[:, :-1], forces[:, 1:]
    jumps = right - left
    # int F f+ up to each knot, and int F f- from each knot on (reversed)
    into = left[:, None, :] * segments[:, 0] + right[:, None, :] * segments[:, 1]
    into[:, 1] = into[:, 1, ::-1]
    into = _discounted_cumsum(into, steps[:-1], log_rho)
    kick = (jumps[:, 1:] - jumps[:, :-1])[:, None, :] * kicks
    fq = (
        (forces * forces) @ diagonal + (left * right) @ off
        + (kick[:, 1] * into[:, 1, -2::-1] - kick[:, 0] * into[:, 0, :-1]).sum(axis=-1)
    )
    return np.array((
        forces[:, 0], jumps[:, 0] / dt, kick[:, 0] @ steps[1:-1],
        forces[:, -1], jumps[:, -1] / dt, kick[:, 1] @ steps[-2:0:-1],
        fq, into[:, 0, -1], into[:, 1, -1],
    ))


def _window_prefactor(
    basis: HillBasis, bc: BoundaryConditions, params: TrapParameters, periods: tuple[int, float],
    ends: tuple, delta: complex,
) -> PrefactorTrack:
    """The prefactor from the Floquet ``basis`` over one drive period P from
    t', or over the window when that is shorter; ``periods`` splits the
    window into N whole periods and a remainder r, and ``ends`` and
    ``delta`` are those of :func:`_periodic_series`.

    D = (f+(t') f-(t) - f-(t') f+(t)) / W, so with T = t'' - t', log D(t'') =
    i nu T + log((e^{-2 i nu T} p+(t') p-(t'') - p-(t') p+(t'')) / W), in log
    form on any window.  arg D is read (:func:`_step_arg`) on step values
    of D times e^{Im nu s} > 0, which keeps the arg and bounds the values:
    below one period on the basis' grid, and from one period on over the
    first period only.  w2 has period P, and the arg change of a solution
    from slope ratio z = D'/D at t' + P, a continuous function of z on the
    upper half plane (which Im w2 <= 0 keeps z in), is (N - 1) mu + mu_r for
    the Floquet solution f* whose slope ratio z* at t' (``slope_ratios``)
    has Im z* > 0: with Im w2 < 0 exactly one has, and an undamped stable
    drive gives a conjugate pair.  Its arg change mu per period is the
    branch of +-Re nu P that the grid through one period reads, and mu_r
    the one the grid below t' + r reads; moving z from z* to D's value adds
    the principal arg of (D / f*)(t'') over (D / f*)(t' + P).  Where no
    slope ratio has Im z > 0 (an undamped drive outside the stability
    zones), arg D is read on a grid over the window.

    Raises
    ------
    ConjugatePointError
        If D(t'') is consistent with zero at the scale of the window.
    """
    n_periods, rem = periods
    nu, t0, T = basis.nu, bc.t_start, bc.duration
    z_star, sign = max(zip(basis.slope_ratios, (1, 0)), key=lambda r: r[0].imag)
    whole = n_periods and z_star.imag > 0.0
    grid, parts = basis.t, basis._parts
    if n_periods and not whole:
        grid = np.linspace(t0, bc.t_end, max(1, math.ceil(T * basis.rate / _GRID_PHASE)) + 1)
        parts = _floquet_parts(basis, grid)
    p0, dp0, m0, dm0, p1, m1 = ends
    wronskian = p0 * dm0 - dp0 * m0
    ratio = delta / wronskian
    if ratio == 0.0:
        raise ConjugatePointError("D(t'') = 0; the endpoints are conjugate")
    log_d = 1j * nu * T + cmath.log(ratio)
    # f+, f- and D on the grid, each times a positive factor
    s = grid - t0
    turn = np.exp(1j * nu.real * s)
    grow, decay = parts[0] / p0 * turn, parts[2] / m0 * turn.conj()
    d = (p0 * m0 / wronskian) * (decay * np.exp(2.0 * nu.imag * s) - grow)
    d[0] = 0.0
    _check_not_conjugate(cmath.exp(1j * nu.real * T) * ratio, d)
    theta = _step_arg(grid, d, basis.rate)
    if whole:
        period = 2.0 * math.pi / basis.drive_omega
        theta = _nearest_branch(theta, cmath.phase(d[-1]))
        f_star = (decay, grow)[sign]
        mu = _nearest_branch(_step_arg(grid, f_star, basis.rate), (2 * sign - 1) * nu.real * period)
        mu_r = 0.0
        if rem > 0.0:
            below = s < rem
            turn = cmath.exp(1j * nu.real * rem)
            tail = _floquet_parts(basis, [t0 + rem])[:, 0]
            f_tail = np.append(f_star[below], (tail[2] / m0 / turn, tail[0] / p0 * turn)[sign])
            times = np.append(grid[below], t0 + rem)
            mu_r = _nearest_branch(_step_arg(times, f_tail, basis.rate), cmath.phase(f_tail[-1]))
        # D / f* at t'': the e^{i nu T} of D cancels against f+ and doubles
        # against f-
        star = 2.0 * (1 - sign) * nu.real * T + cmath.phase(ratio * (m0 / m1, p0 / p1)[sign])
        end = math.remainder(star + cmath.phase(f_star[-1] / d[-1]), 2.0 * math.pi)
        theta += (n_periods - 1) * mu + mu_r + end
    return _prefactor(complex(log_d.real, theta), params.mass, params.hbar)


@dataclass(frozen=True)
class RecordScorer:
    """Restricted propagators of many records on one axis, from one
    Floquet pair.

    ``basis`` is the Hill-Floquet pair over one drive period, or over the
    window of ``inputs`` when that is shorter (the record of ``inputs`` is
    ignored), with its diagnostics: ``nu``, ``multiplier`` = |e^{i nu P}|,
    ``harmonics``, the coefficient ``tail`` and the ``wronskian_residual``.
    ``prefactor`` is the determinant prefactor.  Build it with
    :func:`record_scorer`, which shares the basis and the arrays, read-only,
    among the scorers of equal settings.  :meth:`parts` scores a batch of
    records part by part, :meth:`log_amplitudes` gives its sums, and
    :meth:`log_amplitude` is the batch of one.
    """

    inputs: PropagatorInputs
    basis: HillBasis
    prefactor: PrefactorTrack
    #: the :func:`_periodic_series` of the axis
    _columns: np.ndarray = field(repr=False)
    _powers: np.ndarray = field(repr=False)
    _boundary: np.ndarray = field(repr=False)

    def parts(
        self, records: Sequence[MeasurementRecord]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log K, record term, action S_cl in J s) of each of ``records`` in
        closed form, as arrays in their order: log K is the sum record term
        + i S_cl / hbar + ``prefactor.log_value``, the parts that
        :class:`PropagatorResult` adds too.

        The records are grouped by grid (start, step and sample count), and
        every grid's span is checked before any record is scored.  Each
        group takes one :func:`_grid_terms` pass, O(samples x
        harmonics), and O(samples) of :func:`_drive_terms` per record,
        whatever the number of periods.  The boundary solve and the action
        S = (m/2) [q q']_{t'}^{t''} + (1/2) int F q dt then take all the
        records at once.

        Raises
        ------
        RecordWindowError
            For the first record that does not span the measurement window.
        """
        meas, params = self.inputs.meas, self.inputs.params
        groups: dict[tuple[float, float, int], list[int]] = {}
        for i, record in enumerate(records):
            groups.setdefault((record.t_start, record.dt, record.n_samples), []).append(i)
        # the records of a grid share their span
        for members in groups.values():
            check_spans_window(records[members[0]], meas)
        if not records:
            return np.empty(0, dtype=complex), np.empty(0), np.empty(0, dtype=complex)
        terms, norms = [], []
        for (t_start, dt, n), members in groups.items():
            samples = np.array([records[i].samples for i in members])
            grid = _grid_terms(self, t_start, dt, n)
            terms.append(_drive_terms(grid, drive_samples(samples, meas, params), dt))
            norms.append(norm_integrals(samples, dt))
        terms = np.concatenate(terms, axis=1)
        edges, plus, minus = self._boundary[1:].T @ terms[:6] + self._boundary[0, :, None]
        order = [i for members in groups.values() for i in members]
        record_terms, actions = np.empty(len(records)), np.empty(len(records), dtype=complex)
        record_terms[order] = -meas.weight_rate * np.concatenate(norms)
        actions[order] = edges + 0.5 * (terms[6] + plus * terms[7] + minus * terms[8])
        log_k = record_terms + 1j * actions / params.hbar + self.prefactor.log_value
        return log_k, record_terms, actions

    def log_amplitudes(self, records: Sequence[MeasurementRecord]) -> np.ndarray:
        """log K of each of ``records``, a complex array in their order: the
        first of :meth:`parts`."""
        return self.parts(records)[0]

    def log_amplitude(self, record: MeasurementRecord) -> complex:
        """log K of one record: :meth:`log_amplitudes` of ``[record]``."""
        return complex(self.log_amplitudes([record])[0])


def record_scorer(inputs: PropagatorInputs) -> RecordScorer:
    """The Floquet pair of the axis in ``inputs`` (the record is not read),
    ready to score batches of records on a window of any length.

    The pair is :func:`~paulpath.mathieu.hill_basis` over one drive period,
    or over the window when that is shorter: no ODE pass and no tolerance.
    The pair's values at the window's ends, the periodic responses and
    the boundary solve (:func:`_periodic_series`) and the prefactor
    (:func:`_window_prefactor`) read no record, so :func:`_scorer_core`
    computes them once per trap, stiffness, measurement and window, and
    the scorers of equal settings share them (read-only).

    Raises
    ------
    ConfigError
        If the boundary and measurement windows differ.
    ConjugatePointError
        If D(t'') is consistent with zero at the window scale.
    ToleranceNotMetError
        If the Hill series does not converge within its harmonic cap, the
        Floquet pair is degenerate (next to a band edge of an undamped
        drive), a Floquet multiplier is 1, or the axis is the free particle
        (u~ = v = 0), which has no Floquet pair.
    """
    _check_windows_consistent(inputs.bc, inputs.meas)
    basis, prefactor, columns, powers, boundary = _scorer_core(
        inputs.params, inputs.coeffs, inputs.meas, inputs.bc
    )
    return RecordScorer(
        inputs=inputs,
        basis=basis,
        prefactor=prefactor,
        _columns=columns,
        _powers=powers,
        _boundary=boundary,
    )


@functools.lru_cache(maxsize=_SCORER_CACHE_SIZE)
def _scorer_core(
    params: TrapParameters, coeffs: FrequencyCoefficients, meas: MeasurementConfig,
    bc: BoundaryConditions,
):
    """(basis, prefactor, columns, powers, boundary) of :class:`RecordScorer`
    for one axis and window, every array read-only; kept for the last
    ``_SCORER_CACHE_SIZE`` settings (a failed build is not kept)."""
    spec = effective_frequency(coeffs, meas, params)
    if spec.u_tilde == 0.0 and spec.v == 0.0:
        raise ToleranceNotMetError(
            "the free particle (u~ = v = 0) has no Floquet pair; restricted_propagator takes it"
        )
    periods = whole_periods(bc.duration, spec.drive_omega)
    t0, t1 = bc.t_start, bc.t_end
    basis = hill_basis(spec, (t0, t0 + 2.0 * math.pi / spec.drive_omega if periods[0] else t1))
    columns, powers, boundary, ends, delta = _periodic_series(basis, spec, bc, params.mass)
    prefactor = _window_prefactor(basis, bc, params, periods, ends, delta)
    for array in (basis.t, basis.coefficients, basis._parts, columns, powers, boundary):
        array.flags.writeable = False
    return basis, prefactor, columns, powers, boundary
