"""Truncated cosine-series solutions of the scaled stability equation.

The homogeneous monitored-trap equation in scaled time t = omega*T/2 is a
Mathieu equation

    psi'' + [p - 2 q cos(2 t)] psi = 0.

An even formal solution is the odd-harmonic cosine series

    f(t) = c1 cos(t) + c3 cos(3 t) + c5 cos(5 t) + c7 cos(7 t) + ...

whose leading coefficients, normalized to c1 = 1, follow the forward
three-term recurrence (p - m**2) c_m = q (c_{m-2} + c_{m+2}) of the
odd cosine channels (with c_{-1} = c_1):

    c3 = (p - 1 - q) / q                        (= alpha)
    c5 = [(p - 9)(p - 1 - q) - q**2] / q**2
    c7 = [(p - 25) c5 - q c3] / q

so every residual channel below the top kept harmonic vanishes (see
:func:`residual_coefficients`).  The series is hard-capped at four terms.

For moderate q the coefficients need not decay, so the truncation is an
asymptotic device rather than a convergent expansion: away from a
characteristic value each added harmonic multiplies the leading residual
by about (p - m**2)/q, so the residual grows with the number of terms.
At p = a_1(q) the recurrence is the Fourier series of ce_1 and the
residual shrinks.  The residual helpers quantify exactly how wrong each
truncation is, and :func:`integrate_mathieu_ode` provides the
numerically exact solution the series is judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRangeError, ToleranceNotMetError, ZeroQError
from .integrate import DEFAULT_TOL, solve_complex_ivp
from .trapmodel import DimensionlessParams

_MAX_TERMS = 4


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients (c1, c3, ...) of the truncated cosine series."""

    params: DimensionlessParams
    coefficients: tuple[complex, ...]

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    @property
    def harmonics(self) -> tuple[int, ...]:
        """The odd multipliers (1, 3, 5, ...) paired with ``coefficients``."""
        return tuple(2 * k + 1 for k in range(self.n_terms))


def mathieu_series(params: DimensionlessParams, n_terms: int = 2) -> SeriesCoefficients:
    """Build the truncated series coefficients for given (p, q).

    Parameters
    ----------
    params : DimensionlessParams
        Scaled stiffness parameters; q must be nonzero.
    n_terms : int
        Number of kept harmonics, between 1 and 4.
    """
    if not 1 <= n_terms <= _MAX_TERMS:
        raise OutOfRangeError(
            f"n_terms must be in [1, {_MAX_TERMS}], got {n_terms}", field="n_terms"
        )
    if params.q == 0:
        raise ZeroQError("q = 0: series coefficients carry inverse powers of q")
    p, q = params.p, params.q
    base = p - 1.0 - q
    cs = [1.0 + 0j]
    if n_terms >= 2:
        cs.append(base / q)
    if n_terms >= 3:
        cs.append(((p - 9.0) * base - q * q) / q**2)
    if n_terms >= 4:
        cs.append(((p - 25.0) * cs[2] - q * cs[1]) / q)
    return SeriesCoefficients(params=params, coefficients=tuple(complex(c) for c in cs))


def evaluate_f(coeffs: SeriesCoefficients, t_tilde):
    """Evaluate the truncated series at scaled time(s) ``t_tilde``."""
    t = np.asarray(t_tilde, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for n, c in zip(coeffs.harmonics, coeffs.coefficients):
        out += c * np.cos(n * t)
    if out.ndim == 0:
        return complex(out)
    return out


def evaluate_f_derivative(coeffs: SeriesCoefficients, t_tilde):
    """d f / d t_tilde of the truncated series."""
    t = np.asarray(t_tilde, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for n, c in zip(coeffs.harmonics, coeffs.coefficients):
        out -= n * c * np.sin(n * t)
    if out.ndim == 0:
        return complex(out)
    return out


def evaluate_f_second_derivative(coeffs: SeriesCoefficients, t_tilde):
    """d**2 f / d t_tilde**2 of the truncated series."""
    t = np.asarray(t_tilde, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for n, c in zip(coeffs.harmonics, coeffs.coefficients):
        out -= n * n * c * np.cos(n * t)
    if out.ndim == 0:
        return complex(out)
    return out


def residual_coefficients(coeffs: SeriesCoefficients) -> dict[int, complex]:
    """Exact cosine decomposition of the truncation residual.

    Substituting the truncated series into the stability equation leaves

        f'' + [p - 2 q cos(2 t)] f  =  sum_m R_m cos(m t),

    where, writing c_m for kept coefficients (zero outside the truncation,
    and with the m = 1 channel picking up its own coefficient through
    cos(-t) = cos(t)),

        R_1 = (p - 1 - q) c_1 - q c_3
        R_m = (p - m**2) c_m - q c_{m-2} - q c_{m+2}      (odd m >= 3).

    Vanishing entries are dropped, so the keys are exactly the harmonics
    where the truncation fails.
    """
    p, q = coeffs.params.p, coeffs.params.q
    kept = dict(zip(coeffs.harmonics, coeffs.coefficients))
    out: dict[int, complex] = {}
    top = max(kept)
    for m in range(1, top + 3, 2):
        cm = kept.get(m, 0.0)
        below = kept.get(1, 0.0) if m == 1 else kept.get(m - 2, 0.0)
        above = kept.get(m + 2, 0.0)
        r = (p - m * m) * cm - q * below - q * above
        if r != 0:
            out[m] = complex(r)
    return out


def residual_bound(coeffs: SeriesCoefficients) -> float:
    """Upper bound sum_m |R_m| on the residual magnitude (any real t)."""
    return float(sum(abs(r) for r in residual_coefficients(coeffs).values()))


def residual_max_magnitude(
    coeffs: SeriesCoefficients, t_span: tuple[float, float] = (0.0, np.pi), n: int = 4096
) -> float:
    """Maximum of |residual(t)| on ``t_span`` by dense sampling of the
    exact cosine sum."""
    rs = residual_coefficients(coeffs)
    t = np.linspace(t_span[0], t_span[1], n)
    vals = np.zeros(t.shape, dtype=complex)
    for m, r in rs.items():
        vals += r * np.cos(m * t)
    return float(np.max(np.abs(vals)))


@dataclass(frozen=True)
class TruncationStiffness:
    """The stiffness a truncated series solves exactly.

    A truncation f of the cosine series does not solve the true scaled
    equation, but it is an exact solution of psi'' + w2_eff(t) psi = 0
    with w2_eff = -f''/f (real time; the chain rule brings in the
    (omega/2)**2 factor).  Feeding this stiffness to the determinant
    route gives the reference the closed-form prefactor must reproduce,
    with truncation error excluded by construction.  Poles at the zeros
    of f restrict use to zero-free windows.
    """

    coefficients: "SeriesCoefficients"
    drive_omega: float

    def w_squared(self, t):
        s = 0.5 * self.drive_omega * np.asarray(t, dtype=float)
        f = evaluate_f(self.coefficients, s)
        fdd = evaluate_f_second_derivative(self.coefficients, s)
        return -((0.5 * self.drive_omega) ** 2) * fdd / f

    def peak_stiffness(self, t0: float, t1: float) -> float:
        """max |w2_eff| over 257 samples of [t0, t1] (it has poles)."""
        return float(np.max(np.abs(self.w_squared(np.linspace(t0, t1, 257)))))


@dataclass(frozen=True)
class OdeSolution:
    """Numeric solution psi of the stability equation on a grid, with the
    solver's dense interpolant retained for off-grid evaluation."""

    grid: np.ndarray
    psi: np.ndarray
    psi_dot: np.ndarray
    _dense: object = field(repr=False, default=None)

    def evaluate(self, t_tilde):
        """Dense evaluation of (psi, psi') at arbitrary scaled times."""
        y = self._dense(np.asarray(t_tilde, dtype=float))
        return y[0], y[1]


def integrate_mathieu_ode(
    params: DimensionlessParams,
    span: tuple[float, float],
    init: tuple[complex, complex],
    tol: float = DEFAULT_TOL,
    n_points: int = 257,
) -> OdeSolution:
    """Integrate psi'' + [p - 2 q cos(2 t)] psi = 0 numerically.

    Parameters
    ----------
    span : (t0, t1)
        Scaled-time window.
    init : (psi0, dpsi0)
        Initial value and slope at t0.
    tol : float
        Relative tolerance of the adaptive integrator.
    n_points : int
        Size of the returned uniform evaluation grid.

    Returns
    -------
    OdeSolution

    Raises
    ------
    ToleranceNotMetError
        If the integrator fails to converge.
    """
    p, q = params.p, params.q

    def rhs(t, y):
        psi, dpsi = y.tolist()
        return np.array([dpsi, -(p - 2.0 * q * math.cos(2.0 * t)) * psi], dtype=complex)

    scale = max(abs(init[0]), abs(init[1]), 1.0)
    sol = solve_complex_ivp(
        rhs,
        span,
        np.array(init, dtype=complex),
        rtol=tol,
        atol=tol * scale * 1e-3,
    )
    grid = np.linspace(span[0], span[1], n_points)
    y = sol.dense(grid)
    return OdeSolution(grid=grid, psi=y[0], psi_dot=y[1], _dense=sol.dense)
