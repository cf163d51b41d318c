"""Adaptive integration of complex linear ODE systems.

The stability and trajectory equations of this package are complex-valued
(the measurement makes the stiffness complex).  They are integrated here
as stacked real systems with an adaptive embedded Runge-Kutta pair of
order 8(5,3), which keeps the error control honest for the oscillatory
windows we care about; the solution keeps the values at the accepted
steps (phase tracking reads those) and a dense interpolant for output
grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ToleranceNotMetError


@dataclass(frozen=True)
class ComplexIvpSolution:
    """Complex state at the integrator's accepted steps plus a dense
    interpolant.

    ``t`` holds the accepted step times (``t[0]`` the start), ``y`` the
    complex state there, one row per component.
    """

    t: np.ndarray
    y: np.ndarray
    _sol: object
    _n: int

    @property
    def y_end(self) -> np.ndarray:
        return self.y[:, -1]

    def dense(self, t):
        """Evaluate the interpolated complex state at time(s) ``t``."""
        y = self._sol(np.asarray(t, dtype=float))
        return y[: self._n] + 1j * y[self._n :]


def solve_complex_ivp(rhs, span, y0, rtol=1e-11, atol=1e-14, max_step=np.inf):
    """Integrate dy/dt = rhs(t, y) for complex y.

    Parameters
    ----------
    rhs : callable
        rhs(t, y) -> complex ndarray, y complex ndarray.
    span : (t0, t1)
        Integration window, t1 > t0.
    y0 : complex ndarray
        Initial state.
    rtol, atol : float or ndarray
        Tolerances; ``atol`` may be per-(complex-)component and is applied
        to both the real and imaginary stacks.
    """
    y0 = np.asarray(y0, dtype=complex)
    n = y0.size

    def packed(t, y):
        dz = np.asarray(rhs(t, y[:n] + 1j * y[n:]), dtype=complex)
        return np.concatenate([dz.real, dz.imag])

    atol_arr = np.asarray(atol, dtype=float)
    if atol_arr.ndim > 0:
        atol_arr = np.concatenate([atol_arr, atol_arr])
    sol = solve_ivp(
        packed,
        span,
        np.concatenate([y0.real, y0.imag]),
        method="DOP853",
        rtol=rtol,
        atol=atol_arr,
        dense_output=True,
        max_step=max_step,
    )
    if not sol.success:
        raise ToleranceNotMetError(f"integrator failed on {span}: {sol.message}")
    return ComplexIvpSolution(
        t=sol.t,
        y=sol.y[:n] + 1j * sol.y[n:],
        _sol=sol.sol,
        _n=n,
    )
