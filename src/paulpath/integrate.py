"""Adaptive integration of complex linear ODE systems.

The stability and trajectory equations of this package are complex-valued
(the measurement makes the stiffness complex).  They are integrated here
as real systems, the real and imaginary part of each component side by
side, with an adaptive embedded Runge-Kutta pair of order 8(5,3), which
keeps the error control honest for the oscillatory windows we care about.
The solution keeps the values at the accepted steps (phase tracking reads
those) and the pair's own dense interpolant for output grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, ToleranceNotMetError

#: Default relative tolerance of every adaptive solve in the package.
DEFAULT_TOL = 1e-11

#: Accepted steps per block of a stored interpolant.  Blocks are never
#: joined, so the ~10^4 steps of a long window are held once.
_BLOCK = 512


@dataclass(frozen=True)
class ComplexIvpSolution:
    """Complex state at the integrator's accepted steps plus a dense
    interpolant.

    ``t`` holds the accepted step times (``t[0]`` the start), ``y`` the
    complex state there, one row per component.  ``rhs_evals`` counts every
    right-hand-side call of the pass: the initial step choice, rejected
    steps and the interpolant's extra stages included.

    The interpolant is DOP853's degree-7 polynomial on each step.  Row
    ``[j, 0]`` of a block of ``_blocks`` is the state at the start of
    step j of the block, packed as (re, im) per component, and rows
    ``[j, 1:]`` are the step's 7 polynomial coefficients.
    """

    t: np.ndarray
    y: np.ndarray
    rhs_evals: int
    _blocks: tuple[np.ndarray, ...]

    @property
    def y_end(self) -> np.ndarray:
        return self.y[:, -1]

    @property
    def steps(self) -> int:
        """Number of accepted steps."""
        return self.t.size - 1

    @property
    def min_step(self) -> float:
        """Length of the shortest accepted step."""
        return float(np.min(np.abs(np.diff(self.t))))

    def dense(self, t):
        """Evaluate the interpolated complex state at time(s) ``t``:
        shape (n,) for a scalar, (n, len(t)) for an array.

        Segment choice and operation order are those of scipy's
        ``OdeSolution``, so the values are the same bit for bit.
        """
        t = np.asarray(t, dtype=float)
        ts = self.t
        # scipy's rule, searchsorted over all step times minus 1 and
        # clamped to a step, is the search over the interior times alone
        if ts[-1] >= ts[0]:
            seg = np.searchsorted(ts[1:-1], t, side="left")
        else:
            seg = ts.size - 2 - np.searchsorted(ts[-2:0:-1], t, side="right")
        t_old = ts[seg]
        x = (t - t_old) / (ts[seg + 1] - t_old)
        if len(self._blocks) == 1:
            y = _horner(self._blocks[0], seg, x)
        else:
            block, row = np.divmod(seg, len(self._blocks[0]))
            y = np.empty(t.shape + self._blocks[0].shape[2:])
            for b in np.unique(block):
                hit = block == b
                y[hit] = _horner(self._blocks[b], row[hit], x[hit])
        return np.ascontiguousarray(y.view(complex).T)


def _horner(rows: np.ndarray, j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The interpolant of steps ``j`` of a block at the fractions ``x`` of
    the step, in the operation order of scipy's ``Dop853DenseOutput``."""
    x = x[..., None]
    one_minus_x = 1 - x
    y = np.zeros(x.shape[:-1] + rows.shape[2:])
    for k in range(7, 0, -1):
        y += rows[j, k]
        y *= x if k % 2 == 1 else one_minus_x
    y += rows[j, 0]
    return y


def solve_complex_ivp(rhs, span, y0, rtol, atol):
    """Integrate dy/dt = rhs(t, y) for complex y.

    Parameters
    ----------
    rhs : callable
        rhs(t, y) -> complex ndarray, y complex ndarray.
    span : (t0, t1)
        Integration window, t1 != t0.
    y0 : complex ndarray
        Initial state.
    rtol, atol : float or ndarray
        Tolerances; ``atol`` may be per-(complex-)component and is applied
        to both the real and the imaginary part.

    Raises
    ------
    OutOfRangeError
        If the window has zero length.
    ToleranceNotMetError
        If the integrator gives up.
    """
    # imported on first use: scipy.integrate dominates the package's import time
    from scipy.integrate import DOP853

    t0, t1 = map(float, span)
    if t1 == t0:
        raise OutOfRangeError(f"integration window {span} has zero length", field="span")
    packed_y0 = np.array(y0, dtype=complex).view(float)

    def packed(t, y):
        return np.asarray(rhs(t, y.view(complex)), dtype=complex).view(float)

    atol = np.asarray(atol, dtype=float)
    if atol.ndim > 0:
        atol = np.repeat(atol, 2)
    solver = DOP853(packed, t0, packed_y0, t1, rtol=rtol, atol=atol)
    ts, blocks = [t0], []
    rows = np.empty((_BLOCK, 8, packed_y0.size))
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise ToleranceNotMetError(f"integrator failed on {span}: {message}")
        step = solver.dense_output()
        j = (len(ts) - 1) % _BLOCK
        rows[j, 0] = step.y_old
        rows[j, 1:] = step.F
        ts.append(solver.t)
        if j == _BLOCK - 1:
            blocks.append(rows)
            rows = np.empty_like(rows)
    if len(ts) - 1 > _BLOCK * len(blocks):
        blocks.append(rows[: len(ts) - 1 - _BLOCK * len(blocks)].copy())
    packed_y = np.concatenate([b[:, 0] for b in blocks] + [solver.y[None]])
    return ComplexIvpSolution(
        t=np.array(ts),
        y=packed_y.view(complex).T,
        rhs_evals=solver.nfev,
        _blocks=tuple(blocks),
    )
