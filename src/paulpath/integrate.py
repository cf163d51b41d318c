"""Adaptive integration of complex linear ODE systems.

The stability and trajectory equations of this package are complex-valued
(the measurement makes the stiffness complex).  They are integrated here
as real systems, the real and imaginary part of each component side by
side, with the adaptive embedded Runge-Kutta pair of order 8(5,3) of
Dormand and Prince, DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., 1993, sec. II.5-6), which keeps the
error control honest for the oscillatory windows we care about.

The stepping loop is our own, but it reads its tableau from scipy's
``DOP853`` class and repeats scipy's operation for operation (initial
step, step control, stage sums), so the accepted steps and values are
scipy's bit for bit.  The solution keeps only the values at the accepted
steps (phase tracking reads those).  Its dense output is scipy's own:
the first read runs ``scipy.integrate.solve_ivp`` once on the same
problem, which takes the same steps, and keeps that solve's interpolant.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import OutOfRangeError, ToleranceNotMetError

#: Default relative tolerance of every adaptive solve in the package.
DEFAULT_TOL = 1e-11

#: Accepted steps per block of step values gathered during a solve; the
#: blocks are joined into one array at its end, one block at a time.
_BLOCK = 512

#: Smallest relative tolerance the step control takes; smaller ones are
#: raised to it, as scipy's ``validate_tol`` does.
_MIN_RTOL = 100 * np.finfo(float).eps

#: Stages of one DOP853 step; a 13th row holds the FSAL derivative at
#: the step's end.
_STAGES = 12

#: Step-size control of scipy's ``RungeKutta``: safety factor, bounds on
#: the change per step, and the exponent -1/(error order + 1).
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10, -1 / 8


@functools.cache
def _tableau():
    """scipy's DOP853 stage matrix, weights and nodes and its two error
    rows: ``A``, ``B``, ``C``, ``E3``, ``E5``.  The first call imports
    ``scipy.integrate``."""
    from scipy.integrate import DOP853

    return DOP853.A, DOP853.B, DOP853.C, DOP853.E3, DOP853.E5


class ComplexIvpSolution:
    """Complex state at the integrator's accepted steps plus a dense
    interpolant.

    ``t`` holds the accepted step times (``t[0]`` the start), ``y`` the
    complex state there, one row per component.  ``rejected`` counts the
    step attempts the error control turned down.  ``rhs_evals`` counts the
    right-hand-side calls made so far: the solve's, then, once
    :meth:`dense` has been read, those of the solve it runs.

    Of the solve only ``t``, ``y`` (16 bytes per step and real component)
    and the problem are kept: the packed right-hand side, the window, the
    packed initial state and the tolerances as the step control took
    them, which :meth:`dense` solves again.
    """

    def __init__(self, problem, t, packed_y, rejected):
        self.t = t
        self.y = packed_y.view(complex).T
        self.rejected = rejected
        self._problem = problem
        self._interpolant = None
        self._dense_evals = 0

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

    @property
    def rhs_evals(self) -> int:
        """Right-hand-side calls so far: 2 to start, 12 per step attempt,
        and those of the dense-output solve once it has run."""
        return 2 + 12 * (self.steps + self.rejected) + self._dense_evals

    def dense(self, t):
        """Evaluate the interpolated complex state at time(s) ``t``:
        shape (n,) for a scalar, (n, len(t)) for an array.

        The interpolant is scipy's: the first read runs
        ``solve_ivp(method="DOP853", dense_output=True)`` on the stored
        problem, whose steps are this solution's, and keeps its
        ``OdeSolution``; later reads call the right-hand side no more.
        """
        if self._interpolant is None:
            from scipy.integrate import solve_ivp

            fun, span, y0, rtol, atol = self._problem
            ivp = solve_ivp(
                fun, span, y0, method="DOP853", rtol=rtol, atol=atol, dense_output=True
            )
            self._interpolant, self._dense_evals = ivp.sol, ivp.nfev
        y = self._interpolant(np.asarray(t, dtype=float))
        return np.ascontiguousarray(y.T).view(complex).T.copy()


def _rms(x: np.ndarray) -> float:
    """scipy's ``common.norm``: ``np.linalg.norm(x) / x.size ** 0.5``."""
    return math.sqrt(x.dot(x)) / x.size**0.5


def solve_complex_ivp(rhs, span, y0, rtol, atol):
    """Integrate dy/dt = rhs(t, y) for complex y.

    Parameters
    ----------
    rhs : callable
        rhs(t, y) -> sequence of complex (a list is cheapest), y complex
        ndarray.  It must be a pure function of (t, y): the solution's
        dense output solves the problem again through it after this
        solve, and must see the values this solve saw.  ``y`` may be a
        buffer the loop reuses: read it during the call, do not keep or
        change it.
    span : (t0, t1)
        Integration window, t1 != t0.
    y0 : complex ndarray
        Initial state.
    rtol : float
        Relative tolerance.  One below 100 machine epsilons is raised to
        that, as scipy's ``DOP853`` raises it (with a warning there,
        silently here).
    atol : float or ndarray
        Absolute tolerance; may be per-(complex-)component and is applied
        to both the real and the imaginary part.

    Raises
    ------
    OutOfRangeError
        If the window has zero length.
    ToleranceNotMetError
        If the step size falls below 10 float spacings at t, or is NaN.
    """
    t0, t1 = map(float, span)
    if t1 == t0:
        raise OutOfRangeError(f"integration window {span} has zero length", field="span")
    y = y0_packed = np.array(y0, dtype=complex).view(float)
    n = y.size
    rtol = max(rtol, _MIN_RTOL)
    atol = np.asarray(atol, dtype=float)
    if atol.ndim > 0:
        atol = np.repeat(atol, 2)
    direction = 1.0 if t1 > t0 else -1.0

    # the stage rows k1..k13 (k13 the derivative at the step's end),
    # packed as (re, im) per component; the rhs writes its complex result
    # straight into its row, and each stage sum runs over a transposed
    # view of the rows before it (ndarray.dot is np.dot without the
    # dispatch).  The step h is kept as a 0-d array: the same product, at
    # a third of the cost of a Python float in a ufunc.
    A, B, C, E3, E5 = _tableau()
    k = np.empty((_STAGES + 1, n))
    kc = k.view(complex)
    sums = [
        (k[:s].T.dot, a[:s], float(c), s) for s, a, c in zip(range(1, _STAGES), A[1:], C[1:])
    ]
    sum_b, sum_e = k[:_STAGES].T.dot, k.T.dot
    dy, y_stage, h_arr = np.empty(n), np.empty(n), np.empty(())
    y_stage_c = y_stage.view(complex)
    multiply, add, divide, maximum = np.multiply, np.add, np.divide, np.maximum
    rtol_arr = np.asarray(rtol)

    kc[0] = rhs(t0, y.view(complex))
    h_abs = _initial_step(rhs, t0, y, t1, k[0], direction, rtol, atol)

    t, abs_y = t0, np.abs(y)
    ts, y_blocks = [t0], []
    rejected = 0
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            # scipy's test is h_abs < min_step; a NaN step, which a
            # right-hand side that is not finite at the start gives, would
            # loop there for ever and fails here
            if not h_abs >= min_step:
                raise ToleranceNotMetError(
                    f"integrator failed on {span}: step {h_abs:.3e} at t = {t!r} is"
                    " below the spacing of the floats there"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            h_arr[()] = h
            for stage_sum, a, c, row in sums:
                stage_sum(a, dy)
                multiply(dy, h_arr, dy)
                add(y, dy, y_stage)
                kc[row] = rhs(t + c * h, y_stage_c)
            sum_b(B, dy)
            multiply(dy, h_arr, dy)
            y_new = y + dy
            kc[_STAGES] = rhs(t + h, y_new.view(complex))

            abs_new = np.abs(y_new)
            scale = maximum(abs_y, abs_new)
            multiply(scale, rtol_arr, scale)
            add(atol, scale, scale)
            err5 = divide(sum_e(E5), scale)
            err3 = divide(sum_e(E3), scale)
            err5_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * n)

            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            step_rejected = True
            rejected += 1

        j = (len(ts) - 1) % _BLOCK
        if j == 0:
            y_blocks.append(np.empty((_BLOCK, n)))
        y_blocks[-1][j] = y
        ts.append(t_new)
        t, y, abs_y = t_new, y_new, abs_new
        k[0] = k[_STAGES]

    steps = len(ts) - 1
    # y joined one block at a time, each block freed once copied
    packed_y = np.empty((steps + 1, n))
    packed_y[steps] = y
    for start in range(0, steps, _BLOCK):
        block = y_blocks.pop(0)[: steps - start]
        packed_y[start : start + len(block)] = block

    def packed(t, y):
        return np.asarray(rhs(t, y.view(complex)), dtype=complex).view(float)

    problem = (packed, (t0, t1), y0_packed, rtol, atol)
    return ComplexIvpSolution(problem, np.array(ts), packed_y, rejected)


def _initial_step(rhs, t0, y0, t1, f0, direction, rtol, atol) -> float:
    """scipy's ``select_initial_step`` for an 8th-order pair with a 7th-order
    error estimate and no step bound (one right-hand-side call)."""
    length = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, length)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1.view(complex)), dtype=complex).view(float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, length)
