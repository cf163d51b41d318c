"""Adaptive integration of complex linear ODE systems.

The stability and trajectory equations of this package are complex-valued
(the measurement makes the stiffness complex).  They are integrated here
as real systems, the real and imaginary part of each component side by
side, with the adaptive embedded Runge-Kutta pair of order 8(5,3) of
Dormand and Prince, DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., 1993, sec. II.5-6), which keeps the
error control honest for the oscillatory windows we care about.

The stepping loop is our own, but it takes scipy's tableau and repeats
scipy's ``DOP853`` operation for operation (initial step, step control,
stage sums), so the accepted steps and values are scipy's bit for bit.
The solution keeps the values at the accepted steps (phase tracking reads
those) and, per step, the stage rows that the method's degree-7 dense
interpolant weighs.  A step's interpolant costs three more right-hand-side
calls; it is built the first time an output grid reads the step, and
kept.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError, ToleranceNotMetError

#: Default relative tolerance of every adaptive solve in the package.
DEFAULT_TOL = 1e-11

#: Accepted steps per block of stored stage rows.  Blocks are never
#: joined, so the ~10^4 steps of a long window are held once.
_BLOCK = 512

#: Smallest relative tolerance the step control takes; smaller ones are
#: raised to it, as scipy's ``validate_tol`` does.
_MIN_RTOL = 100 * np.finfo(float).eps

#: Stages of one DOP853 step (the 13th row is the FSAL derivative at the
#: step's end) and the rows of the extended tableau with the
#: interpolant's three extra stages.
_STAGES, _EXTENDED = 12, 16

#: The stage rows the interpolant weighs: k1 and k6..k13.  The extra
#: stages and the interpolant's rows give k2..k5 zero weight.
_KEPT = np.r_[0, 5:_STAGES + 1]

#: Step-size control of scipy's ``RungeKutta``: safety factor, bounds on
#: the change per step, and the exponent -1/(error order + 1).
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10, -1 / 8


class ComplexIvpSolution:
    """Complex state at the integrator's accepted steps plus a dense
    interpolant.

    ``t`` holds the accepted step times (``t[0]`` the start), ``y`` the
    complex state there, one row per component.  ``rejected`` counts the
    step attempts the error control turned down.  ``rhs_evals`` counts the
    right-hand-side calls made so far: the initial step choice, the
    rejected attempts and every interpolant built up to now, including
    those that :meth:`dense` builds after the solve.

    Besides ``y``, each accepted step keeps the stage rows k1 and k6..k13,
    the ones its interpolant weighs, in blocks of ``_BLOCK`` steps.  The
    interpolant of a step, DOP853's degree-7 polynomial, is built from
    them with three more right-hand-side calls the first time
    :meth:`dense` reads the step, and kept.
    """

    def __init__(self, rhs, tableau, t, packed_y, rejected, stage_blocks):
        self.t = t
        self.y = packed_y.view(complex).T
        self.rejected = rejected
        self._rhs, self._tableau = rhs, tableau
        self._packed_y, self._stage_blocks = packed_y, stage_blocks
        # _coefficients[_slot[i]] is the interpolant of step i once built;
        # _slot[i] is -1 before
        self._slot = np.full(t.size - 1, -1, dtype=np.intp)
        self._coefficients = np.empty((0, 8, packed_y.shape[1]))
        self._built = 0

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
        3 per interpolant built."""
        return 2 + 12 * (self.steps + self.rejected) + 3 * self._built

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
        rows = self._slot[seg]
        if np.any(rows < 0):
            unread = np.unique(np.asarray(seg)[rows < 0])
            # room for these, or twice the rows so far if that is more:
            # one grid read allocates no more than it builds, and scalar
            # reads (quadrature) grow the rows geometrically
            room = max(self._built + unread.size, 2 * self._built)
            if room > len(self._coefficients):
                grown = np.empty((room, *self._coefficients.shape[1:]))
                grown[: self._built] = self._coefficients[: self._built]
                self._coefficients = grown
            for i in unread:
                self._build(int(i))
            rows = self._slot[seg]
        y = _horner(self._coefficients, rows, x)
        return np.ascontiguousarray(y.view(complex).T)

    def _build(self, i: int) -> None:
        """The interpolant of step i, as scipy's
        ``DOP853._dense_output_impl`` builds it: the three extra stages,
        then the 7 coefficient rows."""
        tableau = self._tableau
        # the extended stage rows; k2..k5 stay zero, since neither the
        # extra stages nor the coefficient rows weigh them
        k = np.zeros((_EXTENDED, self._packed_y.shape[1]))
        block, j = divmod(i, len(self._stage_blocks[0]))
        k[_KEPT] = self._stage_blocks[block][j]
        y_old, y_new = self._packed_y[i], self._packed_y[i + 1]
        t_old = float(self.t[i])
        h = float(self.t[i + 1] - self.t[i])
        for s, a, c in zip(range(_STAGES + 1, _EXTENDED), tableau.A_EXTRA, tableau.C_EXTRA):
            dy = np.dot(k[:s].T, a[:s]) * h
            k.view(complex)[s] = self._rhs(t_old + c * h, (y_old + dy).view(complex))
        delta_y = y_new - y_old
        f_old = k[0]
        row = self._coefficients[self._built]
        row[0] = y_old
        row[1] = delta_y
        row[2] = h * f_old - delta_y
        row[3] = 2 * delta_y - h * (k[_STAGES] + f_old)
        row[4:] = h * np.dot(tableau.D, k)
        self._slot[i] = self._built
        self._built += 1


def _horner(rows: np.ndarray, j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The interpolants ``rows[j]`` at the fractions ``x`` of their steps,
    in the operation order of scipy's ``Dop853DenseOutput``.  Row
    ``[j, 0]`` is the state at the start of the step, packed as (re, im)
    per component, and rows ``[j, 1:]`` are its 7 polynomial
    coefficients."""
    x = x[..., None]
    one_minus_x = 1 - x
    y = np.zeros(x.shape[:-1] + rows.shape[2:])
    for k in range(7, 0, -1):
        y += rows[j, k]
        y *= x if k % 2 == 1 else one_minus_x
    y += rows[j, 0]
    return y


def _rms(x: np.ndarray) -> float:
    """scipy's ``common.norm``: ``np.linalg.norm(x) / x.size ** 0.5``."""
    return math.sqrt(x.dot(x)) / x.size**0.5


def solve_complex_ivp(rhs, span, y0, rtol, atol):
    """Integrate dy/dt = rhs(t, y) for complex y.

    Parameters
    ----------
    rhs : callable
        rhs(t, y) -> sequence of complex (a list is cheapest), y complex
        ndarray.  ``y`` may be a buffer the loop reuses: read it during
        the call, do not keep it.
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
    # imported on first use: scipy.integrate dominates the package's import time
    from scipy.integrate import DOP853 as tableau

    t0, t1 = map(float, span)
    if t1 == t0:
        raise OutOfRangeError(f"integration window {span} has zero length", field="span")
    y = np.array(y0, dtype=complex).view(float)
    n = y.size
    rtol = max(rtol, _MIN_RTOL)
    atol = np.asarray(atol, dtype=float)
    if atol.ndim > 0:
        atol = np.repeat(atol, 2)
    direction = 1.0 if t1 > t0 else -1.0

    # stage rows k1..k13 (k13 the derivative at the step's end), the
    # stage sums over their transposed views (ndarray.dot is np.dot
    # without the dispatch), and one buffer for a stage's state; the rhs
    # writes its complex result straight into its row.  The step h is
    # kept as a 0-d array: the same product, at a third of the cost of a
    # Python float in a ufunc.
    k = np.empty((_STAGES + 1, n))
    kc = k.view(complex)
    stages = [
        (k[:s].T.dot, a[:s], float(c), s)
        for s, a, c in zip(range(1, _STAGES), tableau.A[1:], tableau.C[1:])
    ]
    sum_b, sum_e = k[:_STAGES].T.dot, k.T.dot
    b, e5, e3 = tableau.B, tableau.E5, tableau.E3
    dy, y_stage, h_arr = np.empty(n), np.empty(n), np.empty(())
    y_stage_c = y_stage.view(complex)
    multiply, add, divide, maximum = np.multiply, np.add, np.divide, np.maximum
    rtol_arr = np.asarray(rtol)

    kc[0] = rhs(t0, y.view(complex))
    h_abs = _initial_step(rhs, t0, y, t1, k[0], direction, rtol, atol)

    t, abs_y = t0, np.abs(y)
    ts, y_blocks, k_blocks = [t0], [], []
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
            for stage_sum, a, c, s in stages:
                stage_sum(a, dy)
                multiply(dy, h_arr, dy)
                add(y, dy, y_stage)
                kc[s] = rhs(t + c * h, y_stage_c)
            sum_b(b, dy)
            multiply(dy, h_arr, dy)
            y_new = y + dy
            kc[_STAGES] = rhs(t + h, y_new.view(complex))

            abs_new = np.abs(y_new)
            scale = maximum(abs_y, abs_new)
            multiply(scale, rtol_arr, scale)
            add(atol, scale, scale)
            err5 = divide(sum_e(e5), scale)
            err3 = divide(sum_e(e3), scale)
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
            k_blocks.append(np.empty((_BLOCK, _KEPT.size, n)))
        y_blocks[-1][j] = y
        k.take(_KEPT, axis=0, out=k_blocks[-1][j])
        ts.append(t_new)
        t, y, abs_y = t_new, y_new, abs_new
        k[0] = k[_STAGES]

    steps = len(ts) - 1
    k_blocks[-1] = k_blocks[-1][: steps - _BLOCK * (len(k_blocks) - 1)].copy()
    # y joined one block at a time, each block freed once copied
    packed_y = np.empty((steps + 1, n))
    packed_y[steps] = y
    for start in range(0, steps, _BLOCK):
        block = y_blocks.pop(0)[: steps - start]
        packed_y[start : start + len(block)] = block
    return ComplexIvpSolution(rhs, tableau, np.array(ts), packed_y, rejected, k_blocks)


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
