"""Adaptive integration of complex linear ODE systems.

The stability and trajectory equations of this package are complex-valued
(the measurement makes the stiffness complex).  They are integrated here
as real systems, the real and imaginary part of each component side by
side, with the adaptive embedded Runge-Kutta pair of order 8(5,3) of
Dormand and Prince, DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., 1993, sec. II.5-6), which keeps the
error control honest for the oscillatory windows we care about.

The stepping loop is our own, but it takes scipy's tableau (copied
below, so that a solve does not import ``scipy.integrate``) and repeats
scipy's ``DOP853`` operation for operation (initial step, step control,
stage sums), so the accepted steps and values are scipy's bit for bit.
The solution keeps only the values at the accepted steps (phase tracking
reads those).  The first time an output grid reads a step, the step is
re-run through the loop's own stage routine from its stored start value,
which gives the stage rows the solve had bit for bit, and the method's
degree-7 dense interpolant is built from them and kept: 16
right-hand-side calls per interpolant.
"""

from __future__ import annotations

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

#: Stages of one DOP853 step (the 13th row is the FSAL derivative at the
#: step's end) and the rows of the extended tableau with the
#: interpolant's three extra stages.
_STAGES, _EXTENDED = 12, 16

#: Step-size control of scipy's ``RungeKutta``: safety factor, bounds on
#: the change per step, and the exponent -1/(error order + 1).
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10, -1 / 8


def _sparse(shape, rows):
    """A zero array of ``shape`` with the entries ``rows[i][j]`` set."""
    out = np.zeros(shape)
    for i, row in rows.items():
        for j, value in row.items():
            out[i, j] = value
    return out


# DOP853's tableau, the coefficients of Hairer's dop853.f, as scipy writes
# them in ``scipy/integrate/_ivp/dop853_coefficients.py`` (scipy 1.17) and
# as its ``DOP853`` class slices them: ``A``, ``B``, ``C``, ``E3``, ``E5``
# and ``D`` (the rows of the interpolant's coefficients 4..7), then the
# rows and nodes of the three extra stages.  tests/test_integrate.py checks
# each array against scipy's byte for byte.
_C_EXTENDED = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])
_A_EXTENDED = _sparse((_EXTENDED, _EXTENDED), {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
})
D = _sparse((4, _EXTENDED), {
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
})
A = _A_EXTENDED[:_STAGES, :_STAGES]
B = _A_EXTENDED[_STAGES, :_STAGES]
C = _C_EXTENDED[:_STAGES]
A_EXTRA = _A_EXTENDED[_STAGES + 1 :]
C_EXTRA = _C_EXTENDED[_STAGES + 1 :]
E3 = np.zeros(_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5 = np.zeros(_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1


class ComplexIvpSolution:
    """Complex state at the integrator's accepted steps plus a dense
    interpolant.

    ``t`` holds the accepted step times (``t[0]`` the start), ``y`` the
    complex state there, one row per component.  ``rejected`` counts the
    step attempts the error control turned down.  ``rhs_evals`` counts the
    right-hand-side calls made so far: the initial step choice, the
    rejected attempts and every interpolant built up to now, including
    those that :meth:`dense` builds after the solve.

    Only ``t`` and ``y`` are kept of the solve: 16 bytes per step and real
    component.  The interpolant of a step, DOP853's degree-7 polynomial,
    is built the first time :meth:`dense` reads the step, by re-running
    the step through the solve's stage routine (16 right-hand-side calls;
    see :meth:`_build`), and kept.
    """

    def __init__(self, rhs, k, stages, t, packed_y, rejected):
        self.t = t
        self.y = packed_y.view(complex).T
        self.rejected = rejected
        self._rhs, self._k, self._stages = rhs, k, stages
        self._packed_y = packed_y
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
        16 per interpolant built."""
        return 2 + 12 * (self.steps + self.rejected) + 16 * self._built

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
        then the 7 coefficient rows.

        The step's stage rows are made again as the solve made them: k1
        at the time the solve took it (the previous step's end, t + h,
        which need not round to this step's start), stages 2..12 by the
        solve's own routine, and k13 on the stored end value.  So they,
        and the interpolant, are the solve's bit for bit, provided the
        right-hand side is a pure function of (t, y).
        """
        k, ts, rhs = self._k, self.t, self._rhs
        kc = k.view(complex)
        y_old, y_new = self._packed_y[i], self._packed_y[i + 1]
        t_old = float(ts[i])
        h = float(ts[i + 1] - ts[i])
        t_first = t_old if i == 0 else float(ts[i - 1] + (ts[i] - ts[i - 1]))
        kc[0] = rhs(t_first, y_old.view(complex))
        self._stages(t_old, y_old, h)
        kc[_STAGES] = rhs(t_old + h, y_new.view(complex))
        for s, a, c in zip(range(_STAGES + 1, _EXTENDED), A_EXTRA, C_EXTRA):
            dy = np.dot(k[:s].T, a[:s]) * h
            kc[s] = rhs(t_old + c * h, (y_old + dy).view(complex))
        delta_y = y_new - y_old
        f_old = k[0]
        row = self._coefficients[self._built]
        row[0] = y_old
        row[1] = delta_y
        row[2] = h * f_old - delta_y
        row[3] = 2 * delta_y - h * (k[_STAGES] + f_old)
        row[4:] = h * np.dot(D, k)
        self._slot[i] = self._built
        self._built += 1


def _stage_routine(rhs, k):
    """``stages(t, y, h)``: stages 2..12 of the DOP853 step of length h
    from (t, y), written into ``k[1:12]`` from k1 in ``k[0]``.

    ``k`` holds a step's stage rows, packed as (re, im) per component; the
    rhs writes its complex result straight into its row, and each stage
    sum runs over a transposed view of the rows before it (ndarray.dot is
    np.dot without the dispatch).  The step loop and the interpolant's
    rebuild both run this routine, so a rebuilt step repeats the solve's
    operations.  The step h is kept as a 0-d array: the same product, at
    a third of the cost of a Python float in a ufunc.
    """
    n = k.shape[1]
    kc = k.view(complex)
    sums = [
        (k[:s].T.dot, a[:s], float(c), s) for s, a, c in zip(range(1, _STAGES), A[1:], C[1:])
    ]
    dy, y_stage, h_arr = np.empty(n), np.empty(n), np.empty(())
    y_stage_c = y_stage.view(complex)
    multiply, add = np.multiply, np.add

    def stages(t, y, h):
        h_arr[()] = h
        for stage_sum, a, c, s in sums:
            stage_sum(a, dy)
            multiply(dy, h_arr, dy)
            add(y, dy, y_stage)
            kc[s] = rhs(t + c * h, y_stage_c)

    return stages


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
        ndarray.  It must be a pure function of (t, y): reading the
        solution's dense output re-runs steps through it after the solve,
        and the rows it gives then must be those of the solve.  ``y`` may
        be a buffer the loop reuses or a view of the stored step values:
        read it during the call, do not keep or change it.
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
    y = np.array(y0, dtype=complex).view(float)
    n = y.size
    rtol = max(rtol, _MIN_RTOL)
    atol = np.asarray(atol, dtype=float)
    if atol.ndim > 0:
        atol = np.repeat(atol, 2)
    direction = 1.0 if t1 > t0 else -1.0

    # the stage rows k1..k13 (k13 the derivative at the step's end) are
    # the first 13 of the extended tableau's 16, all of which the
    # solution's interpolant builds fill
    k = np.empty((_EXTENDED, n))
    kc = k.view(complex)
    stages = _stage_routine(rhs, k)
    sum_b, sum_e = k[:_STAGES].T.dot, k[: _STAGES + 1].T.dot
    dy, h_arr = np.empty(n), np.empty(())
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
            stages(t, y, h)
            h_arr[()] = h
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
    return ComplexIvpSolution(rhs, k, stages, np.array(ts), packed_y, rejected)


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
