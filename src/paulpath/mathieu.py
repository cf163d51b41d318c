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

The same three-term recurrence, taken over all harmonics and at the
right exponent, converges: :func:`hill_basis` computes the Floquet
solutions f+(t) = e^{i nu t} sum_n c_n e^{i n w t} and f-(t) = f+(-t) of
the complex stiffness w2 = u~ - v cos(w t) (Hill's method; Deconinck &
Kutz, J. Comput. Phys. 219 (2006) 296; DLMF §28.12), with no adaptive
pass.  :func:`_basis_pass` is the one adaptive solve of the same
equation, for any stiffness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRangeError, ToleranceNotMetError, ZeroQError
from .integrate import DEFAULT_TOL, solve_complex_ivp
from .trapmodel import DimensionlessParams, EffectiveFrequencySpec

_MAX_TERMS = 4

#: Hill basis: a Fourier coefficient at most this fraction of the largest
#: one is below rounding, and so is the series past it
_HILL_TAIL = float(np.finfo(float).eps)

#: most harmonics on each side of the centre the Hill basis may use; the
#: continued fractions start at _FIRST_DEPTH and double up to it
_MAX_HARMONICS = 256
_FIRST_DEPTH = 16

#: largest relative change of the Floquet pair's Wronskian that the Hill
#: basis accepts on its grid
_HILL_WRONSKIAN_ATOL = 1e-10

#: oscillation phase h * rate of one step of the Hill basis' grid, half
#: the pi/2 up to which arg D is read from step values
_GRID_PHASE = 0.25 * math.pi

#: rows of Hill's determinant beyond the harmonic nearest sqrt(a)/2 on
#: each side, and Newton steps allowed on the continued fraction
_SEED_ROWS = 40
_NEWTON_STEPS = 60


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


def _harmonic_sum(terms, t_tilde, wave=np.cos):
    """sum of w * wave(n t) over the pairs (n, w) of ``terms``, at scaled
    time(s) ``t_tilde``; a complex scalar for a scalar time."""
    t = np.asarray(t_tilde, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for n, w in terms:
        out += w * wave(n * t)
    if out.ndim == 0:
        return complex(out)
    return out


def evaluate_f(coeffs: SeriesCoefficients, t_tilde):
    """Evaluate the truncated series at scaled time(s) ``t_tilde``."""
    return _harmonic_sum(zip(coeffs.harmonics, coeffs.coefficients), t_tilde)


def evaluate_f_derivative(coeffs: SeriesCoefficients, t_tilde):
    """d f / d t_tilde of the truncated series."""
    terms = ((n, -(n * c)) for n, c in zip(coeffs.harmonics, coeffs.coefficients))
    return _harmonic_sum(terms, t_tilde, np.sin)


def evaluate_f_second_derivative(coeffs: SeriesCoefficients, t_tilde):
    """d**2 f / d t_tilde**2 of the truncated series."""
    terms = ((n, -(n * n * c)) for n, c in zip(coeffs.harmonics, coeffs.coefficients))
    return _harmonic_sum(terms, t_tilde)


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
    t = np.linspace(t_span[0], t_span[1], n)
    vals = _harmonic_sum(residual_coefficients(coeffs).items(), t)
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

    psi = psi0 h0 + dpsi0 h1 of the adaptive basis pass
    (:func:`_basis_pass`) of w2 = p - 2 q cos(2 t).

    Parameters
    ----------
    span : (t0, t1)
        Scaled-time window; t1 may lie before t0.
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
    OutOfRangeError
        If the window is non-finite or has zero length.
    ToleranceNotMetError
        If the integrator fails to converge.
    """
    spec = EffectiveFrequencySpec(u_tilde=params.p, v=2.0 * params.q, drive_omega=2.0)
    basis, _ = _basis_pass(spec, span[0], span[1], tol)
    a, b = init
    mix = np.array([[a, 0.0, b, 0.0], [0.0, a, 0.0, b]], dtype=complex)

    def dense(t):
        return mix @ basis.dense(t)

    grid = np.linspace(span[0], span[1], n_points)
    y = dense(grid)
    return OdeSolution(grid=grid, psi=y[0], psi_dot=y[1], _dense=dense)


# --- Hill-Floquet basis -----------------------------------------------------


@dataclass(frozen=True)
class HillBasis:
    """The Floquet pair of w2 = u~ - v cos(w t): f+(t) = e^{i nu s} p+(t)
    and f-(t) = e^{-i nu s} p-(t), s = t - t', with p+ and p- periodic.

    ``nu`` is the Floquet exponent of f+, with Im nu <= 0: f+ and f- gain
    the multipliers e^{i nu P} and e^{-i nu P} over a drive period P, so
    f+ is the one that grows (or neither does).  ``coefficients`` are the
    Fourier coefficients c_n of p+ (n = -N..N, c_0 = 1, p+ = sum c_n
    e^{i n w t} in absolute time), and p- has them reversed, since
    f-(t) = f+(-t) up to a constant (w2 is even in t).
    :func:`_floquet_parts` evaluates the pair.  ``slope_ratios`` are f+'/f+
    and f-'/f- at t'.

    ``t`` is a uniform grid over the window whose steps span at most
    ``_GRID_PHASE`` of oscillation phase h * ``rate``, and the pair's
    periodic parts are kept there.  Diagnostics:
    ``tail`` is the largest |c_n| / max |c| at the depth of the continued
    fractions, and ``wronskian_residual`` the largest relative change of
    the pair's Wronskian p+ d- - d+ p- on the grid (see
    :func:`_floquet_parts`), which is constant.  Build it with
    :func:`hill_basis`.
    """

    t: np.ndarray
    rate: float
    nu: complex
    slope_ratios: tuple[complex, complex]
    coefficients: np.ndarray
    tail: float
    wronskian_residual: float
    drive_omega: float
    #: (p+, d+, p-, d-) on ``t`` (see :func:`_floquet_parts`)
    _parts: np.ndarray = field(repr=False)

    @property
    def harmonics(self) -> int:
        """Number of Fourier terms of f+."""
        return self.coefficients.size

    @property
    def multiplier(self) -> float:
        """|lambda| = |e^{i nu P}| >= 1 over one drive period P: the
        growth of the faster-growing Floquet solution."""
        return math.exp(abs(self.nu.imag) * 2.0 * math.pi / self.drive_omega)


def _fourier_rows(omega: float, t, depth: int) -> np.ndarray:
    """e^{i n w t} at times ``t`` for n = -depth..depth (rows), shape
    (2 depth + 1, len(t)); the powers of e^{i w t} are running products."""
    z = np.exp(1j * omega * np.asarray(t, dtype=float).reshape(-1))
    rows = np.empty((2 * depth + 1, z.size), dtype=complex)
    rows[depth] = 1.0
    for n in range(depth):
        np.multiply(rows[depth + n], z, out=rows[depth + n + 1])
    np.conjugate(rows[:depth:-1], out=rows[:depth])
    return rows


def _pair_columns(c: np.ndarray, nu: complex, omega: float) -> np.ndarray:
    """Fourier columns of (p+, d+, p-, d-) (see :func:`_floquet_parts`)
    for the coefficients ``c`` of p+, shape (c.size, 4)."""
    k = omega * np.arange(-(c.size // 2), c.size // 2 + 1)
    return np.array([c, 1j * (nu + k) * c, c[::-1], 1j * (k - nu) * c[::-1]]).T


def _floquet_parts(basis: HillBasis, t) -> np.ndarray:
    """(p+, d+, p-, d-) at times ``t``, shape (4, len(t)): the periodic
    parts of the pair and of its slopes, f+' = e^{i nu s} d+ and
    f-' = e^{-i nu s} d-, all bounded; their Wronskian is
    W = f+ f-' - f+' f- = p+ d- - d+ p-."""
    c, omega = basis.coefficients, basis.drive_omega
    return _pair_columns(c, basis.nu, omega).T @ _fourier_rows(omega, t, c.size // 2)


def _hill_seed(u: complex, v: float, omega: float) -> complex:
    """A Floquet exponent of w2 = u - v cos(omega t) from Hill's
    determinant, good enough to start Newton on.

    In Mathieu form (a = 4u/omega^2, q = 2v/omega^2) the exponent
    nu = (omega/2) nu_z solves cos(pi nu_z) = 1 - 2 Delta sin^2(pi sqrt(a)/2),
    Delta the determinant with unit diagonal and q/((2n)^2 - a) beside it
    in row n (Whittaker & Watson §19.42).  A row is singular at
    a = (2n)^2, where the product stays finite; the seed then nudges a,
    and Newton removes the nudge.  Where sin^2 overflows (|Im sqrt(a)|
    beyond about 450), the seed is the drive-free exponent sqrt(u).
    """
    a, q = 4.0 * u / omega**2, 2.0 * v / omega**2
    rows = _SEED_ROWS + math.ceil(0.5 * math.sqrt(abs(a)))
    n2 = 4.0 * np.arange(-rows, rows + 1) ** 2
    if np.min(np.abs(n2 - a)) < 1e-9 * max(1.0, abs(a)):
        a += 1e-7 * max(1.0, abs(a))
    xi = (q / (n2 - a)).tolist()
    before, det = 1.0, 1.0
    for left, right in zip(xi, xi[1:]):
        before, det = det, det - left * right * before
    try:
        cos_pi_nu = 1.0 - 2.0 * det * cmath.sin(0.5 * math.pi * cmath.sqrt(a)) ** 2
    except OverflowError:
        return cmath.sqrt(u)
    return 0.5 * omega * cmath.acos(cos_pi_nu) / math.pi


def _continued_fractions(nu: complex, u: complex, v: float, omega: float, depth: int):
    """(G, dG/dnu, right, left) at ``nu``: ``right`` holds c_n / c_{n-1}
    for n = 1..depth and ``left`` c_{-n} / c_{-n+1}, each from the outward
    continued fraction of (u - (nu + n omega)^2) c_n = (v/2)(c_{n-1} + c_{n+1})
    started at c_{+-(depth+1)} = 0; G is the n = 0 row with c_0 = 1,
    zero at a Floquet exponent."""
    half = 0.5 * v
    g = u - nu * nu
    dg = -2.0 * nu
    sides = []
    for sign in (1.0, -1.0):
        ratio, d_ratio, ratios = 0.0, 0.0, []
        for n in range(depth, 0, -1):
            k = nu + sign * n * omega
            ratio_next = half / (u - k * k - half * ratio)
            d_ratio = -ratio_next * ratio_next / half * (-2.0 * k - half * d_ratio)
            ratio = ratio_next
            ratios.append(ratio)
        g -= half * ratio
        dg -= half * d_ratio
        sides.append(ratios[::-1])
    return g, dg, sides[0], sides[1]


def _floquet_coefficients(u: complex, v: float, omega: float, nu: complex, depth: int):
    """(nu, c): the exponent refined to rounding by Newton on the n = 0
    row, shifted by whole multiples of omega until c_0 is the largest
    coefficient (the continued fractions then run down both decaying
    sides), and c_n for n = -depth..depth with c_0 = 1."""
    step = math.inf
    for _ in range(_NEWTON_STEPS):
        try:
            g, dg, right, left = _continued_fractions(nu, u, v, omega, depth)
            # done once the last step or the row itself is at rounding; near
            # a band edge dG/dnu is small and the steps stall at rounding
            if abs(step) > 4.0 * _HILL_TAIL * (abs(nu) + omega) and abs(g) > (
                16.0 * _HILL_TAIL * (abs(u) + abs(nu) ** 2 + abs(v))
            ):
                step = g / dg
                nu -= step
                continue
        except ZeroDivisionError:
            raise ToleranceNotMetError(
                f"Hill continued fraction singular at nu = {nu:.6e}"
            ) from None
        c = np.concatenate(
            (np.cumprod(left)[::-1], [1.0], np.cumprod(right))
        ).astype(complex)
        mags = np.abs(c)
        centre = int(np.argmax(mags)) - depth
        # a tie within a factor 2 (Re nu at a band edge's multiple of
        # omega/2 makes c_n and c_{-1-n} alike) keeps c_0
        if mags[centre + depth] <= 2.0:
            return nu, c
        nu, step = nu + centre * omega, math.inf
    raise ToleranceNotMetError(
        f"the Floquet exponent did not converge in {_NEWTON_STEPS} Newton steps"
        f" (nu ~ {nu:.6e}); the drive is at or near a band edge"
    )


def hill_basis(spec: EffectiveFrequencySpec, window: tuple[float, float]) -> HillBasis:
    """The Floquet pair of ``spec`` over ``window``, with no adaptive pass.

    nu is seeded from Hill's determinant (:func:`_hill_seed`), refined on
    the continued fraction and centred (:func:`_floquet_coefficients`);
    the continued fractions deepen until the coefficient tail is below
    rounding.  f-(t) = f+(-t) (w2 is even in t), and nu takes the sign
    with Im nu <= 0.  There is no tolerance: the series is as exact as
    rounding allows, and the checks below refuse it where it is not.

    Raises
    ------
    ToleranceNotMetError
        If the tail is still above rounding at ``_MAX_HARMONICS``
        harmonics on each side, Newton does not converge, or the pair's
        Wronskian on the grid moves by more than ``_HILL_WRONSKIAN_ATOL``
        of its value (near a band edge f+ and f- coincide, and for the
        free particle they are equal).
    """
    t0, t1 = window
    u, v, omega = complex(spec.u_tilde), float(spec.v), float(spec.drive_omega)
    rate = max(math.sqrt(spec.peak_stiffness(t0, t1)), 1.0 / (t1 - t0))
    grid = np.linspace(t0, t1, max(1, math.ceil((t1 - t0) * rate / _GRID_PHASE)) + 1)
    if v == 0.0:
        nu, c, tail = cmath.sqrt(u), np.ones(1, dtype=complex), 0.0
    else:
        nu, depth = _hill_seed(u, v, omega), min(_FIRST_DEPTH, _MAX_HARMONICS)
        while True:
            nu, c = _floquet_coefficients(u, v, omega, nu, depth)
            mags = np.abs(c)
            tail = float(max(mags[0], mags[-1]) / mags[depth])
            if tail <= _HILL_TAIL:
                break
            if depth >= _MAX_HARMONICS:
                raise ToleranceNotMetError(
                    f"Hill series tail {tail:.3e} above rounding at"
                    f" {_MAX_HARMONICS} harmonics on each side"
                )
            depth = min(2 * depth, _MAX_HARMONICS)
        kept = int(np.max(np.abs(np.nonzero(mags > _HILL_TAIL * mags[depth])[0] - depth)))
        c = c[depth - kept: depth + kept + 1]
    if nu.imag > 0.0:
        nu, c = -nu, c[::-1]
    nu = complex(nu)
    parts = _pair_columns(c, nu, omega).T @ _fourier_rows(omega, grid, c.size // 2)
    p_plus, d_plus, p_minus, d_minus = parts
    wronskian = p_plus * d_minus - d_plus * p_minus
    scale = abs(wronskian[0])
    residual = float(np.max(np.abs(wronskian - wronskian[0]))) / scale if scale else math.inf
    if not residual <= _HILL_WRONSKIAN_ATOL:
        raise ToleranceNotMetError(
            f"Hill pair Wronskian moves by {residual:.3e} of its value on its"
            " grid; the Floquet solutions are too close to degenerate"
        )
    return HillBasis(
        t=grid, rate=rate, nu=nu, coefficients=c, tail=tail, wronskian_residual=residual,
        slope_ratios=(complex(d_plus[0] / p_plus[0]), complex(d_minus[0] / p_minus[0])),
        drive_omega=omega, _parts=parts,
    )


def _basis_pass(spec, t0: float, t1: float, tol: float):
    """(basis, rate): the basis (h0, h0', h1, h1'), unit value and unit
    slope at t0, from one adaptive DOP853 pass from t0 to t1 (either way);
    rate max(sqrt(max |w2|), 1/|t1 - t0|) over the window.  ``spec``
    needs only ``w_squared`` and ``peak_stiffness``.

    Raises
    ------
    OutOfRangeError
        If the window is non-finite or has zero length.
    ToleranceNotMetError
        If the integrator gives up.
    """
    length = abs(t1 - t0)
    if not 0.0 < length < math.inf:
        raise OutOfRangeError(
            f"window ({t0}, {t1}) must be finite with nonzero length", field="span"
        )
    rate = max(math.sqrt(spec.peak_stiffness(min(t0, t1), max(t0, t1))), 1.0 / length)

    def rhs(t, y):
        w2 = spec.w_squared(t)
        h0, dh0, h1, dh1 = y.tolist()
        return [dh0, -w2 * h0, dh1, -w2 * h1]

    init = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    scales = np.array([1.0, rate, min(length, 1.0 / rate), 1.0])
    return solve_complex_ivp(rhs, (t0, t1), init, rtol=tol, atol=tol * 1e-3 * scales), rate
