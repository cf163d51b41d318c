"""Brute-force time-sliced evaluation of the restricted propagator.

This module is the package's independent referee.  It never touches the
ODE machinery: the propagator is written as an (N-1)-dimensional complex
Gaussian integral over the positions at the interior time slices and
reduced exactly, so the only error is the O(eps**2) discretization error
of the sliced action, which Richardson extrapolation then estimates and
removes.

Discrete action on x_0 = x', x_N = x'' with eps = T/N (midpoint rule;
w2, F and the record are sampled at t_k + eps/2):

    S_N = sum_k [ m (x_{k+1} - x_k)^2 / (2 eps)
                  - eps (m/2) w2_k (x_k^2 + x_{k+1}^2)/2
                  + eps F_k (x_k + x_{k+1})/2 ]

The symmetric attachment of the potential and drive to both slice ends
is what makes the error genuinely O(eps**2).

Collecting interior coordinates y: S_N = (1/2) y^T P y + b^T y + c with
P tridiagonal, P_jj = (m/eps) (2 - e_j), e_j = eps^2 (w_{j-1} + w_j)/2,
off-diagonal -m/eps.  Sequential elimination of the quadratic form gives
dimensionless pivots delta_j = p_j/p_{j-1}, the ratios of the leading
minors of Q = P eps/m, which follow the increment form

    s_j = s_{j-1} - e_j p_{j-1},   p_j = p_{j-1} + s_j,   s_0 = p_0 = 1

(the discrete determinant recurrence p_j = (2 - e_j) p_{j-1} - p_{j-2})
and the log-amplitude

    log K = (1/2) Log(m / (2 pi i hbar eps)) - (1/2) sum_j Log delta_j
            + (i/hbar) c - (i/(2 hbar)) b^T P^{-1} b
            - (2/(T da^2)) * eps * sum_k a_k^2,

the last line being the record-norm weight at the same midpoints.  All
per-pivot logs are principal; the pivot product is never formed.  The
minors, and then b^T P^{-1} b, come from compiled banded triangular
solves (BLAS ``ztbsv``) over chunks of fixed length (``_CHUNK``), so no
per-slice Python loop runs.  Each chunk samples w2 and the record at its
own midpoints and writes its increments and b into reused buffers, so no
array the length of the lattice is formed and a call's working memory is
O(``_CHUNK``) at any N (~1.1 MB traced from 2^16 to 2^20 slices).  The
entries 2 - e_j are never formed, so e_j ~ eps^2 keeps all its digits
on fine lattices.  b^T P^{-1} b, which carries no branch, reuses the
same pivots: P = (m/eps) L D L^T with D = diag(delta_j), so it is the
forward substitution of the Thomas recurrence, with a tiny pivot and the
next one taken as a 2x2 block (within ~3e-11 of a long-double solve
in log K at 2^20 slices on the benchmark's validate-ladder scenarios).

:func:`periodic_propagator` evaluates the same integral on a lattice
tied to the drive period, for windows of millions of periods.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadGridError, ConfigError, SingularSliceError, ToleranceNotMetError
from .propagator import PropagatorInputs, _check_windows_consistent, _nearest_branch
from .records import check_spans_window, record_forcing_scale
from .trapmodel import effective_frequency, whole_periods

#: pivot magnitudes below this, relative to the slice scale 2, are a
#: discrete caustic
_PIVOT_RTOL = 1e-12

#: pivots per chunk of the elimination; it bounds the elimination's
#: working memory at any lattice size (~1.1 MB traced at 2^16 slices).
#: Interleaved in one process on validate-ladder scenarios, the ladder
#: of 2^12..2^16 slices ran fastest at 4096: 2-5% slower at 8192 (2.2 MB),
#: 10-14% slower at 16384 (4.2 MB) and 9-11% slower at 2048, where the
#: per-run Python work starts to show (first quartiles of two runs).
#: The pivot-log and quadratic-form sums are taken per chunk, so the
#: chunk length moves a longer lattice's value by rounding units
_CHUNK = 4096

#: a pivot below this magnitude is eliminated together with the next one
#: as a 2x2 block, which keeps the quadratic form's digits next to it
_TINY_PIVOT = 1e-4

#: a run of pivots whose end minor leaves this magnitude range is halved
_MINOR_RANGE = (1e-280, 1e280)

#: most log growth g of the homogeneous solutions over a drive-periodic
#: window: the transfer block's power loses about e^g rounding units,
#: and this bound keeps that below 1e-6
_MAX_GROWTH = math.log(1e-6 / np.finfo(float).eps)


@dataclass(frozen=True)
class SlicedLattice:
    """Uniform slicing of the window into N intervals.

    N must be a power of two so lattices chain into Richardson pairs
    (N, 2N) without remapping.
    """

    t_start: float
    t_end: float
    n_slices: int

    def __post_init__(self):
        if self.n_slices < 2 or self.n_slices & (self.n_slices - 1):
            raise BadGridError(
                f"n_slices must be a power of two >= 2, got {self.n_slices}",
                field="numerics.oracle_n",
            )
        if not self.t_end > self.t_start:
            raise BadGridError("window must have positive duration", field="window")

    @property
    def epsilon(self) -> float:
        return (self.t_end - self.t_start) / self.n_slices

    @property
    def midpoints(self) -> np.ndarray:
        return self.midpoints_between(0, self.n_slices)

    def midpoints_between(self, lo: int, hi: int) -> np.ndarray:
        """The midpoints of slices lo..hi-1 (numbered from 0)."""
        return self.t_start + (np.arange(lo, hi) + 0.5) * self.epsilon


def _eliminate(inc: np.ndarray, b: np.ndarray):
    """Log-pivot sum and b^T Q^-1 b for Q = tridiag(-1, 2 - e_j, -1).

    inc holds the increments e_j; the caller's matrix is P = (m/eps) Q,
    and the m/eps scale stays with the caller.  Returns (sum of Log
    pivots, b^T Q^-1 b).  It runs :func:`_scan`, the elimination of
    :func:`discrete_propagator`, on chunks copied from ``inc`` and ``b``,
    so its callers see the same banded solves, runs, 2x2 blocks and
    chunk boundaries as the oracle.
    """

    def fill(lo, hi, e, b_chunk):
        e[:] = inc[lo:hi]
        b_chunk[:] = b[lo:hi]

    return _scan(inc.size, fill)


def _pair(w, p0, p1, p2, e1, b1):
    """A tiny pivot k and pivot k + 1 as one 2x2 block of the Thomas solve.

    ``w`` is w_k, ``p0``, ``p1``, ``p2`` the minors p_{k-1}, p_k, p_{k+1},
    and ``e1``, ``b1`` are e_{k+1}, b_{k+1}.  Returns the block's part of
    the quadratic form, w_k^2/delta_k + w_{k+1}^2/delta_{k+1}, and the
    carry u_{k+1} = w_{k+1}/delta_{k+1}.  With delta_j = p_j/p_{j-1} and
    p_{k+1} + p_{k-1} = (2 - e_{k+1}) p_k, neither holds a 1/delta_k.
    """
    wp = w * p0
    return (wp * (w * (2.0 - e1) + 2.0 * b1) + b1 * b1 * p1) / p2, (b1 * p1 + wp) / p2


def _scan(n: int, fill):
    """Log-pivot sum and b^T Q^-1 b over ``n`` pivots, ``_CHUNK`` at a time.

    ``fill(lo, hi, e, b)`` writes the increments e_j and the entries b_j
    of pivots lo + 1..hi into ``e`` and ``b``, views of the buffers that
    every chunk reuses, so the elimination's working memory is
    O(``_CHUNK``) at any n.  The chunk's pivots are eliminated in runs,
    each a pair of compiled banded triangular solves (BLAS ``ztbsv``):

    1. the leading minors p_j of Q, in increment form: unknowns
       (s_a, p_a, s_{a+1}, p_{a+1}, ...) of a unit lower band of width 2,
       s_j = s_{j-1} - e_j p_{j-1} and p_j = p_{j-1} + s_j, from the
       minors the last run left, rescaled so that p_a = 1.  No entry
       2 - e_j is formed, so e_j ~ eps^2 keeps all its digits.  The pivots
       are delta_j = p_j/p_{j-1}, so their principal logs telescope across
       a near-caustic pair: Re sum Log delta_j = log |p_end / p_a|, and
       Im sum Log delta_j is the sum of atan2(0 - Im(1/delta_j),
       Re(1/delta_j)), whose 0 - turns a zero imaginary part into +0 and
       so gives a real negative pivot Arg +pi;
    2. b^T Q^-1 b from Q = L D L^T, D = diag(delta_j): the Thomas forward
       substitution w_j = b_j + w_{j-1}/delta_{j-1}, a unit lower band of
       width 1, and sum_j w_j^2/delta_j.

    The first pivot with |delta| < 2 ``_PIVOT_RTOL`` (a discrete caustic)
    raises SingularSliceError with its index; it is the only singularity
    check.  A run whose end minor leaves ``_MINOR_RANGE`` or is not
    finite (slices of many radians grow the minors by |e| per pivot) is
    halved and run again.  The solve of step 2 does not pivot rows, and
    next to a pivot of size |delta| it would lose digits in proportion to
    1/|delta|; a row-pivoted solve needs the formed diagonal 2 - e_j,
    whose rounding put it ~1e-7 off in log K at 2^20 slices.  So a pivot
    below ``_TINY_PIVOT`` is eliminated with the next one as a 2x2 block
    (:func:`_pair`), whose terms hold no 1/delta_k, and the substitution
    restarts after it; a tiny pivot that ends a run hands its w_k to the
    next run, whose minors are rescaled to p_{k-1} = 1 for it.  Next to
    |delta| = 1e-9 the quadratic form then stays within ~1e-14 of a
    40-digit solve at any chunking (the unpivoted solve was 7e-11 to
    1.2e-9 off, depending on the problem).
    """
    from scipy.linalg.blas import ztbsv  # the oracle alone loads scipy.linalg

    size = min(n, _CHUNK)
    # one allocation for the four buffers, which the allocator then reuses
    # from call to call rather than mapping fresh pages each time; the
    # bands' fixed entries are -1
    work = np.full(11 * size + 8, -1.0 + 0j)
    minors, x, thomas, b = np.split(work, [6 * size + 6, 8 * size + 8, 10 * size + 8])
    # unknowns s_j, p_j in columns 2j, 2j + 1 of a unit lower band, and
    # e_j in row 1 of column 2j - 1, below p_{j-1}
    minors = minors.reshape((3, 2 * size + 2), order="F")
    e = minors[1, 1::2]
    # a unit lower band with -1/delta_j below the diagonal; b is solved in
    # place
    thomas = thomas.reshape((2, size), order="F")
    log_mod = log_arg = 0.0
    quad = 0j
    s = p = 1.0 + 0j  # the minors p_0 = 1 and s_0 = p_0 - p_-1
    u = 0j  # w_1 = b_1 + u
    pending = None  # w_k of a tiny pivot k that ended the last run
    for lo in range(0, n, _CHUNK):
        c = min(_CHUNK, n - lo)
        fill(lo, lo + c, e[:c], b[:c])
        a, span = 0, c
        # an exact zero pivot divides by zero: the screen names it
        with np.errstate(divide="ignore", invalid="ignore"):
            while a < c:
                m = min(span, c - a)
                col, end = 2 * a + 1, 2 * (a + m) + 1  # the columns of p_a, p_{a+m}
                x[col], x[col + 1] = p, s
                x[col + 2 : end + 1] = 0.0
                ztbsv(2, minors[:, col : end + 1], x, offx=col, lower=1, diag=1, overwrite_x=1)
                p_end, s_end = complex(x[end]), complex(x[end - 1])
                if m > 1 and not _MINOR_RANGE[0] < abs(p_end) < _MINOR_RANGE[1]:  # or NaN
                    span = m // 2
                    continue
                mins = x[col : end + 1 : 2]  # p_a .. p_{a+m}
                inv = np.divide(mins[:-1], mins[1:])  # 1/delta_j
                mag = np.abs(inv)
                high = mag.max()
                if not high <= 0.5 / _PIVOT_RTOL:  # NaN fails this too
                    i = int(np.argmin(mag <= 0.5 / _PIVOT_RTOL))
                    raise SingularSliceError(
                        f"elimination pivot {lo + a + i + 1} of {n} underflowed:"
                        f" {mins[i + 1] / mins[i]:.3e}"
                    )
                np.negative(inv, out=thomas[1, a : a + m])
                log_mod += math.log(abs(p_end)) - math.log(abs(p))
                # Arg delta = -Arg(1/delta); 0 - Im makes a zero imaginary part +0
                log_arg += float(np.arctan2(0.0 - inv.imag, inv.real).sum())
                i = 0  # the first pivot of the run that the substitution has not reached
                if pending is not None:
                    term, u = _pair(pending, 1.0, mins[0], mins[1], e[a], b[a])
                    quad += term
                    i, pending = 1, None
                tiny = np.flatnonzero(mag * _TINY_PIVOT > 1.0) if high * _TINY_PIVOT > 1.0 else ()
                # the last pivot has no partner for a 2x2 block
                for k in [k for k in tiny if lo + a + k + 1 < n] + [m]:
                    if k < i:
                        continue
                    if k > i:  # the substitution over pivots i..k-1, in place of b
                        b[a + i] += u
                        band = thomas[:, a + i : a + k]
                        ztbsv(1, band, b, offx=a + i, lower=1, diag=1, overwrite_x=1)
                        terms = b[a + i : a + k] * inv[i:k]  # u_j = w_j/delta_j
                        u = terms[-1]
                        terms *= b[a + i : a + k]
                        quad += terms.sum()
                    if k == m:
                        break
                    w = b[a + k] + u
                    if k == m - 1:
                        pending = w
                        break
                    term, u = _pair(w, *mins[k : k + 3], e[a + k + 1], b[a + k + 1])
                    quad += term
                    i = k + 2
                # the next run starts from p = 1, or from p_{k-1} = 1 for a pending block
                scale = p_end if pending is None else mins[m - 1]
                s, p = s_end / scale, p_end / scale
                a += m
    return complex(log_mod, log_arg), complex(quad)


def discrete_propagator(inputs: PropagatorInputs, n_slices: int) -> complex:
    """Log-amplitude of the sliced restricted propagator.

    w2, F and the record are read at the slice midpoints (the O(eps**2)
    rule of the module docstring).  The set-up is streamed: each chunk of
    pivots samples its own midpoints and writes its increments and b
    straight into the elimination's buffers (see :func:`_scan`), so no
    array the length of the lattice is formed and the call's working
    memory is O(``_CHUNK``) at any N (``_CHUNK`` says how its length was
    chosen).  The record norm sum_k a_k^2 is
    summed chunk by chunk, which may move it by a rounding unit from a
    sum over all N samples at once; a lattice of at most ``_CHUNK`` + 1
    slices is one chunk and sums it at once.

    Raises
    ------
    ConfigError
        If the boundary window is not the measurement window.
    RecordWindowError
        If the record does not span the measurement window.
    SingularSliceError
        On a discrete caustic.
    """
    _check_windows_consistent(inputs.bc, inputs.meas)
    check_spans_window(inputs.record, inputs.meas)
    lat = SlicedLattice(inputs.bc.t_start, inputs.bc.t_end, n_slices)
    params = inputs.params
    m, hbar = params.mass, params.hbar
    eps = lat.epsilon
    spec = effective_frequency(inputs.coeffs, inputs.meas, params)
    force = -1j * record_forcing_scale(inputs.meas, params)  # F_k = force * a_k
    inc_scale, b_scale = 0.5 * eps**2, 0.5 * eps * force
    xa, xb = inputs.bc.x_start, inputs.bc.x_end
    last = n_slices - 1
    ends = {}  # w and a at the first and the last midpoint
    norms = []  # sum_k a_k^2, chunk by chunk

    def fill(lo, hi, inc, b):
        # pivots lo + 1..hi couple the midpoints lo..hi
        ts = lat.midpoints_between(lo, hi + 1)
        w = spec.w_squared(ts)
        a = inputs.record(ts)
        np.add(w[:-1], w[1:], out=inc)
        inc *= inc_scale
        np.add(a[:-1], a[1:], out=b)
        b *= b_scale
        if lo == 0:
            ends["first"] = w[0], a[0]
            b[0] -= (m / eps) * xa
        if hi == last:
            ends["last"] = w[-1], a[-1]
            b[-1] -= (m / eps) * xb
        else:
            a = a[:-1]  # midpoint hi is the next chunk's first
        norms.append(float(np.dot(a, a)))

    log_sum, quad_scaled = _scan(last, fill)
    # quad_scaled is b^T Q^{-1} b with Q = tridiag(-1, 2 - e, -1); P = (m/eps) Q
    quad = (eps / m) * quad_scaled
    (w_first, a_first), (w_last, a_last) = ends["first"], ends["last"]
    c = (
        m / (2.0 * eps) * (xa**2 + xb**2)
        - eps * (m / 4.0) * (w_first * xa**2 + w_last * xb**2)
        + (eps / 2.0) * force * (a_first * xa + a_last * xb)
    )

    log_k = (
        0.5 * cmath.log(m / (2.0j * math.pi * hbar * eps))
        - 0.5 * log_sum
        + 1j * c / hbar
        - 0.5j * quad / hbar
    )
    # the record-norm weight, discretized at the same sample times
    rec_term = -inputs.meas.weight_rate * eps * sum(norms)
    return complex(log_k + rec_term)


def richardson(v_n: complex, v_2n: complex) -> tuple[complex, float]:
    """One O(eps**2) Richardson step on a (N, 2N) pair of log-amplitudes.

    Returns the extrapolated value (4 v_2N - v_N)/3 and the error
    estimate |v_2N - v_N|/3 (the magnitude of the correction applied).
    """
    extr = (4.0 * v_2n - v_n) / 3.0
    return extr, abs(v_2n - v_n) / 3.0


# --- drive-periodic lattice ---------------------------------------------------


def _verlet_block(eps: float, w: np.ndarray, force: complex, mass: float):
    """One block of uniform slices as a map of (x, u, 1, J).

    Each slice is a velocity-Verlet step: half kick, drift, half kick,
    with the kicks (eps/2)(-w_k x + F/m).  Composed over slices the
    kicks add up to the node terms of the midpoint action above, so the
    positions x_k are exactly the stationary path of S_N, and
    J = sum_k eps F (x_k + x_{k+1})/2 is its drive term.  The state is
    advanced by increments (x <- x + eps v), never by forming matrix
    entries such as 1 - eps**2 w/2, whose rounding would shift every
    period by the same amount and so grow linearly over many periods.

    Returns the 4x4 map (columns: unit position, unit velocity, the
    forced path from rest, the accumulator) and the node positions of
    the two homogeneous columns.
    """
    kicks = (0.5 * eps * w).tolist()
    push = 0.5 * eps * force / mass
    weight = 0.5 * eps * force
    cols, paths = [], []
    for x, u, p in ((1.0 + 0j, 0j, 0j), (0j, 1.0 + 0j, 0j), (0j, 0j, push)):
        path = [x]
        acc = 0j
        for k in kicks:
            v = u - k * x + p
            x_next = x + eps * v
            u = v - k * x_next + p
            acc += x + x_next
            x = x_next
            path.append(x)
        cols.append((x, u, weight * acc))
        paths.append(path)
    (x0, u0, j0), (x1, u1, j1), (xp, up, jp) = cols
    block = np.array(
        [[x0, x1, xp, 0.0], [u0, u1, up, 0.0], [0.0, 0.0, 1.0, 0.0], [j0, j1, jp, 1.0]],
        dtype=complex,
    )
    return block, np.array(paths[:2], dtype=complex)


def _arg_steps(x: np.ndarray) -> float:
    """sum_k Arg(x_{k+1} / x_k): the pivot phases of the elimination."""
    return float(np.sum(np.angle(x[1:] / x[:-1])))


def periodic_propagator(inputs: PropagatorInputs, slices_per_period: int) -> complex:
    """Log-amplitude of the sliced propagator on a drive-periodic lattice.

    The window is cut into N whole drive periods of K slices each
    (eps = P/K) and a trailing partial period r of K_r uniform slices,
    K_r = ceil(16 r/P) K/16, so the remainder step is at most eps and
    halves with it: (K, 2K) is an O(eps**2) Richardson pair as in
    :func:`richardson`.  w2 and the record are sampled at slice
    midpoints of the first period and of the remainder; a constant
    record keeps the drive periodic, so every whole period is the same
    transfer block.

    The Gaussian integral is the one of :func:`discrete_propagator`,
    written through its stationary point.  With D_k the positions of the
    path with x_0 = 0, x_1 = eps_0 (the leading minors of P, times
    prod eps_k / m**k), the pivots are (m/eps_k) D_{k+1}/D_k and

        log K = (1/2) log(m / (2 pi hbar |D_n|)) - (i/2)(pi/2 + Theta)
                + (i/hbar) S_N[x*] + record term,

    Theta = sum_k Arg(D_{k+1}/D_k), S_N[x*] = (m/2)[x u] + J/2 on the
    stationary path (u the node velocity of the Verlet steps).  Each
    Arg lies in [0, pi] when Im w2 <= 0, and their sum over a stretch of
    the lattice is a continuous function of the slope ratio z = u/x at
    its start on the upper half plane.  So the sum over the N - 1 periods
    after the first and the remainder is the Floquet solution's
    (N - 1) mu + mu_r plus the principal arg of the ratio of the two
    end positions, which are affine in z; it is never summed period by
    period.  The transfer block is raised to the power N - 1 instead.

    Reads only samples of w2 and of the record; no ODE is solved.

    Raises
    ------
    BadGridError
        If K is not a power of two >= 16.
    ConfigError
        If the boundary window is not the measurement window, or the
        record is not constant.
    RecordWindowError
        If the record does not span the measurement window.
    SingularSliceError
        If D_n vanishes at the scale of the window (a discrete caustic)
        or no Floquet solution has Im z > 0.
    ToleranceNotMetError
        If the window holds a whole period and the lattice's homogeneous
        solutions grow by e^g with g > ``_MAX_GROWTH`` (about 22.2) over
        it, g from the transfer block's Floquet multiplier: the block's
        power loses about e^g rounding units, more than 1e-6.
    """
    _check_windows_consistent(inputs.bc, inputs.meas)
    check_spans_window(inputs.record, inputs.meas)
    k = slices_per_period
    if k < 16 or k & (k - 1):
        raise BadGridError(
            f"slices_per_period must be a power of two >= 16, got {k}",
            field="numerics.oracle_n",
        )
    rec = inputs.record
    if np.any(rec.samples != rec.samples[0]):
        raise ConfigError(
            "the drive-periodic lattice needs a constant record", field="record.kind"
        )
    params = inputs.params
    m, hbar = params.mass, params.hbar
    spec = effective_frequency(inputs.coeffs, inputs.meas, params)
    scale = record_forcing_scale(inputs.meas, params)
    t0 = inputs.bc.t_start
    period = 2.0 * math.pi / params.drive_omega
    n_periods, rem = whole_periods(inputs.bc.duration, params.drive_omega)
    eps = period / k
    k_rem = math.ceil(16.0 * rem / period) * (k // 16) if rem > 0.0 else 0

    ts = t0 + (np.arange(k) + 0.5) * eps
    a = rec(ts)
    force = complex(-1j * scale * a[0])
    rec_sum = n_periods * eps * float(np.sum(a * a))
    tail = np.eye(4, dtype=complex)
    if k_rem:
        eps_r = rem / k_rem
        ts_r = t0 + (np.arange(k_rem) + 0.5) * eps_r
        a_r = rec(ts_r)
        rec_sum += eps_r * float(np.sum(a_r * a_r))
        tail, tail_paths = _verlet_block(eps_r, spec.w_squared(ts_r), force, m)

    if n_periods == 0:
        total = tail
        d = tail_paths[1]
        theta = _arg_steps(d[1:])
        log_top = math.log(float(np.max(np.abs(d))))
    else:
        block, paths = _verlet_block(eps, spec.w_squared(ts), force, m)
        d = paths[1]
        theta_first = _nearest_branch(_arg_steps(d[1:]), cmath.phase(block[0, 1]))
        # the Floquet solution whose slope ratio lies in the upper half plane
        lams, vecs = np.linalg.eig(block[:2, :2])
        ratios = vecs[1] / vecs[0]
        pick = int(np.argmax(ratios.imag))
        lam, z_star = complex(lams[pick]), complex(ratios[pick])
        if not z_star.imag > 0.0:
            raise SingularSliceError(
                "no Floquet solution of the lattice has Im(u/x) > 0"
            )
        growth = abs(math.log(abs(lam))) * inputs.bc.duration / period
        if growth > _MAX_GROWTH:
            raise ToleranceNotMetError(
                f"the lattice's solutions grow by e^{growth:.1f} over the window;"
                f" the transfer-block power resolves at most e^{_MAX_GROWTH:.1f}"
            )
        mu = _nearest_branch(
            _arg_steps(paths[0] + z_star * paths[1]), cmath.phase(lam)
        )
        mu_r = 0.0
        if k_rem:
            f_rem = tail_paths[0] + z_star * tail_paths[1]
            mu_r = _nearest_branch(_arg_steps(f_rem), cmath.phase(f_rem[-1]))
        rest = tail @ np.linalg.matrix_power(block, n_periods - 1)
        z_first = block[1, 1] / block[0, 1]
        end_first = rest[0, 0] + rest[0, 1] * z_first
        end_star = rest[0, 0] + rest[0, 1] * z_star
        theta = (
            theta_first + (n_periods - 1) * mu + mu_r
            + cmath.phase(end_first / end_star)
        )
        total = rest @ block
        log_top = math.log(float(np.max(np.abs(d)))) + n_periods * abs(
            math.log(abs(lam))
        )

    d_end = complex(total[0, 1])
    if d_end == 0 or math.log(abs(d_end)) < math.log(_PIVOT_RTOL) + log_top:
        raise SingularSliceError(
            f"D_n = {d_end:.3e} against window scale {math.exp(log_top):.3e}"
        )
    xa, xb = inputs.bc.x_start, inputs.bc.x_end
    u_start = (xb - total[0, 0] * xa - total[0, 2]) / d_end
    u_end = total[1, 0] * xa + total[1, 1] * u_start + total[1, 2]
    drive = total[3, 0] * xa + total[3, 1] * u_start + total[3, 2]
    action = 0.5 * m * (xb * u_end - xa * u_start) + 0.5 * drive
    log_k = (
        0.5 * math.log(m / (2.0 * math.pi * hbar * abs(d_end)))
        - 0.5j * (0.5 * math.pi + theta)
        + 1j * action / hbar
    )
    return complex(log_k - inputs.meas.weight_rate * rec_sum)
