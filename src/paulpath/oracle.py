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
dimensionless pivots delta_j = 1 + r_j, in increment form

    r_1 = 1 - e_1,   r_j = r_{j-1}/(1 + r_{j-1}) - e_j,

(the discrete determinant recurrence delta_j = 2 - e_j - 1/delta_{j-1})
and the log-amplitude

    log K = (1/2) Log(m / (2 pi i hbar eps)) - (1/2) sum_j Log delta_j
            + (i/hbar) c - (i/(2 hbar)) b^T P^{-1} b
            - (2/(T da^2)) * eps * sum_k a_k^2,

the last line being the record-norm weight at the same midpoints.  All
per-pivot logs are principal; the pivot product is never formed.  The
pivots come from a blocked scan of the increment form, in vectorised
passes over chunks of fixed length (``_CHUNK``), so no per-slice Python
loop runs and the elimination's temporaries do not grow with N.  The
entries 2 - e_j are never formed, so e_j ~ eps^2 keeps all its digits
on fine lattices.  b^T P^{-1} b, which carries no branch, reuses the
same pivots: P = (m/eps) L D L^T with D = diag(delta_j), so it is the
forward substitution of the Thomas recurrence, run in the same blocks
(within ~3e-11 of a long-double solve in log K at 2^20 slices on the
benchmark's validate-ladder scenarios).

:func:`periodic_propagator` evaluates the same integral on a lattice
tied to the drive period, for windows of millions of periods.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadGridError, ConfigError, SingularSliceError, ToleranceNotMetError
from .propagator import PropagatorInputs, _nearest_branch
from .records import record_forcing_scale
from .trapmodel import effective_frequency, whole_periods

#: pivot magnitudes below this, relative to the slice scale 2, are a
#: discrete caustic
_PIVOT_RTOL = 1e-12

#: pivots per block of the blocked elimination scan
_BLOCK = 32

#: pivots per chunk of the blocked elimination scan; it bounds the
#: elimination's temporaries on fine lattices, and keeps them in cache
_CHUNK = 16384

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
        eps = self.epsilon
        return self.t_start + (np.arange(self.n_slices) + 0.5) * eps


def _chunk_eliminate(inc: np.ndarray, b: np.ndarray, z: complex, u: complex, first: int, n: int):
    """Log pivots and the quadratic form over one chunk, by a blocked scan.

    ``z`` = s/p and ``u`` = w/delta are the chain states before the
    chunk's first pivot, which is pivot ``first + 1`` of ``n``; returns
    (sum of Log pivots, sum of w_j^2/delta_j, z and u after the chunk).
    The pivots delta_j = 1 + r_j follow the linear recurrence
    s_j = s_{j-1} - e_j p_{j-1}, p_j = p_{j-1} + s_j (p_j the j-th leading
    minor, r_j = s_j / p_{j-1}, z_j = s_j / p_j).  The chunk is cut into
    blocks of ``_BLOCK`` pivots, and four passes replace the per-pivot
    Python loop:

    1. the linear state steps through all blocks at once, column by
       column, from the unit states (1, 0) and (0, 1): each block's 2x2
       map, rescaled every 16 columns against overflow (a block map acts
       on z = s/p as a Moebius map, which ignores a common scale);
    2. the maps chain over the blocks as Python complex numbers, giving
       the true z at each block's start;
    3. the increment recurrence r_j = z_{j-1} - e_j, z_j = r_j/(1 + r_j)
       runs in every block at once from those starts, and beside it the
       forward substitution of Q = L D L^T, D = diag(delta_j):
       w_j = b_j + u_{j-1}, u_j = w_j/delta_j, from u = 0 at each block's
       start.  1/delta_j is taken as 1/(1 + r_j); 1 - z_j would cancel
       where |delta_j| is large;
    4. u is affine in its value at a block's start, with slope the
       product of the block's 1/delta_j, so the starts chain as in pass
       2; w and u then re-run in every block from the true starts, and
       b^T Q^-1 b is the pairwise sum of w_j u_j.

    No entry 1 - e or 2 - e is formed, so eps^2 w keeps all its digits.
    Each principal Log delta_j is 0.5 log1p(2 Re r + |r|^2) +
    i atan2(Im r, 1 + Re r): the branch of log K lives in these per-pivot
    logs, and the pivot product is never formed.  Where |1 + r| < 1/2,
    1 + Re r is exact (Sterbenz) and log |1 + r|^2 is taken from it, so
    pivots near a discrete caustic keep their relative accuracy.
    """
    c = inc.size
    length = min(_BLOCK, c)
    blocks = -(-c // length)
    # zeros pad the last block past the chunk's end; e[j, k] is e at pivot
    # j of block k, and w holds b there, then w in place
    padded = np.zeros((2, blocks * length), dtype=complex)
    padded[0, :c], padded[1, :c] = inc, b
    e, w = padded.reshape(2, blocks, length).transpose(0, 2, 1)
    state = np.zeros((2, 2, blocks), dtype=complex)  # (p or s, column, block)
    state[0, 0] = state[1, 1] = 1.0
    p, s = state
    kick = np.empty_like(p)
    for j, col in enumerate(e):
        np.multiply(col, p, out=kick)
        s -= kick
        p += s
        if j % 16 == 15:
            state /= np.abs(state).max(axis=(0, 1))
    p0, p1, s0, s1 = (x.tolist() for x in (p[0], p[1], s[0], s[1]))
    starts = []
    for k in range(blocks):
        starts.append(z)
        den = p0[k] + z * p1[k]
        # an exact zero pivot ends this block: the screen below names it
        z = (s0[k] + z * s1[k]) / den if den else complex("nan")
    z_run = np.array(starts)
    r = np.empty((length, blocks), dtype=complex)
    inv = np.empty_like(r)
    u_part = np.zeros(blocks, dtype=complex)
    # after an exact zero pivot the recurrence divides by zero and runs
    # on NaN, and near a caustic log1p may see -1 or less: the screen
    # and the exact branch below deal with both
    with np.errstate(divide="ignore", invalid="ignore"):
        for col, b_col, r_col, inv_col in zip(e, w, r, inv):
            np.subtract(z_run, col, out=r_col)
            np.add(r_col, 1.0, out=inv_col)
            np.reciprocal(inv_col, out=inv_col)
            np.multiply(r_col, inv_col, out=z_run)
            u_part += b_col
            u_part *= inv_col
        pad = c - (blocks - 1) * length
        r[pad:, -1] = 0.0  # the padding's pivots are 1
        re, im = r.real, r.imag
        x = 1.0 + re
        im2 = im * im
        mag2 = x * x + im2
        low = mag2.min()
        if not low >= (2.0 * _PIVOT_RTOL) ** 2:  # NaN fails this too
            j, k = np.divmod(np.flatnonzero(~(mag2 >= (2.0 * _PIVOT_RTOL) ** 2)), blocks)
            i = np.argmin(k * length + j)
            raise SingularSliceError(
                f"elimination pivot {first + k[i] * length + j[i] + 1} of {n}"
                f" underflowed: {1.0 + r[j[i], k[i]]:.3e}"
            )
        log_mod2 = np.log1p(re * (x + 1.0) + im2)
    if low < 0.25:
        near = mag2 < 0.25
        log_mod2[near] = np.log(mag2[near])
    # pass 4: u at a block's end is u_part + u_unit (u at its start)
    u_part, u_unit = u_part.tolist(), np.prod(inv, axis=0).tolist()
    u_starts = []
    for k in range(blocks):
        u_starts.append(u)
        u = u_part[k] + u_unit[k] * u
    carry = np.array(u_starts)
    # w and u from the true starts, in place of b and of 1/delta; the
    # quadratic form is sum_j w_j u_j
    for w_col, inv_col in zip(w, inv):
        np.add(carry, w_col, out=w_col)
        carry = np.multiply(w_col, inv_col, out=inv_col)
    w[pad:, -1] = 0.0
    quad = np.sum(w * inv)
    return complex(0.5 * log_mod2.sum(), np.arctan2(im, x).sum()), complex(quad), z, u


def _eliminate(inc: np.ndarray, b: np.ndarray):
    """Log-pivot sum and b^T Q^-1 b for Q = tridiag(-1, 2 - e_j, -1).

    inc holds the increments e_j; the caller's matrix is P = (m/eps) Q,
    and the m/eps scale stays with the caller.  Returns (sum of Log
    pivots, b^T Q^-1 b).

    The pivots delta_j = 1 + r_j, r_1 = 1 - e_1 and
    r_j = r_{j-1}/(1 + r_{j-1}) - e_j, come from a blocked scan of the
    increment form (:func:`_chunk_eliminate`), ``_CHUNK`` pivots at a
    time with the chain states carried between chunks, so the
    elimination's temporaries do not grow with the lattice.  The first
    pivot with |delta| < 2 ``_PIVOT_RTOL`` (a discrete caustic) raises
    SingularSliceError with its index; it is the only singularity check.
    The quadratic form reuses the pivots: Q = L D L^T, D = diag(delta_j),
    and b^T Q^-1 b = sum_j w_j^2/delta_j with w_j = b_j + w_{j-1}/delta_{j-1}
    (the tridiagonal Thomas recurrence).

    That solve does not pivot rows, so next to a pivot of size |delta| it
    loses about 1e-16/|delta| relative: 9e-14 at |delta| = 1e-6 and 7e-11
    at 1e-9, where a row-pivoted solve keeps ~6e-13.  In exchange it
    needs no formed diagonal 2 - e_j, whose rounding put a row-pivoted
    solve ~1e-7 off in log K at 2^20 slices; this one stays within ~3e-11.
    """
    n = inc.size
    log_sum = quad = 0j
    z, u = 1.0 + 0j, 0j  # z = s_0/p_0 (the minors D_0 = 1, D_-1 = 0); w_1 = b_1
    for lo in range(0, n, _CHUNK):
        chunk_sum, chunk_quad, z, u = _chunk_eliminate(
            inc[lo : lo + _CHUNK], b[lo : lo + _CHUNK], z, u, lo, n
        )
        log_sum += chunk_sum
        quad += chunk_quad
    return log_sum, quad


def discrete_propagator(inputs: PropagatorInputs, n_slices: int) -> complex:
    """Log-amplitude of the sliced restricted propagator.

    w2, F and the record are read at the slice midpoints (the O(eps**2)
    rule of the module docstring).

    Raises SingularSliceError on a discrete caustic.
    """
    lat = SlicedLattice(inputs.bc.t_start, inputs.bc.t_end, n_slices)
    params = inputs.params
    m, hbar = params.mass, params.hbar
    eps = lat.epsilon
    spec = effective_frequency(inputs.coeffs, inputs.meas, params)
    scale = record_forcing_scale(inputs.meas, params)

    ts = lat.midpoints
    w = spec.w_squared(ts)
    a = inputs.record(ts)
    force = -1j * scale  # F_k = force * a_k

    xa, xb = inputs.bc.x_start, inputs.bc.x_end
    inc = w[:-1] + w[1:]
    inc *= 0.5 * eps**2
    b = (0.5 * eps * force) * (a[:-1] + a[1:])
    c = (
        m / (2.0 * eps) * (xa**2 + xb**2)
        - eps * (m / 4.0) * (w[0] * xa**2 + w[-1] * xb**2)
        + (eps / 2.0) * force * (a[0] * xa + a[-1] * xb)
    )
    b[0] -= (m / eps) * xa
    b[-1] -= (m / eps) * xb

    log_sum, quad_scaled = _eliminate(inc, b)
    # quad_scaled is b^T Q^{-1} b with Q = tridiag(-1, 2 - e, -1); P = (m/eps) Q
    quad = (eps / m) * quad_scaled

    log_k = (
        0.5 * cmath.log(m / (2.0j * math.pi * hbar * eps))
        - 0.5 * log_sum
        + 1j * c / hbar
        - 0.5j * quad / hbar
    )
    # the record-norm weight, discretized at the same sample times
    rec_term = -inputs.meas.weight_rate * eps * float(np.dot(a, a))
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
        If the record is not constant.
    SingularSliceError
        If D_n vanishes at the scale of the window (a discrete caustic)
        or no Floquet solution has Im z > 0.
    ToleranceNotMetError
        If the window holds a whole period and the lattice's homogeneous
        solutions grow by e^g with g > ``_MAX_GROWTH`` (about 22.2) over
        it, g from the transfer block's Floquet multiplier: the block's
        power loses about e^g rounding units, more than 1e-6.
    """
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
