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
is what makes the error genuinely O(eps**2); attaching them to the left
end only (the ``sampling="left"`` flag) drops it to O(eps), which the
convergence tests use as a negative control.

Collecting interior coordinates y: S_N = (1/2) y^T P y + b^T y + c with
P tridiagonal, P_jj = (m/eps) d_j, d_j = 2 - eps^2 (w_{j-1} + w_j)/2,
off-diagonal -m/eps.  Sequential elimination of the quadratic form gives
dimensionless pivots

    delta_1 = d_1,   delta_j = d_j - 1/delta_{j-1},

(the discrete determinant recurrence) and the log-amplitude

    log K = (1/2) Log(m / (2 pi i hbar eps)) - (1/2) sum_j Log delta_j
            + (i/hbar) c - (i/(2 hbar)) b^T P^{-1} b
            - (2/(T da^2)) * eps * sum_k a_k^2,

the last line being the record-norm weight at the same midpoints.  All
per-pivot logs are principal; the pivot product is never formed.  The
pivots run sequentially in fixed-size chunks of Python complex numbers,
each chunk's logs summed in one vectorised call; b^T P^{-1} b, which
carries no branch, comes from a row-pivoted LAPACK tridiagonal solve.

:func:`periodic_propagator` evaluates the same integral on a lattice
tied to the drive period, for windows of millions of periods.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgtsv

from .errors import BadGridError, ConfigError, SingularSliceError
from .propagator import PropagatorInputs, _nearest_branch
from .records import record_forcing_scale
from .trapmodel import effective_frequency, whole_periods

#: pivot magnitudes below this, relative to the slice scale 2, are a
#: discrete caustic
_PIVOT_RTOL = 1e-12

#: pivots per Python-list chunk of the sequential recurrence; it bounds
#: the Python complex objects alive at once on fine lattices
_CHUNK = 4096


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

    @property
    def endpoints(self) -> np.ndarray:
        return self.t_start + self.epsilon * np.arange(self.n_slices + 1)

    def doubled(self) -> "SlicedLattice":
        return SlicedLattice(self.t_start, self.t_end, 2 * self.n_slices)


def _eliminate(diag: np.ndarray, b: np.ndarray):
    """Log-pivot sum and b^T Q^-1 b for Q = tridiag(-1, d_j, -1).

    diag holds d_j; the caller's matrix is P = (m/eps) Q, and the m/eps
    scale stays with the caller.  Returns (sum of Log pivots, b^T Q^-1 b).

    The pivots delta_j = d_j - 1/delta_{j-1} run sequentially over
    Python complex numbers, ``_CHUNK`` at a time, since each needs the
    previous one.  Each chunk is then screened for a discrete caustic
    and summed as principal logs in one ``np.log`` call (the same
    branch as ``cmath.log``): the branch of log K lives in these
    per-pivot logs, and the pivot product is never formed.  The
    quadratic form carries no branch, so it comes from one row-pivoted
    LAPACK tridiagonal solve.
    """
    n = diag.size
    log_sum = 0j
    prev = math.inf  # 1/prev = 0 makes delta_1 = d_1
    for lo in range(0, n, _CHUNK):
        piv = []
        try:
            for d in diag[lo : lo + _CHUNK].tolist():
                prev = d - 1.0 / prev
                piv.append(prev)
        except ZeroDivisionError:
            pass  # piv ends on an exact zero, which the screen below names
        piv = np.array(piv, dtype=complex)
        bad = np.flatnonzero(np.abs(piv) < _PIVOT_RTOL * 2.0)
        if bad.size:
            k = bad[0]
            raise SingularSliceError(
                f"elimination pivot {lo + k + 1} of {n} underflowed: {piv[k]:.3e}"
            )
        log_sum += complex(np.sum(np.log(piv)))
    if n == 1:  # gtsv takes no empty off-diagonals
        return log_sum, complex(b[0] * b[0] / diag[0])
    off = np.full(n - 1, -1.0 + 0j)
    _, _, _, y, info = zgtsv(off, diag, off, b)
    if info:
        raise SingularSliceError(f"tridiagonal solve hit a zero pivot at row {info} of {n}")
    return log_sum, complex(np.dot(b, y))


def discrete_propagator(
    inputs: PropagatorInputs,
    n_slices: int,
    sampling: str = "midpoint",
) -> complex:
    """Log-amplitude of the sliced restricted propagator.

    ``sampling`` chooses where w2, F and the record are read within each
    slice: "midpoint" (the O(eps**2) production rule) or "left" (the
    O(eps) variant kept for order-of-convergence demonstrations; it also
    attaches the potential and drive to the left slice end only).

    Raises SingularSliceError on a discrete caustic.
    """
    lat = SlicedLattice(inputs.bc.t_start, inputs.bc.t_end, n_slices)
    params = inputs.params
    m, hbar = params.mass, params.hbar
    eps = lat.epsilon
    spec = effective_frequency(inputs.coeffs, inputs.meas, params)
    scale = record_forcing_scale(inputs.meas, params)

    if sampling == "midpoint":
        ts = lat.midpoints
    elif sampling == "left":
        ts = lat.endpoints[:-1]
    else:
        raise BadGridError(
            f"sampling must be 'midpoint' or 'left', got {sampling!r}",
            field="numerics.oracle_sampling",
        )
    w = spec.w_squared(ts)
    a = inputs.record(ts)
    f = -1j * scale * a

    xa, xb = inputs.bc.x_start, inputs.bc.x_end
    if sampling == "midpoint":
        diag = 2.0 - (eps**2) * (w[:-1] + w[1:]) / 2.0
        b = (eps / 2.0) * (f[:-1] + f[1:])
        c = (
            m / (2.0 * eps) * (xa**2 + xb**2)
            - eps * (m / 4.0) * (w[0] * xa**2 + w[-1] * xb**2)
            + (eps / 2.0) * (f[0] * xa + f[-1] * xb)
        )
    else:
        # left rule: potential/drive attach to x_k for k = 0..N-1, so the
        # interior j = 1..N-1 sees only w_j, and x'' carries no potential
        diag = 2.0 - (eps**2) * w[1:]
        b = eps * f[1:]
        c = (
            m / (2.0 * eps) * (xa**2 + xb**2)
            - eps * (m / 2.0) * w[0] * xa**2
            + eps * f[0] * xa
        )
    b[0] -= (m / eps) * xa
    b[-1] -= (m / eps) * xb

    log_sum, quad_scaled = _eliminate(np.asarray(diag, dtype=complex), b)
    # quad_scaled is b^T Q^{-1} b with Q = tridiag(-1, d, -1); P = (m/eps) Q
    quad = (eps / m) * quad_scaled

    log_k = (
        0.5 * cmath.log(m / (2.0j * math.pi * hbar * eps))
        - 0.5 * log_sum
        + 1j * c / hbar
        - 0.5j * quad / hbar
    )
    # the record-norm weight, discretized at the same sample times
    rec_term = -inputs.meas.weight_rate * eps * float(np.sum(a * a))
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
