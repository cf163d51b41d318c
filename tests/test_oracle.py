"""Time-sliced lattice cross-check: exactness, convergence order,
Richardson pairing, and the discrete-caustic guard."""

import cmath
import math

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import spsolve

from conftest import scaled_inputs

from paulpath import (
    BadGridError,
    ConfigError,
    SingularSliceError,
    SlicedLattice,
    discrete_propagator,
    effective_frequency,
    periodic_propagator,
    restricted_propagator,
    richardson,
)
from paulpath.oracle import _BLOCK, _CHUNK, _eliminate
from paulpath.records import ConstantRecord, SinusoidRecord


def test_free_particle_sliced_is_exact():
    T, x0, x1 = 2.0, -0.3, 0.7
    inputs = scaled_inputs(u=0.0, v=0.0, T=T, x_start=x0, x_end=x1)
    m, hbar = inputs.params.mass, inputs.params.hbar
    expected = 0.5 * cmath.log(m / (2j * math.pi * hbar * T)) + 1j * m * (
        x1 - x0
    ) ** 2 / (2 * hbar * T)
    for n in (2, 16, 256):
        got = discrete_propagator(inputs, n)
        assert abs(got - expected) < 1e-12 * abs(expected), n


def _driven_inputs():
    return scaled_inputs(
        u=0.5, v=0.7, T=2.0, resolution=1.1, x_start=0.4, x_end=-0.2,
        record=SinusoidRecord(amplitude=0.4, omega=1.7, phase=0.3),
        n_samples=513,
    )


def test_midpoint_rule_is_second_order():
    inputs = _driven_inputs()
    truth = restricted_propagator(inputs).log_amplitude
    ns = [256, 512, 1024, 2048]
    errs = [abs(discrete_propagator(inputs, n) - truth) for n in ns]
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(ns) - 1)]
    assert all(1.8 < s < 2.2 for s in slopes), slopes


def test_left_rule_is_first_order():
    inputs = _driven_inputs()
    truth = restricted_propagator(inputs).log_amplitude
    ns = [256, 512, 1024, 2048]
    errs = [
        abs(discrete_propagator(inputs, n, sampling="left") - truth) for n in ns
    ]
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(ns) - 1)]
    assert all(0.8 < s < 1.2 for s in slopes), slopes


def test_richardson_pair_beats_both_inputs():
    inputs = _driven_inputs()
    truth = restricted_propagator(inputs).log_amplitude
    v_n = discrete_propagator(inputs, 1024)
    v_2n = discrete_propagator(inputs, 2048)
    extrap, err_est = richardson(v_n, v_2n)
    assert abs(extrap - truth) < abs(v_2n - truth)
    assert abs(extrap - truth) < 1e-7
    assert err_est == abs(v_2n - v_n) / 3.0


def test_richardson_on_synthetic_second_order_sequence():
    limit = 1.25 - 0.75j
    c = 0.3 + 0.1j
    n = 64
    v_n = limit + c / n**2
    v_2n = limit + c / (2 * n) ** 2
    extrap, err_est = richardson(v_n, v_2n)
    assert abs(extrap - limit) < 1e-15
    assert err_est == pytest.approx(abs(v_2n - v_n) / 3.0)


def test_richardson_trivial_pair():
    v = 2.0 + 3.0j
    extrap, err_est = richardson(v, v)
    assert extrap == v
    assert err_est == 0.0


def test_lattice_rejects_non_power_of_two():
    for bad in (0, 1, 3, 12, 100):
        with pytest.raises(BadGridError):
            SlicedLattice(0.0, 1.0, bad)
    with pytest.raises(BadGridError):
        SlicedLattice(1.0, 1.0, 4)


def test_lattice_geometry():
    lat = SlicedLattice(0.5, 2.5, 8)
    assert lat.epsilon * lat.n_slices == pytest.approx(2.0, rel=1e-15)
    assert lat.midpoints.size == 8
    assert lat.endpoints.size == 9
    assert lat.endpoints[0] == 0.5
    assert lat.endpoints[-1] == pytest.approx(2.5)
    assert lat.doubled().n_slices == 16


def test_bad_sampling_name_rejected():
    inputs = scaled_inputs(u=0.0, v=0.0, T=1.0)
    with pytest.raises(BadGridError):
        discrete_propagator(inputs, 4, sampling="right")


def test_singular_slice_raises():
    # constant w^2 = 8 over T = 1 with two slices zeroes the only pivot:
    # diag = 2 - eps^2 * 8 = 0 at eps = 1/2
    inputs = scaled_inputs(u=8.0, v=0.0, T=1.0, x_start=0.1, x_end=0.2)
    with pytest.raises(SingularSliceError):
        discrete_propagator(inputs, 2)


def _pivots(diag):
    """Pivots delta_j = d_j - 1/delta_{j-1}, one Python division each."""
    out = []
    for d in diag.tolist():
        out.append(d - 1.0 / out[-1] if out else d)
    return out


def _elimination_reference(diag, b):
    """Log-pivot sum by a per-pivot ``cmath.log`` loop; b^T Q^-1 b from a
    dense solve (sparse direct above 300 rows) of Q = tridiag(-1, d, -1)."""
    log_sum = 0j
    for piv in _pivots(diag):
        log_sum += cmath.log(piv)
    n = diag.size
    ones = -np.ones(n - 1)
    q = scipy.sparse.diags([ones, diag, ones], [-1, 0, 1], shape=(n, n), format="csc")
    y = np.linalg.solve(q.toarray(), b) if n <= 300 else spsolve(q, b)
    return log_sum, b @ y


def _slice_increments(n, phase_per_slice, damping, seed):
    """Damped oscillatory increments eps^2 w with complex w, whose
    diagonal 2 - eps^2 w the references take, and a random complex
    right-hand side.  The damping keeps Q well away from singular, so
    two backward-stable solves agree to rounding."""
    rng = np.random.default_rng(seed)
    w = (1.0 + 0.3 * rng.uniform(-1, 1, n)) * (1.0 - 1j * damping)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return phase_per_slice**2 * w, b


def _assert_matches_reference(inc, b):
    log_sum, quad = _eliminate(inc, b)
    ref_log, ref_quad = _elimination_reference(2.0 - inc, b)
    assert abs(log_sum - ref_log) <= 1e-12 * abs(ref_log)
    assert abs(quad - ref_quad) <= 1e-12 * abs(ref_quad)
    return log_sum


@pytest.mark.parametrize(
    "n",
    [
        1, 2, 5, 300, _BLOCK - 1, _BLOCK, _BLOCK + 1,
        _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1,
    ],
)
def test_eliminate_matches_reference(n):
    _assert_matches_reference(*_slice_increments(n, 0.05, 0.5, seed=n))


def test_eliminate_takes_slices_of_many_radians():
    # |e_j| ~ 1e12: a block's unit states grow by ~1e12 per pivot, and
    # would overflow over one block without rescaling
    _assert_matches_reference(*_slice_increments(3 * _BLOCK + 5, 1e6, 0.5, seed=11))


def test_eliminate_keeps_the_branch_past_two_pi():
    # ~38 zeros of the discrete solution: the pivot args add up to far
    # more than 2 pi, so Log det(Q) is not the sum of the pivot logs.  Q
    # is close to singular here, and on larger n the two solves of its
    # quadratic form part by more than rounding (4e-12 at 4x the slices)
    inc, b = _slice_increments(12289, 0.01, 0.1, seed=7)
    log_sum = _assert_matches_reference(inc, b)
    assert abs(log_sum.imag) > 20 * math.pi
    assert abs(cmath.phase(cmath.exp(log_sum)) - log_sum.imag) > math.pi


def test_eliminate_takes_the_left_rule_increments():
    # the left rule's e_j = eps^2 w(t_j), unsymmetrized, on a lattice
    # coarse enough that the reference's formed 2 - e_j keeps their digits
    inputs = _driven_inputs()
    lat = SlicedLattice(inputs.bc.t_start, inputs.bc.t_end, 1024)
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    inc = lat.epsilon**2 * spec.w_squared(lat.endpoints[1:-1])
    b = np.random.default_rng(5).normal(size=inc.size) + 0j
    _assert_matches_reference(inc, b)


def test_eliminate_names_an_exact_zero_pivot():
    # delta_2 = 1 + (1/2 - 3/2) = 0 exactly; delta_3 would divide by it
    inc = np.array([0.0, 1.5, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(SingularSliceError, match="pivot 2 of 5 "):
        _eliminate(inc, np.ones(5, dtype=complex))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "k", [1, _BLOCK, _BLOCK + 1, _CHUNK, _CHUNK + 1],
    ids=["first", "block-last", "block-first", "chunk-last", "chunk-first"],
)
def test_eliminate_names_an_exact_zero_pivot_at_block_and_chunk_edges(k):
    # e_1 = 1 makes every pivot exactly 1 (r_j = 0), until e_k = 1 makes
    # delta_k = 0 exactly; e_1 = 2 zeroes the first pivot itself
    n = 2 * _CHUNK + 5
    inc = np.zeros(n, dtype=complex)
    inc[0] = 1.0
    inc[k - 1] += 1.0
    with pytest.raises(SingularSliceError, match=f"pivot {k} of {n} "):
        _eliminate(inc, np.ones(n, dtype=complex))


def test_eliminate_names_a_tiny_pivot_in_the_second_chunk():
    n, k = 2 * _CHUNK + 10, _CHUNK + 17
    inc, b = _slice_increments(n, 0.01, 0.05, seed=3)
    inc[k] = 2.0 - (1.0 / _pivots(2.0 - inc[:k])[-1] + 1e-14)
    with pytest.raises(SingularSliceError, match=f"pivot {k + 1} of {n} "):
        _eliminate(inc, b)


def _log_pivot_sum_longdouble(inc):
    """Sum of principal Log pivots by the sequential increment recurrence
    r_j = r_{j-1}/(1 + r_{j-1}) - e_j, all in ``np.clongdouble``."""
    r = np.empty(inc.size, dtype=np.clongdouble)
    z = np.clongdouble(1.0)
    for j, e in enumerate(np.asarray(inc, dtype=np.clongdouble)):
        r[j] = z - e
        z = r[j] / (1 + r[j])
    return complex(np.log(1 + r).sum())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [1e-3, 1e-6, 1e-9])
def test_eliminate_keeps_a_pivot_near_a_caustic_accurate(size):
    # |delta_k| = size: log1p(2 Re r + |r|^2) alone would cancel to
    # ~1e-16/size^2 there (7e-5 at 1e-6)
    n, k = 2 * _CHUNK + 10, _CHUNK + 17
    inc, b = _slice_increments(n, 0.01, 0.05, seed=3)
    inc[k] = 2.0 - (1.0 / _pivots(2.0 - inc[:k])[-1] + size)
    log_sum, _ = _eliminate(inc, b)
    assert abs(log_sum - _log_pivot_sum_longdouble(inc)) < 1e-12


def test_log_pivot_sum_keeps_its_digits_on_a_fine_lattice():
    # A validate-ladder-like window at 2^18 slices, with x' = x'' = 0 and
    # a zero record: b = 0 and c = 0, so log K is the normalization minus
    # half the log-pivot sum.  Formed entries 2 - eps^2 w kept ~6 digits
    # of eps^2 w here and put the sum off by ~1e-8.
    n = 2**18
    inputs = scaled_inputs(u=0.5, v=1.2, T=2.5, resolution=4.0)
    lat = SlicedLattice(inputs.bc.t_start, inputs.bc.t_end, n)
    m, hbar, eps = inputs.params.mass, inputs.params.hbar, lat.epsilon
    log_sum = 2.0 * (
        0.5 * cmath.log(m / (2j * math.pi * hbar * eps)) - discrete_propagator(inputs, n)
    )
    w = effective_frequency(inputs.coeffs, inputs.meas, inputs.params).w_squared(
        lat.midpoints
    ).astype(np.clongdouble)
    inc = (w[:-1] + w[1:]) * (np.longdouble(eps) ** 2 / 2)  # in long double
    assert abs(log_sum - _log_pivot_sum_longdouble(inc)) < 1e-12


def test_measured_constant_record_extrapolates_to_pipeline():
    # zero potential but finite resolution: the measurement shift keeps
    # w2 at a constant imaginary value, so the slicing error is O(eps^2)
    # and a Richardson pair should land on the continuum pipeline
    inputs = scaled_inputs(
        u=0.0, v=0.0, T=2.0, resolution=1.3,
        record=ConstantRecord(amplitude=0.6),
    )
    truth = restricted_propagator(inputs).log_amplitude
    extrap, err_est = richardson(
        discrete_propagator(inputs, 1024), discrete_propagator(inputs, 2048)
    )
    assert abs(extrap - truth) < 1e-9
    assert abs(extrap - truth) < 10.0 * max(err_est, 1e-12)


# --- drive-periodic lattice -----------------------------------------------

# Stable traps in scaled units (drive omega = 2, so one period is pi):
# positive coefficients like the X axis, negative like the Z axis.
X_LIKE, Z_LIKE = (0.11, 1.1), (-0.11, -1.1)


def _periodic_inputs(trap, n_periods):
    u, v = trap
    return scaled_inputs(
        u=u, v=v, T=math.pi * n_periods, resolution=1.5, x_start=0.6,
        x_end=-0.4, record=ConstantRecord(amplitude=0.7),
    )


@pytest.mark.parametrize("trap", [X_LIKE, Z_LIKE], ids=["x-like", "z-like"])
def test_periodic_lattice_matches_sliced_lattice(trap):
    # 64 whole periods of 256 slices are the uniform lattice of 2^14
    # slices; the transfer-block power must reproduce its elimination
    inputs = _periodic_inputs(trap, 64)
    got = periodic_propagator(inputs, 256)
    ref = discrete_propagator(inputs, 64 * 256)
    assert abs(got - ref) < 1e-9
    assert abs(got.imag) > 10.0  # several caustics on the way


@pytest.mark.parametrize(
    "trap, n_periods", [(X_LIKE, 1024), (Z_LIKE, 2048)], ids=["x-like", "z-like"]
)
def test_periodic_lattice_matches_sliced_lattice_over_hundreds_of_zeros(
    trap, n_periods
):
    # 2^16 and 2^17 uniform slices with 572 and 421 zeros of D: the
    # elimination sums every pivot arg, so it checks the periodic
    # lattice's Floquet branch argument with a large matrix power
    inputs = _periodic_inputs(trap, n_periods)
    got = periodic_propagator(inputs, 64)
    ref = discrete_propagator(inputs, n_periods * 64)
    assert abs(got - ref) < 1e-9
    assert abs(got.imag) > 0.5 * math.pi * 400  # at least 400 half turns


@pytest.mark.parametrize("trap", [X_LIKE, Z_LIKE], ids=["x-like", "z-like"])
def test_periodic_lattice_remainder_matches_sliced_lattice(trap):
    # half a period is all remainder: ceil(16 * 0.5) * 256/16 = 128
    # slices of pi/256, the uniform lattice of 128 slices
    inputs = _periodic_inputs(trap, 0.5)
    got = periodic_propagator(inputs, 256)
    ref = discrete_propagator(inputs, 128)
    assert abs(got - ref) < 1e-12


def test_periodic_lattice_rejects_bad_slice_counts():
    inputs = _periodic_inputs(X_LIKE, 3.5)
    for bad in (8, 100, 3000):
        with pytest.raises(BadGridError):
            periodic_propagator(inputs, bad)


def test_periodic_lattice_rejects_non_constant_record():
    inputs = scaled_inputs(
        u=0.11, v=1.1, T=math.pi * 3.5, resolution=1.5,
        record=SinusoidRecord(amplitude=0.4, omega=1.7),
    )
    with pytest.raises(ConfigError):
        periodic_propagator(inputs, 256)


def test_periodic_lattice_needs_a_solution_in_the_upper_half_plane():
    # an undamped inverted stiffness has real Floquet solutions only
    inputs = scaled_inputs(u=-0.5, v=0.0, T=3.3 * math.pi, x_start=0.1, x_end=0.2)
    with pytest.raises(SingularSliceError):
        periodic_propagator(inputs, 256)
