"""Time-sliced lattice cross-check: exactness, convergence order,
Richardson pairing, and the discrete-caustic guard."""

import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import spsolve

from conftest import scaled_inputs

from paulpath import (
    Axis,
    BadGridError,
    ConfigError,
    RecordWindowError,
    SingularSliceError,
    SlicedLattice,
    ToleranceNotMetError,
    discrete_propagator,
    effective_frequency,
    periodic_propagator,
    render,
    restricted_propagator,
    richardson,
)
from paulpath.cli import axis_inputs, load_scenario
from paulpath.oracle import _CHUNK, _MINOR_RANGE, _eliminate
from paulpath.records import ConstantRecord, SinusoidRecord, record_forcing_scale


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
    right-hand side.  The damping keeps Q and its pivots well away from
    singular, so the elimination's solve, which does not pivot rows, and
    the reference's agree to rounding."""
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
        1, 2, 5, 300, 31, 32, 33, 16383, 16384, 16385, 49153,
        _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1,
    ],
)
def test_eliminate_matches_reference(n):
    _assert_matches_reference(*_slice_increments(n, 0.05, 0.5, seed=n))


def test_eliminate_takes_slices_of_many_radians():
    # |e_j| ~ 1e12: the minors grow by ~1e12 per pivot, and would overflow
    # within a few dozen pivots if the runs were not halved
    _assert_matches_reference(*_slice_increments(3 * 32 + 5, 1e6, 0.5, seed=11))


def test_eliminate_keeps_the_branch_past_two_pi():
    # ~38 zeros of the discrete solution: the pivot args add up to far
    # more than 2 pi, so Log det(Q) is not the sum of the pivot logs.  Q
    # is close to singular here, and on larger n the reference's solve on
    # the formed diagonal 2 - e_j parts from the elimination by more than
    # rounding (2e-12 at 4x the slices, with the elimination 2e-14 off a
    # long-double solve)
    inc, b = _slice_increments(12289, 0.01, 0.1, seed=7)
    log_sum = _assert_matches_reference(inc, b)
    assert abs(log_sum.imag) > 20 * math.pi
    assert abs(cmath.phase(cmath.exp(log_sum)) - log_sum.imag) > math.pi


def test_eliminate_takes_the_left_rule_increments():
    # left-rule increments e_j = eps^2 w(t' + j eps), unsymmetrized, on a
    # lattice coarse enough that the reference's formed 2 - e_j keeps their digits
    inputs = _driven_inputs()
    lat = SlicedLattice(inputs.bc.t_start, inputs.bc.t_end, 1024)
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    nodes = lat.t_start + lat.epsilon * np.arange(1, lat.n_slices)
    inc = lat.epsilon**2 * spec.w_squared(nodes)
    b = np.random.default_rng(5).normal(size=inc.size) + 0j
    _assert_matches_reference(inc, b)


def test_eliminate_names_an_exact_zero_pivot():
    # delta_2 = 1 + (1/2 - 3/2) = 0 exactly; delta_3 would divide by it
    inc = np.array([0.0, 1.5, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(SingularSliceError, match="pivot 2 of 5 "):
        _eliminate(inc, np.ones(5, dtype=complex))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "k", [1, 32, 33, _CHUNK, _CHUNK + 1],
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


def _elimination_longdouble(inc, b):
    """Log-pivot sum and b^T Q^-1 b by a sequential Thomas solve, all in
    ``np.clongdouble``: the pivots delta_j = 1 + r_j of the increment
    recurrence r_j = r_{j-1}/(1 + r_{j-1}) - e_j, their principal logs,
    and sum w_j^2/delta_j with w_j = b_j + w_{j-1}/delta_{j-1}."""
    log_sum = u = quad = np.clongdouble(0)
    z = np.clongdouble(1)
    for e, b_j in zip(np.asarray(inc, np.clongdouble).tolist(), np.asarray(b, np.clongdouble).tolist()):
        r = z - e
        delta = 1 + r
        log_sum += np.log(delta)
        z = r / delta
        w = b_j + u
        u = w / delta
        quad += w * u
    return complex(log_sum), quad


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [1e-3, 1e-6, 1e-9])
def test_eliminate_keeps_a_pivot_near_a_caustic_accurate(size):
    # |delta_k| = size: log1p(2 Re r + |r|^2) alone would cancel to
    # ~1e-16/size^2 there (7e-5 at 1e-6).  A Thomas solve that divides by
    # delta_k loses about 1e-16/size relative next to it; the elimination
    # takes delta_k with the next pivot as a 2x2 block instead
    n, k = 2 * _CHUNK + 10, _CHUNK + 17
    inc, b = _slice_increments(n, 0.01, 0.05, seed=3)
    inc[k] = 2.0 - (1.0 / _pivots(2.0 - inc[:k])[-1] + size)
    log_sum, quad = _eliminate(inc, b)
    ref_log, ref_quad = _elimination_longdouble(inc, b)
    assert abs(log_sum - ref_log) < 1e-12
    # 1e-9: the division measured 6.9e-11 with _CHUNK = 16384 and 5.8e-10
    # with 4096; the 2x2 block 4.8e-13 with 4096, the long-double
    # reference's own error
    quad_rtol = {1e-3: 1e-12, 1e-6: 1e-12, 1e-9: 3e-10}[size]
    assert abs(complex(quad - ref_quad)) <= quad_rtol * abs(complex(ref_quad))


def _near_caustic(n, k, size, inc=None, b=None):
    """Increments and b with pivot k + 1 set to about ``size``; by default
    the damped problem of the near-caustic tests."""
    if inc is None:
        inc, b = _slice_increments(n, 0.01, 0.05, seed=3)
    inc[k] = 2.0 - (1.0 / _pivots(2.0 - inc[:k])[-1] + size)
    return inc, b


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("length", [4096, 8192, 16384, 65536])
def test_eliminate_keeps_a_pivot_near_a_caustic_accurate_at_any_length(length):
    # the near-caustic problem built at fixed lengths, whatever the chunk
    # length: |delta| = 1e-9 cost the quadratic form 1.2e-9 on the 8192
    # problem when the Thomas solve divided by every pivot.  The
    # long-double reference is itself 2.6e-13 to 4.8e-13 off a 40-digit
    # solve on these problems
    inc, b = _near_caustic(2 * length + 10, length + 17, 1e-9)
    log_sum, quad = _eliminate(inc, b)
    ref_log, ref_quad = _elimination_longdouble(inc, b)
    assert abs(log_sum - ref_log) < 1e-12
    assert abs(complex(quad - ref_quad)) <= 1e-12 * abs(complex(ref_quad))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "k", [_CHUNK - 2, _CHUNK - 1, 2 * _CHUNK - 1],
    ids=["chunk-last-but-one", "chunk-last", "second-chunk-last"],
)
def test_eliminate_pairs_a_tiny_pivot_across_chunks(k):
    # pivot k + 1 is tiny: at a chunk's last pivot its 2x2 block ends in
    # the next chunk
    inc, b = _near_caustic(2 * _CHUNK + 10, k, 1e-9)
    log_sum, quad = _eliminate(inc, b)
    ref_log, ref_quad = _elimination_longdouble(inc, b)
    assert abs(log_sum - ref_log) < 1e-12
    assert abs(complex(quad - ref_quad)) <= 1e-12 * abs(complex(ref_quad))


@pytest.mark.filterwarnings("error")
def test_eliminate_pairs_a_tiny_pivot_that_ends_a_halved_run():
    # an inverted potential grows the minors by ~1e210 over half a chunk,
    # so a chunk's run overflows and is halved, and the tiny pivot ends
    # the first half.  The tiny pivot is complex: a nearly real one of
    # 1e-9 would put its partner -1/delta on the branch cut of the Log
    n = 2 * _CHUNK + 10
    grow = math.exp(210 * math.log(10) * 2 / _CHUNK)
    rng = np.random.default_rng(5)
    inc = -(grow + 1 / grow - 2) * (1 + 0.02 * rng.uniform(-1, 1, n)) * (1 - 0.05j)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    k = _CHUNK // 2 - 1
    inc, b = _near_caustic(n, k, 1e-9 * (0.6 + 0.8j), inc, b)
    top = math.log(_MINOR_RANGE[1])
    assert _elimination_longdouble(inc[: _CHUNK // 2], b[: _CHUNK // 2])[0].real < top
    assert _elimination_longdouble(inc[:_CHUNK], b[:_CHUNK])[0].real > top
    log_sum, quad = _eliminate(inc, b)
    ref_log, ref_quad = _elimination_longdouble(inc, b)
    assert abs(log_sum - ref_log) < 1e-12 * abs(ref_log)
    assert abs(complex(quad - ref_quad)) <= 1e-12 * abs(complex(ref_quad))


def test_eliminate_takes_a_tiny_last_pivot():
    # the last pivot has no partner for a 2x2 block: its own term stays,
    # and log K and the quadratic form carry its ~1e-16/1e-9 rounding
    n = 5000
    inc, b = _near_caustic(n, n - 1, 1e-9)
    log_sum, quad = _eliminate(inc, b)
    ref_log, ref_quad = _elimination_longdouble(inc, b)
    assert abs(log_sum - ref_log) < 1e-6
    assert abs(complex(quad - ref_quad)) <= 1e-6 * abs(complex(ref_quad))


def test_eliminate_keeps_the_branch_of_real_negative_pivots():
    # undamped: e_j and the pivots are real, and a negative pivot's Log
    # is log|delta| + i pi (the reference adds +0 to a zero imaginary
    # part); the ratio of two minors may carry -0, which atan2 would send
    # to -pi
    inc, b = _slice_increments(2000, 0.05, 0.0, seed=1)
    assert np.all(inc.imag == 0.0)
    log_sum, quad = _eliminate(inc, b)
    ref_log, ref_quad = _elimination_longdouble(inc, b)
    assert ref_log.imag > 30 * math.pi  # 31 negative pivots
    assert abs(log_sum - ref_log) < 1e-12 * abs(ref_log)
    assert abs(complex(quad - ref_quad)) <= 1e-12 * abs(complex(ref_quad))


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
    assert abs(log_sum - _elimination_longdouble(inc, np.zeros(n))[0]) < 1e-12


def test_quadratic_form_keeps_its_digits_on_a_fine_lattice():
    # A validate-ladder-like window at 2^18 slices: the (m/eps) x boundary
    # terms of b put the quadratic-form term of log K near 7e4, and a
    # row-pivoted solve on the formed diagonal 2 - eps^2 w put it off by
    # ~1e-8
    n = 2**18
    inputs = scaled_inputs(
        u=-0.54, v=0.75, T=1.55, resolution=5.9, omega=1.69, mass=1.89,
        x_start=-0.41, x_end=0.5, record=ConstantRecord(amplitude=3.4),
    )
    lat = SlicedLattice(inputs.bc.t_start, inputs.bc.t_end, n)
    m, hbar, eps = inputs.params.mass, inputs.params.hbar, lat.epsilon
    # inc and b as discrete_propagator forms them (midpoint rule)
    w = effective_frequency(inputs.coeffs, inputs.meas, inputs.params).w_squared(lat.midpoints)
    inc = (w[:-1] + w[1:]) * (0.5 * eps**2)
    a = inputs.record(lat.midpoints)
    b = (-0.5j * eps * record_forcing_scale(inputs.meas, inputs.params)) * (a[:-1] + a[1:])
    b[0] -= (m / eps) * inputs.bc.x_start
    b[-1] -= (m / eps) * inputs.bc.x_end
    _, quad = _eliminate(inc, b)
    term = 0.5 * eps / (m * hbar)  # the quadratic form's weight in log K
    assert abs(term * quad) > 1e4
    assert abs(term * complex(quad - _elimination_longdouble(inc, b)[1])) < 1e-10


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


def test_sliced_lattice_memory_does_not_grow_with_the_slices():
    # each chunk samples its own midpoints and writes straight into the
    # elimination's buffer: no array the length of the lattice is formed
    inputs = _driven_inputs()
    peaks = []
    for n in (2**16, 2**20):
        tracemalloc.start()
        try:
            discrete_propagator(inputs, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def _lattice_log_amplitude(inputs, n):
    """log K of the sliced lattice formed whole: w2 from
    ``spec.w_squared(lat.midpoints)``, the record at the same midpoints,
    the increments and b handed to :func:`_eliminate`."""
    lat = SlicedLattice(inputs.bc.t_start, inputs.bc.t_end, n)
    m, hbar, eps = inputs.params.mass, inputs.params.hbar, lat.epsilon
    xa, xb = inputs.bc.x_start, inputs.bc.x_end
    w = effective_frequency(inputs.coeffs, inputs.meas, inputs.params).w_squared(lat.midpoints)
    a = inputs.record(lat.midpoints)
    force = -1j * record_forcing_scale(inputs.meas, inputs.params)
    b = (0.5 * eps * force) * (a[:-1] + a[1:])
    b[0] -= (m / eps) * xa
    b[-1] -= (m / eps) * xb
    log_sum, quad = _eliminate((w[:-1] + w[1:]) * (0.5 * eps**2), b)
    c = (
        m / (2.0 * eps) * (xa**2 + xb**2)
        - eps * (m / 4.0) * (w[0] * xa**2 + w[-1] * xb**2)
        + (eps / 2.0) * force * (a[0] * xa + a[-1] * xb)
    )
    return (
        0.5 * cmath.log(m / (2j * math.pi * hbar * eps))
        - 0.5 * log_sum
        + 1j * c / hbar
        - 0.5j * (eps / m) * quad / hbar
        - inputs.meas.weight_rate * eps * float(np.dot(a, a))
    )


def test_sliced_lattice_keeps_the_drive_phase_far_from_time_zero():
    # a window 1e4 drive periods after t = 0, where omega t ~ 6e4 rad: the
    # chunks' rotations of the increment table keep the phase of the
    # cosine that w2 at each midpoint has
    base = _driven_inputs()
    t0 = 1e4 * 2.0 * math.pi / base.params.drive_omega
    meas = replace(base.meas, t_start=t0, t_end=t0 + base.meas.duration)
    inputs = replace(
        base, meas=meas, bc=replace(base.bc, t_start=meas.t_start, t_end=meas.t_end),
        record=render(SinusoidRecord(amplitude=0.4, omega=1.7, phase=0.3), meas, n_samples=513),
    )
    n = 4 * _CHUNK
    lattice = [_lattice_log_amplitude(inputs, k) for k in (n, 2 * n)]
    _, err_est = richardson(*lattice)
    for k, expected in zip((n, 2 * n), lattice):
        assert abs(discrete_propagator(inputs, k) - expected) <= 1e-2 * err_est, k


# --- inputs the pipeline refuses ------------------------------------------


def _short_x_constant():
    """The bundled short window's X axis with a constant record, which
    the drive-periodic lattice takes too."""
    base = axis_inputs(load_scenario("barium_short_window.scenario"), Axis.X)
    return replace(base, record=render(ConstantRecord(0.5e-6), base.meas, n_samples=65))


_ORACLES = {
    "sliced": lambda inputs: discrete_propagator(inputs, 1024),
    "periodic": lambda inputs: periodic_propagator(inputs, 64),
}


@pytest.mark.parametrize("oracle", list(_ORACLES))
def test_oracles_refuse_a_record_that_stops_short_of_the_window(oracle):
    # np.interp would hold the last sample over the rest of the window
    inputs = _short_x_constant()
    rec = inputs.record
    half = replace(inputs, record=replace(rec, samples=rec.samples[: rec.n_samples // 2 + 1]))
    with pytest.raises(RecordWindowError):
        restricted_propagator(half)
    with pytest.raises(RecordWindowError):
        _ORACLES[oracle](half)


@pytest.mark.parametrize("oracle", list(_ORACLES))
def test_oracles_refuse_a_boundary_window_off_the_measurement_window(oracle):
    inputs = _short_x_constant()
    short = replace(inputs, bc=replace(inputs.bc, t_end=0.5 * inputs.bc.t_end))
    with pytest.raises(ConfigError) as pipeline:
        restricted_propagator(short)
    with pytest.raises(ConfigError) as refused:
        _ORACLES[oracle](short)
    assert refused.value.field == pipeline.value.field == "boundary.window"


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


def _damped_periodic_inputs(n_periods, resolution):
    return scaled_inputs(
        u=0.11, v=1.1, T=math.pi * n_periods, resolution=resolution,
        x_start=0.3, x_end=-0.5, record=ConstantRecord(amplitude=0.3),
    )


def test_periodic_lattice_keeps_growth_it_resolves():
    # g = 21.0, just under the bound: the pair stays within 1e-6
    inputs = _damped_periodic_inputs(6.5, 0.3)
    ref, _ = richardson(discrete_propagator(inputs, 2**15), discrete_propagator(inputs, 2**16))
    extr, _ = richardson(periodic_propagator(inputs, 4096), periodic_propagator(inputs, 8192))
    assert abs(extr - ref) < 1e-6


@pytest.mark.parametrize("n_periods, growth", [(4.5, "26.4"), (6.5, "31.7")])
def test_periodic_lattice_refuses_growth_it_cannot_resolve(n_periods, growth):
    # the transfer-block power loses about e^g rounding units, g the log
    # growth of the homogeneous solutions over the window: at g = 31.7 its
    # pairs wandered by 3e-3 against estimates of 1.6-8.9e-4
    inputs = _damped_periodic_inputs(n_periods, 0.2)
    with pytest.raises(ToleranceNotMetError, match=rf"e\^{growth}"):
        periodic_propagator(inputs, 2048)
