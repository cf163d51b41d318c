"""The adaptive kernel: DOP853 steps, interpolants built on read, and
integrator counts.

``solve_complex_ivp`` re-implements scipy's DOP853 stepping, and
``ComplexIvpSolution.dense`` the interpolant build of scipy's
``DOP853.dense_output`` and the evaluation of its ``OdeSolution``, over
stage rows stored in blocks.  These tests pin all three to scipy bit for
bit, so a scipy release that changes the DOP853 step control, tableau,
dense output layout or segment rule shows up here.
"""

import numpy as np
import pytest
from conftest import scaled_trap
from scipy.integrate import solve_ivp

from paulpath import integrate, mathieu
from paulpath.errors import OutOfRangeError, ToleranceNotMetError
from paulpath.integrate import solve_complex_ivp
from paulpath.propagator import prefactor_track
from paulpath.records import Forcing
from paulpath.trapmodel import EffectiveFrequencySpec

SPEC = EffectiveFrequencySpec(u_tilde=0.37 - 0.011j, v=1.3, drive_omega=2.7)
DRIVE = Forcing(t_start=0.0, dt=0.25, values=np.exp(0.3j * np.arange(49)) - 0.5j)
SPAN = (0.0, 12.0)


def _basis_rhs(t, y):
    w2 = SPEC.w_squared(t)
    h0, dh0, h1, dh1 = y.tolist()
    return np.array([dh0, -w2 * h0, dh1, -w2 * h1], dtype=complex)


def _forced_rhs(t, y):
    w2 = SPEC.w_squared(t)
    h0, dh0, h1, dh1, p, dp = y.tolist()
    return np.array(
        [dh0, -w2 * h0, dh1, -w2 * h1, dp, -w2 * p + DRIVE(t)], dtype=complex
    )


def _listed(rhs):
    """``rhs`` returning a list of complex, as the package's right-hand
    sides do, in place of an ndarray."""

    def listed(t, y):
        return rhs(t, y).tolist()

    return listed


CASES = {
    "basis-4": (_basis_rhs, [1, 0, 0, 1], np.array([1.0, 2.7, 0.37, 1.0])),
    "forced-6": (_forced_rhs, [1, 0, 0, 1, 0, 0], np.array([1.0, 2.7, 0.37, 1.0, 0.5, 1.4])),
    "forced-6-list": (
        _listed(_forced_rhs), [1, 0, 0, 1, 0, 0], np.array([1.0, 2.7, 0.37, 1.0, 0.5, 1.4])
    ),
}


def _scipy_reference(rhs, y0, atol, span=SPAN, rtol=1e-11):
    """The same solve through ``solve_ivp``: state packed as (re, im) per
    component, atol repeated for both parts."""

    def packed(t, y):
        return np.asarray(rhs(t, y.view(complex)), dtype=complex).view(float)

    y0 = np.array(y0, dtype=complex).view(float)
    return solve_ivp(
        packed, span, y0, method="DOP853", rtol=rtol, atol=np.repeat(atol, 2),
        dense_output=True,
    )


def _as_complex(y_packed):
    """scipy's (2n, m) or (2n,) packed output as complex (n, m) or (n,)."""
    return np.ascontiguousarray(y_packed.T).view(complex).T


@pytest.mark.parametrize("block", [512, 16], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("case", list(CASES))
def test_dense_matches_scipy_bit_for_bit(monkeypatch, case, block):
    # the interpolant is stored in blocks of accepted steps; a small block
    # size puts the ~150 steps of these solves in ten blocks
    monkeypatch.setattr(integrate, "_BLOCK", block)
    rhs, y0, scales = CASES[case]
    atol = 1e-14 * scales
    sol = solve_complex_ivp(rhs, SPAN, np.array(y0, dtype=complex), rtol=1e-11, atol=atol)
    ref = _scipy_reference(rhs, y0, atol)
    assert np.array_equal(sol.t, ref.t)
    assert np.array_equal(sol.y, _as_complex(ref.y))
    mid = 0.5 * (sol.t[1:] + sol.t[:-1])
    outside = [SPAN[0] - 1e-3, SPAN[0] - 1e-12, SPAN[1] + 1e-12, SPAN[1] + 1e-3]
    t = np.concatenate([sol.t, mid, np.linspace(*SPAN, 301), outside])
    assert np.array_equal(sol.dense(t), _as_complex(ref.sol(t)))
    assert np.array_equal(sol.dense(t[::-1]), _as_complex(ref.sol(t[::-1])))
    for scalar in (SPAN[0], SPAN[1], sol.t[7], mid[3], 5.4321, SPAN[1] + 0.01):
        got = sol.dense(scalar)
        assert got.shape == (len(y0),)
        assert np.array_equal(got, _as_complex(ref.sol(scalar)))


@pytest.mark.parametrize("block", [512, 16], ids=["one-block", "many-blocks"])
def test_dense_matches_scipy_on_a_backward_window(monkeypatch, block):
    monkeypatch.setattr(integrate, "_BLOCK", block)
    span = (3.0, -5.0)
    y0 = np.array([1, 0, 0, 1], dtype=complex)
    atol = 1e-14 * CASES["basis-4"][2]
    ref = _scipy_reference(_basis_rhs, y0, atol, span)
    for rhs in (_basis_rhs, _listed(_basis_rhs)):
        sol = solve_complex_ivp(rhs, span, y0, 1e-11, atol)
        assert np.array_equal(sol.t, ref.t)
        assert np.array_equal(sol.y, _as_complex(ref.y))
        t = np.concatenate([sol.t, np.linspace(-5.1, 3.1, 211)])
        assert np.array_equal(sol.dense(t), _as_complex(ref.sol(t)))
        for scalar in (-5.0, 3.0, 0.123, -5.5):
            assert np.array_equal(sol.dense(scalar), _as_complex(ref.sol(scalar)))


@pytest.mark.parametrize("case", list(CASES))
def test_solution_counts_the_integrator_work(case):
    rhs, y0, scales = CASES[case]
    calls = []

    def counted(t, y):
        calls.append(t)
        return rhs(t, y)

    sol = solve_complex_ivp(counted, SPAN, np.array(y0, dtype=complex), 1e-11, 1e-14 * scales)
    # DOP853: 2 calls to start, 12 per step attempt, no interpolant yet
    assert sol.rhs_evals == len(calls) == 2 + 12 * (sol.steps + sol.rejected)
    assert sol.steps == sol.t.size - 1 > 0
    assert sol.rejected > 0
    assert sol.min_step == np.min(np.diff(sol.t)) > 0
    # 3 calls per interpolant, on the first read of its step only
    solved = len(calls)
    mid = 0.5 * (sol.t[1:] + sol.t[:-1])
    sol.dense([mid[5], mid[40], mid[5]])
    assert sol.rhs_evals == len(calls) == solved + 3 * 2
    sol.dense(mid[:8])
    assert sol.rhs_evals == len(calls) == solved + 3 * 9
    sol.dense(np.linspace(mid[1], mid[7], 50))
    sol.dense(mid[40])
    assert sol.rhs_evals == len(calls) == solved + 3 * 9
    sol.dense(sol.t)
    assert sol.rhs_evals == len(calls) == solved + 3 * sol.steps


@pytest.mark.parametrize("block", [512, 16], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("span", [SPAN, (3.0, -5.0)], ids=["forward", "backward"])
def test_scattered_reads_match_scipy_bit_for_bit(monkeypatch, span, block):
    # interpolants are built in the order the steps are first read; a few
    # scattered steps first, scalars and arrays, then the whole window; a
    # right-hand side returning a list gives the ndarray one's solve
    monkeypatch.setattr(integrate, "_BLOCK", block)
    rhs, y0, scales = CASES["forced-6"]
    atol = 1e-14 * scales
    ref = _scipy_reference(rhs, y0, atol, span)
    for case in ("forced-6", "forced-6-list"):
        sol = solve_complex_ivp(CASES[case][0], span, np.array(y0, dtype=complex), 1e-11, atol)
        assert np.array_equal(sol.t, ref.t)
        assert np.array_equal(sol.y, _as_complex(ref.y))
        mid = 0.5 * (sol.t[1:] + sol.t[:-1])
        for read in (mid[37], mid[[90, 3, 90, 17]], sol.t[-1], mid[-20:-10], sol.t[60]):
            assert np.array_equal(sol.dense(read), _as_complex(ref.sol(read)))
        t = np.concatenate([sol.t, mid, np.linspace(span[0], span[1], 301)])
        assert np.array_equal(sol.dense(t), _as_complex(ref.sol(t)))


def test_tiny_rtol_is_raised_as_scipy_raises_it():
    # scipy raises rtol to 100 eps with a warning; the solve matches its
    # clipped solve bit for bit
    rhs, y0, scales = CASES["basis-4"]
    atol = 1e-14 * scales
    sol = solve_complex_ivp(rhs, SPAN, np.array(y0, dtype=complex), 1e-16, atol)
    with pytest.warns(UserWarning, match="rtol"):
        ref = _scipy_reference(rhs, y0, atol, rtol=1e-16)
    assert np.array_equal(sol.t, ref.t)
    assert np.array_equal(sol.y, _as_complex(ref.y))
    assert np.array_equal(sol.dense(sol.t[3:9]), _as_complex(ref.sol(sol.t[3:9])))


def test_prefactor_track_builds_no_interpolant(monkeypatch):
    # the determinant's phase is read at the accepted steps: the pass
    # makes the solve's own calls and no interpolant's
    solutions, calls = [], []
    solve = integrate.solve_complex_ivp

    def recorded(rhs, *args, **kwargs):
        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        solutions.append(solve(counted, *args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(mathieu, "solve_complex_ivp", recorded)
    prefactor_track(scaled_trap(0.37, 1.3, omega=2.7), SPEC, SPAN)
    (sol,) = solutions
    assert len(calls) == sol.rhs_evals == 2 + 12 * (sol.steps + sol.rejected)


def test_zero_length_window_is_refused():
    with pytest.raises(OutOfRangeError, match="zero length"):
        solve_complex_ivp(_basis_rhs, (1.0, 1.0), np.ones(4, dtype=complex), 1e-11, 1e-14)


@pytest.mark.parametrize("bad_from", [0.0, 1.5], ids=["at-the-start", "mid-window"])
def test_a_right_hand_side_that_is_not_finite_is_refused(bad_from):
    # past bad_from every error test fails and the step shrinks by the
    # minimum factor until it is below the spacing of the floats at t, as
    # scipy's DOP853 gives up; a NaN from the start makes the initial step
    # NaN, on which scipy's loop never ends
    def rhs(t, y):
        return _basis_rhs(t, y) if t < bad_from else np.full(4, np.nan, dtype=complex)

    with pytest.raises(ToleranceNotMetError, match="below the spacing"):
        solve_complex_ivp(rhs, SPAN, np.ones(4, dtype=complex), 1e-11, 1e-14)
