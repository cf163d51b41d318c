"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  They
run a tiny version of each workload through the same loop, check and
summary code as ``run.py``, and check the generators: one seed always
gives the same inputs, and the long windows straddle 256 zeros of D.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import run

workloads = run.load_program()

from paulpath import propagator, trapmodel  # noqa: E402  (importable once load_program ran)
from tracing import Tracer  # noqa: E402


def _fingerprint(obj):
    """Hashable summary of generated inputs, arrays included."""
    if isinstance(obj, workloads.RankCall):
        return obj.ids, tuple(_fingerprint(r) for r in obj.records)
    if isinstance(obj, propagator.PropagatorInputs):
        return obj.params, obj.coeffs, obj.meas, obj.bc, _fingerprint(obj.record)
    return obj.t_start, obj.dt, obj.samples.tobytes()


def _rounds(wl):
    return [[_fingerprint(call) for call in rnd] for rnd in wl.rounds]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_the_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    first = _rounds(cls(7))
    assert first == _rounds(cls(7))
    assert first != _rounds(cls(8))
    assert len(first) == workloads.ROUNDS


def _tiny(wl):
    """Keep one cheap call of the first round."""
    wl.rounds = [[wl.tiny_call()]]
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_checks(name):
    wl = _tiny(workloads.WORKLOADS[name](3))
    calls, wall = run.run_rounds(wl, 0.0)
    assert len(calls) == 1 and calls[0]["failure"] is None
    summary = run.summarize(run.check_calls(wl, calls), wall)
    assert summary["attempted"] == wl.ops(wl.rounds[0][0])
    assert summary["failed"] == 0 and summary["counts"]["unverified"] == 0
    assert summary["ops_per_s"] > 0


def test_long_windows_straddle_256_zeros():
    wl = workloads.LongWindow(5)
    windows = wl.rounds[0]
    clock = workloads.ZeroClock(2 * 256 * 1.2)
    zeros = [clock.count(inputs.bc.duration) for inputs in windows]
    assert min(zeros) < 256 < max(zeros)
    # past the reach of the 513-sample phase unwrap for this trap
    assert max(zeros) > 1.8 * 256
    # every window ends half way between two zeros, away from a conjugate point
    for z in zeros:
        assert abs(z - math.floor(z) - 0.5) < 0.05
    # below the unwrap limit the pipeline's own caustic count agrees
    shortest = min(windows, key=lambda inputs: inputs.bc.duration)
    res = propagator.restricted_propagator(shortest)
    assert res.prefactor.caustic_count == math.floor(min(zeros))


def test_long_trap_is_stable():
    trap = workloads.LONG_TRAP
    u, v, omega = trap["u"], trap["v"], trap["omega"]

    def rhs(t, y):
        w2 = u - v * math.cos(omega * t)
        return [y[1], -w2 * y[0], y[3], -w2 * y[2]]

    sol = solve_ivp(rhs, (0.0, 2.0 * math.pi / omega), [1.0, 0.0, 0.0, 1.0], rtol=1e-12, atol=1e-12)
    trace = sol.y[0, -1] + sol.y[3, -1]
    assert abs(trace) < 2.0


def test_tracer_counts_repeat_and_uninstall_restores():
    original = propagator.restricted_propagator
    original_w2 = trapmodel.EffectiveFrequencySpec.__dict__["w_squared"]
    wl = _tiny(workloads.LongWindow(3))
    tracer = Tracer()
    tracer.install()
    try:
        assert propagator.restricted_propagator is not original
        tracer.active = True
        counts = []
        for op in ("0.0", "1.0"):
            tracer.op = op
            wl.execute(wl.rounds[0][0])
            basis = [s for s in tracer.spans if s["op"] == op and s["name"] == "integrate.basis"]
            assert len(basis) == 1
            counts.append(basis[0]["counts"]["rhs_evals"])
        assert counts[0] == counts[1] > 0
        names = {s["name"] for s in tracer.spans}
        assert {"cli.check_phase_budget", "propagator.restricted_propagator",
                "propagator.classical_trajectory", "integrate.trajectory"} <= names
    finally:
        tracer.uninstall()
    assert propagator.restricted_propagator is original
    assert trapmodel.EffectiveFrequencySpec.__dict__["w_squared"] is original_w2
    assert np.isfinite(original(wl.rounds[0][0]).log_amplitude)
