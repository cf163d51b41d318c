"""Shared builders for the test suite.

Most numeric tests run in scaled units (hbar = 1, unit charge, unit
half gap) where the stiffness coefficients u, v can be dialed directly:
with charge = half_gap = 1 the coefficients are u = dc_voltage/mass and
v = ac_voltage/mass, so dc_voltage = u*mass and ac_voltage = v*mass.
"""

from __future__ import annotations

import math

import pytest

from paulpath import (
    Axis,
    BoundaryConditions,
    MeasurementConfig,
    PropagatorInputs,
    TrapParameters,
    derive_frequency_coefficients,
    effective_frequency,
    render,
)
from paulpath.propagator import _scorer_core
from paulpath.records import ConstantRecord

# One line per acceptance criterion, filled in by test_acceptance.py and
# replayed after the test summary so the PASS/FAIL verdicts are visible
# in a plain `pytest` run (captured stdout of passing tests is not).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _fresh_scorer_memo():
    """Each test builds its own scorers: a core an earlier test left in the
    memo would skip the builds that tests count or patch."""
    _scorer_core.cache_clear()
    yield
    _scorer_core.cache_clear()


def scaled_trap(u: float, v: float, omega: float = 2.0, mass: float = 1.0,
                hbar: float = 1.0) -> TrapParameters:
    """Trap whose X-axis stiffness is u - v*cos(omega t), scaled units."""
    return TrapParameters(
        charge=1.0,
        mass=mass,
        half_gap=1.0,
        dc_voltage=u * mass,
        ac_voltage=v * mass,
        drive_omega=omega,
        hbar=hbar,
    )


def scaled_inputs(
    u: float,
    v: float,
    T: float,
    resolution: float = math.inf,
    omega: float = 2.0,
    mass: float = 1.0,
    x_start: float = 0.0,
    x_end: float = 0.0,
    record=None,
    n_samples: int = 257,
) -> PropagatorInputs:
    """Complete X-axis propagation job in scaled units."""
    params = scaled_trap(u, v, omega=omega, mass=mass)
    meas = MeasurementConfig(t_start=0.0, t_end=T, resolution=resolution)
    spec = record if record is not None else ConstantRecord(amplitude=0.0)
    return PropagatorInputs(
        params=params,
        coeffs=derive_frequency_coefficients(params, Axis.X),
        meas=meas,
        record=render(spec, meas, n_samples=n_samples),
        bc=BoundaryConditions(x_start=x_start, x_end=x_end, t_start=0.0, t_end=T),
    )


def constant_frequency_spec(w0: float, omega: float = 1.0):
    """Effective stiffness fixed at w0**2 (no drive, no measurement)."""
    params = scaled_trap(u=w0 * w0, v=0.0, omega=omega)
    meas = MeasurementConfig(t_start=0.0, t_end=1.0, resolution=math.inf)
    return params, effective_frequency(
        derive_frequency_coefficients(params, Axis.X), meas, params
    )
