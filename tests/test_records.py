"""Measurement records: rendering, the weight-functional norm integral,
the induced complex forcing, and CSV round trips."""

import math
import re

import numpy as np
import pytest

from paulpath import (
    BadGridError,
    MeasurementConfig,
    MeasurementRecord,
    RecordWindowError,
    TrapParameters,
    check_spans_window,
    forcing,
    read_record_csv,
    record_forcing_scale,
    record_norm_integral,
    render,
    write_record_csv,
)
from paulpath.records import ConstantRecord, Forcing, SampledRecord, SinusoidRecord

REF = TrapParameters(
    charge=1.602176634e-19,
    mass=2.28e-25,
    half_gap=8.0e-3,
    dc_voltage=10.0,
    ac_voltage=100.0,
    drive_omega=2.0e6,
)
MEAS = MeasurementConfig(t_start=0.0, t_end=30.0, resolution=2.0e-6)


def test_constant_record_norm_is_exact():
    rec = render(ConstantRecord(amplitude=1.0e-6), MEAS, n_samples=11)
    assert record_norm_integral(rec) == pytest.approx(
        (1.0e-6) ** 2 * 30.0, rel=1e-15
    )


def test_norm_scales_quadratically():
    rng = np.random.default_rng(7)
    vals = tuple(rng.normal(size=23))
    meas = MeasurementConfig(t_start=0.0, t_end=2.0, resolution=1.0)
    base = record_norm_integral(render(SampledRecord(vals), meas))
    lam = 3.7
    scaled = record_norm_integral(
        render(SampledRecord(tuple(lam * v for v in vals)), meas)
    )
    assert scaled == pytest.approx(lam**2 * base, rel=1e-13)


def test_sinusoid_norm_over_whole_periods():
    # 8 whole periods, fine grid: the piecewise-linear integral of the
    # interpolant approaches A^2 T / 2 with O(dt^2) error.
    A, n_per = 2.5e-6, 8
    omega = 2.0 * math.pi * n_per / MEAS.duration
    rec = render(SinusoidRecord(amplitude=A, omega=omega), MEAS, n_samples=4001)
    assert record_norm_integral(rec) == pytest.approx(
        A * A * MEAS.duration / 2.0, rel=1e-3
    )


def test_sinusoid_uses_absolute_time_phase():
    meas = MeasurementConfig(t_start=5.0, t_end=7.0, resolution=1.0)
    rec = render(SinusoidRecord(amplitude=1.0, omega=3.0, phase=0.4), meas, 101)
    t = meas.t_start + rec.dt * np.arange(101)
    assert np.max(np.abs(rec.samples - np.cos(3.0 * t + 0.4))) < 1e-14


def test_forcing_scale_reference_magnitude():
    # A 1 um record at the reference parameters drives with
    # |F| = 4*hbar*A/(T*da^2) ~ 3.5e-30 N.
    scale = record_forcing_scale(MEAS, REF)
    assert scale * 1.0e-6 == pytest.approx(3.515239390e-30, rel=1e-8)
    rec = render(ConstantRecord(amplitude=1.0e-6), MEAS, n_samples=33)
    drive = forcing(rec, MEAS, REF)
    mags = np.abs(np.asarray(drive.values))
    assert mags.max() == pytest.approx(3.515239390e-30, rel=1e-8)
    # purely imaginary, from -i * scale * a(t) with scale real
    assert np.max(np.abs(np.real(drive.values))) == 0.0


def test_forcing_linearity():
    rng = np.random.default_rng(3)
    meas = MeasurementConfig(t_start=0.0, t_end=1.5, resolution=0.7)
    params = TrapParameters(
        charge=1.0, mass=1.0, half_gap=1.0, dc_voltage=1.0,
        ac_voltage=1.0, drive_omega=2.0, hbar=1.0,
    )
    a = tuple(rng.normal(size=17))
    b = tuple(rng.normal(size=17))
    fa = forcing(render(SampledRecord(a), meas), meas, params)
    fb = forcing(render(SampledRecord(b), meas), meas, params)
    fab = forcing(
        render(SampledRecord(tuple(x + y for x, y in zip(a, b))), meas),
        meas,
        params,
    )
    t = np.linspace(0.0, 1.5, 40)
    assert np.max(np.abs(fab(t) - fa(t) - fb(t))) < 1e-13 * np.max(np.abs(fab(t)))


def test_forcing_interpolates_linearly():
    meas = MeasurementConfig(t_start=0.0, t_end=1.0, resolution=1.0)
    params = TrapParameters(
        charge=1.0, mass=1.0, half_gap=1.0, dc_voltage=0.0,
        ac_voltage=1.0, drive_omega=2.0, hbar=1.0,
    )
    rec = render(SampledRecord((0.0, 1.0, 0.0)), meas)
    drive = forcing(rec, meas, params)
    scale = record_forcing_scale(meas, params)
    assert drive(0.25) == pytest.approx(-1j * scale * 0.5, rel=1e-14)
    assert drive(0.75) == pytest.approx(-1j * scale * 0.5, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 17, 400, 2001])
def test_forcing_scalar_branch_is_np_interp_bit_for_bit(n):
    # the right-hand sides read the drive through its scalar rule, one
    # float per step stage; it must give exactly what np.interp gives over
    # many points, for every float: the knots and their float neighbours,
    # the ends, NaN and +-inf
    rng = np.random.default_rng(n)
    values = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 3.7e-20
    values[n // 2] = 0.0
    values[(n - 1) // 3] = complex(-0.0, -0.0)  # a zero record's drive
    drive = Forcing(t_start=-0.31, dt=0.0137, values=values)
    nodes = drive.times
    span = nodes[-1] - nodes[0]
    t = np.concatenate([
        nodes,
        np.nextafter(nodes, -np.inf),
        np.nextafter(nodes, np.inf),
        nodes[:-1] + 0.5 * drive.dt,
        [nodes[0] - 1.0, nodes[0] - 1e-15, nodes[-1] + 1e-15, nodes[-1] + 1.0],
        [np.nan, -np.nan, np.inf, -np.inf],
        rng.uniform(nodes[0] - 0.01 * span, nodes[-1] + 0.01 * span, 2000),
    ])
    array = drive(t)
    drive_at = drive.scalar_rule()
    for kind in (float, np.float64):
        scalar = np.array([drive_at(kind(tt)) for tt in t])
        assert np.array_equal(scalar.view(np.uint64), array.view(np.uint64)), kind
        assert all(type(drive_at(kind(tt))) is complex for tt in t[::97])
    assert type(drive(float(t[0]))) is complex


def test_forcing_at_nan_is_nan_not_the_last_sample():
    # np.interp's value at NaN, from the array rule and the scalar rule
    drive = Forcing(0.0, 0.5, np.array([1 + 1j, 2, 3 - 1j]))
    for value in (drive(math.nan), drive.scalar_rule()(math.nan)):
        assert math.isnan(value.real) and value.imag == 0.0


def test_render_rejects_too_few_values():
    with pytest.raises(BadGridError):
        render(SampledRecord((1.0,)), MEAS)


def test_spans_window_check():
    rec = render(ConstantRecord(amplitude=1.0), MEAS, n_samples=11)
    shorter = MeasurementConfig(t_start=0.0, t_end=20.0, resolution=2e-6)
    with pytest.raises(RecordWindowError):
        check_spans_window(rec, shorter)
    check_spans_window(rec, MEAS)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    meas = MeasurementConfig(t_start=0.2, t_end=1.7, resolution=1.0)
    rec = render(SampledRecord(tuple(rng.normal(size=19))), meas)
    path = tmp_path / "rec.csv"
    write_record_csv(rec, path)
    back = read_record_csv(path)
    assert back.t_start == pytest.approx(rec.t_start, rel=1e-12)
    assert back.dt == pytest.approx(rec.dt, rel=1e-12)
    assert np.max(np.abs(back.samples - rec.samples)) < 1e-12 * np.max(
        np.abs(rec.samples)
    )
    # determinism: writing again yields identical bytes
    path2 = tmp_path / "rec2.csv"
    write_record_csv(rec, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "text, line",
    [
        ("time_s,value_m\n0.0\n1.0\n", 2),
        ("time_s,value_m\n# a comment\n0.0,1.0\n1.0\n2.0,1.5\n", 4),
        ("time_s,value_m\n0.0,1.0,7\n1.0,2.0\n", 2),
    ],
    ids=["one-column", "ragged", "three-cells"],
)
def test_csv_names_a_row_of_one_cell(tmp_path, text, line):
    path = tmp_path / "short_row.csv"
    path.write_text(text)
    with pytest.raises(BadGridError, match=re.escape(f"{path}: line {line}: need two cells")):
        read_record_csv(path)


def test_csv_rejects_nonuniform_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_s,value_m\n0.0,1.0\n1.0,2.0\n3.0,1.5\n"
    )
    with pytest.raises(BadGridError):
        read_record_csv(path)
