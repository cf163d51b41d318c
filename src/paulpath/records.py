"""Measurement records: candidate readouts a(t) of the monitored position.

A record lives on a uniform grid spanning exactly the measurement window
and is interpreted piecewise-linearly between samples.  Three analytic
families cover the use cases: a constant level, a sinusoid
A*cos(Omega*t + phi), and externally supplied samples.

Two derived quantities feed the propagator:

* the record norm  integral a(t)**2 dt,  taken exactly on the
  piecewise-linear interpolant (each segment contributes
  dt*(a0**2 + a0*a1 + a1**2)/3);
* the complex drive  F(t) = -4i hbar a(t) / (T da**2)  that the weight
  functional adds to the equation of motion.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import BadGridError, OutOfRangeError, RecordWindowError
from .trapmodel import MeasurementConfig, TrapParameters

#: relative slack when checking that a record or boundary spans a measurement window
_WINDOW_RTOL = 1e-9


@dataclass(frozen=True)
class MeasurementRecord:
    """Uniformly sampled record a(t_k), meters."""

    t_start: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise BadGridError("record needs at least two samples", field="record.values_m")
        if not np.all(np.isfinite(vals)):
            raise BadGridError("record samples must be finite", field="record.values_m")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise BadGridError("record step must be positive and finite", field="record.dt")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def t_end(self) -> float:
        return self.t_start + self.dt * (self.n_samples - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    def __call__(self, t):
        """Piecewise-linear evaluation at time(s) ``t`` (clamped ends)."""
        return np.interp(np.asarray(t, dtype=float), self.times, self.samples)


# --- analytic record families -------------------------------------------


@dataclass(frozen=True)
class ConstantRecord:
    amplitude: float
    kind = "constant"


@dataclass(frozen=True)
class SinusoidRecord:
    """a(t) = amplitude * cos(omega * t + phase), absolute time."""

    amplitude: float
    omega: float
    phase: float = 0.0
    kind = "sinusoid"


@dataclass(frozen=True)
class SampledRecord:
    """Raw samples to be laid out uniformly across the window."""

    values: tuple[float, ...]
    kind = "samples"


RecordSpec = ConstantRecord | SinusoidRecord | SampledRecord


def render(spec: RecordSpec, meas: MeasurementConfig, n_samples: int = 2001) -> MeasurementRecord:
    """Realize a record family on the measurement window's uniform grid."""
    if isinstance(spec, SampledRecord):
        vals = np.asarray(spec.values, dtype=float)
        if vals.size < 2:
            raise BadGridError("sampled record needs >= 2 values", field="record.values_m")
        n = vals.size
    else:
        if n_samples < 2:
            raise OutOfRangeError("n_samples must be >= 2", field="numerics.n_samples")
        n = n_samples
    dt = meas.duration / (n - 1)
    t = meas.t_start + dt * np.arange(n)
    if isinstance(spec, ConstantRecord):
        vals = np.full(n, float(spec.amplitude))
    elif isinstance(spec, SinusoidRecord):
        vals = spec.amplitude * np.cos(spec.omega * t + spec.phase)
    elif not isinstance(spec, SampledRecord):
        raise OutOfRangeError(f"unknown record family {type(spec).__name__}", field="record.kind")
    return MeasurementRecord(t_start=meas.t_start, dt=dt, samples=vals)


def misses_window(t_start: float, t_end: float, meas: MeasurementConfig) -> bool:
    """Whether an edge of [t_start, t_end] is off the measurement window
    by more than ``_WINDOW_RTOL`` of max(|t'|, |t''|, T)."""
    tol = _WINDOW_RTOL * max(abs(meas.t_start), abs(meas.t_end), meas.duration)
    return abs(t_start - meas.t_start) > tol or abs(t_end - meas.t_end) > tol


def check_spans_window(rec: MeasurementRecord, meas: MeasurementConfig) -> None:
    """Raise unless the record covers exactly the measurement window."""
    if misses_window(rec.t_start, rec.t_end, meas):
        raise RecordWindowError(
            f"record spans [{rec.t_start}, {rec.t_end}], window is "
            f"[{meas.t_start}, {meas.t_end}]",
            field="record",
        )


def record_norm_integral(rec: MeasurementRecord) -> float:
    """Exact integral of a(t)**2 over the record's span for the
    piecewise-linear interpolant."""
    return float(norm_integrals(rec.samples, rec.dt))


def norm_integrals(samples: np.ndarray, dt: float) -> np.ndarray:
    """:func:`record_norm_integral` of each row of ``samples`` (shape
    (..., n)) on a grid of step ``dt``."""
    a0 = samples[..., :-1]
    a1 = samples[..., 1:]
    return dt * (a0 * a0 + a0 * a1 + a1 * a1).sum(axis=-1) / 3.0


@dataclass(frozen=True)
class Forcing:
    """Sampled complex drive F(t_k), newtons, interpolated linearly."""

    t_start: float
    dt: float
    values: np.ndarray  # complex

    @cached_property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.values.size)

    def __call__(self, t):
        """np.interp of the samples at time(s) ``t`` (clamped ends); a
        complex for a scalar.  :meth:`scalar_rule` gives the same values
        at a fraction of the cost per scalar."""
        out = np.interp(np.asarray(t, dtype=float), self.times, self.values)
        if out.ndim == 0:
            return complex(out)
        return out

    def scalar_rule(self):
        """The drive at one float t, bit for bit what complex np.interp
        gives when it tabulates its slopes (a query of at least as many
        points as samples): the sample at a knot, the end samples beyond
        the ends, complex(t, 0) for NaN, and in between
        slope * (t - t_j) + F_j, slope = (F_{j+1} - F_j) * (1 / (t_{j+1} - t_j))
        per component.

        The segment is the one bisection finds: int((t - t_start) / dt),
        moved to the last knot at or before t.  The slopes are tabulated
        here as Python floats; they live as long as the returned function,
        so build it for one solve and drop it after (objects per sample
        kept for long would fragment the small-object heap)."""
        times = self.times
        values = np.asarray(self.values, dtype=complex)
        inv_dt = 1.0 / np.diff(times)
        ts, at = times.tolist(), values.tolist()
        re, im = values.real.tolist(), values.imag.tolist()
        slope_re = (np.diff(values.real) * inv_dt).tolist()
        slope_im = (np.diff(values.imag) * inv_dt).tolist()
        t_start, dt, top = self.t_start, self.dt, len(ts) - 2
        t_first, t_last, f_first, f_last = ts[0], ts[-1], at[0], at[-1]

        def drive_at(t):
            if t_first < t < t_last:
                j = int((t - t_start) / dt)
                if j > top:
                    j = top
                while ts[j] > t:
                    j -= 1
                while ts[j + 1] <= t:
                    j += 1
                t_j = ts[j]
                if t_j == t:
                    return at[j]
                s = t - t_j
                return complex(slope_re[j] * s + re[j], slope_im[j] * s + im[j])
            if t <= t_first:
                return f_first
            if t >= t_last:
                return f_last
            return complex(t, 0.0)  # NaN

        return drive_at


def record_forcing_scale(meas: MeasurementConfig, params: TrapParameters) -> float:
    """The real scale 4 hbar / (T da**2) mapping record samples to |F|.

    Zero when the measurement is off (infinite resolution).
    """
    return 2.0 * params.hbar * meas.weight_rate


def forcing(rec: MeasurementRecord, meas: MeasurementConfig, params: TrapParameters) -> Forcing:
    """Complex drive F(t) = -4i hbar a(t) / (T da**2) on the record grid.

    Identically zero (still a valid object) when the measurement is off.
    """
    check_spans_window(rec, meas)
    return Forcing(t_start=rec.t_start, dt=rec.dt, values=drive_samples(rec.samples, meas, params))


def drive_samples(
    samples: np.ndarray, meas: MeasurementConfig, params: TrapParameters
) -> np.ndarray:
    """The drive F = -4i hbar a / (T da**2) at the record samples ``a``
    (an array of any shape); zero when the measurement is off."""
    return -1j * record_forcing_scale(meas, params) * samples


# --- CSV interchange ------------------------------------------------------

_CSV_HEADER = ["time_s", "value_m"]


def write_record_csv(rec: MeasurementRecord, path: str | Path) -> None:
    """Write a record as two-column CSV with the required header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for t, v in zip(rec.times, rec.samples):
            writer.writerow([f"{t:.12e}", f"{v:.12e}"])


def read_record_csv(path: str | Path) -> MeasurementRecord:
    """Read a record written by :func:`write_record_csv`.

    The grid must be uniform; the header row is mandatory.  A missing or
    unreadable file is a BadGridError naming its path, as a bad header is
    and a data row of fewer than two cells, which names its line too.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, r) for r in reader if r and not r[0].lstrip().startswith("#")]
    except OSError as exc:
        raise BadGridError(f"cannot read: {exc.strerror or exc}", field=str(path)) from exc
    if not rows or [c.strip() for c in rows[0][1]] != _CSV_HEADER:
        raise BadGridError(
            f"first line must be the header {','.join(_CSV_HEADER)}", field=str(path)
        )
    for line, row in rows[1:]:
        if len(row) < 2:
            raise BadGridError(f"line {line}: need two cells, time and value", field=str(path))
    try:
        data = np.array([[float(c) for c in row[:2]] for _, row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise BadGridError(f"non-numeric cell: {exc}", field=str(path)) from exc
    if data.shape[0] < 2:
        raise BadGridError("need at least two samples", field=str(path))
    t, v = data[:, 0], data[:, 1]
    steps = np.diff(t)
    dt = steps[0]
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise BadGridError("time grid must be uniform and increasing", field=str(path))
    return MeasurementRecord(t_start=float(t[0]), dt=float(dt), samples=v)
