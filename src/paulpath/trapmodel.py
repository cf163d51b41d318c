"""Trap electrodynamics and the measurement-dressed frequency.

A charged particle in a quadrupole (Paul) trap sees, along each principal
axis, a harmonic restoring term whose stiffness is modulated at the drive
frequency: the transverse equation of motion is

    x'' + [U - V cos(omega t)] x = 0,

with U = e*Udc/(m r**2) and V = e*Vac/(m r**2) in 1/s**2, where Udc and
Vac are the static and drive electrode voltages and r is the electrode
half-gap.  The axial coordinate sees both coefficients with the opposite
sign (the quadrupole potential is traceless).

Continuous Gaussian monitoring of the position with resolution da over a
window of length T multiplies every path x(t) by the weight

    exp{ -(2 / (T da**2)) * integral (x - a)**2 dt },

a(t) being the candidate measurement record.  Expanding the square pushes
the x**2 part into the stiffness and the cross term into a linear drive,
so the monitored particle is again a driven harmonic system with the
complex effective stiffness

    w2(t) = U_tilde - V cos(omega t),   U_tilde = U - 4i hbar/(m T da**2),

driven by F(t) = -4i hbar a(t) / (T da**2).  (Both follow from putting the
weight under the path integral next to exp(iS/hbar); 1/i = -i.)

Scaling time as t_tilde = omega t / 2 turns the homogeneous equation into
a Mathieu equation psi'' + [p - 2 q cos(2 t_tilde)] psi = 0 with

    p = 4 U_tilde / omega**2,   q = 2 V / omega**2,

and the characteristic combination alpha = (p - 1 - q)/q that parametrizes
the truncated cosine-series solutions in :mod:`paulpath.mathieu`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ZeroQError

#: 2018 SI exact value of the reduced Planck constant, J*s.
HBAR_SI = 1.054571817e-34


class Axis(enum.Enum):
    """Principal trap axis.  X carries the potential with a + sign, Z
    (the axial direction) with a - sign."""

    X = "x"
    Z = "z"


@dataclass(frozen=True)
class TrapParameters:
    """Electrical and mechanical constants of the trap.

    Attributes
    ----------
    charge : float
        Particle charge, coulombs.  Positive for the usual single ion.
    mass : float
        Particle mass, kg.
    half_gap : float
        Electrode half-gap r, meters.
    dc_voltage : float
        Static electrode voltage Udc, volts.
    ac_voltage : float
        Drive voltage amplitude Vac, volts.
    drive_omega : float
        Drive angular frequency omega, rad/s.
    hbar : float
        Reduced Planck constant.  Fixed SI value by default; override
        explicitly only for unit-system experiments.
    """

    charge: float
    mass: float
    half_gap: float
    dc_voltage: float
    ac_voltage: float
    drive_omega: float
    hbar: float = HBAR_SI

    def __post_init__(self):
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ConfigError("mass must be positive and finite", field="trap.mass_kg")
        if not (self.half_gap > 0 and math.isfinite(self.half_gap)):
            raise ConfigError("half gap must be positive and finite", field="trap.half_gap_m")
        if not (self.drive_omega > 0 and math.isfinite(self.drive_omega)):
            raise ConfigError(
                "drive frequency must be positive and finite", field="trap.drive_omega_rad_s"
            )
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ConfigError("hbar must be positive and finite", field="trap.hbar_js")
        for name, key in (
            ("charge", "charge_c"),
            ("dc_voltage", "dc_voltage_v"),
            ("ac_voltage", "ac_voltage_v"),
        ):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite", field=f"trap.{key}")


@dataclass(frozen=True)
class FrequencyCoefficients:
    """Static and drive stiffness coefficients for one axis, 1/s**2.

    ``u`` multiplies the static restoring term, ``v`` the cosine drive:
    the (unmonitored) stiffness is u - v*cos(omega t).
    """

    u: float
    v: float
    axis: Axis


@dataclass(frozen=True)
class MeasurementConfig:
    """One axis' continuous position measurement.

    ``resolution`` is the Gaussian width da of the measurement weight;
    ``math.inf`` switches the measurement off exactly.
    """

    t_start: float
    t_end: float
    resolution: float

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ConfigError("window endpoints must be finite", field="measurement.window")
        if not self.t_end > self.t_start:
            raise ConfigError("window must have positive duration", field="measurement.window")
        if not self.resolution > 0 or math.isnan(self.resolution):
            raise ConfigError(
                "resolution must be positive (inf allowed)", field="measurement.resolution_m"
            )

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def weight_rate(self) -> float:
        """The coefficient 2/(T da**2) of the measurement weight, 1/(m**2 s).

        Exactly zero for infinite resolution.
        """
        if math.isinf(self.resolution):
            return 0.0
        return 2.0 / (self.duration * self.resolution**2)


@dataclass(frozen=True)
class EffectiveFrequencySpec:
    """Measurement-dressed stiffness w2(t) = u_tilde - v*cos(omega t)."""

    u_tilde: complex
    v: float
    drive_omega: float

    def w_squared(self, t):
        """Evaluate the complex effective stiffness at time(s) ``t``."""
        if isinstance(t, float):
            return self.u_tilde - self.v * math.cos(self.drive_omega * t)
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.u_tilde - self.v * np.cos(self.drive_omega * t), dtype=complex)
        if out.ndim == 0:
            return complex(out)
        return out

    def peak_stiffness(self, t0: float, t1: float) -> float:
        """Exact max |w2| over [t0, t1].  |u_tilde - v c| is convex in
        c = cos(omega t), so it peaks at an extreme of the cosine on the
        window: an edge value, or +1 (-1) if an even (odd) multiple of pi
        lies in [omega t0, omega t1]."""
        s0, s1 = self.drive_omega * t0, self.drive_omega * t1
        ends = [math.cos(s0), math.cos(s1)]
        for shift, c in ((0.0, 1.0), (math.pi, -1.0)):
            if math.floor((s1 - shift) / math.tau) >= math.ceil((s0 - shift) / math.tau):
                ends.append(c)
        return max(abs(self.u_tilde - self.v * c) for c in ends)


@dataclass(frozen=True)
class DimensionlessParams:
    """Mathieu-equation parameters of the scaled problem.

    p may be complex (its imaginary part encodes the measurement),
    q is real.  ``alpha`` is the series combination (p - 1 - q)/q.
    q = 0 is a valid parameter point for the numeric ODE route; only
    the series quantities (alpha and the cosine-series coefficients,
    which carry inverse powers of q) are undefined there.
    """

    p: complex
    q: float

    @property
    def alpha(self) -> complex:
        if self.q == 0:
            raise ZeroQError("q = 0: alpha = (p - 1 - q)/q undefined")
        return (self.p - 1.0 - self.q) / self.q


def derive_frequency_coefficients(params: TrapParameters, axis: Axis) -> FrequencyCoefficients:
    """Derive the per-axis stiffness coefficients from trap constants.

    u = e*Udc/(m r**2) and v = e*Vac/(m r**2) on the transverse axis;
    the axial (Z) axis negates both.
    """
    scale = params.charge / (params.mass * params.half_gap**2)
    u = scale * params.dc_voltage
    v = scale * params.ac_voltage
    if axis is Axis.Z:
        u, v = -u, -v
    return FrequencyCoefficients(u=u, v=v, axis=axis)


def effective_frequency(
    coeffs: FrequencyCoefficients,
    meas: MeasurementConfig,
    params: TrapParameters,
) -> EffectiveFrequencySpec:
    """Dress the stiffness with the measurement term.

    u_tilde = u - 2i hbar w / m = u - 4i hbar / (m T da**2) with the weight
    rate w = 2/(T da**2), which is exactly zero at infinite resolution.
    """
    return EffectiveFrequencySpec(
        u_tilde=coeffs.u - 2j * params.hbar * meas.weight_rate / params.mass,
        v=coeffs.v,
        drive_omega=params.drive_omega,
    )


def dimensionless(spec: EffectiveFrequencySpec) -> DimensionlessParams:
    """Map the effective stiffness to Mathieu parameters.

    p = 4*u_tilde/omega**2, q = 2*v/omega**2.  Raises :class:`ZeroQError`
    when the drive term vanishes, since the downstream series coefficients
    carry inverse powers of q.
    """
    omega2 = spec.drive_omega**2
    q = 2.0 * spec.v / omega2
    if q == 0:
        raise ZeroQError("drive coefficient v = 0 gives q = 0")
    return DimensionlessParams(p=4.0 * spec.u_tilde / omega2, q=q)


def whole_periods(duration: float, drive_omega: float) -> tuple[int, float]:
    """Split a window into N whole drive periods and a remainder r.

    Returns (N, r) with duration = N * (2 pi / omega) + r and
    0 <= r < 2 pi / omega.  A window that ends within rounding of a
    period boundary counts as whole periods (r = 0), so a window built
    as N periods is not split into N - 1 periods and an almost full one.
    """
    period = 2.0 * math.pi / drive_omega
    ratio = duration / period
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 + 8.0 * np.finfo(float).eps * ratio:
        return int(nearest), 0.0
    n = math.floor(ratio)
    return int(n), duration - n * period
