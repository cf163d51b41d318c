"""Seeded workloads of the paulpath benchmark.

Each workload turns a seed into a list of rounds.  A round is a list of
calls into the program; one call scores one or more operations.  Every
round has the same shape (the same strata of record family, roughness
or window length, with seeded values inside each stratum), so runs on
different seeds do comparable work, and the timed loop always runs
whole rounds.  The program only ever sees the generated
``PropagatorInputs`` and records.  ``tiny_call`` gives a cheap call of
the first round, run untimed to warm up before the timed loop.

Calls go through module attributes (``propagator.restricted_propagator``
rather than a name imported at load time) so the tracer's wrappers are
the ones called when tracing is on.

Correctness is checked outside the timed section against the sliced
lattice oracle; see :func:`oracle_verdict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from paulpath import cli, oracle, probability, propagator, records, trapmodel
from paulpath.records import ConstantRecord, SampledRecord, SinusoidRecord

#: rounds generated per seed; the timed loop cycles through them
ROUNDS = 32

RTOL = cli.VALIDATE_LOGMOD_RTOL
ATOL = cli.VALIDATE_PHASE_ATOL

#: the oracle pair used as reference must estimate its own error at no
#: more than this share of the tolerance it checks against
ORACLE_MARGIN = 0.1
#: first oracle level: this many slices per radian of window phase, as
#: ``cli.check_phase_budget`` estimates it
SLICES_PER_RAD = 16
ORACLE_MIN_N = 1024
ORACLE_MAX_N = 2**21

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sweep(offset: float, r: int, lo: float, hi: float) -> float:
    """Round ``r``'s point of a low-discrepancy sweep of [lo, hi).

    The seed sets ``offset``; consecutive rounds then land far apart in
    the interval, so the few rounds one run executes cover the cost-driving
    parameters evenly whatever the seed, which keeps runs comparable.
    """
    return lo + (hi - lo) * ((offset + r * GOLDEN) % 1.0)


class Unverified(Exception):
    """The oracle could not reach the accuracy a verdict needs."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one operation's correctness check."""

    ok: bool
    dlogmod_rel: float
    dphase_rad: float


def oracle_verdict(inputs, value: complex, check_phase: bool) -> Verdict:
    """Compare a pipeline log-amplitude with a Richardson oracle pair.

    Lattices double until the pair's error estimate is at most
    ``ORACLE_MARGIN`` of the tolerance, then ``value`` is judged at the
    ``cli.VALIDATE_*`` tolerances (relative on the log-modulus, absolute
    on the continuous phase when ``check_phase``).  A value that misses
    by more than the tolerance plus ten error estimates is wrong without
    further refinement.  Raises :class:`Unverified` if the finest
    affordable pair is still too coarse for either verdict.
    """
    phase = cli.check_phase_budget(inputs, math.inf)
    n = max(ORACLE_MIN_N, 2 ** math.ceil(math.log2(SLICES_PER_RAD * phase + 1)))
    lo = oracle.discrete_propagator(inputs, n)
    while True:
        hi = oracle.discrete_propagator(inputs, 2 * n)
        extr, err = oracle.richardson(lo, hi)
        mod_tol = RTOL * abs(extr.real)
        tol = min(mod_tol, ATOL) if check_phase else mod_tol
        dmod = abs(value.real - extr.real)
        dphi = abs(value.imag - extr.imag) if check_phase else 0.0
        verdict = Verdict(
            ok=dmod <= mod_tol and dphi <= ATOL,
            dlogmod_rel=dmod / abs(extr.real),
            dphase_rad=dphi if check_phase else math.nan,
        )
        if err <= ORACLE_MARGIN * tol:
            return verdict
        if dmod > mod_tol + 10.0 * err or dphi > ATOL + 10.0 * err:
            return verdict
        # the estimate falls as N**-2: go straight to the predicted level
        steps = max(1, math.ceil(0.5 * math.log2(err / (ORACLE_MARGIN * tol))))
        if 2 * n * 2**steps > ORACLE_MAX_N:
            raise Unverified(f"oracle error {err:.2e} at N={2 * n} above {ORACLE_MARGIN * tol:.2e}")
        if steps == 1:
            n, lo = 2 * n, hi
        else:
            n *= 2**steps
            lo = oracle.discrete_propagator(inputs, n)


# --- rank-short --------------------------------------------------------------

UM = 1e-6


@dataclass(frozen=True)
class RankCall:
    ids: tuple[str, ...]
    records: tuple


class RankShort:
    """``rank_records`` over seeded candidates on the bundled short window.

    One call per round ranks six candidates on both axes, one per
    stratum: two constant levels, a slow and a fast sinusoid (0.3-0.8
    and 1.2-3 Mrad/s, 65 samples), and a short and a long noisy sampled
    record (12-20 and 40-64 values).  Frequencies, phases and lengths
    follow :func:`sweep`; amplitudes and sample values are drawn freely.
    One operation is one candidate.
    """

    name = "rank-short"
    scenario = "barium_short_window.scenario"

    def __init__(self, seed: int):
        sc = cli.load_scenario(self.scenario)
        self.x_base = cli.axis_inputs(sc, trapmodel.Axis.X)
        self.z_base = cli.axis_inputs(sc, trapmodel.Axis.Z)
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(size=6)
        self.rounds = [[self._call(rng, offsets, r)] for r in range(ROUNDS)]

    def _call(self, rng, offsets, r: int) -> RankCall:
        def amp():
            return rng.uniform(0.3, 1.2) * UM

        def sinusoid(k, lo, hi):
            omega = math.exp(sweep(offsets[k], r, math.log(lo), math.log(hi)))
            return SinusoidRecord(amp(), omega, sweep(offsets[k + 1], r, 0.0, 2.0 * math.pi))

        def sampled(k, lo, hi):
            n = int(sweep(offsets[k], r, lo, hi + 1))
            return SampledRecord(tuple(amp() * rng.standard_normal(n)))

        specs = {
            "const-pos": ConstantRecord(rng.uniform(0.2, 1.5) * UM),
            "const-neg": ConstantRecord(-rng.uniform(0.2, 1.5) * UM),
            "sin-slow": sinusoid(0, 0.3e6, 0.8e6),
            "sin-fast": sinusoid(2, 1.2e6, 3.0e6),
            "samples-short": sampled(4, 12, 20),
            "samples-long": sampled(5, 40, 64),
        }
        meas = self.x_base.meas
        return RankCall(
            ids=tuple(f"r{r}-{k}" for k in specs),
            records=tuple(records.render(s, meas, n_samples=65) for s in specs.values()),
        )

    @staticmethod
    def ops(call: RankCall) -> int:
        return len(call.ids)

    def tiny_call(self) -> RankCall:
        """The constant candidates of the first round: a call of ~0.1 s."""
        call = self.rounds[0][0]
        keep = [i for i, rid in enumerate(call.ids) if "const" in rid]
        return RankCall(tuple(call.ids[i] for i in keep), tuple(call.records[i] for i in keep))

    def execute(self, call: RankCall):
        return probability.rank_records(
            self.x_base, list(call.records), z_base=self.z_base,
            record_ids=list(call.ids), threads=1,
        )

    def check(self, call: RankCall, ranked) -> list[Verdict]:
        """Oracle check of both axes per candidate, plus the ranking's own
        invariants (every id once, descending log_p, log_odds against the
        best); a broken invariant makes every candidate of the call wrong."""
        by_id = {r.record_id: r for r in ranked}
        totals = [r.log_p for r in ranked]
        consistent = (
            sorted(by_id) == sorted(call.ids)
            and len(ranked) == len(call.ids)
            and totals == sorted(totals, reverse=True)
            and all(
                math.isclose(r.log_p, r.log_p_x + r.log_p_z, rel_tol=1e-12)
                and math.isclose(r.log_odds, r.log_p - totals[0], rel_tol=1e-12, abs_tol=1e-9)
                for r in ranked
            )
        )
        verdicts = []
        for rid, rec in zip(call.ids, call.records):
            row = by_id.get(rid)
            if row is None:
                verdicts.append(Verdict(False, math.nan, math.nan))
                continue
            per_axis = [
                oracle_verdict(replace(base, record=rec), complex(0.5 * log_p, 0.0), False)
                for base, log_p in ((self.x_base, row.log_p_x), (self.z_base, row.log_p_z))
            ]
            verdicts.append(Verdict(
                ok=consistent and all(v.ok for v in per_axis),
                dlogmod_rel=max(v.dlogmod_rel for v in per_axis),
                dphase_rad=math.nan,
            ))
        return verdicts


# --- validate-ladder ----------------------------------------------------------

#: oracle ladder of the validate-ladder operation
LADDER = tuple(2**k for k in range(12, 17))


@dataclass(frozen=True)
class LadderResult:
    pipeline: complex
    extrapolated: complex


class ValidateLadder:
    """Pipeline against a full oracle ladder on small monitored scenarios.

    Scenarios follow the acceptance-4a family in scaled units (|p|, |q|
    <= 1, 1.2-2.8 drive half-periods, measurement shift Im p in 0.02-0.25)
    with constant records; eight per round.  One operation is one
    scenario: ``restricted_propagator``, ``discrete_propagator`` at
    2**12 .. 2**16 slices and ``richardson`` on the top pair.
    """

    name = "validate-ladder"
    per_round = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.rounds = [[self._scenario(rng) for _ in range(self.per_round)] for _ in range(ROUNDS)]

    @staticmethod
    def _scenario(rng) -> propagator.PropagatorInputs:
        omega = rng.uniform(1.5, 3.0)
        q = rng.uniform(0.15, 0.9) * rng.choice([-1.0, 1.0])
        p_re = rng.uniform(-0.8, 0.8)
        im_p = rng.uniform(0.02, 0.25)
        m = rng.uniform(0.5, 2.0)
        T = 2.0 * rng.uniform(1.2, 2.8) / omega
        # Im u_tilde = -4 hbar / (m T da^2) = -im_p omega^2 / 4
        da = math.sqrt(16.0 / (m * T * omega**2 * im_p))
        u, v = p_re * omega**2 / 4.0, q * omega**2 / 2.0
        params = trapmodel.TrapParameters(
            charge=1.0, mass=m, half_gap=1.0, dc_voltage=u * m, ac_voltage=v * m,
            drive_omega=omega, hbar=1.0,
        )
        meas = trapmodel.MeasurementConfig(t_start=0.0, t_end=T, resolution=da)
        x_c = math.sqrt(1.0 / (m * omega))
        bc = propagator.BoundaryConditions(
            x_start=rng.uniform(-1, 1) * x_c, x_end=rng.uniform(-1, 1) * x_c,
            t_start=0.0, t_end=T,
        )
        rec = records.render(ConstantRecord(rng.uniform(0.2, 0.8) * da), meas, n_samples=2001)
        return propagator.PropagatorInputs(
            params=params, coeffs=trapmodel.derive_frequency_coefficients(params, trapmodel.Axis.X),
            meas=meas, record=rec, bc=bc,
        )

    @staticmethod
    def ops(call) -> int:
        return 1

    def tiny_call(self):
        """The first scenario of the first round."""
        return self.rounds[0][0]

    @staticmethod
    def execute(inputs) -> LadderResult:
        pipe = propagator.restricted_propagator(inputs).log_amplitude
        ladder = [oracle.discrete_propagator(inputs, n) for n in LADDER]
        extr, _ = oracle.richardson(ladder[-2], ladder[-1])
        return LadderResult(pipe, extr)

    @staticmethod
    def check(inputs, res: LadderResult) -> list[Verdict]:
        dmod = abs(res.pipeline.real - res.extrapolated.real) / abs(res.extrapolated.real)
        dphi = abs(res.pipeline.imag - res.extrapolated.imag)
        return [Verdict(dmod <= RTOL and dphi <= ATOL, dmod, dphi)]


# --- long-window ----------------------------------------------------------------

#: scaled-unit trap of the long windows: w2 = 1 - 0.9 cos(0.5 t), i.e.
#: Mathieu (p, q) = (16, 7.2), a stable point whose phase rate swings
#: from 0.32 to 1.38 rad per unit time within a drive period.  The small
#: mass puts log|K| near -3.2, well away from 0, so the relative
#: log-modulus tolerance stays a usable absolute one.
LONG_TRAP = dict(u=1.0, v=0.9, omega=0.5, mass=0.01)
LONG_RESOLUTION = 50.0
#: zero counts of D the five windows of a round aim at, +-8% seeded.  An
#: odd count of well separated strata puts the median operation time in
#: the middle stratum rather than between two single windows.
LONG_ZERO_STRATA = (40, 100, 180, 280, 520)


def long_trap() -> trapmodel.TrapParameters:
    u, v, omega, m = (LONG_TRAP[k] for k in ("u", "v", "omega", "mass"))
    return trapmodel.TrapParameters(
        charge=1.0, mass=m, half_gap=1.0, dc_voltage=u * m, ac_voltage=v * m,
        drive_omega=omega, hbar=1.0,
    )


class ZeroClock:
    """Zero count of D'' + (u - v cos(omega t)) D = 0, D(0) = 0, D'(0) = 1.

    Integrates the Pruefer angle theta' = cos^2 theta + w2 sin^2 theta of
    the unmonitored ``LONG_TRAP`` equation until it passes ``max_zeros``
    zeros; D vanishes each time theta passes a multiple of pi, so
    ``count(t)`` is theta(t) / pi with its fractional part kept.
    """

    def __init__(self, max_zeros: float):
        u, v, omega = LONG_TRAP["u"], LONG_TRAP["v"], LONG_TRAP["omega"]

        def rhs(t, th):
            s = math.sin(th[0])
            return [1.0 - s * s + (u - v * math.cos(omega * t)) * s * s]

        def done(t, th):
            return th[0] - math.pi * max_zeros

        done.terminal = True
        sol = solve_ivp(rhs, (0.0, 100.0 * max_zeros), [0.0], rtol=1e-8, atol=1e-8,
                        dense_output=True, events=done)
        self._sol = sol.sol
        self.t_max = float(sol.t[-1])

    def count(self, t: float) -> float:
        return float(self._sol(t)[0] / math.pi)

    def time_of(self, zeros: float) -> float:
        """The time at which ``count`` reaches ``zeros``."""
        return brentq(lambda t: self.count(t) - zeros, 0.0, self.t_max, xtol=1e-10)


class LongWindow:
    """One ``restricted_propagator`` call per long monitored window.

    The trap is fixed (``LONG_TRAP``), the record is the constant 0 and
    both endpoints sit at 0, so record and trajectory work are nil and the
    homogeneous solve plus the phase tracking carry the cost.  Window
    lengths are seeded around ``LONG_ZERO_STRATA`` zeros of D; each window
    ends where the Pruefer angle is half way between two zeros, away from
    a conjugate point.
    """

    name = "long-window"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.params = long_trap()
        self.coeffs = trapmodel.derive_frequency_coefficients(self.params, trapmodel.Axis.X)
        offsets = rng.uniform(size=len(LONG_ZERO_STRATA))
        zeros = [
            [round(z * sweep(o, r, 0.92, 1.08)) for z, o in zip(LONG_ZERO_STRATA, offsets)]
            for r in range(ROUNDS)
        ]
        clock = ZeroClock(max(map(max, zeros)) + 1)
        self.rounds = [[self._window(clock.time_of(k + 0.5)) for k in row] for row in zeros]

    def _window(self, T: float) -> propagator.PropagatorInputs:
        meas = trapmodel.MeasurementConfig(t_start=0.0, t_end=T, resolution=LONG_RESOLUTION)
        return propagator.PropagatorInputs(
            params=self.params, coeffs=self.coeffs, meas=meas,
            record=records.render(ConstantRecord(0.0), meas, n_samples=257),
            bc=propagator.BoundaryConditions(x_start=0.0, x_end=0.0, t_start=0.0, t_end=T),
        )

    @staticmethod
    def ops(call) -> int:
        return 1

    def tiny_call(self):
        """The shortest window of the first round."""
        return self.rounds[0][0]

    @staticmethod
    def execute(inputs) -> complex:
        cli.check_phase_budget(inputs, cli.Numerics().phase_budget_rad)
        return propagator.restricted_propagator(inputs).log_amplitude

    @staticmethod
    def check(inputs, log_amplitude: complex) -> list[Verdict]:
        return [oracle_verdict(inputs, log_amplitude, True)]


WORKLOADS = {w.name: w for w in (RankShort, ValidateLadder, LongWindow)}
