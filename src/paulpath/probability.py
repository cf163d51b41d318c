"""Log-probabilities of candidate measurement records.

The unnormalized probability density of observing a record a(t) on one
axis is |K_a|**2 of that axis' restricted propagator, so in log domain

    log_p = 2 Re log K_a.

The transverse and axial motions are independent, which makes the joint
log-probability of a record pair the plain sum of the per-axis values.
Common normalization constants cancel in ratios, so everything here is
comparative: the ranking helper reports log-odds against the best
candidate rather than absolute probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import RecordWindowError
from .integrate import DEFAULT_TOL
from .propagator import PropagatorInputs, record_scorer, restricted_propagator
from .records import MeasurementRecord


@dataclass(frozen=True)
class LogProbability:
    """Unnormalized log-probability of one record on one axis (or jointly).

    ``window`` tags the time interval the value refers to.  It exists so
    that :func:`joint_probability` can refuse to combine factors computed
    over different intervals; it carries no numerical weight.
    """

    log_p: float
    window: Optional[tuple[float, float]] = None


def probability_x(inputs: PropagatorInputs, tol: float = DEFAULT_TOL) -> LogProbability:
    """log_p of the record in ``inputs`` via the transverse pipeline."""
    res = restricted_propagator(inputs, tol=tol)
    return LogProbability(
        log_p=2.0 * res.log_amplitude.real,
        window=(inputs.bc.t_start, inputs.bc.t_end),
    )


def probability_z(inputs: PropagatorInputs, tol: float = DEFAULT_TOL) -> LogProbability:
    """log_p of the record in ``inputs`` on the axial direction.

    The pipeline is identical to :func:`probability_x`; the axial physics
    enters entirely through the sign-flipped stiffness coefficients and
    the axial measurement/boundary data the caller placed in ``inputs``.
    The function exists so call sites read the same way the two-axis
    factorization is usually written.
    """
    return probability_x(inputs, tol=tol)


def joint_probability(px: LogProbability, pz: LogProbability) -> LogProbability:
    """Combine independent per-axis factors: log_p_joint = log_p_x + log_p_z.

    Raises RecordWindowError if both factors carry window tags and the
    tags differ; a joint probability only makes sense for records that
    cover the same time interval.
    """
    if px.window is not None and pz.window is not None and px.window != pz.window:
        raise RecordWindowError(
            f"cannot combine probabilities over different windows"
            f" {px.window} and {pz.window}"
        )
    return LogProbability(
        log_p=px.log_p + pz.log_p,
        window=px.window if px.window is not None else pz.window,
    )


@dataclass(frozen=True, slots=True)
class RankedRecord:
    """One row of a record ranking.

    log_p_z is NaN when the ranking ran on a single axis, in which case
    log_p equals log_p_x.  log_odds is log_p minus the best candidate's
    log_p, hence 0 for the winner and negative elsewhere.  log_p is
    derived, not stored: a row holds four values in 64 bytes.
    """

    record_id: str
    log_p_x: float
    log_p_z: float
    log_odds: float

    @property
    def log_p(self) -> float:
        """Joint log-probability: log_p_x + log_p_z, or log_p_x alone."""
        return self.log_p_x if math.isnan(self.log_p_z) else self.log_p_x + self.log_p_z


def rank_records(
    x_base: PropagatorInputs,
    records: Sequence[MeasurementRecord],
    z_base: Optional[PropagatorInputs] = None,
    record_ids: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> list[RankedRecord]:
    """Score candidate records and order them by descending log_p.

    Each record is scored on the axis of ``x_base`` (and of ``z_base``
    when given, applying the same candidate to both axes); the record
    inside a base is not read.  Each axis is solved once, by
    :func:`~paulpath.propagator.record_scorer` in closed form (the
    Floquet pair of the axis: no ODE pass, no tolerance, and no refusal
    for the window's length), and scores all candidates with one
    :meth:`~paulpath.propagator.RecordScorer.log_amplitudes` call: the
    candidates that share a grid share one O(samples x harmonics) pass
    over it, and each costs O(samples) more, whatever the number of drive
    periods.  Ties keep the input order of the records, so duplicated
    candidates come out adjacent and stable.  ``threads`` is accepted
    and ignored: the candidates on one grid are scored together in one
    vectorised pass, which leaves a thread pool nothing to share out.
    """
    if record_ids is None:
        ids = [f"record_{i}" for i in range(len(records))]
    else:
        if len(record_ids) != len(records):
            raise ValueError(
                f"{len(record_ids)} ids for {len(records)} records"
            )
        ids = list(record_ids)
    if not records:
        return []

    score_x = record_scorer(x_base)
    score_z = None if z_base is None else record_scorer(z_base)
    log_p_x = (2.0 * score_x.log_amplitudes(records).real).tolist()
    if score_z is None:
        log_p_z = [math.nan] * len(records)
        totals = log_p_x
    else:
        log_p_z = (2.0 * score_z.log_amplitudes(records).real).tolist()
        totals = [lx + lz for lx, lz in zip(log_p_x, log_p_z)]
    best = max(totals)
    order = sorted(range(len(records)), key=lambda i: (-totals[i], i))
    return [
        RankedRecord(
            record_id=ids[i],
            log_p_x=log_p_x[i],
            log_p_z=log_p_z[i],
            log_odds=totals[i] - best,
        )
        for i in order
    ]
