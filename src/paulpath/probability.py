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
    Hill-Floquet basis: no ODE pass and no tolerance), and every
    candidate then costs O(n) linear algebra over its grid.  Ties keep
    the input order of the records, so duplicated candidates come out
    adjacent and stable.  ``threads`` is ignored: scoring is serial,
    which beats a thread pool at this cost.
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

    def score(record: MeasurementRecord) -> tuple[float, float]:
        lx = 2.0 * score_x.log_amplitude(record).real
        if score_z is None:
            return lx, math.nan
        return lx, 2.0 * score_z.log_amplitude(record).real

    scores = [score(r) for r in records]

    totals = [
        (lx if math.isnan(lz) else lx + lz) for lx, lz in scores
    ]
    best = max(totals)
    order = sorted(range(len(records)), key=lambda i: (-totals[i], i))
    return [
        RankedRecord(
            record_id=ids[i],
            log_p_x=scores[i][0],
            log_p_z=scores[i][1],
            log_odds=totals[i] - best,
        )
        for i in order
    ]
