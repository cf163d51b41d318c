"""Log-probabilities of candidate measurement records.

The unnormalized probability density of observing a record a(t) on one
axis is |K_a|**2 of that axis' restricted propagator, so in log domain

    log_p = 2 Re log K_a,

with log K_a from :func:`~paulpath.propagator.record_scorer`, the closed
form on the Floquet pair of the axis: no ODE pass and no tolerance, on a
window of any length.  The transverse and axial motions are independent,
which makes the joint log-probability of a record pair the plain sum of
the per-axis values, over one window: :func:`joint_probability` and a
two-axis :func:`rank_records` refuse factors over different windows.
Common normalization constants cancel in ratios, so everything here is
comparative: the ranking helper reports log-odds against the best
candidate rather than absolute probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import RecordWindowError
from .propagator import PropagatorInputs, record_scorer
from .records import MeasurementRecord

#: the time interval (t_start, t_end) a log-probability refers to
Window = tuple[float, float]


@dataclass(frozen=True)
class LogProbability:
    """Unnormalized log-probability of one record on one axis (or jointly).

    ``window`` tags the time interval the value refers to.  It exists so
    that :func:`joint_probability` can refuse to combine factors computed
    over different intervals; it carries no numerical weight.
    """

    log_p: float
    window: Optional[Window] = None


def _window(inputs: PropagatorInputs) -> Window:
    return (inputs.bc.t_start, inputs.bc.t_end)


def _joint_window(x: Optional[Window], z: Optional[Window]) -> Optional[Window]:
    """The window of a joint probability of factors over ``x`` and ``z``
    (None: untagged), which must be one window when both are tagged.

    Raises
    ------
    RecordWindowError
        If both windows are given and differ.
    """
    if x is not None and z is not None and x != z:
        raise RecordWindowError(
            f"a joint probability needs one window, but the x window is {x}"
            f" and the z window {z}"
        )
    return x if x is not None else z


def probability_x(inputs: PropagatorInputs) -> LogProbability:
    """log_p = 2 Re log K of the record in ``inputs``, scored by
    :func:`~paulpath.propagator.record_scorer`, tagged with the window of
    ``inputs.bc``."""
    log_k = record_scorer(inputs).log_amplitude(inputs.record)
    return LogProbability(log_p=2.0 * log_k.real, window=_window(inputs))


def probability_z(inputs: PropagatorInputs) -> LogProbability:
    """log_p of the record in ``inputs`` on the axial direction.

    The rule is that of :func:`probability_x`; the axial physics enters
    entirely through the sign-flipped stiffness coefficients and the
    axial measurement/boundary data the caller placed in ``inputs``.  The
    function exists so call sites read the same way the two-axis
    factorization is usually written.
    """
    return probability_x(inputs)


def joint_probability(px: LogProbability, pz: LogProbability) -> LogProbability:
    """Combine independent per-axis factors: log_p_joint = log_p_x + log_p_z.

    Raises RecordWindowError if both factors carry window tags and the
    tags differ; a joint probability only makes sense for records that
    cover the same time interval.
    """
    return LogProbability(
        log_p=px.log_p + pz.log_p, window=_joint_window(px.window, pz.window)
    )


@dataclass(frozen=True, slots=True)
class RankedRecord:
    """One row of a record ranking.

    log_p_z is NaN when the ranking ran on a single axis, in which case
    log_p equals log_p_x.  log_odds is log_p minus the best candidate's
    log_p, hence 0 for the winner and negative elsewhere.  log_p is
    derived, not stored: a row is 64 bytes, plus 24 for each of its three
    float objects.  A :class:`Ranking` keeps no rows; it builds them when
    they are read.
    """

    record_id: str
    log_p_x: float
    log_p_z: float
    log_odds: float

    @property
    def log_p(self) -> float:
        """Joint log-probability: log_p_x + log_p_z, or log_p_x alone."""
        return self.log_p_x if math.isnan(self.log_p_z) else self.log_p_x + self.log_p_z


class Ranking(Sequence[RankedRecord]):
    """The rows of :func:`rank_records`, best first, read-only and compact:
    the ids as a tuple and (log_p_x, log_p_z, log_odds) as one read-only
    float64 array of shape (rows, 3), 24 bytes a row; each
    :class:`RankedRecord` is built when it is read.  A slice is a
    Ranking.  Rankings compare by value with each other and with lists or
    tuples of rows, NaN equal to NaN (log_p_z of a single-axis ranking).
    """

    __slots__ = ("_ids", "_values")

    def __init__(self, ids: tuple[str, ...], values: np.ndarray):
        values.flags.writeable = False
        self._ids, self._values = ids, values

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ranking(self._ids[index], self._values[index])
        return RankedRecord(self._ids[index], *self._values[index].tolist())

    def __iter__(self):
        for record_id, values in zip(self._ids, self._values.tolist()):
            yield RankedRecord(record_id, *values)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)) and all(isinstance(r, RankedRecord) for r in other):
            other = Ranking(
                tuple(r.record_id for r in other),
                np.array([(r.log_p_x, r.log_p_z, r.log_odds) for r in other]).reshape(-1, 3),
            )
        if not isinstance(other, Ranking):
            return NotImplemented
        return self._ids == other._ids and np.array_equal(
            self._values, other._values, equal_nan=True
        )

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"


def rank_records(
    x_base: PropagatorInputs,
    records: Sequence[MeasurementRecord],
    z_base: Optional[PropagatorInputs] = None,
    record_ids: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> Ranking:
    """Score candidate records and order them by descending log_p.

    Each record is scored on the axis of ``x_base`` (and of ``z_base``
    when given, applying the same candidate to both axes, whose windows
    must then be one as in :func:`joint_probability`); the record inside a
    base is not read.  log_p_x and log_p_z follow the rule of
    :func:`probability_x`.  Each axis is solved by
    :func:`~paulpath.propagator.record_scorer` in closed form (the
    Floquet pair of the axis: no ODE pass, no tolerance, and no refusal
    for the window's length), once per trap and window across calls, and
    scores all candidates with one
    :meth:`~paulpath.propagator.RecordScorer.log_amplitudes` call: the
    candidates that share a grid share one O(samples x harmonics) pass
    over it, and each costs O(samples) more, whatever the number of drive
    periods.  The order is a stable sort, so ties keep the input order of
    the records, and duplicated candidates come out adjacent.  ``threads``
    is accepted and ignored: the candidates on one grid are scored
    together in one vectorised pass, which leaves a thread pool nothing to
    share out.

    Raises
    ------
    RecordWindowError
        If ``z_base`` is given and its window is not that of ``x_base``.
    """
    if z_base is not None:
        _joint_window(_window(x_base), _window(z_base))
    if record_ids is None:
        ids = [f"record_{i}" for i in range(len(records))]
    else:
        if len(record_ids) != len(records):
            raise ValueError(
                f"{len(record_ids)} ids for {len(records)} records"
            )
        ids = list(record_ids)
    if not records:
        return Ranking((), np.empty((0, 3)))

    score_x = record_scorer(x_base)
    score_z = None if z_base is None else record_scorer(z_base)
    values = np.empty((len(records), 3))
    values[:, 0] = 2.0 * score_x.log_amplitudes(records).real
    if score_z is None:
        values[:, 1] = math.nan
        totals = values[:, 0]
    else:
        values[:, 1] = 2.0 * score_z.log_amplitudes(records).real
        totals = values[:, 0] + values[:, 1]
    values[:, 2] = totals - totals.max()
    order = np.argsort(-totals, kind="stable")
    return Ranking(tuple(ids[i] for i in order.tolist()), values[order])
