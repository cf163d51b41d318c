"""Record probabilities: the log |K|^2 rule, the two-axis product, and
the candidate-ranking helper."""

import math
import tracemalloc
from dataclasses import replace

import pytest

from conftest import scaled_inputs

from paulpath import (
    LogProbability,
    RankedRecord,
    RecordWindowError,
    discrete_propagator,
    joint_probability,
    probability_x,
    probability_z,
    rank_records,
    render,
    restricted_propagator,
    richardson,
)
from paulpath import integrate, mathieu, propagator
from paulpath.propagator import record_scorer
from paulpath.records import ConstantRecord, SampledRecord, SinusoidRecord


def _base(**kw):
    defaults = dict(
        u=0.4, v=0.6, T=2.0, resolution=1.2, x_start=0.3, x_end=-0.2,
        record=ConstantRecord(amplitude=0.4),
    )
    defaults.update(kw)
    return scaled_inputs(**defaults)


def _rendered(base, spec, n=257):
    return render(spec, base.meas, n_samples=n)


def test_log_p_is_twice_the_real_part():
    inputs = _base()
    p = probability_x(inputs)
    assert p.log_p == 2.0 * record_scorer(inputs).log_amplitude(inputs.record).real
    assert p.window == (inputs.bc.t_start, inputs.bc.t_end)
    # the direct route at a tight tolerance is a check of the rule, not its source
    direct = 2.0 * restricted_propagator(inputs, tol=1e-13).log_amplitude.real
    assert abs(p.log_p - direct) <= 1e-10 * abs(direct)


def test_parity_flip_leaves_log_p_alone():
    # negating endpoints and the record together is a symmetry of the
    # weighted action, so the full log-amplitude must be unchanged
    a = _base(x_start=0.3, x_end=-0.2, record=ConstantRecord(amplitude=0.4))
    b = _base(x_start=-0.3, x_end=0.2, record=ConstantRecord(amplitude=-0.4))
    ra, rb = restricted_propagator(a), restricted_propagator(b)
    assert abs(ra.log_amplitude - rb.log_amplitude) < 1e-10
    assert probability_x(a).log_p == pytest.approx(
        probability_x(b).log_p, rel=1e-12
    )


def test_probability_z_runs_the_same_pipeline():
    inputs = _base()
    assert probability_z(inputs).log_p == probability_x(inputs).log_p


def test_joint_probability_adds_and_commutes():
    px = LogProbability(log_p=-1.5, window=(0.0, 2.0))
    pz = LogProbability(log_p=-0.7, window=(0.0, 2.0))
    j = joint_probability(px, pz)
    assert j.log_p == px.log_p + pz.log_p
    assert j.window == (0.0, 2.0)
    assert joint_probability(pz, px).log_p == j.log_p


def test_joint_probability_accepts_untagged_factor():
    px = LogProbability(log_p=-1.5, window=(0.0, 2.0))
    pz = LogProbability(log_p=-0.7)
    assert joint_probability(px, pz).window == (0.0, 2.0)
    assert joint_probability(pz, px).window == (0.0, 2.0)


def test_joint_probability_rejects_window_mismatch():
    px = LogProbability(log_p=-1.5, window=(0.0, 2.0))
    pz = LogProbability(log_p=-0.7, window=(0.0, 3.0))
    with pytest.raises(RecordWindowError):
        joint_probability(px, pz)


def test_two_axis_ranking_rejects_window_mismatch():
    # the rule of joint_probability, on the bases' windows, before any solve
    x_base = _base(record=None)
    z_base = _base(u=-0.4, v=-0.6, T=3.0, record=None)
    rec = _rendered(x_base, ConstantRecord(amplitude=0.2))
    with pytest.raises(RecordWindowError, match=r"\(0\.0, 2\.0\).*\(0\.0, 3\.0\)"):
        rank_records(x_base, [rec], z_base=z_base)
    with pytest.raises(RecordWindowError):
        rank_records(x_base, [], z_base=z_base)


def test_unmonitored_limit_forgets_the_record():
    # resolution -> inf removes both the forcing and the record weight,
    # so every record scores identically (and equals the no-record run)
    base = _base(resolution=math.inf, record=None)
    specs = [
        ConstantRecord(amplitude=0.7),
        SinusoidRecord(amplitude=0.5, omega=1.3, phase=0.1),
        SampledRecord(values=(0.2, -0.4, 0.6, 0.1, -0.3)),
    ]
    p0 = probability_x(base).log_p
    for spec in specs:
        p = probability_x(replace(base, record=_rendered(base, spec))).log_p
        assert p == pytest.approx(p0, abs=1e-12)


def test_ranking_is_monotone_in_record_amplitude():
    # zero boundary: the quiet record is the most probable, and pushing
    # the claimed excursion out in units of the resolution only hurts
    da = 1.2
    base = _base(resolution=da, x_start=0.0, x_end=0.0, record=None)
    records = [
        _rendered(base, ConstantRecord(amplitude=0.0)),
        _rendered(base, ConstantRecord(amplitude=da)),
        _rendered(base, ConstantRecord(amplitude=2.0 * da)),
    ]
    ranked = rank_records(base, records, record_ids=["quiet", "one", "two"])
    assert [r.record_id for r in ranked] == ["quiet", "one", "two"]
    assert ranked[0].log_p > ranked[1].log_p > ranked[2].log_p
    assert ranked[0].log_odds == 0.0
    assert ranked[1].log_odds < 0.0
    assert all(math.isnan(r.log_p_z) for r in ranked)


def test_single_candidate_has_zero_odds():
    base = _base(record=None)
    ranked = rank_records(base, [_rendered(base, ConstantRecord(amplitude=0.3))])
    assert len(ranked) == 1
    assert ranked[0].log_odds == 0.0
    assert ranked[0].record_id == "record_0"
    assert ranked[0].log_p == ranked[0].log_p_x


def test_duplicate_candidates_keep_input_order():
    base = _base(record=None)
    rec = _rendered(base, ConstantRecord(amplitude=0.3))
    ranked = rank_records(base, [rec, rec], record_ids=["first", "second"])
    assert [r.record_id for r in ranked] == ["first", "second"]
    assert ranked[0].log_odds == 0.0 and ranked[1].log_odds == 0.0


def test_two_axis_ranking_sums_the_axes():
    x_base = _base(record=None)
    z_base = _base(u=-0.4, v=-0.6, record=None)
    records = [
        _rendered(x_base, ConstantRecord(amplitude=0.2)),
        _rendered(x_base, SinusoidRecord(amplitude=0.4, omega=1.1, phase=0.0)),
    ]
    ranked = rank_records(x_base, records, z_base=z_base)
    for row in ranked:
        assert row.log_p == row.log_p_x + row.log_p_z
        assert not math.isnan(row.log_p_z)
        # a row is slotted: four stored values, log_p derived from them
        assert not hasattr(row, "__dict__")


def test_threaded_ranking_matches_serial():
    base = _base(record=None)
    records = [
        _rendered(base, ConstantRecord(amplitude=0.1 * k)) for k in range(5)
    ] + [_rendered(base, SinusoidRecord(amplitude=0.3, omega=1.4, phase=0.2))]
    serial = rank_records(base, records, threads=1)
    threaded = rank_records(base, records, threads=4)
    assert serial == threaded


def test_ranking_reads_as_a_sequence_of_rows():
    base = _base(record=None)
    records = [_rendered(base, ConstantRecord(amplitude=0.1 * k)) for k in range(4)]
    ranked = rank_records(base, records, record_ids=["a", "b", "c", "d"])
    rows = list(ranked)
    assert len(ranked) == 4 and all(isinstance(row, RankedRecord) for row in rows)
    assert [row.record_id for row in rows] == ["a", "b", "c", "d"]
    # single axis: each read builds a fresh NaN, so a list of rows is not
    # equal to itself read again, but the ranking is equal to it
    assert rows != list(ranked)
    assert ranked == rows and rows == ranked and ranked == tuple(rows)
    assert ranked[-1].record_id == "d" and ranked[-4].record_id == "a"
    with pytest.raises(IndexError):
        ranked[4]
    with pytest.raises(IndexError):
        ranked[-5]
    assert ranked[1:3] == rows[1:3] and ranked[::-1] == rows[::-1]
    assert len(ranked[5:]) == 0 and ranked[5:] == []
    assert ranked != rows[:3] and ranked != rows[::-1]
    assert ranked != [replace(rows[0], log_odds=-1.0)] + rows[1:]
    assert ranked != ["a", "b", "c", "d"]
    with pytest.raises(TypeError):
        ranked[0] = rows[1]
    with pytest.raises(ValueError, match="read-only"):
        ranked._values[0, 0] = 0.0


def test_ranking_keeps_at_most_half_the_bytes_of_a_row_list():
    x_base = _base(record=None)
    z_base = _base(u=-0.4, v=-0.6, record=None)
    records = [_rendered(x_base, ConstantRecord(amplitude=0.1 * k)) for k in range(6)]
    ids = [f"r{k}" for k in range(6)]
    n = 200

    def grown(make, kept):
        # bytes one more batch of n adds, so one-time allocations drop out
        kept.extend(make(i) for i in range(n))
        before = tracemalloc.get_traced_memory()[0]
        kept.extend(make(i) for i in range(n))
        return (tracemalloc.get_traced_memory()[0] - before) / n

    rankings, lists = [], []
    tracemalloc.start()
    try:
        compact = grown(lambda i: rank_records(x_base, records, z_base, ids), rankings)
        rows = grown(lambda i: list(rankings[i]), lists)
    finally:
        tracemalloc.stop()
    assert lists[0] == rankings[0]
    assert compact <= 0.5 * rows, (compact, rows)


def test_id_count_mismatch_rejected():
    base = _base(record=None)
    rec = _rendered(base, ConstantRecord(amplitude=0.1))
    with pytest.raises(ValueError):
        rank_records(base, [rec], record_ids=["a", "b"])


def test_ranking_solves_each_axis_once(monkeypatch):
    # the candidates are scored from one closed-form homogeneous solve per
    # axis: no ODE pass at all, neither for the basis nor per candidate
    calls = []
    solve = integrate.solve_complex_ivp

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return solve(*args, **kwargs)

    for module in (integrate, mathieu, propagator):
        monkeypatch.setattr(module, "solve_complex_ivp", counted)
    x_base = _base(record=None)
    z_base = _base(u=-0.4, v=-0.6, record=None)
    records = [
        _rendered(x_base, ConstantRecord(amplitude=0.2)),
        _rendered(x_base, SinusoidRecord(amplitude=0.4, omega=1.1, phase=0.0)),
        _rendered(x_base, SampledRecord(values=(0.2, -0.4, 0.6, 0.1, -0.3))),
    ]
    ranked = rank_records(x_base, records, z_base=z_base)
    assert len(ranked) == 3 and all(math.isfinite(r.log_p) for r in ranked)
    assert rank_records(x_base, []) == []
    for case in records:
        assert math.isfinite(probability_x(replace(x_base, record=case)).log_p)
        assert math.isfinite(probability_z(replace(z_base, record=case)).log_p)
    assert calls == []


def test_ranking_scores_a_window_the_direct_route_refuses():
    # a driven Z-like window where the direct route, at its default
    # tolerance, returns about 3.4e-8 off in Re log K; the record scorer
    # behind both the ranking and probability_x is not
    inputs = scaled_inputs(
        u=-0.11, v=-1.1, T=50.0, resolution=1.3, x_start=0.3, x_end=-0.5,
        record=SinusoidRecord(0.3, 1.7, 0.2),
    )
    (row,) = rank_records(inputs, [inputs.record])
    log_p = probability_x(inputs).log_p
    extr, _ = richardson(
        discrete_propagator(inputs, 2**15), discrete_propagator(inputs, 2**16)
    )
    assert abs(0.5 * row.log_p_x - extr.real) < 1e-8
    assert abs(0.5 * log_p - extr.real) < 1e-8
    assert log_p == row.log_p_x


def test_mixed_grid_ranking_agrees_with_the_oracle():
    # three candidates on three grids of the window above, scored in one
    # batch per axis, each against its own Richardson-extrapolated oracle
    inputs = scaled_inputs(
        u=-0.11, v=-1.1, T=50.0, resolution=1.3, x_start=0.3, x_end=-0.5,
    )
    records = [
        render(SinusoidRecord(0.3, 1.7, 0.2), inputs.meas, n_samples=65),
        render(ConstantRecord(-0.4), inputs.meas, n_samples=50),
        render(SampledRecord(values=(0.2, -0.4, 0.6, 0.1, -0.3, 0.5, 0.0)), inputs.meas),
    ]
    ranked = rank_records(inputs, records, record_ids=["sin", "const", "samples"])
    assert {r.record_id for r in ranked} == {"sin", "const", "samples"}
    for row in ranked:
        rec = records[["sin", "const", "samples"].index(row.record_id)]
        case = replace(inputs, record=rec)
        extr, _ = richardson(
            discrete_propagator(case, 2**15), discrete_propagator(case, 2**16)
        )
        assert abs(0.5 * row.log_p_x - extr.real) < 1e-8, row.record_id
