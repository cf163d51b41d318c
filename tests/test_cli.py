"""Command line surface: exit codes, CSV format, scenario loading, and
determinism of the sweep output."""

import math
import os
import subprocess
import sys
from pathlib import Path

import dataclasses

import numpy as np
import pytest
import yaml

from paulpath import (
    HBAR_SI, Axis, ConfigError, cli, derive_frequency_coefficients, dimensionless,
    effective_frequency, evaluate_f, mathieu_series, record_scorer, render,
    restricted_propagator,
)
from paulpath.cli import Numerics, axis_inputs, build_scenario, dump_scenario, load_scenario
from paulpath.propagator import fold_phase
from paulpath.records import ConstantRecord, SampledRecord, SinusoidRecord, write_record_csv

SHORT = "barium_short_window.scenario"
REFERENCE = "barium_reference.scenario"

CONJUGATE_YAML = """\
trap:
  charge_c: 1.0
  mass_kg: 1.0
  half_gap_m: 1.0
  dc_voltage_v: 1.0
  ac_voltage_v: 0.0
  drive_omega_rad_s: 2.0

measurement_x:
  t_start_s: 0.0
  t_end_s: {T}
  resolution_m: .inf

measurement_z:
  t_start_s: 0.0
  t_end_s: {T}
  resolution_m: .inf

boundary_x:
  x_start_m: 0.1
  x_end_m: 0.2

boundary_z:
  x_start_m: 0.0
  x_end_m: 0.0

record_x:
  kind: constant
  amplitude_m: 0.0

record_z:
  kind: constant
  amplitude_m: 0.0

numerics:
  tol: 1.0e-11
  n_samples: 257
  oracle_n: 64
  f_source: ode
  phase_budget_rad: 5.0e4
""".format(T=math.pi)


def _read(path):
    return path.read_text()


def _rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("# ")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


def _written(monkeypatch, argv):
    """(exit code, rows) of ``paulpath argv``, each row a dict by column of
    the values the subcommand hands to the CSV writer, before formatting."""
    rows = []
    monkeypatch.setattr(
        cli, "write_csv", lambda out, header, _, body: rows.extend(dict(zip(header, r)) for r in body)
    )
    return cli.main(argv), rows


def _scorer_log_k(scenario, axis) -> complex:
    """log K of the axis' own record by the record scorer."""
    inputs = axis_inputs(scenario, axis)
    return record_scorer(inputs).log_amplitude(inputs.record)


def _check_propagate_rows(monkeypatch, name):
    """``propagate`` on the scenario ``name`` writes the record scorer's
    numbers unchanged, and the sum of its parts is its log K."""
    code, rows = _written(monkeypatch, ["propagate", "--scenario", name])
    assert code == 0
    scenario = load_scenario(name)
    for row, axis in zip(rows, (Axis.X, Axis.Z), strict=True):
        inputs = axis_inputs(scenario, axis)
        scorer = record_scorer(inputs)
        log_k = scorer.log_amplitude(inputs.record)
        assert row["axis"] == axis.value
        assert row["log_modulus"] == log_k.real
        assert (row["phase_rad"], row["winding"]) == fold_phase(log_k.imag)
        prefactor = complex(row["log_prefactor_re"], row["log_prefactor_im"])
        assert prefactor == scorer.prefactor.log_value
        action = complex(row["action_re_js"], row["action_im_js"])
        assert row["record_term"] + 1j * action / inputs.params.hbar + prefactor == log_k


def test_propagate_short_window(tmp_path, monkeypatch):
    out = tmp_path / "prop.csv"
    rc = cli.main(["propagate", "--scenario", SHORT, "--out", str(out)])
    assert rc == 0
    text = _read(out)
    assert text.splitlines()[0].startswith("axis,")  # header first
    header, rows = _rows(text)
    assert [r[0] for r in rows] == ["x", "z"]
    # z axis carries the bundled half-resolution constant record
    rec_term = float(rows[1][header.index("record_term")])
    assert rec_term == pytest.approx(-0.5, abs=1e-12)
    # the numbers match an in-process run of the record scorer
    log_k = _scorer_log_k(load_scenario(SHORT), Axis.X)
    assert float(rows[0][header.index("log_modulus")]) == pytest.approx(log_k.real, rel=1e-12)
    assert int(rows[0][header.index("winding")]) == fold_phase(log_k.imag)[1]
    _check_propagate_rows(monkeypatch, SHORT)


def test_propagate_and_sweep_score_the_reference_window(monkeypatch, capsys):
    # the record scorer takes the 30 s window; the phase budget guards
    # only validate's sliced oracle
    _check_propagate_rows(monkeypatch, REFERENCE)
    argv = ["sweep", "--scenario", REFERENCE, "--param", "record.amplitude_m",
            "--values", "0.0,1.0e-6"]
    code, rows = _written(monkeypatch, argv)
    assert code == 0 and len(rows) == 2
    # the first point leaves record_z and the second record_x at the
    # bundled amplitude
    scenario = load_scenario(REFERENCE)
    assert rows[0]["log_p_z"] == 2.0 * _scorer_log_k(scenario, Axis.Z).real
    assert rows[1]["log_p_x"] == 2.0 * _scorer_log_k(scenario, Axis.X).real
    assert all(r["log_p_joint"] == r["log_p_x"] + r["log_p_z"] for r in rows)
    code, _ = _written(monkeypatch, ["validate", "--scenario", REFERENCE])
    assert code == 3
    assert "sliced oracle's budget" in capsys.readouterr().err


def test_free_particle_is_refused_with_exit_3(tmp_path, capsys):
    # no trap and no measurement: the record scorer has no Floquet pair
    doc = CONJUGATE_YAML.replace("  dc_voltage_v: 1.0\n", "  dc_voltage_v: 0.0\n")
    sc = tmp_path / "free.scenario"
    sc.write_text(doc)
    assert cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"]) == 3
    err = capsys.readouterr().err
    assert "free particle" in err and "restricted_propagator" in err


def test_conjugate_point_maps_to_exit_3(tmp_path, capsys):
    sc = tmp_path / "conj.scenario"
    sc.write_text(CONJUGATE_YAML)
    rc = cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_zero_drive_mathieu_maps_to_exit_2(tmp_path, capsys):
    sc = tmp_path / "conj.scenario"
    sc.write_text(CONJUGATE_YAML)
    rc = cli.main(["mathieu", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 2
    assert "q = 0" in capsys.readouterr().err


def test_malformed_yaml_maps_to_exit_2(tmp_path, capsys):
    sc = tmp_path / "broken.scenario"
    sc.write_text("trap: [unclosed\n")
    rc = cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 2


def test_missing_field_names_the_field(tmp_path, capsys):
    doc = CONJUGATE_YAML.replace("  mass_kg: 1.0\n", "")
    sc = tmp_path / "nomass.scenario"
    sc.write_text(doc)
    rc = cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 2
    assert "trap.mass_kg" in capsys.readouterr().err


def test_non_finite_voltage_names_the_key(tmp_path, capsys):
    doc = CONJUGATE_YAML.replace("  dc_voltage_v: 1.0\n", "  dc_voltage_v: .nan\n")
    sc = tmp_path / "nandc.scenario"
    sc.write_text(doc)
    rc = cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 2
    assert "trap.dc_voltage_v" in capsys.readouterr().err


def test_non_number_sample_names_the_key(tmp_path, capsys):
    doc = CONJUGATE_YAML.replace(
        "record_z:\n  kind: constant\n  amplitude_m: 0.0\n",
        "record_z:\n  kind: samples\n  values_m: [0.0, abc]\n",
    )
    sc = tmp_path / "badsample.scenario"
    sc.write_text(doc)
    rc = cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 2
    assert "record_z.values_m: not a number: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("  resolution_m: .inf\n\nmeasurement_z", "  resolution_m: -1\n\nmeasurement_z",
         "measurement_x.resolution_m"),
        # YAML 1.1 reads yes as true, which is not a resolution of 1 m
        ("  resolution_m: .inf\n\nmeasurement_z", "  resolution_m: yes\n\nmeasurement_z",
         "measurement_x.resolution_m"),
        ("  t_end_s: {T}\n  resolution_m: .inf\n\nboundary_x".format(T=math.pi),
         "  t_end_s: -1.0\n  resolution_m: .inf\n\nboundary_x", "measurement_z.window"),
        ("  x_end_m: 0.2\n", "  x_end_m: .nan\n", "boundary_x.x_end_m"),
        ("  x_start_m: 0.0\n", "  x_start_m: .inf\n", "boundary_z.x_start_m"),
    ],
    ids=["resolution", "resolution-yes", "window", "boundary-x-end", "boundary-z-start"],
)
def test_domain_errors_name_the_section_and_key(tmp_path, capsys, old, new, field):
    assert old in CONJUGATE_YAML
    sc = tmp_path / "domain.scenario"
    sc.write_text(CONJUGATE_YAML.replace(old, new))
    rc = cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 2
    assert f"error: {field}: " in capsys.readouterr().err


def _conjugate_doc(**numerics):
    raw = yaml.safe_load(CONJUGATE_YAML)
    raw["numerics"].update(numerics)
    return raw


@pytest.mark.parametrize(
    "key, value",
    [
        ("tol", -1.0),
        ("tol", 0.0),
        ("tol", math.nan),
        ("tol", math.inf),
        ("phase_budget_rad", math.nan),
        ("phase_budget_rad", 0.0),
        ("phase_budget_rad", -5.0),
        ("n_samples", math.nan),
        ("n_samples", math.inf),
        ("n_samples", 2.5),
        ("n_samples", True),
        ("tol", True),
        ("oracle_n", math.nan),
        ("f_source", "rk4"),
    ],
)
def test_out_of_domain_numerics_names_the_key(tmp_path, key, value):
    with pytest.raises(ConfigError, match=f"numerics.{key}"):
        build_scenario(_conjugate_doc(**{key: value}), tmp_path)


def test_numerics_defaults_and_unbounded_phase_budget(tmp_path):
    raw = _conjugate_doc(phase_budget_rad=math.inf)
    assert build_scenario(raw, tmp_path).numerics.phase_budget_rad == math.inf
    del raw["numerics"]
    sc = build_scenario(raw, tmp_path)
    assert sc.numerics == Numerics()
    assert sc.trap.hbar == HBAR_SI


def test_tol_override_meets_the_numerics_check(capsys):
    rc = cli.main(["propagate", "--scenario", SHORT, "--out", "stdout", "--tol", "-1"])
    assert rc == 2
    assert "numerics.tol" in capsys.readouterr().err


def test_nan_phase_budget_refused_before_the_scorer(tmp_path, monkeypatch, capsys):
    raw = yaml.safe_load(dump_scenario(load_scenario(REFERENCE)))
    raw["numerics"]["phase_budget_rad"] = math.nan
    sc = tmp_path / "nan_budget.scenario"
    sc.write_text(yaml.safe_dump(raw))

    def scorer(*args, **kwargs):
        raise AssertionError("the record scorer started")

    monkeypatch.setattr(cli, "record_scorer", scorer)
    rc = cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 2
    assert "numerics.phase_budget_rad" in capsys.readouterr().err


def test_unknown_key_names_the_field(tmp_path, capsys):
    doc = CONJUGATE_YAML.replace("  mass_kg:", "  mass_kq:")
    sc = tmp_path / "typo.scenario"
    sc.write_text(doc)
    rc = cli.main(["propagate", "--scenario", str(sc), "--out", "stdout"])
    assert rc == 2
    assert "mass_kq" in capsys.readouterr().err


def test_missing_scenario_file_maps_to_exit_2(capsys):
    rc = cli.main(["propagate", "--scenario", "no_such_thing.scenario", "--out", "stdout"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no_such_thing.scenario" in err


def test_validate_short_window_passes(tmp_path):
    out = tmp_path / "val.csv"
    rc = cli.main(["validate", "--scenario", SHORT, "--out", str(out)])
    assert rc == 0
    text = _read(out)
    header, rows = _rows(text)
    assert all(r[header.index("pass")] == "true" for r in rows)
    # identification lines ride along as comments
    assert any(l.startswith("# alpha = ") for l in text.splitlines())
    assert any(l.startswith("# beta = ") for l in text.splitlines())


def test_validate_pipeline_column_is_the_scorers(monkeypatch):
    code, rows = _written(monkeypatch, ["validate", "--scenario", SHORT])
    assert code == 0 and rows
    log_k = _scorer_log_k(load_scenario(SHORT), Axis.X)
    for row in rows:
        assert complex(row["pipeline_re"], row["pipeline_im"]) == log_k


def test_cli_numbers_agree_with_the_direct_route(monkeypatch):
    # the record scorer against the adaptive DOP853 route on the short
    # window: each number as its share of log K, log-modulus parts within
    # 1e-10 of |log K|'s real part and phase parts within 1e-10 rad
    scenario = load_scenario(SHORT)
    direct = {axis: restricted_propagator(axis_inputs(scenario, axis)) for axis in (Axis.X, Axis.Z)}

    def close(got: complex, want: complex, axis):
        scale = abs(direct[axis].log_modulus)
        assert abs(got.real - want.real) <= 1e-10 * scale, (axis, got, want)
        assert abs(got.imag - want.imag) <= 1e-10, (axis, got, want)

    hbar = scenario.trap.hbar
    _, rows = _written(monkeypatch, ["propagate", "--scenario", SHORT])
    for row, (axis, res) in zip(rows, direct.items(), strict=True):
        log_k = complex(row["log_modulus"], row["phase_rad"] + 2.0 * math.pi * row["winding"])
        close(log_k, res.log_amplitude, axis)
        close(row["record_term"], res.record_term, axis)
        close(1j * complex(row["action_re_js"], row["action_im_js"]) / hbar, res.action_term, axis)
        close(complex(row["log_prefactor_re"], row["log_prefactor_im"]), res.prefactor_term, axis)
    argv = ["sweep", "--scenario", SHORT, "--param", "record.amplitude_m", "--values", "1.0e-6"]
    _, (row,) = _written(monkeypatch, argv)
    for key, axis in (("log_p_x", Axis.X), ("log_p_z", Axis.Z)):
        close(row[key] / 2.0, direct[axis].log_modulus, axis)
    _, rows = _written(monkeypatch, ["validate", "--scenario", SHORT])
    for row in rows:
        close(complex(row["pipeline_re"], row["pipeline_im"]), direct[Axis.X].log_amplitude, Axis.X)


def test_validate_underresolved_fails_with_exit_4(tmp_path):
    out = tmp_path / "val.csv"
    rc = cli.main(
        ["validate", "--scenario", SHORT, "--out", str(out), "--levels", "2,4"]
    )
    assert rc == 4
    header, rows = _rows(_read(out))
    assert any(r[header.index("pass")] == "false" for r in rows)


def test_validate_rejects_bad_levels(capsys):
    # a list with no consecutive pair N, 2N would check nothing
    for levels in ("6,a", "1024", "2048,1024", "1024,4096"):
        argv = ["validate", "--scenario", SHORT, "--out", "stdout", "--levels", levels]
        assert cli.main(argv) == 2, levels
        assert "--levels" in capsys.readouterr().err, levels


def test_propagate_prints_to_stdout_the_bytes_it_writes_to_a_file(tmp_path, capsysbinary):
    out = tmp_path / "prop.csv"
    assert cli.main(["propagate", "--scenario", SHORT, "--out", str(out)]) == 0
    assert cli.main(["propagate", "--scenario", SHORT, "--out", "stdout"]) == 0
    printed = capsysbinary.readouterr().out
    assert printed and printed == out.read_bytes()


def test_an_infinite_resolution_written_inf_turns_the_measurement_off(tmp_path, monkeypatch):
    # "inf" is a YAML string (".inf" would be a float): the scenario reader
    # takes it as math.inf, so the record term is zero and prob scores the
    # library's measurement-off value
    text = cli._resolve_scenario_path(SHORT).read_text()
    text = text.replace("resolution_m: 2.0e-6", "resolution_m: inf")
    assert yaml.safe_load(text)["measurement_x"]["resolution_m"] == "inf"
    path = tmp_path / "off.scenario"
    path.write_text(text)
    scenario = load_scenario(str(path))
    assert scenario.measurement_x.resolution == math.inf
    assert scenario.measurement_z.resolution == math.inf
    off = load_scenario(SHORT)
    off = dataclasses.replace(
        off,
        measurement_x=dataclasses.replace(off.measurement_x, resolution=math.inf),
        measurement_z=dataclasses.replace(off.measurement_z, resolution=math.inf),
    )
    code, rows = _written(monkeypatch, ["propagate", "--scenario", str(path)])
    assert code == 0 and [row["record_term"] for row in rows] == [0.0, 0.0]
    code, (row,) = _written(monkeypatch, ["prob", "--scenario", str(path)])
    assert code == 0
    x_off = axis_inputs(off, Axis.X)
    (log_k,), (record_term,), _ = record_scorer(x_off).parts([x_off.record])
    assert record_term == 0.0
    assert row["log_p_x"] == 2.0 * log_k.real


def test_prob_scenario_candidate(tmp_path):
    out = tmp_path / "prob.csv"
    rc = cli.main(["prob", "--scenario", SHORT, "--out", str(out)])
    assert rc == 0
    header, rows = _rows(_read(out))
    assert len(rows) == 1
    assert rows[0][header.index("record_id")] == "scenario"
    assert float(rows[0][header.index("log_odds")]) == 0.0


def test_prob_ranks_candidate_files(tmp_path):
    scenario = load_scenario(SHORT)
    meas = scenario.measurement_x
    quiet = render(ConstantRecord(amplitude=0.0), meas, n_samples=101)
    loud = SampledRecord(values=tuple(4.0e-6 * np.ones(7)))
    loud = render(loud, meas, n_samples=101)
    qp, lp = tmp_path / "quiet.csv", tmp_path / "loud.csv"
    write_record_csv(quiet, qp)
    write_record_csv(loud, lp)
    out = tmp_path / "rank.csv"
    rc = cli.main(
        ["prob", "--scenario", SHORT, "--out", str(out),
         "--records", str(qp), str(lp)]
    )
    assert rc == 0
    header, rows = _rows(_read(out))
    assert [r[header.index("record_id")] for r in rows] == ["quiet", "loud"]
    assert float(rows[0][header.index("log_odds")]) == 0.0
    assert float(rows[1][header.index("log_odds")]) < 0.0


def test_prob_scores_the_reference_window(tmp_path):
    # prob runs only the closed-form scorer, so the 30 s window's phase
    # budget, which guards only validate's sliced oracle, does not stop it
    out = tmp_path / "ref.csv"
    assert cli.main(["prob", "--scenario", REFERENCE, "--out", str(out)]) == 0
    header, rows = _rows(_read(out))
    x_base = axis_inputs(load_scenario(REFERENCE), Axis.X)
    expected = 2.0 * record_scorer(x_base).log_amplitude(x_base.record).real
    assert float(rows[0][header.index("log_p_x")]) == pytest.approx(expected, rel=1e-12)
    # a candidate that is not constant scores there too
    wave = tmp_path / "wave.csv"
    meas = load_scenario(REFERENCE).measurement_x
    write_record_csv(render(SinusoidRecord(1.0e-6, 1.0, 0.3), meas, n_samples=257), wave)
    ranked = tmp_path / "rank.csv"
    argv = ["prob", "--scenario", REFERENCE, "--out", str(ranked), "--records", str(wave)]
    assert cli.main(argv) == 0
    header, rows = _rows(_read(ranked))
    assert [r[header.index("record_id")] for r in rows] == ["wave"]
    assert math.isfinite(float(rows[0][header.index("log_p_joint")]))


def test_sweep_is_deterministic_and_matches_library(tmp_path):
    argv = [
        "sweep", "--scenario", SHORT, "--tol", "1e-9",
        "--param", "record.amplitude_m", "--values", "0.0,1.0e-6",
    ]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    header, rows = _rows(_read(out1))
    # second point leaves both records at the bundled amplitude, so the
    # sweep row must reproduce an in-process score of the record scorer
    scenario = load_scenario(SHORT)
    lx, lz = (2.0 * _scorer_log_k(scenario, axis).real for axis in (Axis.X, Axis.Z))
    assert float(rows[1][header.index("log_p_x")]) == pytest.approx(lx, rel=1e-12)
    assert float(rows[1][header.index("log_p_z")]) == pytest.approx(lz, rel=1e-12)
    assert float(rows[1][header.index("log_p_joint")]) == pytest.approx(
        lx + lz, rel=1e-12
    )
    # quiet record scores better than the bundled one on this scenario?
    # no assertion on ordering here, just that both points produced rows
    assert len(rows) == 2


def test_sweep_without_params_emits_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    rc = cli.main(["sweep", "--scenario", SHORT, "--out", str(out)])
    assert rc == 0
    header, rows = _rows(_read(out))
    assert header == ["point", "log_p_x", "log_p_z", "log_p_joint"]
    assert rows == []


def test_sweep_rejects_unknown_parameter(capsys):
    rc = cli.main(
        ["sweep", "--scenario", SHORT, "--out", "stdout",
         "--param", "trap.mass_kg", "--values", "1.0"]
    )
    assert rc == 2
    assert "not sweepable" in capsys.readouterr().err


def test_sweep_rejects_key_of_other_record_kind(capsys):
    # record.omega_rad_s reaches record_z, a constant record in SHORT
    rc = cli.main(
        ["sweep", "--scenario", SHORT, "--out", "stdout",
         "--param", "record.omega_rad_s", "--values", "1.0e6"]
    )
    assert rc == 2
    assert "record_z.omega_rad_s: unknown key" in capsys.readouterr().err


def test_mathieu_dump(tmp_path):
    out = tmp_path / "mathieu.csv"
    rc = cli.main(
        ["mathieu", "--scenario", REFERENCE, "--out", str(out), "--n-terms", "4"]
    )
    assert rc == 0
    text = _read(out)
    header, rows = _rows(text)
    assert header == ["t_tilde", "f_re", "f_im"]
    assert len(rows) == 257
    comments = [l for l in text.splitlines() if l.startswith("# ")]
    alpha_line = next(l for l in comments if l.startswith("# alpha = "))
    assert alpha_line.split()[3].startswith("-2.62152200829")
    assert any(l.startswith("# c7 = ") for l in comments)


@pytest.mark.parametrize("t_max", ["0", "inf", "nan"])
def test_mathieu_refuses_an_empty_or_non_finite_span(t_max, capsys, tmp_path):
    # both f_source routes: the integrated reference solution and the series
    series = dataclasses.replace(
        load_scenario(REFERENCE),
        numerics=dataclasses.replace(load_scenario(REFERENCE).numerics, f_source="series"),
    )
    (tmp_path / "series.scenario").write_text(dump_scenario(series))
    for scenario in (REFERENCE, str(tmp_path / "series.scenario")):
        rc = cli.main(["mathieu", "--scenario", scenario, "--out", "stdout", "--t-max", t_max])
        assert rc == 2
        err = capsys.readouterr().err
        assert "span" in err and "--t-max" in err


def test_mathieu_series_column_is_the_library_series(tmp_path, monkeypatch):
    # f_source: series writes evaluate_f on a uniform grid of the span
    scenario = load_scenario(REFERENCE)
    series = dataclasses.replace(
        scenario, numerics=dataclasses.replace(scenario.numerics, f_source="series")
    )
    path = tmp_path / "series.scenario"
    path.write_text(dump_scenario(series))
    argv = [
        "mathieu", "--scenario", str(path), "--n-terms", "3", "--t-max", "2.5", "--samples", "33",
    ]
    code, rows = _written(monkeypatch, argv)
    assert code == 0
    spec = effective_frequency(
        derive_frequency_coefficients(series.trap, Axis.X), series.measurement_x, series.trap
    )
    t = np.linspace(0.0, 2.5, 33)
    f = evaluate_f(mathieu_series(dimensionless(spec), n_terms=3), t)
    assert [row["t_tilde"] for row in rows] == t.tolist()
    assert [complex(row["f_re"], row["f_im"]) for row in rows] == np.asarray(f).tolist()


def test_mathieu_runs_backward(tmp_path):
    out = tmp_path / "mathieu.csv"
    rc = cli.main(["mathieu", "--scenario", REFERENCE, "--out", str(out), "--t-max", "-1"])
    assert rc == 0
    _, rows = _rows(_read(out))
    assert len(rows) == 257 and float(rows[-1][0]) == -1.0


def test_mathieu_refuses_negative_samples(capsys):
    rc = cli.main(["mathieu", "--scenario", REFERENCE, "--out", "stdout", "--samples", "-1"])
    assert rc == 2
    assert "--samples" in capsys.readouterr().err


def test_prob_refuses_a_one_column_candidate_file(tmp_path, capsys):
    bad = tmp_path / "one_column.csv"
    bad.write_text("time_s,value_m\n0.0\n1.0e-6\n")
    rc = cli.main(["prob", "--scenario", SHORT, "--out", "stdout", "--records", str(bad)])
    assert rc == 2
    assert f"{bad}: line 2: " in capsys.readouterr().err


def test_sweep_and_prob_refuse_different_x_and_z_windows(tmp_path, capsys):
    raw = yaml.safe_load(dump_scenario(load_scenario(SHORT)))
    raw["measurement_z"]["t_end_s"] = 3.0e-6
    sc = tmp_path / "windows.scenario"
    sc.write_text(yaml.safe_dump(raw))
    errors = []
    for argv in (
        ["sweep", "--param", "record.amplitude_m", "--values", "0.0,1.0e-6"], ["sweep"], ["prob"]
    ):
        assert cli.main([*argv, "--scenario", str(sc), "--out", "stdout"]) == 2
        out, err = capsys.readouterr()
        assert out == "", argv
        errors.append(err)
    assert errors[0] == errors[1] == errors[2]
    assert "(0.0, 2e-06)" in errors[0] and "(0.0, 3e-06)" in errors[0], errors[0]


def test_prob_refuses_a_missing_candidate_file(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    rc = cli.main(["prob", "--scenario", SHORT, "--out", "stdout", "--records", str(missing)])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


def test_mathieu_passes_the_tolerance_to_the_solve(monkeypatch, tmp_path):
    seen = []
    solve = cli.integrate_mathieu_ode

    def spy(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_mathieu_ode", spy)
    outs = []
    for extra in ([], ["--tol", "1e-5"]):
        out = tmp_path / f"mathieu{len(outs)}.csv"
        assert cli.main(["mathieu", "--scenario", REFERENCE, "--out", str(out), *extra]) == 0
        outs.append(_read(out))
    assert seen == [load_scenario(REFERENCE).numerics.tol, 1e-5]
    assert outs[0] != outs[1]


def test_dump_scenario_round_trips(tmp_path):
    scenario = load_scenario(SHORT)
    text = dump_scenario(scenario)
    path = tmp_path / "dumped.scenario"
    path.write_text(text)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["propagate", "--scenario", SHORT, "--out", str(out1)]) == 0
    assert cli.main(["propagate", "--scenario", str(path), "--out", str(out2)]) == 0
    # metadata lines name the scenario, so compare the data rows only
    assert _rows(_read(out1)) == _rows(_read(out2))


RECORD_NODES = {
    "constant": {"kind": "constant", "amplitude_m": -2.5e-7},
    "sinusoid": {
        "kind": "sinusoid", "amplitude_m": 1.5e-7, "omega_rad_s": 3.0, "phase_rad": -0.7,
    },
    "samples": {"kind": "samples", "values_m": [0.0, 1.0e-7, -3.0e-7, 2.0e-7]},
}


@pytest.mark.parametrize(
    "kind_x, kind_z",
    [("constant", "sinusoid"), ("sinusoid", "samples"), ("samples", "constant")],
)
def test_dump_scenario_round_trips_every_key(tmp_path, kind_x, kind_z):
    raw = yaml.safe_load(CONJUGATE_YAML)
    raw["trap"]["hbar_js"] = 0.5
    raw["record_x"] = RECORD_NODES[kind_x]
    raw["record_z"] = RECORD_NODES[kind_z]
    raw["numerics"] = {
        "tol": 1.0e-9,
        "n_samples": 513,
        "oracle_n": 256,
        "f_source": "series",
        "phase_budget_rad": 1.0e3,
    }
    sc = build_scenario(raw, tmp_path)
    for f in dataclasses.fields(Numerics):
        assert getattr(sc.numerics, f.name) != f.default, f.name
    assert build_scenario(yaml.safe_load(dump_scenario(sc)), tmp_path) == sc


def test_dump_scenario_writes_csv_record_as_its_samples(tmp_path):
    raw = yaml.safe_load(CONJUGATE_YAML)
    meas = build_scenario(raw, tmp_path).measurement_x
    rec = render(SampledRecord(values=(0.0, 2.0e-7, -1.0e-7)), meas, n_samples=3)
    write_record_csv(rec, tmp_path / "cand.csv")
    raw["record_x"] = {"kind": "csv", "path": "cand.csv"}
    sc = build_scenario(raw, tmp_path)
    again = build_scenario(yaml.safe_load(dump_scenario(sc)), tmp_path)
    assert again.record_x == SampledRecord(values=tuple(sc.record_x.samples))
    assert np.array_equal(again.record_x.values, rec.samples)


def test_console_entry_point_smoke(tmp_path):
    out = tmp_path / "prop.csv"
    # the child imports the same package as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "paulpath.cli", "propagate",
         "--scenario", SHORT, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def _runs_without_scipy_integrate(tmp_path, command, *extra, scenario=SHORT, allow_linalg=False):
    """Run ``paulpath <command> <extra>`` on ``scenario`` (the short window)
    in a fresh process and check that scipy.integrate, and scipy.linalg
    unless ``allow_linalg``, are loaded neither by the import nor by the
    run."""
    out = tmp_path / f"{command}.csv"
    refused = ("scipy.integrate",) + (() if allow_linalg else ("scipy.linalg",))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import paulpath.cli\n"
        f"loaded = lambda: [m for m in {refused!r} if m in sys.modules]\n"
        "assert not loaded(), ('import', loaded())\n"
        f"argv = [{command!r}, '--scenario', {str(scenario)!r}, '--out', {str(out)!r},"
        f" *{extra!r}]\n"
        "code = paulpath.cli.main(argv)\n"
        "assert code == 0, code\n"
        f"assert not loaded(), ({command!r}, loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_prob_runs_without_importing_the_adaptive_integrator(tmp_path):
    # scipy.integrate is most of a fresh process's start-up; only the
    # checks and the ODE column of `mathieu` load it
    _runs_without_scipy_integrate(tmp_path, "prob")


def test_propagate_runs_without_importing_the_adaptive_integrator(tmp_path):
    # propagate scores through the record scorer, as prob does
    _runs_without_scipy_integrate(tmp_path, "propagate")


def test_sweep_runs_without_importing_the_adaptive_integrator(tmp_path):
    _runs_without_scipy_integrate(
        tmp_path, "sweep", "--param", "record.amplitude_m", "--values", "0.0"
    )


def test_validate_runs_without_importing_the_adaptive_integrator(tmp_path):
    # the sliced oracle loads scipy.linalg for its banded solves
    _runs_without_scipy_integrate(tmp_path, "validate", allow_linalg=True)


def test_mathieu_series_runs_without_importing_the_adaptive_integrator(tmp_path):
    # only the ODE column (f_source: ode) solves an initial value problem
    raw = yaml.safe_load(dump_scenario(load_scenario(SHORT)))
    raw["numerics"]["f_source"] = "series"
    sc = tmp_path / "series.scenario"
    sc.write_text(yaml.safe_dump(raw))
    _runs_without_scipy_integrate(tmp_path, "mathieu", scenario=sc)
