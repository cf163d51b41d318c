"""Scenario-driven command line front end.

Subcommands
-----------
propagate   restricted propagator of both axes, one CSV row per axis
prob        rank candidate measurement records by joint log-probability
validate    compare the pipeline against the sliced-lattice oracle
sweep       Cartesian parameter sweep with log_p columns, long format
mathieu     dump series coefficients and reference-solution samples

Scenario files are YAML with fixed, unit-suffixed key names; see the
bundled ``*.scenario`` files for the schema written out with comments.
All numeric output is CSV: comma separated, '.' decimal, ``%.12e``
floats, LF line endings, header on the first line.  Run metadata lives
in '#' comment lines and never contains timestamps, so identical inputs
produce byte-identical output.

Exit codes: 0 ok, 2 config error, 3 numerical singularity or guard,
4 validation failure.
"""

from __future__ import annotations

import argparse
import copy
import io
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import (
    ConfigError,
    PaulpathError,
    PhaseBudgetError,
    ZeroQError,
)
from .mathieu import integrate_mathieu_ode, evaluate_f, mathieu_series
from .oracle import discrete_propagator, richardson
from .probability import rank_records
from .propagator import (
    BoundaryConditions,
    PropagatorInputs,
    restricted_propagator,
)
from .records import (
    ConstantRecord,
    MeasurementRecord,
    RecordSpec,
    SampledRecord,
    SinusoidRecord,
    read_record_csv,
    render,
)
from .trapmodel import (
    Axis,
    HBAR_SI,
    MeasurementConfig,
    TrapParameters,
    derive_frequency_coefficients,
    dimensionless,
    effective_frequency,
)

#: Acceptance tolerances of cmd_validate: relative on log-modulus,
#: absolute (rad) on the continuous phase.
VALIDATE_LOGMOD_RTOL = 1e-3
VALIDATE_PHASE_ATOL = 1e-3


# ---------------------------------------------------------------------------
# scenario files


@dataclass(frozen=True)
class Numerics:
    """Knobs that tune accuracy and cost, not physics."""

    tol: float = 1e-11
    n_samples: int = 2001
    oracle_n: int = 2048
    f_source: str = "ode"
    phase_budget_rad: float = 5.0e4


@dataclass(frozen=True)
class Scenario:
    """Complete two-axis job description parsed from one file."""

    trap: TrapParameters
    measurement_x: MeasurementConfig
    measurement_z: MeasurementConfig
    boundary_x: BoundaryConditions
    boundary_z: BoundaryConditions
    record_x: RecordSpec | MeasurementRecord
    record_z: RecordSpec | MeasurementRecord
    numerics: Numerics


def _section(raw: dict, name: str) -> dict:
    node = raw.get(name)
    if not isinstance(node, dict):
        raise ConfigError("missing or non-mapping section", field=name)
    return node


def _float(node: dict, section: str, key: str, default=None) -> float:
    if key not in node:
        if default is not None:
            return default
        raise ConfigError("missing value", field=f"{section}.{key}")
    v = node[key]
    if isinstance(v, str) and v.strip().lower() in ("inf", ".inf", "infinity"):
        return math.inf
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"not a number: {v!r}", field=f"{section}.{key}") from None


def _int(node: dict, section: str, key: str, default=None) -> int:
    v = _float(node, section, key, default)
    if v != int(v):
        raise ConfigError(f"not an integer: {v!r}", field=f"{section}.{key}")
    return int(v)


def _known_keys(node: dict, section: str, allowed: set[str]) -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError("unknown key", field=f"{section}.{key}")


def _parse_record(raw: dict, section: str, base_dir: Path):
    node = _section(raw, section)
    kind = node.get("kind")
    if kind == "constant":
        _known_keys(node, section, {"kind", "amplitude_m"})
        return ConstantRecord(amplitude=_float(node, section, "amplitude_m"))
    if kind == "sinusoid":
        _known_keys(node, section, {"kind", "amplitude_m", "omega_rad_s", "phase_rad"})
        return SinusoidRecord(
            amplitude=_float(node, section, "amplitude_m"),
            omega=_float(node, section, "omega_rad_s"),
            phase=_float(node, section, "phase_rad", 0.0),
        )
    if kind == "samples":
        _known_keys(node, section, {"kind", "values_m"})
        values = node.get("values_m")
        if not isinstance(values, list) or len(values) < 2:
            raise ConfigError(
                "need a list of >= 2 numbers", field=f"{section}.values_m"
            )
        return SampledRecord(values=tuple(float(v) for v in values))
    if kind == "csv":
        _known_keys(node, section, {"kind", "path"})
        path = node.get("path")
        if not isinstance(path, str):
            raise ConfigError("missing csv path", field=f"{section}.path")
        return read_record_csv(base_dir / path)
    raise ConfigError(
        f"kind must be constant|sinusoid|samples|csv, got {kind!r}",
        field=f"{section}.kind",
    )


def build_scenario(raw: dict, base_dir: Path) -> Scenario:
    """Validate a parsed mapping and assemble the typed scenario."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario file is not a mapping", field="(root)")
    _known_keys(
        raw,
        "(root)",
        {
            "trap",
            "measurement_x",
            "measurement_z",
            "boundary_x",
            "boundary_z",
            "record_x",
            "record_z",
            "numerics",
        },
    )
    t = _section(raw, "trap")
    _known_keys(
        t,
        "trap",
        {
            "charge_c",
            "mass_kg",
            "half_gap_m",
            "dc_voltage_v",
            "ac_voltage_v",
            "drive_omega_rad_s",
            "hbar_js",
        },
    )
    trap = TrapParameters(
        charge=_float(t, "trap", "charge_c"),
        mass=_float(t, "trap", "mass_kg"),
        half_gap=_float(t, "trap", "half_gap_m"),
        dc_voltage=_float(t, "trap", "dc_voltage_v"),
        ac_voltage=_float(t, "trap", "ac_voltage_v"),
        drive_omega=_float(t, "trap", "drive_omega_rad_s"),
        hbar=_float(t, "trap", "hbar_js", HBAR_SI),
    )

    def meas(section: str) -> MeasurementConfig:
        node = _section(raw, section)
        _known_keys(node, section, {"t_start_s", "t_end_s", "resolution_m"})
        return MeasurementConfig(
            t_start=_float(node, section, "t_start_s"),
            t_end=_float(node, section, "t_end_s"),
            resolution=_float(node, section, "resolution_m"),
        )

    measurement_x = meas("measurement_x")
    measurement_z = meas("measurement_z")

    def bound(section: str, window: MeasurementConfig) -> BoundaryConditions:
        node = _section(raw, section)
        _known_keys(node, section, {"x_start_m", "x_end_m"})
        return BoundaryConditions(
            x_start=_float(node, section, "x_start_m"),
            x_end=_float(node, section, "x_end_m"),
            t_start=window.t_start,
            t_end=window.t_end,
        )

    n = raw.get("numerics", {})
    if not isinstance(n, dict):
        raise ConfigError("non-mapping section", field="numerics")
    _known_keys(
        n,
        "numerics",
        {"tol", "n_samples", "oracle_n", "f_source", "phase_budget_rad"},
    )
    f_source = n.get("f_source", "ode")
    if f_source not in ("ode", "series"):
        raise ConfigError(
            f"f_source must be ode|series, got {f_source!r}", field="numerics.f_source"
        )
    numerics = Numerics(
        tol=_float(n, "numerics", "tol", 1e-11),
        n_samples=_int(n, "numerics", "n_samples", 2001),
        oracle_n=_int(n, "numerics", "oracle_n", 2048),
        f_source=f_source,
        phase_budget_rad=_float(n, "numerics", "phase_budget_rad", 5.0e4),
    )
    return Scenario(
        trap=trap,
        measurement_x=measurement_x,
        measurement_z=measurement_z,
        boundary_x=bound("boundary_x", measurement_x),
        boundary_z=bound("boundary_z", measurement_z),
        record_x=_parse_record(raw, "record_x", base_dir),
        record_z=_parse_record(raw, "record_z", base_dir),
        numerics=numerics,
    )


def _resolve_scenario_path(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    bundled = resources.files("paulpath.data") / name
    try:
        if bundled.is_file():
            with resources.as_file(bundled) as p:
                return Path(p)
    except (FileNotFoundError, ModuleNotFoundError):
        pass
    raise ConfigError(f"scenario file not found: {name}", field="--scenario")


def load_scenario_dict(name: str) -> tuple[dict, Path]:
    """Raw mapping plus the directory used to resolve relative paths."""
    path = _resolve_scenario_path(name)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse scenario file: {e}", field=str(path)) from e
    return raw, path.parent


def load_scenario(name: str) -> Scenario:
    raw, base_dir = load_scenario_dict(name)
    return build_scenario(raw, base_dir)


def _record_node(spec) -> dict:
    if isinstance(spec, ConstantRecord):
        return {"kind": "constant", "amplitude_m": float(spec.amplitude)}
    if isinstance(spec, SinusoidRecord):
        return {
            "kind": "sinusoid",
            "amplitude_m": float(spec.amplitude),
            "omega_rad_s": float(spec.omega),
            "phase_rad": float(spec.phase),
        }
    if isinstance(spec, SampledRecord):
        return {"kind": "samples", "values_m": [float(v) for v in spec.values]}
    # Rendered (for instance csv-backed) records dump as effective samples.
    return {"kind": "samples", "values_m": [float(v) for v in spec.samples]}


def dump_scenario(scenario: Scenario) -> str:
    """Serialize the effective scenario; re-parsing gives an equivalent one."""
    doc = {
        "trap": {
            "charge_c": scenario.trap.charge,
            "mass_kg": scenario.trap.mass,
            "half_gap_m": scenario.trap.half_gap,
            "dc_voltage_v": scenario.trap.dc_voltage,
            "ac_voltage_v": scenario.trap.ac_voltage,
            "drive_omega_rad_s": scenario.trap.drive_omega,
            "hbar_js": scenario.trap.hbar,
        },
        "measurement_x": {
            "t_start_s": scenario.measurement_x.t_start,
            "t_end_s": scenario.measurement_x.t_end,
            "resolution_m": scenario.measurement_x.resolution,
        },
        "measurement_z": {
            "t_start_s": scenario.measurement_z.t_start,
            "t_end_s": scenario.measurement_z.t_end,
            "resolution_m": scenario.measurement_z.resolution,
        },
        "boundary_x": {
            "x_start_m": scenario.boundary_x.x_start,
            "x_end_m": scenario.boundary_x.x_end,
        },
        "boundary_z": {
            "x_start_m": scenario.boundary_z.x_start,
            "x_end_m": scenario.boundary_z.x_end,
        },
        "record_x": _record_node(scenario.record_x),
        "record_z": _record_node(scenario.record_z),
        "numerics": {
            "tol": scenario.numerics.tol,
            "n_samples": scenario.numerics.n_samples,
            "oracle_n": scenario.numerics.oracle_n,
            "f_source": scenario.numerics.f_source,
            "phase_budget_rad": scenario.numerics.phase_budget_rad,
        },
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def axis_inputs(scenario: Scenario, axis: Axis) -> PropagatorInputs:
    """Assemble one axis' propagation job from the scenario."""
    if axis is Axis.X:
        meas, bc, rec = scenario.measurement_x, scenario.boundary_x, scenario.record_x
    else:
        meas, bc, rec = scenario.measurement_z, scenario.boundary_z, scenario.record_z
    if not isinstance(rec, MeasurementRecord):
        rec = render(rec, meas, n_samples=scenario.numerics.n_samples)
    return PropagatorInputs(
        params=scenario.trap,
        coeffs=derive_frequency_coefficients(scenario.trap, axis),
        meas=meas,
        record=rec,
        bc=bc,
    )


def check_phase_budget(inputs: PropagatorInputs, budget: float) -> float:
    """Estimate the total oscillation phase of the window and guard it.

    The estimate is T * sqrt(max |w_tilde^2|), the phase a constant
    stiffness at the window's stiffest point would accumulate.  Above
    the budget, direct time-domain integration is refused rather than
    silently returned with unknown accuracy.
    """
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    t = np.linspace(inputs.bc.t_start, inputs.bc.t_end, 4097)
    w2 = np.abs(np.asarray(spec.w_squared(t)))
    estimate = float(np.sqrt(w2.max()) * inputs.bc.duration)
    if estimate > budget:
        raise PhaseBudgetError(
            f"estimated window phase {estimate:.3e} rad exceeds the budget"
            f" {budget:.3e} rad; raise numerics.phase_budget_rad to force the run"
        )
    return estimate


# ---------------------------------------------------------------------------
# CSV output


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12e}"
    return str(value)


def write_csv(out, header: list[str], comments: list[str], rows) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for line in comments:
        buf.write(f"# {line}\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    data = buf.getvalue()
    if out in (None, "stdout", "-"):
        sys.stdout.write(data)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(data)


def _meta(args, extra: str = "") -> list[str]:
    line = f"paulpath {__version__} scenario={args.scenario}"
    if extra:
        line += f" {extra}"
    return [line]


# ---------------------------------------------------------------------------
# subcommands


def cmd_propagate(args) -> int:
    scenario = load_scenario(args.scenario)
    tol = args.tol if args.tol is not None else scenario.numerics.tol
    header = [
        "axis",
        "log_modulus",
        "phase_rad",
        "winding",
        "action_re_js",
        "action_im_js",
        "record_term",
        "log_prefactor_re",
        "log_prefactor_im",
    ]
    rows = []
    for axis in (Axis.X, Axis.Z):
        inputs = axis_inputs(scenario, axis)
        check_phase_budget(inputs, scenario.numerics.phase_budget_rad)
        res = restricted_propagator(inputs, tol=tol)
        rows.append(
            [
                axis.value,
                res.log_modulus,
                res.phase,
                res.winding,
                res.classical.action.real,
                res.classical.action.imag,
                res.record_term,
                res.prefactor_term.real,
                res.prefactor_term.imag,
            ]
        )
    write_csv(args.out, header, _meta(args, "cmd=propagate"), rows)
    return 0


def cmd_prob(args) -> int:
    scenario = load_scenario(args.scenario)
    tol = args.tol if args.tol is not None else scenario.numerics.tol
    x_base = axis_inputs(scenario, Axis.X)
    z_base = axis_inputs(scenario, Axis.Z)
    if (scenario.measurement_x.t_start, scenario.measurement_x.t_end) != (
        scenario.measurement_z.t_start,
        scenario.measurement_z.t_end,
    ):
        raise ConfigError(
            "x and z measurement windows must match for a joint probability",
            field="measurement_z",
        )
    check_phase_budget(x_base, scenario.numerics.phase_budget_rad)
    check_phase_budget(z_base, scenario.numerics.phase_budget_rad)
    if args.records:
        ids = [Path(p).stem for p in args.records]
        records = [read_record_csv(p) for p in args.records]
    else:
        # With no candidate files, score the scenario's own records
        # (x candidate applied to both axes, like any other candidate).
        ids = ["scenario"]
        records = [x_base.record]
    ranked = rank_records(
        x_base,
        records,
        z_base=z_base,
        record_ids=ids,
        threads=args.threads,
        tol=tol,
    )
    header = ["record_id", "log_p_x", "log_p_z", "log_p_joint", "log_odds"]
    rows = [[r.record_id, r.log_p_x, r.log_p_z, r.log_p, r.log_odds] for r in ranked]
    write_csv(args.out, header, _meta(args, "cmd=prob"), rows)
    return 0


def _identifications(scenario: Scenario) -> list[str]:
    """alpha (x axis) and beta (z axis) lines for the validate report."""
    lines = []
    for label, axis in (("alpha", Axis.X), ("beta", Axis.Z)):
        meas = scenario.measurement_x if axis is Axis.X else scenario.measurement_z
        coeffs = derive_frequency_coefficients(scenario.trap, axis)
        spec = effective_frequency(coeffs, meas, scenario.trap)
        try:
            value = dimensionless(spec).alpha
            lines.append(f"{label} = {value.real:.12e} {value.imag:+.12e}j")
        except ZeroQError:
            lines.append(f"{label} unavailable: q = 0, series route undefined")
    lines.append("reference: alpha -2.62, beta magnitude 1.02, Im 2.81e-11")
    return lines


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    tol = args.tol if args.tol is not None else scenario.numerics.tol
    if args.levels:
        try:
            levels = [int(v) for v in args.levels.split(",")]
        except ValueError:
            raise ConfigError(f"bad levels list: {args.levels!r}", field="--levels")
    else:
        levels = [scenario.numerics.oracle_n // 2, scenario.numerics.oracle_n]
    inputs = axis_inputs(scenario, Axis.X)
    check_phase_budget(inputs, scenario.numerics.phase_budget_rad)
    pipe = restricted_propagator(inputs, tol=tol).log_amplitude
    oracle = {n: discrete_propagator(inputs, n) for n in levels}
    header = [
        "n_slices",
        "oracle_re",
        "oracle_im",
        "pipeline_re",
        "pipeline_im",
        "dlogmod_rel",
        "dphase_rad",
        "extrap_re",
        "extrap_im",
        "extrap_err",
        "pass",
    ]
    comments = _meta(args, "cmd=validate") + _identifications(scenario)
    rows = []
    all_pass = True
    prev = None
    for n in levels:
        v = oracle[n]
        row = [
            n,
            v.real,
            v.imag,
            pipe.real,
            pipe.imag,
            abs(pipe.real - v.real) / max(abs(v.real), 1e-300),
            abs(pipe.imag - v.imag),
        ]
        if prev is not None and n == 2 * prev:
            extr, err = richardson(oracle[prev], v)
            dmod = abs(pipe.real - extr.real) / max(abs(extr.real), 1e-300)
            dphi = abs(pipe.imag - extr.imag)
            ok = dmod <= VALIDATE_LOGMOD_RTOL and dphi <= VALIDATE_PHASE_ATOL
            all_pass = all_pass and ok
            row += [extr.real, extr.imag, err, ok]
        else:
            row += [math.nan, math.nan, math.nan, True]
        rows.append(row)
        prev = n
    write_csv(args.out, header, comments, rows)
    return 0 if all_pass else 4


_SWEEPABLE = {
    "record_x.amplitude_m",
    "record_x.omega_rad_s",
    "record_x.phase_rad",
    "record_z.amplitude_m",
    "record_z.omega_rad_s",
    "record_z.phase_rad",
    "measurement_x.resolution_m",
    "measurement_z.resolution_m",
}


def _expand_sweep_path(path: str) -> list[str]:
    """Allow 'record.' / 'measurement.' shorthand meaning both axes."""
    if path.startswith("record.") or path.startswith("measurement."):
        section, key = path.split(".", 1)
        return [f"{section}_x.{key}", f"{section}_z.{key}"]
    return [path]


def cmd_sweep(args) -> int:
    raw, base_dir = load_scenario_dict(args.scenario)
    scenario = build_scenario(raw, base_dir)  # validate before sweeping
    tol = args.tol if args.tol is not None else scenario.numerics.tol
    params = args.param or []
    value_lists = args.values or []
    if len(params) != len(value_lists):
        raise ConfigError(
            f"{len(params)} --param flags but {len(value_lists)} --values flags",
            field="--param",
        )
    for p in params:
        for leaf in _expand_sweep_path(p):
            if leaf not in _SWEEPABLE:
                raise ConfigError(
                    f"not sweepable (allowed: {sorted(_SWEEPABLE)})", field=p
                )
    try:
        grids = [[float(v) for v in vl.split(",")] for vl in value_lists]
    except ValueError:
        raise ConfigError("values must be comma-separated numbers", field="--values")

    def point_scenario(values: tuple[float, ...]) -> Scenario:
        doc = copy.deepcopy(raw)
        for pth, val in zip(params, values):
            for leaf in _expand_sweep_path(pth):
                section, key = leaf.split(".", 1)
                node = doc.get(section)
                if not isinstance(node, dict):
                    raise ConfigError("missing section for sweep", field=leaf)
                node[key] = val
        return build_scenario(doc, base_dir)

    def run_point(values: tuple[float, ...]):
        sc = point_scenario(values)
        x_in = axis_inputs(sc, Axis.X)
        z_in = axis_inputs(sc, Axis.Z)
        check_phase_budget(x_in, sc.numerics.phase_budget_rad)
        check_phase_budget(z_in, sc.numerics.phase_budget_rad)
        lx = 2.0 * restricted_propagator(x_in, tol=tol).log_amplitude.real
        lz = 2.0 * restricted_propagator(z_in, tol=tol).log_amplitude.real
        return lx, lz

    points = list(itertools.product(*grids)) if grids else []
    if args.threads > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(run_point, points))
    else:
        results = [run_point(pt) for pt in points]
    header = ["point"] + list(params) + ["log_p_x", "log_p_z", "log_p_joint"]
    rows = [
        [i, *pt, lx, lz, lx + lz]
        for i, (pt, (lx, lz)) in enumerate(zip(points, results))
    ]
    write_csv(args.out, header, _meta(args, "cmd=sweep"), rows)
    return 0


def cmd_mathieu(args) -> int:
    scenario = load_scenario(args.scenario)
    spec = effective_frequency(
        derive_frequency_coefficients(scenario.trap, Axis.X),
        scenario.measurement_x,
        scenario.trap,
    )
    params = dimensionless(spec)
    coeffs = mathieu_series(params, n_terms=args.n_terms)
    t = np.linspace(0.0, args.t_max, args.samples)
    if scenario.numerics.f_source == "series":
        f = evaluate_f(coeffs, t)
    else:
        f0 = complex(sum(coeffs.coefficients))
        sol = integrate_mathieu_ode(params, (0.0, float(args.t_max)), (f0, 0.0))
        f = sol.evaluate(t)[0]
    comments = _meta(args, "cmd=mathieu")
    comments.append(f"p = {params.p.real:.12e} {params.p.imag:+.12e}j, q = {params.q:.12e}")
    comments.append(f"alpha = {params.alpha.real:.12e} {params.alpha.imag:+.12e}j")
    for i, c in enumerate(coeffs.coefficients):
        comments.append(f"c{2 * i + 1} = {c.real:.12e} {c.imag:+.12e}j")
    rows = [[float(tt), ff.real, ff.imag] for tt, ff in zip(t, np.asarray(f))]
    write_csv(args.out, ["t_tilde", "f_re", "f_im"], comments, rows)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario file (path or bundled name)")
    common.add_argument("--out", default="stdout", help="output CSV path, or stdout")
    common.add_argument("--threads", type=int, default=1, help="worker threads")
    common.add_argument("--tol", type=float, default=None, help="override numerics.tol")

    parser = argparse.ArgumentParser(
        prog="paulpath",
        description="Restricted propagator and record probabilities of a"
        " continuously monitored Paul trap",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("propagate", parents=[common], help="per-axis propagator row")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("prob", parents=[common], help="rank candidate records")
    p.add_argument("--records", nargs="*", default=[], help="candidate record CSV files")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("validate", parents=[common], help="pipeline vs sliced oracle")
    p.add_argument("--levels", default=None, help="comma list of slice counts")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", parents=[common], help="Cartesian parameter sweep")
    p.add_argument("--param", action="append", help="sweepable dotted key, repeatable")
    p.add_argument("--values", action="append", help="comma list of values, one per --param")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mathieu", parents=[common], help="dump series and f samples")
    p.add_argument("--n-terms", type=int, default=2, help="kept harmonics, 1..4")
    p.add_argument("--t-max", type=float, default=math.pi, help="scaled-time endpoint")
    p.add_argument("--samples", type=int, default=257, help="number of output samples")
    p.set_defaults(func=cmd_mathieu)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ZeroQError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PaulpathError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
