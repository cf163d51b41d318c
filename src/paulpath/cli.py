"""Scenario-driven command line front end.

Subcommands
-----------
propagate   restricted propagator of both axes, one CSV row per axis
prob        rank candidate measurement records by joint log-probability
validate    compare the pipeline against the sliced-lattice oracle
sweep       Cartesian parameter sweep with log_p columns, long format
mathieu     dump series coefficients and reference-solution samples

``propagate``, ``prob``, ``sweep`` and ``validate``'s pipeline column all
score through :func:`~paulpath.propagator.record_scorer`, the closed form
on the Floquet pair: no ODE pass and no tolerance, on a window of any
length.  ``prob`` and ``sweep`` take their log_p columns from
:mod:`~paulpath.probability`, which refuses a joint probability over two
different x and z windows.  The phase budget guards only ``validate``'s
sliced oracle, and ``numerics.tol`` reaches only ``mathieu``'s ODE column.

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
import functools
import io
import itertools
import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields, replace
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
from .integrate import DEFAULT_TOL
from .mathieu import integrate_mathieu_ode, evaluate_f, mathieu_series
from .oracle import discrete_propagator, richardson
from .probability import joint_probability, probability_x, probability_z, rank_records
from .propagator import (
    BoundaryConditions,
    PropagatorInputs,
    fold_phase,
    record_scorer,
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
    """Knobs that tune accuracy and cost, not physics.

    ``n_samples`` is checked where an analytic record is rendered and
    ``oracle_n`` where the sliced lattice is built.  ``tol`` is the
    adaptive integrator's relative tolerance: of the subcommands only
    ``mathieu``'s ODE column (``f_source: ode``) reads it, the record
    scorer has none.  ``phase_budget_rad`` bounds the window phase that
    ``validate``'s sliced oracle takes (see :func:`check_phase_budget`).
    """

    tol: float = DEFAULT_TOL
    n_samples: int = 2001
    oracle_n: int = 2048
    f_source: str = "ode"
    phase_budget_rad: float = 5.0e4

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tol must be positive and finite", field="numerics.tol")
        if not self.phase_budget_rad > 0:
            raise ConfigError(
                "phase budget must be positive (inf allowed)",
                field="numerics.phase_budget_rad",
            )
        if self.f_source not in ("ode", "series"):
            raise ConfigError(
                f"f_source must be ode|series, got {self.f_source!r}", field="numerics.f_source"
            )


@dataclass(frozen=True)
class Scenario:
    """Complete two-axis job description parsed from one file.

    The attribute names are the file's top-level section names.
    """

    trap: TrapParameters
    measurement_x: MeasurementConfig
    measurement_z: MeasurementConfig
    boundary_x: BoundaryConditions
    boundary_z: BoundaryConditions
    record_x: RecordSpec | MeasurementRecord
    record_z: RecordSpec | MeasurementRecord
    numerics: Numerics


#: YAML key -> dataclass attribute, one table per kind of section.  The
#: parser, its unknown-key check and ``dump_scenario`` read only these.
#: A key left out of a file takes the attribute's dataclass default and
#: is missing if there is none.
_AMPLITUDE = {"amplitude_m": "amplitude"}
_KEYS: dict[type, dict[str, str]] = {
    TrapParameters: {
        "charge_c": "charge",
        "mass_kg": "mass",
        "half_gap_m": "half_gap",
        "dc_voltage_v": "dc_voltage",
        "ac_voltage_v": "ac_voltage",
        "drive_omega_rad_s": "drive_omega",
        "hbar_js": "hbar",
    },
    MeasurementConfig: {"t_start_s": "t_start", "t_end_s": "t_end", "resolution_m": "resolution"},
    BoundaryConditions: {"x_start_m": "x_start", "x_end_m": "x_end"},
    ConstantRecord: _AMPLITUDE,
    SinusoidRecord: {**_AMPLITUDE, "omega_rad_s": "omega", "phase_rad": "phase"},
    Numerics: {f.name: f.name for f in fields(Numerics)},
}
#: Record keys outside the tables: the kind, the samples of kind
#: ``samples`` and the file of kind ``csv``.
_KIND, _VALUES, _PATH = "kind", "values_m", "path"


def _float(v, field: str) -> float:
    if isinstance(v, bool):  # YAML reads yes, on and true as booleans
        raise ConfigError(f"not a number: {v!r}", field=field)
    if isinstance(v, str) and v.strip().lower() in ("inf", ".inf", "infinity"):
        return math.inf
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"not a number: {v!r}", field=field) from None


def _int(v, field: str) -> int:
    v = _float(v, field)
    if not (math.isfinite(v) and v == int(v)):
        raise ConfigError(f"not an integer: {v!r}", field=field)
    return int(v)


#: Attribute type -> reader of its YAML value.  Strings pass as they are;
#: their dataclass checks the domain.
_READERS = {float: _float, int: _int, str: lambda v, field: v}


@functools.cache
def _schema(cls) -> tuple[tuple[str, str, type], ...]:
    """(YAML key, attribute, attribute type) for each row of ``cls``' table."""
    hints = typing.get_type_hints(cls)
    return tuple((key, attr, hints[attr]) for key, attr in _KEYS[cls].items())


def _known_keys(node: dict, section: str, allowed) -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError("unknown key", field=f"{section}.{key}")


def _section(raw: dict, name: str, optional: bool = False) -> dict:
    node = raw.get(name, {} if optional else None)
    if not isinstance(node, dict):
        message = "non-mapping section" if optional else "missing or non-mapping section"
        raise ConfigError(message, field=name)
    return node


def _build(cls, node: dict, section: str, **given):
    """``cls`` from ``node`` read through its key table; ``given`` holds
    the attributes that come from elsewhere in the scenario.  A domain
    error of ``cls`` names ``section`` and the key the user wrote, not the
    attribute."""
    _known_keys(node, section, _KEYS[cls])
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for key, attr, kind in _schema(cls):
        field = f"{section}.{key}"
        if key in node:
            given[attr] = _READERS[kind](node[key], field)
        elif attr in required:
            raise ConfigError("missing value", field=field)
    try:
        return cls(**given)
    except ConfigError as exc:
        if exc.field is None:
            raise
        name = exc.field.rpartition(".")[2]
        key = {attr: key for key, attr in _KEYS[cls].items()}.get(name, name)
        raise type(exc)(exc.reason, field=f"{section}.{key}") from None


def _parse_record(raw: dict, section: str, base_dir: Path):
    node = dict(_section(raw, section))
    kind = node.pop(_KIND, None)
    for cls in (ConstantRecord, SinusoidRecord):
        if kind == cls.kind:
            return _build(cls, node, section)
    if kind == SampledRecord.kind:
        _known_keys(node, section, {_VALUES})
        field = f"{section}.{_VALUES}"
        values = node.get(_VALUES)
        if not isinstance(values, list) or len(values) < 2:
            raise ConfigError("need a list of >= 2 numbers", field=field)
        return SampledRecord(values=tuple(_float(v, field) for v in values))
    if kind == "csv":
        _known_keys(node, section, {_PATH})
        path = node.get(_PATH)
        if not isinstance(path, str):
            raise ConfigError("missing csv path", field=f"{section}.{_PATH}")
        return read_record_csv(base_dir / path)
    raise ConfigError(
        f"kind must be constant|sinusoid|samples|csv, got {kind!r}",
        field=f"{section}.{_KIND}",
    )


def build_scenario(raw: dict, base_dir: Path) -> Scenario:
    """Validate a parsed mapping and assemble the typed scenario."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario file is not a mapping", field="(root)")
    _known_keys(raw, "(root)", {f.name for f in fields(Scenario)})

    def part(cls, section: str, **given):
        # Every Numerics field has a default, so its section may be left out.
        return _build(cls, _section(raw, section, optional=cls is Numerics), section, **given)

    trap = part(TrapParameters, "trap")
    measurement_x = part(MeasurementConfig, "measurement_x")
    measurement_z = part(MeasurementConfig, "measurement_z")
    return Scenario(
        trap=trap,
        measurement_x=measurement_x,
        measurement_z=measurement_z,
        boundary_x=part(
            BoundaryConditions,
            "boundary_x",
            t_start=measurement_x.t_start,
            t_end=measurement_x.t_end,
        ),
        boundary_z=part(
            BoundaryConditions,
            "boundary_z",
            t_start=measurement_z.t_start,
            t_end=measurement_z.t_end,
        ),
        record_x=_parse_record(raw, "record_x", base_dir),
        record_z=_parse_record(raw, "record_z", base_dir),
        numerics=part(Numerics, "numerics"),
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


def load_scenario(name: str) -> Scenario:
    """Parse a scenario file; relative record paths resolve against its directory."""
    path = _resolve_scenario_path(name)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse scenario file: {e}", field=str(path)) from e
    return build_scenario(raw, path.parent)


def _node(part) -> dict:
    """One parsed section as its YAML mapping."""
    return {key: kind(getattr(part, attr)) for key, attr, kind in _schema(type(part))}


def _record_node(spec) -> dict:
    if type(spec) in _KEYS:
        return {_KIND: spec.kind, **_node(spec)}
    # Sampled and rendered (for instance csv-backed) records dump as samples.
    values = spec.values if isinstance(spec, SampledRecord) else spec.samples
    return {_KIND: SampledRecord.kind, _VALUES: [float(v) for v in values]}


def dump_scenario(scenario: Scenario) -> str:
    """Serialize the effective scenario; re-parsing gives an equivalent one."""
    doc = {}
    for f in fields(Scenario):
        part = getattr(scenario, f.name)
        is_record = isinstance(part, RecordSpec | MeasurementRecord)
        doc[f.name] = _record_node(part) if is_record else _node(part)
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

    The estimate is T * sqrt(max |w_tilde^2|) (``peak_stiffness``, exact),
    the phase a constant stiffness at the window's stiffest point would
    accumulate.  ``validate`` runs it in front of the sliced oracle, whose
    lattice must resolve that phase: above the budget the run is refused
    rather than left to take unbounded work or return with unknown
    accuracy.  The record scorer needs no such guard.
    """
    spec = effective_frequency(inputs.coeffs, inputs.meas, inputs.params)
    peak = spec.peak_stiffness(inputs.bc.t_start, inputs.bc.t_end)
    estimate = math.sqrt(peak) * inputs.bc.duration
    if estimate > budget:
        raise PhaseBudgetError(
            f"estimated window phase {estimate:.3e} rad exceeds the sliced oracle's"
            f" budget {budget:.3e} rad; raise numerics.phase_budget_rad to force the run"
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


def _load(args) -> Scenario:
    """The ``--scenario`` file with ``--tol`` applied.  The override meets
    the same ``Numerics`` domain check as the file's value."""
    scenario = load_scenario(args.scenario)
    if args.tol is None:
        return scenario
    return replace(scenario, numerics=replace(scenario.numerics, tol=args.tol))


def cmd_propagate(args, scenario: Scenario) -> int:
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
        scorer = record_scorer(inputs)
        (log_k,), (record_term,), (action,) = scorer.parts([inputs.record])
        prefactor = scorer.prefactor.log_value
        rows.append([
            axis.value, log_k.real, *fold_phase(log_k.imag), action.real, action.imag,
            record_term, prefactor.real, prefactor.imag,
        ])
    write_csv(args.out, header, _meta(args, "cmd=propagate"), rows)
    return 0


def cmd_prob(args, scenario: Scenario) -> int:
    x_base = axis_inputs(scenario, Axis.X)
    z_base = axis_inputs(scenario, Axis.Z)
    if args.records:
        ids = [Path(p).stem for p in args.records]
        records = [read_record_csv(p) for p in args.records]
    else:
        # With no candidate files, score the scenario's own records
        # (x candidate applied to both axes, like any other candidate).
        ids = ["scenario"]
        records = [x_base.record]
    ranked = rank_records(x_base, records, z_base=z_base, record_ids=ids)
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


def cmd_validate(args, scenario: Scenario) -> int:
    if args.levels:
        try:
            levels = [int(v) for v in args.levels.split(",")]
        except ValueError:
            raise ConfigError(f"bad levels list: {args.levels!r}", field="--levels")
        if not any(b == 2 * a for a, b in zip(levels, levels[1:])):
            raise ConfigError(
                f"levels {args.levels!r} hold no consecutive pair N, 2N to check",
                field="--levels",
            )
    else:
        levels = [scenario.numerics.oracle_n // 2, scenario.numerics.oracle_n]
    inputs = axis_inputs(scenario, Axis.X)
    check_phase_budget(inputs, scenario.numerics.phase_budget_rad)
    pipe = record_scorer(inputs).log_amplitude(inputs.record)
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


#: Every sinusoid-record and measurement key of either axis but the
#: window endpoints.
_SWEEPABLE = {
    f"{section}_{axis}.{key}"
    for axis in "xz"
    for section, cls in (("record", SinusoidRecord), ("measurement", MeasurementConfig))
    for key, attr in _KEYS[cls].items()
    if attr not in ("t_start", "t_end")
}


def _expand_sweep_path(path: str) -> list[str]:
    """Allow 'record.' / 'measurement.' shorthand meaning both axes."""
    if path.startswith("record.") or path.startswith("measurement."):
        section, key = path.split(".", 1)
        return [f"{section}_x.{key}", f"{section}_z.{key}"]
    return [path]


def cmd_sweep(args, scenario: Scenario) -> int:
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
        sc = scenario
        for pth, val in zip(params, values):
            for leaf in _expand_sweep_path(pth):
                section, key = leaf.split(".", 1)
                part = getattr(sc, section)
                attr = _KEYS.get(type(part), {}).get(key)
                if attr is None:  # for instance omega_rad_s of a constant record
                    raise ConfigError("unknown key", field=leaf)
                sc = replace(sc, **{section: replace(part, **{attr: val})})
        return sc

    def run_point(values: tuple[float, ...]) -> list[float]:
        sc = point_scenario(values)
        x, z = (axis_inputs(sc, axis) for axis in (Axis.X, Axis.Z))
        px, pz = probability_x(x), probability_z(z)
        return [px.log_p, pz.log_p, joint_probability(px, pz).log_p]

    points = list(itertools.product(*grids)) if grids else []
    header = ["point"] + list(params) + ["log_p_x", "log_p_z", "log_p_joint"]
    rows = [[i, *pt, *run_point(pt)] for i, pt in enumerate(points)]
    write_csv(args.out, header, _meta(args, "cmd=sweep"), rows)
    return 0


def cmd_mathieu(args, scenario: Scenario) -> int:
    spec = effective_frequency(
        derive_frequency_coefficients(scenario.trap, Axis.X),
        scenario.measurement_x,
        scenario.trap,
    )
    if args.samples < 0:
        raise ConfigError(f"must be non-negative, got {args.samples}", field="--samples")
    if not (math.isfinite(args.t_max) and args.t_max != 0.0):
        raise ConfigError(
            f"the span (0, {args.t_max}) must be finite with nonzero length", field="--t-max"
        )
    params = dimensionless(spec)
    coeffs = mathieu_series(params, n_terms=args.n_terms)
    if scenario.numerics.f_source == "series":
        t = np.linspace(0.0, args.t_max, args.samples)
        f = evaluate_f(coeffs, t)
    else:
        f0 = complex(sum(coeffs.coefficients))
        sol = integrate_mathieu_ode(
            params, (0.0, float(args.t_max)), (f0, 0.0),
            tol=scenario.numerics.tol, n_points=args.samples,
        )
        t, f = sol.grid, sol.psi
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
    common.add_argument("--threads", type=int, default=1, help="ignored; runs are serial")
    common.add_argument(
        "--tol", type=float, default=None,
        help="override numerics.tol, the tolerance of mathieu's ODE column",
    )

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
    p.add_argument(
        "--levels", default=None,
        help="comma list of slice counts with a consecutive pair N, 2N",
    )
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
        return args.func(args, _load(args))
    except (ConfigError, ZeroQError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PaulpathError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
