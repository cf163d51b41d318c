"""paulpath benchmark: record ranking, oracle validation and long windows.

Usage (from the repository root):

    python3 perfbench/run.py --workload rank-short --seed 1 --seconds 28 --trace 0

Workloads are described in ``BENCHMARK.json`` and ``workloads.py``.  All
run as a closed loop: one caller in one process, the next call starts
when the previous one returns, ``threads=1`` and single-threaded BLAS.

A run

1. sets up: imports the package from ``src/`` next to this directory,
   loads the scenario and generates the seeded rounds.  ``setup_s`` is the
   median of ``SETUP_REPEATS`` fresh processes doing exactly that;
2. runs one cheap call untimed as a warm-up, then times whole rounds,
   stopping at the round boundary nearest to ``--seconds``;
3. checks every operation against the oracle, outside the timed section,
   and sorts failures into wrong (outside tolerance), refused (a typed
   ``PaulpathError``) and crashed (any other exception);
4. prints one ``name value unit`` line per metric, an environment line
   (nproc, CPU model, Python, numpy and scipy versions),
   and last a JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.  ``correct`` is true when every operation was checked
   and each one either agreed with the oracle or is counted in
   ``failed``; a failed operation is reported, never dropped.

``ops_per_s`` counts only operations that passed the check.  An
operation's wall time is its call's; a ``rank-short`` call ranks a whole
round of candidates, so each of them is given the call's time over its
candidate count.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the package is wrapped by ``tracing.Tracer`` and the
metrics are per layer: spans and counts of the setup and of the first
round (which a seed fixes exactly, so counts repeat run to run), failure
classes and check errors over the whole run, and the tracing overhead
from replaying the first round untraced.  Spans are written to
``perfbench/traces/<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_program():
    """Import paulpath from ``src/`` beside the benchmark, or exit 2."""
    if not (SRC / "paulpath" / "__init__.py").is_file():
        sys.exit(f"paulpath sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import paulpath

    if Path(paulpath.__file__).resolve().parent != SRC / "paulpath":
        sys.exit(f"imported paulpath from {paulpath.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup(name: str, seed: int):
    workloads = load_program()
    return workloads.WORKLOADS[name](seed)


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of a fresh process importing and setting up."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rounds(wl, seconds: float, tracer=None):
    """Whole rounds, as many as end nearest to ``seconds`` (at least one);
    one entry per call."""
    from paulpath.errors import PaulpathError

    calls = []
    start = time.perf_counter()
    r = 0
    while True:
        for i, call in enumerate(wl.rounds[r % len(wl.rounds)]):
            if tracer is not None:
                tracer.op = f"{r}.{i}"
            t0 = time.perf_counter()
            try:
                out, failure = wl.execute(call), None
            except PaulpathError as exc:
                out, failure = None, ("refused", repr(exc))
            except Exception as exc:  # a crash is a result to report, not to stop on
                out, failure = None, ("crashed", repr(exc))
            calls.append({"round": r, "index": i, "call": call, "out": out,
                          "failure": failure, "wall": time.perf_counter() - t0})
        r += 1
        elapsed = time.perf_counter() - start
        # one more round of the mean length would end further from the target
        if elapsed + 0.5 * elapsed / r >= seconds:
            return calls, elapsed


def check_calls(wl, calls):
    """Verdict per operation; identical repeats of a call are checked once."""
    import workloads
    from paulpath.errors import PaulpathError

    seen = {}
    for c in calls:
        n = wl.ops(c["call"])
        if c["failure"] is not None:
            c["verdicts"] = None
            c["classes"] = [c["failure"][0]] * n
            continue
        key = (c["round"] % len(wl.rounds), c["index"])
        if key in seen and seen[key][0] == c["out"]:
            c["verdicts"] = seen[key][1]
        else:
            try:
                c["verdicts"] = wl.check(c["call"], c["out"])
            except (workloads.Unverified, PaulpathError) as exc:  # the oracle cannot judge
                c["verdicts"], c["unverified"] = None, repr(exc)
            seen[key] = (c["out"], c["verdicts"])
        if c["verdicts"] is None:
            c["classes"] = ["unverified"] * n
        else:
            c["classes"] = ["ok" if v.ok else "wrong" for v in c["verdicts"]]
    return calls


def summarize(calls, wall: float):
    classes = [k for c in calls for k in c["classes"]]
    attempted = len(classes)
    counts = {k: classes.count(k) for k in ("ok", "wrong", "refused", "crashed", "unverified")}
    per_op = [c["wall"] / len(c["classes"]) for c in calls for _ in c["classes"]]
    verdicts = [v for c in calls for v in (c["verdicts"] or [])]
    return {
        "attempted": attempted,
        "counts": counts,
        "failed": counts["wrong"] + counts["refused"] + counts["crashed"],
        "ops_per_s": counts["ok"] / wall,
        "op_p50_s": statistics.median(per_op),
        "max_dphase_rad": max((v.dphase_rad for v in verdicts if not math.isnan(v.dphase_rad)), default=0.0),
        "max_dlogmod_rel": max((v.dlogmod_rel for v in verdicts if not math.isnan(v.dlogmod_rel)), default=0.0),
    }


def layer_metrics(tracer, summary, round0_traced_s: float, round0_untraced_s: float, round0_ok: int):
    from tracing import self_times

    spans = [s for s in tracer.spans if s["op"] == "setup" or s["op"].startswith("0.")]
    selfs = self_times(spans)

    def total(name, key=None):
        chosen = [s for s in spans if s["name"] == name]
        if key is None:
            return sum(s["end"] - s["start"] for s in chosen)
        return sum(s["counts"].get(key, 0) for s in chosen)

    def leaf(name, kind):
        return sum(s["counts"].get(f"{name}.{kind}", 0) for s in spans)

    def module_self(module):
        return sum(selfs[s["id"]] for s in spans if s["name"].startswith(module + "."))

    oracle_s = total("oracle.discrete_propagator")
    slices = total("oracle.discrete_propagator", "slices")
    traced_rate = round0_ok / round0_traced_s
    untraced_rate = round0_ok / round0_untraced_s
    m = {
        "integrate.trajectory.rhs_evals": (total("integrate.trajectory", "rhs_evals"), "count"),
        "integrate.trajectory.s": (total("integrate.trajectory"), "s"),
        "integrate.basis.rhs_evals": (total("integrate.basis", "rhs_evals"), "count"),
        "integrate.basis.s": (total("integrate.basis"), "s"),
        "records.forcing_eval.calls": (leaf("records.forcing_eval", "calls"), "count"),
        "records.forcing_eval.s": (leaf("records.forcing_eval", "s"), "s"),
        "trapmodel.w_squared.calls": (leaf("trapmodel.w_squared", "calls"), "count"),
        "trapmodel.w_squared.s": (leaf("trapmodel.w_squared", "s"), "s"),
        "propagator.restricted_propagator.calls": (
            sum(1 for s in spans if s["name"] == "propagator.restricted_propagator"), "count"),
        "propagator.restricted_propagator.s": (total("propagator.restricted_propagator"), "s"),
        "propagator.classical_trajectory.s": (total("propagator.classical_trajectory"), "s"),
        "propagator.self_s": (module_self("propagator"), "s"),
        "oracle.discrete_propagator.calls": (
            sum(1 for s in spans if s["name"] == "oracle.discrete_propagator"), "count"),
        "oracle.discrete_propagator.s": (oracle_s, "s"),
        "oracle.slices": (slices, "count"),
        "oracle.slices_per_s": (slices / oracle_s if oracle_s > 0 else 0.0, "1/s"),
        "probability.rank_records.s": (total("probability.rank_records"), "s"),
        "probability.self_s": (module_self("probability"), "s"),
        "records.render.s": (total("records.render"), "s"),
        "cli.load_scenario.s": (total("cli.load_scenario"), "s"),
        "cli.axis_inputs.s": (total("cli.axis_inputs"), "s"),
        "cli.check_phase_budget.s": (total("cli.check_phase_budget"), "s"),
        "check.max_dphase_rad": (summary["max_dphase_rad"], "rad"),
        "check.max_dlogmod_rel": (summary["max_dlogmod_rel"], "ratio"),
        "failed.wrong": (summary["counts"]["wrong"], "count"),
        "failed.refused": (summary["counts"]["refused"], "count"),
        "failed.crashed": (summary["counts"]["crashed"], "count"),
        "failed_ratio": (summary["failed"] / summary["attempted"], "ratio"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.overhead_ops_per_s": (untraced_rate - traced_rate, "1/s"),
    }
    return m


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        t0 = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0

    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.active = False  # the warm-up is neither timed nor traced
    wl.execute(wl.tiny_call())
    if tracer is not None:
        tracer.active = True

    calls, wall = run_rounds(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
        round0 = [c for c in calls if c["round"] == 0]
        round0_traced_s = sum(c["wall"] for c in round0)
        t0 = time.perf_counter()
        for call in wl.rounds[0]:
            try:
                wl.execute(call)
            except Exception:  # already recorded by the traced pass
                pass
        round0_untraced_s = time.perf_counter() - t0
    setup_s = measure_setup(args.workload, args.seed)
    check_calls(wl, calls)
    summary = summarize(calls, wall)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "op_p50_s": (summary["op_p50_s"], "s"),
            "correct_ratio": (summary["counts"]["ok"] / summary["attempted"], "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        round0_ok = sum(k == "ok" for c in round0 for k in c["classes"])
        metrics = layer_metrics(tracer, summary, round0_traced_s, round0_untraced_s, round0_ok)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")

    env = environment()
    rounds = calls[-1]["round"] + 1
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} calls={len(calls)} timed_s={wall:.3f}")
    print(f"# operations: attempted={summary['attempted']} " +
          " ".join(f"{k}={v}" for k, v in summary["counts"].items()))
    for c in calls:
        if c["failure"] is not None:
            print(f"# {c['failure'][0]} call {c['round']}.{c['index']}: {c['failure'][1]}")
        elif "unverified" in c:
            print(f"# unverified call {c['round']}.{c['index']}: {c['unverified']}")
    print("# env " + json.dumps(env, sort_keys=True))
    # reported, not gated: a ratio that is 0 on two workloads cannot carry
    # a relative bound, so correct_ratio = 1 - failed_ratio is the gated one
    print(f"# failed_ratio {summary['failed'] / summary['attempted']:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": summary["counts"]["unverified"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
