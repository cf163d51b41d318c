"""Spans and counters around the public functions of each paulpath module.

The tracer wraps functions from outside the package: every module-level
name that refers to a wrapped function, in every measured module, is
rebound to the wrapper, so calls between modules (``probability`` calling
``propagator.restricted_propagator`` through its own import, say) are
seen too.  Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall`
restores every original binding.

Two kinds of wrapper exist:

* a span records name, start, end, parent span, operation id and a dict
  of counts, for calls that happen a handful of times per operation;
* a leaf only adds a call count and its time to the innermost open span,
  for methods called once per right-hand-side evaluation
  (``Forcing.__call__``, ``EffectiveFrequencySpec.w_squared``), where a
  span per call would cost more memory than the run itself.

``solve_complex_ivp`` gets a span named after the pass it runs, told
apart by the size of the initial state (6: the homogeneous-plus-particular
basis pass, 4: the trajectory pass, otherwise ``integrate.other``), and
the ``rhs`` passed to it is wrapped so right-hand-side evaluations are
counted exactly.

Spans are kept in memory and only recorded while ``active`` is true.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

#: modules whose public functions are measured; ``mathieu`` is left out
#: on purpose (only ``paulpath mathieu`` and the series route use it)
MEASURED_MODULES = (
    "cli",
    "probability",
    "propagator",
    "records",
    "trapmodel",
    "integrate",
    "oracle",
)

#: (module, function, span name) wrapped as spans
SPAN_FUNCTIONS = (
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "axis_inputs", "cli.axis_inputs"),
    ("cli", "check_phase_budget", "cli.check_phase_budget"),
    ("probability", "rank_records", "probability.rank_records"),
    ("probability", "probability_x", "probability.probability_x"),
    ("probability", "probability_z", "probability.probability_z"),
    ("probability", "joint_probability", "probability.joint_probability"),
    ("propagator", "restricted_propagator", "propagator.restricted_propagator"),
    ("propagator", "classical_trajectory", "propagator.classical_trajectory"),
    ("records", "render", "records.render"),
    ("records", "forcing", "records.forcing"),
    ("records", "record_norm_integral", "records.record_norm_integral"),
    ("trapmodel", "effective_frequency", "trapmodel.effective_frequency"),
    ("trapmodel", "derive_frequency_coefficients", "trapmodel.derive_frequency_coefficients"),
    ("oracle", "discrete_propagator", "oracle.discrete_propagator"),
    ("oracle", "richardson", "oracle.richardson"),
)

#: (module, class, method, leaf name) wrapped as leaves
LEAF_METHODS = (
    ("records", "Forcing", "__call__", "records.forcing_eval"),
    ("trapmodel", "EffectiveFrequencySpec", "w_squared", "trapmodel.w_squared"),
)

_PASS_BY_STATE_SIZE = {6: "integrate.basis", 4: "integrate.trajectory"}


def _slices(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n_slices"]
    return {"slices": int(n)}


_COUNTERS = {"oracle.discrete_propagator": _slices}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self.op = "setup"
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            if counter is not None:
                span["counts"].update(counter(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return wrapper

    def leaf_wrapper(self, name: str, fn):
        tracer = self
        calls, secs = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or not tracer._stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts = tracer._stack[-1]["counts"]
                counts[calls] = counts.get(calls, 0) + 1
                counts[secs] = counts.get(secs, 0.0) + (perf_counter() - t0)

        return wrapper

    def ivp_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(rhs, span, y0, *args, **kwargs):
            if not tracer.active:
                return fn(rhs, span, y0, *args, **kwargs)
            size = len(y0)
            traced = tracer._open(_PASS_BY_STATE_SIZE.get(size, "integrate.other"))
            counts = traced["counts"]
            counts["rhs_evals"] = 0

            def counted_rhs(t, y):
                counts["rhs_evals"] += 1
                return rhs(t, y)

            try:
                return fn(counted_rhs, span, y0, *args, **kwargs)
            finally:
                tracer._close(traced)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for short in MEASURED_MODULES + ("__init__",):
            module = sys.modules.get("paulpath" if short == "__init__" else f"paulpath.{short}")
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed function and method of the loaded package."""
        import paulpath.cli  # noqa: F401  (loads every measured module)

        mods = {m: sys.modules[f"paulpath.{m}"] for m in MEASURED_MODULES}
        for mod, attr, name in SPAN_FUNCTIONS:
            original = getattr(mods[mod], attr)
            self._rebind(original, self.span_wrapper(name, original))
        original = mods["integrate"].solve_complex_ivp
        self._rebind(original, self.ivp_wrapper(original))
        for mod, cls_name, attr, name in LEAF_METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.leaf_wrapper(name, original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children and leaves cover."""
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        covered[s["id"]] += sum(v for k, v in s["counts"].items() if k.endswith(".s"))
        if s["parent"] is not None and s["parent"] in covered:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}
