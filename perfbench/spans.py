"""In-memory span recorder and the per-layer metrics computed from its spans.

The recorder replaces module attributes of ``mvcontract`` (the names through
which one module calls another, e.g. ``cli.evaluate_contract`` or
``noise.ndtri``) with wrappers that record a span per call: name, start,
end, parent span and the grid point or command being run.  Nothing inside
the package changes; the wrappers are removed again after each traced pass.
A span's self time is its duration minus the time its child spans cover.
"""

import functools
import importlib
import os
import time
from typing import Callable, Dict, List, Optional

# (module, attribute, span name, annotator name or None).  A module calls the
# layer below through the attribute named here, so each entry is a layer
# boundary.  Entries whose attribute no longer exists are skipped and listed
# in the run record.
PATCH_POINTS = [
    ("cli", "main", "cli.main", None),
    ("cli", "resolve_config", "config.resolve", None),
    ("cli", "write_riccati_csv", "cli.csv_write", "csv_bytes"),
    ("cli", "load_riccati_csv", "cli.csv_read", None),
    ("cli", "sweep_grid", "multipliers.sweep_grid", "points"),
    ("checks", "sweep_grid", "multipliers.sweep_grid", "points"),
    ("cli", "classify_feasibility", "multipliers.classify", None),
    ("cli", "run_check_battery", "checks.battery", "check_results"),
    ("cli", "run_weak_battery", "checks.battery", "check_results"),
    ("cli", "evaluate_contract", "montecarlo.evaluate", None),
    ("checks", "evaluate_contract", "montecarlo.evaluate", None),
    ("montecarlo", "simulate_costs", "montecarlo.simulate", "mc_path_steps"),
    ("montecarlo", "_mean_and_se", "montecarlo.reduce", None),
    ("montecarlo", "_variance_and_se", "montecarlo.reduce", None),
    ("montecarlo", "terminal_costs", "montecarlo.reduce", None),
    ("montecarlo", "sample_noise_block", "noise.sample", "draws"),
    ("checks", "sample_noise", "noise.sample", "draws"),
    ("noise", "_raw_stream", "noise.philox", None),
    ("noise", "ndtri", "noise.ndtri", None),
    ("cli", "integrate_riccati", "riccati.solve", "rk4_steps"),
    ("montecarlo", "integrate_riccati", "riccati.solve", "rk4_steps"),
    ("checks", "integrate_riccati", "riccati.solve", "rk4_steps"),
    ("cli", "integrate_means", "riccati.means", None),
    ("montecarlo", "integrate_means", "riccati.means", None),
    ("checks", "integrate_means", "riccati.means", None),
    ("montecarlo", "closed_loop_field", "riccati.field", None),
    ("checks", "closed_loop_field", "riccati.field", None),
    ("checks", "ansatz_residual", "riccati.residual", None),
    ("checks", "explicit_R", "riccati.explicit_r", None),
    ("checks", "euler_maruyama", "sde.euler_maruyama", "sde_path_steps"),
    ("checks", "simulate_density", "weak.density", None),
    ("checks", "reweighted_expectation", "weak.reweight", None),
    ("checks", "hidden_action_foc_check", "weak.foc", None),
]


class Span:
    __slots__ = ("id", "name", "parent", "point", "start", "end", "child_s", "attrs")

    def __init__(self, span_id, name, parent, point):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.point = point
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def as_list(self) -> list:
        parent = None if self.parent is None else self.parent.id
        return [self.id, self.name, parent, self.point, self.start, self.end, self.attrs]


def _annotate_rk4_steps(span, args, kwargs, result, exc):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    if exc is None:
        span.attrs["steps"] = grid.n_steps
    elif hasattr(exc, "t"):
        # the error reports the node where the bound was crossed
        span.attrs["steps"] = grid.n_steps - round(exc.t / grid.dt)
        span.attrs["blowup"] = 1


def _annotate_draws(span, args, kwargs, result, exc):
    if result is not None:
        span.attrs["draws"] = int(result.increments.size)
        span.attrs["bytes"] = int(result.increments.nbytes)


def _annotate_mc_path_steps(span, args, kwargs, result, exc):
    field, n_paths = args[0], args[1]
    span.attrs["path_steps"] = int(n_paths) * field.sol.grid.n_steps


def _annotate_sde_path_steps(span, args, kwargs, result, exc):
    noise = args[3] if len(args) > 3 else kwargs["noise"]
    span.attrs["path_steps"] = noise.n_paths * noise.grid.n_steps


def _annotate_csv_bytes(span, args, kwargs, result, exc):
    if exc is None:
        span.attrs["bytes"] = os.path.getsize(args[0])


def _annotate_points(span, args, kwargs, result, exc):
    if result is not None:
        span.attrs["points"] = len(result)


def _annotate_check_results(span, args, kwargs, result, exc):
    if result is not None:
        span.attrs["run"] = len(result)
        span.attrs["failed"] = sum(1 for r in result if not r.passed)


ANNOTATORS: Dict[str, Callable] = {
    "rk4_steps": _annotate_rk4_steps,
    "draws": _annotate_draws,
    "mc_path_steps": _annotate_mc_path_steps,
    "sde_path_steps": _annotate_sde_path_steps,
    "csv_bytes": _annotate_csv_bytes,
    "points": _annotate_points,
    "check_results": _annotate_check_results,
}


class Recorder:
    """Records spans while installed; keeps them in memory until the run ends."""

    def __init__(self):
        self.spans: List[Span] = []
        self.point: Optional[str] = None
        self.missing: List[str] = []
        self.annotation_errors = 0
        self._stack: List[Span] = []
        self._installed = []
        self._targets = []
        for module_name, attr, span_name, annotator in PATCH_POINTS:
            module = importlib.import_module("mvcontract." + module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._targets.append((module, attr, span_name, ANNOTATORS.get(annotator)))

    def _wrap(self, original, span_name, annotate):
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack
            parent = stack[-1] if stack else None
            span = Span(len(recorder.spans), span_name, parent, recorder.point)
            recorder.spans.append(span)
            stack.append(span)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                span.attrs["error"] = type(error).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
                if annotate is not None:
                    try:
                        annotate(span, args, kwargs, result, exc)
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        recorder.annotation_errors += 1

        return traced

    def install(self) -> None:
        for module, attr, span_name, annotate in self._targets:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name, annotate))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def _total(spans, name, value=lambda s: s.seconds):
    return sum(value(s) for s in spans if s.name == name)


def _attr_sum(spans, name, key):
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


#: (metric, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("noise.calls", "count"),
    ("noise.draws", "count"),
    ("noise.busy_s", "s"),
    ("noise.ns_per_draw", "ns"),
    ("noise.philox_s", "s"),
    ("noise.ndtri_s", "s"),
    ("noise.uniform_map_s", "s"),
    ("noise.block_bytes_max", "B"),
    ("montecarlo.chunks", "count"),
    ("montecarlo.path_steps", "count"),
    ("montecarlo.step_s", "s"),
    ("montecarlo.ns_per_path_step", "ns"),
    ("montecarlo.reduce_s", "s"),
    ("riccati.solves", "count"),
    ("riccati.rk4_steps", "count"),
    ("riccati.solve_s", "s"),
    ("riccati.us_per_step", "us"),
    ("riccati.blowups", "count"),
    ("riccati.means_s", "s"),
    ("riccati.residual_s", "s"),
    ("sde.calls", "count"),
    ("sde.path_steps", "count"),
    ("sde.busy_s", "s"),
    ("sde.ns_per_path_step", "ns"),
    ("weak.density_s", "s"),
    ("checks.run", "count"),
    ("checks.failed", "count"),
    ("checks.self_s", "s"),
    ("cli.csv_write_s", "s"),
    ("cli.csv_bytes", "B"),
    ("cli.csv_read_s", "s"),
    ("cli.self_s", "s"),
    ("config.load_s", "s"),
    ("multipliers.points", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "1"),
    ("trace.overhead_frac", "1"),
    ("trace.unattributed_frac", "1"),
]


def layer_metrics(spans: List[Span], passes: int, traced_wall: float,
                  untraced_wall: float, cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics; counts and times are per traced pass.

    ``traced_wall`` and ``untraced_wall`` are the summed pass walls of the
    traced and of the untraced passes of the same inputs; ``cpu_s`` is the
    process CPU time of the traced passes.
    """
    per = 1.0 / passes
    noise_s = _total(spans, "noise.sample")
    philox_s = _total(spans, "noise.philox")
    ndtri_s = _total(spans, "noise.ndtri")
    draws = _attr_sum(spans, "noise.sample", "draws")
    mc_path_steps = _attr_sum(spans, "montecarlo.simulate", "path_steps")
    mc_step_s = _total(spans, "montecarlo.simulate", lambda s: s.self_s)
    rk4_steps = _attr_sum(spans, "riccati.solve", "steps")
    solve_s = _total(spans, "riccati.solve")
    sde_steps = _attr_sum(spans, "sde.euler_maruyama", "path_steps")
    sde_s = _total(spans, "sde.euler_maruyama")
    roots_s = sum(s.seconds for s in spans if s.parent is None)
    return {
        "noise.calls": _total(spans, "noise.sample", lambda s: 1) * per,
        "noise.draws": draws * per,
        "noise.busy_s": noise_s * per,
        "noise.ns_per_draw": _ratio(noise_s, draws, 1e9),
        "noise.philox_s": philox_s * per,
        "noise.ndtri_s": ndtri_s * per,
        "noise.uniform_map_s": (noise_s - philox_s - ndtri_s) * per,
        "noise.block_bytes_max": max(
            [s.attrs.get("bytes", 0) for s in spans if s.name == "noise.sample"] or [0]),
        "montecarlo.chunks": sum(
            1 for s in spans if s.name == "noise.sample" and s.parent is not None
            and s.parent.name == "montecarlo.simulate") * per,
        "montecarlo.path_steps": mc_path_steps * per,
        "montecarlo.step_s": mc_step_s * per,
        "montecarlo.ns_per_path_step": _ratio(mc_step_s, mc_path_steps, 1e9),
        "montecarlo.reduce_s": _total(spans, "montecarlo.reduce") * per,
        "riccati.solves": _total(spans, "riccati.solve", lambda s: 1) * per,
        "riccati.rk4_steps": rk4_steps * per,
        "riccati.solve_s": solve_s * per,
        "riccati.us_per_step": _ratio(solve_s, rk4_steps, 1e6),
        "riccati.blowups": _attr_sum(spans, "riccati.solve", "blowup") * per,
        "riccati.means_s": _total(spans, "riccati.means") * per,
        "riccati.residual_s": _total(spans, "riccati.residual") * per,
        "sde.calls": _total(spans, "sde.euler_maruyama", lambda s: 1) * per,
        "sde.path_steps": sde_steps * per,
        "sde.busy_s": sde_s * per,
        "sde.ns_per_path_step": _ratio(sde_s, sde_steps, 1e9),
        "weak.density_s": _total(spans, "weak.density") * per,
        "checks.run": _attr_sum(spans, "checks.battery", "run") * per,
        "checks.failed": _attr_sum(spans, "checks.battery", "failed") * per,
        "checks.self_s": _total(spans, "checks.battery", lambda s: s.self_s) * per,
        "cli.csv_write_s": _total(spans, "cli.csv_write") * per,
        "cli.csv_bytes": _attr_sum(spans, "cli.csv_write", "bytes") * per,
        "cli.csv_read_s": _total(spans, "cli.csv_read") * per,
        "cli.self_s": _total(spans, "cli.main", lambda s: s.self_s) * per,
        "config.load_s": _total(spans, "config.resolve") * per,
        "multipliers.points": _attr_sum(spans, "multipliers.sweep_grid", "points") * per,
        "proc.cpu_s": cpu_s * per,
        "proc.cpu_util": _ratio(cpu_s, traced_wall),
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
        "trace.unattributed_frac": _ratio(traced_wall - roots_s, traced_wall),
    }


def self_time_by_layer(spans: List[Span]) -> Dict[str, float]:
    """Self time summed by layer (the span name's prefix), for the text report."""
    out: Dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + s.self_s
    return out
