"""Spans and counters around calls into exocalc's modules, installed from outside.

Nothing in exocalc is edited: :func:`install` replaces module attributes and
class methods with timing wrappers.  ``cli`` binds names with
``from ... import``, so every exocalc module holding a reference to a wrapped
function gets the wrapper.  Calls that happen more than about 10^5 times per
run (``cli.fmt``, ``MultiPoly`` and ``ExoticForm`` methods, the ``cartan``
helpers) add to a counter and a summed time; every other call records one
span with its parent and the unit of work it belongs to.  A span's self time
is its duration minus the part covered by its children, aggregated calls
included.  Everything stays in memory until :meth:`Tracer.snapshot` is
written out once, at the end of the run.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import sys
import time

LAYERS = ("cli", "poly", "forms", "pde", "cartan", "dispersion", "metric")
AGGREGATED_LAYERS = ("poly", "cartan")
AGGREGATED_CLI = ("fmt", "fmt6", "fmt_grade")
RING_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__eq__",
)
# Compulsory traffic per point-step for complex128 fields: the explicit
# update reads two time levels and writes one; the implicit one also builds
# a three-row band and a right-hand side.
EXPLICIT_ARRAYS = 3
IMPLICIT_ARRAYS = 3 + 3 + 1


class Tracer:
    def __init__(self):
        # open frames: [time covered by children, enclosing span id, unit id]
        self.stack: list = []
        self.spans: list = []  # (id, parent, name, unit, start, duration, self)
        self.agg: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: dict = {}
        self.failed = dict.fromkeys(LAYERS, 0)
        self._seen_errors: set = set()
        self._next_id = 0

    # -- recording ------------------------------------------------------
    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _fail(self, layer: str, exc: BaseException):
        if id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.failed[layer] += 1

    def run_unit(self, name: str, unit, fn, *args, **kwargs):
        """Call ``fn`` inside a span that starts a new unit of work."""
        return self._span_wrapper(fn, name, "bench", unit=unit)(*args, **kwargs)

    def _span_wrapper(self, fn, name, layer, hook=None, unit=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            sid = self._next_id
            frame = [0.0, sid, unit if unit is not None else (parent[2] if parent else None)]
            state = hook.before(args, kwargs) if hook else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._fail(layer, exc)
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                spans.append(
                    (sid, parent[1] if parent else None, name, frame[2], start, dur, dur - frame[0])
                )
            if hook:
                hook.after(state, result, dur, dur - frame[0])
            return result

        return wrapper

    def _agg_wrapper(self, fn, name, layer, hook=None):
        stack, clock = self.stack, time.perf_counter
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, parent[1] if parent else None, parent[2] if parent else None]
            state = hook.before(args, kwargs) if hook else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._fail(layer, exc)
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
            if hook:
                hook.after(state, result, dur, dur - frame[0])
            return result

        return wrapper

    def wrap(self, fn, name, layer, aggregate, hook=None):
        return (self._agg_wrapper if aggregate else self._span_wrapper)(fn, name, layer, hook)

    # -- output ---------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "spans": self.spans,
            "agg": self.agg,
            "counts": self.counts,
            "failed": self.failed,
        }


# -- hooks for counters measured where the work happens ------------------


class _MulHook:
    """Term pairs a product attempts and terms it keeps."""

    def __init__(self, tracer):
        self.tracer = tracer

    def before(self, args, kwargs):
        a, b = args[0], args[1] if len(args) > 1 else None
        left = len(getattr(a, "terms", ()))
        right = len(b.terms) if hasattr(b, "terms") else 1
        return left * right

    def after(self, pairs, result, dur, self_dur):
        self.tracer.add("poly.mul_term_pairs", pairs)
        self.tracer.add("poly.mul_out_terms", len(getattr(result, "terms", ())))


class _WriteHook:
    def __init__(self, tracer):
        self.tracer = tracer

    def before(self, args, kwargs):
        return None

    def after(self, state, result, dur, self_dur):
        try:
            self.tracer.add("cli.write_bytes", os.path.getsize(result))
        except (OSError, TypeError):
            pass


class _RowsHook:
    """Row count of a ``*_rows`` call and the formatting time spent inside it."""

    def __init__(self, tracer, layer, count_key):
        self.tracer, self.layer, self.count_key = tracer, layer, count_key

    def _fmt_total(self):
        return sum(self.tracer.agg.get(f"cli.{n}", (0, 0.0))[1] for n in AGGREGATED_CLI)

    def before(self, args, kwargs):
        return self._fmt_total()

    def after(self, fmt_before, result, dur, self_dur):
        rows = result[1] if isinstance(result, tuple) and len(result) == 2 else ()
        self.tracer.add(self.count_key, len(rows))
        self.tracer.add(f"{self.layer}.compute_s", dur - (self._fmt_total() - fmt_before))


class _SimulateHook:
    """Point-steps of one ``simulate_time_domain`` call, split by update kind."""

    def __init__(self, tracer, signature):
        self.tracer, self.signature = tracer, signature

    def before(self, args, kwargs):
        try:
            bound = self.signature.bind(*args, **kwargs)
        except TypeError:
            return None
        grid = bound.arguments.get("grid")
        implicit = bool(bound.arguments.get("include_x_term", False))
        steps = getattr(grid, "n_x", 0) * getattr(grid, "n_t", 0)
        return ("implicit" if implicit else "explicit"), steps

    def after(self, state, result, dur, self_dur):
        if state is None:
            return
        kind, steps = state
        self.tracer.add(f"pde.{kind}_point_steps", steps)
        self.tracer.add(f"pde.{kind}_s", self_dur)


# -- installation --------------------------------------------------------


def _public_functions(module):
    for name, obj in list(vars(module).items()):
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _rebind(original, wrapper):
    """Point every exocalc module's reference to ``original`` at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "exocalc" or mod_name.startswith("exocalc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _wrap_class(tracer, cls, layer):
    for name, obj in list(vars(cls).items()):
        if name.startswith("_") and name not in RING_DUNDERS:
            continue
        if isinstance(obj, classmethod):
            fn = obj.__func__
            setattr(cls, name, classmethod(tracer.wrap(fn, f"{layer}.{name}", layer, True)))
        elif inspect.isfunction(obj):
            hook = _MulHook(tracer) if layer == "poly" and name in ("__mul__", "__rmul__") else None
            setattr(cls, name, tracer.wrap(obj, f"{layer}.{name}", layer, True, hook))


def install(tracer: Tracer):
    """Wrap the public functions of every exocalc layer module."""
    import exocalc.cli as cli
    import exocalc.poly as poly
    import exocalc.forms as forms
    import exocalc.pde as pde
    import exocalc.cartan as cartan
    import exocalc.dispersion as dispersion
    import exocalc.metric as metric

    for layer, module in (
        ("poly", poly), ("forms", forms), ("pde", pde),
        ("cartan", cartan), ("dispersion", dispersion), ("metric", metric),
    ):
        for name, fn in _public_functions(module):
            hook = None
            if layer == "pde" and name == "simulate_time_domain":
                hook = _SimulateHook(tracer, inspect.signature(fn))
            wrapper = tracer.wrap(fn, f"{layer}.{name}", layer, layer in AGGREGATED_LAYERS, hook)
            _rebind(fn, wrapper)

    if hasattr(poly, "MultiPoly"):
        _wrap_class(tracer, poly.MultiPoly, "poly")
    if hasattr(forms, "ExoticForm"):
        _wrap_class(tracer, forms.ExoticForm, "forms")

    row_hooks = {
        "metric_rows": ("metric", "metric.points"),
        "lightcone_rows": ("metric", "metric.points"),
        "spectrum_rows": ("dispersion", "dispersion.sweep_points"),
        "cartan_rows": ("cartan", "cartan.samples"),
    }
    for name, fn in _public_functions(cli):
        hook = None
        if name == "write_csv":
            hook = _WriteHook(tracer)
        elif name in row_hooks:
            hook = _RowsHook(tracer, *row_hooks[name])
        wrapper = tracer.wrap(fn, f"cli.{name}", "cli", name in AGGREGATED_CLI, hook)
        _rebind(fn, wrapper)


# -- per-layer metrics ---------------------------------------------------


def merge(snapshots: list) -> dict:
    """Combine the snapshots of several processes into one."""
    out = {"spans": [], "agg": {}, "counts": {}, "failed": dict.fromkeys(LAYERS, 0)}
    for snap in snapshots:
        out["spans"].extend(snap["spans"])
        for name, (calls, total, self_s) in snap["agg"].items():
            rec = out["agg"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for key, value in snap["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0.0) + value
        for layer, n in snap["failed"].items():
            out["failed"][layer] = out["failed"].get(layer, 0) + n
    return out


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            return pct
    return None


def percentile(values: list, pct: float) -> float:
    ordered = sorted(values)
    rank = pct / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(trace: dict, probes: list) -> tuple:
    """Per-layer metrics from a merged trace, and why any of them is absent.

    ``probes`` holds the ``import_s``/``config_s`` phases of fresh processes.
    """
    agg, counts, spans = trace["agg"], trace["counts"], trace["spans"]
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def span_total(name, field=5):
        return sum(s[field] for s in by_name.get(name, ()))

    def agg_calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def agg_total(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def layer_self(layer):
        prefix = layer + "."
        total = sum(rec[2] for name, rec in agg.items() if name.startswith(prefix))
        total += sum(s[6] for s in spans if s[2].startswith(prefix))
        return total

    m: dict = {}
    absent: dict = {}
    imports = [p["import_s"] for p in probes]
    configs = [p["config_s"] for p in probes]
    m["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    m["cli.config_s"] = (statistics.median(configs) if configs else 0.0, "s")
    fmt_calls = agg_calls(*(f"cli.{n}" for n in AGGREGATED_CLI))
    fmt_s = agg_total(*(f"cli.{n}" for n in AGGREGATED_CLI))
    m["cli.fmt_calls"] = (fmt_calls, "count")
    m["cli.format_s"] = (fmt_s, "s")
    m["cli.fmt_ns_per_cell"] = (_ratio(fmt_s, fmt_calls, 1e9), "ns")
    m["cli.write_s"] = (span_total("cli.write_csv", 6), "s")
    m["cli.write_mb"] = (counts.get("cli.write_bytes", 0.0) / 1e6, "MB")

    pairs = counts.get("poly.mul_term_pairs", 0.0)
    mul_s = agg_total("poly.__mul__", "poly.__rmul__")
    m["poly.mul_calls"] = (agg_calls("poly.__mul__", "poly.__rmul__"), "count")
    m["poly.mul_term_pairs"] = (pairs, "count")
    m["poly.mul_ns_per_term_pair"] = (_ratio(mul_s, pairs, 1e9), "ns")
    m["poly.mul_yield"] = (_ratio(counts.get("poly.mul_out_terms", 0.0), pairs), "ratio")
    m["poly.add_calls"] = (agg_calls("poly.__add__", "poly.__radd__"), "count")
    m["poly.self_s"] = (layer_self("poly"), "s")

    m["forms.exotic_d_calls"] = (len(by_name.get("forms.exotic_d", ())), "count")
    m["forms.exotic_d_self_s"] = (span_total("forms.exotic_d", 6), "s")
    m["forms.wedge_self_s"] = (span_total("forms.wedge", 6), "s")
    m["forms.homotopy_self_s"] = (span_total("forms.homotopy_H", 6), "s")
    m["forms.field_strength_self_s"] = (span_total("forms.field_strength", 6), "s")
    seed_ms = [s[5] * 1e3 for s in by_name.get("unit.seed", ())]
    pct = tail_percentile(len(seed_ms))
    m["forms.seed_count"] = (len(seed_ms), "count")
    m["forms.seed_p50_ms"] = (statistics.median(seed_ms) if seed_ms else 0.0, "ms")
    m["forms.seed_tail_pct"] = (pct or 0.0, "%")
    m["forms.seed_tail_ms"] = (percentile(seed_ms, pct) if pct else 0.0, "ms")
    if not seed_ms:
        absent["forms.seed_p50_ms"] = "no per-seed unit spans in this workload"
    elif pct is None:
        absent["forms.seed_tail_ms"] = f"only {len(seed_ms)} seeds, fewer than 20"

    explicit = counts.get("pde.explicit_point_steps", 0.0)
    implicit = counts.get("pde.implicit_point_steps", 0.0)
    m["pde.explicit_point_steps"] = (explicit, "count")
    m["pde.explicit_ns_per_point_step"] = (_ratio(counts.get("pde.explicit_s", 0.0), explicit, 1e9), "ns")
    m["pde.implicit_point_steps"] = (implicit, "count")
    m["pde.implicit_ns_per_point_step"] = (_ratio(counts.get("pde.implicit_s", 0.0), implicit, 1e9), "ns")
    moved = 16 * (EXPLICIT_ARRAYS * explicit + IMPLICIT_ARRAYS * implicit)
    m["pde.computed_bytes_per_point_step"] = (_ratio(moved, explicit + implicit), "B")
    m["pde.fit_s"] = (span_total("pde.fit_decay_rate"), "s")

    samples = counts.get("cartan.samples", 0.0)
    m["cartan.samples"] = (samples, "count")
    m["cartan.us_per_sample"] = (_ratio(counts.get("cartan.compute_s", 0.0), samples, 1e6), "us")
    points = counts.get("dispersion.sweep_points", 0.0)
    m["dispersion.sweep_points"] = (points, "count")
    m["dispersion.us_per_point"] = (_ratio(counts.get("dispersion.compute_s", 0.0), points, 1e6), "us")
    mpoints = counts.get("metric.points", 0.0)
    m["metric.points"] = (mpoints, "count")
    m["metric.us_per_point"] = (_ratio(counts.get("metric.compute_s", 0.0), mpoints, 1e6), "us")

    for layer in LAYERS:
        m[f"{layer}.failed"] = (trace["failed"].get(layer, 0), "count")

    for layer, probe_key in (
        ("cli", "cli.fmt_calls"), ("poly", "poly.mul_calls"), ("forms", "forms.exotic_d_calls"),
        ("pde", "pde.explicit_point_steps"), ("cartan", "cartan.samples"),
        ("dispersion", "dispersion.sweep_points"), ("metric", "metric.points"),
    ):
        if not m[probe_key][0] and not (layer == "pde" and implicit):
            absent.setdefault(layer, f"this workload makes no {layer} calls; its {layer} metrics read 0")
    return m, absent
