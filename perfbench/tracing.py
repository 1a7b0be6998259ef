"""Spans around the public functions of each apmsim layer, recorded from
the benchmark's own files.

The modules import each other by name (``from .material import
cauchy_stress``), so a function is wrapped in every module namespace where
its callers look it up, not only where it is defined. Each span records its
name, start, end and parent span; spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its child spans,
which nest inside it because the program is single-threaded.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# (object whose attribute callers look up, attribute, span name). Classes are
# traced through __init__, which the constructor call looks up on the class.
TRACE_POINTS = (
    ("apmsim.actuation", "inverse_cauchy_stress", "material.inverse_cauchy_stress"),
    ("apmsim.material", "cauchy_stress", "material.cauchy_stress"),
    ("apmsim.actuation", "cauchy_stress", "material.cauchy_stress"),
    ("apmsim.material:YeohMaterial", "__init__", "material.YeohMaterial"),
    ("apmsim.geometry", "solve_major_axis", "geometry.solve_major_axis"),
    ("apmsim.geometry", "semi_ellipse_arc_length", "geometry.semi_ellipse_arc_length"),
    ("apmsim.actuation", "myofibril_length", "geometry.myofibril_length"),
    ("apmsim.geometry:MyofibrilSpec", "__init__", "geometry.MyofibrilSpec"),
    ("apmsim.actuation", "simulate_pressure", "actuation.simulate_pressure"),
    ("apmsim.cli", "simulate_sweep", "actuation.simulate_sweep"),
    ("apmsim.validation", "discrete_frechet", "validation.discrete_frechet"),
    ("apmsim.validation:Curve", "from_csv", "validation.Curve.from_csv"),
    ("apmsim.cli", "compare_curves", "validation.compare_curves"),
    ("apmsim.cli", "load_config", "config.load_config"),
    ("apmsim.cli", "main", "cli.main"),
)

# Per-layer metrics, in BENCHMARK.json order.
COUNTS = (
    "material.inverse_cauchy_stress.calls",
    "material.cauchy_stress.calls",
    "material.YeohMaterial.calls",
    "geometry.solve_major_axis.calls",
    "geometry.semi_ellipse_arc_length.calls",
    "geometry.myofibril_length.calls",
    "geometry.MyofibrilSpec.calls",
    "geometry.rule_warnings",
    "actuation.simulate_pressure.calls",
    "validation.discrete_frechet.calls",
    "validation.frechet_cells",
    "config.load_config.calls",
    "cli.bytes_out",
)
EXACT_RATIOS = ("material.stress_evals_per_inverse", "geometry.arc_evals_per_solve")
SELF_TIMES = (
    "material.inverse_cauchy_stress.self_s",
    "material.YeohMaterial.self_s",
    "geometry.solve_major_axis.self_s",
    "geometry.MyofibrilSpec.self_s",
    "actuation.simulate_pressure.self_s",
    "actuation.simulate_sweep.self_s",
    "validation.discrete_frechet.self_s",
    "validation.Curve.from_csv.self_s",
    "validation.compare_curves.self_s",
    "config.load_config.self_s",
    "cli.main.self_s",
)
# (metric, span counted, parent span it must run under, base span)
_CHILD_RATIOS = (
    ("material.stress_evals_per_inverse", "material.cauchy_stress", "material.inverse_cauchy_stress"),
    ("geometry.arc_evals_per_solve", "geometry.semi_ellipse_arc_length", "geometry.solve_major_axis"),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span recorder; install() wraps the trace points, uninstall() restores
    the original attributes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.frechet_cells = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        count_cells = name == "validation.discrete_frechet"

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if count_cells:
                self.frechet_cells += len(args[0]) * len(args[1])
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for path, attr, name in TRACE_POINTS:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> tuple[dict[str, int], dict[str, float]]:
        """Exact counts and self times of the spans with index in [lo, hi).

        Returns ({name.calls and parent/child counts}, {name.self_s}).
        """
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        child_time = [0.0] * (hi - lo)
        under: dict[tuple[int, int], int] = {}
        for idx in range(hi - 1, lo - 1, -1):
            nid = name_id[idx]
            dur = end[idx] - start[idx]
            calls[nid] += 1
            self_s[nid] += dur - child_time[idx - lo]
            p = parent[idx]
            if p >= lo:
                child_time[p - lo] += dur
                key = (nid, name_id[p])
                under[key] = under.get(key, 0) + 1
        counts = {f"{name}.calls": calls[i] for i, name in enumerate(self.names)}
        for metric, child, base in _CHILD_RATIOS:
            counts[metric] = under.get((self.names.index(child), self.names.index(base)), 0)
        times = {f"{name}.self_s": self_s[i] for i, name in enumerate(self.names)}
        return counts, times


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric."""
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("self_s"):
        return "s"
    if metric in EXACT_RATIOS or metric.endswith("ratio"):
        return "ratio"
    return "bytes" if metric == "cli.bytes_out" else "count"


def layer_metrics(counts: dict[str, int], times: dict[str, float], extra: dict[str, int]) -> dict[str, float]:
    """Exact counts, their ratios and self times of one traced pass; extra
    holds the counts made outside the spans."""
    values: dict[str, float] = {}
    merged = {**counts, **extra}
    for metric in COUNTS:
        values[metric] = merged[metric]
    for metric, _child, base in _CHILD_RATIOS:
        values[metric] = counts[metric] / counts[f"{base}.calls"]
    for metric in SELF_TIMES:
        values[metric] = times[metric]
    return values
