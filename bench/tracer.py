"""Span tracing of ecsim's layers, installed from outside the package.

`install` replaces every public function of the traced modules, at every name
under which an ecsim module can look it up, by a wrapper that records a span
(name, start, end, parent, attributes). Callers that imported a function into
their own namespace (`sources` calls `ecs_to_fock` through its own import)
therefore hit the wrapper too. Spans stay in memory; the operation process
writes them once ecsim returns. `layer_metrics` turns the spans of a set of
operations into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("fock", "coupler", "circle", "measurement", "sources", "homodyne", "squeezing", "verify", "cli")

# Check names of `ecsim verify --suite full`; each gets a `verify.<name>.s` metric.
VERIFY_CHECKS = (
    "twirl-idempotent",
    "twirl-invariance",
    "laser-dual-form",
    "phase-shift-covariance",
    "coupler-oracle-N20",
    "hong-ou-mandel-null",
    "commuting-diagram-n4",
    "quadrature-grid-invariance",
    "decomposition-nbar1.0-N2",
    "squeezing-fidelity-monotone",
    "coupler-oracle-N60",
    "commuting-diagram-n8",
    "decomposition-nbar2.0-N3",
    "trajectory-brute-force-n4",
)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("fock.vectors_built", "count"),
    ("fock.bytes_frozen", "B"),
    ("circle.ecs_to_fock.calls", "count"),
    ("circle.ecs_to_fock.self_s", "s"),
    ("circle.ecs_to_fock.macs", "count"),
    ("circle.ecs_to_fock.gmacs_per_s", "1e9/s"),
    ("coupler.coupler_block.calls", "count"),
    ("coupler.coupler_block.builds", "count"),
    ("coupler.coupler_block.build_s", "s"),
    ("coupler.coupler_block.max_sector", "photons"),
    ("coupler.apply_coupler.calls", "count"),
    ("coupler.apply_coupler.self_s", "s"),
    ("coupler.oracle_block.self_s", "s"),
    ("measurement.run_interference_trajectory.self_s", "s"),
    ("measurement.steps", "count"),
    ("measurement.step_s", "s"),
    ("measurement.delta_profile.self_s", "s"),
    ("measurement.fringe_scan.self_s", "s"),
    ("measurement.fringe_scan.table_bytes", "B"),
    ("measurement.exact_trajectory_branch.calls", "count"),
    ("measurement.exact_trajectory_branch.self_s", "s"),
    ("measurement.joint_count_distribution.self_s", "s"),
    ("sources.phase_walk_correlation.self_s", "s"),
    ("sources.decomposition_equivalence_check.self_s", "s"),
    ("homodyne.homodyne_difference_stats.calls", "count"),
    ("homodyne.homodyne_difference_stats.self_s", "s"),
    ("homodyne.split_common_source.calls", "count"),
    ("squeezing.approximation_quality.self_s", "s"),
    *((f"verify.{check}.s", "s") for check in VERIFY_CHECKS),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span store of one operation process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attributes]
        self._stack: list[int] = []
        self.vectors_built = 0
        self.bytes_frozen = 0

    def wrap(self, name, fn, annotate=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        return traced

    def count_frozen(self, cls, field: str, is_vector: bool):
        """Wrap a frozen Fock container's __post_init__ to count the bytes it
        copies while freezing (a counter, not a span)."""
        original = cls.__post_init__
        tracer = self

        def post_init(obj):
            given = getattr(obj, field)
            original(obj)
            stored = getattr(obj, field)
            copied = not (isinstance(given, np.ndarray) and np.may_share_memory(given, stored))
            tracer.bytes_frozen += stored.nbytes if copied else 0
            tracer.vectors_built += 1 if is_vector else 0

        cls.__post_init__ = post_init


def _ecs_macs(args, kwargs, result) -> dict:
    """Multiply-adds of the grid contraction in `ecs_to_fock`, computed from
    shapes: the operand tables are folded into two halves (the split that
    minimizes the larger half) and the halves contracted over grid points."""
    ecs = args[0]
    P = math.prod(ecs.grid_shape)
    shape = result.shape
    sizes = [(m, shape.dims[m]) for m in ecs.coherent_modes]
    sizes += [(pf.modes[0], shape.dims[pf.modes[0]] * shape.dims[pf.modes[1]]) for pf in ecs.pair_factors]
    sizes = [d for _, d in sorted(sizes)]
    best = min(range(1, len(sizes) + 1), key=lambda s: max(math.prod(sizes[:s]), math.prod(sizes[s:])))
    macs = 0
    for part in (sizes[:best], sizes[best:]):
        acc = 1
        for d in part:
            acc *= d
            macs += P * acc
    macs += P * math.prod(sizes)
    return {"macs": macs}


def _block_key(args, kwargs, result) -> dict:
    params, N = args[0], args[1]
    return {"key": [float(params.theta), float(params.phi), int(N)]}


def _trajectory_steps(args, kwargs, result) -> dict:
    return {"steps": len(result[0].steps)}


def _check_name(args, kwargs, result) -> dict:
    return {"label": f"verify.{result.name}"}


def _peak_bytes(fn):
    """Wrap `fn` so each call runs under tracemalloc; the peak bytes allocated
    during the call are returned by the annotation hook `measured.annotate`."""
    last = {"table_bytes": 0}

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            last["table_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    measured.annotate = lambda args, kwargs, result: dict(last)
    return measured


def install() -> Tracer:
    """Wrap ecsim's public functions in every ecsim namespace; return the tracer."""
    from ecsim import fock, measurement

    tracer = Tracer()
    annotations = {
        "circle.ecs_to_fock": _ecs_macs,
        "coupler.coupler_block": _block_key,
        "measurement.run_interference_trajectory": _trajectory_steps,
    }
    replacement = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ecsim.{layer}")  # cli imports verify lazily
        for name, original in vars(module).items():
            if not (inspect.isfunction(original) and original.__module__ == module.__name__):
                continue
            if name.startswith("_"):
                continue
            span = f"{layer}.{name}"
            target, annotate = original, annotations.get(span)
            if layer == "verify" and name.startswith("check_"):
                annotate = _check_name
            elif span == "measurement.fringe_scan":
                target = _peak_bytes(original)
                annotate = target.annotate
            replacement[id(original)] = tracer.wrap(span, target, annotate)
    for module_name, module in list(sys.modules.items()):
        if module_name == "ecsim" or module_name.startswith("ecsim."):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replacement:
                    setattr(module, name, replacement[id(value)])
    measurement.TrajectoryState.delta_profile = tracer.wrap(
        "measurement.delta_profile", measurement.TrajectoryState.delta_profile
    )
    tracer.count_frozen(fock.FockVector, "amplitudes", True)
    tracer.count_frozen(fock.DensityMatrix, "entries", False)
    tracer.count_frozen(fock.NumberDiagonalDensity, "weights", False)
    return tracer


# ---------------------------------------------------------------------------
# Aggregation (benchmark side)
# ---------------------------------------------------------------------------


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(reports: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics summed over the traced operations of one round.

    `reports` are the operation reports written by op.py in trace mode.
    `cli.import_s` is the median over operations (each process pays it once);
    everything else is a sum over the round.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    values = {name: 0.0 for name, _ in PER_LAYER}
    for report in reports:
        spans = report["spans"]
        seen_blocks = set()
        for span, own in zip(spans, _self_times(spans)):
            name, start, end, _, attrs = span
            attrs = attrs or {}
            name = attrs.get("label", name)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if name == "circle.ecs_to_fock":
                values["circle.ecs_to_fock.macs"] += attrs["macs"]
            elif name == "coupler.coupler_block":
                key = tuple(attrs["key"])
                values["coupler.coupler_block.max_sector"] = max(
                    values["coupler.coupler_block.max_sector"], key[2]
                )
                if key not in seen_blocks:
                    seen_blocks.add(key)
                    values["coupler.coupler_block.builds"] += 1
                    values["coupler.coupler_block.build_s"] += end - start
            elif name == "measurement.run_interference_trajectory":
                values["measurement.steps"] += attrs["steps"]
            elif name == "measurement.fringe_scan":
                values["measurement.fringe_scan.table_bytes"] += attrs["table_bytes"]
            elif f"{name}.s" in values and name.startswith("verify."):
                values[f"{name}.s"] += end - start
        values["fock.vectors_built"] += report["vectors_built"]
        values["fock.bytes_frozen"] += report["bytes_frozen"]
    for metric in values:
        parts = metric.rsplit(".", 1)
        if parts[1] == "calls":
            values[metric] = calls.get(parts[0], 0)
        elif parts[1] == "self_s" and parts[0] in self_s:
            values[metric] = self_s[parts[0]]
    values["cli.run.self_s"] = self_s.get("cli.cmd_run", 0.0)
    values["cli.import_s"] = statistics.median(r["import_s"] for r in reports) if reports else 0.0
    steps = values["measurement.steps"]
    values["measurement.step_s"] = values["measurement.run_interference_trajectory.self_s"] / steps if steps else 0.0
    synth_s = values["circle.ecs_to_fock.self_s"]
    values["circle.ecs_to_fock.gmacs_per_s"] = values["circle.ecs_to_fock.macs"] / synth_s / 1e9 if synth_s else 0.0
    values["trace.overhead_s"] = overhead_s
    return values
