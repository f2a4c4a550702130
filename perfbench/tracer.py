"""Outside-in tracer: spans and counts at powergap's public entry points.

The wrappers are installed from here, on the module and class attributes
the pipeline looks up at call time, and removed again after each traced
pass, so nothing under ``src/`` knows it is traced. Spans are kept in memory
and written out as JSONL when the run ends.

Each layer span carries the metric its time adds to. A ``stage`` span marks
one of ``cli.run``'s stage helpers; it is not a layer, and only tells which
stage the layer spans inside it belong to, for the cross-check against the
program's own stage times.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, metric the span's time adds to, stage when the call
# is made outside a stage helper). An attribute "Class.method" is patched
# on the class; a function is replaced wherever a powergap module holds it.
LAYER_ENTRY_POINTS = [
    ("powergap.mesh", "build_mesh", "mesh.build_s", "mesh"),
    ("powergap.mesh", "Mesh.locate", "mesh.locate_s", None),
    ("powergap.solver", "BackgroundOperator.__init__", "solver.background_s",
     "solve"),
    ("powergap.solver", "BackgroundOperator.solve", "solver.solve_s", "solve"),
    ("powergap.solver", "solve_perturbed", "solver.perturbed_s", "solve"),
    ("powergap.energy", "power_report", "energy.power_report_s", "energy"),
    ("powergap.energy", "verify_identities", "energy.verify_identities_s",
     "energy"),
    ("powergap.energy", "cg_transform", "energy.cg_transform_s", "energy"),
    ("powergap.smallness", "check_three_region", "smallness.three_region_s",
     "three_region"),
    ("powergap.smallness", "check_three_ball", "smallness.three_ball_s",
     "three_ball"),
    ("powergap.smallness", "propagate_chain", "smallness.chain_s", "chain"),
    ("powergap.smallness", "ball_l2_sq", "smallness.ball_l2_sq_s", None),
    ("powergap.smallness", "scaling_identity_check", "smallness.scaling_s",
     "scaling"),
    ("powergap.smallness", "lipschitz_smallness", "smallness.lipschitz_s",
     "lipschitz"),
    ("powergap.smallness", "boundary_layer", "smallness.boundary_layer_s",
     "boundary_layer"),
    ("powergap.estimator", "interior_gradient_sup", "estimator.size_s", "size"),
    ("powergap.estimator", "check_fatness", "estimator.size_s", "size"),
    ("powergap.estimator", "surrogate_size_constants", "estimator.size_s",
     "size"),
    ("powergap.estimator", "estimate_size", "estimator.size_s", "size"),
    ("powergap.estimator", "boundary_data_norm_ratio", "estimator.size_s",
     "size"),
    ("powergap.coefficients", "validate_admissibility",
     "coefficients.admissibility_s", "admissibility"),
    ("powergap.coefficients", "check_jump_condition",
     "coefficients.admissibility_s", "solve"),
    ("powergap.geometry", "Scene.validate", "geometry.scene_validate_s",
     "mesh"),
    ("powergap.geometry", "vitali_cover", "geometry.vitali_s", "vitali"),
]

# cli.run's stage helpers (the other stages are written inline in run)
STAGE_HELPERS = [
    ("powergap.cli", "_admissibility_stage", "admissibility"),
    ("powergap.cli", "_three_region_stage", "three_region"),
    ("powergap.cli", "_chain_stage", "chain"),
    ("powergap.cli", "_size_stage", "size"),
]

# splu as called by powergap.solver, through its `spla` module reference
FACTOR = ("powergap.solver", "spla", "splu", "solver.factor_s")

LAYERS = ("mesh", "solver", "energy", "smallness", "estimator", "coefficients",
          "geometry")

# Every stage cli.run times must be covered by the layer spans inside it.
# They may leave uncovered this share of the stage's time plus
# CROSS_CHECK_ABS_S: the glue cli.run runs around the layer calls.
CROSS_CHECK_REL = 0.10
CROSS_CHECK_ABS_S = 0.05

TIME_METRICS = sorted({m for _, _, m, _ in LAYER_ENTRY_POINTS} | {FACTOR[3]})
COUNT_METRICS = ("mesh.n_points", "mesh.n_triangles", "mesh.locate_calls",
                 "mesh.locate_points", "solver.solve_calls",
                 "solver.factor_calls", "solver.lu_fill_nnz",
                 "energy.verify_identities_calls", "energy.cg_transform_calls",
                 "smallness.ball_l2_sq_calls")


# spans whose calls are counted as such
CALL_COUNTS = {"solver.solve_s": "solver.solve_calls",
               "energy.verify_identities_s": "energy.verify_identities_calls",
               "energy.cg_transform_s": "energy.cg_transform_calls"}


class CrossCheckError(RuntimeError):
    """The tracer's spans do not account for the program's stage times."""


class _ModuleProxy:
    """A module with some attributes replaced; the rest pass through."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.counts = defaultdict(Counter)   # pass -> metric -> count
        self.ball_keys = defaultdict(set)    # pass -> distinct ball integrals
        self.factors = []                    # LU objects of the current pass
        self.pass_index = None
        self.scene = None
        self._stack = []
        self._next_id = 0

    # -- recording

    def _open(self, name, kind, metric, default_stage):
        parent = self._stack[-1] if self._stack else None
        layer_parent = next((s for s in reversed(self._stack)
                             if s["kind"] == "layer"), None)
        stage = default_stage
        enclosing_stage = next((s for s in reversed(self._stack)
                                if s["kind"] == "stage"), None)
        if enclosing_stage is not None:
            stage = enclosing_stage["stage"]
        span = {
            "id": self._next_id,
            "parent": parent["id"] if parent else None,
            "layer_parent": layer_parent["id"] if layer_parent else None,
            "name": name, "kind": kind, "metric": metric, "stage": stage,
            # a call inside another span of the same metric is already timed
            "nested": any(s["metric"] == metric for s in self._stack),
            "pass": self.pass_index, "scene": self.scene,
            "start": time.perf_counter() - self.t0, "end": None,
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter() - self.t0
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, fn, name, kind="layer", metric=None, stage=None,
             on_call=None, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = self._open(name, kind, metric, stage)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                on_return(result)
            return result
        return traced

    def count(self, metric, n=1):
        self.counts[self.pass_index][metric] += n

    # -- counting hooks, keyed by the metric of the span they sit beside

    def _hooks(self, metric):
        if metric in CALL_COUNTS:
            return (lambda args, kwargs: self.count(CALL_COUNTS[metric])), None
        return {
            "mesh.locate_s": (self._on_locate, None),
            "smallness.ball_l2_sq_s": (self._on_ball, None),
            "mesh.build_s": (None, self._on_mesh),
        }.get(metric, (None, None))

    def _on_locate(self, args, kwargs):
        points = args[1] if len(args) > 1 else kwargs["points"]
        self.count("mesh.locate_calls")
        self.count("mesh.locate_points",
                   int(np.asarray(points, dtype=float).size // 2))

    def _on_ball(self, args, kwargs):
        u, center, radius = (args[i] if len(args) > i else kwargs[k]
                             for i, k in enumerate(("u", "center", "radius")))
        self.count("smallness.ball_l2_sq_calls")
        key = (id(u), np.asarray(center, dtype=float).tobytes(), float(radius))
        self.ball_keys[self.pass_index].add(key)

    def _on_mesh(self, mesh):
        self.count("mesh.n_points", mesh.num_points)
        self.count("mesh.n_triangles", mesh.num_triangles)

    def _on_factor(self, lu):
        self.count("solver.factor_calls")
        # L and U are copied out at the end of the pass, outside every span
        self.factors.append(lu)

    def end_pass(self):
        """Count the fill of the pass's LU factors, then let them go."""
        for lu in self.factors:
            self.count("solver.lu_fill_nnz", int(lu.L.nnz + lu.U.nnz))
        self.factors = []

    # -- installing the wrappers

    def install(self):
        """Wrap every entry point; returns the undo list for `uninstall`."""
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]
                         if isinstance(owner, type) else getattr(owner, attr)))
            setattr(owner, attr, new)

        def replace_everywhere(original, new):
            for name, mod in list(sys.modules.items()):
                if name == "powergap" or name.startswith("powergap."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            replace(mod, attr, new)

        for modname, attr, metric, stage in LAYER_ENTRY_POINTS:
            mod = importlib.import_module(modname)
            name = f"{modname.split('.')[-1]}.{attr}"
            on_call, on_return = self._hooks(metric)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                replace(cls, meth, self.wrap(
                    cls.__dict__[meth], name, metric=metric, stage=stage,
                    on_call=on_call, on_return=on_return))
            else:
                original = getattr(mod, attr)
                replace_everywhere(original, self.wrap(
                    original, name, metric=metric, stage=stage,
                    on_call=on_call, on_return=on_return))

        for modname, attr, stage in STAGE_HELPERS:
            mod = importlib.import_module(modname)
            replace(mod, attr, self.wrap(getattr(mod, attr), f"cli.{attr}",
                                         kind="stage", stage=stage))

        modname, attr, fn_name, metric = FACTOR
        mod = importlib.import_module(modname)
        real = getattr(mod, attr)
        replace(mod, attr, _ModuleProxy(real, **{fn_name: self.wrap(
            getattr(real, fn_name), f"solver.{fn_name}", metric=metric,
            stage="solve", on_return=self._on_factor)}))
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    # -- per-pass figures

    def pass_metrics(self, pass_index, wall_s, reports):
        """Per-layer figures of one traced pass; checks them against `reports`.

        `reports` maps scene index to that scene's report (with timings).
        """
        spans = [s for s in self.spans
                 if s["pass"] == pass_index and s["kind"] == "layer"]
        child_time = Counter()
        for s in spans:
            if s["layer_parent"] is not None:
                child_time[s["layer_parent"]] += s["end"] - s["start"]

        metrics = {m: 0.0 for m in TIME_METRICS}
        metrics.update({m: 0 for m in COUNT_METRICS})
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        top_level = 0.0
        covered = Counter()  # (scene, stage) -> seconds
        for s in spans:
            dur = s["end"] - s["start"]
            own = dur - child_time[s["id"]]
            if own < -1e-6:
                raise CrossCheckError(f"span {s['name']} overlaps its "
                                      "children: spans are not nested")
            self_by_layer[s["name"].split(".")[0]] += own
            if not s["nested"]:
                metrics[s["metric"]] += dur
            if s["layer_parent"] is None:
                top_level += dur
                covered[(s["scene"], s["stage"])] += dur

        metrics.update(self.counts[pass_index])
        calls = metrics["smallness.ball_l2_sq_calls"]
        metrics["smallness.ball_unique_ratio"] = (
            len(self.ball_keys[pass_index]) / calls if calls else 0.0)
        for layer, own in self_by_layer.items():
            metrics[f"{layer}.self_s"] = own
        metrics["cli.self_s"] = wall_s - top_level
        metrics["trace.pass_wall_s"] = wall_s
        metrics["trace.crosscheck_gap_frac"] = self._cross_check(covered,
                                                                 reports)
        return metrics

    @staticmethod
    def _cross_check(covered, reports):
        """Largest uncovered share of a stage; raises past tolerance."""
        worst = 0.0
        for scene, report in reports.items():
            for stage, told in report.get("timings", {}).items():
                told = float(told)
                seen = covered.get((scene, stage), 0.0)
                gap = told - seen
                if abs(gap) > CROSS_CHECK_REL * told + CROSS_CHECK_ABS_S:
                    raise CrossCheckError(
                        f"scene {scene} stage {stage!r}: cli.run timed "
                        f"{told:.4f} s but the layer spans cover "
                        f"{seen:.4f} s (tolerance {CROSS_CHECK_REL:.0%} + "
                        f"{CROSS_CHECK_ABS_S} s)")
                worst = max(worst, abs(gap) / told if told > 0 else 0.0)
        return worst

    def write_jsonl(self, path):
        keys = ("id", "parent", "name", "kind", "stage", "pass", "scene",
                "start", "end")
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps({k: s[k] for k in keys}) + "\n")

    @staticmethod
    def median_metrics(per_pass: list[dict]) -> dict:
        """Median of each per-layer figure over the traced passes."""
        return {k: statistics.median(p[k] for p in per_pass)
                for k in per_pass[0]}
