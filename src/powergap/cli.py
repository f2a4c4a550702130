"""Configuration ingestion, experiment orchestration, and report emission.

One JSON document describes a scene, its coefficient laws, the injected
boundary current, the weight geometry, and the list of checks to run; one
table, `_FIELDS`, gives each of its paths. `parse_config` checks the whole
document against the table, then builds what a run takes, so `validate`
and `run` refuse the same documents, by path, before anything is meshed.
`run` walks one table of stages (`_stages`), mesh -> solve -> energy ->
checks -> estimate. The solve stage makes every LU solve of the run, the
three-region family included, and then frees the factorization. `run`
writes a deterministic JSON report (timings only on request, so repeated
runs are byte-identical) plus tidy CSV artifacts for plotting.

Exit codes: 0 success, 2 structural/config error, 3 when an inequality
predicted by the theory fails empirically, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, energy, estimator, smallness
from .coefficients import (
    BackgroundTensor,
    InclusionLaw,
    JumpCase,
    MatrixField,
    check_jump_condition,
    validate_admissibility,
)
from .errors import (
    ConfigError,
    InequalityViolation,
    PowerGapError,
    StructuralError,
)
from .geometry import (
    Circle,
    Ellipse,
    RectRegion,
    Scene,
    WeightParams,
    build_regions,
    flattening_map,
    vitali_cover,
)
from .mesh import build_mesh, mesh_size_precondition
from .solver import (
    BackgroundOperator,
    export_solution_csv,
    fourier_data,
    solve_perturbed,
)

EXIT_OK = 0
EXIT_STRUCTURAL = 2
EXIT_VIOLATION = 3


def _fail(path: str, msg: str):
    raise ConfigError(f"config field '{path}': {msg}")


@contextmanager
def _naming(path: str):
    """A bad value met inside the block, as a ConfigError naming `path`."""
    try:
        yield
    except (ValueError, PowerGapError) as exc:
        raise ConfigError(f"config field '{path}': {exc}") from exc


class ExperimentConfig(SimpleNamespace):
    """Everything a run takes, read once from a document by `parse_config`.

    It holds in `values` the checked value at every path of `_FIELDS`,
    defaults filled in; `label` is an attribute too, as callers file a
    run's outputs under it. Then the `scene` and its `scene_validation`,
    the separations `Scene.validate` measured, the `background`, `law` (None
    without one), boundary data `g` and `weights`, and `regions`, the
    regions and chart of the three-region check (None without it). `raw`
    is the document as given, for the report's `config` echo and `sweep`'s
    copies. Nothing here holds per-run state, so one config can drive any
    number of runs.
    """


def parse_config(doc: dict) -> ExperimentConfig:
    """Check `doc` against `_FIELDS`, then build what the stages read.

    Every refusal is a ConfigError naming the path at fault, so `run` and
    `validate` refuse the same documents, before anything is meshed.
    """
    v = _checked(doc)
    checks = v["checks"]
    for stage in _stages():
        for need in stage.needs if stage.name in checks else ():
            # a path first: the chain check needs the chain section
            if need in _PATHS:
                if v[need] is None:
                    _fail(need, f"required by check '{stage.name}'")
            elif need not in checks:
                _fail("checks", f"check '{stage.name}' needs check '{need}'")
    cfg = ExperimentConfig(raw=doc, values=v, label=v["label"], regions=None)
    cfg.scene = _build(Scene, "scene", v)
    try:
        cfg.scene_validation = cfg.scene.validate()
    except StructuralError as exc:
        _fail(f"scene.{exc.field}", str(exc))
    cfg.background = _build(BackgroundTensor, "background", v)
    cfg.law = None if v["law"] is None else _build(InclusionLaw, "law", v)
    with _naming("weights"):
        cfg.weights = _build(WeightParams, "weights", v)
    cfg.g = fourier_data(v["boundary_data"])
    with _naming("mesh.h"):
        mesh_size_precondition(cfg.scene.outer, v["mesh.h"])
    for stage in _stages():
        if stage.read is not None and stage.name in checks:
            stage.read(cfg)
    return cfg


def _build(cls, section: str, v: dict):
    """`cls` from its section's checked values."""
    return cls(**{f.name: v[f"{section}.{f.name}"]
                  for f in dataclasses.fields(cls)})


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse a config file, its top-level keys replaced by `overrides`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, col {exc.colno}: "
                          f"{exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if isinstance(doc, dict):
        doc.update(overrides)
    return parse_config(doc)


# ---------------------------------------------------------------------------
# Run pipeline


class _Run:
    """What the stages of one run share; each stage fills in its part."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.scene, self.background = cfg.scene, cfg.background
        self.law, self.g = cfg.law, cfg.g
        self.violations = []
        self.mesh = self.op = self.sol0 = self.sol1 = self.power = None
        self.family = None
        self.case = JumpCase.NONE


def _mesh_stage(st: _Run) -> dict:
    st.mesh = build_mesh(st.scene, st.cfg.values["mesh.h"],
                         st.cfg.values["mesh.min_angle_deg"])
    return {"scene_validation": st.cfg.scene_validation,
            "mesh": {"n_points": st.mesh.num_points,
                     "n_triangles": st.mesh.num_triangles,
                     **st.mesh.diagnostics}}


def _admissibility_stage(st: _Run) -> dict:
    mesh, scene = st.mesh, st.scene
    pts = np.vstack([mesh.centroids, mesh.points])
    comp = np.concatenate([mesh.comp, scene.component(mesh.points)])
    plus, minus = pts[comp > 0], pts[comp < 0]
    d_mask = scene.in_inclusion(pts)
    report = validate_admissibility(st.background, st.law, plus, minus,
                                    pts[d_mask], comp[d_mask])
    # the jump classification "none" is a valid outcome (it only disables
    # the energy bracket), so it does not fail admissibility
    failed = [k for k, v in report.items()
              if isinstance(v, dict) and not v.get("passed", True)
              and k != "(a0):jump"]
    if failed:
        raise StructuralError(
            "admissibility failed: " + ", ".join(sorted(failed)))
    return report


def _solve_stage(st: _Run) -> dict:
    """Every LU solve of the run; the factorization is released after them."""
    mesh, background = st.mesh, st.background
    st.op = BackgroundOperator(mesh, background)
    st.sol0 = st.op.solve(st.g)
    out = {"residual_u0": st.sol0.residual,
           "g_defect": st.sol0.diagnostics["g_defect"]}
    if st.law is not None and st.scene.inclusion is not None:
        st.sol1 = solve_perturbed(st.op, st.law, st.g)
        out["residual_u1"] = st.sol1.residual
        d_pts = mesh.centroids[mesh.in_d]
        if len(d_pts):
            st.case = check_jump_condition(
                background.sigma(d_pts, mesh.comp[mesh.in_d]),
                st.law.sigma1(d_pts), st.law.zeta1(d_pts), st.law.varrho)
    if "three_region" in st.cfg.values["checks"]:
        # no other stage draws from the seed; the family is solved with one
        # multi-column LU solve
        rng = np.random.default_rng(st.cfg.values["seed"])
        mode_sets = [[(k, float(rng.normal()), float(rng.normal()))
                      for k in range(1, 6)]
                     for _ in range(st.cfg.values["regions.n_family"])]
        st.family = st.op.solve([fourier_data(m) for m in mode_sets])
    st.op.release()
    return out


def _energy_stage(st: _Run) -> dict:
    want_bracket = "bracket" in st.cfg.values["checks"] and st.case is not JumpCase.NONE
    st.power = energy.power_report(
        st.sol0, st.sol1, st.case if want_bracket else JumpCase.NONE,
        tol=st.cfg.values["bracket_tol"])
    bracket, free = st.power.bracket, st.power.free
    if want_bracket and not bracket.degenerate \
            and not (bracket.sign_ok and bracket.bracket_ok):
        st.violations.append(
            f"energy bracket failed (sign_ok={bracket.sign_ok}, "
            f"bracket_ok={bracket.bracket_ok})")
    if free.flagged:
        st.violations.append(
            f"W'0 volume and boundary forms differ by {free.mismatch:.3e} "
            "relative")
    return {**st.power.as_dict(), "case": st.case.value}


def _read_three_region(cfg: ExperimentConfig) -> None:
    v = cfg.values
    with _naming("regions"):
        cfg.regions = (build_regions(cfg.weights, v["regions.R1"], v["regions.R2"],
                              v["regions.theta"]),
                flattening_map(cfg.scene.interface, v["regions.anchor_t"],
                               cfg.scene.rho0, cfg.scene.K0))


def _three_region_stage(st: _Run) -> dict:
    regions, fmap = st.cfg.regions
    # the family solved by the solve stage, sampled on one located grid
    checks = smallness.check_three_region(st.family, regions, fmap)
    rows = []
    for i, chk in enumerate(checks):
        rows.append({"index": i, "I1": chk.small_factor, "I2": chk.lhs,
                     "I3": chk.large_factor, "constant": chk.constant,
                     "margin": chk.margin,
                     "violation": chk.violation_candidate})
        if chk.violation_candidate:
            st.violations.append(f"three_region family member {i}: "
                                 "I1 = 0 with I2 > 0")
    consts = [r["constant"] for r in rows if math.isfinite(r["constant"])]
    med = float(np.median(consts)) if consts else math.nan
    return {"R1": regions.R1, "R2": regions.R2, "theta": regions.theta,
            "exponents": regions.exponents(), "rows": rows,
            "max_constant": max(consts) if consts else math.nan,
            "median_constant": med,
            "uniformity": (max(consts) / med) if consts and med > 0
            else math.nan}


def _read_three_ball(cfg: ExperimentConfig) -> None:
    with _naming("three_ball"):
        smallness.three_ball_precondition(
            cfg.scene, cfg.background.lambda0, cfg.values["three_ball.center"],
            *cfg.values["three_ball.radii"])


def _three_ball_stage(st: _Run) -> dict:
    v = st.cfg.values
    chk = smallness.check_three_ball(st.sol0, v["three_ball.center"],
                                     *v["three_ball.radii"])
    return {"constant": chk.constant, "margin": chk.margin,
            "tau": chk.params["tau"],
            "crosses_interface": chk.params["crosses_interface"]}


def _read_chain(cfg: ExperimentConfig) -> None:
    v = cfg.values
    with _naming("chain"):
        smallness.chain_precondition(cfg.scene, cfg.scene.inclusion_region(),
                                     v["chain.x0"], v["chain.r"], v["chain.h"])


def _chain_stage(st: _Run) -> dict:
    v = st.cfg.values
    cert = smallness.propagate_chain(st.sol0, st.scene.inclusion,
                                     v["chain.x0"], v["chain.r"], v["chain.h"])
    inv_ok = all(all(c.invariants_ok().values()) for c in cert.chains)
    holds = cert.holds()
    if not (inv_ok and holds):
        st.violations.append("chain certificate failed "
                             f"(invariants={inv_ok}, bound={holds})")
    return {"n_chains": len(cert.chains), "n_max": cert.n_max,
            "n_bound": cert.n_bound, "tau": cert.tau, "m0": cert.m0,
            "delta": cert.delta, "direct_d_norm_sq": cert.direct_d_norm_sq,
            "bound_d_norm_sq": cert.bound_d_norm_sq,
            "invariants_ok": inv_ok, "holds": holds,
            "r_over_2h_ok": cert.r_over_2h_ok}


def _scaling_stage(st: _Run) -> dict:
    res = {f"theta_{theta}": smallness.scaling_identity_check(
        st.sol0, RectRegion((-0.2, -0.2), (0.2, 0.2)), theta)
        for theta in (0.5, 0.7, 1.0)}
    worst = max(res.values())
    res["max_residual"] = worst
    if worst >= 1e-3:
        st.violations.append(f"scaling identity residual {worst:.3e}")
    return res


def _read_lipschitz(cfg: ExperimentConfig) -> None:
    with _naming("lipschitz_a"):
        smallness.lipschitz_centers(cfg.scene, cfg.values["lipschitz_a"])


def _lipschitz_stage(st: _Run) -> dict:
    a = st.cfg.values["lipschitz_a"]
    ls = smallness.lipschitz_smallness(st.sol0, a)
    return {"a": a, "c_a": ls["c_a"], "argmin": list(ls["argmin"])}


def _read_boundary_layer(cfg: ExperimentConfig) -> None:
    # a line fitted through the energies of layers of depth a / 4 > 0
    depths = cfg.values["boundary_layer_a"]
    if len(set(depths)) < 2:
        _fail("boundary_layer_a", "must hold two or more distinct depths, "
                                  f"got {list(depths)}")


def _boundary_layer_stage(st: _Run) -> dict:
    bl = smallness.boundary_layer(st.sol0, st.cfg.values["boundary_layer_a"])
    return {"a": list(map(float, bl["a"])),
            "layer_energy": list(map(float, bl["layer_energy"])),
            "exponent": bl["exponent"]}


def _vitali_stage(st: _Run) -> dict:
    radius = st.cfg.values["vitali_radius"]
    centers = vitali_cover(st.scene.interface, radius)
    return {"radius": radius, "n_centers": int(len(centers)),
            "cover_constant":
                len(centers) * radius / st.scene.interface.perimeter}


def _read_size(cfg: ExperimentConfig) -> None:
    constants = cfg.values["size_constants"]
    if constants is not None and not constants[0] <= constants[1]:
        _fail("size_constants", "must be [c1, c2] with c1 <= c2, got "
                                f"{list(constants)}")


def _size_stage(st: _Run) -> dict:
    scene, power, sol0 = st.scene, st.power, st.sol0
    bracket = power.bracket
    if bracket is None or bracket.degenerate:
        if abs(power.delta_w.real) <= 1e-8 * max(abs(power.w0.real), 1e-300):
            # identical laws: dW ~ 0 gives the degenerate [0, 0] bounds
            return estimator.estimate_size(
                power, (0.0, 0.0), fatness_ok=True,
                true_area=scene.inclusion.area,
                constants_source="degenerate").as_dict()
        return {"refused": "jump condition (a0) classifies as 'none'; size "
                           "bounds not asserted"}
    fat = estimator.check_fatness(scene)
    constants = st.cfg.values["size_constants"]
    if constants is not None:
        c1, c2 = constants
        source = "calibrated"
    else:
        interior = estimator.interior_gradient_sup(sol0)
        ell = min(scene.d0, scene.d1) / 2.0
        ls = smallness.lipschitz_smallness(sol0, ell / 2.0, max_centers=60)
        c1, c2 = estimator.surrogate_size_constants(
            bracket.kappa_lo, bracket.kappa_hi, interior["ratio"],
            ls["c_a"], st.background.lambda0, ell)
        source = "analytic-surrogate"
    est = estimator.estimate_size(power, (c1, c2), fatness_ok=fat["passed"],
                                  true_area=scene.inclusion.area,
                                  constants_source=source)
    out = est.as_dict()
    out["fatness"] = fat
    out["g_norm_ratio"] = estimator.boundary_data_norm_ratio(sol0.mesh,
                                                             sol0.g)
    if est.brackets_truth() is False and source == "calibrated":
        st.violations.append(
            f"size bounds [{est.lower:.4g}, {est.upper:.4g}] miss the true "
            f"area {est.true_area:.4g}")
    return out


class _Stage(NamedTuple):
    name: str
    always: bool
    fn: Optional[Callable]
    needs: tuple = ()
    key: str = "checks"
    read: Optional[Callable] = None


def _stages() -> tuple:
    """The pipeline's stages, in run order.

    A stage runs always, or when named in `checks`; each of its `needs` is
    a path of `_FIELDS` that is not null, or else a check listed too.
    `read(cfg)` refuses what of the stage's values needs the scene or
    another field; `parse_config` calls it once (the three-region reader
    keeps the regions it builds as `cfg.regions`). `fn(run)` returns its
    report fragment, put at checks.<name> for key "checks" and merged into
    the report for key "".
    `bracket` has no stage; the energy stage reads it.
    Built per call, so a stage function wrapped at run time (as
    perfbench/tracer.py does) is the one that runs.
    """
    return (
        _Stage("mesh", True, _mesh_stage, key=""),
        _Stage("admissibility", False, _admissibility_stage,
               key="admissibility"),
        _Stage("solve", True, _solve_stage, key="solve"),
        _Stage("energy", False, _energy_stage, ("scene.inclusion", "law"),
               "power"),
        _Stage("bracket", False, None, ("energy",)),
        _Stage("three_region", False, _three_region_stage,
               ("scene.interface",), read=_read_three_region),
        _Stage("three_ball", False, _three_ball_stage, read=_read_three_ball),
        _Stage("chain", False, _chain_stage, ("scene.inclusion", "chain"),
               read=_read_chain),
        _Stage("scaling", False, _scaling_stage),
        _Stage("lipschitz", False, _lipschitz_stage, read=_read_lipschitz),
        _Stage("boundary_layer", False, _boundary_layer_stage,
               read=_read_boundary_layer),
        _Stage("vitali", False, _vitali_stage, ("scene.interface",)),
        _Stage("size", False, _size_stage, ("energy", "bracket"), "size",
               _read_size),
    )


KNOWN_CHECKS = tuple(stage.name for stage in _stages() if not stage.always)


# ---------------------------------------------------------------------------
# Config fields
#
# A kind is (what a refusal says the value must be, its test, and its build
# step, called with the value and its path; the value itself when None). A range is "", "> a",
# ">= a" or an interval such as "(a, b]"; for a list, each number's.


def _is_real(x, rng: str = "") -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)) \
            or not math.isfinite(x):
        return False
    if rng[:1] in ("(", "["):
        lo, hi = map(float, rng[1:-1].split(","))
        return (lo <= x if rng[0] == "[" else lo < x) \
            and (x <= hi if rng[-1] == "]" else x < hi)
    op, _, bound = rng.partition(" ")
    return not op or (x > float(bound) if op == ">" else x >= float(bound))


def _are_reals(x, rng: str = "", n: Optional[int] = None) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == (n or len(x)) \
        and all(_is_real(e, rng) for e in x)


def _is_matrix(x) -> bool:
    """A number or a 2x2 list of numbers."""
    return _is_real(x) or (isinstance(x, (list, tuple)) and len(x) == 2
                           and all(_are_reals(row, n=2) for row in x))


def _is_coefficient(x, rng: str) -> bool:
    if not isinstance(x, dict):
        return _is_matrix(x)
    return x.get("kind") == "affine" and "base" in x \
        and set(x) <= {"kind", "base", "gx", "gy"} \
        and all(_is_matrix(x[key]) for key in set(x) - {"kind"})


def _coefficient(x, path: str) -> MatrixField:
    """The field, named by its path."""
    if isinstance(x, dict):
        return MatrixField.affine(*(x.get(key, 0.0)
                                    for key in ("base", "gx", "gy")), path)
    return MatrixField.constant(np.asarray(x, dtype=float), path)


_CURVES = {"circle": (Circle, ("radius",)), "ellipse": (Ellipse, ("a", "b"))}


def _is_curve(x, rng: str) -> bool:
    if not isinstance(x, dict) or x.get("kind") not in _CURVES:
        return False
    sizes = _CURVES[x["kind"]][1]
    return set(x) == {"kind", "center", *sizes} \
        and _are_reals(x["center"], n=2) \
        and all(_is_real(x[key], "> 0") for key in sizes)


def _floats(x, path: str = "") -> tuple:
    return tuple(map(float, x))


def _curve(x, path: str):
    cls, sizes = _CURVES[x["kind"]]
    return cls(_floats(x["center"]), *(float(x[key]) for key in sizes))


_KINDS = {
    "number": ("a number", _is_real, lambda x, path: float(x)),
    "integer": ("an integer", lambda x, rng: _is_real(x, rng)
                and float(x).is_integer(), lambda x, path: int(x)),
    "bool": ("true or false", lambda x, rng: isinstance(x, bool), None),
    # a label names the report's files, which must stay inside --out
    "label": ("a non-empty name without a path separator",
              lambda x, rng: isinstance(x, str) and x != ""
              and "/" not in x and "\\" not in x, None),
    "numbers": ("a list of numbers", _are_reals, _floats),
    "2 numbers": ("a list of 2 numbers",
                  lambda x, rng: _are_reals(x, rng, 2), _floats),
    "3 numbers": ("a list of 3 numbers",
                  lambda x, rng: _are_reals(x, rng, 3), _floats),
    "curve": ('{"kind": "circle", "center": [x, y], "radius": r} or '
              '{"kind": "ellipse", "center": [x, y], "a": a, "b": b} with '
              'r, a, b > 0', _is_curve, _curve),
    "coefficient": ('a number, a 2x2 matrix, or {"kind": "affine", "base": '
                    'm, "gx": m, "gy": m} of those, gx and gy 0 when absent',
                    _is_coefficient, _coefficient),
    "modes": ("a list of Fourier modes [k, cos, sin] with an integer k",
              lambda x, rng: isinstance(x, (list, tuple)) and all(
                  _are_reals(m, n=3) and float(m[0]).is_integer()
                  for m in x), None),
    "checks": ("a list of checks from " + ", ".join(KNOWN_CHECKS),
               lambda x, rng: isinstance(x, list) and all(
                   isinstance(name, str) and name in KNOWN_CHECKS
                   for name in x), lambda x, path: list(x)),
    "section": ("an object", lambda x, rng: isinstance(x, dict), None),
}

_REQUIRED = object()


class _Field(NamedTuple):
    path: str
    kind: str
    rng: str
    # _REQUIRED, or the value when absent; None also lets null mean "none"
    default: object
    doc: str


# Every path a config may hold, each section before its fields; the README
# lists the same paths and defaults (tests/test_cli.py checks both ways).
_FIELDS = tuple(_Field(*row) for row in (
    ("schema_version", "integer", "[1, 1]", 1, "version of the config format"),
    ("label", "label", "", "experiment", "names a run's report and CSV files"),
    ("seed", "integer", ">= 0", 0, "draws the three-region family"),
    ("checks", "checks", "", [], "the checks to run"),
    ("export_fields", "bool", "", False, "also write mesh and field CSVs"),
    ("mesh", "section", "", _REQUIRED, "the mesh"),
    ("mesh.h", "number", "", _REQUIRED,
     "element size: > 0, a sixth of the outer curve's extent at most, and "
     "within the node budget"),
    ("mesh.min_angle_deg", "number", "[0, 60)", 5.0,
     "least element angle, in degrees"),
    ("scene", "section", "", _REQUIRED, "the body and its curves"),
    ("scene.outer", "curve", "", _REQUIRED, "boundary of the body"),
    ("scene.interface", "curve", "", None,
     "interface Σ, around the minus side"),
    ("scene.inclusion", "curve", "", None, "boundary of the inclusion D"),
    ("scene.rho0", "number", "> 0", 0.3, "chart radius of Σ"),
    ("scene.K0", "number", "> 0", 4.0, "C^{1,1} constant of Σ"),
    ("scene.d0", "number", "> 0", 0.1,
     "least distance from D to the boundary"),
    ("scene.d1", "number", "> 0", 0.02, "erosion depth of the fatness check"),
    ("background", "section", "", _REQUIRED,
     "the law M + iγN on each side of Σ"),
    ("background.m_plus", "coefficient", "", _REQUIRED, "M outside Σ"),
    ("background.m_minus", "coefficient", "", _REQUIRED, "M inside Σ"),
    ("background.n_plus", "coefficient", "", 1.0, "N outside Σ"),
    ("background.n_minus", "coefficient", "", 1.0, "N inside Σ"),
    ("background.gamma", "number", ">= 0", 0.0, "γ"),
    ("background.lambda0", "number", "(0, 1]", 0.5, "ellipticity of M"),
    ("background.m0", "number", ">= 0", 1.0, "Lipschitz constant of M"),
    ("law", "section", "", None, "the inclusion's law; null: none"),
    ("law.sigma1", "coefficient", "", _REQUIRED, "σ1"),
    ("law.zeta1", "coefficient", "", _REQUIRED, "the chirality ζ1"),
    ("law.epsilon1", "coefficient", "", None, "ε1; null: the background's γN"),
    ("law.lambda1", "number", "(0, 1]", 0.25, "ellipticity of the law"),
    ("law.varrho", "number", "> 0", 0.5, "margin ϱ of the jump condition"),
    ("law.delta_tol", "number", ">= 0", 0.0, "slack of the ε1 closeness"),
    ("boundary_data", "modes", "", [[1, 1.0, 0.0]],
     "current g, made zero-mean"),
    ("weights", "section", "", {}, "the interface weight"),
    ("weights.alpha_plus", "number", "> 0", 2.0, "α+, at least κ0 α-"),
    ("weights.alpha_minus", "number", "> 0", 1.0, "α-"),
    ("weights.beta", "number", "> 0", 0.1, "β"),
    ("weights.delta", "number", "> 0", 8.0, "scale δ, at most δ0"),
    ("weights.kappa0", "number", "> 1", 1.5, "κ0"),
    ("weights.delta0", "number", "> 0", 8.0, "δ0, an empirical bound"),
    ("weights.r0", "number", "> 0", 8.0, "r0, an empirical bound"),
    ("regions", "section", "", {}, "the three-region check"),
    ("regions.n_family", "integer", ">= 1", 8, "random solutions checked"),
    ("regions.R1", "number", "> 0", 0.4, "R1, within the weights' bound"),
    ("regions.R2", "number", "> 0", 0.1, "R2, within the weights' bound"),
    ("regions.theta", "number", "(0, 1]", 0.09, "scale θ of the regions"),
    ("regions.anchor_t", "number", "", 0.0, "where on Σ the chart sits"),
    ("bracket_tol", "number", ">= 0", 0.05, "relative slack of the bracket"),
    ("three_ball", "section", "",
     {"center": [0.3, 0.2], "radii": [0.02, 0.06, 0.3]}, "three-ball check"),
    ("three_ball.center", "2 numbers", "", _REQUIRED,
     "centre; B_r3 must lie inside"),
    ("three_ball.radii", "3 numbers", "> 0", _REQUIRED, "r1 < r2 < r3"),
    ("chain", "section", "", None, "the chain-of-balls check"),
    ("chain.x0", "2 numbers", "", _REQUIRED, "centre of the seed ball, in D"),
    ("chain.r", "number", "> 0", _REQUIRED, "radius of the seed ball"),
    ("chain.h", "number", "> 0", _REQUIRED,
     "scale; D must be h from the boundary"),
    ("lipschitz_a", "number", "> 0", 0.1, "ball radius of the check"),
    ("boundary_layer_a", "numbers", "> 0", [0.15, 0.2, 0.3, 0.4, 0.5],
     "layer depths, two or more distinct"),
    ("vitali_radius", "number", "> 0", 0.05, "radius of the Σ covering"),
    ("size_constants", "2 numbers", "", None,
     "calibrated [c1, c2], c1 <= c2; null: surrogate"),
))

_PATHS = {f.path for f in _FIELDS}


def _known_keys(path: str, section: dict):
    for key in section:
        sub = f"{path}.{key}" if path else key
        if sub not in _PATHS:
            _fail(sub, "not a config field")


def _checked(doc) -> dict:
    """The value at every path of `_FIELDS`, checked, defaults filled in.

    A section that is null, or absent with no default, holds no values.
    The first value at fault is refused, by path, as a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _known_keys("", doc)
    v = {}
    for f in _FIELDS:
        parent, _, key = f.path.rpartition(".")
        section = v[parent] if parent else doc
        if section is None:
            continue
        if key in section:
            value = section[key]
        elif f.default is _REQUIRED:
            _fail(f.path, "required")
        else:
            value = f.default
        if value is None and f.default is None:
            v[f.path] = None
            continue
        what, test, build = _KINDS[f.kind]
        if not test(value, f.rng):
            rng = f" in {f.rng}" if f.rng[:1] in ("(", "[") else \
                f" {f.rng}" if f.rng else ""
            _fail(f.path, f"must be {what}{rng}, got {value!r}")
        v[f.path] = value if build is None else build(value, f.path)
        if f.kind == "section":
            _known_keys(f.path, value)
    return v


def run(cfg: ExperimentConfig, out_dir=None, timings: bool = False):
    """Execute the configured pipeline; returns (report, exit_code)."""
    st = _Run(cfg)
    report = {"schema_version": 1, "tool_version": __version__,
              "config": cfg.raw, "checks": {}}
    stage_times = {}
    for stage in _stages():
        if stage.fn is None or not (stage.always
                                    or stage.name in cfg.values["checks"]):
            continue
        t0 = time.perf_counter()
        fragment = stage.fn(st)
        stage_times[stage.name] = time.perf_counter() - t0
        if stage.key == "checks":
            report["checks"][stage.name] = fragment
        elif stage.key:
            report[stage.key] = fragment
        else:
            report.update(fragment)

    report["violations"] = st.violations
    if timings:
        report["timings"] = stage_times
    code = EXIT_VIOLATION if st.violations else EXIT_OK

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{cfg.label}.json").write_text(report_json(report) + "\n")
        if cfg.values["export_fields"]:
            export_solution_csv(st.sol0, out / f"{cfg.label}_u0")
            if st.sol1 is not None:
                export_solution_csv(st.sol1, out / f"{cfg.label}_u1")
        tr = report["checks"].get("three_region")
        if tr:
            with open(out / f"{cfg.label}_three_region.csv", "w",
                      newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["scenario", "R1", "R2", "theta", "index",
                            "I1", "I2", "I3", "margin", "c_fit"])
                for row in tr["rows"]:
                    w.writerow([cfg.label, tr["R1"], tr["R2"], tr["theta"],
                                row["index"], row["I1"], row["I2"],
                                row["I3"], row["margin"], row["constant"]])
    return report, code


def report_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Sweeps


def _set_by_path(doc: dict, path: str, value):
    """Set `path` in a parsed document: a path of `_FIELDS`, whose section
    is made {} where the document omits it or gives null, or a key the
    document holds inside a value, such as scene.inclusion.radius."""
    listed = path in _PATHS
    *parents, key = path.split(".")
    node = doc
    for k in parents:
        if listed and node.get(k) is None:
            node[k] = {}
        node = node.get(k) if isinstance(node, dict) else None
    if not listed and not (isinstance(node, dict) and key in node):
        _fail(path, "not a valid config path")
    node[key] = value


def _sweep_one(doc: dict, param: str, value: float, out_dir):
    d = json.loads(json.dumps(doc))
    _set_by_path(d, param, value)
    d["label"] = f"{d['label']}_{param.replace('.', '_')}_{value:g}"
    # a value the config parser refuses gets its own row, as a failed run
    try:
        rep, code = run(parse_config(d), out_dir=out_dir)
        return {"value": value, "label": d["label"], "exit_code": code,
                "report": rep}
    except PowerGapError as exc:
        return {"value": value, "label": d["label"],
                "exit_code": EXIT_STRUCTURAL, "error": str(exc)}


def sweep(cfg: ExperimentConfig, param: str, values, out_dir=None,
          threads: int = 1) -> dict:
    """Independent runs over a numeric config path, plus an aggregate table."""
    one = functools.partial(_sweep_one, {**cfg.raw, "label": cfg.label},
                            param, out_dir=out_dir)
    if threads <= 1:
        results = list(map(one, values))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, values))
    agg = {"parameter": param, "values": list(values), "rows": []}
    for r in results:
        row = {"value": r["value"], "label": r["label"],
               "exit_code": r["exit_code"]}
        rep = r.get("report")
        if rep:
            power = rep.get("power", {})
            row.update({k: power.get(k) for k in
                        ("w0_re", "delta_w_re", "grad_energy_D")})
            checks = rep.get("checks", {})
            if "three_region" in checks:
                row["three_region_max_constant"] = \
                    checks["three_region"]["max_constant"]
            if "boundary_layer" in checks:
                row["layer_exponent"] = checks["boundary_layer"]["exponent"]
            row["violations"] = len(rep.get("violations", []))
        else:
            row["error"] = r.get("error", "")
        agg["rows"].append(row)
    # an order needs positive sizes and a constant refinement ratio
    if param == "mesh.h" and len(values) >= 3 and min(values[:3]) > 0 \
            and math.isclose(values[0] / values[1], values[1] / values[2],
                             rel_tol=1e-9):
        w0s = [row.get("w0_re") for row in agg["rows"]]
        if all(w is not None for w in w0s):
            d1 = abs(w0s[0] - w0s[1])
            d2 = abs(w0s[1] - w0s[2])
            if d1 > 0 and d2 > 0:
                agg["convergence_order_w0"] = \
                    math.log2(d1 / d2) / math.log2(values[0] / values[1])
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            keys = sorted({k for row in agg["rows"] for k in row})
            w.writerow(keys)
            for row in agg["rows"]:
                w.writerow([row.get(k, "") for k in keys])
    return agg


# ---------------------------------------------------------------------------
# Plot-data emission


_PLOT_KINDS = {
    "bracket": ("scenario", "grad_energy_D", "delta_w_re", "kappa_lo",
                "kappa_hi"),
    "three_region": ("scenario", "R1", "R2", "theta", "margin", "c_fit"),
    "size": ("scenario", "true_area", "lower", "upper"),
}


def emit_plot_data(reports, kind: str, path) -> list:
    """Tidy CSV (one row per scenario/check) for external plotting."""
    if kind not in _PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; "
                          f"choose from {sorted(_PLOT_KINDS)}")
    rows = []
    for rep in reports:
        label = rep.get("config", {}).get("label", "run")
        if kind == "bracket":
            p = rep.get("power")
            if p is None or "kappa_lo" not in p:
                raise ConfigError(
                    f"report '{label}' lacks power.kappa_lo/kappa_hi "
                    "fields for kind 'bracket'")
            rows.append([label, p["grad_energy_D"], p["delta_w_re"],
                         p["kappa_lo"], p["kappa_hi"]])
        elif kind == "three_region":
            tr = rep.get("checks", {}).get("three_region")
            if tr is None:
                raise ConfigError(
                    f"report '{label}' lacks checks.three_region")
            for row in tr["rows"]:
                rows.append([f"{label}#{row['index']}", tr["R1"], tr["R2"],
                             tr["theta"], row["margin"], row["constant"]])
        elif kind == "size":
            s = rep.get("size")
            if s is None or "true_area" not in s:
                why = "" if s is None or "refused" not in s else \
                    f"; its size stage refused: {s['refused']}"
                raise ConfigError(f"report '{label}' lacks size.true_area/"
                                  f"lower/upper for kind 'size'{why}")
            rows.append([label, s["true_area"], s["lower"], s["upper"]])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_PLOT_KINDS[kind])
        w.writerows(rows)
    return rows


# ---------------------------------------------------------------------------
# Entry point


def _cmd_validate(args) -> int:
    st = _Run(load_config(args.config))
    _mesh_stage(st)
    _admissibility_stage(st)
    print(f"config '{st.cfg.label}' valid; scene and hypotheses check out "
          f"at h={st.cfg.values['mesh.h']}")
    return EXIT_OK


def _cmd_run(args) -> int:
    overrides = {} if args.seed is None else {"seed": args.seed}
    if args.check:
        overrides["checks"] = args.check.split(",")
    cfg = load_config(args.config, **overrides)
    report, code = run(cfg, out_dir=args.out, timings=args.timings)
    if args.out is None:
        print(report_json(report))
    else:
        print(f"report written to {Path(args.out) / (cfg.label + '.json')}")
    for v in report["violations"]:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return code


def _cmd_sweep(args) -> int:
    overrides = {} if args.seed is None else {"seed": args.seed}
    cfg = load_config(args.config, **overrides)
    values = [float(v) for v in args.values.split(",")]
    agg = sweep(cfg, args.param, values, out_dir=args.out,
                threads=args.threads)
    print(json.dumps(agg, indent=1, sort_keys=True, default=str))
    codes = {r["exit_code"] for r in agg["rows"]}
    return next((c for c in (EXIT_STRUCTURAL, EXIT_VIOLATION) if c in codes),
                EXIT_OK)


def _cmd_report(args) -> int:
    reports = [json.loads(Path(p).read_text()) for p in args.reports]
    out = args.out or f"{args.kind}.csv"
    rows = emit_plot_data(reports, args.kind, out)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="powergap",
        description="Forward solves, power gaps, and inclusion-size bounds "
                    "for complex conductivity with a chiral inclusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="run the configured pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--check", default=None,
                   help="comma-separated checks overriding the config")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical "
                        "reports)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="run over a range of one parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True,
                   help="dotted config path, e.g. mesh.h")
    p.add_argument("--values", required=True,
                   help="comma-separated numeric values")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("report", help="project saved reports to plot CSVs")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("--kind", required=True,
                   choices=sorted(_PLOT_KINDS))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InequalityViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except PowerGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
