"""Configuration ingestion, experiment orchestration, and report emission.

One JSON document describes a scene, its coefficient laws, the injected
boundary current, the weight geometry, and the list of checks to run.
`parse_config` reads every value of it once: it builds what a run takes
and runs the reader of each listed check, so `validate` and `run` refuse
the same documents, before anything is meshed. `run` walks one table of
stages (`_stages`), mesh -> solve -> energy -> checks -> estimate. The
solve stage makes every LU solve of the run, the three-region family
included, and then frees the factorization. `run` writes a deterministic
JSON report (timings only on request, so repeated runs are byte-identical)
plus tidy CSV artifacts for plotting.

Exit codes: 0 success, 2 structural/config error, 3 when an inequality
predicted by the theory fails empirically, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
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
from .mesh import build_mesh
from .solver import (
    BackgroundOperator,
    export_solution_csv,
    fourier_data,
    solve_perturbed,
)

EXIT_OK = 0
EXIT_STRUCTURAL = 2
EXIT_VIOLATION = 3


# ---------------------------------------------------------------------------
# Config parsing


def _fail(path: str, msg: str):
    raise ConfigError(f"config field '{path}': {msg}")


def _field_from_spec(spec, path: str) -> MatrixField:
    if spec is None:
        _fail(path, "missing coefficient")
    if isinstance(spec, (int, float)):
        return MatrixField.isotropic(float(spec), path)
    if isinstance(spec, list):
        try:
            return MatrixField.constant(np.asarray(spec, dtype=float), path)
        except (ValueError, TypeError):
            _fail(path, "matrix must be 2x2 numeric")
    if isinstance(spec, dict) and spec.get("kind") == "affine":
        return MatrixField.affine(spec["base"], spec.get("gx", 0.0),
                                  spec.get("gy", 0.0), path)
    _fail(path, f"unrecognized coefficient spec {spec!r}")


def _curve_from_spec(spec, path: str):
    if spec is None:
        return None
    kind = spec.get("kind")
    try:
        if kind == "circle":
            return Circle(tuple(spec["center"]), float(spec["radius"]))
        if kind == "ellipse":
            return Ellipse(tuple(spec["center"]), float(spec["a"]),
                           float(spec["b"]))
    except (KeyError, TypeError, ValueError) as exc:
        _fail(path, str(exc))
    _fail(path, f"unknown curve kind {kind!r}")


@contextmanager
def _naming(what: str):
    """A bad value met inside the block, as a ConfigError naming `what`."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what}: missing key {exc}") from exc
    except (IndexError, TypeError, ValueError, StructuralError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _numbers(value, what: str, n: Optional[int] = None) -> tuple:
    """A list of n numbers (any count for None) as floats; else ValueError."""
    if isinstance(value, (list, tuple)) and len(value) == (n or len(value)):
        try:
            return tuple(map(float, value))
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what}, got {value!r}")


class ExperimentConfig(SimpleNamespace):
    """Everything a run takes, read once from a document by `parse_config`.

    It holds `label`, `seed`, `checks`, `mesh_h`, `min_angle_deg` and
    `export_fields`; the `scene`, `background`, `law` (None without one),
    boundary data `g` and `weights`; and in `inputs` what the reader of
    each selected check returned (see `_stages`). `raw` is the document as
    given, for the report's `config` echo and `sweep`'s copies. Nothing
    here holds per-run state, so one config can drive any number of runs.
    """


# What a stage can need: how an error names it, and whether a config has it.
_NEEDS = {
    "interface": ("scene.interface", lambda r: r["scene"].get("interface")),
    "inclusion": ("scene.inclusion", lambda r: r["scene"].get("inclusion")),
    "law": ("a 'law' section", lambda r: r.get("law")),
    "chain": ("a 'chain' section (x0, r, h)",
              lambda r: {"x0", "r", "h"} <= set(r.get("chain") or ())),
    "energy": ("check 'energy'", lambda r: "energy" in r.get("checks", [])),
    "bracket": ("check 'bracket'", lambda r: "bracket" in r.get("checks", [])),
}


def parse_config(doc: dict) -> ExperimentConfig:
    """Read and check every value of `doc`, once; stages read what it builds.

    A bad value raises ConfigError naming its section or check, so `run`
    and `validate` refuse the same documents, before anything is meshed.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for req in ("scene", "background", "mesh"):
        if req not in doc:
            _fail(req, "required section missing")
    if "h" not in doc["mesh"]:
        _fail("mesh.h", "required")
    checks = list(doc.get("checks", []))
    issues = [f"config field 'checks': unknown check {name!r}; known: "
              f"{KNOWN_CHECKS}" for name in checks
              if name not in KNOWN_CHECKS]
    issues += [f"check '{stage.name}' needs {_NEEDS[need][0]}"
               for stage in _stages() if stage.name in checks
               for need in stage.needs if not _NEEDS[need][1](doc)]
    if issues:
        raise ConfigError("; ".join(issues))
    cfg = ExperimentConfig(raw=doc, label=doc.get("label", "experiment"),
                           checks=checks, inputs={},
                           export_fields=bool(doc.get("export_fields")))
    with _naming("config section 'scene'"):
        s = doc["scene"]
        cfg.scene = Scene(
            outer=_curve_from_spec(s["outer"], "scene.outer"),
            interface=_curve_from_spec(s.get("interface"), "scene.interface"),
            inclusion=_curve_from_spec(s.get("inclusion"), "scene.inclusion"),
            rho0=float(s.get("rho0", 0.3)), K0=float(s.get("K0", 4.0)),
            d0=float(s.get("d0", 0.1)), d1=float(s.get("d1", 0.02)))
    with _naming("config section 'background'"):
        b = doc["background"]
        cfg.background = BackgroundTensor(
            m_plus=_field_from_spec(b["m_plus"], "background.m_plus"),
            m_minus=_field_from_spec(b["m_minus"], "background.m_minus"),
            n_plus=_field_from_spec(b.get("n_plus", 1.0), "background.n_plus"),
            n_minus=_field_from_spec(b.get("n_minus", 1.0),
                                     "background.n_minus"),
            gamma=float(b.get("gamma", 0.0)),
            lambda0=float(b.get("lambda0", 0.5)), m0=float(b.get("m0", 1.0)))
    with _naming("config section 'law'"):
        l = doc.get("law")
        cfg.law = None if l is None else InclusionLaw(
            sigma1=_field_from_spec(l["sigma1"], "law.sigma1"),
            zeta1=_field_from_spec(l["zeta1"], "law.zeta1"),
            epsilon1=None if l.get("epsilon1") is None else _field_from_spec(
                l["epsilon1"], "law.epsilon1"),
            lambda1=float(l.get("lambda1", 0.25)),
            varrho=float(l.get("varrho", 0.5)),
            delta_tol=float(l.get("delta_tol", 0.0)))
    with _naming("config section 'weights'"):
        cfg.weights = WeightParams(**doc.get("weights", {}))
    with _naming("config section 'boundary_data'"):
        cfg.g = fourier_data([(m[0], m[1], m[2]) for m in
                              doc.get("boundary_data", [[1, 1.0, 0.0]])])
    with _naming("config section 'mesh'"):
        cfg.mesh_h = float(doc["mesh"]["h"])
        cfg.min_angle_deg = float(doc["mesh"].get("min_angle_deg", 5.0))
    with _naming("config field 'seed'"):
        cfg.seed = int(doc.get("seed", 0))
    for stage in _stages():
        if stage.read is not None and stage.name in checks:
            with _naming(f"check '{stage.name}'"):
                cfg.inputs[stage.name] = stage.read(cfg)
    return cfg


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
    validation = st.scene.validate()
    st.mesh = build_mesh(st.scene, st.cfg.mesh_h, st.cfg.min_angle_deg)
    return {"scene_validation": validation,
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
           "g_defect": st.g.compatibility_defect(mesh)}
    if st.law is not None and st.scene.inclusion is not None:
        st.sol1 = solve_perturbed(st.op, st.law, st.g)
        out["residual_u1"] = st.sol1.residual
        d_pts = mesh.centroids[mesh.in_d]
        if len(d_pts):
            st.case = check_jump_condition(
                background.sigma(d_pts, mesh.comp[mesh.in_d]),
                st.law.sigma1(d_pts), st.law.zeta1(d_pts), st.law.varrho)
    if "three_region" in st.cfg.inputs:
        # no other stage draws from the seed; the family is solved with one
        # multi-column LU solve
        rng = np.random.default_rng(st.cfg.seed)
        mode_sets = [[(k, float(rng.normal()), float(rng.normal()))
                      for k in range(1, 6)]
                     for _ in range(st.cfg.inputs["three_region"][0])]
        st.family = st.op.solve([fourier_data(m) for m in mode_sets])
    st.op.release()
    return out


def _energy_stage(st: _Run) -> dict:
    want_bracket = "bracket" in st.cfg.checks and st.case is not JumpCase.NONE
    st.power = energy.power_report(
        st.sol0, st.sol1, st.case if want_bracket else JumpCase.NONE,
        tol=st.cfg.inputs["energy"])
    bracket = st.power.bracket
    if want_bracket and not bracket.degenerate \
            and not (bracket.sign_ok and bracket.bracket_ok):
        st.violations.append(
            f"energy bracket failed (sign_ok={bracket.sign_ok}, "
            f"bracket_ok={bracket.bracket_ok})")
    return {**st.power.as_dict(), "case": st.case.value}


def _read_energy(cfg: ExperimentConfig) -> float:
    return _number(cfg.raw.get("bracket_tol", 0.05), "bracket_tol")


def _read_three_region(cfg: ExperimentConfig) -> tuple:
    rcfg = cfg.raw.get("regions", {})
    n, R1, R2, theta, anchor_t = (
        _number(rcfg.get(key, default), f"regions.{key}") for key, default in
        (("n_family", 8), ("R1", 0.4), ("R2", 0.1), ("theta", 0.09),
         ("anchor_t", 0.0)))
    if int(n) < 1:
        raise ValueError(f"regions.n_family must be at least 1, got {n:g}")
    return (int(n), build_regions(cfg.weights, R1, R2, theta),
            flattening_map(cfg.scene.interface, anchor_t, cfg.scene.rho0,
                           cfg.scene.K0))


def _three_region_stage(st: _Run) -> dict:
    _, regions, fmap = st.cfg.inputs["three_region"]
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


def _read_three_ball(cfg: ExperimentConfig) -> tuple:
    tb = cfg.raw.get("three_ball", {"center": [0.3, 0.2],
                                    "radii": [0.02, 0.06, 0.3]})
    need = "three_ball needs a center and radii [r1, r2, r3] of numbers"
    if not isinstance(tb, dict):
        raise ValueError(f"{need}, got {tb!r}")
    center = _numbers(tb.get("center"), need, 2)
    radii = _numbers(tb.get("radii"), need, 3)
    smallness.three_ball_precondition(cfg.scene, cfg.background.lambda0,
                                      center, *radii)
    return center, radii


def _three_ball_stage(st: _Run) -> dict:
    center, radii = st.cfg.inputs["three_ball"]
    chk = smallness.check_three_ball(st.sol0, center, *radii)
    return {"constant": chk.constant, "margin": chk.margin,
            "tau": chk.params["tau"],
            "crosses_interface": chk.params["crosses_interface"]}


def _read_chain(cfg: ExperimentConfig) -> tuple:
    ch = cfg.raw["chain"]
    x0 = _numbers(ch["x0"], "chain.x0 must be [x, y]", 2)
    r, h = _number(ch["r"], "chain.r"), _number(ch["h"], "chain.h")
    smallness.chain_precondition(cfg.scene, cfg.scene.inclusion_region(),
                                 x0, r, h)
    return x0, r, h


def _chain_stage(st: _Run) -> dict:
    x0, r, h = st.cfg.inputs["chain"]
    cert = smallness.propagate_chain(st.sol0, st.scene.inclusion, x0, r, h)
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


def _read_lipschitz(cfg: ExperimentConfig) -> float:
    a = _number(cfg.raw.get("lipschitz_a", 0.1), "lipschitz_a")
    smallness.lipschitz_centers(cfg.scene, a)
    return a


def _lipschitz_stage(st: _Run) -> dict:
    a = st.cfg.inputs["lipschitz"]
    ls = smallness.lipschitz_smallness(st.sol0, a)
    return {"a": a, "c_a": ls["c_a"], "argmin": list(ls["argmin"])}


def _read_boundary_layer(cfg: ExperimentConfig) -> tuple:
    # a line fitted through the energies of layers of depth a / 4 > 0
    avals = cfg.raw.get("boundary_layer_a", [0.15, 0.2, 0.3, 0.4, 0.5])
    need = "boundary_layer_a must be two or more distinct positive depths"
    depths = _numbers(avals, need)
    if len(set(depths)) < 2 or not min(depths) > 0:
        raise ValueError(f"{need}, got {avals!r}")
    return depths


def _boundary_layer_stage(st: _Run) -> dict:
    bl = smallness.boundary_layer(st.sol0, st.cfg.inputs["boundary_layer"])
    return {"a": list(map(float, bl["a"])),
            "layer_energy": list(map(float, bl["layer_energy"])),
            "exponent": bl["exponent"]}


def _read_vitali(cfg: ExperimentConfig) -> float:
    radius = _number(cfg.raw.get("vitali_radius", 0.05), "vitali_radius")
    if not radius > 0:
        raise ValueError(f"vitali_radius must be positive, got {radius:g}")
    return radius


def _vitali_stage(st: _Run) -> dict:
    radius = st.cfg.inputs["vitali"]
    centers = vitali_cover(st.scene.interface, radius)
    return {"radius": radius, "n_centers": int(len(centers)),
            "cover_constant":
                len(centers) * radius / st.scene.interface.perimeter}


def _read_size(cfg: ExperimentConfig) -> Optional[tuple]:
    constants = cfg.raw.get("size_constants")
    if constants is None:
        return None
    need = "size_constants must be [c1, c2] with c1 <= c2"
    c1, c2 = _numbers(constants, need, 2)
    if not c1 <= c2:
        raise ValueError(f"{need}, got {constants!r}")
    return c1, c2


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
    constants = st.cfg.inputs["size"]
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

    A stage runs always, or when named in `checks`, and then needs what
    `needs` names in `_NEEDS`. `read(cfg)`, when given, reads and checks
    the stage's config values, raising on a bad one; `parse_config` calls
    it once, before anything is timed, and keeps what it returns in
    `cfg.inputs[name]`. `fn(run)` returns its report
    fragment, put at checks.<name> for key "checks" and merged into the
    report for key "". `bracket` has no stage; the energy stage reads it.
    Built per call, so a stage function wrapped at run time (as
    perfbench/tracer.py does) is the one that runs.
    """
    return (
        _Stage("mesh", True, _mesh_stage, key=""),
        _Stage("admissibility", False, _admissibility_stage,
               key="admissibility"),
        _Stage("solve", True, _solve_stage, key="solve"),
        _Stage("energy", False, _energy_stage, ("inclusion", "law"), "power",
               _read_energy),
        _Stage("bracket", False, None, ("energy",)),
        _Stage("three_region", False, _three_region_stage, ("interface",),
               read=_read_three_region),
        _Stage("three_ball", False, _three_ball_stage, read=_read_three_ball),
        _Stage("chain", False, _chain_stage, ("inclusion", "chain"),
               read=_read_chain),
        _Stage("scaling", False, _scaling_stage),
        _Stage("lipschitz", False, _lipschitz_stage, read=_read_lipschitz),
        _Stage("boundary_layer", False, _boundary_layer_stage,
               read=_read_boundary_layer),
        _Stage("vitali", False, _vitali_stage, ("interface",),
               read=_read_vitali),
        _Stage("size", False, _size_stage, ("energy", "bracket"), "size",
               _read_size),
    )


KNOWN_CHECKS = tuple(stage.name for stage in _stages() if not stage.always)


def run(cfg: ExperimentConfig, out_dir=None, timings: bool = False):
    """Execute the configured pipeline; returns (report, exit_code)."""
    st = _Run(cfg)
    report = {"schema_version": 1, "tool_version": __version__,
              "config": cfg.raw, "checks": {}}
    stage_times = {}
    for stage in _stages():
        if stage.fn is None or not (stage.always or stage.name in cfg.checks):
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
        if cfg.export_fields:
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


def _to_native(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def report_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True, default=_to_native)


# ---------------------------------------------------------------------------
# Sweeps


def _set_by_path(doc: dict, path: str, value):
    *parents, key = path.split(".")
    node = doc
    for k in parents:
        node = node.get(k) if isinstance(node, dict) else None
    if not isinstance(node, dict) or key not in node:
        _fail(path, "not a valid config path")
    node[key] = value


def _sweep_one(doc: dict, param: str, value: float, out_dir):
    d = json.loads(json.dumps(doc))
    _set_by_path(d, param, value)
    d["label"] = f"{d.get('label', 'run')}_{param.replace('.', '_')}_{value:g}"
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
    one = functools.partial(_sweep_one, cfg.raw, param, out_dir=out_dir)
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
            if s is None:
                raise ConfigError(f"report '{label}' lacks size section")
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
    st.scene.validate()
    h = max(st.cfg.mesh_h, 0.05)
    st.mesh = build_mesh(st.scene, h, st.cfg.min_angle_deg)
    _admissibility_stage(st)
    print(f"config '{st.cfg.label}' valid; "
          f"scene and hypotheses check out at h={h}")
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
