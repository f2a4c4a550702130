"""Configuration ingestion, experiment orchestration, and report emission.

One JSON document describes a scene, its coefficient laws, the injected
boundary current, the weight geometry, and the list of checks to run. The
run pipeline executes mesh -> solve -> energy -> checks -> estimate and
writes a deterministic JSON report (timings only on request, so repeated
runs are byte-identical) plus tidy CSV artifacts for plotting.

Exit codes: 0 success, 2 structural/config error, 3 when an inequality
predicted by the theory fails empirically, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
    Scene,
    WeightParams,
    build_regions,
    flattening_map,
    vitali_cover,
)
from .mesh import build_mesh
from .solver import (
    BackgroundOperator,
    fourier_data,
    solve_perturbed,
)

EXIT_OK = 0
EXIT_STRUCTURAL = 2
EXIT_VIOLATION = 3

KNOWN_CHECKS = ("admissibility", "energy", "bracket", "three_region",
                "three_ball", "chain", "scaling", "lipschitz",
                "boundary_layer", "vitali", "size")


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
        try:
            return MatrixField.affine(spec["base"], spec.get("gx", 0.0),
                                      spec.get("gy", 0.0), path)
        except KeyError as exc:
            _fail(path, f"affine field needs {exc}")
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


@dataclass
class ExperimentConfig:
    """Validated experiment description; `raw` is the canonical document."""

    raw: dict

    @property
    def label(self) -> str:
        return self.raw.get("label", "experiment")

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    @property
    def checks(self) -> list:
        return list(self.raw.get("checks", []))

    @property
    def mesh_h(self) -> float:
        return float(self.raw["mesh"]["h"])

    def build_scene(self) -> Scene:
        s = self.raw["scene"]
        return Scene(
            outer=_curve_from_spec(s["outer"], "scene.outer"),
            interface=_curve_from_spec(s.get("interface"), "scene.interface"),
            inclusion=_curve_from_spec(s.get("inclusion"), "scene.inclusion"),
            rho0=float(s.get("rho0", 0.3)), K0=float(s.get("K0", 4.0)),
            d0=float(s.get("d0", 0.1)), d1=float(s.get("d1", 0.02)))

    def build_background(self) -> BackgroundTensor:
        b = self.raw["background"]
        return BackgroundTensor(
            m_plus=_field_from_spec(b["m_plus"], "background.m_plus"),
            m_minus=_field_from_spec(b["m_minus"], "background.m_minus"),
            n_plus=_field_from_spec(b.get("n_plus", 1.0), "background.n_plus"),
            n_minus=_field_from_spec(b.get("n_minus", 1.0),
                                     "background.n_minus"),
            gamma=float(b.get("gamma", 0.0)),
            lambda0=float(b.get("lambda0", 0.5)),
            m0=float(b.get("m0", 1.0)))

    def build_law(self) -> Optional[InclusionLaw]:
        l = self.raw.get("law")
        if l is None:
            return None
        eps1 = l.get("epsilon1")
        return InclusionLaw(
            sigma1=_field_from_spec(l["sigma1"], "law.sigma1"),
            zeta1=_field_from_spec(l["zeta1"], "law.zeta1"),
            epsilon1=None if eps1 is None else _field_from_spec(
                eps1, "law.epsilon1"),
            lambda1=float(l.get("lambda1", 0.25)),
            varrho=float(l.get("varrho", 0.5)),
            delta_tol=float(l.get("delta_tol", 0.0)))

    def build_boundary_data(self):
        modes = self.raw.get("boundary_data", [[1, 1.0, 0.0]])
        return fourier_data([(m[0], m[1], m[2]) for m in modes])

    def build_weights(self) -> WeightParams:
        return WeightParams(**self.raw.get("weights", {}))


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for req in ("scene", "background", "mesh"):
        if req not in doc:
            _fail(req, "required section missing")
    if "h" not in doc["mesh"]:
        _fail("mesh.h", "required")
    cfg = ExperimentConfig(raw=doc)
    for name in cfg.checks:
        if name not in KNOWN_CHECKS:
            _fail("checks", f"unknown check {name!r}; known: {KNOWN_CHECKS}")
    issues = validate_check_preconditions(cfg)
    if issues:
        raise ConfigError("; ".join(issues))
    # constructing the objects validates numeric ranges
    cfg.build_scene()
    cfg.build_background()
    cfg.build_law()
    cfg.build_weights()
    return cfg


def validate_check_preconditions(cfg: ExperimentConfig) -> list:
    """Named-precondition validation before anything is solved."""
    issues = []
    scene = cfg.raw.get("scene", {})
    has_interface = scene.get("interface") is not None
    has_inclusion = scene.get("inclusion") is not None
    has_law = cfg.raw.get("law") is not None
    for name in cfg.checks:
        if name in ("three_region", "vitali") and not has_interface:
            issues.append(f"check '{name}' needs scene.interface")
        if name in ("bracket", "size", "energy") and not (has_law and
                                                          has_inclusion):
            issues.append(f"check '{name}' needs an inclusion and a law")
        if name == "chain" and not has_inclusion:
            issues.append("check 'chain' needs scene.inclusion")
        if name == "chain" and "chain" not in cfg.raw:
            issues.append("check 'chain' needs a 'chain' section (x0, r, h)")
    return issues


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, col {exc.colno}: "
                          f"{exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# Run pipeline


def _admissibility_stage(cfg, scene, mesh, background, law) -> dict:
    pts = np.vstack([mesh.centroids, mesh.points])
    comp = np.concatenate([mesh.comp, scene.component(mesh.points)])
    plus, minus = pts[comp > 0], pts[comp < 0]
    d_mask = scene.in_inclusion(pts)
    report = validate_admissibility(background, law, plus, minus,
                                    pts[d_mask], comp[d_mask], strict=False)
    # the jump classification "none" is a valid outcome (it only disables
    # the energy bracket), so it does not fail admissibility
    failed = [k for k, v in report.items()
              if isinstance(v, dict) and not v.get("passed", True)
              and k != "(a0):jump"]
    if failed:
        raise StructuralError(
            "admissibility failed: " + ", ".join(sorted(failed)))
    return report


def _three_region_stage(cfg, scene, op, rng, violations,
                        threads: int = 1) -> dict:
    wp = cfg.build_weights()
    rcfg = cfg.raw.get("regions", {})
    regions = build_regions(wp, float(rcfg.get("R1", 0.4)),
                            float(rcfg.get("R2", 0.1)),
                            float(rcfg.get("theta", 0.09)))
    fmap = flattening_map(scene.interface, float(rcfg.get("anchor_t", 0.0)),
                          scene.rho0, scene.K0)
    n_family = int(rcfg.get("n_family", 8))
    # draw every mode set up front so the family is seed-deterministic
    # regardless of worker scheduling
    mode_sets = [[(k, float(rng.normal()), float(rng.normal()))
                  for k in range(1, 6)] for _ in range(n_family)]

    def one(modes):
        sol = op.solve(fourier_data(modes))
        return smallness.check_three_region(sol, regions, fmap)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            checks = list(pool.map(one, mode_sets))
    else:
        checks = [one(m) for m in mode_sets]
    rows = []
    for i, chk in enumerate(checks):
        rows.append({"index": i, "I1": chk.small_factor, "I2": chk.lhs,
                     "I3": chk.large_factor, "constant": chk.constant,
                     "margin": chk.margin,
                     "violation": chk.violation_candidate})
        if chk.violation_candidate:
            violations.append(f"three_region family member {i}: "
                              "I1 = 0 with I2 > 0")
    consts = [r["constant"] for r in rows if math.isfinite(r["constant"])]
    med = float(np.median(consts)) if consts else math.nan
    out = {"R1": regions.R1, "R2": regions.R2, "theta": regions.theta,
           "exponents": regions.exponents(), "rows": rows,
           "max_constant": max(consts) if consts else math.nan,
           "median_constant": med,
           "uniformity": (max(consts) / med) if consts and med > 0
           else math.nan}
    return out


def _chain_stage(cfg, scene, sol0, violations) -> dict:
    ch = cfg.raw["chain"]
    cert = smallness.propagate_chain(sol0, scene.inclusion,
                                     np.asarray(ch["x0"], dtype=float),
                                     float(ch["r"]), float(ch["h"]))
    inv_ok = all(all(c.invariants_ok().values()) for c in cert.chains)
    holds = cert.holds()
    if not (inv_ok and holds):
        violations.append("chain certificate failed "
                          f"(invariants={inv_ok}, bound={holds})")
    return {"n_chains": len(cert.chains), "n_max": cert.n_max,
            "n_bound": cert.n_bound, "tau": cert.tau, "m0": cert.m0,
            "delta": cert.delta, "direct_d_norm_sq": cert.direct_d_norm_sq,
            "bound_d_norm_sq": cert.bound_d_norm_sq,
            "invariants_ok": inv_ok, "holds": holds,
            "r_over_2h_ok": cert.r_over_2h_ok}


def _size_stage(cfg, scene, power, bracket, sol0, violations) -> dict:
    fat = estimator.check_fatness(scene)
    constants = cfg.raw.get("size_constants")
    if constants is not None:
        c1, c2 = float(constants[0]), float(constants[1])
        source = "calibrated"
    else:
        interior = estimator.interior_gradient_sup(sol0)
        ell = min(scene.d0, scene.d1) / 2.0
        ls = smallness.lipschitz_smallness(sol0, ell / 2.0, max_centers=60)
        c1, c2 = estimator.surrogate_size_constants(
            bracket.kappa_lo, bracket.kappa_hi, interior["ratio"],
            ls["c_a"], cfg.build_background().lambda0, ell)
        source = "analytic-surrogate"
    est = estimator.estimate_size(power, (c1, c2), fatness_ok=fat["passed"],
                                  true_area=scene.inclusion.area,
                                  constants_source=source)
    out = est.as_dict()
    out["fatness"] = fat
    out["g_norm_ratio"] = estimator.boundary_data_norm_ratio(sol0.mesh,
                                                             sol0.g)
    if est.brackets_truth() is False and source == "calibrated":
        violations.append(
            f"size bounds [{est.lower:.4g}, {est.upper:.4g}] miss the true "
            f"area {est.true_area:.4g}")
    return out


def run(cfg: ExperimentConfig, out_dir=None, timings: bool = False,
        threads: int = 1):
    """Execute the configured pipeline; returns (report, exit_code)."""
    rng = np.random.default_rng(cfg.seed)
    stage_times = {}
    report = {"schema_version": 1, "tool_version": __version__,
              "config": cfg.raw, "checks": {}}
    violations = []

    t0 = time.perf_counter()
    scene = cfg.build_scene()
    report["scene_validation"] = scene.validate()
    background = cfg.build_background()
    law = cfg.build_law()
    g = cfg.build_boundary_data()

    mesh = build_mesh(scene, cfg.mesh_h,
                      float(cfg.raw["mesh"].get("min_angle_deg", 5.0)))
    report["mesh"] = {"n_points": mesh.num_points,
                      "n_triangles": mesh.num_triangles,
                      **mesh.diagnostics}
    stage_times["mesh"] = time.perf_counter() - t0

    if "admissibility" in cfg.checks:
        t0 = time.perf_counter()
        report["admissibility"] = _admissibility_stage(
            cfg, scene, mesh, background, law)
        stage_times["admissibility"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    op = BackgroundOperator(mesh, background)
    sol0 = op.solve(g)
    report["solve"] = {"residual_u0": sol0.residual,
                       "g_defect": g.compatibility_defect(mesh)}
    sol1 = None
    case = JumpCase.NONE
    if law is not None and scene.inclusion is not None:
        sol1 = solve_perturbed(mesh, background, law, g, op=op)
        report["solve"]["residual_u1"] = sol1.residual
        d_pts = mesh.centroids[mesh.in_d]
        if len(d_pts):
            case = check_jump_condition(
                background.sigma(d_pts, mesh.comp[mesh.in_d]),
                law.sigma1(d_pts), law.zeta1(d_pts), law.varrho)
    stage_times["solve"] = time.perf_counter() - t0

    if cfg.raw.get("export_fields") and out_dir is not None:
        from .solver import export_solution_csv
        export_solution_csv(sol0, Path(out_dir) / f"{cfg.label}_u0")
        if sol1 is not None:
            export_solution_csv(sol1, Path(out_dir) / f"{cfg.label}_u1")

    power = None
    bracket = None
    if "energy" in cfg.checks and sol1 is not None:
        t0 = time.perf_counter()
        want_bracket = "bracket" in cfg.checks and case is not JumpCase.NONE
        power = energy.power_report(
            sol0, sol1, case if want_bracket else JumpCase.NONE,
            tol=float(cfg.raw.get("bracket_tol", 0.05)))
        report["power"] = power.as_dict()
        report["power"]["case"] = case.value
        bracket = power.bracket
        if want_bracket and bracket is not None and not bracket.degenerate:
            if not (bracket.sign_ok and bracket.bracket_ok):
                violations.append(
                    f"energy bracket failed (sign_ok={bracket.sign_ok}, "
                    f"bracket_ok={bracket.bracket_ok})")
        stage_times["energy"] = time.perf_counter() - t0

    if "three_region" in cfg.checks:
        t0 = time.perf_counter()
        report["checks"]["three_region"] = _three_region_stage(
            cfg, scene, op, rng, violations, threads=threads)
        stage_times["three_region"] = time.perf_counter() - t0

    if "three_ball" in cfg.checks:
        t0 = time.perf_counter()
        tb = cfg.raw.get("three_ball", {"center": [0.3, 0.2],
                                        "radii": [0.02, 0.06, 0.3]})
        chk = smallness.check_three_ball(sol0, tb["center"], *tb["radii"])
        report["checks"]["three_ball"] = {
            "constant": chk.constant, "margin": chk.margin,
            "tau": chk.params["tau"],
            "crosses_interface": chk.params["crosses_interface"]}
        stage_times["three_ball"] = time.perf_counter() - t0

    if "chain" in cfg.checks:
        t0 = time.perf_counter()
        report["checks"]["chain"] = _chain_stage(cfg, scene, sol0, violations)
        stage_times["chain"] = time.perf_counter() - t0

    if "scaling" in cfg.checks:
        t0 = time.perf_counter()
        from .geometry import RectRegion
        res = {}
        for theta in (0.5, 0.7, 1.0):
            res[f"theta_{theta}"] = smallness.scaling_identity_check(
                sol0, RectRegion((-0.2, -0.2), (0.2, 0.2)), theta)
        worst = max(res.values())
        res["max_residual"] = worst
        if worst >= 1e-3:
            violations.append(f"scaling identity residual {worst:.3e}")
        report["checks"]["scaling"] = res
        stage_times["scaling"] = time.perf_counter() - t0

    if "lipschitz" in cfg.checks:
        t0 = time.perf_counter()
        a = float(cfg.raw.get("lipschitz_a", 0.1))
        ls = smallness.lipschitz_smallness(sol0, a)
        report["checks"]["lipschitz"] = {"a": a, "c_a": ls["c_a"],
                                         "argmin": list(ls["argmin"])}
        stage_times["lipschitz"] = time.perf_counter() - t0

    if "boundary_layer" in cfg.checks:
        t0 = time.perf_counter()
        avals = cfg.raw.get("boundary_layer_a", [0.15, 0.2, 0.3, 0.4, 0.5])
        bl = smallness.boundary_layer(sol0, avals)
        report["checks"]["boundary_layer"] = {
            "a": list(map(float, bl["a"])),
            "layer_energy": list(map(float, bl["layer_energy"])),
            "exponent": bl["exponent"]}
        stage_times["boundary_layer"] = time.perf_counter() - t0

    if "vitali" in cfg.checks:
        t0 = time.perf_counter()
        radius = float(cfg.raw.get("vitali_radius", 0.05))
        centers = vitali_cover(scene.interface, radius)
        length = scene.interface.perimeter
        report["checks"]["vitali"] = {
            "radius": radius, "n_centers": int(len(centers)),
            "cover_constant": len(centers) * radius / length}
        stage_times["vitali"] = time.perf_counter() - t0

    if "size" in cfg.checks and power is not None and bracket is not None \
            and not bracket.degenerate:
        t0 = time.perf_counter()
        report["size"] = _size_stage(cfg, scene, power, bracket, sol0,
                                     violations)
        stage_times["size"] = time.perf_counter() - t0
    elif "size" in cfg.checks and power is not None:
        if abs(power.delta_w.real) <= 1e-8 * max(abs(power.w0.real), 1e-300):
            # identical laws: dW ~ 0 gives the degenerate [0, 0] bounds
            est = estimator.estimate_size(power, (0.0, 0.0), fatness_ok=True,
                                          true_area=scene.inclusion.area,
                                          constants_source="degenerate")
            report["size"] = est.as_dict()
        else:
            report["size"] = {"refused": "jump condition (a0) classifies as "
                                         "'none'; size bounds not asserted"}

    report["violations"] = violations
    if timings:
        report["timings"] = stage_times
    code = EXIT_VIOLATION if violations else EXIT_OK

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(report, out / f"{cfg.label}.json")
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
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_report(report: dict, path):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=_to_native)
        fh.write("\n")


def report_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True, default=_to_native)


# ---------------------------------------------------------------------------
# Sweeps


def _set_by_path(doc: dict, path: str, value):
    keys = path.split(".")
    node = doc
    for k in keys[:-1]:
        if k not in node or not isinstance(node[k], dict):
            _fail(path, "not a valid config path")
        node = node[k]
    if keys[-1] not in node:
        _fail(path, "not a valid config path")
    node[keys[-1]] = value


def _sweep_one(doc: dict, param: str, value: float, out_dir):
    d = json.loads(json.dumps(doc))
    _set_by_path(d, param, value)
    d["label"] = f"{d.get('label', 'run')}_{param.replace('.', '_')}_{value:g}"
    cfg = parse_config(d)
    try:
        rep, code = run(cfg, out_dir=out_dir)
        return {"value": value, "label": cfg.label, "exit_code": code,
                "report": rep}
    except PowerGapError as exc:
        return {"value": value, "label": cfg.label,
                "exit_code": EXIT_STRUCTURAL, "error": str(exc)}


def sweep(cfg: ExperimentConfig, param: str, values, out_dir=None,
          threads: int = 1) -> dict:
    """Independent runs over a numeric config path, plus an aggregate table."""
    results = []
    if threads <= 1:
        for v in values:
            results.append(_sweep_one(cfg.raw, param, v, out_dir))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futs = [pool.submit(_sweep_one, cfg.raw, param, v, out_dir)
                    for v in values]
            results = [f.result() for f in futs]
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
    if param == "mesh.h" and len(values) >= 3:
        w0s = [row.get("w0_re") for row in agg["rows"]]
        if all(w is not None for w in w0s):
            d1 = abs(w0s[0] - w0s[1])
            d2 = abs(w0s[1] - w0s[2])
            if d2 > 0:
                agg["convergence_order_w0"] = math.log2(d1 / d2) / max(
                    math.log2(values[0] / values[1]), 1e-12) * 1.0
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
    header = _PLOT_KINDS[kind]
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
        w.writerow(header)
        w.writerows(rows)
    return rows


# ---------------------------------------------------------------------------
# Entry point


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    scene = cfg.build_scene()
    scene.validate()
    mesh = build_mesh(scene, max(cfg.mesh_h, 0.05))
    _admissibility_stage(cfg, scene, mesh, cfg.build_background(),
                         cfg.build_law())
    print(f"config '{cfg.label}' valid; "
          f"scene and hypotheses check out at h={max(cfg.mesh_h, 0.05)}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.raw["seed"] = args.seed
    if args.check:
        cfg.raw["checks"] = args.check.split(",")
        issues = validate_check_preconditions(cfg)
        if issues:
            raise ConfigError("; ".join(issues))
    report, code = run(cfg, out_dir=args.out, timings=args.timings,
                       threads=args.threads)
    if args.out is None:
        print(report_json(report))
    else:
        print(f"report written to {Path(args.out) / (cfg.label + '.json')}")
    for v in report["violations"]:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return code


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.raw["seed"] = args.seed
    values = [float(v) for v in args.values.split(",")]
    agg = sweep(cfg, args.param, values, out_dir=args.out,
                threads=args.threads)
    print(json.dumps(agg, indent=1, sort_keys=True, default=str))
    bad = [r for r in agg["rows"] if r["exit_code"] == EXIT_STRUCTURAL]
    viol = [r for r in agg["rows"] if r["exit_code"] == EXIT_VIOLATION]
    if bad:
        return EXIT_STRUCTURAL
    return EXIT_VIOLATION if viol else EXIT_OK


def _cmd_report(args) -> int:
    reports = []
    for p in args.reports:
        with open(p) as fh:
            reports.append(json.load(fh))
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
    p.add_argument("--threads", type=int, default=1)
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
    except (ConfigError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except InequalityViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except PowerGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
