"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from powergap import (
    BackgroundOperator,
    Circle,
    JumpCase,
    RectRegion,
    Scene,
    build_regions,
    flattening_map,
    flux_jump_norm,
    fourier_data,
    solve_perturbed,
)
from powergap.cli import parse_config, run
from powergap.energy import (
    cg_transform,
    element_cg,
    power_report,
    verify_identities,
)
from powergap.estimator import (
    SizeMeasurement,
    calibrate_constants,
    check_fatness,
    estimate_size,
)
from powergap.mesh import build_mesh
from powergap.scenarios import size_family
from powergap.smallness import (
    boundary_layer,
    check_three_region,
    propagate_chain,
    scaling_identity_check,
)
from powergap.solver import BackgroundOperator

from corpus import corpus_config, isotropic_background
from oracles import LayeredDiskSolution, constitutive_matrix


def verdict(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _measure(doc):
    from powergap import check_jump_condition

    cfg = parse_config(doc)
    scene = cfg.scene
    mesh = build_mesh(scene, cfg.values["mesh.h"])
    bg = cfg.background
    law = cfg.law
    g = cfg.g
    op = BackgroundOperator(mesh, bg)
    sol0 = op.solve(g)
    sol1 = solve_perturbed(op, law, g)
    d_pts = mesh.centroids[mesh.in_d]
    case = check_jump_condition(bg.sigma(d_pts, mesh.comp[mesh.in_d]),
                                law.sigma1(d_pts), law.zeta1(d_pts),
                                law.varrho)
    rep = power_report(sol0, sol1, case)
    meas = SizeMeasurement(delta_w_re=rep.delta_w.real,
                           w0_free_re=rep.w0_free.real,
                           area=scene.inclusion.area, case=case.value,
                           label=doc["label"])
    return scene, rep, meas


@pytest.fixture(scope="module")
def case_ii_measurements():
    return [_measure(doc) for doc in size_family(10, case="case_ii", h=0.04)]


@pytest.fixture(scope="module")
def case_i_measurements():
    return [_measure(doc) for doc in size_family(10, case="case_i", h=0.04)]


def test_criterion_01_oracle_solve(disk_scene):
    start = time.perf_counter()
    bg = isotropic_background(1.0, 1.0, gamma=0.0)
    g = fourier_data([(1, 1.0, 0.0)])
    errs = {}
    for h in (0.05, 0.025):
        mesh = build_mesh(disk_scene, h)
        sol = BackgroundOperator(mesh, bg).solve(g)
        ge = mesh.gradient_per_element(sol.u.real - mesh.points[:, 0])
        errs[h] = math.sqrt(float((ge ** 2).sum(axis=1) @ mesh.areas))
        if h == 0.05:
            w0 = sol.power.real
    rel_h1 = errs[0.05] / math.sqrt(math.pi)
    ratio = errs[0.05] / errs[0.025]
    elapsed = time.perf_counter() - start
    ok = rel_h1 < 0.05 and ratio >= 1.8 \
        and abs(w0 - math.pi) / math.pi < 0.02 and elapsed < 10.0
    verdict(1, ok, f"rel H1 err {rel_h1:.2e} (<5%), halving ratio "
                   f"{ratio:.2f} (>=1.8), W0 = {w0:.5f} vs pi "
                   f"(2%), {elapsed:.1f}s (<10s)")


def test_criterion_02_two_phase_oracle(twophase_scene, twophase_background,
                                       twophase_mesh_h02, cos_data):
    op = BackgroundOperator(twophase_mesh_h02, twophase_background)
    sol = op.solve(cos_data)
    orc = LayeredDiskSolution(
        [0.5, 1.0],
        [constitutive_matrix(2.0, 0.05), constitutive_matrix(1.0, 0.05)],
        1, (1.0, 0.0))
    u_ex = orc.evaluate(twophase_mesh_h02.points)
    mass = twophase_mesh_h02.node_mass()
    rel = math.sqrt(mass @ np.abs(sol.u - u_ex) ** 2) \
        / math.sqrt(mass @ np.abs(u_ex) ** 2)
    jump_h = flux_jump_norm(sol)
    mesh_f = build_mesh(twophase_scene, 0.01)
    jump_h2 = flux_jump_norm(
        BackgroundOperator(mesh_f, twophase_background).solve(cos_data))
    ok = rel < 0.02 and jump_h2 < jump_h
    verdict(2, ok, f"rel L2 err {rel:.2e} (<2%), flux jump "
                   f"{jump_h:.3e} -> {jump_h2:.3e} under refinement")


def test_criterion_03_null_perturbation():
    doc = corpus_config("concentric_disk", mesh={"h": 0.04})
    doc["law"] = {"sigma1": 2.0, "zeta1": 0.0, "epsilon1": None,
                  "lambda1": 0.4, "varrho": 0.5, "delta_tol": 0.0}
    doc["checks"] = ["energy", "bracket", "size"]
    rep, code = run(parse_config(doc))
    rel = abs(rep["power"]["delta_w_re"] / rep["power"]["w0_re"])
    size = rep["size"]
    ok = rel < 1e-8 and size["lower"] == 0.0 and size["upper"] == 0.0
    verdict(3, ok, f"identical laws: |dW|/|W0| = {rel:.2e} (<1e-8), "
                   f"bounds [{size['lower']}, {size['upper']}]")


def test_criterion_04_energy_identities(cos_data):
    worst = 0.0
    for case in ("case_i", "case_ii"):
        doc = corpus_config("concentric_disk", case=case, mesh={"h": 0.02})
        cfg = parse_config(doc)
        scene = cfg.scene
        mesh = build_mesh(scene, 0.02)
        bg = cfg.background
        law = cfg.law
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(cos_data)
        sol1 = solve_perturbed(op, law, cos_data)
        rep = verify_identities(sol0, sol1)
        worst = max(worst, rep.max_pairwise_rel)
    ok = worst < 0.005
    verdict(4, ok, f"(basic*)/(id1)/(id2) agree to {worst:.2e} "
                   "relative (<0.5%) on both jump cases")


def test_criterion_05_bracket_and_sign(case_i_measurements,
                                       case_ii_measurements):
    # sign convention: the boundary form fixes case (i) resistive with
    # Re dW < 0 and case (ii) conductive with Re dW > 0; the ratio
    # |Re dW| / int_D |grad u0|^2 must sit inside the computed surrogate
    # bracket with 5% slack in every scenario
    ok = True
    details = []
    for measurements, case in ((case_i_measurements, JumpCase.CASE_I),
                               (case_ii_measurements, JumpCase.CASE_II)):
        assert len(measurements) >= 10
        for scene_rep in measurements:
            _, rep, meas = scene_rep
            br = rep.bracket
            sign_ok = (rep.delta_w.real < 0 if case is JumpCase.CASE_I
                       else rep.delta_w.real > 0)
            in_bracket = (br.kappa_lo * 0.95 <= br.ratio
                          <= br.kappa_hi * 1.05)
            if not (sign_ok and in_bracket and br.surrogate_valid):
                ok = False
                details.append(meas.label)
    verdict(5, ok, f"20 scenarios (10 per case): definite signs and "
                   f"bracket containment{'' if ok else ': failed ' + str(details)}")


def test_criterion_06_cg_properties(case_ii_measurements, rng):
    worst_sym = 0.0
    min_eig = math.inf
    for doc_name in ("concentric_disk", "off_center_inclusion",
                     "crossing_inclusion", "curved_ellipse"):
        doc = corpus_config(doc_name, mesh={"h": 0.05})
        cfg = parse_config(doc)
        scene = cfg.scene
        mesh = build_mesh(scene, 0.05)
        op = BackgroundOperator(mesh, cfg.background)
        g = cfg.g
        sol0 = op.solve(g)
        sol1 = solve_perturbed(op, cfg.law, g)
        for sol in (sol0, sol1):
            b = element_cg(sol)
            worst_sym = max(worst_sym,
                            float(np.abs(b - np.swapaxes(b, 1, 2)).max()))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(b)[:, 0].min()))
    round_trip = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 2))
        sigma = np.eye(2) + 0.2 * (a + a.T)
        e = rng.normal(size=(2, 2))
        eps = 0.2 * (e + e.T)
        z = rng.normal(size=(2, 2))
        zeta = 0.25 * (z + z.T)
        if np.linalg.eigvalsh(sigma + zeta)[0] < 0.05:
            continue
        b = cg_transform(sigma[None], eps[None], zeta[None])[0]
        p = rng.normal(size=2) + 1j * rng.normal(size=2)
        cur = (sigma + 1j * eps) @ p + zeta @ np.conj(p)
        out = b @ np.concatenate([cur.real, p.imag])
        round_trip = max(round_trip,
                         float(np.abs(out[:2] - p.real).max()),
                         float(np.abs(out[2:] - cur.imag).max()))
    ok = worst_sym < 1e-14 and min_eig > 0 and round_trip < 1e-12
    verdict(6, ok, f"B symmetry {worst_sym:.1e} (<1e-14), min eig "
                   f"{min_eig:.3f} (>0), round trip {round_trip:.1e} "
                   "(<1e-12, 100 vectors)")


def test_criterion_07_three_region(twophase_mesh_h02, twophase_background):
    wp = parse_config(corpus_config("concentric_disk")).weights
    regions = build_regions(wp, 0.4, 0.1, theta=0.09)
    fmap = flattening_map(twophase_mesh_h02.scene.interface, 0.0,
                          rho0=0.3, K0=4.0)
    op = BackgroundOperator(twophase_mesh_h02, twophase_background)
    rng = np.random.default_rng(7)
    consts = []
    for _ in range(20):
        modes = [(k, rng.normal(), rng.normal()) for k in range(1, 6)]
        sol = op.solve(fourier_data(modes))
        [chk] = check_three_region([sol], regions, fmap)
        assert not chk.violation_candidate
        consts.append(chk.constant)
    uniformity = max(consts) / float(np.median(consts))
    # zero-input case: the zero solution gives I1 = I2 = 0
    zero = op.solve(fourier_data([(1, 0.0, 0.0)]))
    [chk0] = check_three_region([zero], regions, fmap)
    zero_ok = chk0.lhs == 0.0 and chk0.small_factor == 0.0
    ok = uniformity < 50 and zero_ok
    verdict(7, ok, f"fitted constants over 20 solutions: max/median = "
                   f"{uniformity:.2f} (<50); zero-input case holds")


def test_criterion_08_scaling_identity(twophase_mesh_h02,
                                       twophase_background, cos_data):
    op = BackgroundOperator(twophase_mesh_h02, twophase_background)
    sol = op.solve(cos_data)
    region = RectRegion((-0.25, -0.25), (0.25, 0.25))
    residuals = {th: scaling_identity_check(sol, region, th)
                 for th in (0.5, 0.7, 1.0)}
    worst = max(residuals.values())
    ok = worst < 1e-3
    verdict(8, ok, "scaling identity residuals " +
            ", ".join(f"theta={t}: {r:.1e}" for t, r in residuals.items()) +
            " (<1e-3)")


def test_criterion_09_chain_propagation(cos_data):
    fixtures = [
        (Scene(outer=Circle((0, 0), 1.0),
               inclusion=Circle((0.1, 0.0), 0.12), d0=0.5),
         isotropic_background(1.0, 1.0, gamma=0.05), (0.1, 0.0), 0.6),
        (Scene(outer=Circle((0, 0), 1.0), interface=Circle((0, 0), 0.5),
               inclusion=Circle((0.35, 0.0), 0.22), d0=0.4, rho0=0.3),
         isotropic_background(1.0, 2.0, gamma=0.05), (0.35, 0.0), 0.42),
    ]
    ok = True
    details = []
    for scene, bg, x0, h in fixtures:
        mesh = build_mesh(scene, 0.04)
        sol = BackgroundOperator(mesh, bg).solve(
            fourier_data([(1, 1.0, 0.0), (2, 0.4, 0.2)]))
        cert = propagate_chain(sol, scene.inclusion, x0, r=0.1, h=h)
        inv = all(all(c.invariants_ok().values()) for c in cert.chains)
        bounds = all(c.bound_holds() for c in cert.chains)
        n_ok = cert.n_max <= cert.n_bound
        agg = cert.holds()
        details.append(f"chains={len(cert.chains)} N_max={cert.n_max} "
                       f"(bound {cert.n_bound:.0f})")
        ok = ok and inv and bounds and n_ok and agg
    verdict(9, ok, "chain certificates hold on all fixtures: "
            + "; ".join(details))


def test_criterion_10_size_estimation(case_ii_measurements):
    start = time.perf_counter()
    family = [m for (_, _, m) in case_ii_measurements]
    cal = calibrate_constants(family)
    # held-out geometries sit between the calibrated regimes: one crossing
    # the interface (required), plus crossing and outer-component variants
    held_docs = []
    for label, r, c in (("holdout_crossing_mirror", 0.12, (-0.5, 0.0)),
                        ("holdout_outer_low", 0.10, (0.0, 0.6)),
                        ("holdout_outer_mid", 0.10, (0.54, 0.31)),
                        ("holdout_crossing_off", 0.12, (0.45, 0.12))):
        doc = corpus_config("concentric_disk")
        doc["label"] = label
        doc["mesh"]["h"] = 0.04
        doc["scene"]["inclusion"] = {"kind": "circle", "center": list(c),
                                     "radius": r}
        # the family's d0: two of these lie nearer than 0.3 to the boundary
        doc["scene"]["d0"] = 0.25
        doc["scene"]["d1"] = r / 5.0
        held_docs.append(doc)
    crossing = corpus_config("crossing_inclusion")
    crossing["label"] = "holdout_crossing"
    crossing["mesh"]["h"] = 0.04
    held_docs.append(crossing)
    results = []
    ok = True
    for doc in held_docs:
        scene, rep, meas = _measure(doc)
        fat = check_fatness(scene)
        est = estimate_size(rep, (cal.c1, cal.c2), fatness_ok=fat["passed"],
                            true_area=meas.area)
        hit = est.brackets_truth()
        results.append(f"{meas.label}: [{est.lower:.4f}, {est.upper:.4f}] "
                       f"truth {meas.area:.4f} {'ok' if hit else 'MISS'}")
        ok = ok and hit
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 900
    verdict(10, ok, f"constants [{cal.c1:.3f}, {cal.c2:.3f}] from 10 scenes "
                    f"bracket 5 held-out scenes (incl. crossing); "
                    + " | ".join(results))


def test_criterion_11_boundary_layer(disk_solution):
    rep = boundary_layer(disk_solution, [0.15, 0.2, 0.3, 0.4, 0.5])
    ok = rep["exponent"] >= 0.5 - 0.1
    verdict(11, ok, f"layer-energy exponent {rep['exponent']:.3f} "
                    ">= 1/n - 0.1 = 0.4")
