import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergap import (
    BackgroundOperator,
    Circle,
    Ellipse,
    InclusionLaw,
    JumpCase,
    Scene,
    fourier_data,
    solve_perturbed,
)
from powergap import cli
from powergap.energy import power_report
from powergap.errors import DegenerateMeasurementError, StructuralError
from powergap.estimator import (
    CalibrationResult,
    SizeMeasurement,
    boundary_data_norm_ratio,
    calibrate_constants,
    check_fatness,
    estimate_size,
    interior_gradient_sup,
)
from powergap.mesh import _curve_nodes, build_mesh, curve_intersections
from powergap.solver import NeumannData

from corpus import isotropic_background, isotropic_field
import oracles

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CASE_II_LAW = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(1.2),
                           lambda1=0.2, varrho=0.5)


def measure_scene(radius, center=(0.0, 0.0), h=0.04, label=""):
    scene = Scene(outer=Circle((0, 0), 1.0), interface=Circle((0, 0), 0.5),
                  inclusion=Circle(center, radius), d0=0.2, d1=radius / 5)
    mesh = build_mesh(scene, h)
    bg = isotropic_background(1.0, 2.0, gamma=0.05)
    g = fourier_data([(1, 1.0, 0.0)])
    op = BackgroundOperator(mesh, bg)
    sol0 = op.solve(g)
    sol1 = solve_perturbed(op, CASE_II_LAW, g)
    rep = power_report(sol0, sol1, JumpCase.CASE_II)
    return scene, rep, SizeMeasurement(
        delta_w_re=rep.delta_w.real, w0_free_re=rep.w0_free.real,
        area=math.pi * radius ** 2, case="case_ii", label=label or f"r{radius}")


class TestFatness:
    def test_disk_shallow_erosion(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0, 0), 0.25), d1=0.025)
        rep = check_fatness(scene)
        assert rep["passed"]
        assert rep["ratio"] == pytest.approx(0.81, rel=0.02)

    def test_disk_deep_erosion_fails(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0, 0), 0.25), d1=0.125)
        rep = check_fatness(scene)
        assert not rep["passed"]
        assert rep["ratio"] == pytest.approx(0.25, rel=0.05)

    def test_thin_sliver_fails(self):
        # ellipse so flat that the erosion removes everything
        from powergap.geometry import Ellipse
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Ellipse((0, 0), 0.4, 0.01), d1=0.012)
        rep = check_fatness(scene)
        assert not rep["passed"]
        assert rep["eroded_area"] == pytest.approx(0.0, abs=1e-6)


@pytest.fixture(scope="module")
def disk_mesh_with_d():
    """The unit disk at h = 0.05 with a centred inclusion of radius 0.3."""
    return build_mesh(Scene(outer=Circle((0.0, 0.0), 1.0),
                            inclusion=Circle((0.0, 0.0), 0.3)), 0.05)


class TestInteriorGradient:
    def test_linear_oracle_ratio(self, disk_mesh_with_d, identity_background,
                                 cos_data):
        # u = x: |grad u| = 1 on D and ||grad u||_L2 = sqrt(pi), so the
        # ratio is 1/sqrt(pi)
        sol = BackgroundOperator(disk_mesh_with_d,
                                 identity_background).solve(cos_data)
        rep = interior_gradient_sup(sol)
        assert rep["sup"] == pytest.approx(1.0, rel=1e-3)
        assert rep["ratio"] == pytest.approx(1 / math.sqrt(math.pi), rel=5e-3)

    def test_zero_field(self, disk_mesh_with_d, identity_background):
        sol = BackgroundOperator(disk_mesh_with_d, identity_background).solve(
            fourier_data([(1, 0.0, 0.0)]))
        rep = interior_gradient_sup(sol)
        assert rep["sup"] == 0.0

    def test_stable_under_refinement(self, cos_data):
        vals = []
        for h in (0.05, 0.025):
            scene = Scene(outer=Circle((0, 0), 1.0),
                          interface=Circle((0, 0), 0.5),
                          inclusion=Circle((0.1, 0.05), 0.2))
            mesh = build_mesh(scene, h)
            bg = isotropic_background(1.0, 2.0, gamma=0.05)
            sol = BackgroundOperator(mesh, bg).solve(cos_data)
            vals.append(interior_gradient_sup(sol)["ratio"])
        assert abs(vals[1] - vals[0]) / vals[0] < 0.10


class TestEstimateSize:
    def test_zero_gap_gives_zero_bounds(self):
        from powergap.energy import PowerReport, IdentityReport
        rep = PowerReport(w0=1.0 + 0j, w1=1.0 + 0j, delta_w=0.0 + 0j,
                          w0_free=1.0 + 0j, grad_energy_d=0.1,
                          identities=IdentityReport(0, 0, 0, 0, 0),
                          bracket=None, case="case_ii")
        est = estimate_size(rep, (0.5, 2.0))
        assert est.lower == 0.0 and est.upper == 0.0

    def test_degenerate_measurement_rejected(self):
        from powergap.energy import PowerReport, IdentityReport
        rep = PowerReport(w0=0j, w1=0j, delta_w=0j, w0_free=0j,
                          grad_energy_d=0.0,
                          identities=IdentityReport(0, 0, 0, 0, 0),
                          bracket=None, case="case_ii")
        with pytest.raises(DegenerateMeasurementError):
            estimate_size(rep, (0.5, 2.0))

    def test_linear_in_gap_and_scale_invariant(self):
        from powergap.energy import PowerReport, IdentityReport
        ident = IdentityReport(0, 0, 0, 0, 0)
        base = PowerReport(w0=2 + 0j, w1=1.9 + 0j, delta_w=0.1 + 0j,
                           w0_free=2.0 + 0j, grad_energy_d=0.1,
                           identities=ident, bracket=None, case="case_ii")
        est1 = estimate_size(base, (0.5, 2.0))
        doubled = PowerReport(w0=2 + 0j, w1=1.8 + 0j, delta_w=0.2 + 0j,
                              w0_free=2.0 + 0j, grad_energy_d=0.1,
                              identities=ident, bracket=None, case="case_ii")
        est2 = estimate_size(doubled, (0.5, 2.0))
        assert est2.lower == pytest.approx(2 * est1.lower)
        assert est2.upper == pytest.approx(2 * est1.upper)
        # g -> c g scales both delta W and W'0 by c^2: bounds invariant
        scaled = PowerReport(w0=8 + 0j, w1=7.6 + 0j, delta_w=0.4 + 0j,
                             w0_free=8.0 + 0j, grad_energy_d=0.4,
                             identities=ident, bracket=None, case="case_ii")
        est3 = estimate_size(scaled, (0.5, 2.0))
        assert est3.lower == pytest.approx(est1.lower)
        assert est3.upper == pytest.approx(est1.upper)

    def test_fem_measurement_scale_invariance(self, cos_data):
        scene, rep1, _ = measure_scene(0.2, h=0.05)
        scene2 = Scene(outer=Circle((0, 0), 1.0),
                       interface=Circle((0, 0), 0.5),
                       inclusion=Circle((0, 0), 0.2), d0=0.2, d1=0.04)
        mesh = build_mesh(scene2, 0.05)
        bg = isotropic_background(1.0, 2.0, gamma=0.05)
        g3 = fourier_data([(1, 3.0, 0.0)])
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(g3)
        sol1 = solve_perturbed(op, CASE_II_LAW, g3)
        rep3 = power_report(sol0, sol1, JumpCase.CASE_II)
        e1 = estimate_size(rep1, (0.5, 2.0))
        e3 = estimate_size(rep3, (0.5, 2.0))
        assert e3.lower == pytest.approx(e1.lower, rel=1e-6)
        assert e3.upper == pytest.approx(e1.upper, rel=1e-6)

    def test_conditional_upper_without_fatness(self):
        from powergap.energy import PowerReport, IdentityReport
        rep = PowerReport(w0=2 + 0j, w1=1.9 + 0j, delta_w=0.1 + 0j,
                          w0_free=2.0 + 0j, grad_energy_d=0.1,
                          identities=IdentityReport(0, 0, 0, 0, 0),
                          bracket=None, case="case_ii")
        est = estimate_size(rep, (0.5, 2.0), fatness_ok=False)
        assert est.upper_conditional


class TestCalibration:
    def test_single_member_degenerate(self):
        m = SizeMeasurement(0.1, 2.0, 0.05, "case_ii", "solo")
        res = calibrate_constants([m])
        assert res.c1 == res.c2

    def test_mixed_cases_rejected(self):
        a = SizeMeasurement(0.1, 2.0, 0.05, "case_ii")
        b = SizeMeasurement(-0.1, 2.0, 0.05, "case_i")
        with pytest.raises(StructuralError, match="case"):
            calibrate_constants([a, b])

    def test_zero_gap_excluded_with_warning(self):
        a = SizeMeasurement(0.1, 2.0, 0.05, "case_ii", "good")
        z = SizeMeasurement(0.0, 2.0, 0.05, "case_ii", "null")
        res = calibrate_constants([a, z])
        assert res.excluded == ("null",)
        assert res.n_used == 1

    def test_cross_validation_on_disks(self):
        # positions and radii both vary so the calibration band has width
        family = []
        for r, c in ((0.12, (0.0, 0.0)), (0.16, (0.15, 0.08)),
                     (0.2, (0.0, 0.0)), (0.2, (-0.12, -0.1)),
                     (0.26, (0.0, 0.0))):
            _, _, m = measure_scene(r, center=c, h=0.05)
            family.append(m)
        held_radius = 0.18
        _, rep, held = measure_scene(held_radius, center=(0.08, 0.0), h=0.05)
        res = calibrate_constants(family)
        assert isinstance(res, CalibrationResult)
        assert res.c1 <= res.c2
        est = estimate_size(rep, (res.c1, res.c2),
                            true_area=math.pi * held_radius ** 2)
        assert est.brackets_truth()


class TestContrastAndNesting:
    def test_doubled_contrast_still_bracketed(self):
        # fixed D, stronger chirality: the measured gap changes but the
        # calibrated bounds still bracket the true area
        family = []
        for r, c in ((0.12, (0.0, 0.0)), (0.2, (0.0, 0.0)),
                     (0.1, (0.62, 0.0)), (0.1, (0.0, -0.6)),
                     (0.1, (0.45, 0.0))):
            _, _, m = measure_scene(r, center=c, h=0.05)
            family.append(m)
        res = calibrate_constants(family)
        strong = InclusionLaw(sigma1=isotropic_field(2.0),
                              zeta1=isotropic_field(1.7),
                              lambda1=0.2, varrho=0.5)
        radius = 0.18
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.0, 0.0), radius), d0=0.2,
                      d1=radius / 5)
        mesh = build_mesh(scene, 0.05)
        bg = isotropic_background(1.0, 2.0, gamma=0.05)
        g = fourier_data([(1, 1.0, 0.0)])
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(g)
        sol1 = solve_perturbed(op, strong, g)
        rep = power_report(sol0, sol1, JumpCase.CASE_II)
        base_dw = next(m.delta_w_re for m in family if m.label == "r0.2")
        assert abs(rep.delta_w.real) > abs(base_dw)  # contrast moved the gap
        est = estimate_size(rep, (res.c1, res.c2),
                            true_area=math.pi * radius ** 2)
        assert est.brackets_truth()

    def test_nested_gap_monotone_or_flagged(self):
        import warnings
        gaps = []
        for r in (0.15, 0.2, 0.25):
            _, rep, _ = measure_scene(r, h=0.05)
            gaps.append(abs(rep.delta_w.real))
        if gaps != sorted(gaps):
            warnings.warn("nested-inclusion |Re dW| not monotone on family")
        assert gaps[-1] > gaps[0]


class _Loop:
    """A closed boundary loop, in order, standing in for a mesh."""

    def __init__(self, points):
        self.points = points

    def boundary_loop(self):
        return np.arange(len(self.points))


@st.composite
def boundary_loops(draw):
    """Nodes of a circle, an ellipse, or an ellipse through its crossings
    with a circle of radius near h, whose short arc between the crossings
    then has spans unlike the rest."""
    h = draw(st.floats(0.02, 0.1))
    a, b = draw(st.floats(0.3, 1.5)), draw(st.floats(0.3, 1.5))
    kind = draw(st.sampled_from(("circle", "ellipse", "crossed")))
    if kind == "circle":
        return _Loop(Circle((0.0, 0.0), a).nodes(h))
    ellipse = Ellipse((0.0, 0.0), a, b)
    if kind == "ellipse":
        return _Loop(ellipse.nodes(h))
    centre = ellipse.point_at(draw(st.floats(0.0, 1.0)))
    cut = Circle(tuple(centre), draw(st.floats(0.3, 3.0)) * h)
    return _Loop(_curve_nodes(ellipse, h, curve_intersections(ellipse, cut)))


@st.composite
def boundary_data(draw):
    """One Fourier mode in the angle, k up to 200, or seeded white noise."""
    if draw(st.booleans()):
        amp, phase = draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 6.3))
        return fourier_data([(draw(st.integers(1, 200)),
                              amp * math.cos(phase), amp * math.sin(phase))])
    seed = draw(st.integers(0, 2 ** 16))
    return NeumannData(
        lambda p: np.random.default_rng(seed).standard_normal(len(p)),
        f"noise{seed}")


class TestBoundaryNormRatio:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_vectorised_assembly_matches_loop(self, path):
        with open(path) as fh:
            cfg = cli.parse_config(json.load(fh))
        mesh = build_mesh(cfg.scene, 0.06)
        assert boundary_data_norm_ratio(mesh, cfg.g) == pytest.approx(
            oracles.boundary_data_norm_ratio(mesh, cfg.g), rel=1e-12,
            abs=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(loop=boundary_loops(), g=boundary_data())
    def test_quadrature_matches_dense_eigensolve(self, loop, g):
        assert boundary_data_norm_ratio(loop, g) == pytest.approx(
            oracles.boundary_data_norm_ratio(loop, g), rel=1e-12, abs=0.0)

    def test_increases_with_frequency(self, disk_mesh_h05):
        ratios = [boundary_data_norm_ratio(disk_mesh_h05,
                                           fourier_data([(k, 1.0, 0.0)]))
                  for k in (1, 3, 6)]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[0] >= 1.0
