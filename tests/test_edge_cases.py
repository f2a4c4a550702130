"""Coverage for the less-traveled combinations: generic curve crossings,
non-constant coefficient fields, and fully anisotropic inclusion laws."""

import numpy as np
import pytest

from powergap import (
    BackgroundOperator,
    BackgroundTensor,
    Circle,
    Ellipse,
    InclusionLaw,
    JumpCase,
    MatrixField,
    Scene,
    check_jump_condition,
    fourier_data,
    solve_perturbed,
)
from powergap.energy import energy_bracket, verify_identities
from powergap.mesh import build_mesh, curve_intersections

from corpus import isotropic_background, isotropic_field
from oracles import weak_residual


class TestGenericCrossings:
    def test_ellipse_circle_intersections(self):
        ell = Ellipse((0.0, 0.0), 0.55, 0.4)
        disk = Circle((0.55, 0.0), 0.12)
        pts = curve_intersections(ell, disk)
        assert len(pts) == 2
        impl = (pts[:, 0] / 0.55) ** 2 + (pts[:, 1] / 0.4) ** 2
        assert np.abs(impl - 1.0).max() < 1e-12
        assert np.abs(np.linalg.norm(pts - [0.55, 0.0], axis=1)
                      - 0.12).max() < 1e-12

    def test_crossing_is_a_node_of_both_curves(self):
        # bisected along the circle's own parameter, the crossings lie on
        # both curves, so the circle's copy of each survives as the shared
        # node instead of falling to the inclusion-versus-interface filter
        ell = Ellipse((0.0, 0.0), 0.55, 0.4)
        disk = Circle((0.55, 0.0), 0.15)
        mesh = build_mesh(Scene(outer=Circle((0, 0), 1.0), interface=ell,
                                inclusion=disk), 0.03)
        on_both = (np.abs(ell.signed_distance(mesh.points)) <= 1e-12) \
            & (np.abs(disk.signed_distance(mesh.points)) <= 1e-12)
        assert np.count_nonzero(on_both) == 2

    def test_crossed_ellipse_nodes_even_in_arc_length(self):
        # between two crossings the interface nodes are even in arc length,
        # not in the ellipse's parameter (edges 0.0239 to 0.0344 that way)
        ell = Ellipse((0.0, 0.0), 0.55, 0.4)
        disk = Circle((0.55, 0.0), 0.12)
        mesh = build_mesh(Scene(outer=Circle((0, 0), 1.0), interface=ell,
                                inclusion=disk), 0.03)
        nodes = mesh.points[np.abs(ell.signed_distance(mesh.points))
                            <= 1e-12]
        nodes = nodes[np.argsort(ell.param_of(nodes))]
        edges = np.linalg.norm(np.roll(nodes, -1, axis=0) - nodes, axis=1)
        crossings = np.sort([np.argmin(np.linalg.norm(nodes - p, axis=1))
                             for p in curve_intersections(ell, disk)])
        assert len(crossings) == 2
        for span in np.split(np.roll(edges, -crossings[0]),
                             [crossings[1] - crossings[0]]):
            assert span.max() / span.min() <= 1.001
        assert edges.max() / edges.min() <= 1.15
        assert edges.max() <= 0.03

    def test_ellipse_interface_crossing_mesh_and_solve(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Ellipse((0, 0), 0.55, 0.4),
                      inclusion=Circle((0.55, 0.0), 0.12),
                      rho0=0.22, K0=4.0, d0=0.3, d1=0.024)
        mesh = build_mesh(scene, 0.04)
        # some inclusion elements on each side of the interface
        assert (mesh.comp[mesh.in_d] == 1).any()
        assert (mesh.comp[mesh.in_d] == -1).any()
        assert mesh.areas[mesh.in_d].sum() == pytest.approx(
            np.pi * 0.12 ** 2, rel=0.05)
        bg = isotropic_background(1.0, 2.0, gamma=0.05)
        law = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(1.2),
                           lambda1=0.2, varrho=0.5)
        g = fourier_data([(1, 1.0, 0.0)])
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(g)
        sol1 = solve_perturbed(sol0, law)
        rep = verify_identities(sol0, sol1)
        assert rep.max_pairwise_rel < 1e-9
        br = energy_bracket(sol0, sol1, JumpCase.CASE_II, rep.re_dw_boundary)
        assert br.sign_ok and br.bracket_ok


class TestAffineCoefficients:
    def test_solve_with_affine_background(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5))
        mesh = build_mesh(scene, 0.04)
        # M = (1.2 + 0.3 x) Id outside, constant 2 Id inside; both stay
        # within the [lambda0, 1/lambda0] band over the domain
        bg = BackgroundTensor(
            m_plus=MatrixField.affine(1.2, 0.3, 0.0),
            m_minus=isotropic_field(2.0),
            n_plus=isotropic_field(1.0),
            n_minus=isotropic_field(1.0),
            gamma=0.05, lambda0=0.5, m0=1.0)
        sol = BackgroundOperator(mesh, bg).solve(cos_data)
        assert sol.residual < 1e-10
        assert weak_residual(sol) < 1e-10
        assert abs(sol.mesh.node_mass() @ sol.u) < 1e-12

    def test_affine_lipschitz_matches_gradient(self, rng):
        from powergap import estimate_lipschitz
        fld = MatrixField.affine(1.2, 0.3, 0.0)
        aligned = np.column_stack([np.linspace(0, 1, 21), np.zeros(21)])
        est = estimate_lipschitz(fld, aligned[:-1], aligned[1:])
        assert est == pytest.approx(0.3 * np.sqrt(2.0), rel=1e-12)


class TestAnisotropicLaw:
    def test_matrix_valued_case_i(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.2))
        mesh = build_mesh(scene, 0.04)
        bg = isotropic_background(1.0, 2.0, gamma=0.05)
        law = InclusionLaw(
            sigma1=MatrixField.constant(np.diag([1.8, 2.2])),
            zeta1=MatrixField.constant(np.diag([-1.1, -1.3])),
            lambda1=0.2, varrho=0.3)
        d = mesh.centroids[mesh.in_d]
        case = check_jump_condition(bg.sigma(d, mesh.comp[mesh.in_d]),
                                    law.sigma1(d), law.zeta1(d), law.varrho)
        assert case is JumpCase.CASE_I
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(cos_data)
        sol1 = solve_perturbed(sol0, law)
        rep = verify_identities(sol0, sol1)
        assert rep.max_pairwise_rel < 1e-9
        br = energy_bracket(sol0, sol1, case, rep.re_dw_boundary)
        assert br.re_dw < 0 and br.sign_ok and br.bracket_ok

    def test_rotated_anisotropy_identities_exact(self, cos_data):
        # symmetric but non-diagonal tensors exercise the full matrix paths
        ang = 0.6
        q = np.array([[np.cos(ang), -np.sin(ang)],
                      [np.sin(ang), np.cos(ang)]])
        sig1 = q @ np.diag([1.6, 2.4]) @ q.T
        zet1 = q @ np.diag([1.0, 1.4]) @ q.T
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.1, 0.0), 0.18))
        mesh = build_mesh(scene, 0.04)
        bg = isotropic_background(1.0, 2.0, gamma=0.05)
        law = InclusionLaw(sigma1=MatrixField.constant(sig1),
                           zeta1=MatrixField.constant(zet1),
                           lambda1=0.15, varrho=0.2)
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(cos_data)
        sol1 = solve_perturbed(sol0, law)
        rep = verify_identities(sol0, sol1)
        assert rep.max_pairwise_rel < 1e-9
