import functools
import math

import numpy as np
import pytest

from powergap import (
    BackgroundOperator,
    BackgroundTensor,
    Circle,
    InclusionLaw,
    LowerOrderTerms,
    MatrixField,
    Scene,
    flux_balance,
    flux_jump_norm,
    fourier_data,
    solve_background,
    solve_perturbed,
    weak_residual,
)
from powergap.cli import parse_config
from powergap.errors import SolverError
from powergap.mesh import build_mesh
from powergap.scenarios import all_scenarios, scenario
from powergap.solver import boundary_load

from oracles import LayeredDiskSolution, constitutive_matrix, direct_block_solve

CORPUS = [(name, case) for case in ("case_ii", "case_i")
          for name in all_scenarios(case)]
# contrast corners: sigma1 far below and far above the background, with
# zeta1 / sigma1 = 0.999 so that sigma1 - zeta1 nearly loses coercivity
CONTRAST = [("contrast", 1e-3), ("contrast", 1e3)]


def h1_seminorm_error(mesh, u, exact_nodal):
    ge = mesh.gradient_per_element(u - exact_nodal)
    return math.sqrt(float((np.abs(ge) ** 2).sum(axis=1) @ mesh.areas))


class TestBackgroundSolve:
    def test_linear_oracle(self, disk_solution, disk_mesh_h05):
        # u = r cos(theta) = x up to boundary-polygon error
        x = disk_mesh_h05.points[:, 0]
        assert np.abs(disk_solution.u.real - x).max() < 5e-3
        assert np.abs(disk_solution.u.imag).max() == 0.0
        err = h1_seminorm_error(disk_mesh_h05, disk_solution.u.real, x)
        assert err / math.sqrt(math.pi) < 0.05

    def test_h1_convergence_order(self, disk_scene, identity_background,
                                  cos_data):
        errs = []
        for h in (0.1, 0.05):
            mesh = build_mesh(disk_scene, h)
            sol = solve_background(mesh, identity_background, cos_data)
            errs.append(h1_seminorm_error(mesh, sol.u.real,
                                          mesh.points[:, 0]))
        assert errs[0] / errs[1] >= 2 ** 0.9

    def test_zero_data_zero_solution(self, disk_mesh_h05,
                                     identity_background):
        g0 = fourier_data([(1, 0.0, 0.0)])
        sol = solve_background(disk_mesh_h05, identity_background, g0)
        assert np.abs(sol.u).max() < 1e-12

    def test_two_phase_series_oracle(self, twophase_mesh_h02,
                                     twophase_background, cos_data):
        sol = solve_background(twophase_mesh_h02, twophase_background,
                               cos_data)
        orc = LayeredDiskSolution(
            [0.5, 1.0],
            [constitutive_matrix(2.0, 0.05), constitutive_matrix(1.0, 0.05)],
            1, (1.0, 0.0))
        u_ex = orc.evaluate(twophase_mesh_h02.points)
        mass = twophase_mesh_h02.node_mass()
        rel = math.sqrt(mass @ np.abs(sol.u - u_ex) ** 2) \
            / math.sqrt(mass @ np.abs(u_ex) ** 2)
        assert rel < 0.02

    def test_mean_zero(self, disk_solution):
        assert abs(disk_solution.mean_value()) < 1e-12

    def test_compatibility_projection(self, disk_mesh_h05,
                                      identity_background):
        # a mode-0 component has a nonzero boundary integral; the solver
        # projects it away exactly
        g = fourier_data([(1, 1.0, 0.0)])
        lifted = fourier_data([(1, 1.0, 0.0)])
        shifted = type(g)(fn=lambda p: g.raw(p) + 0.37, label="shifted")
        b, mean = boundary_load(disk_mesh_h05, shifted)
        assert mean == pytest.approx(0.37, rel=1e-3)
        assert abs(b.sum()) < 1e-12 * np.abs(b).sum()

    def test_coercivity(self, disk_solution, disk_mesh_h05):
        grad = disk_solution.gradient()
        sig = disk_solution.sigma_e
        lhs = float(np.einsum("mij,mj,mi,m->", sig.astype(complex), grad,
                              np.conj(grad), disk_mesh_h05.areas).real)
        rhs = float((np.abs(grad) ** 2).sum(axis=1) @ disk_mesh_h05.areas)
        assert lhs >= 0.5 * rhs  # lambda0 = 0.5 for the fixture tensor

    def test_lower_order_terms_flag(self, disk_mesh_h05):
        bg = BackgroundTensor.isotropic(1.0, 1.0, gamma=0.0)
        lower = LowerOrderTerms(
            w=lambda p: np.full((len(p), 2), 0.1 + 0j),
            v=lambda p: np.full(len(p), 0.2 + 0j), k1=0.2, k2=0.2)
        sol = solve_background(disk_mesh_h05, bg, fourier_data([(1, 1, 0)]),
                               lower_order=lower)
        assert sol.residual < 1e-10
        # the flux balance re-assembles the operator with the same terms
        assert flux_balance(sol)["weak"] < 1e-10
        base = solve_background(disk_mesh_h05, bg, fourier_data([(1, 1, 0)]))
        assert np.abs(sol.u - base.u).max() > 1e-4  # the terms matter


class TestPerturbedSolve:
    def test_background_law_reproduces_u0(self, twophase_mesh_h02,
                                          twophase_background, cos_data):
        # sigma1 = background minus-side value, zeta = 0, eps inherited
        law = InclusionLaw(sigma1=MatrixField.isotropic(2.0),
                           zeta1=MatrixField.isotropic(0.0),
                           lambda1=0.4, varrho=0.5)
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.04)
        u0 = solve_background(mesh, twophase_background, cos_data)
        u1 = solve_perturbed(mesh, twophase_background, law, cos_data)
        assert np.abs(u1.u - u0.u).max() < 1e-10

    def test_imaginary_part_decouples(self, cos_data):
        # real data, eps = 0 everywhere, chiral term present: Im u1 = 0
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.05)
        bg = BackgroundTensor.isotropic(1.0, 1.0, gamma=0.0)
        law = InclusionLaw(sigma1=MatrixField.isotropic(1.0),
                           zeta1=MatrixField.isotropic(0.5),
                           lambda1=0.4, varrho=0.4)
        sol = solve_perturbed(mesh, bg, law, cos_data)
        assert np.abs(sol.u.imag).max() < 1e-12

    def test_real_linearity_witness(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5))
        mesh = build_mesh(scene, 0.05)
        bg = BackgroundTensor.isotropic(1.0, 2.0, gamma=0.0)
        sol = solve_background(mesh, bg, cos_data)
        assert np.abs(sol.u.imag).max() < 1e-12

    def test_chiral_vs_background_cross_check(self, cos_data):
        # zeta = 0, sigma1 = 2*sigma0: the block path must match the
        # complex path with the piecewise tensor
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.04)
        bg = BackgroundTensor.isotropic(1.0, 1.0, gamma=0.05)
        law = InclusionLaw(sigma1=MatrixField.isotropic(2.0),
                           zeta1=MatrixField.isotropic(0.0),
                           lambda1=0.4, varrho=0.5)
        u1 = solve_perturbed(mesh, bg, law, cos_data)
        orc = LayeredDiskSolution(
            [0.25, 1.0],
            [constitutive_matrix(2.0, 0.05), constitutive_matrix(1.0, 0.05)],
            1, (1.0, 0.0))
        u_ex = orc.evaluate(mesh.points)
        mass = mesh.node_mass()
        rel = math.sqrt(mass @ np.abs(u1.u - u_ex) ** 2) \
            / math.sqrt(mass @ np.abs(u_ex) ** 2)
        assert rel < 0.01

    def test_coercivity_loss_reported(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.06)
        bg = BackgroundTensor.isotropic(1.0, 1.0, gamma=0.0)
        law = InclusionLaw(sigma1=MatrixField.isotropic(1.0),
                           zeta1=MatrixField.isotropic(1.0),
                           lambda1=0.01, varrho=0.4)
        with pytest.raises(SolverError, match=r"\(se0\)"):
            solve_perturbed(mesh, bg, law, cos_data)


@functools.lru_cache(maxsize=None)
def krylov_case(name, param):
    """(mesh, background, law, g) of a corpus config or contrast corner at h=0.06."""
    if name == "contrast":
        cfg = parse_config(scenario("concentric_disk", mesh={"h": 0.06}))
        law = InclusionLaw(sigma1=MatrixField.isotropic(param),
                           zeta1=MatrixField.isotropic(0.999 * param),
                           lambda1=0.5 * min(param, 1.0 / param),
                           varrho=0.5)
    else:
        cfg = parse_config(scenario(name, case=param, mesh={"h": 0.06}))
        law = cfg.build_law()
    mesh = build_mesh(cfg.build_scene(), 0.06)
    return mesh, cfg.build_background(), law, cfg.build_boundary_data()


class TestKrylovSolve:
    @pytest.mark.parametrize("name,param", CORPUS + CONTRAST)
    def test_matches_direct_block_lu(self, name, param):
        mesh, bg, law, g = krylov_case(name, param)
        sol = solve_perturbed(mesh, bg, law, g)
        u_ref, lams_ref = direct_block_solve(mesh, bg, law, g)
        assert np.linalg.norm(sol.u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
        # the multipliers vanish to rounding for compatible data, so they
        # are compared on the scale of the load they balance
        b, _ = boundary_load(mesh, g)
        gap = np.abs(np.subtract(sol.multipliers, lams_ref)).max()
        assert gap * np.linalg.norm(mesh.node_mass()) \
            <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("name,case", CORPUS)
    def test_corpus_converges_quickly(self, name, case):
        sol = solve_perturbed(*krylov_case(name, case))
        assert 0 < sol.diagnostics["krylov_iterations"] <= 40
        assert sol.diagnostics["krylov_residual"] <= 1e-12
        # the block residual and flux balance re-assemble the same system
        assert weak_residual(sol) == pytest.approx(sol.residual, rel=1e-12)
        assert flux_balance(sol)["weak"] < 1e-12

    def test_operator_on_other_mesh_rejected(self, disk_mesh_h05):
        mesh, bg, law, g = krylov_case("concentric_disk", "case_ii")
        with pytest.raises(ValueError, match="another mesh"):
            solve_perturbed(mesh, bg, law, g,
                            op=BackgroundOperator(disk_mesh_h05, bg))

    @pytest.mark.parametrize("info", [200, 0])
    def test_unconverged_gmres_raises(self, monkeypatch, info):
        # an iterate that misses the gate raises whether or not GMRES
        # itself reports the miss
        def unconverged(a, rhs, **kwargs):
            for _ in range(3):
                kwargs["callback"](1.0)
            return np.zeros_like(rhs), info

        monkeypatch.setattr("powergap.solver.spla.gmres", unconverged)
        with pytest.raises(SolverError,
                           match=r"3 iterations, true relative residual "
                                 r"1\.000e\+00"):
            solve_perturbed(*krylov_case("concentric_disk", "case_ii"))


class TestResidualsAndFluxes:
    def test_converged_residual_small(self, disk_solution):
        assert weak_residual(disk_solution) < 1e-10

    def test_noise_raises_residual(self, disk_solution, rng):
        noisy = disk_solution
        import dataclasses
        u = noisy.u + 1e-3 * rng.standard_normal(len(noisy.u))
        bumped = dataclasses.replace(noisy, u=u, _grad=None)
        assert weak_residual(bumped) > 1e-5

    def test_zero_field_zero_residual(self, disk_mesh_h05,
                                      identity_background):
        sol = solve_background(disk_mesh_h05, identity_background,
                               fourier_data([(2, 0.0, 0.0)]))
        assert weak_residual(sol) == 0.0

    def test_flux_balance(self, disk_solution):
        fb = flux_balance(disk_solution)
        assert fb["weak"] < 1e-12

    def test_flux_jump_decreases_under_refinement(self, twophase_scene,
                                                  twophase_background,
                                                  cos_data,
                                                  twophase_mesh_h02):
        sol_c = solve_background(build_mesh(twophase_scene, 0.04),
                                 twophase_background, cos_data)
        sol_f = solve_background(twophase_mesh_h02, twophase_background,
                                 cos_data)
        assert flux_jump_norm(sol_f) < flux_jump_norm(sol_c)

    def test_export_solution_csv(self, disk_solution, tmp_path):
        from powergap import export_solution_csv
        paths = export_solution_csv(disk_solution, tmp_path / "run")
        assert [p.name for p in paths] == ["run_vertices.csv",
                                           "run_triangles.csv",
                                           "run_field.csv"]
        header = paths[0].read_text().splitlines()[0]
        assert header == "x,y"
        header = paths[1].read_text().splitlines()[0]
        assert header == "v0,v1,v2,component,in_inclusion"
        n_rows = len(paths[2].read_text().splitlines()) - 1
        assert n_rows == disk_solution.mesh.num_points

    def test_transmission_edges_shared(self, twophase_mesh_h02):
        # conforming elements: interface edges are shared vertex pairs, so
        # the trace jump vanishes structurally
        e = twophase_mesh_h02.interface_edges
        t = twophase_mesh_h02.interface_tris
        tris = twophase_mesh_h02.triangles
        for k in range(0, len(e), 7):
            shared = set(e[k])
            assert shared <= set(tris[t[k, 0]])
            assert shared <= set(tris[t[k, 1]])


class TestLowerOrderValidation:
    def test_bounds_enforced(self, rng):
        import numpy as np
        from powergap import LowerOrderTerms
        from powergap.errors import StructuralError
        good = LowerOrderTerms(
            w=lambda p: np.full((len(p), 2), 0.1 + 0j),
            v=lambda p: np.full(len(p), 0.2 + 0j), k1=0.2, k2=0.3)
        pts = rng.uniform(-1, 1, (50, 2))
        rep = good.validate(pts)
        assert rep["w_sup"] <= 0.2
        bad = LowerOrderTerms(
            w=lambda p: np.full((len(p), 2), 0.5 + 0j),
            v=lambda p: np.zeros(len(p)), k1=0.2, k2=0.3)
        import pytest
        with pytest.raises(StructuralError, match="K1"):
            bad.validate(pts)
