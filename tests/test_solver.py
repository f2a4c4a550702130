import dataclasses
import functools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from powergap import (
    BackgroundOperator,
    BackgroundTensor,
    Circle,
    Ellipse,
    InclusionLaw,
    MatrixField,
    Scene,
    flux_balance,
    flux_jump_norm,
    fourier_data,
    scenarios,
    solve_perturbed,
    solver,
)
from powergap.cli import parse_config
from powergap.energy import free_energy
from powergap.errors import SolverError
from powergap.mesh import build_mesh
from powergap.solver import (
    _ChiralOperator,
    _dissection_order,
    _permuted_bordered,
    assemble_stiffness,
    boundary_load,
    element_coefficients,
    inclusion_coefficients,
)

from corpus import (
    SCENES,
    corpus_config,
    isotropic_background,
    isotropic_field,
)
from oracles import (
    LayeredDiskSolution,
    chiral_system,
    constitutive_matrix,
    direct_block_solve,
    nested_dissection,
    pivoted_bordered_solve,
    quadrature_power,
    weak_residual,
)

CORPUS = [(name, case) for case in ("case_ii", "case_i") for name in SCENES]
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
            sol = BackgroundOperator(mesh, identity_background).solve(cos_data)
            errs.append(h1_seminorm_error(mesh, sol.u.real,
                                          mesh.points[:, 0]))
        assert errs[0] / errs[1] >= 2 ** 0.9

    def test_zero_data_zero_solution(self, disk_mesh_h05,
                                     identity_background):
        g0 = fourier_data([(1, 0.0, 0.0)])
        sol = BackgroundOperator(disk_mesh_h05, identity_background).solve(g0)
        assert np.abs(sol.u).max() < 1e-12

    def test_two_phase_series_oracle(self, twophase_mesh_h02,
                                     twophase_background, cos_data):
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
        assert rel < 0.02

    def test_mean_zero(self, disk_solution):
        assert abs(disk_solution.mesh.node_mass() @ disk_solution.u) < 1e-12

    def test_compatibility_projection(self, disk_mesh_h05,
                                      identity_background):
        # a mode-0 component has a nonzero boundary integral; the solver
        # projects it away exactly
        g = fourier_data([(1, 1.0, 0.0)])
        lifted = fourier_data([(1, 1.0, 0.0)])
        shifted = type(g)(fn=lambda p: g.raw(p) + 0.37, label="shifted")
        b, mean, _ = boundary_load(disk_mesh_h05, shifted)
        assert mean == pytest.approx(0.37, rel=1e-3)
        assert abs(b.sum()) < 1e-12 * np.abs(b).sum()

    def test_coercivity(self, disk_solution, disk_mesh_h05):
        grad = disk_solution.gradient()
        sig = disk_solution.sigma_e
        lhs = float(np.einsum("mij,mj,mi,m->", sig.astype(complex), grad,
                              np.conj(grad), disk_mesh_h05.areas).real)
        rhs = float((np.abs(grad) ** 2).sum(axis=1) @ disk_mesh_h05.areas)
        assert lhs >= 0.5 * rhs  # lambda0 = 0.5 for the fixture tensor

    def test_family_solve_matches_single_solves(self, twophase_mesh_h02,
                                                twophase_background, rng):
        op = BackgroundOperator(twophase_mesh_h02, twophase_background)
        gs = [fourier_data([(k, rng.normal(), rng.normal())
                            for k in range(1, 6)]) for _ in range(8)]
        family = op.solve(gs)
        assert len(family) == 8
        for g, sol in zip(gs, family):
            single = op.solve(g)
            assert sol.g is g
            # a threaded BLAS may order SuperLU's multi-column sums apart
            # from its one-column ones; see the one-thread test below
            scale = np.abs(single.u).max()
            assert np.abs(sol.u - single.u).max() <= 1e-12 * scale
            assert sol.residual < 1e-12 and single.residual < 1e-12

    def test_family_solve_bitwise_on_one_blas_thread(self):
        # the setting the benchmark runs in: columns, multipliers and
        # residuals equal eight one-column solves bit for bit
        script = textwrap.dedent("""
            import numpy as np
            from powergap import Circle, Scene, fourier_data
            from powergap.mesh import build_mesh
            from powergap.solver import BackgroundOperator
            from corpus import isotropic_background
            scene = Scene(outer=Circle((0.0, 0.0), 1.0),
                          interface=Circle((0.0, 0.0), 0.5))
            op = BackgroundOperator(build_mesh(scene, 0.02),
                                    isotropic_background(1.0, 2.0, 0.05))
            rng = np.random.default_rng(5)
            gs = [fourier_data([(k, rng.normal(), rng.normal())
                                for k in range(1, 6)]) for _ in range(8)]
            print(all(np.array_equal(f.u, s.u) and f.residual == s.residual
                      and f.multiplier == s.multiplier
                      for f, s in zip(op.solve(gs), map(op.solve, gs))))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               **{var: "1" for var in ("OMP_NUM_THREADS",
                                       "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS")}}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True"

    def test_family_residual_miss_names_member(self, disk_mesh_h05,
                                               identity_background,
                                               monkeypatch):
        op = BackgroundOperator(disk_mesh_h05, identity_background)
        lu = op._lu

        class OneBadColumn:
            def solve(self, rhs):
                x = lu.solve(rhs)
                x[:-1, 2] *= 2.0
                return x

        monkeypatch.setattr(op, "_lu", OneBadColumn())
        gs = [fourier_data([(k, 1.0, 0.0)]) for k in range(1, 5)]
        with pytest.raises(SolverError,
                           match=r"for member 2 \(1cos3t\+0sin3t\)"):
            op.solve(gs)


class TestReleasedOperator:
    def test_release_refuses_solves_and_keeps_diagnostics(
            self, twophase_background, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.1, 0.0), 0.25))
        mesh = build_mesh(scene, 0.05)
        law = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(0.6),
                           lambda1=0.4, varrho=0.5)
        op = BackgroundOperator(mesh, twophase_background)
        sol0 = op.solve(cos_data)
        sol1 = solve_perturbed(op, law, cos_data)

        def diagnostics():
            return [(s.operator.apply(s.u, s.multiplier), weak_residual(s),
                     flux_balance(s)) for s in (sol0, sol1)]

        before = diagnostics()
        op.release()
        assert op._lu is None
        after = diagnostics()
        for (y0, w0, f0), (y1, w1, f1) in zip(before, after):
            assert np.array_equal(y0, y1) and w0 == w1 and f0 == f1
        released = "factorization was released"
        with pytest.raises(SolverError, match=released):
            op.solve(cos_data)
        with pytest.raises(SolverError, match=released):
            op.solve([cos_data])
        with pytest.raises(SolverError, match=released):
            solve_perturbed(op, law, cos_data)


class TestRepeatedSolves:
    def test_solves_of_b_are_not_repeated(self, twophase_background,
                                          cos_data, monkeypatch):
        # GMRES applies the preconditioner to b twice from x0 = 0, and b is
        # u0's load: two LU solves fewer, and the same bits
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.1, 0.0), 0.25))
        mesh = build_mesh(scene, 0.04)
        law = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(0.5),
                           lambda1=0.4, varrho=0.5)

        def run():
            op = BackgroundOperator(mesh, twophase_background)
            calls, lu = [], op._lu

            class Counted:
                def solve(self, rhs):
                    calls.append(rhs.shape)
                    return lu.solve(rhs)

            op._lu = Counted()
            return op.solve(cos_data), solve_perturbed(op, law, cos_data), \
                len(calls)

        u0, u1, calls = run()
        monkeypatch.setattr(BackgroundOperator, "_lu_solve",
                            lambda self, rhs: self._factorization().solve(rhs))
        v0, v1, every = run()
        assert calls == every - 2
        for a, b in ((u0, v0), (u1, v1)):
            assert a.u.tobytes() == b.u.tobytes()
            assert a.multiplier == b.multiplier

    def test_release_forgets_the_last_solve(self, disk_mesh_h05,
                                            identity_background, cos_data):
        op = BackgroundOperator(disk_mesh_h05, identity_background)
        op.solve(cos_data)
        op.release()
        assert op._last is None
        with pytest.raises(SolverError, match="released"):
            op.solve(cos_data)


@functools.lru_cache(maxsize=None)
def corpus_operator(name, index=None):
    """The background operator of a corpus config, or of size_family scene
    `index`, at the document's own h."""
    doc = corpus_config(name) if index is None else \
        scenarios.size_family(12, h=0.03)[index]
    cfg = parse_config(doc)
    return BackgroundOperator(build_mesh(cfg.scene, cfg.values["mesh.h"]),
                              cfg.background)


ORDERED = [(name, None) for name in SCENES] + [("size_family", 6)]


class TestDissectionOrder:
    @pytest.mark.parametrize("name,index", ORDERED)
    def test_matches_recursive_oracle(self, name, index):
        op = corpus_operator(name, index)
        order = _dissection_order(op.mesh.points, op.k)
        want, cuts = nested_dissection(op.mesh.points, op.k)
        assert order.dtype == want.dtype
        assert order.tobytes() == want.tobytes()
        assert np.array_equal(np.sort(order), np.arange(op.mesh.num_points))
        # no K0 edge joins the two sides of any separator
        pattern = sp.csr_matrix((np.ones(op.k.nnz), op.k.indices,
                                 op.k.indptr), shape=op.k.shape)
        assert len(cuts) > 1
        for lo, hi, sep in cuts:
            assert len(sep) > 0
            assert pattern[lo][:, hi].nnz == 0


def _pivot_spread(lu) -> float:
    d = np.abs(lu.U.diagonal())
    return d.min() / d.max()


def _rotated(draw, lo: float, hi: float) -> np.ndarray:
    """A symmetric 2x2 matrix with both eigenvalues in [lo, hi]."""
    e = np.diag([draw(st.floats(lo, hi)), draw(st.floats(lo, hi))])
    t = draw(st.floats(0.0, math.pi))
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return rot @ e @ rot.T


@st.composite
def admissible_backgrounds(draw):
    """M and N with eigenvalues in [lambda0, 1 / lambda0] on each side of
    Sigma (drawn apart, so Sigma carries a jump), gamma >= 0, and M+
    either constant or affine over the unit disk."""
    lam = draw(st.floats(0.1, 1.0))
    lo, hi = lam, 1.0 / lam
    if draw(st.booleans()):
        r = draw(st.floats(0.0, 0.45)) * (hi - lo)
        t = draw(st.floats(0.0, 2.0 * math.pi))
        m_plus = MatrixField.affine(draw(st.floats(lo + r, hi - r)),
                                    r * math.cos(t), r * math.sin(t))
    else:
        m_plus = MatrixField.constant(_rotated(draw, lo, hi))
    return BackgroundTensor(
        m_plus=m_plus, m_minus=MatrixField.constant(_rotated(draw, lo, hi)),
        n_plus=MatrixField.constant(_rotated(draw, lo, hi)),
        n_minus=MatrixField.constant(_rotated(draw, lo, hi)),
        gamma=draw(st.floats(0.0, 10.0)), lambda0=lam)


@functools.lru_cache(maxsize=None)
def _two_phase_mesh():
    return build_mesh(Scene(outer=Circle((0.0, 0.0), 1.0),
                            interface=Circle((0.0, 0.0), 0.5)), 0.05)


class TestPivotFreeFactor:
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(background=admissible_backgrounds())
    def test_matches_pivoted_oracle(self, background):
        mesh = _two_phase_mesh()
        g = fourier_data([(1, 1.0, 0.0), (2, 0.3, -0.5)])
        sol = BackgroundOperator(mesh, background).solve(g)
        assert sol.residual <= 1e-6
        op = sol.operator
        b, _, _ = boundary_load(mesh, g)
        u_ref, lam_ref = pivoted_bordered_solve(op.k, op.m, b)
        assert np.linalg.norm(sol.u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
        # the multiplier vanishes to rounding for compatible data, so it
        # is compared on the scale of the load it balances
        assert abs(sol.multiplier - lam_ref) * np.linalg.norm(op.m) \
            <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("name", SCENES)
    def test_pivots_bounded_away_from_zero(self, name):
        assert _pivot_spread(corpus_operator(name)._lu.lu) > 1e-8

    @pytest.mark.parametrize("name", SCENES)
    def test_border_last_fails_the_pivot_bound(self, name, monkeypatch):
        # with the border after every node, the last node's pivot is that
        # of the singular pure-Neumann K0: rounding
        options = []
        real_splu = spla.splu

        def recording(a, **kwargs):
            options.append(kwargs)
            return real_splu(a, **kwargs)

        monkeypatch.setattr(solver.spla, "splu", recording)
        op = corpus_operator.__wrapped__(name)
        n = op.mesh.num_points
        order = _dissection_order(op.mesh.points, op.k)
        assert np.array_equal(op._lu.perm,
                              np.concatenate([order[:-1], [n], order[-1:]]))
        last = _permuted_bordered(op.k, op.m, np.concatenate([order, [n]]))
        assert _pivot_spread(real_splu(last, **options[0])) < 1e-8


class TestPerturbedSolve:
    def test_background_law_reproduces_u0(self, twophase_mesh_h02,
                                          twophase_background, cos_data):
        # sigma1 = background minus-side value, zeta = 0, eps inherited
        law = InclusionLaw(sigma1=isotropic_field(2.0),
                           zeta1=isotropic_field(0.0),
                           lambda1=0.4, varrho=0.5)
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.04)
        op = BackgroundOperator(mesh, twophase_background)
        u0 = op.solve(cos_data)
        u1 = solve_perturbed(op, law, cos_data)
        assert np.abs(u1.u - u0.u).max() < 1e-10

    def test_imaginary_part_decouples(self, cos_data):
        # real data, eps = 0 everywhere, chiral term present: Im u1 = 0
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.05)
        bg = isotropic_background(1.0, 1.0, gamma=0.0)
        law = InclusionLaw(sigma1=isotropic_field(1.0),
                           zeta1=isotropic_field(0.5),
                           lambda1=0.4, varrho=0.4)
        sol = solve_perturbed(BackgroundOperator(mesh, bg), law, cos_data)
        assert np.abs(sol.u.imag).max() < 1e-12

    def test_real_linearity_witness(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5))
        mesh = build_mesh(scene, 0.05)
        bg = isotropic_background(1.0, 2.0, gamma=0.0)
        sol = BackgroundOperator(mesh, bg).solve(cos_data)
        assert np.abs(sol.u.imag).max() < 1e-12

    def test_chiral_vs_background_cross_check(self, cos_data):
        # zeta = 0, sigma1 = 2*sigma0: the block path must match the
        # complex path with the piecewise tensor
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.04)
        bg = isotropic_background(1.0, 1.0, gamma=0.05)
        law = InclusionLaw(sigma1=isotropic_field(2.0),
                           zeta1=isotropic_field(0.0),
                           lambda1=0.4, varrho=0.5)
        u1 = solve_perturbed(BackgroundOperator(mesh, bg), law, cos_data)
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
        bg = isotropic_background(1.0, 1.0, gamma=0.0)
        law = InclusionLaw(sigma1=isotropic_field(1.0),
                           zeta1=isotropic_field(1.0),
                           lambda1=0.01, varrho=0.4)
        with pytest.raises(SolverError, match=r"\(se0\)"):
            solve_perturbed(BackgroundOperator(mesh, bg), law, cos_data)


# a law with its own imaginary part, so that K_delta is complex; the corpus
# laws inherit epsilon from the background
EPSILON1 = [("epsilon1", "case_ii")]


@functools.lru_cache(maxsize=None)
def krylov_case(name, param):
    """(mesh, background, law, g) at h=0.06.

    `name` is a corpus config, "contrast" or "epsilon1".
    """
    if name == "epsilon1":
        cfg = parse_config(corpus_config("crossing_inclusion", case=param,
                                         mesh={"h": 0.06}))
        law = dataclasses.replace(
            cfg.law,
            epsilon1=MatrixField.affine(0.12, [[0.05, 0.02], [0.02, 0.0]],
                                        0.03))
    elif name == "contrast":
        cfg = parse_config(corpus_config("concentric_disk", mesh={"h": 0.06}))
        law = InclusionLaw(sigma1=isotropic_field(param),
                           zeta1=isotropic_field(0.999 * param),
                           lambda1=0.5 * min(param, 1.0 / param),
                           varrho=0.5)
    else:
        cfg = parse_config(corpus_config(name, case=param, mesh={"h": 0.06}))
        law = cfg.law
    mesh = build_mesh(cfg.scene, 0.06)
    return mesh, cfg.background, law, cfg.g


class TestKrylovSolve:
    @pytest.mark.parametrize("name,param", CORPUS + CONTRAST)
    def test_matches_direct_block_lu(self, name, param):
        mesh, bg, law, g = krylov_case(name, param)
        sol = solve_perturbed(BackgroundOperator(mesh, bg), law, g)
        u_ref, lams_ref = direct_block_solve(mesh, bg, law, g)
        assert np.linalg.norm(sol.u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
        # the multiplier vanishes to rounding for compatible data, so it
        # is compared on the scale of the load it balances
        b, _, _ = boundary_load(mesh, g)
        gap = abs(sol.multiplier - complex(*lams_ref))
        assert gap * np.linalg.norm(mesh.node_mass()) \
            <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("name,case", CORPUS)
    def test_corpus_converges_quickly(self, name, case):
        mesh, bg, law, g = krylov_case(name, case)
        sol = solve_perturbed(BackgroundOperator(mesh, bg), law, g)
        assert 0 < sol.diagnostics["krylov_iterations"] <= 40
        assert sol.diagnostics["krylov_residual"] <= 1e-12
        # the block residual and flux balance re-assemble the same system
        assert weak_residual(sol) == pytest.approx(sol.residual, rel=1e-12)
        assert flux_balance(sol)["weak"] < 1e-12

    @pytest.mark.parametrize("info", [200, 0])
    def test_unconverged_gmres_raises(self, monkeypatch, info):
        # an iterate that misses the gate raises whether or not GMRES
        # itself reports the miss
        def unconverged(a, rhs, **kwargs):
            for _ in range(3):
                kwargs["callback"](1.0)
            return np.zeros_like(rhs), info

        monkeypatch.setattr("powergap.solver.spla.gmres", unconverged)
        mesh, bg, law, g = krylov_case("concentric_disk", "case_ii")
        op = BackgroundOperator(mesh, bg)
        with pytest.raises(SolverError,
                           match=r"3 iterations, true relative residual "
                                 r"1\.000e\+00"):
            solve_perturbed(op, law, g)


class TestChiralOperator:
    @pytest.mark.parametrize("name,param", CORPUS + EPSILON1)
    def test_apply_matches_block_matrix(self, name, param, rng):
        mesh, bg, law, _ = krylov_case(name, param)
        coeffs = inclusion_coefficients(mesh, bg, law,
                                        *element_coefficients(mesh, bg))
        chiral = _ChiralOperator(BackgroundOperator(mesh, bg), *coeffs)
        if name == "epsilon1":
            assert np.abs(chiral.k_delta.data.imag).max() > 0
        x = rng.standard_normal(2 * mesh.num_points + 2)
        want = chiral_system(mesh, *coeffs) @ x
        assert np.linalg.norm(chiral.apply_real(x) - want) \
            <= 1e-13 * np.linalg.norm(want)

    def test_epsilon1_law_matches_direct_block_lu(self):
        mesh, bg, law, g = krylov_case(*EPSILON1[0])
        sol = solve_perturbed(BackgroundOperator(mesh, bg), law, g)
        u_ref, _ = direct_block_solve(mesh, bg, law, g)
        assert np.linalg.norm(sol.u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
        assert weak_residual(sol) == pytest.approx(sol.residual, rel=1e-12)

    def test_no_full_mesh_assembly(self, monkeypatch):
        mesh, bg, law, g = krylov_case("crossing_inclusion", "case_ii")
        op = BackgroundOperator(mesh, bg)
        assembled = []

        def counting(mesh, coeff, elements=None):
            assembled.append(len(coeff))
            return assemble_stiffness(mesh, coeff, elements)

        monkeypatch.setattr("powergap.solver.assemble_stiffness", counting)
        solve_perturbed(op, law, g)
        n_d = int(mesh.in_d.sum())
        assert 0 < n_d < mesh.num_triangles
        assert assembled == [n_d, n_d]


def assert_power_is_the_quadrature(sol0, sol1):
    """The power of u0 and of u1 against the 3-point rule of u (g - mean),
    their conjugate forms, and u0's g_defect exactly; returns |int g ds|."""
    for sol in (sol0, sol1):
        b, _, _ = boundary_load(sol.mesh, sol.g)
        want, g_total = quadrature_power(sol)
        assert abs(sol.power - want) <= 1e-13 * np.abs(sol.u * b).sum()
        # g is real, so b is, and the conjugate pairing is conj(W) bit for
        # bit
        assert complex((np.conj(sol.u) * b).sum()) == np.conj(sol.power)
        assert free_energy(sol).boundary == np.conj(sol.power)
    assert sol0.diagnostics["g_defect"] == g_total
    return g_total


PAIRED = [(name, "case_ii") for name in SCENES] + [("concentric_disk",
                                                    "case_i")]


@functools.lru_cache(maxsize=None)
def _pairing_operator(outer):
    """A background operator at h = 0.08 on a circle or an ellipse, each
    with an off-centre inclusion."""
    scene = Scene(outer=outer, inclusion=Circle((0.1, -0.05), 0.2))
    return BackgroundOperator(build_mesh(scene, 0.08),
                              isotropic_background(1.0, 1.0))


PAIRING_LAW = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(1.2), lambda1=0.2,
                           varrho=0.5)


class TestPowerPairing:
    @pytest.mark.parametrize("name,case", PAIRED)
    def test_corpus_power_is_the_quadrature(self, name, case):
        # every config of configs/, at its own h
        cfg = parse_config(corpus_config(name, case=case))
        op = corpus_operator(name)
        assert_power_is_the_quadrature(op.solve(cfg.g),
                                       solve_perturbed(op, cfg.law, cfg.g))

    @settings(max_examples=12, deadline=None, derandomize=True,
              database=None)
    @given(ellipse=st.booleans(),
           cos2=st.floats(0.25, 1.0),
           coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    def test_fourier_data_power_is_the_quadrature(self, ellipse, cos2,
                                                  coeffs):
        outer = Ellipse((0.0, 0.0), 1.0, 0.7) if ellipse \
            else Circle((0.0, 0.0), 1.0)
        op = _pairing_operator(outer)
        a1, b1, b2, a3, b3, a4 = coeffs
        g = fourier_data([(1, a1, b1), (2, cos2, b2), (3, a3, b3),
                          (4, a4, 0.0)])
        g_total = assert_power_is_the_quadrature(
            op.solve(g), solve_perturbed(op, PAIRING_LAW, g))
        # on the ellipse cos 2t has a mean, which the load projects out
        assert (g_total > 1e-3) == ellipse


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
        sol = BackgroundOperator(disk_mesh_h05, identity_background).solve(
            fourier_data([(2, 0.0, 0.0)]))
        assert weak_residual(sol) == 0.0

    def test_flux_balance(self, disk_solution):
        fb = flux_balance(disk_solution)
        assert fb["weak"] < 1e-12

    def test_flux_jump_decreases_under_refinement(self, twophase_scene,
                                                  twophase_background,
                                                  cos_data,
                                                  twophase_mesh_h02):
        coarse = build_mesh(twophase_scene, 0.04)
        sol_c = BackgroundOperator(coarse, twophase_background).solve(
            cos_data)
        op = BackgroundOperator(twophase_mesh_h02, twophase_background)
        sol_f = op.solve(cos_data)
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
