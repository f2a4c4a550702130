import dataclasses
import json
import math

import numpy as np
import pytest

from powergap import (
    BackgroundOperator,
    BackgroundTensor,
    Circle,
    InclusionLaw,
    JumpCase,
    MatrixField,
    Scene,
    fourier_data,
    solve_perturbed,
)
from powergap.energy import (
    cg_transform,
    element_cg,
    energy_bracket,
    free_energy,
    grad_energy_inclusion,
    gradient_to_state_matrices,
    power_report,
    state_vectors,
    verify_identities,
)
from powergap.cli import parse_config
from powergap.errors import StructuralError
from powergap.mesh import build_mesh
from powergap.scenarios import size_family

from corpus import CONFIGS, isotropic_background, isotropic_field
from oracles import (
    LayeredDiskSolution,
    basic_pairing_residual,
    constitutive_matrix,
    refined_d_form,
)

GAMMA = 0.05

CASE_II_LAW = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(1.2),
                           lambda1=0.2, varrho=0.5)
CASE_I_LAW = InclusionLaw(sigma1=isotropic_field(1.5),
                          zeta1=isotropic_field(-1.2),
                          lambda1=0.2, varrho=0.5)


@pytest.fixture(scope="module")
def inclusion_setup(cos_data):
    scene = Scene(outer=Circle((0, 0), 1.0), interface=Circle((0, 0), 0.5),
                  inclusion=Circle((0, 0), 0.25))
    mesh = build_mesh(scene, 0.03)
    bg = isotropic_background(1.0, 2.0, gamma=GAMMA)
    op = BackgroundOperator(mesh, bg)
    sol0 = op.solve(cos_data)
    sol_ii = solve_perturbed(sol0, CASE_II_LAW)
    sol_i = solve_perturbed(sol0, CASE_I_LAW)
    return mesh, bg, sol0, sol_ii, sol_i


def oracle_layers(law_sigma, law_zeta):
    return LayeredDiskSolution(
        [0.25, 0.5, 1.0],
        [constitutive_matrix(law_sigma, GAMMA, law_zeta),
         constitutive_matrix(2.0, GAMMA),
         constitutive_matrix(1.0, GAMMA)],
        1, (1.0, 0.0))


class TestBoundaryPower:
    def test_disk_oracle_pi(self, disk_solution):
        assert disk_solution.power.real == pytest.approx(math.pi, rel=1e-3)

    def test_zero_data(self, disk_mesh_h05, identity_background):
        op = BackgroundOperator(disk_mesh_h05, identity_background)
        sol = op.solve(fourier_data([(1, 0.0, 0.0)]))
        assert sol.power == 0.0

    def test_quadratic_scaling(self, disk_mesh_h05, identity_background):
        g1 = fourier_data([(1, 1.0, 0.0)])
        g2 = fourier_data([(1, 2.0, 0.0)])
        op = BackgroundOperator(disk_mesh_h05, identity_background)
        w1 = op.solve(g1).power
        w2 = op.solve(g2).power
        assert w2 == pytest.approx(4.0 * w1, rel=1e-12)


class TestFreeEnergy:
    def test_disk_oracle(self, disk_solution):
        rep = free_energy(disk_solution)
        assert rep.volume.real == pytest.approx(math.pi, rel=1e-3)
        assert rep.volume.imag == pytest.approx(0.0, abs=1e-12)
        assert not rep.flagged

    def test_volume_matches_boundary(self, inclusion_setup):
        _, _, sol0, _, _ = inclusion_setup
        rep = free_energy(sol0)
        assert rep.mismatch < 1e-10

    def test_quadratic_scaling(self, disk_mesh_h05, identity_background):
        op = BackgroundOperator(disk_mesh_h05, identity_background)
        sols = [op.solve(fourier_data([(1, c, 0.0)])) for c in (1.0, 3.0)]
        w = [free_energy(s).volume for s in sols]
        assert w[1] == pytest.approx(9.0 * w[0], rel=1e-12)

    def test_positive_real_part(self, inclusion_setup):
        _, _, sol0, _, _ = inclusion_setup
        assert free_energy(sol0).volume.real > 0


class TestCGTransform:
    def test_identity(self):
        b = cg_transform(np.eye(2)[None], np.zeros((1, 2, 2)))
        assert np.allclose(b[0], np.eye(4))

    def test_scalar_blocks(self):
        b = cg_transform(2.0 * np.eye(2)[None], 1.0 * np.eye(2)[None])[0]
        expect = np.array([[0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5],
                           [0.5, 0, 2.5, 0], [0, 0.5, 0, 2.5]])
        assert np.allclose(b, expect)

    def test_singular_named(self):
        with pytest.raises(StructuralError, match=r"\(se0\)"):
            cg_transform(np.eye(2)[None], np.zeros((1, 2, 2)),
                         -1.0 * np.eye(2)[None])

    def test_round_trip_through_constitutive_relation(self, rng):
        # transforming (Re I, Im grad) reproduces (Re grad, Im I) exactly
        for _ in range(100):
            a = rng.normal(size=(2, 2))
            sigma = np.eye(2) + 0.2 * (a + a.T)
            e = rng.normal(size=(2, 2))
            eps = 0.2 * (e + e.T)
            z = rng.normal(size=(2, 2))
            zeta = 0.3 * (z + z.T)
            if np.linalg.eigvalsh(sigma + zeta)[0] < 0.05:
                continue
            b = cg_transform(sigma[None], eps[None], zeta[None])[0]
            p = rng.normal(size=2) + 1j * rng.normal(size=2)
            cur = (sigma + 1j * eps) @ p + zeta @ np.conj(p)
            v_in = np.concatenate([cur.real, p.imag])
            v_out = b @ v_in
            assert np.allclose(v_out[:2], p.real, atol=1e-12)
            assert np.allclose(v_out[2:], cur.imag, atol=1e-12)

    def test_symmetry_and_positivity_on_fixture(self, inclusion_setup):
        _, _, sol0, sol_ii, _ = inclusion_setup
        for sol in (sol0, sol_ii):
            b = element_cg(sol)
            assert np.abs(b - np.swapaxes(b, 1, 2)).max() < 1e-14
            assert np.linalg.eigvalsh(b)[:, 0].min() > 0


class TestIdentities:
    def test_identical_laws_vanish(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.05)
        bg = isotropic_background(1.0, 2.0, gamma=GAMMA)
        law = InclusionLaw(sigma1=isotropic_field(2.0),
                           zeta1=isotropic_field(0.0),
                           lambda1=0.4, varrho=0.5)
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(cos_data)
        sol1 = solve_perturbed(sol0, law)
        rep = verify_identities(sol0, sol1)
        w0 = abs(sol0.power.real)
        for v in (rep.re_dw_d, rep.re_dw_boundary, rep.re_dw_id1,
                  rep.re_dw_id2):
            assert abs(v) < 1e-10 * w0

    @pytest.mark.parametrize("which", ["case_i", "case_ii"])
    def test_three_ways_agree(self, inclusion_setup, which):
        _, _, sol0, sol_ii, sol_i = inclusion_setup
        rep = verify_identities(sol0, sol_ii if which == "case_ii" else sol_i)
        assert rep.max_pairwise_rel < 1e-3  # in practice ~1e-12

    def test_sign_and_value_against_series_oracle(self, inclusion_setup):
        _, _, sol0, sol_ii, sol_i = inclusion_setup
        orc0 = LayeredDiskSolution(
            [0.5, 1.0],
            [constitutive_matrix(2.0, GAMMA), constitutive_matrix(1.0, GAMMA)],
            1, (1.0, 0.0))
        w0 = orc0.power((1.0, 0.0))
        # conductive (case ii) inclusion: positive gap; resistive: negative
        dw_ii = w0 - oracle_layers(1.5, 1.2).power((1.0, 0.0))
        dw_i = w0 - oracle_layers(1.5, -1.2).power((1.0, 0.0))
        assert dw_ii.real > 0 and dw_i.real < 0
        rep_ii = verify_identities(sol0, sol_ii)
        rep_i = verify_identities(sol0, sol_i)
        assert rep_ii.re_dw_boundary == pytest.approx(dw_ii.real, rel=0.02)
        assert rep_i.re_dw_boundary == pytest.approx(dw_i.real, rel=0.02)

    def test_basic_pairing_all_index_pairs(self, inclusion_setup):
        _, _, sol0, sol_ii, _ = inclusion_setup
        for sj in (sol0, sol_ii):
            for sk in (sol0, sol_ii):
                assert basic_pairing_residual(sj, sk) < 1e-10


D_FORM_SCENES = [json.loads(p.read_text())
                 for p in sorted(CONFIGS.glob("*.json"))] \
    + [doc for i, doc in enumerate(size_family(12)) if i in (0, 3, 8, 11)]


class TestDeltaWDForm:
    @pytest.mark.parametrize("doc", D_FORM_SCENES,
                             ids=lambda doc: doc["label"])
    def test_reported_delta_w_is_the_refined_d_form(self, doc):
        # the D form subtracts nothing, so it follows u1's residual; the
        # boundary form W0 - W1 is off by up to 1.2e-11 on these scenes
        cfg = parse_config(doc)
        mesh = build_mesh(cfg.scene, cfg.values["mesh.h"],
                          cfg.values["mesh.min_angle_deg"])
        op = BackgroundOperator(mesh, cfg.background)
        sol0 = op.solve(cfg.g)
        sol1 = solve_perturbed(sol0, cfg.law)
        got = power_report(sol0, sol1, JumpCase.NONE).as_dict()["delta_w_re"]
        assert got == pytest.approx(refined_d_form(sol0, sol1), rel=1e-13,
                                    abs=0.0)


class TestBracket:
    def test_case_ii(self, inclusion_setup):
        _, _, sol0, sol_ii, _ = inclusion_setup
        br = energy_bracket(sol0, sol_ii, JumpCase.CASE_II,
                            (sol0.power - sol_ii.power).real)
        assert br.re_dw > 0 and br.sign_ok
        assert br.kappa_lo * 0.95 <= br.ratio <= br.kappa_hi * 1.05
        assert br.surrogate_valid

    def test_case_i(self, inclusion_setup):
        _, _, sol0, _, sol_i = inclusion_setup
        br = energy_bracket(sol0, sol_i, JumpCase.CASE_I,
                            (sol0.power - sol_i.power).real)
        assert br.re_dw < 0 and br.sign_ok
        assert br.kappa_lo * 0.95 <= br.ratio <= br.kappa_hi * 1.05

    def test_refuses_case_none(self, inclusion_setup):
        _, _, sol0, sol_ii, _ = inclusion_setup
        with pytest.raises(StructuralError, match=r"\(a0\)"):
            energy_bracket(sol0, sol_ii, JumpCase.NONE, 0.0)

    def test_degenerate_marker(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.05)
        bg = isotropic_background(1.0, 2.0, gamma=GAMMA)
        law = InclusionLaw(sigma1=isotropic_field(2.0),
                           zeta1=isotropic_field(0.0),
                           lambda1=0.4, varrho=0.5)
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(cos_data)
        sol1 = solve_perturbed(sol0, law)
        # force the degenerate path with an inclusion-free tagging clone
        mesh.in_d[:] = False
        try:
            br = energy_bracket(sol0, sol1, JumpCase.CASE_II,
                                (sol0.power - sol1.power).real)
            assert br.degenerate
        finally:
            mesh.in_d[:] = scene.in_inclusion(mesh.centroids)

    def test_monotone_inclusion_response(self, cos_data):
        bg = isotropic_background(1.0, 2.0, gamma=GAMMA)
        energies = []
        for rho in (0.15, 0.2, 0.25):
            scene = Scene(outer=Circle((0, 0), 1.0),
                          interface=Circle((0, 0), 0.5),
                          inclusion=Circle((0, 0), rho))
            mesh = build_mesh(scene, 0.04)
            op = BackgroundOperator(mesh, bg)
            sol0 = op.solve(cos_data)
            sol1 = solve_perturbed(sol0, CASE_II_LAW)
            energies.append(grad_energy_inclusion(sol0))
            br = energy_bracket(sol0, sol1, JumpCase.CASE_II,
                                (sol0.power - sol1.power).real)
            assert br.bracket_ok and br.sign_ok
        assert energies == sorted(energies)

    @pytest.mark.parametrize("epsilon1", [None, 0.04])
    def test_off_d_cg_is_the_background(self, cos_data, epsilon1):
        # case (ii) takes B1's off-D eigenvalues from B0, which holds only if
        # the two laws' CG matrices agree bit for bit off D; here on an
        # affine (Lipschitz) background, with and without the law's own
        # epsilon1
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.05, -0.02), 0.25))
        mesh = build_mesh(scene, 0.06)
        bg = BackgroundTensor(
            m_plus=MatrixField.affine([[1.0, 0.1], [0.1, 1.2]], 0.2, -0.1),
            m_minus=MatrixField.affine(2.0, 0.1, 0.05),
            n_plus=MatrixField.affine(1.0, 0.05, 0.0),
            n_minus=isotropic_field(1.0), gamma=GAMMA)
        law = dataclasses.replace(
            CASE_II_LAW, epsilon1=None if epsilon1 is None
            else isotropic_field(epsilon1))
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(cos_data)
        sol1 = solve_perturbed(sol0, law)
        off = ~mesh.in_d
        assert off.any() and mesh.in_d.any()
        assert np.array_equal(element_cg(sol0)[off], element_cg(sol1)[off])
        assert not np.array_equal(element_cg(sol0)[mesh.in_d],
                                  element_cg(sol1)[mesh.in_d])

    def test_state_matrix_maps_gradient(self, inclusion_setup):
        _, _, sol0, _, _ = inclusion_setup
        t = gradient_to_state_matrices(sol0, slice(None))
        grad = sol0.gradient()
        w = np.concatenate([grad.real, grad.imag], axis=1)
        v = state_vectors(sol0)
        assert np.allclose(np.einsum("mij,mj->mi", t, w), v, atol=1e-12)


class TestPowerReport:
    def test_as_dict_fields(self, inclusion_setup):
        _, _, sol0, sol_ii, _ = inclusion_setup
        rep = power_report(sol0, sol_ii, JumpCase.CASE_II)
        d = rep.as_dict()
        for key in ("w0_re", "w0_im", "w1_re", "w1_im", "delta_w_re",
                    "delta_w_im", "w0_free_re", "w0_free_im",
                    "grad_energy_D", "id_residuals", "kappa_lo", "kappa_hi",
                    "case"):
            assert key in d
        assert d["case"] == "case_ii"

    def test_identities_and_cg_computed_once(self, inclusion_setup,
                                             monkeypatch):
        import powergap.energy as energy
        _, _, sol0, sol_ii, _ = inclusion_setup
        sol0 = dataclasses.replace(sol0, _cg=None)
        sol_ii = dataclasses.replace(sol_ii, _cg=None)
        counts = {"verify_identities": 0, "cg_transform": 0}

        def counting(name):
            fn = getattr(energy, name)

            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in counts:
            monkeypatch.setattr(energy, name, counting(name))
        rep = energy.power_report(sol0, sol_ii, JumpCase.CASE_II)
        assert counts == {"verify_identities": 1, "cg_transform": 2}
        alone = energy_bracket(sol0, sol_ii, JumpCase.CASE_II,
                               rep.identities.re_dw_d)
        assert alone == rep.bracket
