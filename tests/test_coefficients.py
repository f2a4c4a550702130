import numpy as np
import pytest

from powergap import (
    InclusionLaw,
    JumpCase,
    MatrixField,
    check_ellipticity,
    check_epsilon_closeness,
    check_jump_condition,
    estimate_lipschitz,
    validate_admissibility,
)
from powergap.errors import StructuralError

from corpus import isotropic_background, isotropic_field
from oracles import ohm_apply


SAMPLES = np.array([[0.0, 0.0], [0.3, -0.2], [0.7, 0.1], [-0.5, 0.4]])


class TestEllipticity:
    def test_identity_passes(self):
        rep = check_ellipticity(isotropic_field(1.0), SAMPLES, 0.5)
        assert rep.passed
        assert rep.eig_min == pytest.approx(1.0)
        assert rep.eig_max == pytest.approx(1.0)

    def test_exactly_at_bounds(self):
        fld = MatrixField.constant(np.diag([2.0, 0.5]))
        rep = check_ellipticity(fld, SAMPLES, 0.5)
        assert rep.passed

    def test_fail_with_witness(self):
        fld = MatrixField.constant(np.diag([3.0, 1.0]))
        rep = check_ellipticity(fld, SAMPLES, 0.5)
        assert not rep.passed
        assert rep.eig_max == pytest.approx(3.0)

    def test_symmetry_violation_is_structural(self):
        fld = MatrixField.constant(np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(StructuralError, match="symmetry"):
            check_ellipticity(fld, SAMPLES, 0.5)

    def test_scale_awareness(self):
        base = MatrixField.constant(np.diag([1.0, 0.8]))
        scaled = MatrixField.constant(3.0 * np.diag([1.0, 0.8]))
        r1 = check_ellipticity(base, SAMPLES, 0.5)
        r2 = check_ellipticity(scaled, SAMPLES, 0.5)
        assert r2.eig_min == pytest.approx(3.0 * r1.eig_min)
        assert r2.eig_max == pytest.approx(3.0 * r1.eig_max)


class TestLipschitz:
    def test_constant_field_zero(self, rng):
        a = rng.random((50, 2))
        b = rng.random((50, 2))
        assert estimate_lipschitz(isotropic_field(2.0), a, b) == 0.0

    def test_linear_field(self, rng):
        fld = MatrixField.affine(0.0, 1.0, 0.0)  # x * Id
        a = rng.random((200, 2))
        b = rng.random((200, 2))
        est = estimate_lipschitz(fld, a, b)
        # |T(x)-T(y)|_F = sqrt(2) |x1-y1| <= sqrt(2) |x-y|
        assert est <= np.sqrt(2.0) + 1e-12
        aligned = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        est2 = estimate_lipschitz(fld, aligned[:-1], aligned[1:])
        assert est2 == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(isotropic_field(1.0),
                               np.empty((0, 2)), np.empty((0, 2)))

    def test_piecewise_per_side_ignores_jump(self, rng):
        # per-side sampling never pairs across the interface, so the
        # estimate stays bounded no matter the jump size
        bg = isotropic_background(1.0, 100.0)
        plus = np.column_stack([rng.uniform(0.6, 0.9, 100),
                                rng.uniform(-0.1, 0.1, 100)])
        est = estimate_lipschitz(bg.m_plus, plus[:-1], plus[1:])
        assert est == 0.0
        minus = 0.3 * plus
        est_m = estimate_lipschitz(bg.m_minus, minus[:-1], minus[1:])
        assert est_m == 0.0


class TestJumpCondition:
    def test_case_i_example(self):
        n = len(SAMPLES)
        s0 = np.broadcast_to(np.eye(2), (n, 2, 2))
        s1 = np.broadcast_to(2.0 * np.eye(2), (n, 2, 2))
        z1 = np.broadcast_to(-2.0 * np.eye(2), (n, 2, 2))
        assert check_jump_condition(s0, s1, z1, 0.5) is JumpCase.CASE_I

    def test_case_ii_example(self):
        n = len(SAMPLES)
        s0 = np.broadcast_to(np.eye(2), (n, 2, 2))
        s1 = np.broadcast_to(2.0 * np.eye(2), (n, 2, 2))
        z1 = np.broadcast_to(2.0 * np.eye(2), (n, 2, 2))
        assert check_jump_condition(s0, s1, z1, 0.5) is JumpCase.CASE_II

    def test_none_for_zero_chirality(self):
        n = len(SAMPLES)
        s0 = np.broadcast_to(np.eye(2), (n, 2, 2))
        z1 = np.zeros((n, 2, 2))
        assert check_jump_condition(s0, s0, z1, 0.5) is JumpCase.NONE

    def test_mirror_symmetry(self, rng):
        # negating zeta and swapping the sub-inequalities swaps the cases
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            s0 = np.eye(2)[None] + 0.1 * (a + a.T)[None]
            s1 = s0 + rng.uniform(-0.3, 0.3) * np.eye(2)[None]
            z = (2.0 + rng.random()) * np.eye(2)[None]
            rho = 0.3
            case = check_jump_condition(s0, s1, z, rho)
            mirrored = check_jump_condition(s0, s1, -z, rho)
            if case is JumpCase.CASE_II:
                assert mirrored is JumpCase.CASE_I
            if case is JumpCase.CASE_I:
                assert mirrored is JumpCase.CASE_II


class TestEpsilonCloseness:
    def test_equal_fields(self):
        e = np.broadcast_to(0.3 * np.eye(2), (5, 2, 2))
        assert check_epsilon_closeness(e, e, 0.0)

    def test_beyond_tolerance(self):
        e0 = np.broadcast_to(np.zeros((2, 2)), (5, 2, 2))
        e1 = np.broadcast_to(0.01 * np.eye(2), (5, 2, 2))
        assert not check_epsilon_closeness(e0, e1, 0.005)

    def test_within_tolerance(self):
        e0 = np.broadcast_to(np.zeros((2, 2)), (5, 2, 2))
        e1 = np.broadcast_to(0.01 * np.eye(2), (5, 2, 2))
        assert check_epsilon_closeness(e0, e1, 0.02)


class TestOhmApply:
    def test_plain_background(self):
        out = ohm_apply(np.eye(2), np.zeros((2, 2)), None,
                        np.array([1.0, 1j]))
        assert np.allclose(out, [1.0, 1j])

    def test_chiral_real_gradient_doubles(self):
        out = ohm_apply(np.eye(2), np.zeros((2, 2)), np.eye(2),
                        np.array([1.0, 0.0]))
        assert np.allclose(out, [2.0, 0.0])

    def test_chiral_imaginary_gradient_cancels(self):
        out = ohm_apply(np.eye(2), np.zeros((2, 2)), np.eye(2),
                        np.array([1j, 0.0]))
        assert np.allclose(out, [0.0, 0.0])

    def test_real_linear_not_complex_linear(self, rng):
        sigma = np.eye(2)
        zeta = 0.5 * np.eye(2)
        eps = 0.1 * np.eye(2)
        for _ in range(20):
            p = rng.normal(size=2) + 1j * rng.normal(size=2)
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            a, b = rng.normal(), rng.normal()
            lin = ohm_apply(sigma, eps, zeta, a * p + b * q)
            assert np.allclose(lin, a * ohm_apply(sigma, eps, zeta, p)
                               + b * ohm_apply(sigma, eps, zeta, q))
            rot = ohm_apply(sigma, eps, zeta, 1j * p)
            assert not np.allclose(rot, 1j * ohm_apply(sigma, eps, zeta, p))


class TestAdmissibility:
    def test_valid_fixture_passes(self):
        bg = isotropic_background(1.0, 2.0, gamma=0.05)
        law = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(1.2),
                           lambda1=0.2, varrho=0.5)
        rep = validate_admissibility(bg, law, SAMPLES, SAMPLES, SAMPLES)
        assert rep["jump_case"] == "case_ii"
        assert all(v["passed"] for k, v in rep.items()
                   if isinstance(v, dict))

    def test_se0_violation_named(self):
        bg = isotropic_background(1.0, 2.0, gamma=0.05)
        law = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(1.2),
                           lambda1=0.9, varrho=0.5)
        rep = validate_admissibility(bg, law, SAMPLES, SAMPLES, SAMPLES)
        failed = [k for k, v in rep.items()
                  if isinstance(v, dict) and not v["passed"]]
        # (se0) is named, and it is the only hypothesis that fails
        assert failed == ["(se0):sigma1+-zeta1"]
