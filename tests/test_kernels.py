"""Closed-form 2x2 kernels against their LAPACK forms.

The eigenvalues of symmetric 2x2 matrices and the Cherkaev-Gibiansky
transform are computed in closed form; the references in `oracles` compute
the same quantities with LAPACK's eigvalsh, inv and matmul. The bracket's
case (ii) constant takes the inclusion law's 4x4 eigenvalues on D only,
which must give the all-element value bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from powergap.coefficients import _eigvalsh2
from powergap.energy import cg_transform, element_cg, energy_bracket
from powergap.mesh import build_mesh

from corpus import isotropic_field
from oracles import lapack_cg_transform, lapack_eigvalsh2

KERNEL_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                           database=None)
KINDS = ("definite", "indefinite", "negative", "zero", "diagonal", "equal")


def rotated(l1: float, l2: float, angle: float) -> np.ndarray:
    """R diag(l1, l2) R^T with an exactly symmetric off-diagonal."""
    c, s = math.cos(angle), math.sin(angle)
    a = c * c * l1 + s * s * l2
    d = s * s * l1 + c * c * l2
    b = c * s * (l1 - l2)
    return np.array([[a, b], [b, d]])


@st.composite
def symmetric_2x2(draw):
    kind = draw(st.sampled_from(KINDS))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    mag = st.floats(1e-3, 1.0)
    angle = draw(st.floats(0.0, math.pi))
    if kind == "zero":
        return np.zeros((2, 2))
    if kind == "equal":
        return scale * draw(st.sampled_from((-1.0, 1.0))) * draw(mag) \
            * np.eye(2)
    if kind == "diagonal":
        return scale * np.diag([draw(st.floats(-1.0, 1.0)),
                                draw(st.floats(-1.0, 1.0))])
    l1, l2 = draw(mag), draw(mag)
    if kind == "indefinite":
        l2 = -l2
    elif kind == "negative":
        l1, l2 = -l1, -l2
    return scale * rotated(l1, l2, angle)


@st.composite
def admissible_triples(draw):
    """(sigma, eps, zeta) with the eigenvalues of sigma + zeta in [0.1, 10]."""
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    spectrum = st.floats(0.1, 10.0)
    angle = st.floats(0.0, math.pi)
    sz = rotated(draw(spectrum), draw(spectrum), draw(angle))
    zeta = rotated(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)),
                   draw(angle))
    eps = rotated(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)),
                  draw(angle))
    return scale * (sz - zeta), scale * eps, scale * zeta


class TestEigenvalues:
    @KERNEL_SETTINGS
    @given(st.lists(symmetric_2x2(), min_size=1, max_size=8))
    def test_matches_lapack(self, mats):
        mats = np.array(mats)
        got, want = _eigvalsh2(mats), lapack_eigvalsh2(mats)
        assert (got[:, 0] <= got[:, 1]).all()
        bound = 1e-14 * np.abs(want).max(axis=1)
        assert (np.abs(got - want).max(axis=1) <= bound).all()

    def test_traceless_and_zero(self):
        mats = np.array([[[0.0, 0.0], [0.0, 0.0]],
                         [[3.0, 4.0], [4.0, -3.0]],
                         [[-0.0, 2.0], [2.0, 0.0]]])
        assert _eigvalsh2(mats).tolist() == [[0.0, 0.0], [-5.0, 5.0],
                                             [-2.0, 2.0]]

    def test_reads_the_lower_triangle(self):
        # as eigvalsh does: the upper off-diagonal entry is ignored
        mat = np.array([[[2.0, 99.0], [1.0, 2.0]]])
        assert _eigvalsh2(mat).tolist() == [[1.0, 3.0]]


class TestCGTransformClosedForm:
    @KERNEL_SETTINGS
    @given(st.lists(admissible_triples(), min_size=1, max_size=8))
    def test_matches_lapack(self, triples):
        sigma, eps, zeta = (np.array(x) for x in zip(*triples))
        got = cg_transform(sigma, eps, zeta)
        want = lapack_cg_transform(sigma, eps, zeta)
        # each 2x2 block against its own size, so that the 1/scale inverse
        # is not measured against the scale-sized lower block
        for rows in (slice(0, 2), slice(2, 4)):
            for cols in (slice(0, 2), slice(2, 4)):
                g, w = got[:, rows, cols], want[:, rows, cols]
                size = np.abs(w).max(axis=(1, 2))
                assert (np.abs(g - w).max(axis=(1, 2)) <= 1e-14 * size).all()


class TestBracketConstant:
    def test_case_ii_c_hat_bitwise(self):
        # a spatially varying background, so the eigenvalue ratio varies
        # from element to element off D as well as on it
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.1, 0.0), 0.2))
        mesh = build_mesh(scene, 0.06)
        bg = BackgroundTensor(
            m_plus=MatrixField.affine(1.0, [[0.2, 0.1], [0.1, 0.0]], 0.1),
            m_minus=MatrixField.affine(1.8, 0.1, [[0.0, 0.1], [0.1, 0.3]]),
            n_plus=isotropic_field(1.0),
            n_minus=MatrixField.affine(1.0, 0.2, 0.0), gamma=0.05)
        law = InclusionLaw(sigma1=isotropic_field(1.5),
                           zeta1=isotropic_field(1.2),
                           lambda1=0.2, varrho=0.5)
        g = fourier_data([(1, 1.0, 0.0)])
        op = BackgroundOperator(mesh, bg)
        sol0 = op.solve(g)
        sol1 = solve_perturbed(op, law, g)
        b0, b1 = element_cg(sol0), element_cg(sol1)
        d = mesh.in_d
        assert np.array_equal(b0[~d], b1[~d])

        br = energy_bracket(sol0, sol1, JumpCase.CASE_II)
        c_hat = float((np.linalg.eigvalsh(b0)[:, -1]
                       / np.linalg.eigvalsh(b1)[:, 0]).max())
        assert br.kappa_hi == (c_hat + 1.0) * br.details["lambda_max_diff"] \
            * br.details["smax2"]
