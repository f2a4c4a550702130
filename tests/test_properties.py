"""Randomised properties of the power gap over admissible laws and placements.

Laws are drawn inside the region the package's own (se0) and (a0) checks
accept, and every draw is screened by those checks before it is solved.
The mesh is a coarse two-phase disk with the inclusion placed anywhere at
least d0 from the boundary, so it may sit in either component or cross the
interface.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
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
from powergap.coefficients import validate_admissibility
from powergap.energy import verify_identities
from powergap.mesh import build_mesh

from corpus import isotropic_background, isotropic_field

H = 0.06
PROPERTY_SETTINGS = settings(max_examples=12, deadline=None,
                             derandomize=True, database=None)
G = fourier_data([(1, 1.0, 0.0), (2, 0.0, 0.5)])


@st.composite
def scenes(draw):
    """Unit disk, interface at r=0.5, a random inclusion disk."""
    radius = draw(st.floats(0.1, 0.2))
    dist = draw(st.floats(0.0, 0.9 - radius - 0.1))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    center = (dist * math.cos(angle), dist * math.sin(angle))
    return Scene(outer=Circle((0.0, 0.0), 1.0),
                 interface=Circle((0.0, 0.0), 0.5),
                 inclusion=Circle(center, radius), d0=0.1)


@st.composite
def backgrounds(draw):
    return isotropic_background(draw(st.floats(1.0, 2.0)),
                                      draw(st.floats(1.0, 2.0)),
                                      gamma=draw(st.floats(0.0, 0.2)))


@st.composite
def admissible_laws(draw, background: BackgroundTensor):
    """A law in jump case (i) or (ii) against both background components.

    With s0 the two background values, (a0) needs every eigenvalue of
    +-zeta1 at least lo = max|sigma1 - s0| + varrho, and (se0) needs those
    of sigma1 -+ zeta1 in [lambda1, 1/lambda1], so at most
    hi = min(sigma1 - lambda1, 1/lambda1 - sigma1).
    """
    case = draw(st.sampled_from([JumpCase.CASE_I, JumpCase.CASE_II]))
    lambda1 = draw(st.floats(0.1, 0.25))
    varrho = draw(st.floats(0.05, 0.3))
    sigma1 = draw(st.floats(1.5, 3.5))
    s0 = [float(background.m_plus(np.zeros((1, 2)))[0, 0, 0]),
          float(background.m_minus(np.zeros((1, 2)))[0, 0, 0])]
    lo = max(abs(sigma1 - s) for s in s0) + varrho
    hi = min(sigma1 - lambda1, 1.0 / lambda1 - sigma1)
    assume(hi - lo > 1e-3)
    # zeta1 = z I + beta R diag(1, -1) R^T has eigenvalues z +- beta
    beta = draw(st.floats(0.0, 0.45)) * (hi - lo)
    z = lo + beta + draw(st.floats(0.0, 1.0)) * (hi - lo - 2.0 * beta)
    t = draw(st.floats(0.0, math.pi))
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    zeta = z * np.eye(2) + beta * rot @ np.diag([1.0, -1.0]) @ rot.T
    sign = 1.0 if case is JumpCase.CASE_II else -1.0
    law = InclusionLaw(sigma1=isotropic_field(sigma1),
                       zeta1=MatrixField.constant(sign * zeta),
                       lambda1=lambda1, varrho=varrho)
    return case, law


def screened(mesh, background, law):
    """The package's own admissibility verdict on the mesh's samples."""
    c = mesh.centroids
    report = validate_admissibility(
        background, law, c[mesh.comp > 0], c[mesh.comp < 0], c[mesh.in_d],
        comp_d=mesh.comp[mesh.in_d])
    checks = [v for v in report.values() if isinstance(v, dict)]
    return all(v["passed"] for v in checks), report.get("jump_case")


@PROPERTY_SETTINGS
@given(scene=scenes(), background=backgrounds(), data=st.data())
def test_identities_and_sign_over_admissible_laws(scene, background, data):
    case, law = data.draw(admissible_laws(background))
    mesh = build_mesh(scene, H)
    ok, jump_case = screened(mesh, background, law)
    assume(ok)
    assert jump_case == case.value
    op = BackgroundOperator(mesh, background)
    sol0 = op.solve(G)
    sol1 = solve_perturbed(op, law, G)
    rep = verify_identities(sol0, sol1)
    assert rep.max_pairwise_rel <= 1e-9
    for re_dw in (rep.re_dw_boundary, rep.re_dw_id1, rep.re_dw_id2):
        assert (re_dw > 0) == (case is JumpCase.CASE_II)


@PROPERTY_SETTINGS
@given(scene=scenes(), background=backgrounds())
def test_background_law_gives_zero_gap(scene, background):
    # sigma1 follows the background component by component, zeta1 = 0 and
    # epsilon1 is inherited, so the inclusion is no inclusion at all
    def sigma_bg(p):
        return background.sigma(p, scene.component(p))

    law = InclusionLaw(sigma1=MatrixField(sigma_bg, "sigma0"),
                       zeta1=isotropic_field(0.0))
    mesh = build_mesh(scene, H)
    op = BackgroundOperator(mesh, background)
    w0 = op.solve(G).power
    w1 = solve_perturbed(op, law, G).power
    assert abs(w0 - w1) <= 1e-12 * abs(w0)
