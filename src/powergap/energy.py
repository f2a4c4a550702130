"""Boundary powers, the Cherkaev-Gibiansky transform, and energy identities.

The constitutive relation (Re I, Im grad u) <-> (Re grad u, Im I) is
symmetrized by the 4x4 matrix

    B = [[(s+z)^-1,        (s+z)^-1 e],
         [e (s+z)^-1,  s - z + e (s+z)^-1 e]]

which is positive definite under the boundedness/ellipticity hypothesis.
With v_j = (Re I_j(grad u_j), Im grad u_j) and real boundary data g the
power gap dW = W0 - W1 satisfies, exactly at the discrete level,

    Re dW = int_D (B0 - B1) v0.v1                     (D form)
    Re dW = -int_Omega B0 (v0-v1).(v0-v1) + int_D (B0-B1) v1.v1
    Re dW =  int_Omega B1 (v0-v1).(v0-v1) + int_D (B0-B1) v0.v0

Each W_j is read from its solve, never integrated here: the solve pairs
u with its load, W = u^T b (`Solution.power`). The load b_i is the
boundary rule applied to phi_i (g - mean), so u^T b is that rule applied
to u (g - mean). The boundary form Re (W0 - W1), which `verify_identities`
sets beside the two volume identities above, is so the Galerkin identity
itself: u solves K u + m lambda = b with m^T u = 0, so the volume form
conj(u)^T K u that `free_energy` integrates equals conj(u)^T b up to the
solve's residual. g is real, so b is too, and conj(u)^T b is conj(W)
exactly.

Note the sign convention: under jump case (i) the inclusion is effectively
resistive and Re dW < 0, under case (ii) effectively conductive and
Re dW > 0. (The source derivation displays the two quadratic identities
with inverted signs, which contradicts its own boundary form; the versions
above are the internally consistent ones and are verified here to solver
precision.) The two-sided bracket constants are computed as pointwise
eigenvalue surrogates following the same derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coefficients import JumpCase, _eigvalsh2
from .errors import StructuralError
from .solver import Solution, _element_flux

__all__ = [
    "cg_transform",
    "state_vectors",
    "free_energy",
    "verify_identities",
    "energy_bracket",
    "grad_energy_inclusion",
    "IdentityReport",
    "BracketReport",
    "PowerReport",
    "power_report",
]


def _mul2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of (n, 2, 2) matrix stacks, written out entry by entry."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = x[..., i, 0] * y[..., 0, j] \
                + x[..., i, 1] * y[..., 1, j]
    return out


def cg_transform(sigma: np.ndarray, eps: np.ndarray,
                 zeta: Optional[np.ndarray] = None) -> np.ndarray:
    """4x4 symmetrizing matrices from (m, 2, 2) stacks of sigma, eps and
    zeta; zeta None is zero."""
    z = np.zeros_like(sigma) if zeta is None else zeta
    sz = sigma + z
    lo = _eigvalsh2(sz)[:, 0].min()
    if lo <= 1e-14:
        raise StructuralError(
            "sigma + zeta is singular on a sample; hypothesis (se0) "
            f"violated (min eig {lo:.3e})")
    det = sz[:, 0, 0] * sz[:, 1, 1] - sz[:, 0, 1] * sz[:, 1, 0]
    inv = np.empty_like(sz)
    inv[:, 0, 0] = sz[:, 1, 1] / det
    inv[:, 0, 1] = -sz[:, 0, 1] / det
    inv[:, 1, 0] = -sz[:, 1, 0] / det
    inv[:, 1, 1] = sz[:, 0, 0] / det
    e_inv = _mul2(eps, inv)
    b = np.empty((len(sigma), 4, 4))
    b[:, :2, :2] = inv
    b[:, :2, 2:] = _mul2(inv, eps)
    b[:, 2:, :2] = e_inv
    b[:, 2:, 2:] = sigma - z + _mul2(e_inv, eps)
    return b


def state_vectors(sol: Solution) -> np.ndarray:
    """Per-element v = (Re I(grad u), Im grad u), shape (m, 4)."""
    return np.concatenate([_element_flux(sol).real, sol.gradient().imag],
                          axis=1)


def element_cg(sol: Solution) -> np.ndarray:
    """Per-element 4x4 matrices of the solution's law, computed once per solution."""
    if sol._cg is None:
        sol._cg = cg_transform(sol.sigma_e, sol.eps_e, sol.zeta_e)
        sol._cg.flags.writeable = False
    return sol._cg


def gradient_to_state_matrices(sol: Solution, elements) -> np.ndarray:
    """4x4 map (Re grad u, Im grad u) -> v of the background law on each of
    the given elements (a mask or an index array)."""
    sigma = sol.sigma_e[elements]
    t = np.zeros((len(sigma), 4, 4))
    t[:, :2, :2] = sigma
    t[:, :2, 2:] = -sol.eps_e[elements]
    t[:, 2:, 2:] = np.eye(2)
    return t


# Relative volume-versus-boundary mismatch above which `free_energy` flags W'0.
_MISMATCH_TOL = 1e-6


@dataclass(frozen=True)
class FreeEnergyReport:
    volume: complex
    boundary: complex
    mismatch: float
    flagged: bool


def free_energy(sol: Solution) -> FreeEnergyReport:
    """W'0 as the volume sesquilinear form, cross-checked against the
    boundary form conj(W) (g is real, so its load is too)."""
    grad = sol.gradient()
    cg = np.conj(grad)
    s_part = np.einsum("mij,mj,mi->m", sol.sigma_e.astype(complex), grad, cg)
    e_part = np.einsum("mij,mj,mi->m", sol.eps_e.astype(complex), grad, cg)
    w = sol.mesh.areas
    volume = complex((s_part * w).sum() + 1j * (e_part * w).sum())
    boundary = sol.power.conjugate()
    mismatch = abs(volume - boundary) / max(abs(boundary), 1e-300)
    return FreeEnergyReport(volume=volume, boundary=boundary,
                            mismatch=float(mismatch),
                            flagged=bool(mismatch > _MISMATCH_TOL))


def grad_energy_inclusion(sol: Solution) -> float:
    """int_D |grad u|^2 over the inclusion-tagged elements."""
    d = sol.mesh.in_d
    return float(sol.gradient_density()[d] @ sol.mesh.areas[d])


def _quad_form(b: np.ndarray, v: np.ndarray, w: np.ndarray,
               areas: np.ndarray) -> float:
    """Sum over elements of area * (b v).w."""
    bv = np.einsum("mij,mj->mi", b, v)
    return float((bv * w).sum(axis=1) @ areas)


def _require_same_mesh(sol0: Solution, sol1: Solution):
    if sol0.mesh is not sol1.mesh:
        raise ValueError("both solutions must live on the same mesh")


@dataclass(frozen=True)
class IdentityReport:
    re_dw_boundary: float
    re_dw_id1: float
    re_dw_id2: float
    max_pairwise_rel: float


def verify_identities(sol0: Solution, sol1: Solution) -> IdentityReport:
    """Compute Re dW three ways and report their pairwise agreement."""
    _require_same_mesh(sol0, sol1)
    mesh = sol0.mesh
    areas = mesh.areas
    d = mesh.in_d
    v0, v1 = state_vectors(sol0), state_vectors(sol1)
    b0, b1 = element_cg(sol0), element_cg(sol1)
    re_boundary = (sol0.power - sol1.power).real

    diff = v0 - v1
    id1 = -_quad_form(b0, diff, diff, areas) \
        + _quad_form(b0[d] - b1[d], v1[d], v1[d], areas[d])
    id2 = _quad_form(b1, diff, diff, areas) \
        + _quad_form(b0[d] - b1[d], v0[d], v0[d], areas[d])

    vals = np.array([re_boundary, id1, id2])
    scale = max(np.abs(vals).max(), 1e-300)
    rel = float(np.abs(vals[:, None] - vals[None, :]).max() / scale)
    return IdentityReport(re_dw_boundary=float(re_boundary),
                          re_dw_id1=float(id1), re_dw_id2=float(id2),
                          max_pairwise_rel=rel)


@dataclass(frozen=True)
class BracketReport:
    case: str
    re_dw: float
    grad_energy_d: float
    ratio: float
    kappa_lo: float
    kappa_hi: float
    sign_ok: bool
    bracket_ok: bool
    surrogate_valid: bool
    degenerate: bool
    details: dict = field(default_factory=dict)


def energy_bracket(sol0: Solution, sol1: Solution, case: JumpCase,
                   re_dw: float, tol: float = 0.05) -> BracketReport:
    """Two-sided eigenvalue bracket for |Re dW| / int_D |grad u0|^2.

    re_dw is Re dW of the pair. Case (i) brackets -Re dW, case (ii)
    brackets +Re dW; refuses when no jump case holds, and returns a
    degenerate marker when the inclusion carries no gradient energy
    (identical laws).
    """
    if case is JumpCase.NONE:
        raise StructuralError(
            "energy bracket is only asserted under jump condition (a0) "
            "case (i) or (ii)")
    _require_same_mesh(sol0, sol1)
    d = sol0.mesh.in_d
    denom = grad_energy_inclusion(sol0)
    total = sol0.gradient_energy()
    if denom <= 1e-14 * max(total, 1e-300):
        return BracketReport(case=case.value, re_dw=re_dw, grad_energy_d=denom,
                             ratio=math.nan, kappa_lo=0.0, kappa_hi=0.0,
                             sign_ok=True, bracket_ok=True,
                             surrogate_valid=False, degenerate=True)

    b0, b1 = element_cg(sol0), element_cg(sol1)
    bdiff = (b1[d] - b0[d]) if case is JumpCase.CASE_I else (b0[d] - b1[d])
    eig_diff = np.linalg.eigvalsh(bdiff)
    lam_lo = float(eig_diff[:, 0].min())
    lam_hi = float(eig_diff[:, -1].max())
    surrogate_valid = lam_lo >= -1e-10

    t0 = gradient_to_state_matrices(sol0, d)
    svals = np.linalg.svd(t0, compute_uv=False)
    smin2 = float(svals[:, -1].min()) ** 2
    smax2 = float(svals[:, 0].max()) ** 2

    if case is JumpCase.CASE_I:
        lam_b0 = float(np.linalg.eigvalsh(b0[d])[:, 0].min())
        kappa_lo = 0.5 * min(lam_b0, lam_lo) * smin2
        kappa_hi = lam_hi * smax2
        signed = -re_dw
    else:
        kappa_lo = lam_lo * smin2
        eig_b0 = np.linalg.eigvalsh(b0)
        # off D both laws are the background's, so b1 equals b0 bit for bit
        min_b1 = eig_b0[:, 0].copy()
        min_b1[d] = np.linalg.eigvalsh(b1[d])[:, 0]
        c_hat = float((eig_b0[:, -1] / min_b1).max())
        kappa_hi = (c_hat + 1.0) * lam_hi * smax2
        signed = re_dw

    ratio = abs(re_dw) / denom
    sign_ok = signed > 0
    bracket_ok = (kappa_lo * (1.0 - tol) <= ratio <= kappa_hi * (1.0 + tol))
    return BracketReport(
        case=case.value, re_dw=re_dw, grad_energy_d=denom, ratio=ratio,
        kappa_lo=kappa_lo, kappa_hi=kappa_hi, sign_ok=bool(sign_ok),
        bracket_ok=bool(bracket_ok), surrogate_valid=bool(surrogate_valid),
        degenerate=False,
        details={"lambda_min_diff": lam_lo, "lambda_max_diff": lam_hi,
                 "smin2": smin2, "smax2": smax2})


@dataclass(frozen=True)
class PowerReport:
    """Headline power quantities of one unperturbed/perturbed pair."""

    w0: complex
    w1: complex
    delta_w: complex
    w0_free: complex
    grad_energy_d: float
    identities: IdentityReport
    bracket: Optional[BracketReport]
    case: str

    def as_dict(self) -> dict:
        out = {
            "w0_re": self.w0.real, "w0_im": self.w0.imag,
            "w1_re": self.w1.real, "w1_im": self.w1.imag,
            "delta_w_re": self.delta_w.real, "delta_w_im": self.delta_w.imag,
            "w0_free_re": self.w0_free.real, "w0_free_im": self.w0_free.imag,
            "grad_energy_D": self.grad_energy_d,
            "id_residuals": {
                "boundary": self.identities.re_dw_boundary,
                "id1": self.identities.re_dw_id1,
                "id2": self.identities.re_dw_id2,
                "max_pairwise_rel": self.identities.max_pairwise_rel,
            },
            "case": self.case,
        }
        if self.bracket is not None:
            out["kappa_lo"] = self.bracket.kappa_lo
            out["kappa_hi"] = self.bracket.kappa_hi
            out["ratio"] = self.bracket.ratio
            out["bracket_ok"] = self.bracket.bracket_ok
            out["sign_ok"] = self.bracket.sign_ok
        return out


def power_report(sol0: Solution, sol1: Solution, case: JumpCase,
                 tol: float = 0.05) -> PowerReport:
    w0, w1 = sol0.power, sol1.power
    fe = free_energy(sol0)
    identities = verify_identities(sol0, sol1)
    bracket = None
    if case is not JumpCase.NONE:
        bracket = energy_bracket(sol0, sol1, case, identities.re_dw_boundary,
                                 tol=tol)
    return PowerReport(
        w0=w0, w1=w1, delta_w=w0 - w1, w0_free=fe.volume,
        grad_energy_d=grad_energy_inclusion(sol0),
        identities=identities, bracket=bracket, case=case.value)
