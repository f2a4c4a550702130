"""First-order FEM forward solver for the unperturbed and chiral problems.

The background problem is complex-linear and assembled as one complex
sparse system. The perturbed problem is only real-linear because of the
chiral term, so it is split into real and imaginary parts and assembled as
a 2x2 block system whose blocks are (sigma+zeta, -eps; eps, sigma-zeta)
inside the inclusion and (sigma, -eps; eps, sigma) outside. The zero-mean
constraint is enforced exactly through one scalar Lagrange multiplier per
real component. The background system is factorized by a sparse direct LU.
The block system is solved by GMRES preconditioned with that same complex
LU: outside the inclusion the block system is exactly the real form of the
background operator, so the preconditioned system is the identity plus a
perturbation supported on D and converges in a few tens of iterations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import BackgroundTensor, InclusionLaw
from .errors import SolverError
from .geometry import as_points
from .mesh import Mesh

__all__ = [
    "NeumannData",
    "fourier_data",
    "Solution",
    "BackgroundOperator",
    "solve_background",
    "solve_perturbed",
    "weak_residual",
    "flux_jump_norm",
    "flux_balance",
    "export_solution_csv",
    "element_coefficients",
]

# GMRES on the chiral block system: restart length, restart cycles and
# relative tolerance. rtol=1e-13 sits on the rounding floor and stagnates.
_GMRES_RESTART = 50
_GMRES_MAXITER = 4
_GMRES_RTOL = 1e-12


@dataclass(frozen=True)
class NeumannData:
    """Injected boundary current density g; projected to zero mean on use."""

    fn: Callable
    label: str = "g"

    def raw(self, points) -> np.ndarray:
        return np.asarray(self.fn(as_points(points)))

    def compatibility_defect(self, mesh: Mesh) -> float:
        """|integral of g over the boundary| before projection."""
        total, _, _ = _boundary_moments(mesh, self)
        return abs(total)


def fourier_data(modes, label: Optional[str] = None) -> NeumannData:
    """Boundary data as Fourier modes in the boundary angle.

    modes is a list of (k, cos_coeff, sin_coeff); k >= 1 keeps the
    compatibility integral zero on a circle automatically, and the
    remaining defect on other shapes is projected out by the solver.
    """
    modes = [(int(k), float(a), float(b)) for k, a, b in modes]

    def fn(points):
        p = as_points(points)
        th = np.arctan2(p[:, 1], p[:, 0])
        out = np.zeros(len(p))
        for k, a, b in modes:
            out += a * np.cos(k * th) + b * np.sin(k * th)
        return out

    if label is None:
        label = "+".join(f"{a:g}cos{k}t+{b:g}sin{k}t" for k, a, b in modes)
    return NeumannData(fn, label)


@dataclass
class Solution:
    """Complex nodal field with its solve metadata."""

    mesh: Mesh
    u: np.ndarray
    g: NeumannData
    background: BackgroundTensor
    law: Optional[InclusionLaw]
    multipliers: tuple
    residual: float
    kind: str
    sigma_e: np.ndarray
    eps_e: np.ndarray
    zeta_e: Optional[np.ndarray]
    diagnostics: dict = field(default_factory=dict)
    _grad: Optional[np.ndarray] = None
    # per-element Cherkaev-Gibiansky matrices, filled by energy.element_cg
    _cg: Optional[np.ndarray] = None

    def gradient(self) -> np.ndarray:
        """Per-element complex gradient, shape (m, 2)."""
        if self._grad is None:
            self._grad = self.mesh.gradient_per_element(self.u)
        return self._grad

    def mean_value(self) -> complex:
        return complex(self.mesh.node_mass() @ self.u)

    def evaluate(self, points) -> np.ndarray:
        return self.mesh.interpolate(self.u, points)

    def grad_at(self, points) -> np.ndarray:
        return self.gradient()[self.mesh.locate(points)]


def element_coefficients(mesh: Mesh, background: BackgroundTensor,
                         law: Optional[InclusionLaw] = None):
    """Per-element (sigma, eps, zeta) with the law applied on D elements."""
    c = mesh.centroids
    sigma = background.sigma(c, mesh.comp)
    eps = background.epsilon(c, mesh.comp)
    zeta = None
    if law is not None:
        d = mesh.in_d
        zeta = np.zeros_like(sigma)
        if d.any():
            sigma[d] = law.sigma1(c[d])
            eps[d] = law.epsilon(c[d], background, mesh.comp[d])
            zeta[d] = law.zeta1(c[d])
    return sigma, eps, zeta


def assemble_stiffness(mesh: Mesh, coeff: np.ndarray) -> sp.csr_matrix:
    """Stiffness matrix for int (C grad u).grad v with per-element C."""
    g = mesh.grads
    kloc = np.einsum("mia,mab,mjb->mij", g, coeff, g) \
        * mesh.areas[:, None, None]
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.num_points
    return sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_lower_order(mesh: Mesh, lower) -> sp.csr_matrix:
    """Convection + reaction terms -int (W.grad u) v - int V u v (P1 lumped-free).

    Signs follow moving the terms of div(A grad u) + W.grad u + V u = 0 to
    the left-hand side of the weak form.
    """
    c = mesh.centroids
    w = np.asarray(lower.w(c))
    v = np.asarray(lower.v(c))
    g = mesh.grads
    t = mesh.triangles
    # int_T (W.grad u) phi_i with one-point quadrature: phi_i -> area/3
    wg = np.einsum("md,mjd->mj", w, g)
    conv = -np.repeat(wg[:, None, :], 3, axis=1) * (mesh.areas / 3.0)[:, None, None]
    # int_T V phi_i phi_j with exact P1 mass scaled by centroid V
    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    react = -v[:, None, None] * mass_ref[None, :, :] * mesh.areas[:, None, None]
    loc = conv + react
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.num_points
    return sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _boundary_moments(mesh: Mesh, g: NeumannData):
    """Raw load vector of g, its boundary integral, and the hat integrals."""
    e, nodes, weights, points, lens = mesh.boundary_quadrature()
    raw = np.zeros(mesh.num_points, dtype=complex)
    total = 0.0 + 0.0j
    for q, w, x in zip(nodes, weights, points):
        gv = g.raw(x).astype(complex)
        np.add.at(raw, e[:, 0], w * (1.0 - q) * gv * lens)
        np.add.at(raw, e[:, 1], w * q * gv * lens)
        total += (w * gv * lens).sum()
    phi = np.zeros(mesh.num_points)
    np.add.at(phi, e[:, 0], 0.5 * lens)
    np.add.at(phi, e[:, 1], 0.5 * lens)
    return total, raw, phi


def boundary_load(mesh: Mesh, g: NeumannData):
    """Zero-mean-projected load vector and the subtracted mean."""
    total, raw, phi = _boundary_moments(mesh, g)
    mean = total / phi.sum()
    return raw - mean * phi, mean


def _bordered_factor(k: sp.csr_matrix, m: np.ndarray):
    n = k.shape[0]
    mcol = sp.csr_matrix(m.reshape(n, 1))
    a = sp.bmat([[k, mcol], [mcol.T, None]], format="csc")
    try:
        return spla.splu(a)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"factorization failed: {exc}") from exc


class BackgroundOperator:
    """Factorized unperturbed operator, reusable across boundary data.

    Solves against the shared factorization are serialized internally, so
    instances may be driven from a thread pool.
    """

    def __init__(self, mesh: Mesh, background: BackgroundTensor,
                 lower_order=None):
        self.mesh = mesh
        self.background = background
        self.lower_order = lower_order
        sigma, eps, _ = element_coefficients(mesh, background)
        self.sigma_e, self.eps_e = sigma, eps
        self.k = assemble_stiffness(mesh, sigma + 1j * eps)
        self._lower_matrix = None
        if lower_order is not None:
            self._lower_matrix = assemble_lower_order(mesh, lower_order)
            self.k = self.k + self._lower_matrix
        self.m = mesh.node_mass()
        self._lu = _bordered_factor(self.k, self.m)
        self._solve_lock = threading.Lock()

    def solve_bordered(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse of the bordered operator [[K, m], [m^T, 0]]."""
        with self._solve_lock:
            return self._lu.solve(rhs)

    def solve(self, g: NeumannData) -> Solution:
        b, mean = boundary_load(self.mesh, g)
        rhs = np.concatenate([b, [0.0]]).astype(complex)
        x = self.solve_bordered(rhs)
        u, lam = x[:-1], complex(x[-1])
        res = np.linalg.norm(self.k @ u + self.m * lam - b)
        res /= max(np.linalg.norm(b), 1e-300)
        if not np.isfinite(res) or res > 1e-6:
            raise SolverError(
                f"background solve residual {res:.3e}; system may be "
                "ill-conditioned")
        diagnostics = {"g_mean_offset": complex(mean)}
        if self._lower_matrix is not None:
            diagnostics["lower_order"] = self._lower_matrix
        return Solution(
            mesh=self.mesh, u=u, g=g, background=self.background, law=None,
            multipliers=(lam,), residual=float(res), kind="background",
            sigma_e=self.sigma_e, eps_e=self.eps_e, zeta_e=None,
            diagnostics=diagnostics)


def solve_background(mesh: Mesh, background: BackgroundTensor,
                     g: NeumannData, lower_order=None) -> Solution:
    """Weak solution of div((sigma0 + i eps0) grad u) = 0 with flux data g."""
    return BackgroundOperator(mesh, background, lower_order).solve(g)


def _chiral_system(mesh: Mesh, sigma: np.ndarray, eps: np.ndarray,
                   zeta: Optional[np.ndarray]) -> sp.csr_matrix:
    """Real 2x2 block operator of the chiral problem with its mean borders.

    Unknowns and rows are ordered (Re u, Im u, lambda_re, lambda_im); the
    blocks are (sigma+zeta, -eps; eps, sigma-zeta) per element.
    """
    if zeta is None:
        zeta = np.zeros_like(sigma)
    n = mesh.num_points
    k_eps = assemble_stiffness(mesh, eps)
    mcol = sp.csr_matrix(mesh.node_mass().reshape(n, 1))
    z1 = sp.csr_matrix((n, 1))
    return sp.bmat([[assemble_stiffness(mesh, sigma + zeta), -k_eps, mcol, z1],
                    [k_eps, assemble_stiffness(mesh, sigma - zeta), z1, mcol],
                    [mcol.T, z1.T, None, None],
                    [z1.T, mcol.T, None, None]], format="csr")


def _real_form_preconditioner(op: BackgroundOperator) -> spla.LinearOperator:
    """The complex bordered LU of `op` acting on real block vectors.

    (x_re, x_im, lam_re, lam_im) is solved as (x_re + i x_im, lam_re +
    i lam_im) and split back into real and imaginary parts.
    """
    n = op.mesh.num_points

    def apply(r):
        z = op.solve_bordered(np.concatenate(
            [r[:n] + 1j * r[n:2 * n], [r[2 * n] + 1j * r[2 * n + 1]]]))
        return np.concatenate([z[:n].real, z[:n].imag, [z[n].real, z[n].imag]])

    return spla.LinearOperator((2 * n + 2, 2 * n + 2), matvec=apply,
                               dtype=float)


def solve_perturbed(mesh: Mesh, background: BackgroundTensor,
                    law: InclusionLaw, g: NeumannData,
                    op: Optional[BackgroundOperator] = None) -> Solution:
    """Weak solution of the chiral problem via the real 2x2 block split.

    The bordered block system is solved by restarted GMRES, preconditioned
    by the complex LU of `op`, the background operator on the same mesh
    (built here when not given). The GMRES iteration count and the final
    true relative residual of the whole system land in
    ``diagnostics["krylov_iterations"]`` and ``["krylov_residual"]``; a
    miss of the GMRES tolerance or of the 1e-6 residual gate raises
    SolverError.
    """
    sigma, eps, zeta = element_coefficients(mesh, background, law)
    if mesh.in_d.any():
        d = mesh.in_d
        lo = min(np.linalg.eigvalsh(sigma[d] + zeta[d])[:, 0].min(),
                 np.linalg.eigvalsh(sigma[d] - zeta[d])[:, 0].min())
        if lo <= 1e-12:
            raise SolverError(
                f"block system loses coercivity: min eig(sigma1 +/- zeta1) = "
                f"{lo:.3e} (hypothesis (se0))")
    if op is None:
        op = BackgroundOperator(mesh, background)
    elif op.mesh is not mesh:
        raise ValueError("the background operator lives on another mesh")

    n = mesh.num_points
    a = _chiral_system(mesh, sigma, eps, zeta)
    b, mean = boundary_load(mesh, g)
    rhs = np.concatenate([b.real, b.imag, [0.0, 0.0]])
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = spla.gmres(a, rhs, rtol=_GMRES_RTOL, atol=0.0,
                         restart=_GMRES_RESTART, maxiter=_GMRES_MAXITER,
                         M=_real_form_preconditioner(op), callback=count,
                         callback_type="pr_norm")
    r = a @ x - rhs
    bnorm = max(np.linalg.norm(b), 1e-300)
    krylov_res = float(np.linalg.norm(r) / bnorm)  # |rhs| = |b|
    res = float(np.linalg.norm(r[:2 * n]) / bnorm)
    if info != 0 or not np.isfinite(krylov_res) or res > 1e-6:
        raise SolverError(
            f"perturbed GMRES failed (info {info}): {iterations} iterations, "
            f"true relative residual {krylov_res:.3e}")
    return Solution(
        mesh=mesh, u=x[:n] + 1j * x[n:2 * n], g=g, background=background,
        law=law, multipliers=(float(x[-2]), float(x[-1])), residual=res,
        kind="perturbed", sigma_e=sigma, eps_e=eps, zeta_e=zeta,
        diagnostics={"g_mean_offset": complex(mean),
                     "krylov_iterations": iterations,
                     "krylov_residual": krylov_res})


def _load_residual(sol: Solution):
    """K u + m lambda - b per basis test function, and the load b.

    K is the operator the solution was solved with: the background
    operator with its lower-order terms, or the chiral block system, whose
    Re and Im rows are recombined into one complex residual.
    """
    mesh = sol.mesh
    b, _ = boundary_load(mesh, sol.g)
    if sol.kind == "background":
        k = assemble_stiffness(mesh, sol.sigma_e + 1j * sol.eps_e)
        if sol.diagnostics.get("lower_order") is not None:
            k = k + sol.diagnostics["lower_order"]
        return k @ sol.u + mesh.node_mass() * sol.multipliers[0] - b, b
    n = mesh.num_points
    a = _chiral_system(mesh, sol.sigma_e, sol.eps_e, sol.zeta_e)
    r = a @ np.concatenate([sol.u.real, sol.u.imag, sol.multipliers])
    return r[:n] + 1j * r[n:2 * n] - b, b


def weak_residual(sol: Solution) -> float:
    """Discrete residual against all basis test functions, relative to the load."""
    r, b = _load_residual(sol)
    return float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))


def export_solution_csv(sol: Solution, prefix) -> list:
    """Write vertex/triangle/field tables for external plotting.

    Creates three files: <prefix>_vertices.csv (x, y), <prefix>_triangles.csv
    (v0, v1, v2, component, in_inclusion), <prefix>_field.csv
    (vertex, u_re, u_im). Returns the paths written.
    """
    import csv
    from pathlib import Path

    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    mesh = sol.mesh
    paths = []
    p = prefix.with_name(prefix.name + "_vertices.csv")
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        w.writerows(mesh.points.tolist())
    paths.append(p)
    p = prefix.with_name(prefix.name + "_triangles.csv")
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["v0", "v1", "v2", "component", "in_inclusion"])
        for tri, comp, ind in zip(mesh.triangles, mesh.comp, mesh.in_d):
            w.writerow([*tri.tolist(), int(comp), int(ind)])
    paths.append(p)
    p = prefix.with_name(prefix.name + "_field.csv")
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vertex", "u_re", "u_im"])
        for i, val in enumerate(sol.u):
            w.writerow([i, val.real, val.imag])
    paths.append(p)
    return paths


def _element_flux(sol: Solution) -> np.ndarray:
    """Per-element complex current I(grad u), chiral term included on D."""
    grad = sol.gradient()
    a = sol.sigma_e.astype(complex) + 1j * sol.eps_e
    flux = np.einsum("mij,mj->mi", a, grad)
    if sol.zeta_e is not None:
        flux = flux + np.einsum("mij,mj->mi", sol.zeta_e.astype(complex),
                                np.conj(grad))
    return flux


def flux_jump_norm(sol: Solution) -> float:
    """L2 norm over the interface of the normal-flux jump (weak, per edge)."""
    mesh = sol.mesh
    if len(mesh.interface_edges) == 0:
        return 0.0
    flux = _element_flux(sol)
    e = mesh.interface_edges
    a, b = mesh.points[e[:, 0]], mesh.points[e[:, 1]]
    tangent = b - a
    lens = np.linalg.norm(tangent, axis=1)
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / lens[:, None]
    f_plus = flux[mesh.interface_tris[:, 0]]
    f_minus = flux[mesh.interface_tris[:, 1]]
    jump = np.einsum("ei,ei->e", (f_plus - f_minus), normal.astype(complex))
    return float(np.sqrt((np.abs(jump) ** 2 * lens).sum()))


def flux_balance(sol: Solution) -> dict:
    """Weak and geometric flux balance over the outer boundary."""
    mesh = sol.mesh
    weak = complex(_load_residual(sol)[0].sum())
    # geometric version: element fluxes through boundary edges vs applied g
    loop = mesh.boundary_loop()
    pts = mesh.points
    flux = _element_flux(sol)
    a = pts[loop]
    c = pts[np.roll(loop, -1)]
    t = c - a
    lens = np.linalg.norm(t, axis=1)
    normals = np.column_stack([t[:, 1], -t[:, 0]]) / lens[:, None]
    mids = 0.5 * (a + c)
    els = mesh.locate(mids - 1e-8 * normals)
    total = complex(np.einsum("ei,ei->e", flux[els],
                              normals.astype(complex)) @ lens)
    g_total = complex(np.asarray(sol.g.raw(mids)).astype(complex) @ lens)
    return {"weak": abs(weak), "geometric": abs(total - g_total)}
