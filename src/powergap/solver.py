"""First-order FEM forward solver for the unperturbed and chiral problems.

The background problem is complex-linear and assembled as one complex
sparse system K0, bordered by the node-mass row m that enforces zero mean
through one complex Lagrange multiplier, and factorized by a sparse direct
LU. The LU takes the nodes in a nested-dissection order of the mesh
(George, SIAM J. Numer. Anal. 10, 1973), with the border row second to
last, and pivots on the diagonal only: K0's real part is the sigma
stiffness, positive definite once one node is left out, so every pivot is
nonzero (`_bordered_factor`). At h = 0.0075 that is 5.9 M fill, against
10.3 M under splu's default COLAMD with partial pivoting.

The perturbed problem is only real-linear because of the chiral term. Its
operator is applied in complex form,

    K0 u + K_delta u + K_zeta conj(u) + m lambda,

where K_delta, with coefficient (sigma1 - sigma0) + i (eps1 - eps0), and
K_zeta are assembled over the inclusion's elements only, so the background
stiffness is reused and never assembled again. The two laws differ only on
D, so u1 is u0 corrected on the nodes of D's elements, S: u1 = u0 + P w,
with P the bordered background LU solve and w on S. With E u = K_delta u
+ K_zeta conj(u), the correction solves (I + E P) w = -E u0 on S, the
identity plus a perturbation supported on D. GMRES runs on its 2|S| real
unknowns (Re w, Im w) and converges in a few tens of iterations, the
capacitance-matrix method (Proskurowski & Widlund, Math. Comp. 30, 1976).
One refinement step on the whole bordered system then removes u0's own LU
rounding, which a correction on S cannot reach.

Every solve pairs its solution with its load. The load b of boundary
data g is the Galerkin vector b_i = int phi_i (g - mean) ds on the
boundary's 3-point rule, with the mean projected out so that the pure
Neumann problem is compatible (`boundary_load`, one pass of g). The
discrete boundary power is then W = u^T b = int u (g - mean) ds
(`Solution.power`), set once by the solve that holds b; no later stage
integrates the boundary again.

`BackgroundOperator` is the one way into the solver: it assembles and
factorizes the background once, `op.solve(g)` gives u0, and
`solve_perturbed(sol0, law)` gives u1 with u0's data, mesh, background
and factorization. The LU is the largest object a run holds (about
200 MB of fill at h = 0.0075). A run's solve stage makes every LU solve
it needs, u0, the GMRES for u1 and the three-region family, and then
releases the factorization (`BackgroundOperator.release`). K0 and m stay, so residuals
and flux balances keep working, and a later solve raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import BackgroundTensor, InclusionLaw, _eigvalsh2
from .errors import SolverError
from .geometry import as_points
from .mesh import Mesh

__all__ = [
    "NeumannData",
    "fourier_data",
    "Solution",
    "BackgroundOperator",
    "solve_perturbed",
    "flux_jump_norm",
    "flux_balance",
    "export_solution_csv",
    "element_coefficients",
    "inclusion_coefficients",
]

# GMRES on the correction over D's nodes: restart length, restart cycles and
# relative tolerance. rtol=1e-13 sits on the rounding floor and stagnates.
_GMRES_RESTART = 50
_GMRES_MAXITER = 4
_GMRES_RTOL = 1e-12

# most nodes a set of the nested dissection holds without being cut
_LEAF = 64


@dataclass(frozen=True)
class NeumannData:
    """Injected boundary current density g; projected to zero mean on use."""

    fn: Callable
    label: str = "g"

    def raw(self, points) -> np.ndarray:
        return np.asarray(self.fn(as_points(points)))


def fourier_data(modes) -> NeumannData:
    """Boundary data as Fourier modes in the boundary angle.

    modes is a list of (k, cos_coeff, sin_coeff); k >= 1 keeps the
    compatibility integral zero on a circle automatically, and the
    remaining defect on other shapes is projected out by the solver. The
    label lists the modes, as in ``1cos1t+0sin1t``.
    """
    modes = [(int(k), float(a), float(b)) for k, a, b in modes]

    def fn(points):
        p = as_points(points)
        th = np.arctan2(p[:, 1], p[:, 0])
        out = np.zeros(len(p))
        for k, a, b in modes:
            out += a * np.cos(k * th) + b * np.sin(k * th)
        return out

    return NeumannData(fn, "+".join(f"{a:g}cos{k}t+{b:g}sin{k}t"
                                    for k, a, b in modes))


@dataclass
class Solution:
    """Complex nodal field with its solve metadata."""

    mesh: Mesh
    u: np.ndarray
    g: NeumannData
    background: BackgroundTensor
    law: Optional[InclusionLaw]
    # the zero-mean Lagrange multiplier
    multiplier: complex
    residual: float
    # W = u^T b with the load b, the discrete boundary power int u g ds;
    # a numpy sum, as a BLAS dot can depend on the BLAS build and threads
    power: complex
    sigma_e: np.ndarray
    eps_e: np.ndarray
    zeta_e: Optional[np.ndarray]
    diagnostics: dict = field(default_factory=dict)
    # the operator solved with; operator.apply(u, lam) gives K u + m lam
    operator: object = None
    _grad: Optional[np.ndarray] = None
    # per-element Cherkaev-Gibiansky matrices, filled by energy.element_cg
    _cg: Optional[np.ndarray] = None

    def gradient(self) -> np.ndarray:
        """Per-element complex gradient, shape (m, 2)."""
        if self._grad is None:
            self._grad = self.mesh.gradient_per_element(self.u)
        return self._grad

    def gradient_density(self) -> np.ndarray:
        """Per-element |grad u|^2, shape (m,)."""
        return (np.abs(self.gradient()) ** 2).sum(axis=1)

    def gradient_energy(self) -> float:
        """int |grad u|^2 over the mesh."""
        return float(self.gradient_density() @ self.mesh.areas)


def element_coefficients(mesh: Mesh, background: BackgroundTensor):
    """Per-element (sigma, eps) of the background law."""
    c = mesh.centroids
    return background.sigma(c, mesh.comp), background.epsilon(c, mesh.comp)


def inclusion_coefficients(mesh: Mesh, background: BackgroundTensor,
                           law: InclusionLaw, sigma: np.ndarray,
                           eps: np.ndarray):
    """Per-element (sigma, eps, zeta) with the law applied on D elements:
    copies of the background's sigma and eps, given, with the law's on D's
    rows, and zeta, zero off D."""
    d, c = mesh.in_d, mesh.centroids
    sigma, eps, zeta = sigma.copy(), eps.copy(), np.zeros_like(sigma)
    if d.any():
        sigma[d] = law.sigma1(c[d])
        eps[d] = law.epsilon(c[d], background, mesh.comp[d])
        zeta[d] = law.zeta1(c[d])
    return sigma, eps, zeta


def assemble_stiffness(mesh: Mesh, coeff: np.ndarray,
                       elements=None) -> sp.csr_matrix:
    """Stiffness matrix for int (C grad u).grad v with per-element C.

    `elements` (a mask or index array) restricts the integral to those
    elements; `coeff` then holds one C per selected element.
    """
    g, areas, t = mesh.grads, mesh.areas, mesh.triangles
    if elements is not None:
        g, areas, t = g[elements], areas[elements], t[elements]
    kloc = np.einsum("mia,mab,mjb->mij", g, coeff, g) * areas[:, None, None]
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.num_points
    return sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def boundary_load(mesh: Mesh, g: NeumannData):
    """Zero-mean-projected load vector b of g, the subtracted mean, and
    |integral of g over the boundary| before projection.

    One pass of the boundary quadrature gives all three: b_i is the 3-point
    rule of phi_i (g - mean) on each boundary edge, with mean the integral
    of g over the boundary's length.
    """
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
    mean = total / phi.sum()
    return raw - mean * phi, mean, abs(total)


def _dissection_order(points: np.ndarray, k: sp.csr_matrix) -> np.ndarray:
    """George's nested dissection of the nodes by coordinate bisection.

    A set of more than `_LEAF` nodes is cut at the median of its longer
    coordinate extent (x on a tie); nodes with c <= median go left. Its
    separator is the set of left nodes with a K0 neighbour on the right.
    The order holds the left nodes less the separator, dissected, then the
    right nodes, dissected, then the separator. A leaf, or a set with no
    node right of its median, keeps its nodes in index order, as does a
    separator.

    The sets are visited depth first from an explicit stack. A nested
    function that calls itself would be a reference cycle, holding its
    arrays until the cycle collector runs; that raised fine_solve's
    peak_rss_mb by about 13 MB.
    """
    indptr, indices = k.indptr, k.indices
    degree = np.diff(indptr)
    right = np.zeros(len(points), dtype=bool)
    order, todo = [], [np.arange(len(points))]
    while todo:
        nodes = todo.pop()
        if isinstance(nodes, tuple):  # a separator, after both its halves
            order.append(nodes[0])
            continue
        if len(nodes) > _LEAF:
            p = points[nodes]
            extent = p.max(axis=0) - p.min(axis=0)
            c = p[:, 0] if extent[0] >= extent[1] else p[:, 1]
            left = c <= np.median(c)
            if not left.all():
                lo, hi = nodes[left], nodes[~left]
                # the K0 row of each left node, flagged where it meets the right
                ends = np.cumsum(degree[lo])
                row_at = ends - degree[lo]
                at = np.arange(ends[-1]) + np.repeat(indptr[lo] - row_at,
                                                     degree[lo])
                right[hi] = True
                sep = np.logical_or.reduceat(right[indices[at]], row_at)
                right[hi] = False
                todo += [(lo[sep],), hi, lo[~sep]]
                continue
        order.append(nodes)
    return np.concatenate(order)


class _BorderedLU:
    """The bordered LU, factored in a permuted order; `solve` takes and
    returns vectors in the system's own order."""

    def __init__(self, lu, perm: np.ndarray):
        self.lu, self.perm = lu, perm

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self.lu.solve(rhs[self.perm])
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def _permuted_bordered(k: sp.csr_matrix, m: np.ndarray,
                       perm: np.ndarray) -> sp.csc_matrix:
    """[[K, m], [m^T, 0]] with its rows and columns taken in the order
    `perm`, built once from K's COO indices."""
    n = k.shape[0]
    at = np.empty(n + 1, dtype=np.intp)
    at[perm] = np.arange(n + 1)
    rows = np.repeat(at[:n], np.diff(k.indptr))
    border = np.full(n, at[n])
    return sp.csc_matrix(
        (np.concatenate([k.data, m, m]),
         (np.concatenate([rows, at[:n], border]),
          np.concatenate([at[k.indices], border, at[:n]]))),
        shape=(n + 1, n + 1))


def _bordered_factor(k: sp.csr_matrix, m: np.ndarray,
                     points: np.ndarray) -> _BorderedLU:
    """LU of the bordered system [[K0, m], [m^T, 0]], without pivoting.

    The nodes come in `_dissection_order` and the border row goes second
    to last, before the order's last node. SuperLU keeps that order
    (NATURAL, symmetric mode; its postorder of the elimination tree leaves
    the border and that node last, as the border row is full) and takes
    every diagonal pivot. Each pivot is nonzero in exact arithmetic. K0 less its last node has a positive
    definite real part (the sigma stiffness with one node pinned), so
    Gaussian elimination on it needs no pivoting (Higham, Math. Comp. 67,
    1998). The border's pivot -m^T K^-1 m then has a negative real part,
    and the whole bordered matrix is nonsingular, so the last pivot is
    nonzero too. With the border last instead, the last node's pivot is
    that of the singular pure-Neumann K0: rounding, 2e-12 at h = 0.0075.
    """
    n = k.shape[0]
    order = _dissection_order(points, k)
    perm = np.concatenate([order[:-1], [n], order[-1:]])
    a = _permuted_bordered(k, m, perm)
    try:
        lu = spla.splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"factorization failed: {exc}") from exc
    return _BorderedLU(lu, perm)


class BackgroundOperator:
    """Factorized unperturbed operator, reusable across boundary data
    until its factorization is released."""

    def __init__(self, mesh: Mesh, background: BackgroundTensor):
        self.mesh = mesh
        self.background = background
        sigma, eps = element_coefficients(mesh, background)
        self.sigma_e, self.eps_e = sigma, eps
        self.k = assemble_stiffness(mesh, sigma + 1j * eps)
        self.m = mesh.node_mass()
        self._lu = _bordered_factor(self.k, self.m, mesh.points)

    def release(self):
        """Free the LU factorization; K0 and m, and so `apply`, stay.

        A later `solve`, or a chiral solve preconditioned by this
        operator, raises SolverError.
        """
        self._lu = None

    def _factorization(self):
        if self._lu is None:
            raise SolverError("the background factorization was released; "
                              "build a new BackgroundOperator to solve again")
        return self._lu

    def apply(self, u: np.ndarray, lam: complex) -> np.ndarray:
        """K u + m lam, the rows of the bordered system without its border."""
        return self.k @ u + self.m * lam

    def solve(self, g):
        """Solve for one NeumannData, or for a list of them at once.

        A list is solved by one multi-column LU solve and gives a list of
        Solutions; a single `g` is the one-column case. Each column must
        pass the 1e-6 residual gate; a miss names its member. Each
        Solution's ``diagnostics["g_defect"]`` is |int g ds| before
        projection.
        """
        family = isinstance(g, list)
        gs = g if family else [g]
        loads = [boundary_load(self.mesh, gi) for gi in gs]
        rhs = np.zeros((self.mesh.num_points + 1, len(gs)), dtype=complex)
        for j, (b, _, _) in enumerate(loads):
            rhs[:-1, j] = b
        x = self._factorization().solve(rhs)
        sols = []
        for j, (gi, (b, _, defect)) in enumerate(zip(gs, loads)):
            u, lam = np.ascontiguousarray(x[:-1, j]), complex(x[-1, j])
            res = np.linalg.norm(self.apply(u, lam) - b)
            res /= max(np.linalg.norm(b), 1e-300)
            if not np.isfinite(res) or res > 1e-6:
                raise SolverError(
                    f"background solve residual {res:.3e} for member {j} "
                    f"({gi.label}); system may be ill-conditioned")
            sols.append(Solution(
                mesh=self.mesh, u=u, g=gi, background=self.background,
                law=None, multiplier=lam, residual=float(res),
                power=complex((u * b).sum()), sigma_e=self.sigma_e,
                eps_e=self.eps_e, zeta_e=None,
                diagnostics={"g_defect": defect}, operator=self))
        return sols if family else sols[0]


class _ChiralOperator:
    """The chiral operator K0 u + K_delta u + K_zeta conj(u) + m lambda.

    K0 and m are the background operator's; K_delta and K_zeta are
    assembled over the inclusion's elements only.
    """

    def __init__(self, op: BackgroundOperator, sigma: np.ndarray,
                 eps: np.ndarray, zeta: np.ndarray):
        mesh, d = op.mesh, op.mesh.in_d
        self.k0, self.m = op.k, op.m
        self.k_delta = assemble_stiffness(
            mesh, sigma[d] - op.sigma_e[d] + 1j * (eps[d] - op.eps_e[d]), d)
        self.k_zeta = assemble_stiffness(mesh, zeta[d], d)

    def apply(self, u: np.ndarray, lam: complex) -> np.ndarray:
        """Complex rows K0 u + K_delta u + K_zeta conj(u) + m lam."""
        return (self.k0 @ u + self.k_delta @ u + self.k_zeta @ np.conj(u)
                + self.m * lam)


def solve_perturbed(sol0: Solution, law: InclusionLaw) -> Solution:
    """Weak solution of the chiral problem with sol0's data, on the mesh,
    background and factorization of sol0's operator.

    GMRES solves (I + E P) w = -E u0 on D's nodes, u1 = u0 + P w, and one
    refinement step follows (see the module docstring). An operator whose
    factorization was released raises SolverError. The iteration count and
    the final true relative residual of the bordered system land in
    ``diagnostics["krylov_iterations"]`` and ``["krylov_residual"]``; a
    miss of the GMRES tolerance or of the 1e-6 residual gate raises
    SolverError.
    """
    op, mesh, background = sol0.operator, sol0.mesh, sol0.background
    sigma, eps, zeta = inclusion_coefficients(mesh, background, law,
                                              op.sigma_e, op.eps_e)
    if mesh.in_d.any():
        d = mesh.in_d
        lo = min(_eigvalsh2(sigma[d] + zeta[d])[:, 0].min(),
                 _eigvalsh2(sigma[d] - zeta[d])[:, 0].min())
        if lo <= 1e-12:
            raise SolverError(
                f"block system loses coercivity: min eig(sigma1 +/- zeta1) = "
                f"{lo:.3e} (hypothesis (se0))")

    lu = op._factorization()
    chiral = _ChiralOperator(op, sigma, eps, zeta)
    n = mesh.num_points
    s = np.unique(mesh.triangles[mesh.in_d])
    k_delta, k_zeta = chiral.k_delta[s][:, s], chiral.k_zeta[s][:, s]

    def lift(w):
        """P w, the bordered LU solve of w placed on S."""
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[s] = w
        return lu.solve(rhs)

    # GMRES's real unknowns are (Re w, Im w) interleaved, as numpy lays
    # out a complex array, so each view is free
    def matvec(x):
        w = x.view(complex)
        p = lift(w)[s]
        return (w + k_delta @ p + k_zeta @ np.conj(p)).view(float)

    f = -(k_delta @ sol0.u[s] + k_zeta @ np.conj(sol0.u[s]))
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    a = spla.LinearOperator((2 * len(s),) * 2, matvec=matvec, dtype=float)
    x, info = spla.gmres(a, f.view(float), rtol=_GMRES_RTOL, atol=0.0,
                         restart=_GMRES_RESTART, maxiter=_GMRES_MAXITER,
                         callback=count, callback_type="pr_norm")
    z = lift(x.view(complex))
    u, lam = sol0.u + z[:n], sol0.multiplier + z[n]
    b, _, _ = boundary_load(mesh, sol0.g)
    z = lu.solve(np.append(b - chiral.apply(u, lam), -(op.m @ u)))
    u, lam = u + z[:n], lam + z[n]

    r = chiral.apply(u, lam) - b
    bnorm = max(np.linalg.norm(b), 1e-300)
    res = float(np.linalg.norm(r) / bnorm)
    krylov_res = float(np.hypot(np.linalg.norm(r), abs(op.m @ u)) / bnorm)
    if info != 0 or not np.isfinite(krylov_res) or res > 1e-6:
        raise SolverError(
            f"perturbed GMRES failed (info {info}): {iterations} iterations, "
            f"true relative residual {krylov_res:.3e}")
    return Solution(
        mesh=mesh, u=u, g=sol0.g, background=background, law=law,
        multiplier=complex(lam), residual=res,
        power=complex((u * b).sum()), sigma_e=sigma, eps_e=eps, zeta_e=zeta,
        diagnostics={"krylov_iterations": iterations,
                     "krylov_residual": krylov_res},
        operator=chiral)


def _load_residual(sol: Solution):
    """K u + m lambda - b per basis test function, and the load b.

    K is the operator the solution was solved with, the background or the
    chiral one.
    """
    b, _, _ = boundary_load(sol.mesh, sol.g)
    return sol.operator.apply(sol.u, sol.multiplier) - b, b


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
