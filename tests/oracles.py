"""Independent reference computations used to freeze expected test values.

Nothing here touches the FEM solve path: the layered-disk solutions come
from transfer-style linear systems for the radial mode coefficients, areas
come from Monte Carlo, covering counts from a direct 1d construction,
polyline distances from the full point x segment table, a mesh's nodes
by the keep-and-dedupe placement at curve crossings, ellipse distances
from dense parameter sampling refined by Newton's method, ball chains
from a walk that finds each next centre as a sphere crossing, point location
and P1 samples from a stock scipy Delaunay with its own LAPACK-built
transform, the minimum angle from one arccos per angle, and the boundary
norm ratio from a dense generalized eigensolve of the boundary mass and
stiffness matrices, assembled edge by edge. The FEM references,
`chiral_system` and `direct_block_solve`, reuse the package's element
assembly but build the chiral problem as the full-mesh real 2x2 block
matrix and factorize it directly instead of iterating on it. The 2x2
eigenvalues and the symmetrizing transform are given in their LAPACK
forms, against which the closed-form kernels are checked. Ball integrals
sample every point of the disk stencil, one by one, and grid integrals
evaluate the signed distance at every cell and locate every kept point.

The rest are quantities only tests ask for, kept out of the package, which
holds what a verb reaches: the weak residual of a solution from the
operator it was solved with (`weak_residual`), the residual of the basic
energy pairing (`basic_pairing_residual`), the boundary power as the
3-point rule of u (g - mean) on each edge, against which a solve's pairing
u^T b is checked (`quadrature_power`), the pointwise current law
(`ohm_apply`), and a chart's forward map and its constant sup |psi| / |x'|^2
(`flatten`, `eta_norm`). The background LU's nested-dissection order is
restated with a Python scan of each left node's row for a right neighbour
(`nested_dissection`), and its solve is redone by splu's pivoted defaults
(`pivoted_bordered_solve`). A solved pair is redone by pivoted direct
solves, each refined by its residual, and Re dW taken from its D form
(`refined_d_form`).
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import Delaunay, cKDTree

from powergap.energy import (
    _quad_form,
    _require_same_mesh,
    element_cg,
    state_vectors,
)
from powergap.errors import CoverageError
from powergap.geometry import (
    Circle,
    _cell_points,
    _grid_rule,
    _segment_distances,
    as_points,
)
from powergap.mesh import _curve_nodes, _hex_lattice, curve_intersections
from powergap.solver import (
    _load_residual,
    assemble_stiffness,
    boundary_load,
    element_coefficients,
    inclusion_coefficients,
)


def constitutive_matrix(sigma: float, eps: float, zeta: float = 0.0) -> np.ndarray:
    """2x2 matrix acting on (Re u, Im u) for scalar isotropic coefficients."""
    return np.array([[sigma + zeta, -eps], [eps, sigma - zeta]])


class LayeredDiskSolution:
    """Fourier-mode solution on concentric layers with constant scalar laws.

    Each layer carries a constant 2x2 constitutive matrix K acting on the
    (Re u, Im u) pair; both components are harmonic per layer, so the mode-k
    radial profile is A r^k + B r^{-k} with 2-vector coefficients coupled
    through continuity of the trace and of the radial flux.
    """

    def __init__(self, radii, kmats, k: int, g_pair):
        radii = [float(r) for r in radii]
        if sorted(radii) != radii:
            raise ValueError("radii must be increasing (outer radius last)")
        if len(radii) != len(kmats):
            raise ValueError("one constitutive matrix per layer required")
        self.radii = radii
        self.k = int(k)
        L = len(kmats)
        n = 2 + 4 * (L - 1)
        M = np.zeros((n, n))
        rhs = np.zeros(n)

        def cols(i):
            if i == 0:
                return 0, None  # A0 only; B0 = 0 by regularity at the origin
            base = 2 + 4 * (i - 1)
            return base, base + 2

        row = 0
        for i in range(L - 1):
            s = radii[i]
            ai, bi = cols(i)
            aj, bj = cols(i + 1)
            for c in range(2):
                M[row + c, ai + c] += s ** k
                if bi is not None:
                    M[row + c, bi + c] += s ** -k
                M[row + c, aj + c] -= s ** k
                M[row + c, bj + c] -= s ** -k
            row += 2
            Ki, Kj = np.asarray(kmats[i], float), np.asarray(kmats[i + 1], float)
            for c in range(2):
                for d in range(2):
                    M[row + c, ai + d] += Ki[c, d] * k * s ** (k - 1)
                    if bi is not None:
                        M[row + c, bi + d] -= Ki[c, d] * k * s ** (-k - 1)
                    M[row + c, aj + d] -= Kj[c, d] * k * s ** (k - 1)
                    M[row + c, bj + d] += Kj[c, d] * k * s ** (-k - 1)
            row += 2
        R = radii[-1]
        aL, bL = cols(L - 1)
        KL = np.asarray(kmats[-1], float)
        gp = np.asarray(g_pair, float)
        for c in range(2):
            for d in range(2):
                M[row + c, aL + d] += KL[c, d] * k * R ** (k - 1)
                if bL is not None:
                    M[row + c, bL + d] -= KL[c, d] * k * R ** (-k - 1)
            rhs[row + c] = gp[c]
        x = np.linalg.solve(M, rhs)
        self.coeffs = []
        for i in range(L):
            ai, bi = cols(i)
            A = x[ai:ai + 2]
            B = x[bi:bi + 2] if bi is not None else np.zeros(2)
            self.coeffs.append((A, B))

    def _layer_of(self, r: np.ndarray) -> np.ndarray:
        idx = np.zeros(r.shape, dtype=int)
        for i, s in enumerate(self.radii[:-1]):
            idx[r >= s] = i + 1
        return idx

    def evaluate(self, points) -> np.ndarray:
        """Complex field u at points (cos-mode)."""
        p = np.atleast_2d(np.asarray(points, float))
        r = np.linalg.norm(p, axis=1)
        th = np.arctan2(p[:, 1], p[:, 0])
        idx = self._layer_of(r)
        out = np.zeros(len(p), dtype=complex)
        rsafe = np.maximum(r, 1e-300)
        for i, (A, B) in enumerate(self.coeffs):
            sel = idx == i
            prof_re = A[0] * r[sel] ** self.k + (B[0] * rsafe[sel] ** -self.k if i else 0.0)
            prof_im = A[1] * r[sel] ** self.k + (B[1] * rsafe[sel] ** -self.k if i else 0.0)
            out[sel] = (prof_re + 1j * prof_im) * np.cos(self.k * th[sel])
        return out

    def boundary_coefficient(self) -> complex:
        """Coefficient of cos(k theta) in the boundary trace."""
        A, B = self.coeffs[-1]
        R = self.radii[-1]
        val = A * R ** self.k + B * R ** -self.k
        return complex(val[0], val[1])

    def power(self, g_pair) -> complex:
        """W = int_boundary u g ds for g = (re+i*im) cos(k theta)."""
        c = self.boundary_coefficient()
        gc = complex(g_pair[0], g_pair[1])
        return math.pi * self.radii[-1] * c * gc

    def free_energy(self, g_pair) -> complex:
        """W' = int_boundary conj(u) g ds."""
        c = self.boundary_coefficient()
        gc = complex(g_pair[0], g_pair[1])
        return math.pi * self.radii[-1] * np.conj(c) * gc

    def gradient_energy(self, r_in: float, r_out: float) -> float:
        """int over the annulus r_in < r < r_out of |grad u|^2."""
        total = 0.0
        k = self.k
        for i, (A, B) in enumerate(self.coeffs):
            lo = 0.0 if i == 0 else self.radii[i - 1]
            hi = self.radii[i]
            lo, hi = max(lo, r_in), min(hi, r_out)
            if hi <= lo:
                continue
            a2 = A[0] ** 2 + A[1] ** 2
            b2 = B[0] ** 2 + B[1] ** 2
            term = a2 * (hi ** (2 * k) - lo ** (2 * k))
            if b2 > 0 and lo > 0:
                term += b2 * (lo ** (-2 * k) - hi ** (-2 * k))
            total += math.pi * k * term
        return total


def two_phase_disk(sigma_in: float, sigma_out: float, r_interface: float,
                   k: int = 1, g_amp: float = 1.0) -> LayeredDiskSolution:
    return LayeredDiskSolution(
        [r_interface, 1.0],
        [constitutive_matrix(sigma_in, 0.0), constitutive_matrix(sigma_out, 0.0)],
        k, (g_amp, 0.0))


def monte_carlo_area(contains, bbox, n: int = 200_000, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(bbox[0], float), np.asarray(bbox[1], float)
    pts = lo + rng.random((n, 2)) * (hi - lo)
    frac = float(np.mean(contains(pts)))
    return frac * float(np.prod(hi - lo))


def monte_carlo_integral(fn, contains, bbox, n: int = 400_000,
                         seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(bbox[0], float), np.asarray(bbox[1], float)
    pts = lo + rng.random((n, 2)) * (hi - lo)
    mask = contains(pts)
    vals = np.zeros(n)
    if mask.any():
        vals[mask] = fn(pts[mask])
    return float(vals.mean() * np.prod(hi - lo))


def polyline_distance_table(points, poly) -> np.ndarray:
    """Distance from each point to a closed polygon over every segment.

    Each point is measured against all segments with the package's own
    point-segment arithmetic, so an exact candidate search must agree with
    it bit for bit.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    v = np.asarray(poly, dtype=float)
    a = v[None, :, :]
    b = np.roll(v, -1, axis=0)[None, :, :]
    rows = max(1, 65_536 // a.shape[1])
    return np.concatenate(
        [_segment_distances(p[lo:lo + rows], a, b).min(axis=1)
         for lo in range(0, len(p), rows)])


def crossing_deduped_nodes(scene, h: float) -> np.ndarray:
    """`build_mesh`'s node array placed by keeping and then deduping.

    The inclusion's nodes within 0.4h of the interface's polyline are
    dropped unless within 1e-9 of the extent of it, which keeps its copies
    of the crossing nodes; the lattice is cleared against what is left,
    and then the nodes are rounded to a grid of 1e-9 of the extent and the
    first of each rounded point kept. Distances come from
    `polyline_distance_table`.
    """
    lo, hi = scene.outer.bbox()
    extent = float(min(hi - lo))
    breaks = None
    if scene.interface is not None and scene.inclusion is not None:
        breaks = curve_intersections(scene.interface, scene.inclusion)
    sigma_nodes = d_nodes = np.empty((0, 2))
    if scene.interface is not None:
        sigma_nodes = _curve_nodes(scene.interface, h, breaks)
    if scene.inclusion is not None:
        d_nodes = _curve_nodes(scene.inclusion, h, breaks)
        if scene.interface is not None:
            dist = polyline_distance_table(d_nodes, sigma_nodes)
            d_nodes = d_nodes[(dist > 0.4 * h) | (dist < 1e-9 * extent)]
    clearance = 0.55 * h
    lattice = _hex_lattice(lo - 0.5 * h, hi + 0.5 * h, h)
    lattice = lattice[scene.outer.signed_distance(lattice) < -clearance]
    for nodes in (sigma_nodes, d_nodes):
        if len(nodes):
            lattice = lattice[polyline_distance_table(lattice, nodes)
                              > clearance]
    pts = np.vstack([scene.outer.nodes(h), sigma_nodes, d_nodes, lattice])
    _, keep = np.unique(np.round(pts / (1e-9 * max(extent, 1.0))), axis=0,
                        return_index=True)
    return pts[np.sort(keep)]


def ellipse_distance(ellipse, points, samples: int = 4096,
                     steps: int = 50) -> np.ndarray:
    """Distance from each point to an ellipse, by brute force.

    The squared distance D(t) from the point to (a cos t, b sin t) is
    sampled at `samples` angles; Newton's method on D'(t) = 0 then runs
    `steps` times from every sampled local minimum, so each basin of a
    point near the evolute is refined. Every value is the distance to a
    point of the curve, so the least one found is the answer.
    """
    y = as_points(points) - np.asarray(ellipse.center, dtype=float)
    a, b = float(ellipse.a), float(ellipse.b)

    def sq(t, k):
        return (a * np.cos(t) - y[k, 0, None]) ** 2 \
            + (b * np.sin(t) - y[k, 1, None]) ** 2

    th = 2.0 * np.pi * np.arange(samples) / samples
    v = sq(th[None, :], np.arange(len(y)))
    k, j = np.nonzero((v <= np.roll(v, 1, axis=1))
                      & (v <= np.roll(v, -1, axis=1)))
    t = th[j]
    y0, y1 = y[k, 0], y[k, 1]
    for _ in range(steps):
        s, c = np.sin(t), np.cos(t)
        d1 = (b * b - a * a) * s * c + a * y0 * s - b * y1 * c
        d2 = (b * b - a * a) * (c * c - s * s) + a * y0 * c + b * y1 * s
        convex = d2 > 0.0
        t = t - np.where(convex, d1, 0.0) / np.where(convex, d2, 1.0)
    best = v.min(axis=1)
    np.minimum.at(best, k, sq(t[:, None], k)[:, 0])
    return np.sqrt(best)


def stock_delaunay(mesh) -> Delaunay:
    """scipy's own triangulation of the mesh nodes, with its lazy transform.

    The mesh's triangulation is Qhull on the same points with `Q5` added to
    the default options, which changes no output, so the simplices and
    their neighbours must agree.
    """
    tri = Delaunay(mesh.points)
    assert np.array_equal(tri.simplices, mesh.triangles)
    assert np.array_equal(tri.neighbors, mesh.neighbors)
    return tri


def stock_locate(mesh, points, tri=None) -> np.ndarray:
    """Element per point from stock `find_simplex`, misses taking the
    element of the nearest centroid: `Mesh.locate`'s answer wherever one
    element holds the point or none does."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    tri = stock_delaunay(mesh) if tri is None else tri
    idx = tri.find_simplex(p)
    miss = idx < 0
    if miss.any():
        idx[miss] = cKDTree(mesh.centroids).query(p[miss])[1]
    return idx


def barycentric_interpolate(mesh, nodal, points) -> np.ndarray:
    """P1 interpolation of (n_nodes,) or (n_nodes, k) fields at points.

    Each point takes the element `Mesh.locate` gives it and the barycentric
    weights of stock Qhull's affine transform of that element (LAPACK, one
    solve per simplex), applied to the nodal values in the fields' own
    dtype; no per-element gradient enters.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    nodal = np.asarray(nodal)
    fields = nodal.reshape(len(nodal), -1)
    idx = mesh.locate(p)
    T = stock_delaunay(mesh).transform[idx]
    d = p - T[:, 2, :]
    b0 = (T[:, 0, 0] * d[:, 0] + T[:, 0, 1] * d[:, 1])[:, None]
    b1 = (T[:, 1, 0] * d[:, 0] + T[:, 1, 1] * d[:, 1])[:, None]
    v = fields[mesh.triangles[idx]]
    out = v[:, 0] * b0 + v[:, 1] * b1 + v[:, 2] * (1.0 - (b0 + b1))
    return out.reshape(len(p), *nodal.shape[1:])


def exact_interpolate(mesh, nodal, elements, points) -> np.ndarray:
    """P1 values of (n_nodes,) or (n_nodes, k) fields at points, each in
    the given element, in exact rational arithmetic on the float inputs and
    rounded once: the barycentric weights of a point just outside its
    element are slightly negative, and its value is the element's affine
    extension."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    nodal = np.asarray(nodal)
    fields = nodal.reshape(len(nodal), -1)
    out = np.empty((len(p), fields.shape[1]), dtype=complex)
    for i, (e, (x, y)) in enumerate(zip(elements, p)):
        tri = mesh.triangles[e]
        (x0, y0), (x1, y1), (x2, y2) = (
            (Fraction(float(a)), Fraction(float(b))) for a, b in
            mesh.points[tri])
        x, y = Fraction(float(x)), Fraction(float(y))
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        l1 = ((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / det
        l2 = ((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)) / det
        weights = (1 - l1 - l2, l1, l2)
        for j in range(fields.shape[1]):
            v = [complex(c) for c in fields[tri, j]]
            out[i, j] = complex(
                float(sum(Fraction(c.real) * w for c, w in zip(v, weights))),
                float(sum(Fraction(c.imag) * w for c, w in zip(v, weights))))
    return out.reshape(len(p), *nodal.shape[1:])


class Boxed:
    """A region laid on a bounding box of the caller's choosing: the grid
    rule then runs on that box instead of the region's own."""

    def __init__(self, region, lo, hi):
        self.region = region
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    def signed_distance(self, points):
        return self.region.signed_distance(points)

    def bbox(self):
        return self.lo.copy(), self.hi.copy()


def grid_cells(region, n: int):
    """(points, fractions, dx, dy) of the cells of `grid_integrate`'s rule
    that touch the region, row by row."""
    xs, ys, w, dx, dy = _grid_rule(region, n)
    cells = w > 0
    return _cell_points(xs, ys, cells), w[cells], dx, dy


def point_sampled_ball_sums(sol, centers, radius: float, n_grid: int,
                            gradient: bool = False) -> np.ndarray:
    """Stencil sum of |u|^2, or of |grad u|^2, over the disk around each
    centre, sampling every stencil point.

    The stencil is `grid_integrate`'s antialiased rule on the disk around
    the origin (n_grid cells a side, at least 16), shifted to each centre.
    Each point is located and interpolated (`Mesh.interpolate`), or takes
    the |grad u|^2 of the element `Mesh.locate` gives it.
    """
    offsets, w, dx, dy = grid_cells(Circle((0.0, 0.0), radius),
                                    max(16, n_grid))
    w = w * (dx * dy)
    if gradient:
        dens = sol.gradient_density()
        sample = lambda p: dens[sol.mesh.locate(p)]
    else:
        sample = lambda p: np.abs(sol.mesh.interpolate(sol.u, p)) ** 2
    return np.array([sample(c + offsets) @ w
                     for c in np.asarray(centers, float).reshape(-1, 2)])


def dense_grid_rule(region, n: int):
    """`grid_integrate`'s antialiased n x n midpoint rule with the signed
    distance evaluated at every cell midpoint.

    Returns (xs, ys, points, fractions, dx, dy): the axes, every midpoint
    row by row, its covered fraction clip(0.5 - sd / sqrt(dx dy), 0, 1),
    and the cell sides.
    """
    lo, hi = region.bbox()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dx = (hi[0] - lo[0]) / n
    dy = (hi[1] - lo[1]) / n
    if dx <= 0 or dy <= 0:
        return np.empty(0), np.empty(0), np.empty((0, 2)), np.empty(0), dx, dy
    xs = lo[0] + dx * (np.arange(n) + 0.5)
    ys = lo[1] + dy * (np.arange(n) + 0.5)
    pts = np.column_stack([c.ravel() for c in np.meshgrid(xs, ys)])
    w = np.clip(0.5 - region.signed_distance(pts) / math.sqrt(dx * dy),
                0.0, 1.0)
    return xs, ys, pts, w, dx, dy


def point_grid_integrate(fn, region, n: int = 400) -> float:
    """The grid integral with every kept midpoint handed to fn at once:
    ``(fn(points) * w).sum() * dx * dy`` over the cells of the dense rule
    with w > 0; fn=None integrates 1."""
    _, _, pts, w, dx, dy = dense_grid_rule(region, n)
    keep = w > 0
    pts, w = pts[keep], w[keep]
    if not len(w):
        return 0.0
    if fn is None:
        return float(w.sum() * dx * dy)
    return float((np.asarray(fn(pts), dtype=float) * w).sum() * dx * dy)


class FnSampler:
    """A stand-in for `smallness._FieldSampler` that samples an analytic
    integrand: fn maps (p, 2) points to their (p,) values. `on_grid` gives
    them at a grid's kept cell midpoints, row by row (`grid_integrate`'s
    protocol); `at` gives them as the one column of a (p, 1) array
    (`region_integrals`')."""

    def __init__(self, fn):
        self.fn = fn

    def on_grid(self, xs, ys, cells) -> np.ndarray:
        return self.fn(_cell_points(xs, ys, cells))

    def at(self, points) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(points, dtype=float)))[:, None]


def point_sq_sampler(sol, theta=None):
    """p -> |u(theta p) / theta^2|^2 (|u(p)|^2 when theta is None), each
    point located and interpolated by `Mesh.interpolate`."""
    def sample(p):
        p = np.asarray(p, dtype=float).reshape(-1, 2)
        if theta is None:
            return np.abs(sol.mesh.interpolate(sol.u, p)) ** 2
        u = sol.mesh.interpolate(sol.u, p * theta)
        return np.abs(u / theta ** 2) ** 2
    return sample


def point_grad_sq_sampler(sol):
    """p -> |grad u|^2 of the element `Mesh.locate` gives p, all points in
    one call."""
    dens = sol.gradient_density()
    return lambda p: dens[sol.mesh.locate(p)]


def min_angle_deg(mesh) -> float:
    """Smallest interior angle, taking arccos of every angle's cosine."""
    p = mesh.points[mesh.triangles]
    angles = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = (a * b).sum(axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    return float(np.min(angles))


def boundary_matrices_loop(lens) -> tuple:
    """Periodic P1 boundary mass and stiffness, assembled edge by edge."""
    nb = len(lens)
    mass = np.zeros((nb, nb))
    stiff = np.zeros((nb, nb))
    for i in range(nb):
        j = (i + 1) % nb
        le = lens[i]
        mass[i, i] += le / 3.0
        mass[j, j] += le / 3.0
        mass[i, j] += le / 6.0
        mass[j, i] += le / 6.0
        stiff[i, i] += 1.0 / le
        stiff[j, j] += 1.0 / le
        stiff[i, j] -= 1.0 / le
        stiff[j, i] -= 1.0 / le
    return mass, stiff


def boundary_data_norm_ratio(mesh, g) -> float:
    """||g||_L2 / ||g||_H^{-1/2} from the loop-assembled boundary matrices."""
    pts = mesh.points[mesh.boundary_loop()]
    lens = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    mass, stiff = boundary_matrices_loop(lens)
    gv = np.asarray(g.raw(pts), dtype=float)
    gv = gv - (mass.sum(axis=1) @ gv) / mass.sum()
    mu, w = scipy.linalg.eigh(stiff, mass)
    coeff = w.T @ (mass @ gv)
    l2_sq = float((coeff ** 2).sum())
    neg_sq = float(((1.0 + np.maximum(mu, 0.0)) ** (-0.5) * coeff ** 2).sum())
    return math.inf if neg_sq <= 0 else math.sqrt(l2_sq / neg_sq)


def _segment_sphere_crossings(a, b, center, rho: float):
    """Parameters t in [0,1] where |a + t(b-a) - center| = rho."""
    d = b - a
    f = a - center
    qa = float(d @ d)
    if qa < 1e-300:
        return []
    qb = 2.0 * float(f @ d)
    qc = float(f @ f) - rho * rho
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0:
        return []
    sq = math.sqrt(disc)
    return [t for t in ((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa))
            if 0.0 <= t <= 1.0]


def walked_chain_centers(path, r1: float) -> np.ndarray:
    """Ball centres along a polyline, walked one ball at a time: the next
    centre is the path's last crossing of the sphere of radius 2 r1 around
    the current one, and the path's end closes the chain once it is within
    2 r1 (unless it is within 1e-12 r1)."""
    centers = [path[0].copy()]
    work = np.asarray(path, float)
    guard = 0
    while True:
        guard += 1
        if guard > 100_000:
            raise RuntimeError("chain construction did not terminate")
        c = centers[-1]
        gap = float(np.linalg.norm(work[-1] - c))
        if gap <= 2.0 * r1:
            if gap > 1e-12 * r1:
                centers.append(work[-1].copy())
            break
        last = None
        for i in range(len(work) - 1):
            for t in _segment_sphere_crossings(work[i], work[i + 1], c,
                                               2.0 * r1):
                last = (i, work[i] + t * (work[i + 1] - work[i]))
        if last is None:
            raise CoverageError("chain curve never reaches distance 2*r1")
        i, point = last
        centers.append(point.copy())
        work = np.vstack([point[None, :], work[i + 1:]])
    return np.asarray(centers)


def lapack_eigvalsh2(mats) -> np.ndarray:
    """Ascending eigenvalues of symmetric (n, 2, 2) matrices by LAPACK."""
    return np.linalg.eigvalsh(mats)


def lapack_cg_transform(sigma, eps, zeta) -> np.ndarray:
    """The 4x4 symmetrizing matrices by LAPACK inversion and matmul.

    sigma, eps and zeta are (n, 2, 2) arrays.
    """
    s, e, z = (np.asarray(a, dtype=float) for a in (sigma, eps, zeta))
    inv = np.linalg.inv(s + z)
    b = np.empty(s.shape[:-2] + (4, 4))
    b[..., :2, :2] = inv
    b[..., :2, 2:] = inv @ e
    b[..., 2:, :2] = e @ inv
    b[..., 2:, 2:] = s - z + e @ inv @ e
    return b


def chiral_system(mesh, sigma, eps, zeta) -> sp.csr_matrix:
    """Real 2x2 block matrix of the chiral problem with its mean borders.

    Unknowns and rows are ordered (Re u, Im u, lambda_re, lambda_im); the
    blocks are (sigma+zeta, -eps; eps, sigma-zeta) per element, assembled
    over the whole mesh.
    """
    n = mesh.num_points
    k_eps = assemble_stiffness(mesh, eps)
    mcol = sp.csr_matrix(mesh.node_mass().reshape(n, 1))
    z1 = sp.csr_matrix((n, 1))
    return sp.bmat([[assemble_stiffness(mesh, sigma + zeta), -k_eps, mcol, z1],
                    [k_eps, assemble_stiffness(mesh, sigma - zeta), z1, mcol],
                    [mcol.T, z1.T, None, None],
                    [z1.T, mcol.T, None, None]], format="csr")


def direct_block_solve(mesh, background, law, g):
    """Chiral problem by sparse LU of the bordered real 2x2 block system.

    Returns the complex nodal field u and the two mean multipliers.
    """
    n = mesh.num_points
    a = chiral_system(mesh, *inclusion_coefficients(
        mesh, background, law, *element_coefficients(mesh, background)))
    b, _, _ = boundary_load(mesh, g)
    x = spla.splu(a.tocsc()).solve(np.concatenate([b.real, b.imag, [0.0, 0.0]]))
    return x[:n] + 1j * x[n:2 * n], (float(x[-2]), float(x[-1]))


def weak_residual(sol) -> float:
    """Discrete residual against all basis test functions, relative to the
    load, from the operator the solution was solved with."""
    r, b = _load_residual(sol)
    return float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))


def basic_pairing_residual(solj, solk) -> float:
    """Residual of int B_j v_j.v_k against its boundary pairing
    Re u_j.Re b + Im u_k.Im b, with b the load of solj's data."""
    _require_same_mesh(solj, solk)
    areas = solj.mesh.areas
    lhs = _quad_form(element_cg(solj), state_vectors(solj),
                     state_vectors(solk), areas)
    b, _, _ = boundary_load(solj.mesh, solj.g)
    rhs = float((solj.u.real * b.real + solk.u.imag * b.imag).sum())
    return float(abs(lhs - rhs) / max(abs(rhs), 1e-300))


def quadrature_power(sol):
    """int u (g - mean) ds by the 3-point rule on each boundary edge, with
    u interpolated along the edge, and |int g ds| from the same rule.

    mean is int g ds over the boundary's length. Returns (W, |int g ds|).
    """
    e, nodes, weights, points, lens = sol.mesh.boundary_quadrature()
    gvs = [sol.g.raw(x).astype(complex) for x in points]
    total = 0.0 + 0.0j
    for w, gv in zip(weights, gvs):
        total += (w * gv * lens).sum()
    mean = total / lens.sum()
    power = 0.0 + 0.0j
    for q, w, gv in zip(nodes, weights, gvs):
        uv = (1.0 - q) * sol.u[e[:, 0]] + q * sol.u[e[:, 1]]
        power += (w * uv * (gv - mean) * lens).sum()
    return complex(power), abs(total)


def ohm_apply(sigma, epsilon, zeta, grad) -> np.ndarray:
    """Current from a (complex) gradient: (sigma + i*eps) p + zeta conj(p).

    sigma/epsilon/zeta are (2,2) or (n,2,2); zeta=None means the plain
    background law. The chiral term conjugates componentwise, so the map is
    real-linear only.
    """
    p = np.asarray(grad, dtype=complex)
    single = p.ndim == 1
    p = np.atleast_2d(p)

    def stack(m):
        m = np.asarray(m, dtype=float)
        return m[None, :, :] if m.ndim == 2 else m
    a = stack(sigma).astype(complex) + 1j * stack(epsilon)
    out = np.einsum("nij,nj->ni", np.broadcast_to(a, (len(p), 2, 2)), p)
    if zeta is not None:
        z = np.broadcast_to(stack(zeta), (len(p), 2, 2))
        out = out + np.einsum("nij,nj->ni", z, np.conj(p))
    return out[0] if single else out


def flatten(fmap, x) -> np.ndarray:
    """Global points -> flattened local coordinates of a `FlatteningMap`,
    the inverse of its `inverse`: the point in the chart's (tangent,
    normal) frame, its normal coordinate less psi of the tangential one.
    A point outside the chart radius raises ChartRangeError."""
    p = as_points(x) - fmap.anchor
    q = np.column_stack([p @ fmap.tangent, p @ fmap.normal])
    fmap._check_chart(q[:, 0])
    return np.column_stack([q[:, 0], q[:, 1] - fmap.psi(q[:, 0])])


def eta_norm(fmap, samples: int = 4001) -> float:
    """sup over the chart of |psi(x')| / |x'|^2, on evenly spaced x'."""
    xp = np.linspace(-fmap.rho0, fmap.rho0, samples)
    xp = xp[np.abs(xp) > 1e-12]
    return float(np.max(np.abs(fmap.psi(xp)) / xp ** 2))


def nested_dissection(points, k, leaf: int = 64):
    """The nested-dissection rule, each separator found by scanning K's
    rows in Python.

    A set of more than `leaf` nodes is cut at np.median of its longer
    coordinate extent (x on a tie), c <= median going left; its separator
    is the left nodes with a neighbour on the right in K's pattern. The
    order is the left nodes less the separator, the right nodes, each
    dissected, then the separator; a leaf, or a set with nothing right of
    its median, stays in index order. Returns the order and every cut as
    (left less separator, right, separator).
    """
    k = sp.csr_matrix(k)
    side = np.zeros(len(points), dtype=int)  # 1 left, 2 right, 0 neither
    order, cuts = [], []

    def visit(nodes):
        if len(nodes) <= leaf:
            order.extend(nodes)
            return
        p = points[nodes]
        ext = p.max(axis=0) - p.min(axis=0)
        c = p[:, 0] if ext[0] >= ext[1] else p[:, 1]
        left = c <= np.median(c)
        if left.all():
            order.extend(nodes)
            return
        side[nodes] = np.where(left, 1, 2)
        on_sep = np.array([
            any(side[j] == 2 for j in k.indices[k.indptr[i]:k.indptr[i + 1]])
            for i in nodes[left]], dtype=bool)
        side[nodes] = 0
        cut = nodes[left][~on_sep], nodes[~left], nodes[left][on_sep]
        cuts.append(cut)
        visit(cut[0])
        visit(cut[1])
        order.extend(cut[2])

    visit(np.arange(len(points)))
    return np.array(order, dtype=np.intp), cuts


def _refined_lu_solve(a, rhs, refine: int):
    """a x = rhs by splu's defaults, COLAMD with partial pivoting, then
    `refine` steps x += a^-1 (rhs - a x)."""
    lu = spla.splu(sp.csc_matrix(a))
    x = lu.solve(rhs)
    for _ in range(refine):
        x = x + lu.solve(rhs - a @ x)
    return x


def pivoted_bordered_solve(k, m, b, refine: int = 0):
    """(u, lambda) of [[K, m], [m^T, 0]] (u, lambda) = (b, 0), factored by
    splu's defaults: COLAMD with partial pivoting, in the system's order,
    and refined `refine` times."""
    n = k.shape[0]
    mcol = sp.csr_matrix(np.asarray(m, dtype=float).reshape(n, 1))
    a = sp.bmat([[k, mcol], [mcol.T, None]], format="csc")
    x = _refined_lu_solve(a, np.concatenate([b, [0.0]]).astype(complex),
                          refine)
    return x[:n], complex(x[n])


def refined_d_form(sol0, sol1, refine: int = 3) -> float:
    """Re dW = int_D (B0 - B1) v0.v1 of the pair, with u0 and u1 solved
    again by pivoted direct LUs of the bordered K0 and of `chiral_system`,
    each refined `refine` times."""
    mesh = sol0.mesh
    n = mesh.num_points
    b, _, _ = boundary_load(mesh, sol0.g)
    u0, _ = pivoted_bordered_solve(sol0.operator.k, sol0.operator.m, b,
                                   refine)
    x = _refined_lu_solve(
        chiral_system(mesh, sol1.sigma_e, sol1.eps_e, sol1.zeta_e),
        np.concatenate([b.real, b.imag, [0.0, 0.0]]), refine)
    d = mesh.in_d
    v0 = state_vectors(dataclasses.replace(sol0, u=u0, _grad=None))[d]
    v1 = state_vectors(dataclasses.replace(
        sol1, u=x[:n] + 1j * x[n:2 * n], _grad=None))[d]
    bdiff = element_cg(sol0)[d] - element_cg(sol1)[d]
    return float(np.einsum("mij,mj,mi,m->", bdiff, v0, v1, mesh.areas[d]))
