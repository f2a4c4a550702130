"""Empirical interpolation inequalities and propagation of smallness.

Each check is stated in "fitted constant" form: since the theory only
proves existence of the constants, a check computes the smallest constant
making the inequality true for the given solution, and families of
solutions are then judged by the uniformity of those constants. Region
integrals are evaluated in the flattened chart coordinates, which is exact
because the flattening shear preserves area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CoverageError, StructuralError
from .geometry import (
    CurveInterior,
    FlatteningMap,
    RegionTriple,
    as_points,
    dilate,
    erode,
    grid_integrate,
    polyline_min_distance,
)
from .solver import Solution

__all__ = [
    "InequalityCheck",
    "ChainCertificate",
    "PropagationCertificate",
    "region_integrals",
    "check_three_region",
    "check_three_ball",
    "three_ball_exponent",
    "propagate_chain",
    "scaling_identity_check",
    "lipschitz_smallness",
    "boundary_layer",
    "l2_norm_sq",
    "gradient_energy",
]


def _eval_field(u, points) -> np.ndarray:
    if callable(u):
        return np.asarray(u(as_points(points)), dtype=complex)
    return np.asarray(u.evaluate(points), dtype=complex)


def _rect_grid(lo, hi, n_target: int):
    """Midpoint grid with roughly n_target cells, aspect-adapted."""
    w = np.maximum(np.asarray(hi, float) - np.asarray(lo, float), 1e-12)
    nx = max(16, int(round(math.sqrt(n_target * w[0] / w[1]))))
    ny = max(16, int(math.ceil(n_target / nx)))
    dx, dy = w[0] / nx, w[1] / ny
    xs = lo[0] + dx * (np.arange(nx) + 0.5)
    ys = lo[1] + dy * (np.arange(ny) + 0.5)
    X, Y = np.meshgrid(xs, ys)
    return np.column_stack([X.ravel(), Y.ravel()]), dx * dy


def l2_norm_sq(sol: Solution) -> float:
    """Exact integral of |u|^2 over the mesh (P1 mass per element)."""
    vals = sol.u[sol.mesh.triangles]
    mref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    per = np.einsum("mi,ij,mj->m", np.conj(vals), mref, vals).real
    return float(per @ sol.mesh.areas)


def gradient_energy(sol: Solution) -> float:
    grad = sol.gradient()
    return float((np.abs(grad) ** 2).sum(axis=1) @ sol.mesh.areas)


def ball_l2_sq(u, center, radius: float, n_grid: int = 110) -> float:
    """Integral of |u|^2 over a disk by antialiased grid quadrature."""
    c = np.asarray(center, float)
    lo, hi = c - radius, c + radius
    pts, cell = _rect_grid(lo, hi, n_grid * n_grid)
    sd = np.linalg.norm(pts - c, axis=1) - radius
    w = np.clip(0.5 - sd / math.sqrt(cell), 0.0, 1.0)
    keep = w > 0
    vals = np.zeros(len(pts))
    vals[keep] = np.abs(_eval_field(u, pts[keep])) ** 2
    return float((vals * w).sum() * cell)


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of one interpolation-inequality evaluation.

    lhs <= constant * small_factor^xi * large_factor^(1-xi); margin is the
    log slack at constant one (so constant = exp(-margin)), +inf when the
    left side vanishes.
    """

    lhs: float
    small_factor: float
    large_factor: float
    exponents: tuple[float, float]
    constant: float
    margin: float
    params: dict = field(default_factory=dict)
    violation_candidate: bool = False


def _fit_inequality(lhs: float, small: float, large: float, xi: float,
                    params: dict, zero_tol: float) -> InequalityCheck:
    if lhs <= zero_tol:
        return InequalityCheck(lhs=lhs, small_factor=small, large_factor=large,
                               exponents=(xi, 1.0 - xi), constant=0.0,
                               margin=math.inf, params=params)
    if small <= zero_tol:
        # the theory predicts lhs = 0 whenever the small factor vanishes
        return InequalityCheck(lhs=lhs, small_factor=small, large_factor=large,
                               exponents=(xi, 1.0 - xi), constant=math.inf,
                               margin=-math.inf, params=params,
                               violation_candidate=True)
    rhs_log = xi * math.log(small) + (1.0 - xi) * math.log(large)
    margin = rhs_log - math.log(lhs)
    return InequalityCheck(lhs=lhs, small_factor=small, large_factor=large,
                           exponents=(xi, 1.0 - xi),
                           constant=math.exp(-margin), margin=margin,
                           params=params)


def region_integrals(u, regions: RegionTriple, fmap: FlatteningMap,
                     n_target: int = 240_000) -> tuple[float, float, float]:
    """Quadrature of |u|^2 over the three pulled-back regions.

    The grid lives in flattened coordinates (the shear has unit Jacobian),
    and membership is decided per quadrature point.
    """
    lo, hi = regions.flattened_bbox()
    if hi[0] > fmap.rho0 or -lo[0] > fmap.rho0:
        raise CoverageError(
            f"region width {hi[0]:.3g} exceeds chart radius {fmap.rho0:.3g}; "
            "shrink theta")
    pts, cell = _rect_grid(lo, hi, n_target)
    m3 = regions.in_u3(pts)
    if not m3.any():
        return 0.0, 0.0, 0.0
    m1 = regions.in_u1(pts)
    m2 = regions.in_u2(pts)
    vals = np.zeros(len(pts))
    x_global = fmap.inverse(pts[m3])
    vals[m3] = np.abs(_eval_field(u, x_global)) ** 2
    i1 = float(vals[m1].sum() * cell)
    i2 = float(vals[m2].sum() * cell)
    i3 = float(vals[m3].sum() * cell)
    return i1, i2, i3


def check_three_region(u, regions: RegionTriple, fmap: FlatteningMap,
                       n_target: int = 240_000,
                       zero_tol: float = 1e-14) -> InequalityCheck:
    """Fitted-constant form of the interface three-region inequality."""
    i1, i2, i3 = region_integrals(u, regions, fmap, n_target)
    xi, _ = regions.exponents()
    params = {"R1": regions.R1, "R2": regions.R2, "theta": regions.theta,
              "a": regions.a}
    scale = max(i3, 1.0)
    return _fit_inequality(i2, i1, i3, xi, params, zero_tol * scale)


def three_ball_exponent(r1: float, r2: float, r3: float, lambda0: float,
                        s: float = 1.0) -> float:
    """Interpolation exponent of the away-from-interface three-ball bound."""
    num = (2.0 * r2 / (r3 * lambda0)) ** (-s) - 1.0
    den = (r1 / r3) ** (-s) - 1.0
    if den <= 0 or num <= 0:
        raise ValueError(
            "radius ratios leave the exponent formula's range; need "
            "r1 < r2 < lambda0*r3/2")
    return num / den


def check_three_ball(u, center, r1: float, r2: float, r3: float,
                     s: float = 1.0, tau: Optional[float] = None,
                     n_grid: int = 110,
                     zero_tol: float = 1e-14) -> InequalityCheck:
    """Three-ball inequality at a point, fitted-constant form.

    tau comes from the closed-form exponent when the balls avoid the
    interface; near the interface a caller-configured tau is used and the
    check is flagged as empirical.
    """
    if not (0 < r1 < r2 < r3):
        raise ValueError("radii must satisfy 0 < r1 < r2 < r3")
    c = np.asarray(center, float)
    scene = u.mesh.scene if isinstance(u, Solution) else None
    crosses = False
    if scene is not None:
        if float(scene.outer.signed_distance(c)[0]) > -r3:
            raise ValueError("ball B_r3 must stay inside the domain")
        if scene.interface is not None:
            crosses = bool(abs(float(scene.interface.signed_distance(c)[0])) < r3)
    lambda0 = u.background.lambda0 if isinstance(u, Solution) else 1.0
    if tau is None:
        tau = three_ball_exponent(r1, r2, r3, lambda0, s)
    n1 = math.sqrt(ball_l2_sq(u, c, r1, n_grid))
    n2 = math.sqrt(ball_l2_sq(u, c, r2, n_grid))
    n3 = math.sqrt(ball_l2_sq(u, c, r3, n_grid))
    params = {"r1": r1, "r2": r2, "r3": r3, "tau": tau, "s": s,
              "crosses_interface": crosses, "center": tuple(c)}
    # squared-norm form keeps units consistent with the region checks
    return _fit_inequality(n2 ** 2, n1 ** 2, n3 ** 2, tau, params,
                           zero_tol)


# ---------------------------------------------------------------------------
# Chain of balls


@dataclass
class ChainCertificate:
    """One chain of balls along a curve inside the dilated inclusion."""

    centers: np.ndarray
    radii: tuple[float, float, float]
    tau: float
    m_values: np.ndarray
    link_constants: np.ndarray
    constant: float

    @property
    def n_links(self) -> int:
        return len(self.centers) - 1

    def accumulated_exponent(self) -> float:
        return self.tau ** self.n_links

    def accumulated_constant(self) -> float:
        n = self.n_links
        if n == 0:
            return 1.0
        return self.constant ** ((1.0 - self.tau ** n) / (1.0 - self.tau))

    def bound_holds(self, slack: float = 1e-9) -> bool:
        if self.n_links == 0:
            return True
        m0, mN = self.m_values[0], self.m_values[-1]
        bound = self.accumulated_constant() * m0 ** self.accumulated_exponent()
        return bool(mN <= bound * (1.0 + slack))

    def invariants_ok(self, slack: float = 1e-6) -> dict:
        c = self.centers
        r1, r2, _ = self.radii
        out = {"spacing": True, "disjoint": True, "containment": True}
        step = np.linalg.norm(np.diff(c, axis=0), axis=1)
        if len(step) > 1:
            out["spacing"] = bool(
                np.all(np.abs(step[:-1] - 2.0 * r1) <= slack * r1))
        if len(step) >= 1:
            out["containment"] = bool(np.all(step + r1 <= r2 * (1 + slack)))
        # pairwise disjointness of the non-terminal balls
        cc = c[:-1] if len(c) > 1 else c
        if len(cc) > 1:
            d = np.linalg.norm(cc[:, None, :] - cc[None, :, :], axis=2)
            d += np.eye(len(cc)) * 1e9
            out["disjoint"] = bool(d.min() >= 2.0 * r1 * (1 - slack))
        return out


@dataclass
class PropagationCertificate:
    """Aggregate of all chains from the seed ball to the cube cover of D."""

    chains: list
    radii: tuple[float, float, float]
    tau: float
    m0: float
    u_norm: float
    direct_d_norm_sq: float
    bound_d_norm_sq: float
    delta: float
    n_max: int
    n_bound: float
    r_over_2h_ok: bool

    def holds(self, slack: float = 1e-9) -> bool:
        chains_ok = all(ch.bound_holds() for ch in self.chains)
        return bool(chains_ok and
                    self.direct_d_norm_sq
                    <= self.bound_d_norm_sq * (1.0 + slack) + 1e-30)


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


def _chain_centers(path: np.ndarray, r1: float) -> np.ndarray:
    """Ball centers along a polyline: next center at the last crossing of 2*r1."""
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
            for t in _segment_sphere_crossings(work[i], work[i + 1], c, 2.0 * r1):
                last = (i, work[i] + t * (work[i + 1] - work[i]))
        if last is None:
            raise CoverageError("chain curve never reaches distance 2*r1")
        i, point = last
        centers.append(point.copy())
        work = np.vstack([point[None, :], work[i + 1:]])
    return np.asarray(centers)


def _straight_or_grid_path(region, start, end, step: float) -> np.ndarray:
    """Polyline from start to end inside the region (straight if possible)."""
    import heapq

    start = np.asarray(start, float)
    end = np.asarray(end, float)
    n = max(2, int(np.linalg.norm(end - start) / max(step / 4.0, 1e-12)) + 1)
    line = start[None, :] + np.linspace(0, 1, n)[:, None] * (end - start)[None, :]
    if bool(region.contains(line).all()):
        return np.vstack([start, end])
    # grid graph fallback (8-connected Dijkstra) inside the region
    lo, hi = region.bbox()
    nx = int(math.ceil((hi[0] - lo[0]) / step)) + 1
    ny = int(math.ceil((hi[1] - lo[1]) / step)) + 1
    xs = lo[0] + step * np.arange(nx)
    ys = lo[1] + step * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ok = region.contains(nodes)
    pts = nodes[ok]
    if len(pts) == 0:
        raise CoverageError("dilated inclusion contains no grid nodes")
    keys = np.round((pts - lo) / step).astype(int)
    flat = {(int(k[0]), int(k[1])): i for i, k in enumerate(keys)}

    def nearest(p):
        return int(np.argmin(np.linalg.norm(pts - p, axis=1)))

    src, dst = nearest(start), nearest(end)
    dist = np.full(len(pts), np.inf)
    prev = -np.ones(len(pts), dtype=int)
    dist[src] = 0.0
    heap = [(0.0, src)]
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    while heap:
        d0, i = heapq.heappop(heap)
        if i == dst:
            break
        if d0 > dist[i]:
            continue
        ki = keys[i]
        for dx, dy in offsets:
            j = flat.get((int(ki[0]) + dx, int(ki[1]) + dy))
            if j is None:
                continue
            nd = d0 + math.hypot(dx, dy) * step
            if nd < dist[j]:
                dist[j] = nd
                prev[j] = i
                heapq.heappush(heap, (nd, j))
    if not np.isfinite(dist[dst]):
        raise CoverageError("no connected path inside the dilated inclusion")
    node_path = [dst]
    while node_path[-1] != src:
        node_path.append(int(prev[node_path[-1]]))
    mid = pts[node_path[::-1]]
    return np.vstack([start, mid, end])


def propagate_chain(u: Solution, inclusion, x0, r: float, h: float,
                    s: float = 1.0, tau: Optional[float] = None,
                    n_grid: int = 96) -> PropagationCertificate:
    """Chain-of-balls propagation from a seed ball through the inclusion.

    inclusion is a region object (or closed curve) for D; requires
    B_r(x0) inside D and dist(D, boundary) >= h. Radii are h/30, h/10, h/2
    as in the constructive proof; r/2 > h is recorded but not required for
    building the certificate. Chains share balls (every chain starts at
    x0), so the ball norms are cached by centre: one integral per distinct
    centre.
    """
    region = CurveInterior(inclusion) if hasattr(inclusion, "point_at") else inclusion
    x0 = np.asarray(x0, float)
    if float(region.signed_distance(x0[None, :])[0]) > -r:
        raise StructuralError("seed ball B_r(x0) is not contained in D")
    scene = u.mesh.scene
    # distance from D to the outer boundary, via polylines when D is given
    # as a closed curve (predicate-only regions skip this precondition)
    if hasattr(region, "curve"):
        d_poly = region.curve.nodes(region.curve.perimeter / 720)
        outer_poly = scene.outer.nodes(scene.outer.perimeter / 720)
        gap = float(polyline_min_distance(d_poly, outer_poly).min())
        if gap < h * (1 - 1e-9):
            raise StructuralError(
                f"dist(D, boundary) = {gap:.4g} below the requested h = {h:.4g}")
    r1, r2, r3 = h / 30.0, h / 10.0, h / 2.0
    if tau is None:
        tau = three_ball_exponent(r1, r2, r3, u.background.lambda0, s)
    dtil = dilate(region, r1)

    # cube cover of D by squares of side sqrt(2)*r1
    side = math.sqrt(2.0) * r1
    lo, hi = region.bbox()
    xs = np.arange(lo[0] + side / 2, hi[0] + side, side)
    ys = np.arange(lo[1] + side / 2, hi[1] + side, side)
    X, Y = np.meshgrid(xs, ys)
    cands = np.column_stack([X.ravel(), Y.ravel()])
    w = cands[region.signed_distance(cands) < r1]

    u_norm = math.sqrt(l2_norm_sq(u))
    m_by_center = {}

    def m_at(c) -> float:
        key = c.tobytes()
        if key not in m_by_center:
            m_by_center[key] = math.sqrt(ball_l2_sq(u, c, r1, n_grid)) / u_norm
        return m_by_center[key]

    m0 = m_at(x0)
    chains = []
    n_max = 0
    bound_sq = 0.0
    for wj in w:
        path = _straight_or_grid_path(dtil, x0, wj, r1)
        centers = _chain_centers(path, r1)
        ms = np.array([m_at(c) for c in centers])
        links = np.maximum(ms[1:], 1e-300) / np.maximum(ms[:-1], 1e-300) ** tau
        cmax = float(links.max()) if len(links) else 1.0
        cert = ChainCertificate(centers=centers, radii=(r1, r2, r3), tau=tau,
                                m_values=ms, link_constants=links,
                                constant=cmax)
        chains.append(cert)
        n_max = max(n_max, cert.n_links)
        bound_sq += (cert.accumulated_constant()
                     * m0 ** cert.accumulated_exponent()) ** 2
    bound_sq *= u_norm ** 2
    direct_sq = grid_integrate(
        lambda p: np.abs(_eval_field(u, p)) ** 2, region, n=420)
    delta = min((ch.accumulated_exponent() for ch in chains), default=1.0)
    area = scene.outer.area if hasattr(scene.outer, "area") else float("nan")
    return PropagationCertificate(
        chains=chains, radii=(r1, r2, r3), tau=tau, m0=m0, u_norm=u_norm,
        direct_d_norm_sq=float(direct_sq), bound_d_norm_sq=float(bound_sq),
        delta=float(delta), n_max=n_max,
        n_bound=float(area / (math.pi * r1 ** 2)),
        r_over_2h_ok=bool(r / 2.0 > h))


# ---------------------------------------------------------------------------
# Scaling identity and gradient-energy smallness


def scaling_identity_check(u, region, theta: float,
                           n_target: int = 360_000) -> float:
    """Relative residual of the theta-scaling identity on two separate grids.

    The two sides are integrated on grids of deliberately different
    resolution so the residual reflects genuine quadrature error rather
    than an aligned-sampling tautology. At theta = 1 the two sides are
    literally the same integral, so it is computed once.
    """
    from .geometry import ScaledRegion
    n = 2  # spatial dimension
    scaled = ScaledRegion(region, theta)
    n_lhs = int(math.sqrt(n_target))
    lhs = grid_integrate(lambda p: np.abs(_eval_field(u, p)) ** 2, scaled,
                         n=n_lhs)

    def u_theta_sq(y):
        return np.abs(_eval_field(u, as_points(y) * theta) / theta ** 2) ** 2

    rhs = lhs if theta == 1.0 else theta ** (n + 4) * grid_integrate(
        u_theta_sq, region, n=max(16, int(n_lhs * 5 / 7)))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def lipschitz_smallness(u0: Solution, a: float, max_centers: int = 150,
                        n_grid: int = 72) -> dict:
    """Smallest ball-to-total gradient-energy ratio over centers in Omega_{4a}."""
    scene = u0.mesh.scene
    omega = scene.domain_region()
    inner = erode(omega, 4.0 * a)
    lo, hi = omega.bbox()
    step = max((hi - lo).max() / 40.0, a / 3.0)
    xs = np.arange(lo[0], hi[0] + step, step)
    ys = np.arange(lo[1], hi[1] + step, step)
    X, Y = np.meshgrid(xs, ys)
    centers = np.column_stack([X.ravel(), Y.ravel()])
    centers = centers[inner.contains(centers)]
    if len(centers) == 0:
        raise ValueError(f"Omega_(4a) is empty for a = {a:g}")
    if len(centers) > max_centers:
        sel = np.linspace(0, len(centers) - 1, max_centers).astype(int)
        centers = centers[sel]
    total = gradient_energy(u0)
    dens_e = (np.abs(u0.gradient()) ** 2).sum(axis=1)
    mesh = u0.mesh

    pts_all = []
    weights = []
    offsets = [0]
    for c in centers:
        pts, cell = _rect_grid(c - a, c + a, n_grid * n_grid)
        sd = np.linalg.norm(pts - c, axis=1) - a
        wz = np.clip(0.5 - sd / math.sqrt(cell), 0.0, 1.0) * cell
        keep = wz > 0
        pts_all.append(pts[keep])
        weights.append(wz[keep])
        offsets.append(offsets[-1] + int(keep.sum()))
    allpts = np.vstack(pts_all)
    dens = dens_e[mesh.locate(allpts)]
    ratios = np.empty(len(centers))
    for i in range(len(centers)):
        sl = slice(offsets[i], offsets[i + 1])
        ratios[i] = float(dens[sl] @ weights[i]) / total
    i_min = int(np.argmin(ratios))
    return {"c_a": float(ratios[i_min]), "argmin": tuple(centers[i_min]),
            "ratios": ratios, "centers": centers, "total_energy": total,
            "a": a}


class _BoundaryShell:
    """Omega minus its erosion by depth: the layer hugging the boundary."""

    def __init__(self, omega, depth: float):
        self.omega = omega
        self.depth = float(depth)

    def signed_distance(self, points):
        sd = self.omega.signed_distance(points)
        return np.maximum(sd, -self.depth - sd)

    def contains(self, points):
        return self.signed_distance(points) < 0.0

    def bbox(self):
        return self.omega.bbox()


def boundary_layer(u0: Solution, a_values, n: int = 500) -> dict:
    """Gradient energy in the layer of depth a/4 and its fitted decay exponent."""
    omega = u0.mesh.scene.domain_region()
    dens_e = (np.abs(u0.gradient()) ** 2).sum(axis=1)
    mesh = u0.mesh
    a_values = np.asarray(sorted(a_values), dtype=float)
    energies = []
    for a in a_values:
        shell = _BoundaryShell(omega, a / 4.0)
        val = grid_integrate(
            lambda p: dens_e[mesh.locate(p)], shell, n=n)
        energies.append(val)
    energies = np.asarray(energies)
    good = energies > 0
    if good.sum() >= 2:
        exponent = float(np.polyfit(np.log(a_values[good]),
                                    np.log(energies[good]), 1)[0])
    else:
        exponent = math.nan
    return {"a": a_values, "layer_energy": energies, "exponent": exponent}
