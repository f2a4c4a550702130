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
from typing import NamedTuple, Optional

import numpy as np

from .errors import CoverageError, StructuralError
from .geometry import (
    Circle,
    CurveInterior,
    FlatteningMap,
    RegionTriple,
    _cell_points,
    _grid_rule,
    as_points,
    curve_distance,
    dilate,
    erode,
    grid_integrate,
)
from .mesh import _SAMPLE_BLOCK
from .solver import Solution

__all__ = [
    "InequalityCheck",
    "ChainCertificate",
    "PropagationCertificate",
    "region_integrals",
    "check_three_region",
    "check_three_ball",
    "three_ball_precondition",
    "three_ball_exponent",
    "chain_precondition",
    "propagate_chain",
    "scaling_identity_check",
    "lipschitz_centers",
    "lipschitz_smallness",
    "boundary_layer",
    "l2_norm_sq",
]


class _FieldSampler:
    """Sampler p -> |u(theta p) / theta^2|^2 (theta = 1 when None) of a
    Solution or a family on one mesh, or p -> |grad u|^2 on the element
    holding p of a Solution: what every integral reads of a solution.

    `at(points)` gives the k members' |u|^2, (p, k), from one interpolation.
    `grid_integrate` hands `on_grid` a Solution's grid axes and cells. The
    cells inside the mesh take their elements from the row raster
    (`Mesh.grid_owners`, by the top-left rule); the others are located
    once (`Mesh.locate_grid`) and written back into the raster, which is
    kept for the next call on the same grid, so that call locates nothing
    (the boundary-layer shells share one grid).
    """

    def __init__(self, u, gradient: bool = False,
                 theta: Optional[float] = None):
        family = isinstance(u, list)
        self.mesh = u[0].mesh if family else u.mesh
        if family and any(sol.mesh is not self.mesh for sol in u):
            raise ValueError("a solution family must live on one mesh")
        self.gradient, self.theta = gradient, theta
        # (n_nodes,) of a Solution, (n_nodes, k) of a family
        self.nodal = np.column_stack([sol.u for sol in u]) if family else u.u
        self._dens = u.gradient_density() if gradient else None
        # the raster of the last grid, kept for the next call on it
        self._grid = None

    def at(self, points) -> np.ndarray:
        p = as_points(points) * (1.0 if self.theta is None else self.theta)
        return self._finish(self.mesh.interpolate(
            self.nodal.reshape(len(self.nodal), -1), p))

    def on_grid(self, xs, ys, cells) -> np.ndarray:
        if self.theta is not None:
            xs, ys = xs * self.theta, ys * self.theta
        key = (xs.tobytes(), ys.tobytes())
        if self._grid is None or self._grid[0] != key:
            self._grid = (key, self.mesh.grid_owners(xs, ys))
        elements = self.mesh.locate_grid(xs, ys, cells, self._grid[1])
        if self.gradient:
            return self._dens[elements]
        # interpolated a band of about _SAMPLE_BLOCK cells at a time
        out = np.empty(len(elements))
        band = max(1, _SAMPLE_BLOCK // len(xs))
        done = 0
        for r0 in range(0, len(ys), band):
            part = cells[r0:r0 + band]
            points = _cell_points(xs, ys[r0:r0 + band], part)
            end = done + len(points)
            out[done:end] = self._finish(self.mesh.interpolate(
                self.nodal, points, elements[done:end]))
            done = end
        return out

    def _finish(self, u) -> np.ndarray:
        if self.theta is not None:
            u = u / self.theta ** 2
        return np.abs(u) ** 2


# Ball stencil intervals per block of centres. A block's temporaries take
# about 300 bytes an interval, about what one block of _SAMPLE_BLOCK
# sampled points takes.
_INTERVAL_BLOCK = _SAMPLE_BLOCK // 4

# Cells a side of the chain's and the Lipschitz check's ball stencils, and
# of the boundary-layer grid.
_CHAIN_GRID = 96
_LIPSCHITZ_GRID = 72
_LAYER_GRID = 500

# A fitted inequality's left side or small factor at or below _ZERO_TOL
# (times the large factor, if above 1, for the region checks) counts as
# zero. The chain bounds hold to a relative _BOUND_SLACK, and the chain
# invariants (spacing, containment, disjointness) to _LINK_SLACK.
_ZERO_TOL = 1e-14
_BOUND_SLACK = 1e-9
_LINK_SLACK = 1e-6


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


class _Stencil(NamedTuple):
    """The ball stencil as full rows; see `_stencil_rows`."""

    xs: np.ndarray
    ys: np.ndarray
    dx: float
    dy: float
    weight: np.ndarray
    prefix: np.ndarray
    kept: int


def _stencil_rows(radius: float, n_grid: int) -> _Stencil:
    """The ball stencil as full rows, with per-row prefix sums.

    The stencil is `grid_integrate`'s antialiased rule on the disk of
    `radius` around the origin, n_grid x n_grid cells (at least 16).
    Returns the column and row offsets xs (nx,) and ys (ny,), their
    spacings dx, dy, the weights (ny, nx) times the cell area (0 for cells
    the rule drops), and a table (ny * (nx + 1), 7) whose entry
    j * (nx + 1) + i holds the sums over row j's first i columns of w,
    w x and w x^2 (x the column offset), each as a rounded sum and its
    rounding error, then the count of kept cells; and the number of kept
    cells. The error terms keep a difference of two sums accurate to the
    terms it spans.
    """
    xs, ys, w, dx, dy = _grid_rule(Circle((0.0, 0.0), radius),
                                   max(16, n_grid))
    weight = w * (dx * dy)
    terms = np.stack([weight, weight * xs, weight * xs * xs])
    sums = np.cumsum(terms, axis=2)
    before = np.zeros_like(sums)
    before[:, :, 1:] = sums[:, :, :-1]
    # each step's exact rounding error (Knuth's two-sum), accumulated
    added = sums - before
    error = (before - (sums - added)) + (terms - added)
    table = np.zeros((7, len(ys), len(xs) + 1))
    table[:3, :, 1:] = sums
    np.cumsum(error, axis=2, out=table[3:6, :, 1:])
    np.cumsum(w > 0.0, axis=1, out=table[6, :, 1:])
    prefix = np.ascontiguousarray(table.transpose(1, 2, 0))
    return _Stencil(xs, ys, dx, dy, weight, prefix.reshape(-1, 7),
                    int(np.count_nonzero(w)))


def _ball_sums(sol: Solution, centers, radius: float, n_grid: int,
               gradient: bool = False) -> np.ndarray:
    """Stencil sum of |u|^2, or of |grad u|^2, over the disk around each
    centre, with no stencil point inside the mesh located.

    The stencil is one set of rows (`_stencil_rows`). A P1 field is affine
    on each element, so along one row inside one element u = A + B x, and
    that interval adds |A|^2 S0 + 2 Re(conj(A) B) S1 + |B|^2 S2, where
    S0, S1, S2 are the interval's sums of w, w x and w x^2: two prefix
    lookups (|grad u|^2 adds the element's density times S0). u is
    expanded about the element's first vertex and the prefix sums carry
    their rounding errors, so the terms stay near the interval's sum; the
    relative error grows like (|grad u| r / |u|)^2, to about 6e-14 for
    independent nodal noise at r = 10 h.

    The intervals are the elements' `Mesh.row_spans` on the stencil (the
    top-left rule), which tile the mesh's part of each row, so every
    stencil point inside the mesh is counted once. Each centre's claimed
    kept cells are counted exactly; a centre whose count is off has
    stencil points outside the mesh (or, by rounding at a vertex, a point
    claimed twice), and its whole ball is sampled on the stencil's grid
    (`_FieldSampler.on_grid`), whose nearest-element extension and
    `CoverageError` apply as to any grid.

    Centres are taken in blocks of about ``_INTERVAL_BLOCK`` intervals, so
    memory does not grow with their number. Each centre's terms are
    summed pairwise in an order of its own, so its value does not depend
    on its block.
    """
    mesh = sol.mesh
    stencil = _stencil_rows(radius, n_grid)
    out = np.zeros(len(centers))
    if not len(stencil.ys):
        return out
    # samples the balls that leave the mesh; its density serves the rest
    sampler = _FieldSampler(sol, gradient)
    kept = stencil.weight > 0.0
    # rows times the elements one row crosses
    per = max(1, int(_INTERVAL_BLOCK // (len(stencil.ys)
                                         * (4.0 * radius / mesh.h + 3.0))))
    for start in range(0, len(centers), per):
        c = centers[start:start + per]
        ball, elem = mesh.elements_near(c, radius)
        halves = _intervals(sol, sampler._dens, c, ball, elem, stencil)
        sums = sum(_run_sums(h[0], h[1], len(c)) for h in halves)
        claimed = sum(_run_sums(h[0], h[2], len(c)) for h in halves)
        for i in np.flatnonzero(claimed != stencil.kept):
            sums[i] = np.sum(sampler.on_grid(c[i, 0] + stencil.xs,
                                             c[i, 1] + stencil.ys, kept)
                             * stencil.weight[kept])
        out[start:start + len(c)] = sums
    return out


def _run_sums(ids, vals, n: int) -> np.ndarray:
    """(n,) sums of vals over each run of equal ids (ids sorted), 0 for an
    id without one. Each run is summed pairwise, as `np.sum` does, so its
    sum depends on its own values only."""
    out = np.zeros(n)
    if len(ids):
        start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        out[ids[start]] = np.add.reduceat(vals, start)
    return out


def _intervals(sol, dens, c, ball, elem, stencil) -> list:
    """The (element, row) intervals of (centre, element) pairs; see
    `_ball_sums`. dens is the per-element |grad u|^2, or None for |u|^2.

    Returns two tuples of interval arrays, for the rows below and above
    each element's middle vertex (`Mesh.row_spans`), sorted by centre:
    centre, moment sum, kept cells.
    """
    mesh = sol.mesh
    xs, ys, dx, dy, _, prefix, _ = stencil
    cx, cy = c[ball, 0], c[ball, 1]
    if dens is not None:
        per_pair = [dens[elem]]
    else:
        # along a row, u = A + B (x - x_first) from the element's first
        # vertex: A = u_first + gy (y - y_first), B = gx. Real and
        # imaginary parts are kept apart, so every operation is
        # elementwise real arithmetic.
        tri = mesh.triangles[elem]
        p = mesh.points[tri[:, 0]]
        grads = mesh.grads[elem]
        nodal = sol.u[tri]
        u_re, u_im = nodal.real, nodal.imag
        gx_re, gx_im, gy_re, gy_im = (
            part[:, 0] * grads[:, 0, d] + part[:, 1] * grads[:, 1, d]
            + part[:, 2] * grads[:, 2, d]
            for d in (0, 1) for part in (u_re, u_im))
        per_pair = [p[:, 0] - cx, cy - p[:, 1], u_re[:, 0],
                    u_im[:, 0], gy_re, gy_im, 2.0 * gx_re, 2.0 * gx_im,
                    gx_re * gx_re + gx_im * gx_im]
    halves = []
    for k, j, il, ir in mesh.row_spans(elem, cx, cy, xs, ys, dx, dy):
        base = j * (len(xs) + 1)
        m = prefix.take(base + ir, axis=0) - prefix.take(base + il, axis=0)
        s0 = m[:, 0] + m[:, 3]
        if dens is not None:
            val = per_pair[0][k] * s0
        else:
            x_first, y_off, a_re, a_im, gy_re, gy_im, b2_re, b2_im, bb = (
                q[k] for q in per_pair)
            dy_first = y_off + ys[j]
            a_re += gy_re * dy_first
            a_im += gy_im * dy_first
            # moments of x - x_first
            s1 = m[:, 1] + m[:, 4]
            s1_first = s1 - x_first * s0
            s2_first = (m[:, 2] + m[:, 5]) - x_first * (s1 + s1_first)
            val = ((a_re * a_re + a_im * a_im) * s0
                   + (a_re * b2_re + a_im * b2_im) * s1_first
                   + bb * s2_first)
        halves.append((ball[k], val, m[:, 6]))
    return halves


def ball_l2_sq(u: Solution, center, radius: float, n_grid: int = 110):
    """Integral of |u|^2 over the disk of `radius` around `center`.

    center is one point, giving a float, or an (N, 2) array of centres,
    giving (N,) integrals; each entry is bitwise the one-centre value. The
    integral is `grid_integrate`'s antialiased rule on the disk, built once
    around the origin; u being affine on each element, each ball is summed
    from per-element moments of the stencil's rows, with no stencil point
    located (see `_ball_sums`).
    """
    c = np.asarray(center, float)
    sums = _ball_sums(u, c.reshape(-1, 2), radius, n_grid)
    return float(sums[0]) if c.ndim == 1 else sums


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
                    params: dict, scale: float = 1.0) -> InequalityCheck:
    """The fitted check; lhs or small at or below _ZERO_TOL * scale is 0."""
    fit = dict(lhs=lhs, small_factor=small, large_factor=large,
               exponents=(xi, 1.0 - xi), params=params)
    if lhs <= _ZERO_TOL * scale:
        return InequalityCheck(**fit, constant=0.0, margin=math.inf)
    if small <= _ZERO_TOL * scale:
        # the theory predicts lhs = 0 whenever the small factor vanishes
        return InequalityCheck(**fit, constant=math.inf, margin=-math.inf,
                               violation_candidate=True)
    rhs_log = xi * math.log(small) + (1.0 - xi) * math.log(large)
    margin = rhs_log - math.log(lhs)
    return InequalityCheck(**fit, constant=math.exp(-margin), margin=margin)


def region_integrals(sampler, regions: RegionTriple, fmap: FlatteningMap,
                     n_target: int = 240_000) -> list:
    """Quadrature of a sampler's values over the three pulled-back regions,
    one (I1, I2, I3) per column of `sampler.at`, from one grid.

    The grid lives in flattened coordinates (the shear has unit Jacobian),
    and membership is decided per quadrature point.
    """
    lo, hi = regions.flattened_bbox()
    if hi[0] > fmap.rho0 or -lo[0] > fmap.rho0:
        raise CoverageError(
            f"region width {hi[0]:.3g} exceeds chart radius {fmap.rho0:.3g}; "
            "shrink theta")
    pts, cell = _rect_grid(lo, hi, n_target)
    m1 = regions.in_u1(pts)
    m2 = regions.in_u2(pts)
    m3 = regions.in_u3(pts)
    vals = np.zeros(len(pts))
    out = []
    for col in sampler.at(fmap.inverse(pts[m3])).T:
        vals[m3] = col
        out.append(tuple(float(vals[m].sum() * cell) for m in (m1, m2, m3)))
    return out


def check_three_region(family: list, regions: RegionTriple,
                       fmap: FlatteningMap) -> list:
    """Fitted-constant form of the interface three-region inequality, one
    check per member of a family of Solutions on one mesh, all sampled on
    one grid (see `region_integrals`)."""
    xi, _ = regions.exponents()
    return [_fit_inequality(i2, i1, i3, xi, {
        "R1": regions.R1, "R2": regions.R2, "theta": regions.theta,
        "a": regions.a}, max(i3, 1.0))
        for i1, i2, i3 in region_integrals(_FieldSampler(family), regions,
                                           fmap)]


def three_ball_exponent(r1: float, r2: float, r3: float,
                        lambda0: float) -> float:
    """Interpolation exponent of the away-from-interface three-ball bound."""
    num = (2.0 * r2 / (r3 * lambda0)) ** (-1.0) - 1.0
    den = (r1 / r3) ** (-1.0) - 1.0
    if den <= 0 or num <= 0:
        raise ValueError(
            "radius ratios leave the exponent formula's range; need "
            "r1 < r2 < lambda0*r3/2")
    return num / den


def three_ball_precondition(scene, lambda0: float, center, r1: float,
                            r2: float, r3: float) -> float:
    """The exponent tau of a three-ball check, once its inputs pass.

    Raises ValueError unless 0 < r1 < r2 < r3, the ball B_r3 lies inside
    the domain and the radius ratios are in the closed-form exponent's
    range. It needs only the scene and the background's lambda0, so a
    config can be checked before any solve.
    """
    if not (0 < r1 < r2 < r3):
        raise ValueError("radii must satisfy 0 < r1 < r2 < r3")
    c = np.asarray(center, float)
    if float(scene.outer.signed_distance(c)[0]) > -r3:
        raise ValueError("ball B_r3 must stay inside the domain")
    return three_ball_exponent(r1, r2, r3, lambda0)


def check_three_ball(u: Solution, center, r1: float, r2: float,
                     r3: float) -> InequalityCheck:
    """Three-ball inequality at a point, fitted-constant form.

    tau is always the closed-form exponent of `three_ball_exponent`, which
    is proven for balls that avoid the interface; when B_r3 meets it, the
    check is flagged ``crosses_interface`` and its constant is empirical.
    The inputs must pass `three_ball_precondition`.
    """
    c = np.asarray(center, float)
    scene = u.mesh.scene
    tau = three_ball_precondition(scene, u.background.lambda0, c, r1, r2, r3)
    crosses = scene.interface is not None and bool(
        abs(float(scene.interface.signed_distance(c)[0])) < r3)
    n1, n2, n3 = (math.sqrt(ball_l2_sq(u, c, r)) for r in (r1, r2, r3))
    params = {"r1": r1, "r2": r2, "r3": r3, "tau": tau,
              "crosses_interface": crosses, "center": tuple(c)}
    # squared-norm form keeps units consistent with the region checks
    return _fit_inequality(n2 ** 2, n1 ** 2, n3 ** 2, tau, params)


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

    def bound_holds(self) -> bool:
        if self.n_links == 0:
            return True
        m0, mN = self.m_values[0], self.m_values[-1]
        bound = self.accumulated_constant() * m0 ** self.accumulated_exponent()
        return bool(mN <= bound * (1.0 + _BOUND_SLACK))

    def invariants_ok(self) -> dict:
        c = self.centers
        r1, r2, _ = self.radii
        out = {"spacing": True, "disjoint": True, "containment": True}
        step = np.linalg.norm(np.diff(c, axis=0), axis=1)
        if len(step) > 1:
            out["spacing"] = bool(
                np.all(np.abs(step[:-1] - 2.0 * r1) <= _LINK_SLACK * r1))
        if len(step) >= 1:
            out["containment"] = bool(
                np.all(step + r1 <= r2 * (1 + _LINK_SLACK)))
        # pairwise disjointness of the non-terminal balls
        cc = c[:-1] if len(c) > 1 else c
        if len(cc) > 1:
            d = np.linalg.norm(cc[:, None, :] - cc[None, :, :], axis=2)
            d += np.eye(len(cc)) * 1e9
            out["disjoint"] = bool(d.min() >= 2.0 * r1 * (1 - _LINK_SLACK))
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

    def holds(self) -> bool:
        chains_ok = all(ch.bound_holds() for ch in self.chains)
        return bool(chains_ok and
                    self.direct_d_norm_sq
                    <= self.bound_d_norm_sq * (1.0 + _BOUND_SLACK) + 1e-30)


def _straight_chains(region, x0, targets, r1: float) -> list:
    """The ball centres of each chain, on the segment from x0 to each w.

    D is convex (configs allow circles and ellipses), so each segment,
    sampled every r1 / 4, must lie in the region, dilate(D, r1); else
    CoverageError names the first w whose segment leaves it. At length L,
    the centres are x0 + k (2 r1 / L) (w - x0), k = 0 .. ceil(L / 2 r1) - 1,
    then w when the gap left is above 1e-12 r1.
    """
    d = targets - x0
    length = np.linalg.norm(d, axis=1)
    n = np.maximum(2, (length / max(r1 / 4.0, 1e-12)).astype(int) + 1)
    samples, seg = _points_along(x0, d, n, 1.0 / (n - 1))
    outside = np.flatnonzero(~(region.signed_distance(samples) < 0.0))
    if len(outside):
        w = targets[seg[outside[0]]]
        raise CoverageError(
            f"chain path from x0 = ({x0[0]:.4g}, {x0[1]:.4g}) to cover "
            f"point ({w[0]:.4g}, {w[1]:.4g}) leaves dilate(D, r1); "
            "D must be convex")
    n = np.maximum(1, np.ceil(length / (2.0 * r1)).astype(int))
    # a chain shorter than 2 r1 has k = 0 only, whatever its step
    centres, _ = _points_along(x0, d, n,
                               2.0 * r1 / np.maximum(length, 2.0 * r1))
    last = np.cumsum(n) - 1
    tail = np.linalg.norm(targets - centres[last], axis=1) > 1e-12 * r1
    centres = np.insert(centres, last[tail] + 1, targets[tail], axis=0)
    return np.split(centres, np.cumsum(n + tail))[:-1]


def _points_along(x0, d, counts, step):
    """x0 + (k step_j) d_j, k = 0 .. counts_j - 1, for each j, and its j."""
    j = np.repeat(np.arange(len(d)), counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return x0 + (k * step[j])[:, None] * d[j], j


def chain_precondition(scene, region, x0, r: float,
                       h: float) -> tuple[float, float, float]:
    """A chain's radii h/30, h/10, h/2; ValueError unless h > 0.

    StructuralError unless the seed ball B_r(x0) lies in the region D and
    dist(D, boundary) >= h (for a curve's interior). It needs only the
    scene, so a config can be checked before any solve.
    """
    if not h > 0:
        raise ValueError(f"chain h must be positive, got {h:g}")
    if float(region.signed_distance(np.asarray(x0, float)[None, :])[0]) > -r:
        raise StructuralError("seed ball B_r(x0) is not contained in D")
    # dist(D, boundary) as `Scene.validate` measures it, for D given as a
    # closed curve (predicate-only regions skip this precondition)
    if hasattr(region, "curve"):
        gap = curve_distance(region.curve, scene.outer)
        if gap < h * (1 - 1e-9):
            raise StructuralError(
                f"dist(D, boundary) = {gap:.4g} below the requested h = {h:.4g}")
    return h / 30.0, h / 10.0, h / 2.0


def propagate_chain(u: Solution, inclusion, x0, r: float,
                    h: float) -> PropagationCertificate:
    """Chain-of-balls propagation from a seed ball through the inclusion.

    inclusion is a region object (or closed curve) for D; the inputs must
    pass `chain_precondition`, whose radii h/30, h/10, h/2 are those of the
    constructive proof; r/2 > h is recorded but not required for
    building the certificate. The chains run straight from x0 to a cover
    of D and are built at once (`_straight_chains`); they share balls
    (every chain starts at x0), so one `ball_l2_sq` call integrates each
    distinct centre once.
    """
    region = CurveInterior(inclusion) if hasattr(inclusion, "point_at") else inclusion
    r1, r2, r3 = chain_precondition(u.mesh.scene, region, x0, r, h)
    x0 = np.asarray(x0, float)
    tau = three_ball_exponent(r1, r2, r3, u.background.lambda0)

    # cube cover of D by squares of side sqrt(2)*r1
    side = math.sqrt(2.0) * r1
    lo, hi = region.bbox()
    xs = np.arange(lo[0] + side / 2, hi[0] + side, side)
    ys = np.arange(lo[1] + side / 2, hi[1] + side, side)
    X, Y = np.meshgrid(xs, ys)
    cands = np.column_stack([X.ravel(), Y.ravel()])
    w = cands[region.signed_distance(cands) < r1]

    u_norm = math.sqrt(l2_norm_sq(u))
    paths = _straight_chains(dilate(region, r1), x0, w, r1)
    # the chains share balls (all start at x0): one integral per distinct
    # centre, all in one call, scattered back to the chains
    distinct, where = np.unique(np.vstack([x0[None, :], *paths]), axis=0,
                                return_inverse=True)
    m_all = (np.sqrt(ball_l2_sq(u, distinct, r1, _CHAIN_GRID))
             / u_norm)[where.reshape(-1)]
    m0 = float(m_all[0])
    chains = []
    start = 1
    for centers in paths:
        ms = m_all[start:start + len(centers)]
        start += len(centers)
        links = np.maximum(ms[1:], 1e-300) / np.maximum(ms[:-1], 1e-300) ** tau
        chains.append(ChainCertificate(
            centers=centers, radii=(r1, r2, r3), tau=tau, m_values=ms,
            link_constants=links,
            constant=float(links.max()) if len(links) else 1.0))
    bound_sq = sum((ch.accumulated_constant()
                    * m0 ** ch.accumulated_exponent()) ** 2
                   for ch in chains) * u_norm ** 2
    direct_sq = grid_integrate(_FieldSampler(u), region, n=420)
    delta = min((ch.accumulated_exponent() for ch in chains), default=1.0)
    area = getattr(u.mesh.scene.outer, "area", math.nan)
    return PropagationCertificate(
        chains=chains, radii=(r1, r2, r3), tau=tau, m0=m0, u_norm=u_norm,
        direct_d_norm_sq=float(direct_sq), bound_d_norm_sq=float(bound_sq),
        delta=float(delta),
        n_max=max((ch.n_links for ch in chains), default=0),
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
    lhs = grid_integrate(_FieldSampler(u), scaled, n=n_lhs)
    rhs = lhs if theta == 1.0 else theta ** (n + 4) * grid_integrate(
        _FieldSampler(u, theta=theta), region, n=max(16, int(n_lhs * 5 / 7)))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def lipschitz_centers(scene, a: float, max_centers: int = 150) -> np.ndarray:
    """Ball centres of `lipschitz_smallness`: a grid over the domain's box
    kept inside Omega_{4a}, thinned evenly to at most max_centers.

    Raises ValueError unless a > 0 and Omega_{4a} holds a centre; it needs
    only the scene, so a config can be checked before any solve.
    """
    if not a > 0:
        raise ValueError(f"lipschitz a must be positive, got {a:g}")
    omega = scene.domain_region()
    inner = erode(omega, 4.0 * a)
    lo, hi = omega.bbox()
    step = max((hi - lo).max() / 40.0, a / 3.0)
    xs = np.arange(lo[0], hi[0] + step, step)
    ys = np.arange(lo[1], hi[1] + step, step)
    X, Y = np.meshgrid(xs, ys)
    centers = np.column_stack([X.ravel(), Y.ravel()])
    centers = centers[inner.signed_distance(centers) < 0.0]
    if len(centers) == 0:
        raise ValueError(f"Omega_(4a) is empty for a = {a:g}")
    if len(centers) > max_centers:
        sel = np.linspace(0, len(centers) - 1, max_centers).astype(int)
        centers = centers[sel]
    return centers


def lipschitz_smallness(u0: Solution, a: float,
                        max_centers: int = 150) -> dict:
    """Smallest ball-to-total gradient-energy ratio over centers in Omega_{4a}.

    The centres are `lipschitz_centers`. Each ball's energy is the stencil
    sum of the per-element |grad u|^2 over the disk of radius a, from the
    same stencil as `ball_l2_sq` and with no stencil point located (see
    `_ball_sums`).
    """
    centers = lipschitz_centers(u0.mesh.scene, a, max_centers)
    total = u0.gradient_energy()
    ratios = _ball_sums(u0, centers, a, _LIPSCHITZ_GRID,
                        gradient=True) / total
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

    def bbox(self):
        return self.omega.bbox()


def boundary_layer(u0: Solution, a_values) -> dict:
    """Gradient energy in the layer of depth a/4 and its fitted decay exponent."""
    omega = u0.mesh.scene.domain_region()
    sample = _FieldSampler(u0, gradient=True)
    a_values = np.asarray(sorted(a_values), dtype=float)
    energies = np.array([grid_integrate(sample, _BoundaryShell(omega, a / 4.0),
                                        n=_LAYER_GRID) for a in a_values])
    good = energies > 0
    if good.sum() >= 2:
        exponent = float(np.polyfit(np.log(a_values[good]),
                                    np.log(energies[good]), 1)[0])
    else:
        exponent = math.nan
    return {"a": a_values, "layer_energy": energies, "exponent": exponent}
