"""Domain geometry: curves, regions, weight-function level sets, flattening maps.

Everything here is immutable after construction and evaluates pointwise on
numpy arrays of shape (n, 2), so it is safe to call from concurrent contexts.
Curves answer their own queries exactly (containment, signed distance,
the parameter of a point on them, the local chart), and the distance to a
polygon is exact too: the minimum over all its segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import ChartRangeError, StructuralError

__all__ = [
    "Circle",
    "Ellipse",
    "CurveInterior",
    "RectRegion",
    "ScaledRegion",
    "Scene",
    "WeightParams",
    "RegionTriple",
    "FlatteningMap",
    "z_value",
    "max_region_radius",
    "build_regions",
    "flattening_map",
    "erode",
    "dilate",
    "grid_integrate",
    "region_area",
    "vitali_cover",
    "curve_distance",
]


def as_points(x) -> np.ndarray:
    """Coerce a point or array of points to shape (n, 2)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.shape[-1] != 2:
        raise ValueError(f"expected 2d points, got shape {a.shape}")
    return a


# Point-vertex pairs per KD-tree query in polyline_min_distance; bounds its
# temporaries to a few MB whatever the number of points.
_QUERY_PAIRS = 32_768


def _norm(v: np.ndarray) -> np.ndarray:
    """Length of 2-vectors along the last axis.

    Bitwise ``np.linalg.norm(v, axis=-1)``, which is the square root of
    the reduced squares, without the generic reduction's overhead.
    """
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of 2-vectors along the last axis; bitwise ``(a * b).sum(-1)``."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _segment_distances(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points q (n,2) to segments a->b (n,k,2) or (1,k,2)."""
    ab = b - a
    ab2 = np.maximum(_dot(ab, ab), 1e-300)
    t = np.clip(_dot(q[:, None, :] - a, ab) / ab2, 0.0, 1.0)
    proj = a + t[:, :, None] * ab
    return _norm(q[:, None, :] - proj)


def polyline_min_distance(points, poly, cap: float = math.inf) -> np.ndarray:
    """Exact distance from each point to a closed polygon.

    Distances above ``cap`` come back as inf; a finite ``cap`` lets points
    far from the polygon skip all segment work. Every other entry is
    bitwise the minimum over all segments of ``_segment_distances``.

    Candidates come from a vertex KD-tree: the k nearest vertices and the
    two segments touching each. If the nearest segment has length l <= L
    (the longest segment) and distance D, one of its ends lies within
    sqrt(D^2 + l^2/4) of the point. So once the k-th vertex is farther than
    sqrt(min(d, cap)^2 + L^2/4), where d is the best candidate distance,
    no segment outside the candidates can be nearer; points that fail this
    test are queried again with four times as many vertices, up to all.
    """
    p = as_points(points)
    v = np.asarray(poly, dtype=float)
    n = len(v)
    # segment j runs from a[j] = v[j] to b[j] = v[(j + 1) % n]
    a, b = v, np.roll(v, -1, axis=0)
    half_l2 = 0.25 * float(((b - a) ** 2).sum(axis=1).max())
    # widens every radius past the rounding of the distances it compares
    slack = 1e-12 * (float(np.abs(v).max()) + float(np.abs(p).max(initial=0.0)))
    bound = math.sqrt(cap * cap + half_l2) + slack if cap < math.inf else math.inf
    tree = cKDTree(v)
    out = np.empty(len(p))
    todo = np.arange(len(p))
    k = min(8, n)
    while len(todo):
        again = []
        rows = max(1, _QUERY_PAIRS // k)
        for lo in range(0, len(todo), rows):
            i = todo[lo:lo + rows]
            dist, idx = tree.query(p[i], k=k, distance_upper_bound=bound)
            dist = dist.reshape(len(i), k)
            idx = idx.reshape(len(i), k)
            best = np.full(len(i), np.inf)
            found = idx[:, 0] < n
            if found.any():
                # missing neighbours (index n) repeat the nearest vertex
                j = idx[found]
                j = np.where(j < n, j, j[:, :1])
                seg = np.concatenate([(j - 1) % n, j], axis=1)
                best[found] = _segment_distances(p[i[found]], a[seg],
                                                 b[seg]).min(axis=1)
            out[i] = best
            if k < n:
                reach = np.sqrt(np.minimum(best, cap) ** 2 + half_l2) + slack
                again.append(i[dist[:, -1] <= reach])
        todo = np.concatenate(again) if again else todo[:0]
        k = min(4 * k, n)
    out[out > cap] = np.inf
    return out


# ---------------------------------------------------------------------------
# Closed curves


@dataclass(frozen=True)
class Circle:
    """Circle of given center and radius; all queries are exact."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")

    def point_at(self, t) -> np.ndarray:
        """Point at parameter t in [0, 1)."""
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        c = np.asarray(self.center)
        return np.stack([c[0] + self.radius * np.cos(ang),
                         c[1] + self.radius * np.sin(ang)], axis=-1)

    @property
    def perimeter(self) -> float:
        return 2.0 * math.pi * self.radius

    def contains(self, points) -> np.ndarray:
        p = as_points(points)
        return _norm(p - np.asarray(self.center)) < self.radius

    def signed_distance(self, points) -> np.ndarray:
        p = as_points(points)
        return _norm(p - np.asarray(self.center)) - self.radius

    def nodes(self, h: float) -> np.ndarray:
        n = max(12, int(math.ceil(self.perimeter / h)))
        return self.point_at(np.arange(n) / n)

    def arc_of(self, t):
        """Share of the perimeter from parameter 0 to t: t itself."""
        return t

    def param_at_arc(self, share):
        """Parameter at a share of the perimeter: the share itself."""
        return share

    def param_of(self, points) -> np.ndarray:
        """Parameter t in [0,1) of points assumed to lie on the curve."""
        p = as_points(points) - np.asarray(self.center)
        ang = np.arctan2(p[:, 1], p[:, 0])
        return np.mod(ang / (2.0 * np.pi), 1.0)

    def chart(self, t: float, rho0: float) -> tuple:
        """Anchor, tangent, outward normal and graph psi at parameter t."""
        P = self.point_at(t).reshape(2)
        c = np.asarray(self.center)
        normal = (P - c) / np.linalg.norm(P - c)
        tangent = np.array([-normal[1], normal[0]])
        R = self.radius
        if rho0 >= R:
            raise ValueError("chart radius must be below the circle radius")

        def psi(xp, R=R):
            xp = np.asarray(xp, dtype=float)
            return np.sqrt(R * R - xp * xp) - R
        return P, tangent, normal, psi

    def bbox(self):
        c = np.asarray(self.center)
        r = self.radius
        return c - r, c + r

    @property
    def area(self) -> float:
        return math.pi * self.radius ** 2


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse with semi-axes (a, b); all queries are exact."""

    center: tuple[float, float]
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("ellipse semi-axes must be positive")

    def point_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        c = np.asarray(self.center)
        return np.stack([c[0] + self.a * np.cos(ang),
                         c[1] + self.b * np.sin(ang)], axis=-1)

    @property
    def perimeter(self) -> float:
        # Ramanujan's approximation, adequate for node budgeting.
        a, b = self.a, self.b
        h = (a - b) ** 2 / (a + b) ** 2
        return math.pi * (a + b) * (1.0 + 3.0 * h / (10.0 + math.sqrt(4.0 - 3.0 * h)))

    def _implicit(self, points) -> np.ndarray:
        p = as_points(points) - np.asarray(self.center)
        return (p[:, 0] / self.a) ** 2 + (p[:, 1] / self.b) ** 2 - 1.0

    def contains(self, points) -> np.ndarray:
        return self._implicit(points) < 0.0

    def signed_distance(self, points) -> np.ndarray:
        """Distance to the curve, negative where `contains` holds.

        Eberly's foot point (Distance from a Point to an Ellipse, an
        Ellipsoid, or a Hyperellipsoid, Geometric Tools, 2013) of y =
        |p - center|, with the longer semi-axis e0 first, z = y / e and
        r = (e0 / e1)^2. Off the axes it is (r y0 / (u + r - 1), y1 / u)
        at the root u > 0 of the decreasing F(u) = (r z0 / (u + r - 1))^2
        + (z1 / u)^2 - 1, bisected to the last bit in [z1, 1] inside and
        [1, |(r z0, z1)|] outside; Eberly's s = u - 1 would cancel near the
        centre. The distance is then |1 - u| |(y0 / (u + r - 1), y1 / u)|.
        On the axes the foot point has a closed form.
        """
        g = self._implicit(points)
        p = np.abs(as_points(points) - np.asarray(self.center))
        e0, e1 = max(self.a, self.b), min(self.a, self.b)
        y0, y1 = (p if self.a >= self.b else p[:, ::-1]).T
        d = np.abs(y1 - e1)  # the minor axis
        major = np.flatnonzero((y1 == 0.0) & (y0 > 0.0))
        d[major] = np.abs(y0[major] - e0)
        k = major[e0 * y0[major] < e0 * e0 - e1 * e1]
        x = e0 * y0[k] / (e0 * e0 - e1 * e1)
        d[k] = np.hypot(e0 * x - y0[k], e1 * np.sqrt(1.0 - x * x))
        off = np.flatnonzero((y0 > 0.0) & (y1 > 0.0))
        y0, y1 = y0[off], y1[off]
        z1, n0, rm1 = y1 / e1, (e0 / e1) * (y0 / e1), (e0 / e1) ** 2 - 1.0
        inside = g[off] < 0.0
        lo, hi = np.where(inside, z1, 1.0), np.where(inside, 1.0, np.hypot(n0, z1))
        u, todo = np.empty(len(off)), np.arange(len(off))
        while len(todo):
            mid = 0.5 * (lo + hi)
            f = (n0[todo] / (mid + rm1)) ** 2 + (z1[todo] / mid) ** 2 - 1.0
            done = (mid == lo) | (mid == hi) | (f == 0.0)
            u[todo[done]] = mid[done]
            todo, mid, f, lo, hi = (v[~done] for v in (todo, mid, f, lo, hi))
            lo, hi = np.where(f > 0.0, mid, lo), np.where(f > 0.0, hi, mid)
        d[off] = np.abs(1.0 - u) * np.hypot(y0 / (u + rm1), y1 / u)
        return np.where(g < 0.0, -d, d)

    def _arc_table(self) -> tuple:
        """Chord lengths of 4096 even parameter steps, and their running
        sum s from 0: the arc-length table every node placement reads."""
        dense = self.point_at(np.arange(4096) / 4096)
        seg = np.linalg.norm(np.diff(np.vstack([dense, dense[:1]]), axis=0), axis=1)
        return seg, np.concatenate([[0.0], np.cumsum(seg)])

    @staticmethod
    def _param_at_length(lengths, seg, s) -> np.ndarray:
        """Parameters at arc lengths in [0, s[-1]), interpolated in the table."""
        idx = np.minimum(np.searchsorted(s, lengths, side="right") - 1, 4095)
        frac = (lengths - s[idx]) / np.maximum(seg[idx], 1e-300)
        return (idx + frac) / 4096

    def nodes(self, h: float) -> np.ndarray:
        # even arc-length spacing, so every node lies on the curve
        seg, s = self._arc_table()
        n = max(12, int(math.ceil(s[-1] / h)))
        targets = np.linspace(0.0, s[-1], n, endpoint=False)
        return self.point_at(self._param_at_length(targets, seg, s))

    def arc_of(self, t) -> np.ndarray:
        """Share of the perimeter from parameter 0 to t."""
        _, s = self._arc_table()
        return np.interp(np.asarray(t) * 4096, np.arange(4097), s) / s[-1]

    def param_at_arc(self, share) -> np.ndarray:
        """Parameter at a share in [0, 1) of the perimeter."""
        seg, s = self._arc_table()
        return self._param_at_length(np.asarray(share) * s[-1], seg, s)

    def param_of(self, points) -> np.ndarray:
        """Parameter t in [0,1) of points assumed to lie on the curve."""
        p = as_points(points) - np.asarray(self.center)
        ang = np.arctan2(p[:, 1] / self.b, p[:, 0] / self.a)
        return np.mod(ang / (2.0 * np.pi), 1.0)

    def chart(self, t: float, rho0: float) -> tuple:
        """Anchor, tangent, outward normal and graph psi at parameter t."""
        P = self.point_at(t).reshape(2)
        c = np.asarray(self.center)
        w = P - c
        grad = np.array([2.0 * w[0] / self.a ** 2, 2.0 * w[1] / self.b ** 2])
        normal = grad / np.linalg.norm(grad)
        tangent = np.array([-normal[1], normal[0]])

        def psi(xp, P=P, c=c, t=tangent, n=normal, aa=self.a, bb=self.b):
            # solve the implicit quadratic for the graph height along n
            xp = np.asarray(xp, dtype=float)
            scalar = xp.ndim == 0
            xv = np.atleast_1d(xp)
            base = (P - c)[None, :] + xv[:, None] * t[None, :]
            A = (n[0] / aa) ** 2 + (n[1] / bb) ** 2
            B = 2.0 * (base[:, 0] * n[0] / aa ** 2 + base[:, 1] * n[1] / bb ** 2)
            Cc = (base[:, 0] / aa) ** 2 + (base[:, 1] / bb) ** 2 - 1.0
            disc = B * B - 4.0 * A * Cc
            if np.any(disc < 0):
                raise ChartRangeError("chart leaves the ellipse graph range")
            sq = np.sqrt(disc)
            r1 = (-B + sq) / (2.0 * A)
            r2 = (-B - sq) / (2.0 * A)
            out = np.where(np.abs(r1) <= np.abs(r2), r1, r2)
            return out[0] if scalar else out
        return P, tangent, normal, psi

    def bbox(self):
        c = np.asarray(self.center)
        r = np.array([self.a, self.b])
        return c - r, c + r

    @property
    def area(self) -> float:
        return math.pi * self.a * self.b


# ---------------------------------------------------------------------------
# Regions: a signed distance (negative inside) and a bounding box, closed
# under erosion/dilation


class CurveInterior:
    """The open region enclosed by a closed curve."""

    def __init__(self, curve):
        self.curve = curve

    def signed_distance(self, points) -> np.ndarray:
        return self.curve.signed_distance(points)

    def bbox(self):
        return self.curve.bbox()


class RectRegion:
    """Axis-aligned rectangle with the exact box signed distance."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    def signed_distance(self, points) -> np.ndarray:
        p = as_points(points)
        c = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        q = np.abs(p - c) - half
        outside = _norm(np.maximum(q, 0.0))
        inside = np.minimum(np.maximum(q[:, 0], q[:, 1]), 0.0)
        return outside + inside

    def bbox(self):
        return self.lo.copy(), self.hi.copy()


class ScaledRegion:
    """theta * U: the signed distance at x is theta times U's at x/theta."""

    def __init__(self, base, theta: float):
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.base = base
        self.theta = float(theta)

    def signed_distance(self, points) -> np.ndarray:
        return self.theta * self.base.signed_distance(as_points(points) / self.theta)

    def bbox(self):
        lo, hi = self.base.bbox()
        return lo * self.theta, hi * self.theta


class _Offset:
    """Erosion (s > 0) or dilation (s < 0) of a base region by |s|."""

    def __init__(self, base, s: float):
        self.base = base
        self.s = float(s)

    def signed_distance(self, points) -> np.ndarray:
        return self.base.signed_distance(points) + self.s

    def bbox(self):
        lo, hi = self.base.bbox()
        pad = max(0.0, -self.s)
        return lo - pad, hi + pad


def erode(region, s: float):
    """Points of the region at distance more than s from its boundary."""
    if s < 0:
        raise ValueError("erosion depth must be nonnegative")
    return _Offset(region, s)


def dilate(region, s: float):
    """Points at distance less than s from the region."""
    if s < 0:
        raise ValueError("dilation distance must be nonnegative")
    return _Offset(region, -s)


# Cells a side of the blocks that `_grid_rule` decides from one signed
# distance at the block's centre.
_LAZY_BLOCK = 8

# Slack of the block test, in cell sides: it covers the rounding of the
# distances.
_LAZY_SLACK = 0.25


def _grid_rule(region, n: int):
    """The antialiased n x n midpoint grid rule on a region's bounding box.

    Returns (xs, ys, fractions, dx, dy): the cell-centre axes, the covered
    fraction of every cell, shape (ny, nx) (row j at ys[j]), and the cell
    sides. A cell's covered fraction is clip(0.5 - sd / sqrt(dx dy), 0, 1)
    of the signed distance sd at its midpoint, so the error decays like the
    square of the cell size for smooth boundaries; it is 0 for cells off the
    region. A box of zero width or height gives no cells.

    `region.signed_distance` must be 1-Lipschitz, up to rounding below
    ``_LAZY_SLACK`` cell sides, and evaluate each point on its own. The
    rule then evaluates it first at the centre of each block of
    ``_LAZY_BLOCK`` x ``_LAZY_BLOCK`` cells (the last block of a row or
    column may be smaller). When the centre is at least the block's
    half-diagonal plus half a cell side plus the slack away from the
    boundary, every midpoint of the block is more than half a cell side
    away on the same side, so the formula gives exactly 0.0 or 1.0 there;
    only the other blocks evaluate it per cell. Circles, ellipses, boxes,
    their scalings, erosions and dilations, and boundary shells are
    exactly 1-Lipschitz.
    """
    lo, hi = region.bbox()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nx = ny = int(n)
    dx = (hi[0] - lo[0]) / nx
    dy = (hi[1] - lo[1]) / ny
    if dx <= 0 or dy <= 0:
        return np.empty(0), np.empty(0), np.empty((0, 0)), dx, dy
    xs = lo[0] + dx * (np.arange(nx) + 0.5)
    ys = lo[1] + dy * (np.arange(ny) + 0.5)
    side = math.sqrt(dx * dy)
    # each block's centre lies midway between its first and last midpoints
    b = _LAZY_BLOCK
    mid_x = 0.5 * (xs[::b] + xs[np.minimum(np.arange(b - 1, nx + b - 1, b),
                                           nx - 1)])
    mid_y = 0.5 * (ys[::b] + ys[np.minimum(np.arange(b - 1, ny + b - 1, b),
                                           ny - 1)])
    centres = np.column_stack([np.tile(mid_x, len(mid_y)),
                               np.repeat(mid_y, len(mid_x))])
    reach = 0.5 * math.hypot((b - 1) * dx, (b - 1) * dy) \
        + (0.5 + _LAZY_SLACK) * side
    sd = region.signed_distance(centres).reshape(len(mid_y), len(mid_x))
    # 1 inside, 0 outside, and -1 where the block's cells must be evaluated
    state = np.where(sd <= -reach, 1.0, np.where(sd >= reach, 0.0, -1.0))
    w = np.repeat(np.repeat(state, b, axis=1)[:, :nx], b, axis=0)[:ny]
    by, bx = np.nonzero(state < 0.0)
    if len(by):
        step = np.arange(b)
        shape = (len(by), b, b)
        row = np.broadcast_to((by[:, None] * b + step)[:, :, None], shape)
        col = np.broadcast_to((bx[:, None] * b + step)[:, None, :], shape)
        inside = (row < ny) & (col < nx)
        row, col = row[inside], col[inside]
        pts = np.column_stack([xs[col], ys[row]])
        w[row, col] = np.clip(0.5 - region.signed_distance(pts) / side,
                              0.0, 1.0)
    return xs, ys, w, dx, dy


def _cell_points(xs, ys, cells) -> np.ndarray:
    """(p, 2) midpoints (xs[i], ys[j]) of the True entries of a grid's
    (ny, nx) cell mask, row by row."""
    return np.column_stack([np.tile(xs, len(ys))[cells.ravel()],
                            np.repeat(ys, np.count_nonzero(cells, axis=1))])


def grid_integrate(sampler, region, n: int = 400) -> float:
    """Integrate a sampler's values over a region by the antialiased grid
    rule (`_grid_rule`): ``(vals * w).sum() * dx * dy``.

    vals is 1 for sampler=None (area), else `sampler.on_grid(xs, ys,
    cells)`: its values at the midpoints of the (ny, nx) mask of the cells
    that touch the region, row by row, where a point on a mesh edge or
    vertex may take the value of any element that holds it.
    """
    xs, ys, w, dx, dy = _grid_rule(region, n)
    cells = w > 0
    w = w[cells]
    if not len(w):
        return 0.0
    if sampler is None:
        return float(w.sum() * dx * dy)
    vals = np.asarray(sampler.on_grid(xs, ys, cells), dtype=float)
    return float((vals * w).sum() * dx * dy)


def region_area(region, n: int = 400) -> float:
    return grid_integrate(None, region, n=n)


# ---------------------------------------------------------------------------
# Scene


@dataclass(frozen=True)
class Scene:
    """Body, interface, inclusion, and their separation constants.

    outer      closed curve bounding the body
    interface  C^{1,1} curve splitting the body in two components, or None;
               the inner component (enclosed by it) is the minus side
    inclusion  closed curve bounding the anomalous region D, or None
    rho0, K0   chart radius and C^{1,1} constant of the interface
    d0         required distance from D to the outer boundary
    d1         erosion depth used by the fatness condition
    """

    outer: object
    interface: Optional[object] = None
    inclusion: Optional[object] = None
    rho0: float = 0.3
    K0: float = 4.0
    d0: float = 0.1
    d1: float = 0.02

    def component(self, points) -> np.ndarray:
        """+1 on the outer component, -1 inside the interface."""
        p = as_points(points)
        if self.interface is None:
            return np.ones(len(p), dtype=np.int8)
        return np.where(self.interface.contains(p), -1, 1).astype(np.int8)

    def in_inclusion(self, points) -> np.ndarray:
        p = as_points(points)
        if self.inclusion is None:
            return np.zeros(len(p), dtype=bool)
        return self.inclusion.contains(p)

    def inclusion_region(self) -> CurveInterior:
        if self.inclusion is None:
            raise StructuralError("scene has no inclusion D")
        return CurveInterior(self.inclusion)

    def domain_region(self) -> CurveInterior:
        return CurveInterior(self.outer)

    def validate(self) -> dict:
        """Check the separation hypotheses; returns the measured distances.
        A refusal's `field` is 'interface' or 'd0', the field at fault."""
        out = {}
        if self.interface is not None:
            d = curve_distance(self.interface, self.outer)
            out["dist_interface_boundary"] = d
            if d <= 0:
                exc = StructuralError("dist(Sigma, boundary) must be positive")
                exc.field = "interface"
                raise exc
        if self.inclusion is not None:
            d = curve_distance(self.inclusion, self.outer)
            out["dist_inclusion_boundary"] = d
            if d < self.d0:
                exc = StructuralError(f"dist(D, boundary) = {d:.4g} below "
                                      f"required d0 = {self.d0:.4g}")
                exc.field = "d0"
                raise exc
        return out


def curve_distance(curve, other) -> float:
    """Distance between two closed curves: the least distance from a vertex
    of curve's 512-gon to other's 512-gon, vertices even in arc length;
    negated when a vertex lies outside other, so a curve that leaves other's
    interior is never a positive distance from it."""
    poly, other_poly = (c.nodes(c.perimeter / 512) for c in (curve, other))
    d = float(polyline_min_distance(poly, other_poly).min())
    return d if other.contains(poly).all() else -d


# ---------------------------------------------------------------------------
# Weight geometry


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the piecewise-quadratic interface weight.

    alpha_plus / alpha_minus >= kappa0 > 1 is required. delta is the scale
    at which the weight is evaluated (bounded by delta0); r0 feeds the
    admissible-radius constraint for the level-set regions. delta0 and r0
    are empirical knobs: the theory guarantees their existence but gives no
    values, so desk-scale defaults are chosen to keep the regions
    resolvable by the mesh.
    """

    alpha_plus: float = 2.0
    alpha_minus: float = 1.0
    beta: float = 0.1
    delta: float = 8.0
    kappa0: float = 1.5
    delta0: float = 8.0
    r0: float = 8.0

    def __post_init__(self):
        for name in ("alpha_plus", "alpha_minus", "beta", "delta", "delta0", "r0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.kappa0 <= 1:
            raise ValueError("kappa0 must exceed 1")
        if self.alpha_plus / self.alpha_minus < self.kappa0:
            raise ValueError("alpha_plus/alpha_minus must be at least kappa0")
        if self.delta > self.delta0:
            raise ValueError("delta must not exceed delta0")

    @property
    def a(self) -> float:
        return self.alpha_plus / self.delta


def z_value(x, wp: WeightParams) -> np.ndarray:
    """Level-set coordinate of the interface weight in local coordinates.

    x holds flattened local coordinates (x', x_n); the value is
    alpha_minus*x_n/delta + beta*x_n^2/(2 delta^2) - |x'|^2/(2 delta).
    """
    p = as_points(x)
    xp, xn = p[:, 0], p[:, 1]
    d = wp.delta
    return (wp.alpha_minus * xn / d
            + wp.beta * xn ** 2 / (2.0 * d ** 2)
            - xp ** 2 / (2.0 * d))


def max_region_radius(wp: WeightParams) -> float:
    """Largest admissible R1, R2 for the three-region geometry."""
    r = min(wp.r0 ** 2,
            13.0 * wp.alpha_minus / (8.0 * wp.beta),
            2.0 * wp.delta * wp.r0 / (19.0 * wp.alpha_minus + 8.0 * wp.beta))
    return wp.alpha_minus * r / 16.0


@dataclass(frozen=True)
class RegionTriple:
    """The three level-set regions, scaled by theta.

    Membership tests take flattened local coordinates y and evaluate the
    unscaled predicates at y/theta, so x in theta*U_k iff x/theta in U_k
    holds by construction.
    """

    weights: WeightParams
    R1: float
    R2: float
    theta: float = 1.0

    @property
    def a(self) -> float:
        return self.weights.a

    def _z(self, y) -> tuple[np.ndarray, np.ndarray]:
        p = as_points(y) / self.theta
        return z_value(p, self.weights), p[:, 1]

    def in_u1(self, y) -> np.ndarray:
        z, xn = self._z(y)
        lo, hi = self.R1 / (8.0 * self.a), self.R1 / self.a
        return (z >= -4.0 * self.R2) & (xn > lo) & (xn < hi)

    def in_u2(self, y) -> np.ndarray:
        z, xn = self._z(y)
        return (z >= -self.R2) & (z <= self.R1 / (2.0 * self.a)) \
            & (xn < self.R1 / (8.0 * self.a))

    def in_u3(self, y) -> np.ndarray:
        z, xn = self._z(y)
        return (z >= -4.0 * self.R2) & (xn < self.R1 / self.a)

    def exponents(self) -> tuple[float, float]:
        """Interpolation exponents on the U1 and U3 integrals; they sum to 1."""
        den = 2.0 * self.R1 + 3.0 * self.R2
        return self.R2 / den, (2.0 * self.R1 + 2.0 * self.R2) / den

    def flattened_bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounding box of theta*U3 in flattened local coordinates.

        The level set z = -4 R2 is a parabola in x_n, so the raw
        inequalities admit a second branch far below the interface; the
        box is cut at the near root, which is the neighborhood the
        regions are meant to describe.
        """
        wp = self.weights
        xn_hi = self.R1 / self.a
        disc = wp.alpha_minus ** 2 - 8.0 * wp.beta * self.R2
        xn_lo = wp.delta * (-wp.alpha_minus + math.sqrt(max(disc, 0.0))) / wp.beta
        z_top = (wp.alpha_minus * xn_hi / wp.delta
                 + wp.beta * xn_hi ** 2 / (2.0 * wp.delta ** 2))
        half = math.sqrt(2.0 * wp.delta * (4.0 * self.R2 + max(z_top, 0.0)))
        t = self.theta
        return (np.array([-half * t, xn_lo * t]),
                np.array([half * t, xn_hi * t]))

    def ball_radius(self, eta_norm: float) -> float:
        """Radius of a ball around the anchor containing theta*U3 pulled back.

        Evaluates the closed-form bound that controls the region size
        through the chart constant eta_norm = sup |psi|/|x'|^2.
        """
        wp = self.weights
        e2 = 1.0 + 2.0 * eta_norm ** 2
        disc = wp.alpha_minus ** 2 - 8.0 * wp.beta * self.R2
        if disc < 0:
            raise ValueError("R2 too large for the ball-radius bound")
        term1 = e2 * (2.0 * wp.alpha_minus * self.R1 / self.a + 8.0 * wp.delta * self.R2)
        term2 = (2.0 + e2 * wp.beta / wp.delta) * self.R1 ** 2 / self.a ** 2
        term3 = 128.0 * wp.delta ** 2 * self.R2 ** 2 \
            / (wp.alpha_minus + math.sqrt(disc)) ** 2
        return self.theta * math.sqrt(term1 + term2 + term3)

    def inner_ball_radius(self, eta_norm: float, rho0: float) -> float:
        """Radius r such that the ball B_r at the anchor maps into theta*U2."""
        wp = self.weights
        rho1 = wp.alpha_minus * wp.delta / (wp.delta + wp.beta)
        rho3 = 2.0 * wp.alpha_minus * wp.delta / wp.beta
        if eta_norm > 0:
            # largest rho2 with 2*eta*rho2 + eta^2*rho2^2 < 1/2
            rho2 = (math.sqrt(1.5) - 1.0) / eta_norm
        else:
            rho2 = math.inf
        bound = self.theta * min(
            wp.delta * self.R1 / (6.0 * self.a * wp.alpha_minus),
            2.0 * wp.delta * self.R2 / (3.0 * wp.alpha_minus),
            self.R1 / (12.0 * self.a),
            rho0 / self.theta,
            rho1, rho2, rho3)
        return 0.999 * bound

    def separation_bound(self) -> float:
        """Guaranteed distance from the pulled-back theta*U1 to the interface."""
        return self.theta * self.R1 / (16.0 * self.a)


def build_regions(wp: WeightParams, R1: float, R2: float,
                  theta: float = 1.0) -> RegionTriple:
    """Validated construction of the three level-set regions."""
    R = max_region_radius(wp)
    if not (0.0 < R1 <= R) or not (0.0 < R2 <= R):
        raise ValueError(
            f"R1, R2 must lie in (0, {R:.6g}]; got R1={R1:.6g}, R2={R2:.6g}")
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must lie in (0, 1]")
    return RegionTriple(weights=wp, R1=R1, R2=R2, theta=theta)


# ---------------------------------------------------------------------------
# Interface flattening


class FlatteningMap:
    """Local chart at an interface point: shear (x', x_n) -> (x', x_n - psi(x')).

    The frame is (tangent, normal) at the anchor with the normal pointing
    into the plus component; psi is the interface graph in that frame with
    psi(0) = 0 and grad psi(0) = 0.
    """

    def __init__(self, anchor, tangent, normal, psi: Callable, rho0: float,
                 K0: float):
        self.anchor = np.asarray(anchor, dtype=float)
        self.tangent = np.asarray(tangent, dtype=float)
        self.normal = np.asarray(normal, dtype=float)
        self.psi = psi
        self.rho0 = float(rho0)
        self.K0 = float(K0)

    def from_frame(self, local) -> np.ndarray:
        q = as_points(local)
        return self.anchor + q[:, :1] * self.tangent + q[:, 1:2] * self.normal

    def _check_chart(self, xp: np.ndarray):
        if np.any(np.abs(xp) >= self.rho0):
            worst = float(np.abs(xp).max())
            raise ChartRangeError(
                f"|x'| = {worst:.4g} outside chart radius rho0 = {self.rho0:.4g}")

    def inverse(self, y) -> np.ndarray:
        """Flattened local coordinates -> global point."""
        q = as_points(y)
        self._check_chart(q[:, 0])
        local = np.column_stack([q[:, 0], q[:, 1] + self.psi(q[:, 0])])
        return self.from_frame(local)


def flattening_map(curve, anchor_t: float, rho0: float,
                   K0: float) -> FlatteningMap:
    """The interface's own chart (`chart`) at parameter t; its normal points
    away from the enclosed (minus) component, and psi(0) is exactly 0 on a
    circle and within rounding of 0 on an ellipse."""
    return FlatteningMap(*curve.chart(anchor_t, rho0), rho0, K0)


# ---------------------------------------------------------------------------
# Vitali-style covering of an interface portion


# Candidate points per radius along the curve of `vitali_cover`.
_VITALI_SAMPLES = 24


def vitali_cover(curve, radius: float) -> np.ndarray:
    """Greedy centers on a curve: pairwise >= 2*radius apart, jointly covering.

    Returns points on the curve (a `Circle` or an `Ellipse`) such that balls
    of radius are pairwise disjoint while balls of 5*radius cover the strip
    of width radius around the curve.
    """
    if not isinstance(curve, (Circle, Ellipse)):
        raise TypeError("vitali_cover needs a closed curve (Circle or "
                        f"Ellipse), got {type(curve).__name__}")
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = curve.nodes(radius / _VITALI_SAMPLES)
    min_sep = 2.0 * radius * (1.0 + 1e-9)
    centers = [pts[0]]
    arr = pts[0][None, :]
    for p in pts[1:]:
        if np.min(np.linalg.norm(arr - p, axis=1)) >= min_sep:
            centers.append(p)
            arr = np.vstack([arr, p])
    return np.asarray(centers)
