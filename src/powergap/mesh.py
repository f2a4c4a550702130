"""Interface- and inclusion-conforming triangulation of a scene.

Nodes are placed exactly on the outer boundary, the interface and the
inclusion boundary (a crossing of the two is one node, the interface's), a
hexagonal lattice fills the interior with a clearance band around every
curve, and a Delaunay triangulation of the node set then conforms to the
discretized curves. Component and inclusion tags are assigned per element
from the centroid, so every triangle carries a single coefficient value.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

from .errors import CoverageError, MeshingError
from .geometry import (Circle, _dot, _norm, as_points, curve_distance,
                       polyline_min_distance)

__all__ = ["Mesh", "build_mesh", "mesh_size_precondition"]

# Points sampled per locate in Mesh.interpolate; bounds its temporaries.
_SAMPLE_BLOCK = 65_536

# Largest estimated node count build_mesh accepts: about 8x the 64 616
# nodes of the unit disk at h = 0.0075, where one run peaks near 380 MB.
_MAX_NODES = 520_000

# scipy's 2-D Qhull defaults and Q5, which skips a final outer-plane fix
_QHULL_OPTIONS = "Qbb Qc Qz Q12 Q5"
# scipy's find_simplex tolerance on barycentric coordinates
_INSIDE_TOL = -100.0 * np.finfo(float).eps

# 3-point Gauss on [0, 1] for boundary edge quadrature
_EDGE_Q = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
_EDGE_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _count_below(axis, step: float, x) -> np.ndarray:
    """Entries of a uniform ascending axis below each x: `searchsorted`,
    from an estimate that rounding leaves off by at most one."""
    n = len(axis)
    i = np.clip(np.ceil((x - axis[0]) / step), 0, n).astype(np.intp)
    padded = np.concatenate(([-np.inf], axis, [np.inf]))
    i -= padded[i] >= x
    i += padded[i + 1] < x
    return i


def circle_circle_intersections(c1: Circle, c2: Circle) -> np.ndarray:
    p1, p2 = np.asarray(c1.center, float), np.asarray(c2.center, float)
    d = float(np.linalg.norm(p2 - p1))
    r1, r2 = c1.radius, c2.radius
    if d <= 1e-14 or d >= r1 + r2 or d <= abs(r1 - r2):
        return np.empty((0, 2))
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 <= 0:
        return np.empty((0, 2))
    h = math.sqrt(h2)
    u = (p2 - p1) / d
    mid = p1 + a * u
    perp = np.array([-u[1], u[0]])
    return np.vstack([mid + h * perp, mid - h * perp])


# Parameter samples of curve_b in `_generic_intersections`.
_CROSSING_SAMPLES = 2048


def _generic_intersections(curve_a, curve_b) -> np.ndarray:
    """Crossings bisected in curve_b's parameter where curve_a's
    containment flips, so they lie on curve_b and, to the last bit of the
    parameter, on curve_a."""
    t = np.arange(_CROSSING_SAMPLES) / _CROSSING_SAMPLES
    inside = curve_a.contains(curve_b.point_at(t))
    i = np.nonzero(inside != np.roll(inside, -1))[0]
    lo, hi = t[i], (i + 1) / _CROSSING_SAMPLES
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = curve_a.contains(curve_b.point_at(mid)) == inside[i]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return curve_b.point_at(0.5 * (lo + hi))


def curve_intersections(curve_a, curve_b) -> np.ndarray:
    if isinstance(curve_a, Circle) and isinstance(curve_b, Circle):
        return circle_circle_intersections(curve_a, curve_b)
    return _generic_intersections(curve_a, curve_b)


def _curve_nodes(curve, h: float, break_points: Optional[np.ndarray]) -> np.ndarray:
    """Nodes spaced about h in arc length, through the break points.

    Between two break points the nodes are even in the share of the
    perimeter (`arc_of`), which on an ellipse is not its parameter.
    """
    if break_points is None or len(break_points) == 0:
        return curve.nodes(h)
    ts = np.sort(curve.arc_of(curve.param_of(break_points)))
    out = []
    for k, t0 in enumerate(ts):
        t1 = ts[(k + 1) % len(ts)]
        span = (t1 - t0) % 1.0
        if span == 0.0:
            span = 1.0
        arc = span * curve.perimeter
        n = max(1, int(math.ceil(arc / h)))
        out.append(np.mod(t0 + span * np.arange(n) / n, 1.0))
    return curve.point_at(curve.param_at_arc(np.concatenate(out)))


class Mesh:
    """Triangulation with per-element component and inclusion tags."""

    def __init__(self, points, triangles, neighbors, comp, in_d,
                 boundary_edges, interface_edges, interface_tris, h, scene,
                 diagnostics):
        self.points = points
        self.triangles = triangles
        self.neighbors = neighbors  # across edge k (opposite vertex k)
        self.comp = comp
        self.in_d = in_d
        self.boundary_edges = boundary_edges
        self.interface_edges = interface_edges
        self.interface_tris = interface_tris
        self.h = h
        self.scene = scene
        self.diagnostics = diagnostics
        self._centroid_tree = None
        self._buckets = None
        self._boundary_quadrature = None
        p = points[triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.areas = 0.5 * np.abs(det)
        self.centroids = p.mean(axis=1)
        # P1 basis gradients: grad phi_i = rows of the inverse edge matrix
        inv_det = 1.0 / det
        g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) * inv_det[:, None]
        g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) * inv_det[:, None]
        g0 = -(g1 + g2)
        self.grads = np.stack([g0, g1, g2], axis=1)  # (m, 3, 2)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def min_angle_deg(self) -> float:
        """Smallest interior angle: arccos of the largest clipped cosine.

        arccos does not increase, so this is bitwise the minimum of the
        per-angle arccos values.
        """
        p = self.points[self.triangles]
        cos_max = -np.inf
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            cosang = _dot(a, b) / (_norm(a) * _norm(b))
            cos_max = np.maximum(cos_max, np.max(cosang))
        return float(np.degrees(np.arccos(np.clip(cos_max, -1, 1))))

    def boundary_quadrature(self) -> tuple:
        """3-point Gauss rule on the boundary edges, computed once per mesh.

        Returns (edges, q, w, points, lens): edge node indices, abscissae on
        [0, 1], weights, the points a + q (b - a) of each edge ab per
        abscissa, and edge lengths.
        """
        if self._boundary_quadrature is None:
            e = self.boundary_edges
            a, b = self.points[e[:, 0]], self.points[e[:, 1]]
            self._boundary_quadrature = (
                e, _EDGE_Q, _EDGE_W, [a + q * (b - a) for q in _EDGE_Q],
                _norm(b - a))
        return self._boundary_quadrature

    def node_mass(self) -> np.ndarray:
        """Lumped volume weights: integral of each hat function."""
        m = np.zeros(self.num_points)
        np.add.at(m, self.triangles.ravel(),
                  np.repeat(self.areas / 3.0, 3))
        return m

    def locate(self, points) -> np.ndarray:
        """Element index per point; nearest element for boundary-band misses.

        Each point walks from its cell's seed in `_bucket_grid`, across the
        edge opposite its most negative barycentric coordinate, until none
        is below scipy's find_simplex tolerance. A visibility walk ends on
        a Delaunay triangulation (Devillers, Pion & Teillaud, Int. J.
        Found. Comput. Sci. 2002), so a point's element depends on that
        point alone. A step across the hull leaves the mesh: such a point
        takes the element of the nearest centroid, and one farther than 4h
        raises CoverageError.
        """
        p = as_points(points)
        origin, side, shape, _, _, seeds = self._bucket_grid()
        elem = seeds[np.clip(((p - origin) / side).astype(np.intp), 0,
                             shape - 1) @ np.array([1, shape[0]])]
        idx = np.empty(len(p), dtype=np.intp)
        todo, q = np.arange(len(p)), p
        # a visibility walk on a Delaunay mesh enters no element twice
        for _ in range(self.num_triangles + 1):
            if not len(todo):
                break
            # scipy's arithmetic: lambda_i = grad lambda_i . (q - vertex 2)
            g = self.grads[elem, :2]
            d = q - self.points[self.triangles[elem, 2]]
            b0 = g[:, 0, 0] * d[:, 0] + g[:, 0, 1] * d[:, 1]
            b1 = g[:, 1, 0] * d[:, 0] + g[:, 1, 1] * d[:, 1]
            b = np.stack([b0, b1, 1.0 - b0 - b1])
            low = b.min(axis=0)
            step = self.neighbors[elem, b.argmin(axis=0)]
            idx[todo] = np.where(low >= _INSIDE_TOL, elem, -1)
            walk = (low < _INSIDE_TOL) & (step >= 0)  # a NaN point stops
            todo, q, elem = todo[walk], q[walk], step[walk]
        else:
            raise MeshingError("point location did not end: not Delaunay")
        miss = idx < 0
        if miss.any():
            if self._centroid_tree is None:
                self._centroid_tree = cKDTree(self.centroids)
            dist, near = self._centroid_tree.query(p[miss])
            far = dist > 4.0 * self.h
            if far.any():
                raise CoverageError(
                    f"{int(far.sum())} points lie outside the meshed domain")
            idx[miss] = near
        return idx

    def _bucket_grid(self) -> tuple:
        """(origin, side, shape, order, starts, seeds), built once per mesh:
        cell c = j * shape[0] + i, i-th from `origin` in x and j-th in y and
        as wide as the widest element, holds order[starts[c]:starts[c + 1]],
        the elements whose lower-left corner lies in it. seeds[c] is the
        first element at or after cell c in that order, or the last one
        before it when only that one is in the cell's row."""
        if self._buckets is None:
            lo, side = [], 0.0
            for axis in (0, 1):
                v = self.points[:, axis][self.triangles]
                low = np.minimum(np.minimum(v[:, 0], v[:, 1]), v[:, 2])
                high = np.maximum(np.maximum(v[:, 0], v[:, 1]), v[:, 2])
                side = max(side, float((high - low).max()))
                lo.append(low)
            origin = np.array([low.min() for low in lo])
            cell = [((low - o) / side).astype(np.intp)
                    for low, o in zip(lo, origin)]
            shape = np.array([c.max() + 1 for c in cell])
            key = cell[1] * shape[0] + cell[0]
            order = np.argsort(key, kind="stable")
            starts = np.searchsorted(key[order], np.arange(shape.prod() + 1))
            i = np.minimum(starts[:-1], len(order) - 1)
            row, own = key[order] // shape[0], np.arange(len(i)) // shape[0]
            i -= (row[i] != own) & (row[i - 1] == own)
            self._buckets = (origin, side, shape, order, starts, order[i])
        return self._buckets

    def elements_near(self, centers, half) -> tuple:
        """Elements whose bounding boxes meet the square of half-width
        `half` around each centre (a rectangle when `half` gives x and y
        half-widths), as (centre, element) index pairs grouped by centre,
        each centre's elements by cell, then number.

        A square's candidates are the elements of the `_bucket_grid` cells
        from one cell below and left of it to its upper-right corner, a
        contiguous run of the bucketed elements per row of cells. Rounding
        may leave out an element that only touches the square's edge.
        """
        origin, side, shape, order, starts, _ = self._bucket_grid()
        c = as_points(centers)
        # cell ranges per centre, clipped to the grid
        first = np.clip(np.floor((c - half - side - origin) / side), 0,
                        shape - 1)
        last = np.clip(np.floor((c + half - origin) / side), -1, shape - 1)
        first, last = first.astype(np.intp), last.astype(np.intp)
        n_rows = np.maximum(last[:, 1] - first[:, 1] + 1, 0)
        n_rows[last[:, 0] < first[:, 0]] = 0
        ball = np.repeat(np.arange(len(c)), n_rows)
        row = np.arange(len(ball)) + np.repeat(
            first[:, 1] - (np.cumsum(n_rows) - n_rows), n_rows)
        run_lo = starts[row * shape[0] + first[ball, 0]]
        run_n = starts[row * shape[0] + last[ball, 0] + 1] - run_lo
        ball = np.repeat(ball, run_n)
        elem = order[np.arange(len(ball)) + np.repeat(
            run_lo - (np.cumsum(run_n) - run_n), run_n)]
        p = self.points[self.triangles[elem]]
        meets = ((np.minimum(np.minimum(p[:, 0], p[:, 1]), p[:, 2])
                  <= c[ball] + half)
                 & (np.maximum(np.maximum(p[:, 0], p[:, 1]), p[:, 2])
                    >= c[ball] - half))
        meets = meets[:, 0] & meets[:, 1]
        return ball[meets], elem[meets]

    def row_spans(self, elem, cx, cy, xs, ys, dx: float, dy: float) -> list:
        """Column spans of elements on the rows of a uniform grid.

        Pair q lays element elem[q] on the grid of points (cx[q] + xs[i],
        cy[q] + ys[j]) (cx, cy may also be scalars); xs and ys are uniform
        ascending axes of steps dx and dy. A row's span in an element runs
        between two edge crossings, half-open in x and in y (the top-left
        rule of rasterization, Pineda 1988). Each crossing is computed from
        the edge's nodes in node order, so the two elements of an edge get
        the same bits; the spans of a row then tile the mesh's part of it,
        and each grid point inside the mesh falls in one span, of an element
        whose closed triangle holds it up to rounding.

        Returns two tuples of arrays, for the rows below and above each
        element's middle vertex: pair, row, first column, end column.
        """
        tri = self.triangles[elem]
        p = self.points[tri]
        order = np.argsort(p[:, :, 1], axis=1, kind="stable")
        vid = np.take_along_axis(tri, order, axis=1)  # bottom to top
        v = np.take_along_axis(p, order[:, :, None], axis=1)
        at = [_count_below(ys, dy, v[:, i, 1] - cy) for i in range(3)]
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        # the long edge (bottom to top) lies left of the middle vertex
        long_left = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0

        def line(a, b):
            """Edge a-b as x - cx = x0 + (y0 + row offset) s, from its
            lower-numbered node."""
            first = (vid[:, a] < vid[:, b])[:, None]
            p0 = np.where(first, v[:, a], v[:, b])
            d = np.where(first, v[:, b], v[:, a]) - p0
            with np.errstate(divide="ignore", invalid="ignore"):
                # a level edge has no rows of its own
                return p0[:, 0] - cx, cy - p0[:, 1], d[:, 0] / d[:, 1]

        long_edge = line(0, 2)
        halves = []
        # rows below the middle vertex cross the short edge 0-1, the rest 1-2
        for a, b in ((0, 1), (1, 2)):
            short_edge = line(a, b)
            n_rows = at[b] - at[a]
            k = np.repeat(np.arange(len(elem)), n_rows)
            j = np.arange(len(k)) + np.repeat(
                at[a] - (np.cumsum(n_rows) - n_rows), n_rows)
            cross = [x0[k] + (y0[k] + ys[j]) * s[k]
                     for x0, y0, s in (long_edge, short_edge)]
            left = long_left[k]
            halves.append((k, j,
                           _count_below(xs, dx, np.where(left, *cross)),
                           _count_below(xs, dx, np.where(left, *cross[::-1]))))
        return halves

    def grid_owners(self, xs, ys) -> np.ndarray:
        """The element of each cell of a grid, -1 for a cell outside the
        mesh: (ny * nx,) int32, row by row, for the points (xs[i], ys[j]) of
        uniform ascending axes.

        Each point inside the mesh takes the element of the `row_spans`
        span it falls in (the top-left rule; where rounding at a vertex
        lets two spans take a point, the later one keeps it). The rest,
        outside the mesh and on its hull's right or top edges, are left to
        `locate`. The elements that meet the grid's box are rasterized
        about ``_SAMPLE_BLOCK // 4`` rows at a time.
        """
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        nx, ny = len(xs), len(ys)
        dx = (xs[-1] - xs[0]) / (nx - 1) if nx > 1 else 1.0
        dy = (ys[-1] - ys[0]) / (ny - 1) if ny > 1 else 1.0
        elem = self.elements_near(
            [0.5 * (xs[0] + xs[-1]), 0.5 * (ys[0] + ys[-1])],
            np.array([0.5 * (xs[-1] - xs[0]), 0.5 * (ys[-1] - ys[0])]))[1]
        v = self.points[:, 1][self.triangles[elem]]
        n_rows = _count_below(ys, dy, np.maximum(np.maximum(v[:, 0], v[:, 1]),
                                                 v[:, 2])) \
            - _count_below(ys, dy, np.minimum(np.minimum(v[:, 0], v[:, 1]),
                                              v[:, 2]))
        rows = _SAMPLE_BLOCK // 4
        total = np.cumsum(n_rows)
        cuts = np.searchsorted(total, np.arange(rows, total[-1], rows)) \
            if len(total) else []
        owners = np.full(ny * nx, -1, dtype=np.int32)
        for part in np.split(elem, cuts):
            if not len(part):
                continue
            for k, j, il, ir in self.row_spans(part, 0.0, 0.0, xs, ys, dx,
                                               dy):
                size = np.maximum(ir - il, 0)
                at = np.arange(size.sum()) + np.repeat(
                    j * nx + il - (np.cumsum(size) - size), size)
                owners[at] = np.repeat(part[k], size)
        return owners

    def locate_grid(self, xs, ys, cells, owners) -> np.ndarray:
        """Element per point of a grid: the points (xs[i], ys[j]) of the
        True entries of the (ny, nx) mask `cells`, row by row. xs and ys
        are uniform ascending axes, and owners is their `grid_owners`.

        The points inside the mesh take their owners; the others go to
        `locate` in one call, whose nearest-element extension and
        `CoverageError` apply as to any point, and their elements are
        written into `owners`, so a later call with the same owners
        locates nothing. A point on an edge or a vertex may take any
        element that holds it.
        """
        out = owners[cells.ravel()].astype(np.intp)
        miss = np.flatnonzero(out < 0)
        if len(miss):
            at = np.flatnonzero(cells)[miss]
            nx = cells.shape[1]
            out[miss] = owners[at] = self.locate(
                np.column_stack([xs[at % nx], ys[at // nx]]))
        return out

    def interpolate(self, nodal, points, elements=None) -> np.ndarray:
        """P1 interpolation of a real or complex field, shape (n_nodes,), or
        of k fields, shape (n_nodes, k), at points; gives (p,) or (p, k).

        One locate per point, blocked: each block of ``_SAMPLE_BLOCK //
        k`` points is located once, unless `elements` gives each point's
        element (as `locate` or `locate_grid` does). Per column, a
        transient affine table
        u = c0 + gx dx + gy dy (from `grads`, in the fields' own dtype) is
        built over only the elements the block lands in, where (dx, dy) is
        the point's offset from its element's first vertex and c0 the value
        there; a point then costs three gathers. Boundary-band points that
        `locate` maps to a nearby element take that element's extension.
        """
        p = as_points(points)
        nodal = np.asarray(nodal)
        fields = nodal.reshape(len(nodal), -1)
        k = fields.shape[1]
        out = np.empty((len(p), k), dtype=np.result_type(nodal, float))
        block = max(1, _SAMPLE_BLOCK // k)
        # per-element scratch: marks of a block's elements, cleared after
        # use, and their rows in the block's table
        mark = np.zeros(self.num_triangles, dtype=bool)
        row = np.empty(self.num_triangles, dtype=np.intp)
        for start in range(0, len(p), block):
            q = p[start:start + block]
            idx = self.locate(q) if elements is None \
                else elements[start:start + len(q)]
            mark[idx] = True
            touched = np.flatnonzero(mark)
            mark[touched] = False
            row[touched] = np.arange(len(touched))
            at = row[idx]
            tri = self.triangles[touched]
            g = self.grads[touched]
            first = self.points[tri[:, 0]]
            dx = q[:, 0] - first[:, 0][at]
            dy = q[:, 1] - first[:, 1][at]
            for j in range(k):
                v = fields[tri, j]
                gx = v[:, 0] * g[:, 0, 0] + v[:, 1] * g[:, 1, 0] \
                    + v[:, 2] * g[:, 2, 0]
                gy = v[:, 0] * g[:, 0, 1] + v[:, 1] * g[:, 1, 1] \
                    + v[:, 2] * g[:, 2, 1]
                u = gx[at]
                u *= dx
                u += v[:, 0][at]
                uy = gy[at]
                uy *= dy
                u += uy
                out[start:start + len(q), j] = u
        return out.reshape(len(p), *nodal.shape[1:])

    def gradient_per_element(self, nodal) -> np.ndarray:
        """Constant gradient of a P1 field on each element, shape (m, 2)."""
        vals = np.asarray(nodal)[self.triangles]
        return np.einsum("mi,mid->md", vals, self.grads)

    def component_clusters(self) -> dict:
        """Connected element clusters per component tag.

        Elements are joined across every shared edge whose two sides carry
        the same tag. A valid two-component scene yields exactly one cluster
        for each tag, i.e. the domain minus the interface has two pieces.
        """
        m = self.num_triangles
        a = np.repeat(np.arange(m), 3)
        b = self.neighbors.ravel()
        a, b = a[b >= 0], b[b >= 0]
        same = self.comp[a] == self.comp[b]
        graph = sp.coo_matrix((np.ones(int(same.sum())), (a[same], b[same])),
                              shape=(m, m))
        _, labels = connected_components(graph, directed=False)
        return {int(tag): len(np.unique(labels[self.comp == tag]))
                for tag in np.unique(self.comp)}

    def boundary_loop(self) -> np.ndarray:
        """Boundary node indices ordered counterclockwise."""
        nbrs = {}
        for a, b in self.boundary_edges.tolist():
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        loop = self.boundary_edges[0].tolist()
        while len(loop) < len(nbrs):
            u, v = nbrs[loop[-1]]
            loop.append(v if u == loop[-2] else u)
        pts = self.points[loop]
        nxt_pts = np.roll(pts, -1, axis=0)
        area2 = (pts[:, 0] * nxt_pts[:, 1] - pts[:, 1] * nxt_pts[:, 0]).sum()
        if area2 < 0:
            loop = loop[::-1]
        return np.asarray(loop, dtype=int)


def _hex_lattice(lo, hi, h: float) -> np.ndarray:
    dy = h * math.sqrt(3.0) / 2.0
    rows = []
    y = lo[1]
    j = 0
    while y <= hi[1]:
        off = 0.5 * h if j % 2 else 0.0
        xs = np.arange(lo[0] + off, hi[0] + h, h)
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
        y += dy
        j += 1
    return np.vstack(rows)


def mesh_size_precondition(scene, h: float, sigma_gap=None) -> None:
    """MeshingError unless h > 0, h is at most a sixth of the outer curve's
    extent, h is within the node budget, and the interface, if any, is at
    least h/2 from the outer curve; nearer, the lattice's clearance bands
    can cut the strip between them. `sigma_gap` is that distance as
    `Scene.validate` measured it; None measures it again."""
    if h <= 0:
        raise MeshingError("h must be positive")
    outer = scene.outer
    lo, hi = outer.bbox()
    extent = float(min(hi - lo))
    if h > extent / 6.0:
        raise MeshingError(
            f"h = {h:.3g} too coarse for a domain of extent {extent:.3g}; "
            f"try h <= {extent / 12.0:.3g}")
    # a hexagonal lattice of spacing h has one node per sqrt(3)/2 h^2
    nodes = 2.0 * outer.area / (math.sqrt(3.0) * h * h)
    if nodes > _MAX_NODES:
        raise MeshingError(
            f"h = {h:.3g} needs about {nodes:.3g} nodes, above the budget of "
            f"{_MAX_NODES}; try h >= {h * math.sqrt(nodes / _MAX_NODES):.3g}")
    if scene.interface is not None:
        gap = curve_distance(scene.interface, outer) if sigma_gap is None \
            else sigma_gap
        if gap < h / 2:
            msg = f"dist(Sigma, boundary) = {gap:.4g} is below h/2 = {h / 2:.4g}"
            if gap > 0:
                # the largest h with gap >= h/2, rounded down to 3 digits
                step = 10.0 ** (math.floor(math.log10(2.0 * gap)) - 2)
                msg += f"; try h <= {math.floor(2.0 * gap / step) * step:.3g}"
            raise MeshingError(msg)


def build_mesh(scene, h: float, min_angle_deg: float = 5.0,
               sigma_gap=None) -> Mesh:
    """Conforming triangulation of the scene at target resolution h;
    `sigma_gap` is as in `mesh_size_precondition`."""
    mesh_size_precondition(scene, h, sigma_gap)
    lo, hi = scene.outer.bbox()
    extent = float(min(hi - lo))

    outer_nodes = scene.outer.nodes(h)

    # both curves place nodes through the points where D crosses Sigma
    breaks = None
    if scene.interface is not None and scene.inclusion is not None:
        breaks = curve_intersections(scene.interface, scene.inclusion)

    sigma_nodes = np.empty((0, 2))
    if scene.interface is not None:
        sigma_nodes = _curve_nodes(scene.interface, h, breaks)

    d_nodes = d_poly = np.empty((0, 2))
    if scene.inclusion is not None:
        d_nodes = d_poly = _curve_nodes(scene.inclusion, h, breaks)
        if scene.interface is not None:
            # drop D's nodes crowding Sigma's polyline; D's polyline keeps
            # the crossings, but their nodes are Sigma's
            dist = polyline_min_distance(d_nodes, sigma_nodes, cap=0.4 * h)
            d_poly = d_nodes[(dist > 0.4 * h) | (dist < 1e-9 * extent)]
            d_nodes = d_nodes[dist > 0.4 * h]

    clearance = 0.55 * h
    lattice = _hex_lattice(lo - 0.5 * h, hi + 0.5 * h, h)
    inside = scene.outer.signed_distance(lattice) < -clearance
    lattice = lattice[inside]
    for poly in (sigma_nodes, d_poly):
        if len(poly):
            dist = polyline_min_distance(lattice, poly, cap=clearance)
            lattice = lattice[dist > clearance]

    pts = np.vstack([outer_nodes, sigma_nodes, d_nodes, lattice])
    if len(pts) < 5:
        raise MeshingError("too few nodes; decrease h")

    tri = Delaunay(pts, qhull_options=_QHULL_OPTIONS)
    triangles, neighbors = tri.simplices, tri.neighbors
    centroids = pts[triangles].mean(axis=1)
    comp = scene.component(centroids)
    in_d = scene.in_inclusion(centroids)

    # each element pair (m, n > m) across a shared edge whose tags differ,
    # in (m, k) order; edge k of m is opposite its vertex k
    m, k = np.nonzero(neighbors > np.arange(len(triangles))[:, None])
    n = neighbors[m, k]
    cross = comp[m] != comp[n]
    m, k, n = m[cross], k[cross], n[cross]
    interface_edges = np.column_stack(
        [triangles[m, (k + 1) % 3], triangles[m, (k + 2) % 3]]).astype(int)
    plus = comp[m] > 0
    interface_tris = np.column_stack(
        [np.where(plus, m, n), np.where(plus, n, m)]).astype(int)

    diagnostics = {}
    if scene.interface is not None and len(interface_edges):
        ends = pts[interface_edges.ravel()]
        diagnostics["interface_node_dist"] = float(
            np.abs(scene.interface.signed_distance(ends)).max())
        # count elements whose vertices strictly straddle the interface;
        # a vertex within 1e-7 of the extent counts as on the curve
        sd = scene.interface.signed_distance(pts)[triangles]
        tol = 1e-7 * extent
        diagnostics["straddling_triangles"] = int(
            ((sd.min(axis=1) < -tol) & (sd.max(axis=1) > tol)).sum())

    mesh = Mesh(pts, triangles, neighbors, comp, in_d, tri.convex_hull,
                interface_edges, interface_tris, h, scene, diagnostics)
    clusters = mesh.component_clusters()
    diagnostics["component_clusters"] = clusters
    if any(v != 1 for v in clusters.values()):
        raise MeshingError(
            f"domain minus interface splits into {clusters} clusters; "
            "expected one per component")
    p = pts[triangles]
    lens = _norm(np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1],
                                 p[:, 0] - p[:, 2]]))
    diagnostics["h_min"] = float(lens.min())
    diagnostics["h_max"] = float(lens.max())
    diagnostics["min_angle_deg"] = mesh.min_angle_deg()
    if diagnostics["min_angle_deg"] < min_angle_deg:
        diagnostics["quality_warning"] = (
            f"min angle {diagnostics['min_angle_deg']:.2f} deg below "
            f"{min_angle_deg} deg")
    return mesh
