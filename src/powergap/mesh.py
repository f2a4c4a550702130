"""Interface- and inclusion-conforming triangulation of a scene.

Nodes are placed exactly on the outer boundary, the interface and the
inclusion boundary (with shared nodes at curve crossings), a hexagonal
lattice fills the interior with a clearance band around every curve, and a
Delaunay triangulation of the node set then conforms to the discretized
curves. Component and inclusion tags are assigned per element from the
centroid, so every triangle carries a single coefficient value.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

from .errors import CoverageError, MeshingError
from .geometry import Circle, _dot, _norm, as_points, polyline_min_distance

__all__ = ["Mesh", "build_mesh"]

# Points sampled per locate in Mesh.interpolate; bounds its temporaries.
_SAMPLE_BLOCK = 65_536

# Largest estimated node count build_mesh accepts: about 8x the 64 616
# nodes of the unit disk at h = 0.0075, where one run peaks near 380 MB.
_MAX_NODES = 520_000

# 3-point Gauss on [0, 1] for boundary edge quadrature
_EDGE_Q = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
_EDGE_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


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


def _generic_intersections(curve_a, curve_b, n: int = 2048) -> np.ndarray:
    """Crossing points via sign changes of curve_a membership along curve_b."""
    poly = curve_b.polyline(n)
    inside = curve_a.contains(poly)
    flips = np.nonzero(inside != np.roll(inside, -1))[0]
    pts = []
    for i in flips:
        a, b = poly[i], poly[(i + 1) % n]
        fa = curve_a.signed_distance(a)[0]
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = curve_a.signed_distance(m)[0]
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        pts.append(0.5 * (a + b))
    return np.asarray(pts) if pts else np.empty((0, 2))


def curve_intersections(curve_a, curve_b) -> np.ndarray:
    if isinstance(curve_a, Circle) and isinstance(curve_b, Circle):
        return circle_circle_intersections(curve_a, curve_b)
    return _generic_intersections(curve_a, curve_b)


def _param_of(curve, points) -> np.ndarray:
    """Parameter t in [0,1) of points assumed to lie on the curve."""
    p = as_points(points) - np.asarray(curve.center)
    if isinstance(curve, Circle):
        ang = np.arctan2(p[:, 1], p[:, 0])
    else:  # ellipse parametrization
        ang = np.arctan2(p[:, 1] / curve.b, p[:, 0] / curve.a)
    return np.mod(ang / (2.0 * np.pi), 1.0)


def _curve_nodes(curve, h: float, break_points: Optional[np.ndarray]) -> np.ndarray:
    """Nodes with spacing about h, forced to pass through the break points."""
    if break_points is None or len(break_points) == 0:
        return curve.nodes(h)
    ts = np.sort(_param_of(curve, break_points))
    out = []
    for k, t0 in enumerate(ts):
        t1 = ts[(k + 1) % len(ts)]
        span = (t1 - t0) % 1.0
        if span == 0.0:
            span = 1.0
        arc = span * curve.perimeter
        n = max(1, int(math.ceil(arc / h)))
        out.append(np.mod(t0 + span * np.arange(n) / n, 1.0))
    return curve.point_at(np.concatenate(out))


class _Delaunay(Delaunay):
    """Delaunay whose `transform` is a plain attribute, set by `Mesh`.

    scipy's `transform` is a lazy property that solves one LAPACK system per
    simplex on first use; `find_simplex` reads the attribute, so shadowing
    it lets the mesh hand over the affine maps it already holds.
    """

    transform = None


class Mesh:
    """Triangulation with per-element component and inclusion tags."""

    def __init__(self, points, triangles, comp, in_d, boundary_edges,
                 interface_edges, interface_tris, h, scene, delaunay,
                 diagnostics):
        self.points = points
        self.triangles = triangles
        self.comp = comp
        self.in_d = in_d
        self.boundary_edges = boundary_edges
        self.interface_edges = interface_edges
        self.interface_tris = interface_tris
        self.h = h
        self.scene = scene
        self.diagnostics = diagnostics
        self._tri = delaunay
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
        # barycentric maps in the layout of scipy's Delaunay.transform:
        # rows grad lambda_0, grad lambda_1 and the origin vertex 2
        transform = np.empty_like(self.grads)
        transform[:, :2] = self.grads[:, :2]
        transform[:, 2] = p[:, 2]
        delaunay.transform = transform

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def edge_lengths(self) -> np.ndarray:
        p = self.points[self.triangles]
        return np.concatenate([_norm(p[:, 1] - p[:, 0]),
                               _norm(p[:, 2] - p[:, 1]),
                               _norm(p[:, 0] - p[:, 2])])

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

        Points are found by scipy's `find_simplex` walk over the mesh's own
        barycentric maps. Each walk starts at the previous point's element,
        so callers pass points in spatially coherent order (grid rows,
        stencils around a centre, edge quadrature). Shuffled points cost a
        walk across the mesh each: 3 M uniformly random points on a
        triangulation of 200 k random nodes took 97 s on a 2-core x86
        machine, and 0.35 s once sorted into rows.
        """
        p = as_points(points)
        idx = self._tri.find_simplex(p)
        miss = idx < 0
        if miss.any():
            if self._centroid_tree is None:
                self._centroid_tree = cKDTree(self.centroids)
            dist, near = self._centroid_tree.query(p[miss])
            far = dist > 4.0 * self.h
            if far.any():
                raise CoverageError(
                    f"{int(far.sum())} points lie outside the meshed domain")
            idx = idx.copy()
            idx[miss] = near
        return idx

    def elements_near(self, centers, half: float) -> tuple:
        """Elements whose bounding boxes meet the square of half-width
        `half` around each centre, as (centre, element) index pairs
        grouped by centre, each centre's elements by cell, then number.

        The elements are bucketed once per mesh on a grid of cells as wide
        as the widest element, by the cell of their lower-left corner; a
        square's candidates are then the elements of the cells from one
        cell below and left of it to its upper-right corner, a contiguous
        run of the bucketed elements per row of cells. Rounding may leave
        out an element that only touches the square's edge.
        """
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
            self._buckets = (origin, side, shape, order, starts)
        origin, side, shape, order, starts = self._buckets
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

    def interpolate(self, nodal, points) -> np.ndarray:
        """P1 interpolation of a real or complex field, shape (n_nodes,), or
        of k fields, shape (n_nodes, k), at points; gives (p,) or (p, k).

        One locate per point, blocked: each block of ``_SAMPLE_BLOCK //
        k`` points is located once. Per column, a transient affine table
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
            idx = self.locate(q)
            mark[idx] = True
            touched = np.flatnonzero(mark)
            mark[touched] = False
            row[touched] = np.arange(len(touched))
            at = row[idx]
            tri = self.triangles[touched]
            g = self.grads[touched]
            dx, dy = (q - self.points[tri[:, 0]][at]).T.copy()
            for j in range(k):
                v = fields[tri, j]
                gx = v[:, 0] * g[:, 0, 0] + v[:, 1] * g[:, 1, 0] \
                    + v[:, 2] * g[:, 2, 0]
                gy = v[:, 0] * g[:, 0, 1] + v[:, 1] * g[:, 1, 1] \
                    + v[:, 2] * g[:, 2, 1]
                u = gx[at]
                u *= dx
                u += v[at, 0]
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
        b = self._tri.neighbors.ravel()
        a, b = a[b >= 0], b[b >= 0]
        same = self.comp[a] == self.comp[b]
        graph = sp.coo_matrix((np.ones(int(same.sum())), (a[same], b[same])),
                              shape=(m, m))
        _, labels = connected_components(graph, directed=False)
        return {int(tag): len(np.unique(labels[self.comp == tag]))
                for tag in np.unique(self.comp)}

    def boundary_loop(self) -> np.ndarray:
        """Boundary node indices ordered counterclockwise."""
        nxt = {}
        for a, b in self.boundary_edges:
            nxt.setdefault(int(a), []).append(int(b))
            nxt.setdefault(int(b), []).append(int(a))
        start = int(self.boundary_edges[0, 0])
        loop = [start]
        prev = None
        while True:
            cands = [n for n in nxt[loop[-1]] if n != prev]
            prev = loop[-1]
            loop.append(cands[0])
            if loop[-1] == start:
                loop.pop()
                break
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


def build_mesh(scene, h: float, min_angle_deg: float = 5.0) -> Mesh:
    """Conforming triangulation of the scene at target resolution h."""
    if h <= 0:
        raise MeshingError("h must be positive")
    lo, hi = scene.outer.bbox()
    extent = float(min(hi - lo))
    if h > extent / 6.0:
        raise MeshingError(
            f"h = {h:.3g} too coarse for a domain of extent {extent:.3g}; "
            f"try h <= {extent / 12.0:.3g}")
    # a hexagonal lattice of spacing h has one node per sqrt(3)/2 h^2
    nodes = 2.0 * scene.outer.area / (math.sqrt(3.0) * h * h)
    if nodes > _MAX_NODES:
        raise MeshingError(
            f"h = {h:.3g} needs about {nodes:.3g} nodes, above the budget of "
            f"{_MAX_NODES}; try h >= {h * math.sqrt(nodes / _MAX_NODES):.3g}")

    outer_nodes = scene.outer.nodes(h)
    curves = [("outer", scene.outer, outer_nodes)]

    sigma_nodes = np.empty((0, 2))
    if scene.interface is not None:
        breaks = None
        if scene.inclusion is not None:
            x = curve_intersections(scene.interface, scene.inclusion)
            breaks = x if len(x) else None
        sigma_nodes = _curve_nodes(scene.interface, h, breaks)
        curves.append(("interface", scene.interface, sigma_nodes))

    d_nodes = np.empty((0, 2))
    if scene.inclusion is not None:
        breaks = None
        if scene.interface is not None:
            x = curve_intersections(scene.interface, scene.inclusion)
            breaks = x if len(x) else None
        d_nodes = _curve_nodes(scene.inclusion, h, breaks)
        if scene.interface is not None:
            # drop inclusion nodes crowding the interface polyline, but keep
            # the shared crossing nodes (they exist in both node sets)
            dist = polyline_min_distance(d_nodes, sigma_nodes, cap=0.4 * h)
            on_sigma = dist < 1e-9 * extent
            keep = (dist > 0.4 * h) | on_sigma
            d_nodes = d_nodes[keep]
        curves.append(("inclusion", scene.inclusion, d_nodes))

    clearance = 0.55 * h
    lattice = _hex_lattice(lo - 0.5 * h, hi + 0.5 * h, h)
    inside = scene.outer.signed_distance(lattice) < -clearance
    lattice = lattice[inside]
    for _, curve, nodes in curves[1:]:
        if len(nodes):
            dist = polyline_min_distance(lattice, nodes, cap=clearance)
            lattice = lattice[dist > clearance]

    pts = np.vstack([outer_nodes, sigma_nodes, d_nodes, lattice])
    # dedupe exactly coincident nodes (shared crossing points)
    _, keep_idx = np.unique(np.round(pts / (1e-9 * max(extent, 1.0))),
                            axis=0, return_index=True)
    pts = pts[np.sort(keep_idx)]
    if len(pts) < 5:
        raise MeshingError("too few nodes; decrease h")

    tri = _Delaunay(pts)
    triangles = tri.simplices
    centroids = pts[triangles].mean(axis=1)
    comp = scene.component(centroids)
    in_d = scene.in_inclusion(centroids)

    boundary_edges = tri.convex_hull.copy()

    interface_edges = np.empty((0, 2), dtype=int)
    interface_tris = np.empty((0, 2), dtype=int)
    if scene.interface is not None:
        # each element pair (m, n > m) across a shared edge whose tags
        # differ, in (m, k) order; edge k of m is opposite its vertex k
        nb = tri.neighbors
        m, k = np.nonzero(nb > np.arange(len(triangles))[:, None])
        n = nb[m, k]
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
        # count elements whose vertices strictly straddle the interface
        sd = scene.interface.signed_distance(pts)
        tol = 1e-7 * extent
        vmin = sd[triangles].min(axis=1)
        vmax = sd[triangles].max(axis=1)
        diagnostics["straddling_triangles"] = int(
            ((vmin < -tol) & (vmax > tol)).sum())

    mesh = Mesh(pts, triangles, comp, in_d, boundary_edges,
                interface_edges, interface_tris, h, scene, tri, diagnostics)
    clusters = mesh.component_clusters()
    diagnostics["component_clusters"] = clusters
    if any(v != 1 for v in clusters.values()):
        raise MeshingError(
            f"domain minus interface splits into {clusters} clusters; "
            "expected one per component")
    lens = mesh.edge_lengths()
    diagnostics["h_min"] = float(lens.min())
    diagnostics["h_max"] = float(lens.max())
    diagnostics["min_angle_deg"] = mesh.min_angle_deg()
    if diagnostics["min_angle_deg"] < min_angle_deg:
        diagnostics["quality_warning"] = (
            f"min angle {diagnostics['min_angle_deg']:.2f} deg below "
            f"{min_angle_deg} deg")
    return mesh
