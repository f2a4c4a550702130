import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from powergap import Circle, Ellipse, Scene, cli, scenarios
from powergap.errors import MeshingError
from powergap.mesh import (
    _SAMPLE_BLOCK,
    Mesh,
    build_mesh,
    circle_circle_intersections,
)

import oracles
from oracles import barycentric_interpolate, stock_delaunay, stock_locate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (num_points, num_triangles) at h = 0.03: any change to node placement or
# to the clearance filters shows here
CONFIG_MESHES = {
    "concentric_disk": (4063, 7914),
    "concentric_disk_case_i": (4063, 7914),
    "crossing_inclusion": (4071, 7930),
    "curved_ellipse": (4070, 7928),
    "off_center_inclusion": (4070, 7928),
    "one_phase_disk": (4097, 7982),
}
SIZE_FAMILY_MESHES = [
    (4071, 7930), (4064, 7916), (4069, 7926), (4070, 7928),
    (4076, 7940), (4071, 7930), (4067, 7922), (4070, 7928),
    (4074, 7936), (4073, 7934), (4065, 7918), (4072, 7932),
]


@functools.lru_cache(maxsize=None)
def _config_mesh(name, h):
    with open(CONFIGS / f"{name}.json") as fh:
        scene = cli.parse_config(json.load(fh)).scene
    return build_mesh(scene, h)


@functools.lru_cache(maxsize=None)
def _size_family_mesh(index):
    cfg = cli.parse_config(scenarios.size_family(12, h=0.03)[index])
    scene = cfg.scene
    return scene, build_mesh(scene, cfg.values["mesh.h"])


class TestBuildMesh:
    def test_h_too_coarse_rejected(self):
        scene = Scene(outer=Circle((0, 0), 1.0))
        with pytest.raises(MeshingError, match="try h"):
            build_mesh(scene, 3.0)

    def test_node_budget_refused_before_lattice(self, disk_scene,
                                                monkeypatch):
        def no_lattice(*args):
            raise AssertionError("lattice built for a refused h")

        monkeypatch.setattr("powergap.mesh._hex_lattice", no_lattice)
        with pytest.raises(MeshingError, match="budget"):
            build_mesh(disk_scene, 1e-4)

    def test_interface_near_boundary_refused_before_lattice(self,
                                                            monkeypatch):
        def no_lattice(*args):
            raise AssertionError("lattice built for a refused h")

        monkeypatch.setattr("powergap.mesh._hex_lattice", no_lattice)
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.995))
        with pytest.raises(MeshingError, match=r"below h/2 = 0\.015; "
                                               r"try h <= 0\.00999$"):
            build_mesh(scene, 0.03)
        # a distance measured elsewhere is taken as given
        with pytest.raises(MeshingError, match=r"= 0\.01 is below"):
            build_mesh(Scene(outer=Circle((0, 0), 1.0),
                             interface=Circle((0, 0), 0.5)), 0.03, 5.0, 0.01)

    @pytest.mark.parametrize("ellipse", [False, True])
    def test_interface_gaps_from_half_h_mesh(self, ellipse):
        # below h/2 the clearance bands of Sigma and the boundary once cut
        # the strip between them (gaps 0.05h to 0.4h); from h/2 on every
        # gap meshes with one cluster per component
        h = 0.06
        for k in range(11, 41, 3):
            gap = 0.05 * k * h
            sigma = Ellipse((0, 0), 1.0 - gap, 0.6) if ellipse \
                else Circle((0, 0), 1.0 - gap)
            mesh = build_mesh(Scene(outer=Circle((0, 0), 1.0),
                                    interface=sigma), h)
            assert mesh.component_clusters() == {-1: 1, 1: 1}

    @pytest.mark.parametrize("name", sorted(CONFIG_MESHES))
    def test_config_mesh_sizes_pinned(self, name):
        mesh = _config_mesh(name, 0.03)
        assert (mesh.num_points, mesh.num_triangles) == CONFIG_MESHES[name]

    def test_size_family_mesh_sizes_pinned(self):
        sizes = []
        for index in range(12):
            mesh = _size_family_mesh(index)[1]
            sizes.append((mesh.num_points, mesh.num_triangles))
        assert sizes == SIZE_FAMILY_MESHES
        assert np.sum(sizes, axis=0).tolist() == [48_842, 95_140]

    @pytest.mark.parametrize("index", [
        pytest.param(i, marks=pytest.mark.xfail(
            strict=True, reason="the inclusion is tangent to the interface, "
            "the 0.4h clearance filter drops its nodes near the tangent "
            "point, and a 0.1127-long chord is left out of the mesh; "
            "mending it moves the size_calibration reference reports"))
        if i in (6, 7) else i for i in range(12)])
    def test_size_family_inclusion_chords_are_edges(self, index):
        scene, mesh = _size_family_mesh(index)
        on = np.flatnonzero(
            np.abs(scene.inclusion.signed_distance(mesh.points)) < 1e-9)
        d = mesh.points[on] - np.asarray(scene.inclusion.center)
        ring = on[np.argsort(np.arctan2(d[:, 1], d[:, 0]))]
        t = np.sort(mesh.triangles, axis=1)
        edges = set(map(tuple, np.vstack(
            [t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]]).tolist()))
        chords = np.sort(np.column_stack([ring, np.roll(ring, -1)]), axis=1)
        missing = [c for c in map(tuple, chords.tolist()) if c not in edges]
        assert len(ring) >= 18 and missing == []

    def test_tag_area_ratio(self, twophase_scene):
        # inner-tagged area approximates pi/4 for the r = 1/2 interface
        mesh = build_mesh(twophase_scene, 0.05)
        inner = mesh.areas[mesh.comp < 0].sum()
        assert inner == pytest.approx(np.pi / 4, rel=0.01)

    def test_refinement_quadruples_triangles(self, disk_scene):
        n1 = build_mesh(disk_scene, 0.1).num_triangles
        n2 = build_mesh(disk_scene, 0.05).num_triangles
        assert 0.8 * 4 <= n2 / n1 <= 1.2 * 4

    def test_no_straddling_triangles_concentric(self, twophase_mesh_h02):
        assert twophase_mesh_h02.diagnostics["straddling_triangles"] == 0

    @pytest.mark.parametrize("h", [0.03, 0.015])
    def test_ellipse_interface_does_not_straddle(self, h):
        # the ellipse's nodes lie on it, and its signed distance is exact
        mesh = _config_mesh("curved_ellipse", h)
        assert mesh.diagnostics["interface_node_dist"] <= 1e-12
        assert mesh.diagnostics["straddling_triangles"] == 0

    def test_true_straddle_still_counted(self, monkeypatch):
        # every third interface node only: elements reach across the
        # circle between them
        import powergap.mesh as mesh_module
        real = mesh_module._curve_nodes
        monkeypatch.setattr(mesh_module, "_curve_nodes",
                            lambda curve, h, breaks:
                            real(curve, h, breaks)[::3])
        mesh = build_mesh(Scene(outer=Circle((0, 0), 1.0),
                                interface=Circle((0, 0), 0.5)), 0.05)
        assert mesh.diagnostics["straddling_triangles"] > 0

    def test_interface_edges_on_curve(self, twophase_mesh_h02):
        assert twophase_mesh_h02.diagnostics["interface_node_dist"] < 1e-9
        assert len(twophase_mesh_h02.interface_edges) > 0

    def test_quality(self, twophase_mesh_h02):
        assert twophase_mesh_h02.diagnostics["min_angle_deg"] > 15.0

    @pytest.mark.parametrize("h", [0.06, 0.03])
    @pytest.mark.parametrize("name", sorted(CONFIG_MESHES))
    def test_min_angle_one_arccos_matches_per_angle(self, name, h):
        mesh = _config_mesh(name, h)
        assert mesh.min_angle_deg() == oracles.min_angle_deg(mesh)

    def test_inclusion_tagging(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.25))
        mesh = build_mesh(scene, 0.04)
        area_d = mesh.areas[mesh.in_d].sum()
        assert area_d == pytest.approx(np.pi * 0.25 ** 2, rel=0.02)
        # inclusion elements are all inside the minus component here
        assert np.all(mesh.comp[mesh.in_d] == -1)

    def test_crossing_inclusion_meshes(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.5, 0.0), 0.15))
        mesh = build_mesh(scene, 0.03)
        assert mesh.areas[mesh.in_d].sum() == pytest.approx(
            np.pi * 0.15 ** 2, rel=0.03)
        # the inclusion stretches over both components
        assert (mesh.comp[mesh.in_d] == 1).any()
        assert (mesh.comp[mesh.in_d] == -1).any()
        # crossing nodes shared by both curves keep the tagging consistent
        assert mesh.diagnostics["straddling_triangles"] <= 6

    def test_crossing_points_found_once(self, monkeypatch):
        # the interface and the inclusion share their crossing points, so
        # one intersection serves both curves' nodes
        import powergap.mesh as mesh_module
        calls = []
        found = mesh_module.curve_intersections

        def counting(a, b):
            calls.append((a, b))
            return found(a, b)

        monkeypatch.setattr(mesh_module, "curve_intersections", counting)
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.5, 0.0), 0.15))
        build_mesh(scene, 0.05)
        assert calls == [(scene.interface, scene.inclusion)]

    def test_interface_pairs_match_loop_reference(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0.5, 0.0), 0.15))
        mesh = build_mesh(scene, 0.03)
        edges, pairs = [], []
        for m, row in enumerate(mesh.neighbors):
            for k, n in enumerate(row):
                if n > m and mesh.comp[m] != mesh.comp[n]:
                    t = mesh.triangles[m]
                    edges.append([t[(k + 1) % 3], t[(k + 2) % 3]])
                    pairs.append((m, n) if mesh.comp[m] > 0 else (n, m))
        assert len(edges) > 0
        assert np.array_equal(mesh.interface_edges, edges)
        assert np.array_equal(mesh.interface_tris, pairs)
        assert mesh.interface_edges.dtype == mesh.interface_tris.dtype == int

    def test_ellipse_interface_meshes(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Ellipse((0, 0), 0.55, 0.4))
        mesh = build_mesh(scene, 0.04)
        inner = mesh.areas[mesh.comp < 0].sum()
        assert inner == pytest.approx(np.pi * 0.55 * 0.4, rel=0.02)

    def test_boundary_loop_ccw_closed(self, disk_mesh_h05):
        loop = disk_mesh_h05.boundary_loop()
        pts = disk_mesh_h05.points[loop]
        nxt = np.roll(pts, -1, axis=0)
        area2 = (pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]).sum()
        assert area2 > 0
        assert len(loop) == len(disk_mesh_h05.boundary_edges)

    def test_interpolation_reproduces_linear(self, disk_mesh_h05, rng):
        nodal = 2.0 * disk_mesh_h05.points[:, 0] - disk_mesh_h05.points[:, 1]
        pts = rng.uniform(-0.6, 0.6, (500, 2))
        vals = disk_mesh_h05.interpolate(nodal, pts)
        assert np.allclose(vals, 2.0 * pts[:, 0] - pts[:, 1], atol=1e-12)

    @pytest.mark.parametrize("n", [500, _SAMPLE_BLOCK + 4_464])
    def test_complex_interpolation_is_two_real_ones(self, disk_mesh_h05,
                                                    rng, n):
        m = disk_mesh_h05.num_points
        nodal = rng.normal(size=m) + 1j * rng.normal(size=m)
        pts = rng.uniform(-0.7, 0.7, (n, 2))
        vals = disk_mesh_h05.interpolate(nodal, pts)
        assert vals.dtype == np.complex128
        assert np.array_equal(
            vals, disk_mesh_h05.interpolate(nodal.real, pts)
            + 1j * disk_mesh_h05.interpolate(nodal.imag, pts))
        # k fields as columns give the k one-field results, bit for bit
        fields = np.column_stack([nodal, 2.0 * nodal.conj(), nodal ** 2])
        block = disk_mesh_h05.interpolate(fields, pts)
        assert block.shape == (n, 3) and block.dtype == np.complex128
        for j in range(3):
            assert np.array_equal(
                block[:, j],
                disk_mesh_h05.interpolate(np.ascontiguousarray(fields[:, j]),
                                          pts))

    def test_integer_field_interpolates_to_floats(self, disk_mesh_h05, rng):
        nodal = np.arange(disk_mesh_h05.num_points)
        pts = rng.uniform(-0.6, 0.6, (500, 2))
        vals = disk_mesh_h05.interpolate(nodal, pts)
        assert vals.dtype == np.float64
        assert np.array_equal(
            vals, disk_mesh_h05.interpolate(nodal.astype(float), pts))

    @pytest.mark.parametrize("n, blocks", [(500, 1),
                                           (2 * _SAMPLE_BLOCK + 7, 3)])
    def test_evaluate_locates_once_per_block(self, disk_solution, rng,
                                             monkeypatch, n, blocks):
        located = []
        locate = Mesh.locate

        def counting_locate(self, points):
            located.append(len(points))
            return locate(self, points)

        monkeypatch.setattr(Mesh, "locate", counting_locate)
        vals = disk_solution.mesh.interpolate(
            disk_solution.u, rng.uniform(-0.6, 0.6, (n, 2)))
        assert len(vals) == n
        assert len(located) == blocks
        assert sum(located) == n

    def test_gradient_per_element_linear(self, disk_mesh_h05):
        nodal = 3.0 * disk_mesh_h05.points[:, 1]
        g = disk_mesh_h05.gradient_per_element(nodal)
        assert np.allclose(g, [0.0, 3.0], atol=1e-10)


def _inside_and_band_points(mesh, rng, n_inside, n_band):
    """Points in random elements, and in the band just outside the hull
    (up to 2h beyond the unit circle), where `locate` falls back to the
    nearest centroid."""
    tri = mesh.points[mesh.triangles[rng.integers(mesh.num_triangles,
                                                  size=n_inside)]]
    bary = rng.dirichlet(np.ones(3), size=n_inside)
    inside = np.einsum("pi,pid->pd", bary, tri)
    t = rng.uniform(0.0, 2.0 * np.pi, n_band)
    r = 1.0 + rng.uniform(-1e-4, 2.0 * mesh.h, n_band)
    band = np.column_stack([r * np.cos(t), r * np.sin(t)])
    return rng.permutation(np.vstack([inside, band]))


def _edge_midpoints(mesh) -> np.ndarray:
    edges = np.unique(np.sort(np.concatenate(
        [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]],
         mesh.triangles[:, [2, 0]]]), axis=1), axis=0)
    return 0.5 * (mesh.points[edges[:, 0]] + mesh.points[edges[:, 1]])


def _stock_barycentric_min(tri, points, elements) -> np.ndarray:
    """Smallest barycentric coordinate of each point in its element, from
    stock scipy's per-simplex transform."""
    t = tri.transform[elements]
    b = np.einsum("pij,pj->pi", t[:, :2], points - t[:, 2])
    return np.minimum(b.min(axis=1), 1.0 - b.sum(axis=1))


class TestPointLocation:
    """`Mesh.locate`'s walk against stock scipy's `find_simplex`."""

    @staticmethod
    def _point_sets(mesh, rng):
        h = mesh.h
        outer = mesh.scene.outer
        lo = mesh.points.min(axis=0) - 2.0 * h
        hi = mesh.points.max(axis=0) + 2.0 * h
        g = (np.arange(160) + 0.5) / 160
        grid = lo + (hi - lo) * np.column_stack([np.tile(g, 160),
                                                 np.repeat(g, 160)])
        rand = lo + (hi - lo) * rng.random((40_000, 2))
        sd = outer.signed_distance(rand)
        band = rand[(sd > 0.0) & (sd <= 2.0 * h)]
        return {
            "grid": grid[outer.signed_distance(grid) <= 2.0 * h],
            "random": rand[sd <= 2.0 * h][:20_000],
            "outside": band,
            "vertices": mesh.points,
            "edge_midpoints": _edge_midpoints(mesh),
        }

    @pytest.mark.parametrize("name", sorted(CONFIG_MESHES))
    def test_matches_stock_find_simplex(self, name):
        # bitwise where one element holds the point, 1e-12 clear of its
        # edges, or none does; a point on an edge or a vertex may take any
        # element that holds it
        mesh = _config_mesh(name, 0.06)
        stock = stock_delaunay(mesh)
        sets = self._point_sets(mesh, np.random.default_rng(2026))
        assert len(sets["random"]) == 20_000
        assert len(sets["outside"]) > 500
        for label, pts in sets.items():
            got = mesh.locate(pts)
            want = stock_locate(mesh, pts, stock)
            off = stock.find_simplex(pts) < 0
            one = off | (_stock_barycentric_min(stock, pts, want) > 1e-12)
            assert np.array_equal(got[one], want[one]), label
            assert (_stock_barycentric_min(stock, pts[~one], got[~one])
                    >= -1e-12).all(), label
            if label in ("random", "outside"):
                assert one.all(), label
        assert (stock.find_simplex(sets["outside"]) < 0).all()

    @pytest.mark.parametrize("name", sorted(CONFIG_MESHES))
    def test_transform_matches_stock(self, name):
        # the walk's barycentric maps, rows grad lambda_0 and grad lambda_1
        # about vertex 2, are those of scipy's LAPACK-built transform
        mesh = _config_mesh(name, 0.06)
        want = stock_delaunay(mesh).transform
        assert np.array_equal(mesh.points[mesh.triangles[:, 2]], want[:, 2])
        scale = np.abs(want[:, :2]).max(axis=(1, 2))
        rel = np.abs(mesh.grads[:, :2] - want[:, :2]).max(axis=(1, 2)) / scale
        assert rel.max() <= 1e-15

    def test_order_independent(self):
        # the stock walk starts at the previous point's element, so on an
        # edge or a vertex its answer follows the call order
        mesh = _config_mesh("concentric_disk", 0.03)
        pts = np.vstack([mesh.points, _edge_midpoints(mesh)])
        perm = np.random.default_rng(5).permutation(len(pts))
        stock = stock_delaunay(mesh)
        assert not np.array_equal(stock.find_simplex(pts)[perm],
                                  stock.find_simplex(pts[perm]))
        assert np.array_equal(mesh.locate(pts)[perm], mesh.locate(pts[perm]))

    @pytest.mark.parametrize("which", sorted(CONFIG_MESHES) + list(range(12)))
    def test_walk_ends(self, which):
        # a visibility walk ends on a Delaunay triangulation, from any
        # start: no neighbour's far vertex is on or inside an element's
        # circumcircle (the incircle determinant of a counterclockwise
        # element, clear of rounding in units of h^4)
        mesh = _config_mesh(which, 0.03) if isinstance(which, str) \
            else _size_family_mesh(which)[1]
        m, k = np.nonzero(mesh.neighbors >= 0)
        far = mesh.triangles[mesh.neighbors[m, k]]
        far = far[(far != mesh.triangles[m, (k + 1) % 3, None])
                  & (far != mesh.triangles[m, (k + 2) % 3, None])]
        rel = mesh.points[mesh.triangles[m]] - mesh.points[far][:, None]
        lift = np.concatenate([rel, (rel ** 2).sum(axis=2)[..., None]], 2)
        e = rel[:, 1:] - rel[:, :1]
        ccw = np.sign(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
        assert (ccw * np.linalg.det(lift) < -1e-8 * mesh.h ** 4).all()
        elements = np.arange(mesh.num_triangles)
        assert np.array_equal(mesh.locate(mesh.centroids), elements)


class TestElementsNear:
    @pytest.mark.parametrize("name, h", [("crossing_inclusion", 0.06),
                                         ("curved_ellipse", 0.03)])
    def test_every_box_meeting_the_square(self, name, h):
        # against a brute-force test of every element's bounding box,
        # for squares inside, across and outside the mesh
        mesh = _config_mesh(name, h)
        rng = np.random.default_rng(11)
        centres = rng.uniform(-1.3, 1.3, (40, 2))
        p = mesh.points[mesh.triangles]
        lo, hi = p.min(axis=1), p.max(axis=1)
        for half in (0.003, 0.05, 0.4):
            ball, elem = mesh.elements_near(centres, half)
            assert np.all(np.diff(ball) >= 0)
            got = set(zip(ball, elem))
            assert len(got) == len(ball)
            meets = ((lo[None] <= centres[:, None] + half)
                     & (hi[None] >= centres[:, None] - half)).all(axis=2)
            assert got == set(zip(*np.nonzero(meets)))


class TestAffineSampling:
    """`Mesh.interpolate` against the barycentric reference in oracles."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 8]),
           st.sampled_from(["real", "complex", "int"]))
    def test_matches_barycentric_reference(self, disk_mesh_h05, seed, k,
                                           kind):
        mesh = disk_mesh_h05
        rng = np.random.default_rng(seed)
        shape = (mesh.num_points,) + ((k,) if k > 1 else ())
        scale = 10.0 ** rng.uniform(-3, 3)
        if kind == "int":
            nodal = rng.integers(-1000, 1000, size=shape)
        elif kind == "real":
            nodal = scale * rng.normal(size=shape)
        else:
            nodal = scale * (rng.normal(size=shape)
                             + 1j * rng.normal(size=shape))
        # 9 000 points: k = 8 spans two locate blocks
        pts = _inside_and_band_points(mesh, rng, 6_000, 3_000)
        assert (stock_delaunay(mesh).find_simplex(pts) < 0).any()
        got = mesh.interpolate(nodal, pts)
        want = barycentric_interpolate(mesh, nodal, pts)
        assert got.shape == want.shape == (len(pts),) + shape[1:]
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-13 * np.abs(nodal).max()

    def test_memory_has_no_element_table(self):
        # an (n, 8) complex family at h = 0.0075: the table over every
        # element, (m, 3, 8) complex, would be 49 MB
        import tracemalloc
        mesh = build_mesh(Scene(outer=Circle((0.0, 0.0), 1.0)), 0.0075)
        rng = np.random.default_rng(11)
        k = 8
        fields = (rng.normal(size=(mesh.num_points, k))
                  + 1j * rng.normal(size=(mesh.num_points, k)))
        g = np.linspace(-0.6, 0.6, 300)
        pts = np.column_stack([np.repeat(g, 300), np.tile(g, 300)])
        mesh.interpolate(fields, pts[:10])
        tracemalloc.start()
        try:
            out = mesh.interpolate(fields, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, 24 complex columns as long as one locate block, and
        # the per-element marks and rows; even one column's (m, 3) table
        # over every element would not fit in that slack
        block = _SAMPLE_BLOCK // k
        slack = 24 * block * 16 + 9 * mesh.num_triangles
        assert peak < out.nbytes + slack
        assert slack < mesh.num_triangles * 3 * 16


@st.composite
def crossing_scenes(draw):
    """A unit disk, a circle interface and an inclusion circle crossing it,
    a third of them within h of tangency from outside and a third from
    inside, and an h."""
    h = draw(st.floats(0.04, 0.08))
    rs = draw(st.floats(0.3, 0.5))
    rd = draw(st.floats(0.08, 0.2))
    near = draw(st.sampled_from(["outer", "inner", "free"]))
    gap = h * 10.0 ** draw(st.floats(-3.0, 0.0))
    lo, hi = abs(rs - rd), rs + rd
    c = {"outer": hi - gap, "inner": lo + gap,
         "free": lo + (hi - lo) * draw(st.floats(0.05, 0.95))}[near]
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    scene = Scene(outer=Circle((0.0, 0.0), 1.0),
                  interface=Circle((0.0, 0.0), rs),
                  inclusion=Circle((c * np.cos(phi), c * np.sin(phi)), rd))
    return scene, h


class TestCrossingNodes:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(crossing_scenes())
    def test_interface_owns_crossing_nodes(self, scene_h):
        # D's nodes crowding the interface go, its crossing copies too, and
        # the lattice clears D's polyline through the crossings: the nodes
        # are those of keeping the copies and deduping on a rounding grid,
        # no two nodes nearly coincide, and each crossing is one node
        scene, h = scene_h
        crossings = circle_circle_intersections(scene.interface,
                                                scene.inclusion)
        assert len(crossings) == 2
        pts = build_mesh(scene, h).points
        assert np.array_equal(pts, oracles.crossing_deduped_nodes(scene, h))
        dist, _ = cKDTree(pts).query(pts, k=2)
        assert dist[:, 1].min() >= 1e-3 * h
        for x in crossings:
            assert np.count_nonzero(np.hypot(*(pts - x).T) < 1e-9) == 1


class TestIntersections:
    def test_circle_circle(self):
        pts = circle_circle_intersections(Circle((0, 0), 0.5),
                                          Circle((0.5, 0), 0.15))
        assert pts.shape == (2, 2)
        assert np.allclose(np.linalg.norm(pts, axis=1), 0.5)
        assert np.allclose(np.linalg.norm(pts - [0.5, 0], axis=1), 0.15)

    def test_disjoint_circles(self):
        pts = circle_circle_intersections(Circle((0, 0), 0.2),
                                          Circle((0.9, 0), 0.15))
        assert len(pts) == 0


class TestComponents:
    def test_two_phase_has_two_components(self, twophase_mesh_h02):
        clusters = twophase_mesh_h02.component_clusters()
        assert clusters == {-1: 1, 1: 1}

    def test_one_phase_single_component(self, disk_mesh_h05):
        assert disk_mesh_h05.component_clusters() == {1: 1}

    def test_same_tag_split_counts_two_clusters(self, disk_scene):
        mesh = build_mesh(disk_scene, 0.1)
        mesh.comp = np.where(np.abs(mesh.centroids[:, 0]) > 0.5, 1, -1)
        assert mesh.component_clusters() == {-1: 1, 1: 2}
