import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergap import (
    BackgroundTensor,
    Circle,
    RectRegion,
    Scene,
    WeightParams,
    build_regions,
    flattening_map,
    fourier_data,
)
from powergap.errors import CoverageError
from powergap.geometry import _grid_cells
from powergap.mesh import Mesh, _Delaunay, build_mesh
from powergap.smallness import (
    _ball_sums,
    _chain_centers,
    ball_l2_sq,
    boundary_layer,
    check_three_ball,
    check_three_region,
    l2_norm_sq,
    lipschitz_smallness,
    propagate_chain,
    region_integrals,
    scaling_identity_check,
    three_ball_exponent,
)
from powergap.solver import BackgroundOperator, Solution

from oracles import monte_carlo_integral, point_sampled_ball_sums

WP = WeightParams(alpha_plus=2.0, alpha_minus=1.0, beta=0.1, delta=8.0,
                  kappa0=1.5, delta0=8.0, r0=8.0)
REGIONS = build_regions(WP, 0.4, 0.1, theta=0.09)


class _FlatChart:
    """Identity chart for synthetic-field region tests."""

    def __new__(cls):
        from powergap.geometry import FlatteningMap
        return FlatteningMap((0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                             lambda x: 0.0 * np.asarray(x), 0.5, 1.0)


class TestRegionIntegrals:
    def test_zero_field(self):
        i1, i2, i3 = region_integrals(lambda p: np.zeros(len(p)),
                                      REGIONS, _FlatChart())
        assert (i1, i2, i3) == (0.0, 0.0, 0.0)

    def test_nesting(self):
        fn = lambda p: np.exp(p[:, 0] + 0.5 * p[:, 1])
        i1, i2, i3 = region_integrals(fn, REGIONS, _FlatChart())
        assert i1 <= i3 and i2 <= i3
        assert i1 > 0 and i2 > 0

    def test_linear_field_against_monte_carlo(self):
        # u = x_n against an independent Monte Carlo quadrature; the
        # membership-masked grid carries an O(cell) boundary bias, so the
        # agreement budget combines both error sources
        fn = lambda p: p[:, 1].astype(complex)
        i1, i2, i3 = region_integrals(fn, REGIONS, _FlatChart(),
                                      n_target=4_800_000)
        lo, hi = REGIONS.flattened_bbox()
        for val, member in ((i1, REGIONS.in_u1), (i2, REGIONS.in_u2),
                            (i3, REGIONS.in_u3)):
            mc = monte_carlo_integral(lambda p: p[:, 1] ** 2, member,
                                      (lo, hi), n=12_000_000)
            assert val == pytest.approx(mc, rel=2.5e-3)

    def test_chart_overflow_raises(self):
        wide = build_regions(WP, 0.4, 0.1, theta=0.5)
        with pytest.raises(CoverageError, match="theta"):
            region_integrals(lambda p: np.zeros(len(p)), wide, _FlatChart())


class TestThreeRegion:
    def test_equal_radii_exponents(self):
        reg = build_regions(WP, 0.3, 0.3, theta=0.09)
        chk = check_three_region(lambda p: np.ones(len(p)), reg, _FlatChart())
        assert chk.exponents == pytest.approx((0.2, 0.8))

    def test_zero_solution_infinite_margin(self):
        chk = check_three_region(lambda p: np.zeros(len(p)), REGIONS,
                                 _FlatChart())
        assert chk.margin == math.inf
        assert not chk.violation_candidate

    def test_solver_family_uniform_constant(self, twophase_mesh_h02,
                                            twophase_background, rng):
        fmap = flattening_map(twophase_mesh_h02.scene.interface, 0.0,
                              rho0=0.3, K0=4.0)
        op = BackgroundOperator(twophase_mesh_h02, twophase_background)
        consts = []
        for _ in range(8):
            modes = [(k, rng.normal(), rng.normal()) for k in range(1, 6)]
            sol = op.solve(fourier_data(modes))
            chk = check_three_region(sol, REGIONS, fmap)
            assert not chk.violation_candidate
            consts.append(chk.constant)
        consts = np.asarray(consts)
        assert consts.max() / np.median(consts) < 50

    def test_family_matches_members_with_one_grid_located(
            self, twophase_mesh_h02, twophase_background, rng, monkeypatch):
        fmap = flattening_map(twophase_mesh_h02.scene.interface, 0.0,
                              rho0=0.3, K0=4.0)
        op = BackgroundOperator(twophase_mesh_h02, twophase_background)
        sols = op.solve([fourier_data([(k, rng.normal(), rng.normal())
                                       for k in range(1, 6)])
                         for _ in range(3)])
        singles = [check_three_region(sol, REGIONS, fmap) for sol in sols]
        located = []
        locate = Mesh.locate

        def counting_locate(self, points):
            located.append(len(points))
            return locate(self, points)

        monkeypatch.setattr(Mesh, "locate", counting_locate)
        check_three_region(sols[:1], REGIONS, fmap)
        one_grid = sum(located)
        located.clear()
        family = check_three_region(sols, REGIONS, fmap)
        assert family == singles
        assert one_grid > 0 and sum(located) == one_grid

    def test_family_on_two_meshes_rejected(self, disk_solution,
                                           twophase_mesh_h02,
                                           twophase_background, cos_data):
        op = BackgroundOperator(twophase_mesh_h02, twophase_background)
        other = op.solve(cos_data)
        with pytest.raises(ValueError, match="one mesh"):
            check_three_region([disk_solution, other], REGIONS, _FlatChart())

    def test_margin_is_scale_invariant(self, twophase_mesh_h02,
                                       twophase_background, cos_data):
        fmap = flattening_map(twophase_mesh_h02.scene.interface, 0.0,
                              rho0=0.3, K0=4.0)
        op = BackgroundOperator(twophase_mesh_h02, twophase_background)
        sol = op.solve(cos_data)
        chk1 = check_three_region(sol, REGIONS, fmap)
        scaled = dataclasses.replace(sol, u=(3.0 - 4.0j) * sol.u, _grad=None)
        chk2 = check_three_region(scaled, REGIONS, fmap)
        assert chk2.margin == pytest.approx(chk1.margin, rel=1e-9)


class TestThreeBall:
    def test_exponent_substitution_example(self):
        # r0 = r2/4 and r1 = lambda0 r2/4 gives tau = 1/3 at s = 1
        lam = 0.7
        tau = three_ball_exponent(0.25, lam / 4.0, 1.0, lam, s=1.0)
        assert tau == pytest.approx(1.0 / 3.0)

    def test_radius_ordering_rejected(self, disk_solution):
        with pytest.raises(ValueError, match="radii"):
            check_three_ball(disk_solution, (0.0, 0.0), 0.2, 0.1, 0.3)

    def test_zero_solution_trivial(self, disk_mesh_h05,
                                   identity_background):
        sol = BackgroundOperator(disk_mesh_h05, identity_background).solve(
            fourier_data([(1, 0.0, 0.0)]))
        chk = check_three_ball(sol, (0.0, 0.0), 0.02, 0.1, 0.5)
        assert chk.margin == math.inf

    def test_solver_family_margins(self, disk_mesh_h05, identity_background,
                                   rng):
        op = BackgroundOperator(disk_mesh_h05, identity_background)
        consts = []
        for _ in range(8):
            modes = [(k, rng.normal(), rng.normal()) for k in range(1, 5)]
            sol = op.solve(fourier_data(modes))
            chk = check_three_ball(sol, (0.1, -0.2), 0.05, 0.1, 0.5)
            consts.append(chk.constant)
        assert np.isfinite(consts).all()
        assert max(consts) / np.median(consts) < 50

    def test_homogeneity_of_margin(self, disk_solution):
        chk1 = check_three_ball(disk_solution, (0.2, 0.1), 0.04, 0.09, 0.4)
        scaled = dataclasses.replace(disk_solution, u=17.0j * disk_solution.u,
                                     _grad=None)
        chk2 = check_three_ball(scaled, (0.2, 0.1), 0.04, 0.09, 0.4)
        assert chk2.margin == pytest.approx(chk1.margin, rel=1e-9)

    def test_ball_outside_domain_rejected(self, disk_solution):
        with pytest.raises(ValueError, match="inside"):
            check_three_ball(disk_solution, (0.8, 0.0), 0.05, 0.1, 0.4)


class TestChain:
    def test_straight_polyline_spacing(self):
        # N = ceil(L / 2r1) links, consecutive spacing exactly 2 r1
        L, r1 = 1.0, 0.06
        path = np.array([[0.0, 0.0], [L, 0.0]])
        centers = _chain_centers(path, r1)
        steps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
        assert len(steps) == math.ceil(L / (2 * r1))
        assert np.allclose(steps[:-1], 2 * r1, atol=1e-12)
        assert steps[-1] <= 2 * r1 + 1e-12

    def test_degenerate_single_link(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0, 0), 0.02), d0=0.5)
        mesh = build_mesh(scene, 0.05)
        bg = BackgroundTensor.isotropic(1.0, 1.0, gamma=0.0)
        sol = BackgroundOperator(mesh, bg).solve(cos_data)
        cert = propagate_chain(sol, scene.inclusion, (0.0, 0.0),
                               r=0.015, h=0.6)
        assert all(ch.n_links <= 1 for ch in cert.chains)
        assert cert.holds()

    def test_fixture_certificate(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0.1, 0.0), 0.12), d0=0.5)
        mesh = build_mesh(scene, 0.04)
        bg = BackgroundTensor.isotropic(1.0, 1.0, gamma=0.05)
        sol = BackgroundOperator(mesh, bg).solve(
            fourier_data([(1, 1.0, 0.0), (3, 0.5, 0.1)]))
        cert = propagate_chain(sol, scene.inclusion, (0.1, 0.0), r=0.1, h=0.6)
        assert cert.holds()
        for ch in cert.chains:
            inv = ch.invariants_ok()
            assert all(inv.values()), inv
            assert ch.bound_holds()
        assert cert.n_max <= cert.n_bound
        assert cert.direct_d_norm_sq <= cert.bound_d_norm_sq * (1 + 1e-9)

    def test_one_call_over_distinct_centres(self, cos_data, monkeypatch):
        import powergap.smallness as smallness
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0.1, 0.0), 0.12), d0=0.5)
        mesh = build_mesh(scene, 0.04)
        bg = BackgroundTensor.isotropic(1.0, 1.0, gamma=0.05)
        sol = BackgroundOperator(mesh, bg).solve(
            fourier_data([(1, 1.0, 0.0), (3, 0.5, 0.1)]))
        calls = []

        def recording_ball(u, center, radius, n_grid=110):
            calls.append(np.array(center, float))
            return ball_l2_sq(u, center, radius, n_grid)

        monkeypatch.setattr(smallness, "ball_l2_sq", recording_ball)
        x0 = np.array([0.1, 0.0])
        cert = propagate_chain(sol, scene.inclusion, x0, r=0.1, h=0.6)
        centres = [x0.tobytes()] + [c.tobytes() for ch in cert.chains
                                    for c in ch.centers]
        # the chains share balls, so pooling has something to save
        assert len(set(centres)) < len(centres)
        assert len(calls) == 1
        assert calls[0].shape == (len(set(centres)), 2)
        assert sorted(c.tobytes() for c in calls[0]) == sorted(set(centres))
        r1 = cert.radii[0]
        assert cert.m0 == math.sqrt(ball_l2_sq(sol, x0, r1, 96)) / cert.u_norm
        for ch in cert.chains:
            direct = [math.sqrt(ball_l2_sq(sol, c, r1, 96)) / cert.u_norm
                      for c in ch.centers]
            assert np.array_equal(ch.m_values, direct)

    def test_many_centres_bitwise_and_flat_memory(self, disk_solution):
        import tracemalloc
        from powergap.mesh import _SAMPLE_BLOCK
        rng = np.random.default_rng(4)
        centres = rng.uniform(-0.5, 0.5, (800, 2))
        sums = ball_l2_sq(disk_solution, centres, 0.05, 96)
        assert sums.shape == (800,)
        for i in (0, 1, 9, 799):
            assert sums[i] == ball_l2_sq(disk_solution, centres[i], 0.05, 96)
        peaks = []
        for n in (50, 800):
            tracemalloc.start()
            try:
                ball_l2_sq(disk_solution, centres[:n], 0.05, 96)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # within one block of 2-d points
        assert abs(peaks[1] - peaks[0]) < _SAMPLE_BLOCK * 16

    def test_seed_ball_outside_rejected(self, disk_solution):
        from powergap.errors import StructuralError
        with pytest.raises(StructuralError, match="seed"):
            propagate_chain(disk_solution, Circle((0.5, 0), 0.1),
                            (0.0, 0.0), r=0.2, h=0.3)

    def test_non_convex_inclusion_refused(self, disk_solution):
        # an annulus: the segment from a seed on one side of the ring to
        # its far side crosses the hole
        class Annulus:
            def signed_distance(self, points):
                rad = np.linalg.norm(np.asarray(points, float), axis=1)
                return np.maximum(rad - 0.6, 0.3 - rad)

            def contains(self, points):
                return self.signed_distance(points) < 0.0

            def bbox(self):
                return np.array([-0.6, -0.6]), np.array([0.6, 0.6])

        with pytest.raises(CoverageError,
                           match="chain path .* D must be convex"):
            propagate_chain(disk_solution, Annulus(), (0.45, 0.0),
                            r=0.1, h=0.6)


class TestScalingIdentity:
    def test_theta_one_exact(self, disk_solution):
        res = scaling_identity_check(disk_solution,
                                     RectRegion((-0.2, -0.2), (0.2, 0.2)),
                                     1.0)
        assert res == 0.0

    @pytest.mark.parametrize("theta,calls", [(1.0, 1), (0.5, 2)])
    def test_one_integral_at_theta_one(self, disk_solution, monkeypatch,
                                       theta, calls):
        import powergap.smallness as sm
        seen = []
        real = sm.grid_integrate

        def counted(*args, **kwargs):
            seen.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sm, "grid_integrate", counted)
        scaling_identity_check(disk_solution,
                               RectRegion((-0.2, -0.2), (0.2, 0.2)), theta,
                               n_target=10_000)
        assert len(seen) == calls

    def test_constant_field_closed_form(self):
        # u = 1 on the unit square at theta = 1/2: both sides are 1/4
        from powergap.geometry import ScaledRegion, grid_integrate
        square = RectRegion((0.0, 0.0), (1.0, 1.0))
        theta = 0.5
        lhs = grid_integrate(None, ScaledRegion(square, theta), n=500)
        assert lhs == pytest.approx(0.25, rel=1e-6)
        res = scaling_identity_check(lambda p: np.ones(len(p)), square, theta)
        assert res < 1e-9

    def test_solver_field_small_residual(self, disk_solution):
        for theta in (0.5, 0.7):
            res = scaling_identity_check(
                disk_solution, RectRegion((-0.25, -0.25), (0.25, 0.25)),
                theta)
            assert res < 1e-3

    def test_residual_shrinks_under_refinement(self, disk_solution):
        coarse = scaling_identity_check(
            disk_solution, RectRegion((-0.25, -0.25), (0.25, 0.25)), 0.7,
            n_target=40_000)
        fine = scaling_identity_check(
            disk_solution, RectRegion((-0.25, -0.25), (0.25, 0.25)), 0.7,
            n_target=1_000_000)
        assert fine < coarse


class TestGradientSmallness:
    def test_unit_gradient_gives_a_squared(self, disk_solution):
        for a in (0.1, 0.15):
            rep = lipschitz_smallness(disk_solution, a)
            assert rep["c_a"] == pytest.approx(a * a, rel=0.02)

    def test_a_too_large_rejected(self, disk_solution):
        with pytest.raises(ValueError, match="empty"):
            lipschitz_smallness(disk_solution, 0.3)

    def test_layer_energy_linear_in_a(self, disk_solution):
        rep = boundary_layer(disk_solution, [0.15, 0.2, 0.3, 0.4, 0.5])
        # |grad u| = 1: the layer energy is the layer area, linear in a
        for a, e in zip(rep["a"], rep["layer_energy"]):
            assert e == pytest.approx(math.pi * (1 - (1 - a / 4) ** 2),
                                      rel=0.02)
        assert rep["exponent"] >= 0.5 - 0.1

    def test_norm_helpers(self, disk_solution, disk_mesh_h05):
        # int x^2 over the unit disk = pi/4 (mesh area deficit is O(h^2))
        total = l2_norm_sq(disk_solution)
        assert total == pytest.approx(math.pi / 4, rel=5e-3)
        ball = ball_l2_sq(disk_solution, (0.0, 0.0), 0.3)
        assert ball == pytest.approx(math.pi * 0.3 ** 4 / 4, rel=2e-2)


# ---------------------------------------------------------------------------
# Ball stencil sums against point sampling


KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                           database=None)


def _random_disk_mesh(seed: int) -> Mesh:
    """Delaunay mesh of uniform random nodes in the unit disk and at random
    angles on its rim: elements of every shape, slivers included, and an
    irregular polygonal hull."""
    rng = np.random.default_rng(seed)
    rim = rng.uniform(0.0, 2.0 * math.pi, 110)
    rad = np.sqrt(rng.uniform(0.0, 0.96, 900))
    ang = rng.uniform(0.0, 2.0 * math.pi, 900)
    pts = np.vstack([np.column_stack([np.cos(rim), np.sin(rim)]),
                     np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])])
    tri = _Delaunay(pts)
    m = len(tri.simplices)
    return Mesh(pts, tri.simplices, np.ones(m, dtype=np.int8),
                np.zeros(m, dtype=bool), tri.convex_hull.copy(),
                np.empty((0, 2), dtype=int), np.empty((0, 2), dtype=int),
                math.sqrt(math.pi / 900), Scene(outer=Circle((0, 0), 1.0)),
                tri, {})


@functools.lru_cache(maxsize=None)
def _kernel_mesh(which: int) -> Mesh:
    """Two random Delaunay meshes and two lattice meshes of the unit disk."""
    if which < 2:
        return _random_disk_mesh(which)
    return build_mesh(Scene(outer=Circle((0, 0), 1.0)),
                      (0.04, 0.05)[which - 2])


def _nodal_solution(mesh: Mesh, u) -> Solution:
    """A Solution holding only a nodal field, for the samplers."""
    return Solution(mesh=mesh, u=np.asarray(u, dtype=complex), g=None,
                    background=None, law=None, multiplier=0j, residual=0.0,
                    sigma_e=None, eps_e=None, zeta_e=None)


def _rough_field(mesh: Mesh, seed: int) -> Solution:
    """Independent complex normal values at every node: |grad u| ~ |u|/h,
    so the moments of a ball of radius r carry terms (r/h)^2 larger than
    their sum."""
    rng = np.random.default_rng(seed)
    return _nodal_solution(mesh, rng.normal(size=mesh.num_points)
                           + 1j * rng.normal(size=mesh.num_points))


@st.composite
def _ball_cases(draw):
    """(mesh, radius, n_grid, centres): a vertex, a point on an edge and
    an edge midpoint, each with its whole ball inside the unit disk."""
    mesh = _kernel_mesh(draw(st.integers(0, 3)))
    radius = mesh.h * draw(st.floats(0.1, 12.0))
    n_grid = draw(st.sampled_from([1, 16, 72, 96, 110]))
    ok = np.flatnonzero(np.hypot(*mesh.points.T) <= 1.0 - radius)
    pick = draw(st.lists(st.integers(0, 10 ** 6), min_size=3, max_size=3))
    vertex = mesh.points[ok[pick[0] % len(ok)]]
    tri = mesh.triangles[np.isin(mesh.triangles, ok).all(axis=1)]
    t = draw(st.floats(0.0, 1.0))
    edges = [tri[pick[i] % len(tri)][:2] for i in (1, 2)]
    on_edge = (1.0 - t) * mesh.points[edges[0][0]] + t * mesh.points[
        edges[0][1]]
    midpoint = 0.5 * (mesh.points[edges[1][0]] + mesh.points[edges[1][1]])
    return mesh, radius, n_grid, np.array([vertex, on_edge, midpoint])


def _onto_vertices(mesh: Mesh, centres, radius: float, n_grid: int):
    """Centres shifted so that a stencil point falls on the mesh vertex
    nearest each centre (or within an ulp of it), and a row runs through
    it; those whose ball stays inside the unit disk."""
    offsets, _, _, _ = _grid_cells(Circle((0.0, 0.0), radius),
                                   max(16, n_grid))
    near = mesh.points[np.argmin(np.hypot(*(mesh.points[:, None]
                                            - centres).T), axis=1)]
    shifted = near - offsets[[0, len(offsets) // 2, -1]]
    return shifted[np.hypot(*shifted.T) <= 1.0 - radius]


class TestBallKernel:
    @KERNEL_SETTINGS
    @given(case=_ball_cases(), gradient=st.booleans())
    def test_matches_point_sampling(self, case, gradient):
        mesh, radius, n_grid, centres = case
        sol = _rough_field(mesh, 5)
        want = point_sampled_ball_sums(sol, centres, radius, n_grid,
                                       gradient)
        got = _ball_sums(sol, centres, radius, n_grid, gradient)
        assert np.abs(got - want).max() <= 1e-12 * want.min()
        for i, c in enumerate(centres):
            assert _ball_sums(sol, c[None], radius, n_grid,
                              gradient)[0] == got[i]

    @KERNEL_SETTINGS
    @given(case=_ball_cases())
    def test_stencil_point_on_a_vertex(self, case):
        # |u|^2 is continuous, so the element that claims a stencil point
        # on a vertex or an edge does not change the sum
        mesh, radius, n_grid, centres = case
        shifted = _onto_vertices(mesh, centres, radius, n_grid)
        if not len(shifted):
            return
        sol = _rough_field(mesh, 6)
        want = point_sampled_ball_sums(sol, shifted, radius, n_grid)
        got = _ball_sums(sol, shifted, radius, n_grid)
        assert np.abs(got - want).max() <= 1e-12 * want.min()

    @KERNEL_SETTINGS
    @given(case=_ball_cases())
    def test_unit_field_sums_the_weights(self, case):
        # every stencil point counted once: u = 1 gives the weight sum
        mesh, radius, n_grid, centres = case
        centres = np.vstack([centres, _onto_vertices(mesh, centres, radius,
                                                     n_grid)])
        _, w, dx, dy = _grid_cells(Circle((0.0, 0.0), radius),
                                   max(16, n_grid))
        total = math.fsum(w * (dx * dy))
        got = _ball_sums(_nodal_solution(mesh, np.ones(mesh.num_points)),
                         centres, radius, n_grid)
        assert np.abs(got - total).max() <= 1e-15 * total

    def test_count_below_is_searchsorted(self):
        from powergap.smallness import _count_below, _stencil_rows
        rng = np.random.default_rng(3)
        for radius, n_grid in ((0.013, 16), (0.3, 110), (1e-4, 96)):
            stencil = _stencil_rows(radius, n_grid)
            axis, step = stencil.xs, stencil.dx
            x = np.concatenate([axis, np.nextafter(axis, -1.0),
                                np.nextafter(axis, 1.0),
                                rng.uniform(-2 * radius, 2 * radius, 1000)])
            assert np.array_equal(_count_below(axis, step, x),
                                  np.searchsorted(axis, x))

    def test_three_ball_past_the_hull(self, identity_background, cos_data):
        # B_r3 touches the unit circle midway between two rim nodes, so it
        # pokes past the inscribed polygon, which the stencil samples by
        # the mesh's nearest-element extension
        mesh = build_mesh(Scene(outer=Circle((0.0, 0.0), 1.0)), 0.15)
        sol = BackgroundOperator(mesh, identity_background).solve(cos_data)
        rim = mesh.points[mesh.boundary_loop()[:2]]
        mid = rim.mean(axis=0)
        r1, r2, r3 = 0.02, 0.06, 0.3
        centre = mid / np.linalg.norm(mid) * (1.0 - r3 - 1e-12)
        offsets, _, _, _ = _grid_cells(Circle((0.0, 0.0), r3), 110)
        assert (mesh._tri.find_simplex(centre + offsets) < 0).any()
        chk = check_three_ball(sol, centre, r1, r2, r3)
        want = point_sampled_ball_sums(sol, centre, r3, 110)[0]
        assert chk.large_factor == pytest.approx(want, rel=1e-12)
        assert _ball_sums(sol, centre[None], r3, 110, gradient=True)[0] \
            == pytest.approx(point_sampled_ball_sums(
                sol, centre, r3, 110, gradient=True)[0], rel=1e-12)

    @pytest.mark.parametrize("gradient", [False, True])
    def test_ball_beyond_the_extension_raises(self, disk_solution, gradient):
        # stencil points more than 4h past the mesh, as point sampling
        centre, radius = np.array([[0.9, 0.0]]), 0.35
        with pytest.raises(CoverageError):
            point_sampled_ball_sums(disk_solution, centre, radius, 96,
                                    gradient)
        with pytest.raises(CoverageError):
            _ball_sums(disk_solution, centre, radius, 96, gradient)
