import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from powergap import (
    Circle,
    RectRegion,
    Scene,
    WeightParams,
    build_regions,
    flattening_map,
    fourier_data,
)
from powergap.errors import CoverageError
from powergap.geometry import (
    CurveInterior,
    _cell_points,
    _grid_rule,
    grid_integrate,
)
from powergap import smallness
from powergap.mesh import Mesh, build_mesh
from powergap.smallness import (
    _BoundaryShell,
    _FieldSampler,
    _ball_sums,
    _straight_chains,
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

from corpus import isotropic_background
from oracles import (
    Boxed,
    FnSampler,
    exact_interpolate,
    grid_cells,
    monte_carlo_integral,
    point_grad_sq_sampler,
    point_grid_integrate,
    point_sampled_ball_sums,
    point_sq_sampler,
    stock_delaunay,
    walked_chain_centers,
)

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
        [(i1, i2, i3)] = region_integrals(
            FnSampler(lambda p: np.zeros(len(p))), REGIONS, _FlatChart())
        assert (i1, i2, i3) == (0.0, 0.0, 0.0)

    def test_nesting(self):
        fn = lambda p: np.exp(p[:, 0] + 0.5 * p[:, 1]) ** 2
        [(i1, i2, i3)] = region_integrals(FnSampler(fn), REGIONS,
                                          _FlatChart())
        assert i1 <= i3 and i2 <= i3
        assert i1 > 0 and i2 > 0

    def test_linear_field_against_monte_carlo(self):
        # u = x_n against an independent Monte Carlo quadrature; the
        # membership-masked grid carries an O(cell) boundary bias, so the
        # agreement budget combines both error sources
        fn = lambda p: p[:, 1] ** 2
        [(i1, i2, i3)] = region_integrals(FnSampler(fn), REGIONS,
                                          _FlatChart(), n_target=4_800_000)
        lo, hi = REGIONS.flattened_bbox()
        for val, member in ((i1, REGIONS.in_u1), (i2, REGIONS.in_u2),
                            (i3, REGIONS.in_u3)):
            mc = monte_carlo_integral(lambda p: p[:, 1] ** 2, member,
                                      (lo, hi), n=12_000_000)
            assert val == pytest.approx(mc, rel=2.5e-3)

    def test_chart_overflow_raises(self):
        wide = build_regions(WP, 0.4, 0.1, theta=0.5)
        with pytest.raises(CoverageError, match="theta"):
            region_integrals(FnSampler(lambda p: np.zeros(len(p))), wide,
                             _FlatChart())


def _analytic_family(monkeypatch, fn) -> list:
    """A one-member family that `check_three_region` samples as the
    analytic |u|^2 = fn, through a fake sampler."""
    monkeypatch.setattr(smallness, "_FieldSampler",
                        lambda family: FnSampler(fn))
    return [fn]


class TestThreeRegion:
    def test_equal_radii_exponents(self, monkeypatch):
        reg = build_regions(WP, 0.3, 0.3, theta=0.09)
        [chk] = check_three_region(
            _analytic_family(monkeypatch, lambda p: np.ones(len(p))), reg,
            _FlatChart())
        assert chk.exponents == pytest.approx((0.2, 0.8))

    def test_zero_solution_infinite_margin(self, monkeypatch):
        [chk] = check_three_region(
            _analytic_family(monkeypatch, lambda p: np.zeros(len(p))),
            REGIONS, _FlatChart())
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
            [chk] = check_three_region([sol], REGIONS, fmap)
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
        singles = [check_three_region([sol], REGIONS, fmap)[0]
                   for sol in sols]
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
        [chk1] = check_three_region([sol], REGIONS, fmap)
        scaled = dataclasses.replace(sol, u=(3.0 - 4.0j) * sol.u, _grad=None)
        [chk2] = check_three_region([scaled], REGIONS, fmap)
        assert chk2.margin == pytest.approx(chk1.margin, rel=1e-9)


class TestThreeBall:
    def test_exponent_substitution_example(self):
        # r0 = r2/4 and r1 = lambda0 r2/4 gives tau = 1/3 at s = 1
        lam = 0.7
        tau = three_ball_exponent(0.25, lam / 4.0, 1.0, lam)
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


# r1 on a dyadic grid in [0.002, 0.3], so that a chain's length can be an
# exact multiple of 2 r1
_DYADIC_R1 = st.integers(3, 307).map(lambda j: j / 1024.0)


@st.composite
def _chain_cases(draw):
    """(x0, w, r1) in the unit disk: a free pair, a segment of exactly m
    times 2 r1, w = x0, or a segment shorter than 2 r1."""
    kind = draw(st.sampled_from(["free", "multiple", "same", "short"]))
    if kind == "multiple":
        r1 = draw(_DYADIC_R1)
        half = r1 * draw(st.integers(1, max(1, int(0.95 / r1))))
        y = draw(st.integers(-16, 16)) / 64.0
        x0, w = np.array([-half, y]), np.array([half, y])
        if draw(st.booleans()):
            x0, w = x0[::-1].copy(), w[::-1].copy()
        return x0, w, r1
    r1 = draw(st.floats(0.002, 0.3))
    rad = st.floats(0.0, 1.0)
    ang = st.floats(0.0, 2.0 * math.pi)
    a, t = draw(rad), draw(ang)
    x0 = np.array([a * math.cos(t), a * math.sin(t)])
    if kind == "same":
        return x0, x0.copy(), r1
    if kind == "short":
        a, t = draw(st.floats(0.0, 1.999)) * r1, draw(ang)
        return x0, x0 + np.array([a * math.cos(t), a * math.sin(t)]), r1
    a, t = draw(rad), draw(ang)
    return x0, np.array([a * math.cos(t), a * math.sin(t)]), r1


_WHOLE = RectRegion((-2.0, -2.0), (2.0, 2.0))


class TestChain:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_chain_cases())
    def test_closed_form_matches_walker(self, case):
        x0, w, r1 = case
        [ours] = _straight_chains(_WHOLE, x0, w[None, :], r1)
        walked = walked_chain_centers(np.vstack([x0, w]), r1)
        assert ours.shape == walked.shape
        assert np.abs(ours - walked).max() <= 1e-11 * r1
        assert np.array_equal(ours[0], x0)
        # w itself, unless the gap it left was within 1e-12 r1
        assert np.linalg.norm(ours[-1] - w) <= 1e-12 * r1

    def test_chains_built_together_match_one_by_one(self):
        rng = np.random.default_rng(3)
        x0 = np.array([0.1, -0.2])
        targets = rng.uniform(-0.6, 0.6, (40, 2))
        targets[7] = x0
        chains = _straight_chains(_WHOLE, x0, targets, 0.05)
        assert len(chains) == len(targets)
        for w, chain in zip(targets, chains):
            [alone] = _straight_chains(_WHOLE, x0, w[None, :], 0.05)
            assert np.array_equal(chain, alone)
        assert _straight_chains(_WHOLE, x0, np.empty((0, 2)), 0.05) == []

    def test_straight_polyline_spacing(self):
        # N = ceil(L / 2r1) links, consecutive spacing exactly 2 r1
        L, r1 = 1.0, 0.06
        [centers] = _straight_chains(_WHOLE, np.zeros(2),
                                     np.array([[L, 0.0]]), r1)
        steps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
        assert len(steps) == math.ceil(L / (2 * r1))
        assert np.allclose(steps[:-1], 2 * r1, atol=1e-12)
        assert steps[-1] <= 2 * r1 + 1e-12

    def test_degenerate_single_link(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0, 0), 0.02), d0=0.5)
        mesh = build_mesh(scene, 0.05)
        bg = isotropic_background(1.0, 1.0, gamma=0.0)
        sol = BackgroundOperator(mesh, bg).solve(cos_data)
        cert = propagate_chain(sol, scene.inclusion, (0.0, 0.0),
                               r=0.015, h=0.6)
        assert all(ch.n_links <= 1 for ch in cert.chains)
        assert cert.holds()

    def test_fixture_certificate(self, cos_data):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0.1, 0.0), 0.12), d0=0.5)
        mesh = build_mesh(scene, 0.04)
        bg = isotropic_background(1.0, 1.0, gamma=0.05)
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
        bg = isotropic_background(1.0, 1.0, gamma=0.05)
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

    def test_constant_field_closed_form(self, disk_solution):
        # u = 1 on the unit square at theta = 1/2: both sides are 1/4. The
        # field is P1 on the unit disk, which holds every point sampled
        from powergap.geometry import ScaledRegion, grid_integrate
        square = RectRegion((0.0, 0.0), (1.0, 1.0))
        theta = 0.5
        lhs = grid_integrate(None, ScaledRegion(square, theta), n=500)
        assert lhs == pytest.approx(0.25, rel=1e-6)
        one = dataclasses.replace(disk_solution,
                                  u=np.ones_like(disk_solution.u), _grad=None)
        res = scaling_identity_check(one, square, theta)
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
    tri = Delaunay(pts)
    m = len(tri.simplices)
    return Mesh(pts, tri.simplices, tri.neighbors, np.ones(m, dtype=np.int8),
                np.zeros(m, dtype=bool), tri.convex_hull.copy(),
                np.empty((0, 2), dtype=int), np.empty((0, 2), dtype=int),
                math.sqrt(math.pi / 900), Scene(outer=Circle((0, 0), 1.0)),
                {})


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
                    power=0j, sigma_e=None, eps_e=None, zeta_e=None)


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
    offsets, _, _, _ = grid_cells(Circle((0.0, 0.0), radius),
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
        _, w, dx, dy = grid_cells(Circle((0.0, 0.0), radius),
                                  max(16, n_grid))
        total = math.fsum(w * (dx * dy))
        got = _ball_sums(_nodal_solution(mesh, np.ones(mesh.num_points)),
                         centres, radius, n_grid)
        assert np.abs(got - total).max() <= 1e-15 * total

    def test_count_below_is_searchsorted(self):
        from powergap.mesh import _count_below
        from powergap.smallness import _stencil_rows
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
        offsets, _, _, _ = grid_cells(Circle((0.0, 0.0), r3), 110)
        assert (stock_delaunay(mesh).find_simplex(centre + offsets) < 0).any()
        chk = check_three_ball(sol, centre, r1, r2, r3)
        want = point_sampled_ball_sums(sol, centre, r3, 110)[0]
        assert chk.large_factor == pytest.approx(want, rel=1e-12)
        assert _ball_sums(sol, centre[None], r3, 110, gradient=True)[0] \
            == pytest.approx(point_sampled_ball_sums(
                sol, centre, r3, 110, gradient=True)[0], rel=1e-12)

    @pytest.mark.parametrize("gradient", [False, True])
    def test_ball_past_the_hull_among_interior_balls(
            self, identity_background, cos_data, gradient):
        # one block of three centres (the block holds 13 here): the middle
        # ball pokes past the hull and is sampled on its stencil's grid,
        # the other two come from row moments alone
        mesh = build_mesh(Scene(outer=Circle((0.0, 0.0), 1.0)), 0.15)
        sol = BackgroundOperator(mesh, identity_background).solve(cos_data)
        mid = mesh.points[mesh.boundary_loop()[:2]].mean(axis=0)
        radius = 0.3
        centres = np.array([[0.0, 0.0],
                            mid / np.linalg.norm(mid) * (1.0 - radius - 1e-12),
                            [0.1, -0.2]])
        offsets, _, _, _ = grid_cells(Circle((0.0, 0.0), radius), 110)
        stock = stock_delaunay(mesh)
        past = [(stock.find_simplex(c + offsets) < 0).any() for c in centres]
        assert past == [False, True, False]
        got = _ball_sums(sol, centres, radius, 110, gradient)
        for i, c in enumerate(centres):
            assert _ball_sums(sol, c[None], radius, 110, gradient)[0] \
                == got[i]
        want = point_sampled_ball_sums(sol, centres, radius, 110, gradient)
        assert np.abs(got - want).max() <= 1e-12 * want.min()

    @pytest.mark.parametrize("gradient", [False, True])
    def test_ball_beyond_the_extension_raises(self, disk_solution, gradient):
        # stencil points more than 4h past the mesh, as point sampling
        centre, radius = np.array([[0.9, 0.0]]), 0.35
        with pytest.raises(CoverageError):
            point_sampled_ball_sums(disk_solution, centre, radius, 96,
                                    gradient)
        with pytest.raises(CoverageError):
            _ball_sums(disk_solution, centre, radius, 96, gradient)


# ---------------------------------------------------------------------------
# Grid integrals on the raster against point location


@st.composite
def _grid_cases(draw):
    """(mesh, region, n, bbox): a disk, a square or a boundary shell on a
    grid whose box lies in the unit disk or pokes past the mesh's hull (by
    less than its 4h extension), with a grid point on a vertex, on an edge
    or anywhere."""
    mesh = _kernel_mesh(draw(st.integers(0, 3)))
    n = draw(st.sampled_from([1, 2, 7, 16, 97, 300]))
    half = draw(st.floats(0.05, 0.7))
    reach = 1.0 + 2.0 * mesh.h - half * math.sqrt(2.0)
    ang = draw(st.floats(0.0, 2.0 * math.pi))
    # most boxes reach 2h past the unit circle
    out = draw(st.sampled_from([1.0, 1.0, 1.0, 0.8, 0.0]))
    centre = out * max(reach, 0.0) * np.array([math.cos(ang),
                                               math.sin(ang)])
    pick = draw(st.integers(0, 10 ** 6))
    on = draw(st.sampled_from(["vertex", "edge", "free"]))
    lo = centre - half
    if on != "free":
        # shift the box so that its middle grid point lands on the point
        near = np.argsort(np.hypot(*(mesh.points - centre).T))[:8]
        tri = mesh.triangles[np.isin(mesh.triangles, near).any(axis=1)]
        edge = tri[pick % len(tri)][:2]
        target = mesh.points[near[pick % 8]] if on == "vertex" \
            else mesh.points[edge].mean(axis=0)
        step = 2.0 * half / n
        lo = target - step * (n // 2 + 0.5)
    bbox = (lo, lo + 2.0 * half)
    mid = lo + half
    region = {
        "disk": CurveInterior(Circle(tuple(mid), half)),
        "square": RectRegion(lo, lo + 2.0 * half),
        "shell": _BoundaryShell(CurveInterior(Circle(tuple(mid), half)),
                                half / 5.0),
    }[draw(st.sampled_from(["disk", "square", "shell"]))]
    return mesh, region, n, bbox


GRID_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)


def _barycentric_min(mesh: Mesh, points, elements) -> np.ndarray:
    """Smallest barycentric coordinate of each point in its element, from
    the P1 basis gradients about the element's first vertex."""
    first = mesh.points[mesh.triangles[elements, 0]]
    lam = np.einsum("pid,pd->pi", mesh.grads[elements], points - first)
    lam[:, 0] += 1.0
    return lam.min(axis=1)


def _grid_and_points(region, n, bbox, theta=None):
    """A grid of `grid_integrate`'s rule on the box bbox, its cell mask and
    its points, the points scaled by theta when given."""
    xs, ys, w, _, _ = _grid_rule(Boxed(region, *bbox), n)
    cells = w > 0
    points = _cell_points(xs, ys, cells)
    return xs, ys, cells, points if theta is None else points * theta


class TestGridRaster:
    """The samplers of `grid_integrate` place grid points inside the mesh
    by the top-left rule of the row raster and locate only the rest."""

    @GRID_SETTINGS
    @given(case=_grid_cases())
    def test_each_cell_in_a_holding_element(self, case):
        mesh, region, n, bbox = case
        xs, ys, cells, points = _grid_and_points(region, n, bbox)
        got = mesh.locate_grid(xs, ys, cells, mesh.grid_owners(xs, ys))
        off = stock_delaunay(mesh).find_simplex(points) < 0
        assert np.array_equal(got[off], mesh.locate(points[off]))
        assert (_barycentric_min(mesh, points[~off], got[~off])
                >= -1e-12).all()

    @GRID_SETTINGS
    @given(case=_grid_cases(), theta=st.sampled_from([None, 0.6]))
    def test_values_are_point_location(self, case, theta):
        # bitwise where the element is not in doubt. On an edge or a vertex
        # the element may differ from point location's, and two elements'
        # values an ulp off their edge differ by the gradient jump times
        # that ulp (up to 1.1e-14 of the largest value here), so the value
        # is checked against its own element's exact value. The P1 sum
        # c0 + gx dx + gy dy rounds to a few 1e-15 of it on this rough
        # field: point location's own values stray up to 5.7e-15.
        mesh, region, n, bbox = case
        sol = _rough_field(mesh, 7)
        xs, ys, cells, points = _grid_and_points(region, n, bbox, theta)
        got = _FieldSampler(sol, theta=theta).on_grid(xs, ys, cells)
        want = point_sq_sampler(sol, theta)(_cell_points(xs, ys, cells))
        inner = _barycentric_min(mesh, points, mesh.locate(points)) > 1e-9
        assert got[inner].tobytes() == want[inner].tobytes()
        if theta is not None:
            xs, ys = xs * theta, ys * theta
        rest = np.flatnonzero(~inner)
        exact = exact_interpolate(
            mesh, sol.u,
            mesh.locate_grid(xs, ys, cells, mesh.grid_owners(xs, ys))[rest],
            points[rest])
        if theta is not None:
            exact = exact / theta ** 2
        assert np.abs(got[rest] - np.abs(exact) ** 2).max(initial=0.0) \
            <= 1e-14 * want.max(initial=0.0)

    @GRID_SETTINGS
    @given(case=_grid_cases(), k=st.sampled_from([1, 3, 8]))
    def test_family_interpolates_as_point_location(self, case, k):
        mesh, region, n, bbox = case
        rng = np.random.default_rng(k)
        fields = rng.normal(size=(mesh.num_points, k)) \
            + 1j * rng.normal(size=(mesh.num_points, k))
        xs, ys, cells, points = _grid_and_points(region, n, bbox)
        elements = mesh.locate_grid(xs, ys, cells, mesh.grid_owners(xs, ys))
        got = mesh.interpolate(fields, points, elements)
        want = mesh.interpolate(fields, points)
        inner = _barycentric_min(mesh, points, mesh.locate(points)) > 1e-9
        assert got[inner].tobytes() == want[inner].tobytes()
        rest = np.flatnonzero(~inner)
        exact = exact_interpolate(mesh, fields, elements[rest], points[rest])
        assert np.abs(got[rest] - exact).max(initial=0.0) \
            <= 1e-14 * np.abs(want).max(initial=0.0)

    @GRID_SETTINGS
    @given(case=_grid_cases())
    def test_gradient_density_of_a_holding_element(self, case):
        mesh, region, n, bbox = case
        sol = _rough_field(mesh, 7)
        xs, ys, cells, _ = _grid_and_points(region, n, bbox)
        # locate_grid's elements hold their cells (the first test)
        got = _FieldSampler(sol, gradient=True).on_grid(xs, ys, cells)
        assert got.tobytes() == sol.gradient_density()[
            mesh.locate_grid(xs, ys, cells,
                             mesh.grid_owners(xs, ys))].tobytes()

    def test_interior_grid_locates_nothing(self, disk_solution, monkeypatch):
        calls = []
        real = Mesh.locate

        def counted(self, points):
            calls.append(len(points))
            return real(self, points)

        monkeypatch.setattr(Mesh, "locate", counted)
        square = RectRegion((-0.3, -0.3), (0.3, 0.3))
        grid_integrate(_FieldSampler(disk_solution), square, 600)
        grid_integrate(_FieldSampler(disk_solution, gradient=True), square,
                       600)
        assert calls == []

    def test_boundary_layer_locates_once(self, disk_solution, monkeypatch):
        # the shells share one grid, and its cells past the hull are
        # located by the first shell only
        calls = []
        real = Mesh.locate

        def counted(self, points):
            calls.append(len(points))
            return real(self, points)

        monkeypatch.setattr(Mesh, "locate", counted)
        boundary_layer(disk_solution, [0.15, 0.2, 0.3, 0.4, 0.5])
        assert len(calls) == 1 and calls[0] > 0

    @pytest.mark.parametrize("gradient", [False, True])
    def test_repeated_grid_locates_nothing(self, disk_solution, monkeypatch,
                                           gradient):
        calls = []
        real = Mesh.locate

        def counted(self, points):
            calls.append(len(points))
            return real(self, points)

        monkeypatch.setattr(Mesh, "locate", counted)
        sampler = _FieldSampler(disk_solution, gradient)
        disk = CurveInterior(Circle((0.0, 0.0), 1.0))
        first = grid_integrate(sampler, disk, 200)
        assert len(calls) == 1
        assert grid_integrate(sampler, disk, 200) == first
        assert len(calls) == 1

    @pytest.mark.parametrize("gradient", [False, True])
    def test_grid_beyond_the_extension_raises(self, disk_solution,
                                              gradient):
        # cells more than 4h past the mesh, as point location
        square = RectRegion((0.5, -0.2), (1.4, 0.2))
        sampler = _FieldSampler(disk_solution, gradient)
        want = point_grad_sq_sampler(disk_solution) if gradient \
            else point_sq_sampler(disk_solution)
        with pytest.raises(CoverageError) as point_err:
            point_grid_integrate(want, square, 97)
        with pytest.raises(CoverageError) as raster_err:
            grid_integrate(sampler, square, 97)
        assert str(raster_err.value) == str(point_err.value)
