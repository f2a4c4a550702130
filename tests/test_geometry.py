import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergap import (
    Circle,
    CurveInterior,
    Ellipse,
    RectRegion,
    Scene,
    WeightParams,
    build_regions,
    dilate,
    erode,
    flattening_map,
    grid_integrate,
    max_region_radius,
    region_area,
    vitali_cover,
    z_value,
)
from powergap.errors import ChartRangeError
from powergap.geometry import (
    FlatteningMap,
    RectRegion,
    ScaledRegion,
    _dot,
    _grid_rule,
    _norm,
    polyline_min_distance,
)
from powergap.smallness import _BoundaryShell

from oracles import (
    Boxed,
    FnSampler,
    dense_grid_rule,
    ellipse_distance,
    eta_norm,
    flatten,
    grid_cells,
    monte_carlo_area,
    point_grid_integrate,
    polyline_distance_table,
)


WP = WeightParams(alpha_plus=2.0, alpha_minus=1.0, beta=0.1, delta=8.0,
                  kappa0=1.5, delta0=8.0, r0=8.0)


class TestZValue:
    def test_origin(self):
        assert z_value((0.0, 0.0), WP)[0] == 0.0

    def test_linear_term_only(self):
        wp = WeightParams(alpha_plus=2.0, alpha_minus=1.0, beta=1e-12,
                          delta=1.0, kappa0=1.5, delta0=2.0, r0=1.0)
        assert z_value((0.0, 0.5), wp)[0] == pytest.approx(0.5, abs=1e-10)

    def test_lateral_quadratic_term(self):
        wp = WeightParams(alpha_plus=2.0, alpha_minus=1.0, beta=1e-12,
                          delta=1.0, kappa0=1.5, delta0=2.0, r0=1.0)
        assert z_value((1.0, 0.0), wp)[0] == pytest.approx(-0.5, abs=1e-10)

    def test_exactly_quadratic(self):
        # second differences match the analytic curvatures to 1e-8 relative
        h = 1e-3
        for x in [(0.1, 0.05), (-0.2, 0.3), (0.4, -0.1)]:
            x = np.asarray(x)
            for axis, expect in ((1, WP.beta / WP.delta ** 2),
                                 (0, -1.0 / WP.delta)):
                e = np.zeros(2)
                e[axis] = h
                d2 = (z_value(x + e, WP)[0] - 2 * z_value(x, WP)[0]
                      + z_value(x - e, WP)[0]) / h ** 2
                assert d2 == pytest.approx(expect, rel=1e-8, abs=1e-12)


class TestWeightParams:
    def test_ratio_below_kappa0_rejected(self):
        with pytest.raises(ValueError, match="kappa0"):
            WeightParams(alpha_plus=1.2, alpha_minus=1.0, kappa0=1.5)

    def test_delta_capped_by_delta0(self):
        with pytest.raises(ValueError, match="delta0"):
            WeightParams(delta=9.0, delta0=8.0)


class TestRegions:
    def test_radius_constraint_formula(self):
        r = min(WP.r0 ** 2, 13 * WP.alpha_minus / (8 * WP.beta),
                2 * WP.delta * WP.r0 / (19 * WP.alpha_minus + 8 * WP.beta))
        assert max_region_radius(WP) == pytest.approx(WP.alpha_minus * r / 16)

    def test_rejects_radii_beyond_max(self):
        R = max_region_radius(WP)
        with pytest.raises(ValueError, match="R1, R2"):
            build_regions(WP, R * 1.01, R / 2)
        with pytest.raises(ValueError, match="theta"):
            build_regions(WP, R / 2, R / 2, theta=1.5)

    def test_membership_examples(self):
        reg = build_regions(WP, 0.4, 0.1, theta=1.0)
        a = reg.a
        # z = -R2/2 on the axis, x_n slightly below zero
        wp = WP
        xn = -0.5 * 0.1 * wp.delta / wp.alpha_minus  # z ~ -R2/2 for small beta
        p = np.array([[0.0, xn]])
        zval = z_value(p, wp)[0]
        assert -0.1 <= zval <= 0.0
        assert reg.in_u2(p)[0] and reg.in_u3(p)[0] and not reg.in_u1(p)[0]
        # x_n = R1/(2a) with z >= 0 is in U1 and U3
        q = np.array([[0.0, 0.4 / (2 * a)]])
        assert reg.in_u1(q)[0] and reg.in_u3(q)[0]
        # but below the U1 floor x_n = R1/(8a) it is not in U1
        q2 = np.array([[0.0, 0.4 / (16 * a)]])
        assert not reg.in_u1(q2)[0]

    def test_nesting_u1_u2_in_u3(self, rng):
        reg = build_regions(WP, 0.4, 0.1, theta=0.09)
        lo, hi = reg.flattened_bbox()
        pts = lo + rng.random((20000, 2)) * (hi - lo)
        assert np.all(reg.in_u3(pts)[reg.in_u1(pts)])
        assert np.all(reg.in_u3(pts)[reg.in_u2(pts)])

    def test_scaling_consistency(self, rng):
        theta = 0.5
        reg_t = build_regions(WP, 0.4, 0.1, theta=theta)
        reg_1 = build_regions(WP, 0.4, 0.1, theta=1.0)
        lo, hi = reg_t.flattened_bbox()
        pts = lo + rng.random((5000, 2)) * (hi - lo)
        for k in ("in_u1", "in_u2", "in_u3"):
            got = getattr(reg_t, k)(pts)
            want = getattr(reg_1, k)(pts / theta)
            assert np.array_equal(got, want)

    def test_exponents_sum_to_one_exact(self):
        for r1, r2 in [(1, 1), (2, 5), (7, 3), (13, 29)]:
            xi = Fraction(r2, 2 * r1 + 3 * r2)
            xi3 = Fraction(2 * r1 + 2 * r2, 2 * r1 + 3 * r2)
            assert xi + xi3 == 1
        reg = build_regions(WP, 0.4, 0.4)
        assert reg.exponents() == pytest.approx((1 / 5, 4 / 5))


class TestFlattening:
    def test_flat_graph_is_identity(self):
        m = FlatteningMap((0, 0), (1, 0), (0, 1), lambda x: 0.0 * x, 0.5, 1.0)
        pts = np.array([[0.1, 0.2], [-0.3, 0.05]])
        assert np.allclose(flatten(m, pts), pts)

    def test_constant_shift(self):
        m = FlatteningMap((0, 0), (1, 0), (0, 1),
                          lambda x: 0.2 + 0.0 * x, 0.5, 1.0)
        y = flatten(m, np.array([[0.1, 0.3]]))
        assert np.allclose(y, [[0.1, 0.1]])
        assert np.allclose(m.inverse(y), [[0.1, 0.3]])

    def test_roundtrip_on_circle_chart(self, rng):
        circle = Circle((0.0, 0.0), 0.5)
        m = flattening_map(circle, 0.0, rho0=0.3, K0=4.0)
        pts = np.column_stack([rng.uniform(-0.29, 0.29, 10000),
                               rng.uniform(-0.2, 0.2, 10000)])
        world = m.from_frame(pts)
        err = np.linalg.norm(m.inverse(flatten(m, world)) - world, axis=1)
        assert err.max() < 1e-12

    def test_chart_range_error(self):
        circle = Circle((0.0, 0.0), 0.5)
        m = flattening_map(circle, 0.0, rho0=0.3, K0=4.0)
        with pytest.raises(ChartRangeError):
            flatten(m, np.array([[0.5, 0.9]]))  # |x'| = 0.9 in frame coords

    def test_circle_graph_matches_curve(self):
        circle = Circle((0.2, -0.1), 0.5)
        m = flattening_map(circle, 0.13, rho0=0.3, K0=4.0)
        xs = np.linspace(-0.25, 0.25, 41)
        graph_pts = m.from_frame(np.column_stack([xs, m.psi(xs)]))
        assert np.abs(circle.signed_distance(graph_pts)).max() < 1e-12

    def test_graph_vanishes_at_the_anchor(self):
        for t in np.linspace(0.0, 1.0, 16, endpoint=False):
            circle = flattening_map(Circle((0.2, -0.1), 0.5), t, rho0=0.3,
                                    K0=4.0)
            assert circle.psi(np.array([0.0]))[0] == 0.0
            ellipse = flattening_map(Ellipse((0.1, 0.0), 0.55, 0.4), t,
                                     rho0=0.22, K0=4.0)
            assert abs(ellipse.psi(np.array([0.0]))[0]) <= 1e-15

    def test_ellipse_graph_matches_curve(self):
        ell = Ellipse((0.0, 0.0), 0.55, 0.4)
        m = flattening_map(ell, 0.25, rho0=0.22, K0=4.0)
        xs = np.linspace(-0.2, 0.2, 41)
        graph_pts = m.from_frame(np.column_stack([xs, m.psi(xs)]))
        impl = (graph_pts[:, 0] / 0.55) ** 2 + (graph_pts[:, 1] / 0.4) ** 2
        assert np.abs(impl - 1.0).max() < 1e-10

    def test_curved_inner_ball_maps_into_u2(self, rng):
        # rejection-sampling oracle: all of B_r(P) lands in theta*U2 under
        # the forward map, for r from the guaranteed-radius formula
        psi = lambda x: 0.1 * np.asarray(x) ** 2
        m = FlatteningMap((0, 0), (1, 0), (0, 1), psi, rho0=0.3, K0=1.0)
        reg = build_regions(WP, 0.4, 0.1, theta=0.09)
        r = reg.inner_ball_radius(eta_norm(m), m.rho0)
        assert r > 0
        ang = rng.uniform(0, 2 * np.pi, 20000)
        rad = r * np.sqrt(rng.random(20000))
        ball = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        assert reg.in_u2(flatten(m, ball)).all()

    def test_u3_pullback_in_ball_bound(self, twophase_scene, rng):
        reg = build_regions(WP, 0.4, 0.1, theta=0.09)
        m = flattening_map(twophase_scene.interface, 0.0, rho0=0.3, K0=4.0)
        d = reg.ball_radius(eta_norm(m))
        lo, hi = reg.flattened_bbox()
        pts = lo + rng.random((40000, 2)) * (hi - lo)
        pts = pts[reg.in_u3(pts)]
        world = m.inverse(pts)
        assert np.linalg.norm(world - m.anchor, axis=1).max() <= d

    def test_u1_separation_from_interface(self, twophase_scene, rng):
        reg = build_regions(WP, 0.4, 0.1, theta=0.09)
        m = flattening_map(twophase_scene.interface, 0.0, rho0=0.3, K0=4.0)
        lo, hi = reg.flattened_bbox()
        pts = lo + rng.random((40000, 2)) * (hi - lo)
        pts = pts[reg.in_u1(pts)]
        world = m.inverse(pts)
        dist = np.abs(twophase_scene.interface.signed_distance(world))
        assert dist.min() > reg.separation_bound()


class TestErodeDilate:
    def test_erode_disk(self, rng):
        disk = CurveInterior(Circle((0.0, 0.0), 1.0))
        er = erode(disk, 0.25)
        pts = rng.uniform(-1.2, 1.2, (20000, 2))
        want = np.linalg.norm(pts, axis=1) < 0.75
        assert np.array_equal(er.signed_distance(pts) < 0.0, want)

    def test_dilate_disk(self, rng):
        disk = CurveInterior(Circle((0.0, 0.0), 1.0))
        di = dilate(disk, 0.25)
        pts = rng.uniform(-1.5, 1.5, (20000, 2))
        want = np.linalg.norm(pts, axis=1) < 1.25
        assert np.array_equal(di.signed_distance(pts) < 0.0, want)

    def test_negative_depth_rejected(self):
        disk = CurveInterior(Circle((0.0, 0.0), 1.0))
        with pytest.raises(ValueError):
            erode(disk, -0.1)

    def test_layer_measure_linear_in_depth(self):
        # |Omega \ Omega_{a/4}| <= C a on the disk, against Monte Carlo
        disk = CurveInterior(Circle((0.0, 0.0), 1.0))
        for a in (0.1, 0.2, 0.4):
            layer = region_area(disk, n=600) - region_area(
                erode(disk, a / 4.0), n=600)
            exact = math.pi * (1 - (1 - a / 4) ** 2)
            mc = monte_carlo_area(
                lambda p, a=a: (np.linalg.norm(p, axis=1) < 1.0)
                & (np.linalg.norm(p, axis=1) > 1 - a / 4),
                ((-1, -1), (1, 1)), n=400_000)
            assert layer == pytest.approx(exact, rel=2e-3)
            assert layer == pytest.approx(mc, rel=0.05)
            assert layer <= math.pi * a  # C = pi works for the unit disk

    def test_grid_integrate_rect(self):
        rect = RectRegion((0.0, 0.0), (1.0, 1.0))
        val = grid_integrate(FnSampler(lambda p: p[:, 0]), rect, n=300)
        assert val == pytest.approx(0.5, rel=1e-3)


@st.composite
def lazy_rule_cases(draw):
    """(region, n): every region kind the grid integrals use, on its own
    box or on a box of another size and aspect; n includes sizes that
    the rule's blocks do not divide."""
    coord = st.floats(-1.0, 1.0)
    c = (draw(coord), draw(coord))
    r = draw(st.floats(0.02, 1.0))
    kind = draw(st.sampled_from(["circle", "rect", "scaled", "erode",
                                 "dilate", "shell", "ellipse",
                                 "eroded_ellipse"]))
    if kind in ("ellipse", "eroded_ellipse"):
        base = CurveInterior(Ellipse(c, r, r * draw(st.floats(0.2, 1.0))))
    else:
        base = CurveInterior(Circle(c, r))
    depth = r * draw(st.floats(0.01, 0.6))
    region = {
        "circle": base,
        "rect": RectRegion((c[0] - r, c[1] - 0.5 * r), (c[0] + r, c[1] + r)),
        "scaled": ScaledRegion(
            RectRegion((c[0] - r, c[1] - r), (c[0] + r, c[1] + r)),
            draw(st.floats(0.1, 1.0))),
        "erode": erode(base, depth),
        "dilate": dilate(base, depth),
        "shell": _BoundaryShell(base, depth),
        "ellipse": base,
        "eroded_ellipse": erode(base, depth),
    }[kind]
    n = draw(st.sampled_from([1, 2, 7, 16, 97]))
    if draw(st.booleans()):
        lo, hi = region.bbox()
        grow = np.array([draw(st.floats(-0.3, 1.0)), draw(st.floats(-0.3, 1.0))])
        region = Boxed(region, lo - grow * r, hi + grow[::-1] * r)
    return region, n


class TestLazyGridRule:
    """`_grid_rule` decides whole blocks from one signed distance; every
    fraction must be the one the per-cell formula gives."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(lazy_rule_cases())
    def test_bitwise_the_dense_rule(self, case):
        region, n = case
        xs, ys, w, dx, dy = _grid_rule(region, n)
        want_xs, want_ys, _, want, want_dx, want_dy = dense_grid_rule(
            region, n)
        assert (dx, dy) == (want_dx, want_dy)
        assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
        assert w.shape == (len(ys), len(xs))
        assert w.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 97])
    def test_area_and_cells_match_the_dense_rule(self, n):
        disk = CurveInterior(Circle((0.2, -0.1), 0.7))
        assert region_area(disk, n=n) == point_grid_integrate(None, disk, n)
        pts, w, _, _ = grid_cells(disk, n)
        _, _, want_pts, want_w, _, _ = dense_grid_rule(disk, n)
        keep = want_w > 0
        assert np.array_equal(pts, want_pts[keep])
        assert np.array_equal(w, want_w[keep])

    def test_empty_box(self):
        flat = RectRegion((0.0, 0.0), (0.0, 1.0))
        assert _grid_rule(flat, 8)[2].size == 0
        assert grid_integrate(FnSampler(lambda p: p[:, 0]), flat, 8) == 0.0


class TestScene:
    def test_component_signs(self, twophase_scene):
        assert twophase_scene.component((0.0, 0.0))[0] == -1
        assert twophase_scene.component((0.8, 0.0))[0] == 1

    def test_one_phase_all_plus(self, disk_scene):
        assert np.all(disk_scene.component([[0, 0], [0.5, 0.2]]) == 1)

    def test_validate_distances(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      interface=Circle((0, 0), 0.5),
                      inclusion=Circle((0, 0), 0.2), d0=0.5)
        rep = scene.validate()
        assert rep["dist_interface_boundary"] == pytest.approx(0.5, abs=1e-3)
        assert rep["dist_inclusion_boundary"] == pytest.approx(0.8, abs=1e-3)

    def test_validate_rejects_close_inclusion(self):
        scene = Scene(outer=Circle((0, 0), 1.0),
                      inclusion=Circle((0.5, 0), 0.45), d0=0.2)
        from powergap.errors import StructuralError
        with pytest.raises(StructuralError, match="d0"):
            scene.validate()

    @pytest.mark.parametrize("interface, inclusion, field", [
        (Circle((0, 0), 1.0), None, "interface"),
        (Circle((0.6, 0), 0.5), None, "interface"),
        (Circle((0, 0), 1.2), None, "interface"),
        (None, Circle((2.0, 0), 0.2), "d0"),
        (None, Ellipse((0.9, 0), 0.3, 0.1), "d0"),
    ])
    def test_validate_refuses_curves_leaving_the_body(self, interface,
                                                      inclusion, field):
        # a curve on the boundary, across it or outside it is refused, and
        # the error names the scene field at fault
        from powergap.errors import StructuralError
        scene = Scene(outer=Circle((0, 0), 1.0), interface=interface,
                      inclusion=inclusion, d0=0.05)
        with pytest.raises(StructuralError) as exc:
            scene.validate()
        assert exc.value.field == field


@st.composite
def walks(draw):
    """A random-walk polyline and query points inside, outside and far away.

    Step lengths span four decades and about a fifth of the steps are zero,
    so the polyline mixes long and short segments with repeated vertices.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 60))
    steps = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-2.0, 2.0, (n, 1))
    steps[rng.random(n) < 0.2] = 0.0
    poly = np.cumsum(steps, axis=0) + draw(st.floats(-1e3, 1e3))
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    span = float((hi - lo).max()) + 1e-3
    pts = np.vstack([rng.uniform(lo, hi, (40, 2)),
                     rng.uniform(lo - span, hi + span, (20, 2)),
                     rng.uniform(lo - 100 * span, hi + 100 * span, (10, 2)),
                     poly[rng.integers(0, n, 5)]])
    return pts, poly


class TestLengthKernels:
    """`_norm` and `_dot` are bitwise numpy's generic last-axis forms."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(500, 2), (40, 7, 2)]))
    def test_bitwise_generic_reduction(self, seed, shape):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-150, 150, size=shape)
        a = rng.normal(size=shape) * scale
        b = rng.normal(size=shape) * scale[::-1]
        a.flat[::17] = 0.0
        assert np.array_equal(_norm(a), np.linalg.norm(a, axis=-1))
        assert np.array_equal(_dot(a, b), (a * b).sum(axis=-1))

    def test_box_distance_matches_generic_form(self, rng):
        box = RectRegion((-0.3, -0.2), (0.5, 0.4))
        p = rng.uniform(-1.0, 1.0, size=(5000, 2))
        q = np.abs(p - 0.5 * (box.lo + box.hi)) - 0.5 * (box.hi - box.lo)
        want = (np.linalg.norm(np.maximum(q, 0.0), axis=1)
                + np.minimum(np.max(q, axis=1), 0.0))
        assert np.array_equal(box.signed_distance(p), want)


@st.composite
def ellipse_queries(draw):
    """(ellipse, points): semi-axes equal, wider, taller or as thin as
    (0.4, 0.01), off-origin centres, and points in the box, on the axes,
    at the centre, near the evolute and near the curve."""
    a = draw(st.floats(0.05, 1.0))
    b = draw(st.one_of(st.just(a), st.floats(0.05, 1.0)))
    a, b = draw(st.sampled_from([(a, b), (0.4, 0.01), (0.01, 0.4)]))
    c = draw(st.one_of(st.just((0.0, 0.0)),
                       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = max(a, b)
    box = rng.uniform(-2.0 * r, 2.0 * r, (16, 2))
    s = np.concatenate([[0.0, 1.0, -1.0], rng.uniform(-2.0, 2.0, 5)])
    axes = np.vstack([np.column_stack([a * s, 0.0 * s]),
                      np.column_stack([0.0 * s, b * s]), [[0.0, 0.0]]])
    t = rng.uniform(0.0, 2.0 * np.pi, 16)
    evolute = np.column_stack([(a * a - b * b) / a * np.cos(t) ** 3,
                               (b * b - a * a) / b * np.sin(t) ** 3])
    evolute += rng.normal(size=(16, 2)) * 10.0 ** rng.uniform(-9, -2, (16, 1))
    near = np.column_stack([a * np.cos(t), b * np.sin(t)]) \
        + rng.normal(size=(16, 2)) * 10.0 ** rng.uniform(-12, -1, (16, 1))
    pts = np.vstack([box, axes, evolute, near])
    return Ellipse(c, a, b), np.asarray(c) + pts


class TestEllipseDistance:
    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(ellipse_queries())
    def test_matches_the_oracle(self, case):
        ell, pts = case
        sd = ell.signed_distance(pts)
        assert np.abs(np.abs(sd) - ellipse_distance(ell, pts)).max() <= 1e-12
        assert np.array_equal(sd < 0.0, ell.contains(pts))

    @pytest.mark.parametrize("c, a, b", [
        ((0.0, 0.0), 0.55, 0.4), ((0.0, 0.0), 0.35, 0.2),
        ((0.3, -0.2), 0.2, 0.5), ((0.1, 0.1), 0.3, 0.3),
        ((0.0, 0.0), 0.4, 0.01)])
    def test_continuous_across_the_curve(self, c, a, b):
        # a step of 2e-9 along the normal at each arc midpoint of the
        # 2048-gon changes the distance by 2e-9 and nothing more
        ell = Ellipse(c, a, b)
        p = ell.point_at((np.arange(2048) + 0.5) / 2048)
        w = p - np.asarray(c)
        n = np.column_stack([w[:, 0] / a ** 2, w[:, 1] / b ** 2])
        n /= np.linalg.norm(n, axis=1)[:, None]
        jump = ell.signed_distance(p + 1e-9 * n) \
            - ell.signed_distance(p - 1e-9 * n) - 2e-9
        assert np.abs(jump).max() <= 1e-12

    def test_nodes_lie_on_the_curve(self):
        ell = Ellipse((0.1, -0.2), 0.55, 0.4)
        assert np.abs(ell.signed_distance(ell.nodes(0.015))).max() <= 1e-15


class TestPolylineDistance:
    @staticmethod
    def _ellipse(n):
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(t), 0.6 * np.sin(t)])

    def test_dense_table_matches_per_point(self, rng):
        # 700 segments: the table is taken in several blocks of points,
        # the last one partial
        poly = self._ellipse(700)
        pts = rng.uniform(-1.2, 1.2, (500, 2))
        a = poly
        b = np.roll(poly, -1, axis=0)
        want = []
        for p in pts:
            t = np.clip(((p - a) * (b - a)).sum(axis=1)
                        / ((b - a) ** 2).sum(axis=1), 0.0, 1.0)
            want.append(np.linalg.norm(p - (a + t[:, None] * (b - a)),
                                       axis=1).min())
        np.testing.assert_allclose(polyline_min_distance(pts, poly),
                                   want, rtol=1e-12)

    def test_dense_table_memory_bounded(self):
        # the 512 x 512 table Scene.validate measures with
        import tracemalloc
        poly = self._ellipse(512)
        pts = 0.5 * self._ellipse(512)
        tracemalloc.start()
        try:
            polyline_min_distance(pts, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_large_query_memory_bounded(self):
        # 64k points against a 419-node circle, the size of the interface
        # lattice filter at h = 0.0075
        import tracemalloc
        t = np.linspace(0.0, 2.0 * np.pi, 419, endpoint=False)
        poly = 0.5 * np.column_stack([np.cos(t), np.sin(t)])
        g = np.linspace(-1.0, 1.0, 256)
        pts = np.column_stack([np.repeat(g, 256), np.tile(g, 256)])
        tracemalloc.start()
        try:
            got = polyline_min_distance(pts, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert np.array_equal(got[::97], polyline_distance_table(pts[::97],
                                                                 poly))

    @pytest.mark.parametrize("n", [3, 1100])
    def test_long_segment_far_from_near_vertices(self, n):
        # the nearest segment, y = 1, has both ends 5 away while a 2000-node
        # circle passes 1.5 below the points: a search that only tries the
        # segments next to the nearest vertices returns 1.5
        t = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
        circle = np.column_stack([0.3 * np.cos(t), -1.8 + 0.3 * np.sin(t)])
        poly = np.vstack([[[-5.0, 1.0], [5.0, 1.0], [5.0, -5.0]], circle])
        pts = np.column_stack([np.linspace(-0.05, 0.05, 1100)[:n],
                               np.zeros(n)])
        assert np.array_equal(polyline_min_distance(pts, poly),
                              np.ones(n))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(walks(), st.floats(0.0, 1.0))
    def test_equals_full_table(self, case, q):
        pts, poly = case
        want = polyline_distance_table(pts, poly)
        assert np.array_equal(polyline_min_distance(pts, poly), want)
        # a cap keeps the exact value up to it and gives inf beyond
        cap = float(np.quantile(want, q))
        got = polyline_min_distance(pts, poly, cap=cap)
        near = np.isfinite(got)
        assert np.array_equal(got[near], want[near])
        assert np.all(got[near] <= cap)
        assert np.all(want[~near] > cap)


class TestVitaliCover:
    @pytest.mark.parametrize("points", [np.zeros((1, 2)), np.zeros((0, 2))])
    def test_points_are_not_a_curve(self, points):
        with pytest.raises(TypeError, match="closed curve"):
            vitali_cover(points, 0.1)

    def test_disjointness(self, twophase_scene):
        centers = vitali_cover(twophase_scene.interface, 0.05)
        d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        d += np.eye(len(centers)) * 1e9
        assert d.min() >= 2 * 0.05

    def test_huge_radius_single_center(self, twophase_scene):
        centers = vitali_cover(twophase_scene.interface, 5.0)
        assert len(centers) == 1

    def test_five_radius_covers_strip(self, twophase_scene, rng):
        r = 0.06
        sigma = twophase_scene.interface
        centers = vitali_cover(sigma, r)
        # sample the strip of width r around the interface
        pts = rng.uniform(-0.7, 0.7, (40000, 2))
        strip = np.abs(sigma.signed_distance(pts)) < r
        pts = pts[strip]
        dmin = np.min(np.linalg.norm(pts[:, None] - centers[None, :], axis=2),
                      axis=1)
        assert dmin.max() < 5 * r

    def test_count_bound_reported(self, twophase_scene):
        r = 0.04
        centers = vitali_cover(twophase_scene.interface, r)
        length = twophase_scene.interface.perimeter
        assert len(centers) <= length / (2 * r) + 1
