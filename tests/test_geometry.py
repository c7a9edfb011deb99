"""Boundary curves, chords from line_spans, and tangential-direction behaviour."""
import tracemalloc

import numpy as np
import pytest

from aradon.bukhgeim import CartesianGrid
from aradon.errors import NonConvex, TooFewNodes
from aradon.geometry import ON_BOUNDARY_TOL, make_boundary
from oracles import searched_distance, tau_angular_jump


def ellipse_chord_oracle(a, b, z, d):
    """Far intersection of the line z + t d with x^2/a^2 + y^2/b^2 = 1.

    Independent quadratic-formula route used to check the node-chord code.
    z must lie on the ellipse, so t=0 is one root and -B/A the other.
    """
    A = (d[0] / a) ** 2 + (d[1] / b) ** 2
    B = 2.0 * (z[0] * d[0] / a ** 2 + z[1] * d[1] / b ** 2)
    return abs(B) / A


def chord_ends(boundary, x, theta):
    """(t_lo, t_hi) and the entry and exit points of the line x + t theta."""
    t_lo, t_hi, hit = boundary.line_spans(x[None, :], theta)
    assert hit[0]
    return t_lo[0], t_hi[0], x + t_lo[0] * theta, x + t_hi[0] * theta


@pytest.fixture(scope="module")
def table256(ellipse256):
    return make_boundary("table", 256, table=ellipse256.positions)


@pytest.fixture(scope="module")
def kinds(disk256, ellipse256, table256):
    """(boundary, semi-axis along x, semi-axis along y) for every kind."""
    return ((disk256, 1.0, 1.0), (ellipse256, 2.0, 1.0), (table256, 2.0, 1.0))


class TestMakeBoundary:
    def test_disk_curvature_one(self, disk256):
        assert np.max(np.abs(disk256.curvatures - 1.0)) < 1e-12

    def test_ellipse_min_curvature(self, ellipse256):
        # kappa min = b/a^2 at the flat ends of the major axis
        assert abs(ellipse256.curvatures.min() - 0.25) < 1e-10

    def test_unit_ellipse_equals_disk(self):
        d = make_boundary("disk", 128)
        e = make_boundary("ellipse", 128, a=1.0, b=1.0)
        assert np.max(np.abs(d.positions - e.positions)) < 1e-12
        assert np.max(np.abs(d.normals - e.normals)) < 1e-12
        assert np.max(np.abs(d.curvatures - e.curvatures)) < 1e-12

    def test_table_reproduces_ellipse_geometry(self, ellipse256):
        t = make_boundary("table", 256, table=ellipse256.positions)
        assert t.kind == "generic"
        assert np.max(np.abs(t.positions - ellipse256.positions)) == 0.0
        assert np.max(np.abs(t.normals - ellipse256.normals)) < 1e-9
        assert np.max(np.abs(t.curvatures - ellipse256.curvatures)) < 1e-3

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            make_boundary("disk", 8)

    def test_nonconvex_table_rejected(self):
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        r = 1.0 + 0.5 * np.cos(3 * t)  # concave lobes
        pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        with pytest.raises(NonConvex):
            make_boundary("table", 64, table=pts)

    def test_contains(self, disk256, ellipse256):
        assert disk256.contains(np.array([0.0, 0.0]))
        assert not disk256.contains(np.array([1.5, 0.0]))
        inside = ellipse256.contains(np.array([[1.9, 0.0], [0.0, 0.99], [2.1, 0.0]]))
        assert list(inside) == [True, True, False]


class TestCastChord:
    """Chords through interior points, cast with line_spans."""

    def test_disk_example(self, disk256):
        t_lo, t_hi, end_minus, end_plus = chord_ends(
            disk256, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
        assert abs(t_hi - 0.5) < 1e-12
        assert abs(-t_lo - 1.5) < 1e-12
        assert np.allclose(end_plus, [1.0, 0.0], atol=1e-12)
        assert np.allclose(end_minus, [-1.0, 0.0], atol=1e-12)

    def test_ellipse_center(self, ellipse256):
        t_lo, t_hi, _, _ = chord_ends(ellipse256, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert abs(t_hi - 2.0) < 1e-9
        assert abs(-t_lo - 2.0) < 1e-9

    def test_outside_raises(self, disk256):
        # an exterior base lies on no chord: contains rejects it, and both
        # crossings fall on one side of it whichever way the line points
        p = np.array([1.2, 0.0])
        assert not disk256.contains(p)
        for sign in (1.0, -1.0):
            t_lo, t_hi, hit = disk256.line_spans(p[None, :], np.array([sign, 0.0]))
            assert hit[0]
            assert t_lo[0] * t_hi[0] > 0.0
            assert abs(min(abs(t_lo[0]), abs(t_hi[0])) - 0.2) < 1e-12
            assert abs(max(abs(t_lo[0]), abs(t_hi[0])) - 2.2) < 1e-12

    def test_missed_line_from_accepted_base(self, ellipse256):
        # inside the membership tolerance but off the curve by more than
        # the on-boundary distance: the vertical line misses the ellipse
        p = np.array([2.0 + 1.5e-9, 0.0])
        assert ellipse256.contains(p)
        t_lo, t_hi, hit = ellipse256.line_spans(p[None, :], np.array([0.0, 1.0]))
        assert not hit[0]
        assert t_lo[0] == 0.0 and t_hi[0] == 0.0

    def test_swap_symmetry(self, disk256, ellipse256, table256):
        rng = np.random.default_rng(11)
        for b in (disk256, ellipse256, table256):
            for _ in range(25):
                x = rng.uniform(-0.4, 0.4, 2)
                phi = rng.uniform(0, 2 * np.pi)
                th = np.array([np.cos(phi), np.sin(phi)])
                _, _, minus1, plus1 = chord_ends(b, x, th)
                _, _, minus2, plus2 = chord_ends(b, x, -th)
                assert np.linalg.norm(plus1 - minus2) < 1e-10
                assert np.linalg.norm(minus1 - plus2) < 1e-10

    def test_midpoints_interior(self, ellipse256, table256):
        rng = np.random.default_rng(4)
        for b in (ellipse256, table256):
            for _ in range(25):
                x = rng.uniform(-0.5, 0.5, 2)
                phi = rng.uniform(0, 2 * np.pi)
                _, _, end_minus, end_plus = chord_ends(b, x, np.array([np.cos(phi), np.sin(phi)]))
                mid = 0.5 * (end_plus + end_minus)
                assert b.contains(mid)

    def test_generic_node_chords_match_closed_form(self, ellipse256):
        """Spline-table chords through boundary nodes against the quadratic."""
        table = make_boundary("table", 256, table=ellipse256.positions)
        dirs = np.stack(
            [np.cos(np.arange(8) * np.pi / 4), np.sin(np.arange(8) * np.pi / 4)], axis=1
        )
        taus = table.node_chord_lengths(dirs)
        for j, d in enumerate(dirs):
            for i in range(0, 256, 17):
                ref = ellipse_chord_oracle(2.0, 1.0, table.positions[i], d)
                # the spline deviates from the true ellipse between nodes;
                # grazing chords amplify that normal-direction gap
                tol = 1e-8 if ref > 0.5 else 1e-6
                assert abs(taus[i, j] - ref) < tol

    def test_generic_grid_aligned_root(self):
        """Far root exactly on a scan sample must still be found."""
        t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        pts = np.stack([2 * np.cos(t), np.sin(t)], axis=1)
        table = make_boundary("table", 256, table=pts)
        got = table.node_chord_lengths(np.array([[1.0, 0.0]]))[24, 0]
        ref = ellipse_chord_oracle(2.0, 1.0, pts[24], np.array([1.0, 0.0]))
        assert ref > 1.0  # a genuine transversal chord, not a grazing one
        assert abs(got - ref) < 1e-8


def radial_point(boundary, xi, phi):
    """(l, w) with w = xi + l (cos phi, sin phi) on the curve, from line_spans."""
    d = np.array([np.cos(phi), np.sin(phi)])
    _, l, _, w = chord_ends(boundary, xi, d)
    return l, w


class TestRadialParametrization:
    """The boundary seen from an interior point: the exit crossing of line_spans."""

    def test_disk_center_up(self, disk256):
        l, z = radial_point(disk256, np.array([0.0, 0.0]), np.pi / 2)
        assert abs(l - 1.0) < 1e-12
        assert np.allclose(z, [0.0, 1.0], atol=1e-12)

    def test_disk_offset_left(self, disk256):
        l, z = radial_point(disk256, np.array([0.5, 0.0]), np.pi)
        assert abs(l - 1.5) < 1e-12
        assert np.allclose(z, [-1.0, 0.0], atol=1e-12)

    def test_ellipse_diagonal(self, ellipse256):
        # from the center along phi = pi/4: l = 2/sqrt(2.5)
        l, _ = radial_point(ellipse256, np.array([0.0, 0.0]), np.pi / 4)
        assert abs(l - 2.0 / np.sqrt(2.5)) < 1e-9

    def test_agrees_with_cast_chord(self, ellipse256):
        """The exit along phi is the entry of the chord cast along phi + pi,
        lies on the curve, and is l along phi from xi."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2) * np.array([1.6, 0.8])
            phi = rng.uniform(0, 2 * np.pi)
            l, z = radial_point(ellipse256, x, phi)
            t_lo, _, end_minus, _ = chord_ends(ellipse256, x, -np.array([np.cos(phi), np.sin(phi)]))
            assert abs(l + t_lo) < 1e-9
            assert np.linalg.norm(z - end_minus) < 1e-9
            assert abs((z[0] / 2.0) ** 2 + z[1] ** 2 - 1.0) < 1e-12
            assert np.linalg.norm(z - x - l * np.array([np.cos(phi), np.sin(phi)])) < 1e-12


class TestTangentialBehaviour:
    def test_jump_disk(self, disk256):
        j = tau_angular_jump(disk256, np.array([1.0, 0.0]))
        assert abs(j - 4.0) <= 0.02 * 4.0

    def test_jump_scaled_disk(self):
        b = make_boundary("ellipse", 256, a=2.0, b=2.0)
        j = tau_angular_jump(b, np.array([2.0, 0.0]))
        assert abs(j - 8.0) <= 0.02 * 8.0

    def test_jump_ellipse_osculating_radii(self, ellipse256):
        # R0 = b^2/a... no: R0 = 1/kappa.  kappa(2,0) = a/b^2 = 2, kappa(0,1) = b/a^2 = 1/4
        j_major = tau_angular_jump(ellipse256, np.array([2.0, 0.0]))
        j_minor = tau_angular_jump(ellipse256, np.array([0.0, 1.0]))
        assert abs(j_major - 2.0) <= 0.02 * 2.0
        assert abs(j_minor - 16.0) <= 0.02 * 16.0

    def test_jump_against_chord_sampling(self, ellipse256):
        """One-sided d tau/d phi difference from raw chords, no jump helper."""
        z0 = np.array([0.0, 1.0])
        phi0 = 0.0  # tangent direction at the top of the ellipse is +-e1
        h = 1e-4
        taus = {}
        for sgn in (1.0, -1.0):
            phi = phi0 + sgn * h
            th = np.array([np.cos(phi), np.sin(phi)])
            taus[sgn] = ellipse_chord_oracle(2.0, 1.0, z0, th)
        jump = (taus[1.0] + taus[-1.0]) / h  # slopes +-2 R0 meet at the vertex
        assert abs(jump - 16.0) < 0.02 * 16.0

    def test_osculating_chord_bound(self, ellipse256):
        for idx in (0, 17, 64, 100, 128, 200):
            z0 = ellipse256.positions[idx]
            tang = ellipse256.tangents[idx]
            phi0 = np.arctan2(tang[1], tang[0])
            r0 = 1.0 / ellipse256.curvatures[idx]
            for dphi in np.linspace(-0.1, 0.1, 21):
                if abs(dphi) < 1e-6:
                    continue
                th = np.array([np.cos(phi0 + dphi), np.sin(phi0 + dphi)])
                tau = ellipse_chord_oracle(2.0, 1.0, z0, th)
                assert tau / (2.0 * r0 * abs(np.sin(dphi))) <= 1.5


class TestLineSpans:
    def test_missing_lines(self, kinds):
        for b, a_x, b_y in kinds:
            pts = np.array([[0.0, 1.2 * b_y], [0.0, -3.0], [5.0, 1.01 * b_y]])
            t_lo, t_hi, hit = b.line_spans(pts, np.array([1.0, 0.0]))
            assert not hit.any()
            assert np.all(t_lo == 0.0) and np.all(t_hi == 0.0)
            _, _, hit = b.line_spans(np.array([[1.1 * a_x, 0.0]]), np.array([0.0, 1.0]))
            assert not hit.any()

    def test_exterior_ray_points_away(self, kinds):
        # exterior base pointing away from the domain: both crossings behind it
        for b, a_x, _ in kinds:
            for gap in (1.0, 0.2):
                t_lo, t_hi, hit = b.line_spans(np.array([[a_x + gap, 0.0]]), np.array([1.0, 0.0]))
                assert not b.contains(np.array([a_x + gap, 0.0]))
                assert hit[0]
                assert t_hi[0] < 0.0
                assert abs(t_hi[0] + gap) < 1e-12
                assert abs(t_lo[0] + 2.0 * a_x + gap) < 1e-12

    def test_interior_hit(self, kinds):
        for b, a_x, _ in kinds:
            p = np.array([a_x - 0.7, 0.0])
            t_lo, t_hi, hit = b.line_spans(p[None, :], np.array([1.0, 0.0]))
            assert hit[0]
            assert abs(t_hi[0] - 0.7) < 1e-12
            assert np.allclose(p + t_hi[0] * np.array([1.0, 0.0]), [a_x, 0.0], atol=1e-12)
            assert abs(t_lo[0] + 2.0 * a_x - 0.7) < 1e-12

    def test_exit_normal_at_nodes(self, kinds):
        """Rays from inside towards nodes end at the node, where the normal
        line_spans gives points along the node's outward normal."""
        rng = np.random.default_rng(4)
        for b, a_x, b_y in kinds:
            start = np.array([0.3 * a_x, -0.2 * b_y])
            for idx in rng.choice(b.n_nodes, 12, replace=False):
                d = b.positions[idx] - start
                d /= np.hypot(d[0], d[1])
                _, t_hi, hit, normal = b.line_spans(start[None, :], d, normal=True)
                assert hit[0]
                assert np.allclose(start + t_hi[0] * d, b.positions[idx], atol=1e-12)
                unit = normal[0] / np.hypot(normal[0, 0], normal[0, 1])
                assert np.max(np.abs(unit - b.normals[idx])) <= 1e-12

    def test_node_chords_near_tangent(self, kinds):
        for b, a_x, b_y in kinds:
            for idx in (0, 17, 64, 100, 128, 200):
                z = b.positions[idx]
                tang = b.tangents[idx]
                phi0 = np.arctan2(tang[1], tang[0])
                for dphi in (1e-3, -1e-3, 1e-5, -1e-5):
                    d = np.array([np.cos(phi0 + dphi), np.sin(phi0 + dphi)])
                    t_lo, t_hi, hit = b.line_spans(z[None, :], d)
                    ref = ellipse_chord_oracle(a_x, b_y, z, d)
                    tol = 1e-8 if ref > 0.5 else 1e-6
                    assert hit[0]
                    assert abs((t_hi[0] - t_lo[0]) - ref) < tol
                    assert abs(b.node_chord_lengths(d[None, :])[idx, 0] - ref) < tol


class TestExtent:
    """extent bounds the offsets of the lines that meet the domain: a line
    1e-9 inside it hits the curve, one 1e-9 outside misses.  An extent
    that fell short of the curve would break the square-root edge that
    the offset series of Ra relies on."""

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "table"])
    def test_matches_line_spans(self, kind, disk256, ellipse256):
        b = {"disk": disk256, "ellipse": ellipse256, "table": _table64()}[kind]
        dense = b.position_at(np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False))
        for phi in np.linspace(0.0, np.pi, 13):
            d = np.array([np.cos(phi), np.sin(phi)])
            perp = np.array([-d[1], d[0]])
            (s_lo, s_hi), u = b.extent(d)
            s_dense = dense @ perp
            # 2^16 samples fall short of an extremum by up to about 1e-9
            assert s_lo <= s_dense.min() <= s_lo + 1e-8
            assert s_hi - 1e-8 <= s_dense.max() <= s_hi
            assert np.allclose(b.position_at(u) @ perp, [s_lo, s_hi], rtol=0.0, atol=1e-15)
            if kind != "table":
                half = np.hypot(b.a * perp[0], b.b * perp[1])
                assert np.allclose([s_lo, s_hi], [-half, half], rtol=0.0, atol=1e-15)
            offsets = np.array([s_lo + 1e-9, s_hi - 1e-9, s_lo - 1e-9, s_hi + 1e-9])
            _, _, hit = b.line_spans(offsets[:, None] * perp, d)
            assert hit.tolist() == [True, True, False, False]


class TestDistanceToBoundary:
    def test_chunked_search_exact_and_bounded(self):
        """4096 points on the 512-node table of the 1.5 x 1 ellipse, the
        kind that searches curve samples: small peak, the search's bits,
        the sign of the side of the tangent at the foot."""
        ell = make_boundary("ellipse", 512, a=1.5, b=1.0)
        b = make_boundary("table", 512, table=ell.positions)
        xs, ys = np.meshgrid(np.linspace(-1.6, 1.6, 64), np.linspace(-1.1, 1.1, 64))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        tracemalloc.start()
        try:
            d = b.distance_to_boundary(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

        # reference: the nearest of 8n candidates for each point on its own,
        # then the Newton polish over all points in one piece
        assert np.array_equal(d, searched_distance(b, pts))
        form = (pts[:, 0] / 1.5) ** 2 + pts[:, 1] ** 2
        assert np.array_equal(d > 0.0, form < 1.0)
        assert 0 < np.sum(d > 0.0) < len(pts)


def _cusps(b):
    """The ellipse's evolute cusps on its major axis, as offsets along it."""
    e0, e1 = max(b.a, b.b), min(b.a, b.b)
    return np.array([-1.0, 1.0]) * (e0 ** 2 - e1 ** 2) / e0


def _on_major_axis(b, along, off):
    """Points at offsets `along` the ellipse's major axis, `off` across it."""
    pts = np.column_stack(np.broadcast_arrays(np.asarray(along, dtype=float),
                                              np.asarray(off, dtype=float)))
    return pts[:, ::-1] if b.b > b.a else pts


class TestEllipseDistance:
    """The ellipse's foot from its foot-point equation against the search."""

    @staticmethod
    def _points(b, rng):
        """Random points round the ellipse, both axes, the centre, lines
        1e-9 and 1e-6 off the major axis, and points 1e-10 either side of
        the curve.  The lines' 240 points miss the evolute's cusps (see
        test_cusps)."""
        pts = [rng.uniform(-1.3 * np.array([b.a, b.b]), 1.3 * np.array([b.a, b.b]), size=(20000, 2))]
        line = np.linspace(-1.2, 1.2, 240)
        pts += [_on_major_axis(b, line * max(b.a, b.b), off)
                for off in (0.0, 1e-9, -1e-9, 1e-6, -1e-6)]
        pts.append(_on_major_axis(b, 0.0, line * min(b.a, b.b)))    # the minor axis
        u = np.linspace(0.0, 2.0 * np.pi, 1001)
        normal = b.position_at(u) / np.array([b.a, b.b]) ** 2
        normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
        pts += [b.position_at(u) + 1e-10 * normal, b.position_at(u) - 1e-10 * normal]
        return np.vstack(pts + [np.zeros((1, 2))])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("axes", [(1.5, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 1.5)],
                             ids=["1.5x1", "2x1", "3x1", "1x1.5"])
    def test_against_search(self, axes):
        """Within 1e-14 of the search, with its sign wherever the curve is
        more than roundoff away."""
        b = make_boundary("ellipse", 512, a=axes[0], b=axes[1])
        pts = self._points(b, np.random.default_rng(11))
        d = b.distance_to_boundary(pts)
        ref = searched_distance(b, pts)
        assert np.max(np.abs(d - ref)) <= 1e-14
        clear = np.abs(ref) > 1e-15
        assert np.array_equal(np.sign(d[clear]), np.sign(ref[clear]))
        assert np.sum(d > 0.0) > 1000 and np.sum(d < 0.0) > 1000
        assert b.distance_to_boundary(np.zeros(2)) == pytest.approx(min(axes), rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("axes", [(1.5, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 1.5)],
                             ids=["1.5x1", "2x1", "3x1", "1x1.5"])
    def test_cusps(self, axes):
        """At the evolute's cusps, on the major axis and 1e-9 and 1e-6 off
        it, within 1e-14 of the nearest of 400001 curve samples round the
        vertex.  The search is no reference there: the distance is quartic
        in the foot and Newton's denominator vanishes at the vertex, so six
        steps from the nearest of 8n samples stop short of the foot."""
        b = make_boundary("ellipse", 512, a=axes[0], b=axes[1])
        pts = np.vstack([_on_major_axis(b, _cusps(b), off)
                         for off in (0.0, 1e-9, -1e-9, 1e-6, -1e-6)])
        u = np.linspace(-0.2, 0.2, 400001) + (0.0 if b.a >= b.b else 0.5 * np.pi)
        w = np.vstack([b.position_at(u), -b.position_at(u)])
        dense = np.array([np.min(np.hypot(w[:, 0] - x, w[:, 1] - y)) for x, y in pts])
        assert np.max(np.abs(b.distance_to_boundary(pts) - dense)) <= 1e-14

    def test_memory_bounded(self):
        """The 64 x 64 grid of the 512-node 1.5 x 1 ellipse: small peak."""
        b = make_boundary("ellipse", 512, a=1.5, b=1.0)
        xs, ys = np.meshgrid(np.linspace(-1.6, 1.6, 64), np.linspace(-1.1, 1.1, 64))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        tracemalloc.start()
        try:
            b.distance_to_boundary(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestContains:
    def test_memory_bounded(self):
        """1024 points on a 512-node table: small peak, the ellipse's membership."""
        ell = make_boundary("ellipse", 512, a=1.5, b=1.0)
        b = make_boundary("table", 512, table=ell.positions)
        xs, ys = np.meshgrid(np.linspace(-1.6, 1.6, 32), np.linspace(-1.1, 1.1, 32))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        tracemalloc.start()
        try:
            inside = b.contains(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

        # reference: the signed distance over all points in one piece, and
        # the closed form of the ellipse the table samples
        assert np.array_equal(inside, b.distance_to_boundary(pts) >= -ON_BOUNDARY_TOL)
        assert np.array_equal(inside, ell.contains(pts))
        assert 0 < np.sum(inside) < len(pts)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ellipse_far_points_outside(self):
        """Far points answer outside with no overflow in squaring x/a and
        y/b; nearer ones keep the unscaled quadratic form's answer."""
        b = make_boundary("ellipse", 64, a=1.2, b=1.0)
        assert not b.contains(np.array([0.0, -1e300]))
        assert not b.contains(np.array([1e300, 1e300]))
        assert not np.any(b.contains(np.array([[0.0, -1e300], [1e300, 1e300], [-1e300, 0.0]])))
        pts = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2000, 2))
        pts = np.vstack([pts, [[1.2, 0.0], [0.0, -1.0], [1.2 + 1e-6, 0.0]]])
        form = (pts[:, 0] / 1.2) ** 2 + pts[:, 1] ** 2
        assert np.array_equal(b.contains(pts), form <= 1.0 + 2.0 * ON_BOUNDARY_TOL)
        assert b.contains(pts[-3]) and b.contains(pts[-2]) and not b.contains(pts[-1])


def _table64():
    """The 64-node table of the 1.5 x 1 ellipse."""
    u = 2.0 * np.pi * np.arange(64) / 64
    return make_boundary("table", 64, table=np.column_stack([1.5 * np.cos(u), np.sin(u)]))


class TestSignedDistance:
    """One signed distance decides membership on every kind."""

    def test_half_sagitta_inside_table(self):
        """Points half a sagitta of the 8n-sample polyline inside the curve,
        where a crossing test against that polyline reads them outside."""
        b = _table64()
        m = 8 * b.n_nodes
        for k in (0, 37, 130, 301, 444):
            u0, u1 = 2.0 * np.pi * k / m, 2.0 * np.pi * (k + 1) / m
            w0, w1 = b.position_at(np.array([u0, u1]))
            mid = b.position_at(0.5 * (u0 + u1))
            chord = (w1 - w0) / np.hypot(*(w1 - w0))
            inward = np.array([-chord[1], chord[0]])
            sagitta = float(np.dot(0.5 * (w0 + w1) - mid, inward))
            assert sagitta > 1e3 * ON_BOUNDARY_TOL
            p = mid + 0.5 * sagitta * inward
            assert b.contains(p)
            assert b.distance_to_boundary(p) > 0.0
            grid = CartesianGrid(b, 1, 1, extent=(p[0], p[0], p[1], p[1]))
            assert np.array_equal(grid.points_all, p[None, :])
            assert grid.inside.tolist() == [True]

    def test_sign_on_every_kind(self, kinds):
        """Positive inside, negative outside, against the closed-form
        ellipse (the table samples it) away from a thin band round the curve."""
        pts = np.random.default_rng(5).uniform([-2.4, -1.4], [2.4, 1.4], size=(4000, 2))
        for b, a_x, b_y in kinds:
            d = b.distance_to_boundary(pts)
            form = (pts[:, 0] / a_x) ** 2 + (pts[:, 1] / b_y) ** 2
            clear = np.abs(form - 1.0) > 1e-4
            assert np.array_equal((d > 0.0)[clear], (form < 1.0)[clear])
            assert np.sum(form < 1.0) > 100 and np.sum(form > 1.0) > 100
            assert b.distance_to_boundary(np.zeros(2)) == pytest.approx(min(a_x, b_y), abs=1e-9)
            assert b.distance_to_boundary(np.array([a_x + 0.5, 0.0])) == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_far_points_outside(self):
        """Points up to 1e300 away read outside, at their distance, with no
        overflow: the search drops |p|^2, which would swamp every
        candidate's difference (and overflow past about 1e154)."""
        u = 2.0 * np.pi * np.arange(48) / 48
        table = np.column_stack([1.2 * np.cos(u), np.sin(u)])
        for b in (make_boundary("ellipse", 64, a=1.2, b=1.0),
                  make_boundary("table", 64, table=table)):
            for far in (1e100, 1e300):
                pts = np.array([[0.0, -far], [far, 0.0], [-far, far]])
                d = b.distance_to_boundary(pts)
                assert np.all(d < 0.0)
                assert np.allclose(d, -np.hypot(pts[:, 0], pts[:, 1]), rtol=1e-12)

    def test_grid_inside_is_contains(self, kinds):
        for b, _, _ in list(kinds) + [(_table64(), 1.5, 1.0)]:
            for margin in (None, 0.0, 0.05):
                grid = CartesianGrid(b, 41, 37, margin=margin)
                assert np.array_equal(grid.inside, b.contains(grid.points_all))
                assert not np.any(grid.valid & ~grid.inside)
                assert 0 < np.sum(grid.valid) <= np.sum(grid.inside) < len(grid.points_all)
