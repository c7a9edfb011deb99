"""Phantoms, ray integrals, forward boundary data, and the chord identity."""
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import erf

from aradon.bukhgeim import CartesianGrid
from aradon.errors import SupportViolation, UnknownPhantom
from aradon.geometry import TOL_TANGENT, make_boundary
from aradon import xray
from aradon.harmonics import AngularGrid
from aradon.xray import (
    QuadSettings,
    Sinogram,
    clip_chords,
    forward_sinogram,
    phantom,
    radon_profile,
    ray_points,
)
from oracles import bump_chord_integral, trapezoid_forward, verify_radon_identity


class TestPhantoms:
    def test_poly_bump_values(self, disk256):
        f = phantom("poly-bump", disk256)
        assert f(np.array([0.0, 0.0])) == 1.0
        assert abs(f(np.array([0.5, 0.0])) - 0.5625) < 1e-15
        assert f(np.array([1.1, 0.0])) == 0.0

    def test_poly_bump_amplitude(self, disk256):
        f = phantom("poly-bump", disk256, params={"amplitude": 0.3})
        assert abs(f(np.array([0.0, 0.0])) - 0.3) < 1e-15

    def test_unknown_name(self, disk256):
        with pytest.raises(UnknownPhantom):
            phantom("no-such-phantom", disk256)

    def test_zero_phantom(self, disk256):
        a = phantom("zero", disk256)
        assert a.is_zero
        assert np.all(a(np.random.default_rng(0).uniform(-1, 1, (10, 2))) == 0.0)


def divergence_beam(a, boundary, x, theta):
    """Integral of `a` from x to the boundary along theta, as build_h takes Da."""
    _, tau, _ = boundary.line_spans(x[None, :], theta)
    return float(a.line_integral(x[None, :], theta, 0.0, tau)[0])


class TestDivergenceBeam:
    def test_center_half_chord(self, disk256):
        f = phantom("poly-bump", disk256)
        got = divergence_beam(f, disk256, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        # int_0^1 (1-t^2)^2 dt = 8/15
        assert abs(got - 8.0 / 15.0) < 1e-9

    def test_full_diameter(self, disk256):
        f = phantom("poly-bump", disk256)
        got = divergence_beam(
            f, disk256, np.array([-1.0 + 1e-13, 0.0]), np.array([1.0, 0.0])
        )
        assert abs(got - 16.0 / 15.0) < 1e-9

    def test_quadrature_convergence(self, disk256):
        """The Gaussian's beam is its erf closed form, which composite Gauss
        rules converge to: doubling their points gains >= 4x."""
        a = phantom("gaussian-truncated", disk256)
        sig = a.params["sigma"]
        c = np.asarray(a.params["center"], dtype=float)
        amp = a.params["amplitude"]
        # ray from (-1,0) along +x: exact integral of amp*exp(-((x-cx)^2)/sig^2)
        exact = (
            amp
            * sig
            * np.sqrt(np.pi)
            / 2.0
            * (erf((1.0 - c[0]) / sig) - erf((-1.0 - c[0]) / sig))
        )
        x, th = np.array([-1.0 + 1e-13, 0.0]), np.array([1.0, 0.0])
        got = divergence_beam(a, disk256, x, th)
        assert abs(got - exact) <= 1e-15 * exact
        _, tau, _ = disk256.line_spans(x[None, :], th)
        errs = []
        for pts in (2, 4, 8):
            nodes, weights = composite_rule(4, pts)
            vals = a(broadcast_points(x[None, :], th, tau[:, None] * nodes[None, :]))
            errs.append(abs(tau[0] * (vals[0] @ weights) - got))
        assert errs[0] / max(errs[1], 1e-18) >= 4.0
        assert errs[1] / max(errs[2], 1e-18) >= 4.0


class TestRadonFullLine:
    def test_center_line(self, disk256):
        f = phantom("poly-bump", disk256)
        got = radon_profile(f, disk256, np.array([1.0, 0.0]), [0.0])[0]
        assert abs(got - 16.0 / 15.0) < 1e-9

    def test_offset_closed_form(self, disk256):
        f = phantom("poly-bump", disk256)
        th = np.array([np.cos(0.7), np.sin(0.7)])
        for s in (0.3, -0.55, 0.8):
            ref = (16.0 / 15.0) * (1.0 - s * s) ** 2.5
            assert abs(radon_profile(f, disk256, th, [s])[0] - ref) < 1e-8

    def test_tangent_line_zero(self, disk256):
        f = phantom("poly-bump", disk256)
        assert abs(radon_profile(f, disk256, np.array([0.0, 1.0]), [1.0])[0]) < 1e-12

    def test_profile_matches_pointwise(self, disk256):
        a = phantom("poly-bump", disk256, params={"amplitude": 0.3})
        th = np.array([np.cos(0.4), np.sin(0.4)])
        s_vals = np.linspace(-0.9, 0.9, 7)
        prof = radon_profile(a, disk256, th, s_vals)
        for s, got in zip(s_vals, prof):
            assert abs(got - radon_profile(a, disk256, th, [s])[0]) < 1e-10


class TestForwardSinogram:
    def test_gauge_zero_on_incoming(self, polybump_sino):
        dirs = np.stack(
            [np.cos(polybump_sino.angular.angles), np.sin(polybump_sino.angular.angles)],
            axis=1,
        )
        nd = polybump_sino.boundary.normals @ dirs.T
        assert np.max(np.abs(polybump_sino.data[nd <= 1e-9])) == 0.0

    def test_outgoing_matches_full_line(self, disk256, ang64):
        f = phantom("poly-bump", disk256)
        sino = forward_sinogram(f, phantom("zero", disk256), disk256, ang64)
        # node 0 = (1,0); for outgoing angle phi the chord sits at
        # signed offset s = sin(phi) on the line with normal angle phi - pi/2
        for j in (1, 5, 11):
            phi = ang64.angles[j]
            if np.cos(phi) <= 1e-9:
                continue
            ref = (16.0 / 15.0) * max(0.0, 1.0 - np.sin(phi) ** 2) ** 2.5
            assert abs(sino.data[0, j] - ref) < 1e-8

    def test_rotational_symmetry(self, polybump_sino):
        n = polybump_sino.boundary.n_nodes
        m = polybump_sino.angular.n_angles
        shift = n // m
        for j in (1, 2, 3):
            rolled = np.roll(polybump_sino.data[:, 0], j * shift)
            assert np.max(np.abs(polybump_sino.data[:, j] - rolled)) < 1e-9

    def test_table_boundary_parity(self, ellipse256):
        """Spline-table forward data matches the closed-form ellipse."""
        table_b = make_boundary("table", 256, table=ellipse256.positions)
        ang = AngularGrid(32)
        st = forward_sinogram(
            phantom("poly-bump", table_b), phantom("zero", table_b), table_b, ang
        )
        se = forward_sinogram(
            phantom("poly-bump", ellipse256),
            phantom("zero", ellipse256),
            ellipse256,
            ang,
        )
        assert np.max(np.abs(st.data - se.data)) < 1e-9

    def test_support_violation(self):
        from aradon.geometry import make_boundary

        small = make_boundary("ellipse", 128, a=0.8, b=0.8)
        with pytest.raises(SupportViolation):
            phantom("poly-bump", small)  # unit support disk leaks outside

    def test_shifted_support_violation(self, disk256):
        with pytest.raises(SupportViolation):
            phantom(
                "shifted-poly-bump",
                disk256,
                params={"center": (0.7, 0.0), "radius": 0.5},
            )

    @pytest.mark.parametrize("f_name", ["poly-bump", "shifted-poly-bump"])
    def test_shared_support_clips_once(self, monkeypatch, disk256, f_name):
        """The attenuated forward clips each direction's rays once, to f's
        support disk, for f's samples; `a` clips itself in its closed
        form, on f's disk or another, and the plain forward clips nothing."""
        ang = AngularGrid(32)
        f = phantom(f_name, disk256, params={"amplitude": 1.7})
        a = phantom("poly-bump", disk256, params={"amplitude": 0.3})
        calls = []
        clip = xray.clip_chords
        monkeypatch.setattr(xray, "clip_chords", lambda *args: calls.append(1) or clip(*args))
        forward_sinogram(f, a, disk256, ang)
        assert len(calls) == ang.n_angles
        calls.clear()
        forward_sinogram(f, phantom("zero", disk256), disk256, ang)
        assert calls == []


class TestChordIdentity:
    # On the disk, 40 probes measure 5.8e-15 plain and 5.4e-10 attenuated.
    def test_consistent_data_small_defect(self, polybump_sino, disk512):
        f = phantom("poly-bump", disk512)
        a = phantom("zero", disk512)
        d = verify_radon_identity(polybump_sino, f, a, n_probes=40)
        assert d <= 1e-6

    def test_attenuated_consistent(self, disk512, ang128):
        f = phantom("poly-bump", disk512)
        a = phantom("poly-bump", disk512, params={"amplitude": 0.3})
        sino = forward_sinogram(f, a, disk512, ang128)
        d = verify_radon_identity(sino, f, a, n_probes=40)
        assert d <= 1e-6

    def test_zero_data_defect_is_max_ray_integral(self, polybump_sino, disk512):
        f = phantom("poly-bump", disk512)
        a = phantom("zero", disk512)
        zero = Sinogram(
            polybump_sino.boundary,
            polybump_sino.angular,
            np.zeros_like(polybump_sino.data),
            attenuated=False,
            meta={},
        )
        d = verify_radon_identity(zero, f, a, n_probes=100)
        assert abs(d - 16.0 / 15.0) <= 0.01 * 16.0 / 15.0

    def test_gauge_invariance(self, polybump_sino, disk512):
        """Per-direction affine-in-s offsets solve the homogeneous identity."""
        f = phantom("poly-bump", disk512)
        a = phantom("zero", disk512)
        rng = np.random.default_rng(7)
        ang = polybump_sino.angular
        dirs = np.stack([np.cos(ang.angles), np.sin(ang.angles)], axis=1)
        pert = np.zeros_like(polybump_sino.data)
        for j in range(ang.n_angles):
            perp = np.array([-dirs[j, 1], dirs[j, 0]])
            s = disk512.positions @ perp
            pert[:, j] = np.polyval(rng.standard_normal(5) * 0.3, s)
        d0 = verify_radon_identity(polybump_sino, f, a, n_probes=40)
        shifted = Sinogram(
            disk512, ang, polybump_sino.data + pert, attenuated=False, meta={}
        )
        d1 = verify_radon_identity(shifted, f, a, n_probes=40)
        assert abs(d1 - d0) <= 1e-9

    # Off the disk the poly-bump's C^{1,1} support edge, the unit circle,
    # lies inside these domains (on the disk it is the boundary itself).
    # The forward integrates it on the clipped chord, exactly, so what is
    # left is the oracle's own floor: its dense trapezoid sums cross the
    # edge.  `former` is the basis of the gate before exact chords, when 8
    # composite panels across the edge put the defect at 2.15e-5 plain and
    # 2.06e-5 attenuated (5.4e-7 with 32 panels).  With 40 probes over the
    # bounding box, at 512 nodes and 128 angles, every row now measures
    # 5.36e-7 (OFF_DISK_DEFECT).  Each gate is 1.5x that figure, and never
    # looser than the former gate 1.5x `former`.
    OFF_DISK_DEFECT = 5.36e-7

    @pytest.mark.parametrize("kind, attenuated, panels, former", [
        ("ellipse", False, 8, 1.77e-5),
        ("ellipse", True, 8, 1.52e-5),
        ("table", False, 8, 1.77e-5),
        ("table", True, 8, 1.52e-5),
        ("ellipse", False, 32, 4.3e-7),
    ])
    def test_consistent_off_disk(self, ang128, kind, attenuated, panels, former):
        """Off the unit disk the oracle finds foot points with its Newton nearest_param."""
        b = off_disk_boundary(kind)
        f = phantom("poly-bump", b)
        a = phantom("poly-bump", b, params={"amplitude": 0.3}) if attenuated else phantom("zero", b)
        sino = forward_sinogram(f, a, b, ang128, QuadSettings(panels=panels))
        gate = min(1.5 * self.OFF_DISK_DEFECT, 1.5 * former)
        assert verify_radon_identity(sino, f, a, n_probes=40) <= gate


def off_disk_boundary(kind):
    """The 1.5 x 1 ellipse at 512 nodes, or a 64-point table of it."""
    if kind == "ellipse":
        return make_boundary("ellipse", 512, a=1.5, b=1.0)
    u = 2.0 * np.pi * np.arange(64) / 64
    return make_boundary("table", 512, table=np.column_stack([1.5 * np.cos(u), np.sin(u)]))


def composite_rule(panels, points):
    """Composite Gauss-Legendre nodes and weights on [0, 1], built afresh."""
    x, w = leggauss(points)
    nodes = np.concatenate([(k + (x + 1.0) / 2.0) / panels for k in range(panels)])
    return nodes, np.tile(w / (2.0 * panels), panels)


def broadcast_points(starts, direction, t):
    """Ray sample points by one broadcast over the coordinate axis."""
    return starts[:, None, :] + t[:, :, None] * direction[None, None, :]


# Gauss points of one panel on a bump's clipped chord: exact for its
# quartic, and for the cubic of its slope
EXACT_PANEL = 8


def reference_chords(a, starts, th, t_lo, t_hi, quad):
    """Chord integrals with every sample point from broadcast_points: one
    EXACT_PANEL panel on a bump's chord clipped to its support disk, quad's
    composite rule on any other field's whole chord."""
    lo, hi = clip_chords(a, starts, th, t_lo, t_hi)
    if a.support is not None:
        nodes, weights = composite_rule(1, EXACT_PANEL)
    else:
        nodes, weights = composite_rule(quad.panels, quad.points)
    spans = hi - lo
    ts = lo[:, None] + spans[:, None] * nodes[None, :]
    vals = a(broadcast_points(starts, th, ts))
    return spans * np.einsum("sq,q->s", vals, weights, optimize=False)


def reference_profile(a, boundary, th, s_values, quad):
    perp = np.array([-th[1], th[0]])
    p0s = s_values[:, None] * perp[None, :]
    t_lo, t_hi, _ = boundary.line_spans(p0s, th)
    return reference_chords(a, p0s, th, t_lo, t_hi, quad)


def reference_forward(f, a, boundary, angular, quad):
    """Forward data with every sample point from broadcast_points, on the
    ray z - t theta back from each outgoing node z over its chord length.

    With attenuation `a` must be a bump: Da at each of f's nodes is then
    one EXACT_PANEL Gauss-Legendre panel of its own, over a's span on the
    ray from its start up to the node.
    """
    dirs = np.column_stack([np.cos(angular.angles), np.sin(angular.angles)])
    taus = boundary.node_chord_lengths(dirs)
    normal_dot = boundary.normals @ dirs.T
    gl_frac, gl_w = composite_rule(quad.panels, quad.points)
    x, w = leggauss(EXACT_PANEL)
    data = np.zeros((boundary.n_nodes, angular.n_angles))
    for j, th in enumerate(dirs):
        out = normal_dot[:, j] > TOL_TANGENT
        if not np.any(out):
            continue
        tau = taus[out, j]
        z, back = boundary.positions[out], -th
        if a.is_zero:
            data[out, j] = reference_chords(f, z, back, np.zeros_like(tau), tau, quad)
            continue
        assert a.support is not None
        lo, hi = clip_chords(f, z, back, np.zeros_like(tau), tau)
        t = lo[:, None] + (hi - lo)[:, None] * gl_frac[None, :]
        fv = f(broadcast_points(z, back, t))
        a_lo, a_hi = clip_chords(a, z, back, np.zeros_like(tau), tau)
        stop = np.clip(t, a_lo[:, None], a_hi[:, None])
        half = (stop - a_lo[:, None]) / 2.0                        # (m, K)
        s_a = a_lo[:, None, None] + half[:, :, None] * (x + 1.0)   # (m, K, 8)
        av = a(broadcast_points(z, back, s_a.reshape(len(tau), -1))).reshape(s_a.shape)
        da = half * (av @ w)
        data[out, j] = (hi - lo) * np.einsum("mk,k->m", fv * np.exp(-da), gl_w, optimize=False)
    return data


class TestRaySampler:
    """The attenuated forward samples f through ray_points, and the closed
    forms match a reference that samples by broadcasting to roundoff."""

    @pytest.fixture(scope="class")
    def boundaries(self, disk256, ellipse256):
        table = make_boundary("table", 96, table=make_boundary("ellipse", 96, a=2.0, b=1.0).positions)
        return (disk256, ellipse256, table)

    def test_ray_points_match_broadcast(self):
        rng = np.random.default_rng(7)
        starts = rng.normal(size=(13, 2))
        direction = rng.normal(size=2)
        t = rng.normal(size=(13, 21))
        assert ray_points(starts, direction, t).shape == (2, 13, 21)
        assert np.array_equal(ray_points(starts, direction, t),
                              np.moveaxis(broadcast_points(starts, direction, t), -1, 0))
        x, t1 = starts[0], t[0]
        assert np.array_equal(ray_points(x, direction, t1),
                              np.moveaxis(x[None, :] + t1[:, None] * direction[None, :], -1, 0))

    @pytest.mark.parametrize("name, params", [
        ("poly-bump", {"amplitude": 0.7}),
        ("shifted-poly-bump", {"center": (-0.2, 0.1), "radius": 0.6}),
        ("gaussian-truncated", {"center": (0.3, -0.2), "sigma": 0.5}),
        ("zero", None),
    ])
    def test_planes_match_points(self, boundaries, name, params):
        """A field read on coordinate planes equals the read on (..., 2) points.

        The samples reach past the boundary on every kind, the table
        included. The bumps' supports lie in the domain, so they read zero
        there; the gaussian keeps its formula: no field is masked to the
        domain, its callers sample only inside it.
        """
        rng = np.random.default_rng(11)
        for b in boundaries:
            f = phantom(name, b, params=params)
            starts = rng.uniform(-1.2, 1.2, size=(9, 2))
            th = np.array([np.cos(2.1), np.sin(2.1)])
            planes = ray_points(starts, th, rng.uniform(-1.5, 1.5, size=(9, 31)))
            points = np.moveaxis(planes, 0, -1).copy()
            got = f.planes(*planes)
            assert got.shape == (9, 31)
            assert np.array_equal(got, f(points))
            assert all(f(points[0, i]) == got[0, i] for i in range(5))
            outside = ~b.contains(points.reshape(-1, 2)).reshape(got.shape)
            assert np.any(outside)
            if name == "gaussian-truncated":
                assert np.all(got[outside] > 0.0)
            else:
                assert np.all(got[outside] == 0.0)

    def test_nodes_weights_cached_read_only(self):
        for quad in (QuadSettings(), QuadSettings(panels=5, points=3)):
            nodes, weights = quad.nodes_weights()
            ref_nodes, ref_weights = composite_rule(quad.panels, quad.points)
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(weights, ref_weights)
            assert not nodes.flags.writeable and not weights.flags.writeable
            with pytest.raises(ValueError):
                nodes[0] = 0.0
            assert quad.nodes_weights()[0] is nodes

    def test_radon_profile_and_chords_exact(self, boundaries):
        """Profiles and chords are closed forms: a bump's match one exact
        panel on the clipped chord, a Gaussian's a 64 x 16 composite rule."""
        quad = QuadSettings(panels=64, points=16)
        for b in boundaries:
            for a, tol in (
                    (phantom("shifted-poly-bump", b, params={"center": (-0.2, 0.1), "radius": 0.6}),
                     1e-14),
                    (phantom("gaussian-truncated", b, params={"center": (0.3, -0.2), "sigma": 0.5}),
                     1e-13)):
                th = np.array([np.cos(0.9), np.sin(0.9)])
                s_vals = np.linspace(-1.1, 1.1, 41)
                ref = reference_profile(a, b, th, s_vals, quad)
                got = radon_profile(a, b, th, s_vals)
                assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
                starts = np.random.default_rng(3).uniform(-0.6, 0.6, size=(17, 2))
                _, taus, _ = b.line_spans(starts, th)
                ref = reference_chords(a, starts, th, np.zeros(17), taus, quad)
                got = a.line_integral(starts, th, 0.0, taus)
                assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))

    def test_forward_exact(self, boundaries):
        """To roundoff: without attenuation f's chords by an exact panel each,
        with a bump `a` Da by a Gauss panel of its own per node."""
        ang = AngularGrid(12)
        quad = QuadSettings(panels=4, points=6)
        for b in boundaries:
            f = phantom("shifted-poly-bump", b)
            got = forward_sinogram(f, phantom("zero", b), b, ang, quad).data
            ref = reference_forward(f, phantom("zero", b), b, ang, quad)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            a = phantom("shifted-poly-bump", b,
                        params={"center": (-0.2, 0.1), "radius": 0.6, "amplitude": 0.3})
            got = forward_sinogram(f, a, b, ang, quad).data
            ref = reference_forward(f, a, b, ang, quad)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestTailRule:
    """Da at any position along each ray, as the forward takes it."""

    def test_polynomial_tails_exact(self, ellipse256):
        """A bump's Da from each ray's start to K positions on it, one
        closed form per position, is exact; rays that miss its support
        give exactly 0."""
        a = phantom("shifted-poly-bump", ellipse256,
                    params={"center": (0.4, -0.1), "radius": 0.45, "amplitude": 0.3})
        rng = np.random.default_rng(5)
        th = np.array([np.cos(0.3), np.sin(0.3)])
        starts = rng.uniform(-1.0, 0.8, (40, 2))
        _, tau, _ = ellipse256.line_spans(starts, th)
        t = rng.uniform(-0.1, 1.1, (40, 11)) * tau[:, None]
        t = np.clip(t, 0.0, tau[:, None])
        got = a.line_integral(starts, th, 0.0, t)
        exact = bump_chord_integral(a, starts[:, None, :], th, 0.0, t)
        assert np.max(np.abs(got - exact)) <= 1e-14
        miss = bump_chord_integral(a, starts, th, 0.0, tau) == 0.0
        assert np.any(miss) and np.all(got[miss] == 0.0)


def accuracy_case(name):
    """Boundary (64 nodes) and attenuation map of one accuracy case."""
    if name == "ellipse-poly":
        b = make_boundary("ellipse", 64, a=1.5, b=1.0)
    else:
        b = make_boundary("disk", 64)
    a = {"disk-poly": ("poly-bump", {"amplitude": 0.3}),
         "ellipse-poly": ("poly-bump", {"amplitude": 0.3}),
         "disk-shifted": ("shifted-poly-bump", None),
         "disk-gauss": ("gaussian-truncated", None)}[name]
    return b, phantom(a[0], b, params=a[1])


class TestForwardAccuracy:
    """The attenuated forward is no less accurate than the rules it replaced.

    Max relative error of the sinogram of the poly-bump source against
    trapezoid_forward at 32x its steps, 64 nodes and 16 angles.  `tail`
    is the error of the former tail rule, which sampled every `a` on
    max(4P, 32) x max(Q, 8) points over the whole chord; `old` that of
    the 8-step trapezoid pass before it.  Da is now `a`'s closed form.  A
    bump `a` reads the figures in EXACT_A, those of the exact panel before
    it; a gaussian `a` reads the tail rule's figures, `tail`.  Each gate
    is 1.5x the figure, which lies at or below `tail`, below `old`.
    Every figure here is the reference's own error: against 128x the
    steps the forward's error is about 15x smaller.  The ellipse's map
    has its C^{1,1} edge inside the domain, which held the tail rule near
    5e-8 while its fine panels crossed it; on the clipped span it reads
    as the disk does.
    """

    EXACT_A = {
        (2, 8, "disk-poly"): 5.62e-10, (2, 8, "ellipse-poly"): 5.62e-10,
        (2, 8, "disk-shifted"): 1.28e-8,
        (4, 6, "disk-poly"): 2.53e-10, (4, 6, "ellipse-poly"): 2.53e-10,
        (4, 6, "disk-shifted"): 5.85e-9,
        (8, 4, "disk-poly"): 1.42e-10, (8, 4, "ellipse-poly"): 1.42e-10,
        (8, 4, "disk-shifted"): 3.31e-9,
        (8, 8, "disk-poly"): 3.56e-11, (8, 8, "ellipse-poly"): 3.56e-11,
        (8, 8, "disk-shifted"): 8.25e-10,
        (2, 2, "disk-poly"): 6.49e-9, (2, 2, "ellipse-poly"): 6.49e-9,
        (2, 2, "disk-shifted"): 2.88e-7,
    }

    @pytest.mark.parametrize("panels, points, name, tail, old", [
        (2, 8, "disk-poly", 5.62e-10, 2.83e-7),
        (2, 8, "ellipse-poly", 4.92e-8, 2.72e-6),
        (2, 8, "disk-shifted", 2.35e-7, 1.28e-5),
        (2, 8, "disk-gauss", 4.09e-9, 1.31e-5),
        (4, 6, "disk-poly", 2.53e-10, 2.21e-7),
        (4, 6, "ellipse-poly", 4.89e-8, 6.23e-7),
        (4, 6, "disk-shifted", 2.17e-7, 5.55e-6),
        (4, 6, "disk-gauss", 1.71e-9, 3.67e-6),
        (8, 4, "disk-poly", 1.42e-10, 1.34e-7),
        (8, 4, "ellipse-poly", 4.87e-8, 3.49e-7),
        (8, 4, "disk-shifted", 2.23e-7, 3.23e-6),
        (8, 4, "disk-gauss", 9.50e-10, 9.30e-7),
        (8, 8, "disk-poly", 3.56e-11, 3.31e-8),
        (8, 8, "ellipse-poly", 4.86e-8, 9.67e-8),
        (8, 8, "disk-shifted", 2.21e-7, 8.37e-7),
        (8, 8, "disk-gauss", 2.38e-10, 2.62e-7),
        (2, 2, "disk-poly", 6.49e-9, 6.24e-6),
        (2, 2, "ellipse-poly", 6.64e-8, 7.29e-5),
        (2, 2, "disk-shifted", 5.01e-7, 3.20e-4),
        (2, 2, "disk-gauss", 1.20e-7, 2.25e-4),
    ])
    def test_no_less_accurate(self, panels, points, name, tail, old):
        figure = self.EXACT_A.get((panels, points, name), tail)
        b, a = accuracy_case(name)
        f = phantom("poly-bump", b)
        ang, quad = AngularGrid(16), QuadSettings(panels, points)
        ref = trapezoid_forward(f, a, b, ang, quad, steps=256)
        scale = np.max(np.abs(ref))
        got = np.max(np.abs(forward_sinogram(f, a, b, ang, quad).data - ref)) / scale
        former = np.max(np.abs(trapezoid_forward(f, a, b, ang, quad) - ref)) / scale
        assert got <= 1.5 * figure and figure <= tail < old
        assert got < former


class TestExactChords:
    """Polynomial fields integrate exactly on chords clipped to their support."""

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "table"])
    def test_poly_bump_profiles_exact(self, kind):
        b = make_boundary("disk", 512) if kind == "disk" else off_disk_boundary(kind)
        th = np.array([np.cos(0.7), np.sin(0.7)])
        perp = np.array([-th[1], th[0]])
        s = np.linspace(-1.45, 1.45, 301) if kind != "disk" else np.linspace(-1.2, 1.2, 301)
        f = phantom("poly-bump", b, params={"amplitude": 0.7})
        ref = 0.7 * (16.0 / 15.0) * np.maximum(1.0 - s * s, 0.0) ** 2.5
        got = radon_profile(f, b, th, s)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)
        assert np.all(got[np.abs(s) >= 1.0] == 0.0)
        c, r = np.array([0.3, 0.15]), 0.55
        g = phantom("shifted-poly-bump", b, params={"center": tuple(c), "radius": r,
                                                    "amplitude": 0.4})
        rho = (s - c @ perp) / r
        ref = 0.4 * r * (16.0 / 15.0) * np.maximum(1.0 - rho * rho, 0.0) ** 2.5
        got = radon_profile(g, b, th, s)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)
        assert np.all(got[np.abs(rho) >= 1.0] == 0.0)

    def test_missed_chords_exactly_zero(self, ellipse256):
        """A chord that misses the support disk integrates to exactly 0, and
        so does the slope across it."""
        a = phantom("shifted-poly-bump", ellipse256, params={"center": (0.5, 0.2), "radius": 0.3})
        th = np.array([1.0, 0.0])
        starts = np.column_stack([np.full(7, -0.4), np.linspace(-0.9, -0.2, 7)])
        _, tau, _ = ellipse256.line_spans(starts, th)
        got = a.line_integral(starts, th, 0.0, tau, across=np.array([0.0, 1.0]))
        assert np.all(got[0] == 0.0) and np.all(got[1] == 0.0)
        lo, hi = clip_chords(a, starts, th, np.zeros(7), tau)
        assert np.all(lo == hi)

    @pytest.mark.parametrize("kind", ["disk", "ellipse"])
    def test_shifted_attenuation_converges_to_forward(self, kind):
        """`a`'s support, off centre, clips each chord elsewhere than f's: the
        trapezoid oracle approaches the forward at second order in its steps."""
        b = make_boundary("disk", 64) if kind == "disk" else make_boundary("ellipse", 64, a=1.5, b=1.0)
        f = phantom("poly-bump", b)
        a = phantom("shifted-poly-bump", b)
        ang, quad = AngularGrid(16), QuadSettings(2, 8)
        got = forward_sinogram(f, a, b, ang, quad).data
        errs = [np.max(np.abs(trapezoid_forward(f, a, b, ang, quad, steps=n) - got))
                for n in (64, 256, 1024)]
        assert errs[0] > 12.0 * errs[1] > 144.0 * errs[2]
        assert errs[2] <= 1e-9 * np.max(np.abs(got))

    # the oracle's error at 1024 steps, relative to max|g|: 1.03e-10 on the
    # disk, 1.75e-9 on the ellipse and its table (at 4096 steps 16x less)
    GAUSSIAN_A_FIGURE = {"disk": 1.03e-10, "ellipse": 1.75e-9, "table": 1.75e-9}

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "table"])
    def test_gaussian_attenuation_against_trapezoid(self, kind):
        """A Gaussian `a` has no support: Da at f's nodes is its erf closed
        form from the node to the curve, and the trapezoid oracle
        approaches the forward at second order in its steps.  The gate is
        1.5x the oracle's own error at 1024 steps."""
        if kind == "disk":
            b = make_boundary("disk", 64)
            f = phantom("poly-bump", b)      # its support is the whole domain
        else:
            b = make_boundary("ellipse", 64, a=1.5, b=1.0) if kind == "ellipse" else _table64()
            f = phantom("gaussian-truncated", b, params={"center": (0.2, -0.1), "sigma": 0.4})
        a = phantom("gaussian-truncated", b, params={"sigma": 0.5, "amplitude": 0.8})
        ang, quad = AngularGrid(16), QuadSettings(2, 8)
        got = forward_sinogram(f, a, b, ang, quad).data
        errs = [np.max(np.abs(trapezoid_forward(f, a, b, ang, quad, steps=n) - got))
                for n in (64, 256, 1024)]
        assert errs[0] > 12.0 * errs[1] > 144.0 * errs[2]
        assert errs[2] <= 1.5 * self.GAUSSIAN_A_FIGURE[kind] * np.max(np.abs(got))


def _table64():
    """The 64-point table of the 1.5 x 1 ellipse, at 64 nodes."""
    u = 2.0 * np.pi * np.arange(64) / 64
    return make_boundary("table", 64, table=np.column_stack([1.5 * np.cos(u), np.sin(u)]))


def _slope_planes(a, x, y, across):
    """across . grad a at the points (x, y), from a's params."""
    p = a.params
    c = np.asarray(p.get("center", (0.0, 0.0)))
    dx, dy = x - c[0], y - c[1]
    lin = across[0] * dx + across[1] * dy
    if a.name == "gaussian-truncated":
        return (-2.0 / p["sigma"] ** 2) * a.planes(x, y) * lin
    r = p.get("radius", 1.0)
    q = np.maximum(1.0 - (dx ** 2 + dy ** 2) / r ** 2, 0.0)
    return (-4.0 * p["amplitude"] / r ** 2) * q * lin


class TestClosedForms:
    """Ra, Da and theta_perp . grad Da of every shipped field against a
    64 x 16 composite Gauss rule over each chord, clipped to a bump's
    support disk, on the disk, the 1.5 x 1 ellipse and its 64-point
    table: bumps within 1e-14 of the largest value, Gaussians of sigma
    0.18 and 0.6 within 1e-13."""

    @staticmethod
    def _reference(a, starts, th, t_lo, t_hi, across):
        lo, hi = clip_chords(a, starts, th, t_lo, t_hi)
        nodes, weights = composite_rule(64, 16)
        pts = broadcast_points(starts, th, lo[:, None] + (hi - lo)[:, None] * nodes[None, :])
        slopes = _slope_planes(a, pts[..., 0], pts[..., 1], across)
        return (hi - lo) * (a(pts) @ weights), (hi - lo) * (slopes @ weights)

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "table"])
    @pytest.mark.parametrize("name, params, tol", [
        ("poly-bump", {"amplitude": 0.3}, 1e-14),
        ("shifted-poly-bump", {"amplitude": 0.3}, 1e-14),
        ("gaussian-truncated", {"amplitude": 0.3, "sigma": 0.18}, 1e-13),
        ("gaussian-truncated", {"amplitude": 0.3, "sigma": 0.6}, 1e-13),
    ], ids=["poly-bump", "shifted-poly-bump", "gaussian-0.18", "gaussian-0.6"])
    def test_against_composite_rule(self, kind, name, params, tol):
        b = make_boundary("disk", 512) if kind == "disk" else off_disk_boundary(kind)
        a = phantom(name, b, params=params)
        grid = CartesianGrid(b, 20, 20, margin=0.0)
        pts = grid.points
        errs, scales = np.zeros(3), np.zeros(3)
        for phi in AngularGrid(16).angles:
            th = np.array([np.cos(phi), np.sin(phi)])
            perp = np.array([-th[1], th[0]])
            (s_lo, s_hi), _ = b.extent(th)
            s = np.linspace(s_lo, s_hi, 101)
            p0s = s[:, None] * perp[None, :]
            t_lo, t_hi, _ = b.line_spans(p0s, th)
            ref = [self._reference(a, p0s, th, t_lo, t_hi, perp)[0]]
            got = [radon_profile(a, b, th, s)]
            _, tau, _ = b.line_spans(pts, th)
            ref += self._reference(a, pts, th, np.zeros(len(pts)), tau, perp)
            got += a.line_integral(pts, th, 0.0, tau, across=perp)
            for i in range(3):
                errs[i] = max(errs[i], np.max(np.abs(got[i] - ref[i])))
                scales[i] = max(scales[i], np.max(np.abs(ref[i])))
        assert np.all(errs <= tol * scales)
