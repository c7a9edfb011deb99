"""Offset sine series of Ra, integrating factors, and the attenuated cycle."""
import tracemalloc

import numpy as np
import pytest

from aradon import attenuation, bukhgeim
from aradon.attenuation import (
    _HSampler,
    _beta_slopes,
    _factor_modes,
    _sine_series,
    build_h,
    finite_hilbert,
    hilbert_Ha,
    range_residual_a,
    reconstruct_f_attenuated,
)
from aradon.bukhgeim import CartesianGrid, _kernel_bands, hilbert_H0, reconstruct_f0
from aradon.errors import FactorBuildError, GridMismatch, InconsistentInput
from aradon.geometry import TOL_TANGENT, ConvexBoundary, make_boundary
from aradon.harmonics import AngularGrid, ModeTrace, convolve, project_minus
from aradon.xray import QuadSettings, forward_sinogram, phantom, radon_profile
from oracles import bump_chord_integral, poly_bump_h, residual_route_gap


@pytest.fixture(scope="module")
def att_setup(disk256):
    """Small attenuated problem shared by the factor tests."""
    ang = AngularGrid(64)
    f = phantom("poly-bump", disk256)
    a = phantom("poly-bump", disk256, params={"amplitude": 0.3})
    sino = forward_sinogram(f, a, disk256, ang)
    g = project_minus(sino, 16)
    factors = build_h(a, disk256, ang, 16)
    return {"ang": ang, "f": f, "a": a, "sino": sino, "g": g, "factors": factors}


class TestSineSeries:
    """_sine_series, a DST by rfft, against a dense solve of the sine basis."""

    @pytest.mark.parametrize("n", [1, 15, 63, 2047])
    def test_matches_dense_solve(self, n):
        phi = np.pi * np.arange(1, n + 1) / (n + 1)
        basis = np.sin(np.outer(phi, np.arange(1, n + 1)))
        v = np.random.default_rng(n).standard_normal((n, 3))
        b = _sine_series(v)
        # the dense LU's roundoff: 5.6e-15 at n = 2047
        assert np.max(np.abs(b - np.linalg.solve(basis, v))) <= 3e-14 * np.max(np.abs(v))
        # linear, and each column transformed as alone
        combo = _sine_series(v[:, 0] - 2.5 * v[:, 1])
        assert np.max(np.abs(combo - (b[:, 0] - 2.5 * b[:, 1]))) <= 1e-14 * np.max(np.abs(v))
        assert np.array_equal(_sine_series(v[:, 2]), b[:, 2])


_U64 = 2.0 * np.pi * np.arange(64) / 64


def _table64():
    """The 64-point table of the 1.5 x 1 ellipse, at 64 nodes."""
    return make_boundary("table", 64, table=np.column_stack([1.5 * np.cos(_U64), np.sin(_U64)]))


def _pairing_case(kind):
    """Boundary, attenuation, N and even M that pass build_h's gates.

    Off the disk the factor leak gate passes only for weak attenuation at
    these sizes: the leak grows linearly with the amplitude.
    """
    if kind == "disk":
        b = make_boundary("disk", 128)
        return b, phantom("poly-bump", b, params={"amplitude": 0.3}), 8, 32
    if kind == "ellipse":
        b = make_boundary("ellipse", 128, a=1.5, b=1.0)
    else:
        b = _table64()
    return b, phantom("poly-bump", b, params={"amplitude": 0.005}), 16, 64


_PAIR_S = 512
_REF_TERMS = 64


def _lin_reference(b, u):
    """(I - iH)Ra of Ra = sum_m b_m sin(m phi), u = cos(phi), term by term:
    Ra and HRa = sum b_m cos(m phi) on |u| <= 1, and 0 and
    sum b_m (u - sgn(u) sqrt(u^2 - 1))^m outside."""
    m = np.arange(1, len(b) + 1)
    inside = np.abs(u) <= 1.0
    phi = np.arccos(np.clip(u, -1.0, 1.0))
    zeta = u - np.sign(u) * np.sqrt(np.maximum(u * u - 1.0, 0.0))
    ra = np.where(inside, np.sin(np.outer(phi, m)) @ b, 0.0)
    hra = np.where(inside, np.cos(np.outer(phi, m)) @ b, (zeta[:, None] ** m) @ b)
    return ra - 1.0j * hra


def _per_direction_h(a, boundary, angular, int_pts):
    """h on the nodes and `int_pts` with one offset series per direction,
    its _REF_TERMS coefficients from a dense solve of the sine basis on
    `a`'s support disk; every chord, of the samples and of the interior
    Da, ends on the curve (line_spans), whether or not `a` has a support
    disk."""
    center, radius = a.support
    phi = np.pi * np.arange(1, _REF_TERMS + 1) / (_REF_TERMS + 1)
    basis = np.sin(np.outer(phi, np.arange(1, _REF_TERMS + 1)))
    dirs = np.column_stack([np.cos(angular.angles), np.sin(angular.angles)])
    taus = boundary.node_chord_lengths(dirs)
    normal_dot = boundary.normals @ dirs.T
    h_b = np.zeros((boundary.n_nodes, angular.n_angles), dtype=complex)
    h_i = np.zeros((len(int_pts), angular.n_angles), dtype=complex)
    for j, th in enumerate(dirs):
        perp = np.array([-th[1], th[0]])
        mid = center @ perp
        p0s = (mid + radius * np.cos(phi))[:, None] * perp[None, :]
        ra = a.line_integral(p0s, th, *boundary.line_spans(p0s, th)[:2])
        b = np.linalg.solve(basis, ra)
        da_b = np.zeros(boundary.n_nodes)
        incoming = normal_dot[:, j] < 0.0
        da_b[incoming] = a.line_integral(boundary.positions[incoming], th, 0.0,
                                         taus[incoming, j])
        h_b[:, j] = da_b - 0.5 * _lin_reference(b, (boundary.positions @ perp - mid) / radius)
        _, tau_fwd, _ = boundary.line_spans(int_pts, th)
        da_i = a.line_integral(int_pts, th, 0.0, tau_fwd)
        h_i[:, j] = da_i - 0.5 * _lin_reference(b, (int_pts @ perp - mid) / radius)
    return h_b, h_i


def _sampled_h(a, boundary, angular, int_pts):
    """build_h's h on the nodes and at `int_pts`, as the reference gives it:
    the nodes are points like any other."""
    sampler = _HSampler(a, boundary, angular, _PAIR_S)
    return sampler.at(boundary.positions), sampler.at(int_pts)


@pytest.fixture(scope="module", params=[(kind, parity)
                                        for kind in ("disk", "ellipse", "table")
                                        for parity in ("even", "odd")],
                ids=lambda p: "%s-%s" % p)
def paired_build(request):
    """build_h's sampler (profile calls counted) and the per-direction reference."""
    kind, parity = request.param
    boundary, a, _, m_even = _pairing_case(kind)
    angular = AngularGrid(m_even if parity == "even" else m_even + 1)
    pts = CartesianGrid(boundary, 12, 12).points_all
    int_pts = pts[boundary.contains(pts)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return radon_profile(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attenuation, "radon_profile", counted)
        h = _sampled_h(a, boundary, angular, int_pts)
    return {"h": h, "ref": _per_direction_h(a, boundary, angular, int_pts),
            "calls": len(calls), "n_angles": angular.n_angles}


class TestAntipodalPairing:
    """build_h expands Ra once per direction pair theta, theta + pi."""

    def test_matches_per_direction_reference(self, paired_build):
        # both halves to roundoff: a bump's Ra is a degree-5 sine series,
        # which the build's DST and the reference's solve both recover
        for got, ref in zip(paired_build["h"], paired_build["ref"]):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_one_profile_per_pair(self, paired_build):
        m = paired_build["n_angles"]
        assert paired_build["calls"] == (m // 2 if m % 2 == 0 else m)


class TestTableFactors:
    """On a point table, bump fields end every ray of their profiles, of
    Da and of the forward on their support disks, so no curve crossing is
    solved; fields without a support solve one per ray, for all of them."""

    @pytest.fixture(scope="class")
    def table_case(self):
        boundary = _table64()
        return boundary, phantom("shifted-poly-bump", boundary, params={"amplitude": 0.3})

    @staticmethod
    def _crossings(run):
        """The points of each line_spans call that run() makes, and its
        number of node_chord_lengths calls."""
        seen, lengths = [], []
        spans, chords = ConvexBoundary.line_spans, ConvexBoundary.node_chord_lengths

        def counted_spans(self, points, direction, **kwargs):
            seen.append(np.array(points))
            return spans(self, points, direction, **kwargs)

        def counted_chords(self, directions):
            lengths.append(1)
            return chords(self, directions)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ConvexBoundary, "line_spans", counted_spans)
            mp.setattr(ConvexBoundary, "node_chord_lengths", counted_chords)
            run()
        return seen, len(lengths)

    def test_line_spans_only_on_nodes(self, table_case):
        boundary, a = table_case
        f = phantom("shifted-poly-bump", boundary, params={"center": (-0.2, 0.1), "radius": 0.6})
        ang, quad = AngularGrid(32), QuadSettings(4, 4)
        pts = CartesianGrid(boundary, 16, 16).points
        # gates lifted: 32 angles leave this `a`'s leak at 4.8e-4, and the
        # crossings are what is counted; the slopes inside too
        runs = (lambda: build_h(a, boundary, ang, 8, s_samples=512,
                                tol_neg=1.0, tol_identity=1.0).sampler.at(pts, slopes=True),
                lambda: forward_sinogram(f, phantom("zero", boundary), boundary, ang, quad),
                lambda: forward_sinogram(f, a, boundary, ang, quad))
        for run in runs:
            assert self._crossings(run) == ([], 0)

    def test_one_crossing_per_forward_ray(self):
        """Gaussian f and `a`: the attenuated forward solves the crossings of
        each direction's outgoing rays once, at their nodes."""
        boundary = _table64()
        f = phantom("gaussian-truncated", boundary, params={"center": (0.2, -0.1), "sigma": 0.4})
        a = phantom("gaussian-truncated", boundary, params={"sigma": 0.5, "amplitude": 0.3})
        ang = AngularGrid(32)
        seen, lengths = self._crossings(
            lambda: forward_sinogram(f, a, boundary, ang, QuadSettings(4, 4)))
        dirs = np.column_stack([np.cos(ang.angles), np.sin(ang.angles)])
        outgoing = (boundary.normals @ dirs.T > TOL_TANGENT).T
        outgoing = outgoing[outgoing.any(axis=1)]
        assert lengths == 0 and len(seen) == len(outgoing)
        assert all(np.array_equal(p, boundary.positions[out]) for p, out in zip(seen, outgoing))

    def test_h_matches_per_direction_reference(self, table_case):
        boundary, a = table_case
        angular = AngularGrid(64)
        pts = CartesianGrid(boundary, 12, 12).points_all
        int_pts = pts[boundary.contains(pts)]
        got = _sampled_h(a, boundary, angular, int_pts)
        for h, ref in zip(got, _per_direction_h(a, boundary, angular, int_pts)):
            assert np.max(np.abs(h - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.fixture(scope="module", params=["disk", "table"])
def stream_case(request):
    """An attenuated problem whose valid points the default chunk of the
    reconstruct (1024) splits."""
    if request.param == "disk":
        boundary, n_grid = make_boundary("disk", 128), 48
        a = phantom("poly-bump", boundary, params={"amplitude": 0.3})
    else:
        # 64 nodes keep a margin of 0.37 from the curve: a finer grid
        boundary, n_grid = _table64(), 64
        a = phantom("shifted-poly-bump", boundary, params={"amplitude": 0.3})
    f = phantom("shifted-poly-bump", boundary, params={"center": (-0.2, 0.1), "radius": 0.6})
    ang = AngularGrid(128)
    g = project_minus(forward_sinogram(f, a, boundary, ang, QuadSettings(4, 4)), 16)
    return boundary, a, ang, g, CartesianGrid(boundary, n_grid, n_grid)


class TestStreamChunks:
    """No bit of the picture or of max |d beta_0| depends on the chunks the
    attenuated reconstruct walks the valid points in."""

    @staticmethod
    def _run(case, points):
        boundary, a, ang, g, grid = case
        with pytest.MonkeyPatch.context() as mp:
            if points is not None:
                mp.setattr(attenuation, "RECON_CHUNK", points)
            # gates lifted: on the table this `a` leaks 1.6e-6 at 128 angles
            fac = build_h(a, boundary, ang, g.n_modes, s_samples=512,
                          tol_neg=1.0, tol_identity=1.0)
            return reconstruct_f_attenuated(g, fac, grid, return_dbeta0=True)

    def test_chunks_move_no_bits(self, stream_case):
        grid = stream_case[4]
        assert np.count_nonzero(grid.valid) > 1024
        pic, dbeta0 = self._run(stream_case, None)
        assert np.all(pic.ravel()[grid.valid] != 0.0)
        for points in (37, grid.nx * grid.ny):
            other, other_dbeta0 = self._run(stream_case, points)
            assert np.array_equal(other, pic)
            assert other_dbeta0 == dbeta0


class TestKernelBands:
    """Far points read the trace truncated onto fewer nodes
    (bukhgeim._kernel_bands).  Against the full-resolution picture, every
    point on all n nodes (the bands lifted here by an infinite spacing
    factor), the disk's pictures move by at most 1e-10 of max|f|
    (measured at most 1.2e-12); the ellipse and the tables keep all n."""

    @staticmethod
    def _full(run):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bukhgeim, "BAND_SPACINGS", np.inf)
            return run()

    @pytest.mark.parametrize("a_name, a_params", [
        ("zero", None),
        ("poly-bump", {"amplitude": 0.3}),
        ("gaussian-truncated", {"amplitude": 0.3, "sigma": 0.18}),
    ])
    def test_disk_near_full_resolution(self, disk512, ang128, a_name, a_params):
        a = phantom(a_name, disk512, params=a_params)
        g = project_minus(forward_sinogram(phantom("poly-bump", disk512), a, disk512, ang128), 32)
        fac = build_h(a, disk512, ang128, 32)
        grid = CartesianGrid(disk512, 64, 64)
        trace = g if a.is_zero else ModeTrace(disk512, 32, convolve(fac.alpha, g.data))
        counts = {band.nodes.n_nodes: len(band.index) for band in _kernel_bands(trace, grid)}
        assert sorted(counts) == [128, 256, 512]
        assert sum(counts.values()) == len(grid.points)
        pic = reconstruct_f_attenuated(g, fac, grid)
        full = self._full(lambda: reconstruct_f_attenuated(g, fac, grid))
        assert np.max(np.abs(pic - full)) <= 1e-10 * np.max(np.abs(full))

    @pytest.mark.parametrize("kind", ["ellipse", "table64", "table256"])
    def test_spectral_tail_keeps_all_nodes(self, kind):
        """The trace's spectral tail, not the mode floor, keeps these on n
        nodes where n/2 >= 4N: lifting the tail test would coarsen them."""
        if kind == "ellipse":
            b, n_modes, ang = make_boundary("ellipse", 512, a=1.5, b=1.0), 32, AngularGrid(128)
        elif kind == "table64":
            b, n_modes, ang = _table64(), 15, AngularGrid(32)
        else:
            table = np.column_stack([1.5 * np.cos(_U64), np.sin(_U64)])
            b, n_modes, ang = make_boundary("table", 256, table=table), 16, AngularGrid(64)
        g = project_minus(forward_sinogram(phantom("poly-bump", b), phantom("zero", b), b, ang),
                          n_modes)
        grid = CartesianGrid(b, 64, 64)
        bands = list(_kernel_bands(g, grid))
        assert len(bands) == 1 and bands[0].nodes is b and len(bands[0].index) == len(grid.points)
        if b.n_nodes // 2 >= bukhgeim.BAND_MODE_FLOOR * n_modes:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bukhgeim, "BAND_TAIL_TOL", 1.0)
                assert len(list(_kernel_bands(g, grid))) > 1
        pic = reconstruct_f0(g, grid)
        assert np.array_equal(pic, self._full(lambda: reconstruct_f0(g, grid)))

    @pytest.mark.parametrize("n_modes, coarsest", [(8, 64), (32, 128), (48, 256)])
    def test_mode_floor(self, disk512, polybump_sino, n_modes, coarsest):
        """No band has fewer than 4N nodes (48 modes: 192, so no 128-node
        band), and distance alone ends the halving at 64 nodes."""
        g = project_minus(polybump_sino, n_modes)
        sizes = [band.nodes.n_nodes for band in _kernel_bands(g, CartesianGrid(disk512, 64, 64))]
        assert min(sizes) >= bukhgeim.BAND_MODE_FLOOR * n_modes
        assert min(sizes) == coarsest


class TestStreamMemory:
    """The attenuated route holds the boundary factors and a fixed chunk,
    not h or its transforms on every point (with h held on the inside
    points: build_h 145 MB, reconstruct 73 MB at this size)."""

    def test_peaks_at_128x128(self, disk512, ang128):
        a = phantom("poly-bump", disk512, params={"amplitude": 0.3})
        g = project_minus(forward_sinogram(phantom("poly-bump", disk512), a, disk512, ang128), 32)
        grid = CartesianGrid(disk512, 128, 128)

        def traced_peak(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fac, build_peak = traced_peak(lambda: build_h(a, disk512, ang128, 32))
        _, recon_peak = traced_peak(lambda: reconstruct_f_attenuated(g, fac, grid))
        assert build_peak <= 24e6
        assert recon_peak <= 24e6


class TestInteriorDa:
    """Da of a polynomial `a` on interior points is exact, with the chord
    ending on the curve and, as build_h takes it, open past the support
    disk."""

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "table"])
    def test_polynomial_da_exact(self, kind):
        boundary, a, _, m = _pairing_case(kind)
        pts = CartesianGrid(boundary, 16, 16).points_all
        pts = pts[boundary.contains(pts)]
        shifted = phantom("shifted-poly-bump", boundary,
                          params={"center": (0.2, -0.1), "radius": 0.6, "amplitude": 0.4})
        for field in (a, shifted):
            scale = field.params["amplitude"] * field.params.get("radius", 1.0)
            for phi in AngularGrid(m).angles[::5]:
                th = np.array([np.cos(phi), np.sin(phi)])
                _, tau_fwd, _ = boundary.line_spans(pts, th)
                exact = bump_chord_integral(field, pts, th, 0.0, tau_fwd)
                for end in (tau_fwd, np.inf):
                    got = field.line_integral(pts, th, 0.0, end)
                    assert np.max(np.abs(got - exact)) <= 1e-14 * scale


class TestFlipIdentities:
    """The identities behind the pairing, on the Chebyshev offsets."""

    @pytest.fixture(scope="class", params=["disk", "ellipse", "table"])
    def profiles(self, request):
        boundary, a, _, m = _pairing_case(request.param)
        center, radius = a.support
        cos_phi = np.cos(np.pi * np.arange(1, 64) / 64)
        angles = AngularGrid(m).angles
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])

        def ra(th):
            offsets = center @ np.array([-th[1], th[0]]) + radius * cos_phi
            return radon_profile(a, boundary, th, offsets)
        return [(ra(dirs[j]), ra(dirs[j + m // 2])) for j in range(m // 2)]

    def test_hilbert_odd_under_flip(self, profiles):
        """A flipped profile's series is (-1)^{m+1} b_m, and its transform
        at u is minus the conjugate of the profile's at -u."""
        u = np.linspace(-1.5, 1.5, 61)
        for ra, _ in profiles:
            b = _sine_series(ra)
            flipped = _sine_series(ra[::-1])
            assert np.max(np.abs(flipped - (-1.0) ** np.arange(len(b)) * b)) \
                <= 1e-15 * np.max(np.abs(ra))
            gap = np.max(np.abs(finite_hilbert(flipped, u) + np.conj(finite_hilbert(b, -u))))
            assert gap <= 1e-15 * np.max(np.abs(ra))

    def test_opposite_direction_reverses_profile(self, profiles):
        for ra, ra_opposite in profiles:
            assert np.max(np.abs(ra_opposite - ra[::-1])) <= 1e-15 * np.max(np.abs(ra))


class TestSeriesSampling:
    """How far build_h's nested doubling of the offset samples goes."""

    @staticmethod
    def _sampled(a, boundary, angular, s_samples):
        """The sampler and the number of offsets it sampled per direction."""
        counts = {}

        def counted(a, boundary, theta, s_values):
            key = tuple(theta)
            counts[key] = counts.get(key, 0) + len(s_values)
            return radon_profile(a, boundary, theta, s_values)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(attenuation, "radon_profile", counted)
            sampler = _HSampler(a, boundary, angular, s_samples)
        return sampler, list(counts.values())

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "table"])
    def test_bump_stops_at_first_grid(self, kind):
        boundary, a, _, m = _pairing_case(kind)
        sampler, counts = self._sampled(a, boundary, AngularGrid(m), _PAIR_S)
        assert counts == [15] * (m // 2)
        assert all(0 < len(b) <= 5 for _, _, b in sampler.series)

    def test_zero_a_has_empty_series(self, disk256):
        sampler, counts = self._sampled(phantom("zero", disk256), disk256, AngularGrid(8), _PAIR_S)
        assert counts == [15] * 4
        assert all(len(b) == 0 for _, _, b in sampler.series)
        assert np.array_equal(sampler.at(disk256.positions[:5]), np.zeros((5, 8)))

    @pytest.mark.parametrize("s_samples, n_cap", [(64, 63), (200, 127)])
    def test_gaussian_on_table_stops_at_cap(self, s_samples, n_cap):
        """The table's spline curve is C^2, so this series converges only
        algebraically and doubles until the cap."""
        boundary = _table64()
        a = phantom("gaussian-truncated", boundary, params={"sigma": 0.6, "amplitude": 0.3})
        sampler, counts = self._sampled(a, boundary, AngularGrid(8), s_samples)
        assert counts == [n_cap] * 4
        assert all(len(b) > n_cap // 2 for _, _, b in sampler.series)


class TestClosedFormH:
    """build_h against the closed-form h of a = c (1 - |x|^2)^2 on the disk
    (tests/oracles.poly_bump_h).  Its Ra is a sine series of three terms,
    so h is exact to roundoff.  Measured: h error 1.2e-15 at the nodes and
    1.5e-15 inside, leak 8.4e-17; the exact h leaks 1.1e-16."""

    @staticmethod
    def _modes(h, n_modes):
        """Rows 0..N of e^{-h} and e^{+h} as _factor_modes takes them, and
        the largest negative mode of either."""
        m = h.shape[1]
        coef = [np.fft.fft(np.exp(sign * h), axis=1) / m for sign in (-1.0, 1.0)]
        leak = max(np.max(np.abs(c[:, m - np.arange(1, n_modes + 1)])) for c in coef)
        return coef[0][:, :n_modes + 1].T, coef[1][:, :n_modes + 1].T, leak

    def test_factors_match_closed_form(self, disk512, ang128):
        c, n_modes = 0.3, 32
        grid = CartesianGrid(disk512, 64, 64)
        fac = build_h(phantom("poly-bump", disk512, params={"amplitude": c}), disk512, ang128,
                      n_modes)
        alpha, beta, leak = self._modes(poly_bump_h(c, disk512.positions, ang128.angles), n_modes)
        _, beta_i, leak_i = self._modes(poly_bump_h(c, grid.points, ang128.angles), n_modes)
        got_i, _, _, neg_i = _beta_slopes(fac.sampler, grid.points, n_modes)
        assert max(leak, leak_i) <= 1e-15
        assert np.max(np.abs(fac.alpha - alpha)) <= 1e-13
        assert np.max(np.abs(fac.beta - beta)) <= 1e-13
        assert np.max(np.abs(got_i - beta_i)) <= 1e-13
        assert max(fac.max_neg_mode, neg_i) <= 1e-15

    def test_h_matches_closed_form(self, disk512, ang128):
        c = 0.3
        grid = CartesianGrid(disk512, 64, 64)
        pts = grid.points_all[grid.inside]
        sampler = _HSampler(phantom("poly-bump", disk512, params={"amplitude": c}), disk512,
                            ang128, 2048)
        for at in (disk512.positions, pts):
            assert np.max(np.abs(sampler.at(at) - poly_bump_h(c, at, ang128.angles))) <= 1e-13


class TestSeriesSlope:
    """finite_hilbert's slope against the closed form of Ra = sin^5 phi =
    (10 sin phi - 5 sin 3 phi + sin 5 phi) / 16, u = cos phi: HRa is
    sum b_m T_m(u) inside, and Ra's slope is -5 u (1 - u^2)^{3/2}."""

    B = np.array([10.0, 0.0, -5.0, 0.0, 1.0]) / 16.0

    def test_inside_matches_closed_form(self):
        u = np.linspace(-0.999, 0.999, 201)
        _, slope = finite_hilbert(self.B, u, slope=True)
        hra = np.polynomial.chebyshev.chebder(np.concatenate([[0.0], self.B]))
        ref = np.polynomial.chebyshev.chebval(u, hra) - 5.0j * u * (1.0 - u * u) ** 1.5
        assert np.max(np.abs(slope - ref)) <= 1e-12

    def test_outside_matches_centred_difference(self):
        u = np.concatenate([np.linspace(-3.0, -1.01, 50), np.linspace(1.01, 3.0, 50)])
        value, slope = finite_hilbert(self.B, u, slope=True)
        assert np.array_equal(value, finite_hilbert(self.B, u))
        eps = 1e-6
        diff = (finite_hilbert(self.B, u + eps) - finite_hilbert(self.B, u - eps)) / (2.0 * eps)
        assert np.max(np.abs(slope - diff)) <= 1e-8

    def test_edge_takes_the_limit(self):
        """At |u| = 1 both factors of the slope vanish (0/0); the limit is
        sum m^2 b_m u^{m+1}, here -5/8 at both ends."""
        _, slope = finite_hilbert(self.B, np.array([-1.0, 1.0]), slope=True)
        assert np.max(np.abs(slope + 0.625)) <= 1e-15


def _inside_points(boundary, count=30, seed=5, depth=0.15):
    """`count` random points at least `depth` inside the curve."""
    rng = np.random.default_rng(seed)
    lo, hi = np.min(boundary.positions, axis=0), np.max(boundary.positions, axis=0)
    pts = rng.uniform(lo, hi, (8 * count, 2))
    return pts[boundary.distance_to_boundary(pts) > depth][:count]


def _stencil(beta_at, pts, eps=1e-4):
    """d = (1/2)(d/dx - i d/dy) of beta_at by the 4-point centred stencil."""
    def ddx(e):
        return (8.0 * (beta_at(pts + e) - beta_at(pts - e))
                - (beta_at(pts + 2.0 * e) - beta_at(pts - 2.0 * e))) / (12.0 * eps)
    return 0.5 * (ddx(np.array([eps, 0.0])) - 1.0j * ddx(np.array([0.0, eps])))


class TestBetaSlopes:
    """The exact d beta (_beta_slopes) against a stencil of beta at
    30 random points.  The bump takes its beta from the closed form, the
    Gaussians the moving ray end's term with the disk's, the ellipse's and
    the table's normals, and the shifted bump the |u| > 1 branch of the
    series' slope (with the wrong sign there the gap is 1.6e-2).  Gaps
    measured: 3.6e-13, 3.7e-13 (disk and ellipse), 1.0e-12 (table) and
    9.4e-10 (shifted bump), against |d beta| up to 0.11."""

    @pytest.mark.parametrize("case, bound", [
        ("disk-bump", 2e-12), ("disk-gaussian", 2e-12), ("disk-shifted-bump", 5e-9),
        ("ellipse-gaussian", 2e-12), ("table-gaussian", 5e-12)])
    def test_matches_stencil(self, disk512, ang128, case, bound):
        kind, name = case.split("-", 1)
        ang, n_modes, s_samples = ang128, 32, 2048
        if kind == "disk":
            boundary = disk512
        elif kind == "ellipse":
            boundary = make_boundary("ellipse", 256, a=1.5, b=1.0)
        else:
            boundary, ang, n_modes, s_samples = _table64(), AngularGrid(64), 16, 512
        params = {"amplitude": 0.3}
        if name == "gaussian":
            params["sigma"] = 0.6
        a = phantom({"bump": "poly-bump", "shifted-bump": "shifted-poly-bump",
                     "gaussian": "gaussian-truncated"}[name], boundary, params=params)
        sampler = _HSampler(a, boundary, ang, s_samples)
        pts = _inside_points(boundary)
        _, dbeta, _, _ = _beta_slopes(sampler, pts, n_modes)
        if case == "disk-bump":
            def beta_at(p):
                return TestClosedFormH._modes(poly_bump_h(0.3, p, ang.angles), n_modes)[1]
        else:
            def beta_at(p):
                return _factor_modes(sampler.at(p), n_modes)[0][1]
        ref = _stencil(beta_at, pts)[:n_modes]
        assert 0.05 <= np.max(np.abs(ref)) <= 0.2
        assert np.max(np.abs(dbeta - ref)) <= bound

    def test_dbeta0_floor_of_shifted_bump(self, disk512, ang128):
        """d beta_0 vanishes exactly; on a bump whose support lies strictly
        inside the disk it reads the slow angular decay of e^{-+h} (ROADMAP
        items 3 and 12): 1.12e-6 measured over disk-att-cycle's 64 x 64
        grid, where the leak is 1.0e-6.  (The bump and the sigma = 0.6
        Gaussian read 1e-16: tests/test_acceptance.py.)"""
        a = phantom("shifted-poly-bump", disk512, params={"amplitude": 0.3})
        sampler = _HSampler(a, disk512, ang128, 2048)
        _, dbeta, _, _ = _beta_slopes(sampler, CartesianGrid(disk512, 64, 64).points, 32)
        assert np.max(np.abs(dbeta[0])) <= 1.7e-6


class TestIntegratingFactor:
    def test_zero_attenuation_identity(self, disk256):
        """h = 0 on the general path gives the identity rows exactly."""
        ang = AngularGrid(32)
        fac = build_h(phantom("zero", disk256), disk256, ang, 8)
        assert fac.zero_attenuation
        assert fac.max_neg_mode == 0.0 and fac.max_identity_dev == 0.0
        beta_i, dbeta_i, a_values, _ = _beta_slopes(fac.sampler,
                                                    CartesianGrid(disk256, 12, 12).points, 8)
        identity = np.zeros((9, 1))
        identity[0] = 1.0
        for rows in (fac.alpha, fac.beta, beta_i):
            assert np.array_equal(rows, np.broadcast_to(identity, rows.shape))
        assert not np.any(dbeta_i) and not np.any(a_values)

    def test_analyticity_diagnostics(self, att_setup):
        fac = att_setup["factors"]
        assert fac.max_neg_mode <= 1e-6
        assert fac.max_identity_dev <= 1e-8

    def test_wide_gaussian_builds_on_disk(self, disk512, ang128):
        """A sigma = 0.6 Gaussian does not vanish at the curve: Ra has a
        square-root edge there, which the offset series takes exactly."""
        a = phantom("gaussian-truncated", disk512, params={"sigma": 0.6, "amplitude": 0.3})
        assert build_h(a, disk512, ang128, 32).max_neg_mode <= 1e-10

    def test_factor_gate_raises(self, disk256, att_setup):
        with pytest.raises(FactorBuildError):
            build_h(att_setup["a"], disk256, att_setup["ang"], 16, tol_neg=1e-18)

    def test_alpha_consistent_under_angular_refinement(self, disk256, att_setup):
        """Coefficients are angular-grid integrals; 4x angles is an oracle."""
        fine = build_h(att_setup["a"], disk256, AngularGrid(256), 16)
        coarse = att_setup["factors"]
        dev_a = np.max(np.abs(fine.alpha - coarse.alpha))
        dev_b = np.max(np.abs(fine.beta - coarse.beta))
        assert dev_a <= 1e-8
        assert dev_b <= 1e-8


class TestHilbertHa:
    def test_zero_attenuation_reduces_to_h0(self, disk256, polybump_trace):
        ang = AngularGrid(128)
        fac = build_h(phantom("zero", disk256), disk256, ang, 16)
        rng = np.random.default_rng(2)
        data = rng.standard_normal((17, 256)) + 1j * rng.standard_normal((17, 256))
        g = ModeTrace(disk256, 16, data)
        ha = hilbert_Ha(g, fac)
        h0 = hilbert_H0(g)
        assert np.max(np.abs(ha.data - h0.data)) == 0.0

    def test_two_routes_agree(self, att_setup):
        gap = residual_route_gap(att_setup["g"], att_setup["factors"])
        assert gap <= 1e-9

    def test_consistent_residual_small(self, att_setup):
        res = range_residual_a(att_setup["g"], att_setup["factors"])
        assert res.relative <= 5e-3

    def test_inconsistent_residual_large(self, att_setup, disk256):
        bad = att_setup["g"].data.copy()
        bad[0] += 0.1 * np.sum(np.abs(bad), axis=0).max() * np.conj(
            disk256.complex_nodes()
        )
        g = ModeTrace(disk256, 16, bad)
        res = range_residual_a(g, att_setup["factors"])
        assert res.relative >= 0.05

    def test_grid_mismatch(self, disk512, att_setup):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((17, 512)) + 1j * rng.standard_normal((17, 512))
        g = ModeTrace(disk512, 16, data)
        with pytest.raises(GridMismatch):
            hilbert_Ha(g, att_setup["factors"])

    def test_another_ellipse_with_same_node_count(self, ellipse256):
        """A 2 x 1 ellipse's trace against factors of the 1.5 x 1 ellipse:
        same kind, node count and N, so only the axes tell them apart (this
        ran silently before, with a relative residual of 0.0793)."""
        ang = AngularGrid(128)
        wide = make_boundary("ellipse", 256, a=1.5, b=1.0)
        fac = build_h(phantom("poly-bump", wide, params={"amplitude": 0.005}), wide, ang, 8)
        f = phantom("poly-bump", ellipse256)
        g = project_minus(forward_sinogram(f, phantom("zero", ellipse256), ellipse256, ang), 8)
        with pytest.raises(GridMismatch):
            range_residual_a(g, fac)


class TestAttenuatedReconstruction:
    def test_zero_attenuation_matches_plain_route(self, disk256, att_setup):
        ang = AngularGrid(64)
        f = phantom("poly-bump", disk256)
        sino = forward_sinogram(f, phantom("zero", disk256), disk256, ang)
        g = project_minus(sino, 16)
        grid = CartesianGrid(disk256, 16, 16, margin=0.1)
        fac = build_h(phantom("zero", disk256), disk256, ang, 16)
        pic_a = reconstruct_f_attenuated(g, fac, grid)
        pic_0 = reconstruct_f0(g, grid)
        assert np.max(np.abs(pic_a - pic_0)) == 0.0

    def test_attenuated_recovery(self, disk256, att_setup):
        grid = CartesianGrid(disk256, 24, 24, margin=0.12)
        fac = att_setup["factors"]
        pic = reconstruct_f_attenuated(att_setup["g"], fac, grid)
        xs, ys = np.meshgrid(grid.xs, grid.ys)
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        ref = att_setup["f"](pts).reshape(24, 24)
        mask = grid.valid.reshape(24, 24) & (
            np.hypot(xs, ys) <= 0.85
        )
        rel = np.linalg.norm((pic - ref)[mask]) / np.linalg.norm(ref[mask])
        assert rel <= 0.08

    def test_every_evaluated_point_carries_a_value(self, disk256, att_setup):
        """On a grid coarser than the margin every valid point, the edge of
        the picture too, is evaluated: the picture misses the source by at
        most 3e-6 anywhere (measured 8.9e-7; a point set to 0 would miss it
        by 0.02 or more)."""
        grid = CartesianGrid(disk256, 12, 12, margin=0.08)
        pic = reconstruct_f_attenuated(att_setup["g"], att_setup["factors"], grid).ravel()
        err = np.abs(pic - att_setup["f"](grid.points_all))[grid.valid]
        assert np.max(err) <= 3e-6

    def test_gate_warns(self, disk256, att_setup):
        grid = CartesianGrid(disk256, 12, 12, margin=0.12)
        fac = att_setup["factors"]
        bad = att_setup["g"].data.copy()
        bad[0] += 0.2 * np.sum(np.abs(bad), axis=0).max() * np.conj(
            disk256.complex_nodes()
        )
        g = ModeTrace(disk256, 16, bad)
        with pytest.warns(InconsistentInput):
            reconstruct_f_attenuated(g, fac, grid)
