"""Boundary-integral operators, Cauchy extension, and source recovery."""
import tracemalloc

import numpy as np
import pytest

from aradon import bukhgeim
from aradon.bukhgeim import (
    TARGET_CHUNK,
    CartesianGrid,
    cauchy_build,
    del_v_minus,
    hilbert_H0,
    op_S,
    range_residual_0,
    reconstruct_f0,
)
from aradon.errors import OutsideDomain, TooCloseToBoundary
from aradon.geometry import make_boundary
from aradon.harmonics import AngularGrid, ModeTrace, project_minus
from aradon.xray import forward_sinogram, phantom
from conftest import algebraic_trace
from oracles import aanaliticity_defect, dense_S, exact_node_G


@pytest.fixture(scope="module")
def ellipse_wide256():
    return make_boundary("ellipse", 256, a=1.5, b=1.0)


@pytest.fixture(scope="module")
def ellipse_wide512():
    return make_boundary("ellipse", 512, a=1.5, b=1.0)


@pytest.fixture(scope="module")
def ellipse_polybump_trace(ellipse_wide512):
    """Non-attenuated boundary data of the radial bump on the 1.5 x 1 ellipse."""
    b = ellipse_wide512
    sino = forward_sinogram(phantom("poly-bump", b), phantom("zero", b), b, AngularGrid(128))
    return project_minus(sino, 32)


def random_trace(boundary, n_modes, seed):
    rng = np.random.default_rng(seed)
    shape = (n_modes + 1, boundary.n_nodes)
    return ModeTrace(boundary, n_modes, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def interior_points(boundary, count, seed, shrink=0.7):
    """Random complex points inside the boundary scaled about the origin by `shrink`."""
    rng = np.random.default_rng(seed)
    nodes = boundary.complex_nodes()
    pick = nodes[rng.integers(0, len(nodes), count)]
    return shrink * np.sqrt(rng.uniform(0.0, 1.0, count)) * pick


def power_sum_del_v(g, d, targets):
    """d v_{-d} by the explicit j-sum with each ratio power taken directly."""
    b = g.boundary
    w = b.complex_nodes()
    wd = b.complex_velocity()
    u = w[None, :] - targets[:, None]
    ratio = np.conj(u) / u
    acc = np.zeros_like(u)
    for j in range(1, (g.n_modes - d) // 2 + 2):
        row = g.data[d + 2 * j - 2][None, :]
        acc += j * wd * row * ratio ** (j - 1)
        if j >= 2:
            acc -= (j - 1) * np.conj(wd) * row * ratio ** (j - 2)
    return np.sum(acc / u ** 2, axis=1) * (2.0 * np.pi / b.n_nodes) / (2.0j * np.pi)


class TestOpS:
    def test_analytic_monomials_are_fixed(self, disk256):
        """p.v. Cauchy integral of w^m on the contour returns w^m."""
        for m in range(5):
            g = algebraic_trace(disk256, 4, {0: lambda w, m=m: w ** m})
            out = op_S(g)
            assert np.max(np.abs(out.data[0] - disk256.complex_nodes() ** m)) < 1e-12
            assert np.max(np.abs(out.data[1:])) == 0.0

    def test_analytic_monomials_on_ellipse(self, ellipse256):
        for m in (1, 3):
            g = algebraic_trace(ellipse256, 4, {0: lambda w, m=m: w ** m})
            out = op_S(g)
            assert np.max(np.abs(out.data[0] - ellipse256.complex_nodes() ** m)) < 1e-10

    def test_conjugate_on_disk(self, disk256):
        """conj(w) = 1/w on the circle: residue at 0 plus half residue at xi."""
        g = algebraic_trace(disk256, 4, {0: np.conj})
        out = op_S(g)
        ref = -np.conj(disk256.complex_nodes())
        assert np.max(np.abs(out.data[0] - ref)) < 1e-12

    def test_linearity(self, disk256):
        rng = np.random.default_rng(23)
        d1 = rng.standard_normal((5, 256)) + 1j * rng.standard_normal((5, 256))
        d2 = rng.standard_normal((5, 256)) + 1j * rng.standard_normal((5, 256))
        from aradon.harmonics import ModeTrace

        s1 = op_S(ModeTrace(disk256, 4, d1)).data
        s2 = op_S(ModeTrace(disk256, 4, d2)).data
        s12 = op_S(ModeTrace(disk256, 4, d1 + 2.0 * d2)).data
        assert np.max(np.abs(s12 - s1 - 2.0 * s2)) < 1e-10


class TestOpG:
    def test_row2_monomial_at_origin(self, disk256):
        """(G g)_0(0) = 4 for g_{-2} = w^2, against direct quadrature."""
        g = algebraic_trace(disk256, 4, {2: lambda w: w ** 2})
        # node_targets -1: an interior target, no diagonal limit
        out = bukhgeim._sweep(g.data, disk256, np.array([0.0j]), np.array([-1]))[0][:, 0]
        # independent phi-parametrized quadrature of the kernel
        phi = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        w = np.exp(1j * phi)
        ratio = np.conj(w) / w
        integrand = (2 / np.pi) * np.imag(1j * w / w) * (w ** 2) * ratio
        ref = np.sum(integrand) * (2 * np.pi / 4096)
        assert abs(ref - 4.0) < 1e-10
        assert abs(out[0] - 4.0) < 1e-8

    def test_shallow_rows_untouched(self, disk256):
        """Row k of G g only sees rows k+2 and deeper."""
        rng = np.random.default_rng(3)
        data = np.zeros((5, 256), dtype=complex)
        data[0] = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        data[1] = rng.standard_normal(256)
        g = algebraic_trace(disk256, 4, {})
        g.data[:] = data
        out = bukhgeim._sweep(g.data, disk256, np.array([0.2 + 0.1j]), np.array([-1]))[0][:, 0]
        assert np.max(np.abs(out[-2:])) == 0.0  # nothing below to couple to


class TestRangeResidual:
    def test_analytic_families(self, disk256):
        for rows in ({0: lambda w: w}, {1: lambda w: w}, {0: lambda w: w ** 2}):
            g = algebraic_trace(disk256, 6, rows)
            res = range_residual_0(g)
            assert res.relative < 1e-8

    def test_conjugate_row_zero_value(self, disk256):
        g = algebraic_trace(disk256, 6, {0: np.conj})
        res = range_residual_0(g)
        ref = 2.0 * np.conj(disk256.complex_nodes())
        assert np.max(np.abs(res.residual.data[0] - ref)) < 1e-8

    def test_phantom_trace_residual_small(self, polybump_trace):
        res = range_residual_0(polybump_trace)
        assert res.relative < 1e-3
        assert res.norm_l1 > 0.0

    def test_hilbert_identity_route(self, disk256):
        """(I + i H0) g must equal the reported residual operator."""
        rng = np.random.default_rng(8)
        data = rng.standard_normal((5, 256)) + 1j * rng.standard_normal((5, 256))
        g = algebraic_trace(disk256, 4, {})
        g.data[:] = data
        res = range_residual_0(g)
        h = hilbert_H0(g)
        direct = g.data + 1j * h.data
        assert np.max(np.abs(res.residual.data - direct)) < 1e-10


class TestCauchyBuild:
    def test_analytic_row0(self, disk256):
        g = algebraic_trace(disk256, 4, {0: lambda w: w ** 2})
        pts = np.array([0.0 + 0.0j, 0.3 + 0.2j, -0.5 - 0.1j])
        v = cauchy_build(g, pts)
        assert np.max(np.abs(v[0] - pts ** 2)) < 1e-10
        assert np.max(np.abs(v[1:])) < 1e-10

    def test_analytic_row1(self, disk256):
        g = algebraic_trace(disk256, 4, {1: lambda w: w})
        pts = np.array([0.25 + 0.4j, -0.3 + 0.3j])
        v = cauchy_build(g, pts)
        assert np.max(np.abs(v[1] - pts)) < 1e-10
        assert np.max(np.abs(v[0])) < 1e-10

    def test_outside_point_raises(self, disk256, polybump_trace):
        with pytest.raises(OutsideDomain):
            cauchy_build(polybump_trace, np.array([1.3 + 0.0j]))

    def test_margin_enforced(self, disk256):
        g = algebraic_trace(disk256, 4, {0: lambda w: w})
        with pytest.raises(TooCloseToBoundary):
            cauchy_build(g, np.array([0.999 + 0.0j]), margin=0.01)

    def test_real_coordinate_input(self, disk256):
        g = algebraic_trace(disk256, 4, {0: lambda w: w ** 2})
        v1 = cauchy_build(g, np.array([[0.3, 0.2]]))
        v2 = cauchy_build(g, np.array([0.3 + 0.2j]))
        assert np.max(np.abs(v1 - v2)) == 0.0

    def test_real_points_must_be_pairs(self, disk256):
        """Real input is (x, y) pairs along its last axis; only a bare real
        scalar is a point on the real axis."""
        g = algebraic_trace(disk256, 4, {0: lambda w: w ** 2})
        for bad in (np.array([0.1, 0.2, 0.3]), np.zeros((4, 3))):
            with pytest.raises(ValueError):
                del_v_minus(g, 1, bad)
            with pytest.raises(ValueError):
                cauchy_build(g, bad)
        assert np.array_equal(cauchy_build(g, 0.3), cauchy_build(g, np.array([0.3 + 0.0j])))


class TestDelVMinus:
    def test_linear_row1_gives_one(self, disk256):
        g = algebraic_trace(disk256, 4, {1: lambda w: w})
        pts = np.array([0.1 + 0.1j, -0.4 + 0.25j, 0.0 + 0.0j])
        d = del_v_minus(g, 1, pts)
        assert np.max(np.abs(d - 1.0)) < 1e-10

    def test_against_finite_differences(self, polybump_trace, ellipse_polybump_trace):
        """Analytic kernels vs 4th-order centered differences of the field."""
        h = 1e-3
        pts = np.array([0.15 + 0.1j, -0.2 + 0.3j])
        depths = (1, 2, 3, 4)
        stencil = np.array([-2, -1, 1, 2])
        wx = np.array([1, -8, 8, -1]) / (12 * h)
        for trace in (polybump_trace, ellipse_polybump_trace):
            exact = del_v_minus(trace, depths, pts)
            vx = np.stack([cauchy_build(trace, pts + s * h) for s in stencil])
            vy = np.stack([cauchy_build(trace, pts + 1j * s * h) for s in stencil])
            for i, depth in enumerate(depths):
                dx = np.einsum("s,sp->p", wx, vx[:, depth])
                dy = np.einsum("s,sp->p", wx, vy[:, depth])
                fd = 0.5 * (dx - 1j * dy)
                assert np.max(np.abs(exact[i] - fd)) < 1e-9

    @pytest.mark.parametrize("which", ["disk", "ellipse"])
    def test_all_orders_match_power_sums(self, which, disk256, ellipse_wide256):
        """One multi-order call agrees with the direct power sum of every order."""
        boundary = disk256 if which == "disk" else ellipse_wide256
        g = random_trace(boundary, 12, seed=5)
        pts = interior_points(boundary, TARGET_CHUNK + 37, seed=6)
        orders = list(range(1, g.n_modes + 1))
        swept = del_v_minus(g, orders, pts)
        assert swept.shape == (len(orders), len(pts))
        for i, d in enumerate(orders):
            ref = power_sum_del_v(g, d, pts)
            assert np.max(np.abs(swept[i] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_order_selection(self, disk256):
        """Single orders, one parity, repeats and any order give the same rows."""
        g = random_trace(disk256, 9, seed=7)
        pts = interior_points(disk256, 20, seed=8)
        full = del_v_minus(g, range(1, 10), pts)
        assert_roundoff(del_v_minus(g, 4, pts), full[3])
        assert_roundoff(del_v_minus(g, [7, 3, 7], pts), full[[6, 2, 6]])
        assert np.all(del_v_minus(g, [12], pts) == 0.0)
        assert np.all(del_v_minus(g, [4, 10 ** 9], pts)[1] == 0.0)
        with pytest.raises(ValueError):
            del_v_minus(g, [-1, 2], pts)

    def test_memory_bounded(self, ellipse_wide512):
        """Kernels over 4096 points x 512 nodes stay far below one dense (P x n) array."""
        g = random_trace(ellipse_wide512, 32, seed=9)
        pts = interior_points(ellipse_wide512, 4096, seed=10)
        for run in (
            lambda: del_v_minus(g, range(1, g.n_modes + 1), pts),
            lambda: cauchy_build(g, pts),
            lambda: del_v_minus(g, range(1, g.n_modes + 1), pts, field=True),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32e6


REF_CHUNK = 128  # targets per pass of the reference loops below


def assert_roundoff(got, ref):
    """Agreement to roundoff of the largest reference value (measured: at
    most 1.5e-15 of it on the disk, ellipse and table cases)."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def ref_G(g_data, boundary, targets, node_targets):
    """G by Horner over the j-powers, one accumulator per parity of rows."""
    w = boundary.complex_nodes()
    wd = boundary.complex_velocity()
    dt = 2.0 * np.pi / boundary.n_nodes
    n_rows = g_data.shape[0]
    out = np.zeros((n_rows, len(targets)), dtype=complex)
    for lo in range(0, len(targets), REF_CHUNK):
        sl = slice(lo, lo + REF_CHUNK)
        diff = w[None, :] - targets[sl, None]
        rows = np.nonzero(node_targets[sl] >= 0)[0]
        cols = node_targets[sl][rows]
        diff[rows, cols] = 1.0
        base = (2.0 / np.pi) * np.imag(wd[None, :] / diff) * dt
        ratio = np.conj(diff) / diff
        base[rows, cols] = (2.0 / np.pi) * (
            boundary.curvatures[cols] * np.abs(wd[cols]) / 2.0) * dt
        ratio[rows, cols] = np.conj(wd[cols]) / wd[cols]
        base = base.astype(complex)
        acc = np.zeros((2,) + ratio.shape, dtype=complex)
        for k in range(n_rows - 3, -1, -1):
            a = acc[k % 2]
            a += g_data[k + 2]
            a *= ratio
            out[k, sl] = np.einsum("pi,pi->p", a, base)
    return out


def ref_cauchy(g, targets):
    """(1/2) G g + C g with C from one matrix product per chunk."""
    b = g.boundary
    w = b.complex_nodes()
    wd = b.complex_velocity()
    c = np.empty((g.n_modes + 1, len(targets)), dtype=complex)
    for lo in range(0, len(targets), REF_CHUNK):
        sl = slice(lo, lo + REF_CHUNK)
        c[:, sl] = g.data @ (wd[None, :] / (w[None, :] - targets[sl, None])).T
    c = c * ((2.0 * np.pi / b.n_nodes) / (2.0j * np.pi))
    return 0.5 * ref_G(g.data, b, targets, np.full(len(targets), -1)) + c


def ref_del_v(g, orders, targets):
    """d v_{-d} by the A/E sweep, fresh work arrays per chunk."""
    b = g.boundary
    w = b.complex_nodes()
    wd = b.complex_velocity()
    weights = np.stack([wd, np.conj(wd)], axis=1)
    orders = np.asarray(orders)
    top = g.n_modes
    out = np.zeros((len(orders), len(targets)), dtype=complex)
    for lo in range(0, len(targets), REF_CHUNK):
        sl = slice(lo, lo + REF_CHUNK)
        u = w[None, :] - targets[sl, None]
        ratio = np.conj(u) / u
        inv_u2 = 1.0 / (u * u)
        for par in (0, 1):
            if not np.any(orders % 2 == par):
                continue
            low = int(np.min(orders[orders % 2 == par]))
            a = np.zeros_like(ratio)
            e = np.zeros_like(ratio)
            c_above = 0.0
            for k in range(top - (top - par) % 2, low - 1, -2):
                a += e
                a *= ratio
                a += g.data[k]
                e *= ratio
                e += g.data[k]
                b_sum, c_sum = (a * inv_u2 @ weights).T
                out[orders == k, sl] = b_sum - c_above
                c_above = c_sum
    return out * ((2.0 * np.pi / b.n_nodes) / (2.0j * np.pi))


@pytest.fixture(scope="module", params=["disk", "ellipse", "table"])
def sweep_case(request, disk256, ellipse_wide256):
    """Random trace and interior points on each boundary kind."""
    if request.param == "disk":
        boundary = disk256
    elif request.param == "ellipse":
        boundary = ellipse_wide256
    else:
        u = 2.0 * np.pi * np.arange(48) / 48
        table = np.column_stack([1.2 * np.cos(u) + 0.1 * np.cos(2 * u), 0.9 * np.sin(u)])
        boundary = make_boundary("table", 192, table=table)
    g = random_trace(boundary, 11, seed=12)
    return g, interior_points(boundary, 75, seed=13)


class TestSharedSweep:
    """G, C and every derivative order from one sweep agree with the separate
    loops to roundoff: the sweep sums the same terms by BLAS products, in
    another order."""

    @pytest.fixture(autouse=True, params=[7, 32, 128])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(bukhgeim, "TARGET_CHUNK", request.param)
        return request.param

    def test_boundary_G(self, sweep_case):
        """The sweep's node-target G on every kind, and the operators' G on a
        point table, which takes it from the sweep (disks and ellipses take
        theirs from the FFT, see TestHankelG)."""
        g, _ = sweep_case
        b = g.boundary
        nodes = np.arange(b.n_nodes)
        ref = ref_G(g.data, b, b.complex_nodes(), nodes)
        assert_roundoff(bukhgeim._sweep(g.data, b, b.complex_nodes(), nodes)[0], ref)
        one = bukhgeim._sweep(g.data, b, b.complex_nodes()[5:6], np.array([5]))[0]
        assert_roundoff(one[:, 0], ref[:, 5])
        if b.kind == "generic":
            assert_roundoff(bukhgeim._boundary_S_G(g)[1], ref)

    def test_boundary_S(self, sweep_case):
        """S from the sweep's principal-value C on the nodes, and H0 and the
        residual built on it, against the dense n x n kernel; a lone node
        target and node targets mixed with interior ones give the same C."""
        g, pts = sweep_case
        b = g.boundary
        s_ref = dense_S(g.data, b)
        g_ref = ref_G(g.data, b, b.complex_nodes(), np.arange(b.n_nodes))
        assert_roundoff(op_S(g).data, s_ref)
        assert_roundoff(hilbert_H0(g).data, 1j * (s_ref + g_ref))
        assert_roundoff(range_residual_0(g).residual.data, g.data - s_ref - g_ref)
        c_ref = (s_ref - g.data) / 2.0
        one = bukhgeim._sweep(g.data, b, b.complex_nodes()[5:6], np.array([5]), with_c=True)[1]
        assert_roundoff(one[:, 0], c_ref[:, 5])
        mix = np.array([-1, 5, -1, -1, 17, 100, -1])
        targets = np.where(mix >= 0, b.complex_nodes()[mix], pts[:len(mix)])
        c = bukhgeim._sweep(g.data, b, targets, mix, with_g=False, with_c=True)[1]
        inner = bukhgeim._sweep(g.data, b, targets[mix < 0], with_g=False, with_c=True)[1]
        assert_roundoff(c[:, mix >= 0], c_ref[:, mix[mix >= 0]])
        assert_roundoff(c[:, mix < 0], inner)

    def test_interior_G(self, sweep_case):
        g, pts = sweep_case
        ref = ref_G(g.data, g.boundary, pts, np.full(len(pts), -1))
        assert_roundoff(bukhgeim._sweep(g.data, g.boundary, pts)[0], ref)
        one = bukhgeim._sweep(g.data, g.boundary, pts[3:4], np.array([-1]))[0]
        assert_roundoff(one[:, 0], ref[:, 3])

    def test_cauchy_build(self, sweep_case):
        g, pts = sweep_case
        assert_roundoff(cauchy_build(g, pts), ref_cauchy(g, pts))

    def test_del_v_minus(self, sweep_case):
        g, pts = sweep_case
        orders = list(range(1, g.n_modes + 1))
        assert_roundoff(del_v_minus(g, 3, pts), ref_del_v(g, [3], pts)[0])
        assert_roundoff(del_v_minus(g, orders, pts), ref_del_v(g, orders, pts))

    def test_fused_field_and_orders(self, sweep_case):
        """The one call reconstruct_f_attenuated makes: v and orders 1..N."""
        g, pts = sweep_case
        orders = range(1, g.n_modes + 1)
        dv, v = del_v_minus(g, orders, pts, field=True)
        assert_roundoff(dv, ref_del_v(g, list(orders), pts))
        assert_roundoff(v, ref_cauchy(g, pts))


class TestBandsAndParts:
    """del_v_minus on a part of a grid and on a band of _kernel_bands."""

    def test_part_index_is_explicit_points(self, disk256):
        """An index array `part` of a grid gives the bits of the call at the
        points it picks."""
        g = random_trace(disk256, 11, seed=14)
        grid = CartesianGrid(disk256, 16, 16)
        idx = np.random.default_rng(15).permutation(len(grid.points))[:TARGET_CHUNK + 9]
        orders = range(1, g.n_modes + 1)
        dv, v = del_v_minus(g, orders, grid, field=True, part=idx)
        dv_ref, v_ref = del_v_minus(g, orders, grid.points[idx], field=True)
        assert np.array_equal(dv, dv_ref) and np.array_equal(v, v_ref)

    def test_coarse_band_against_dense(self, disk512, polybump_trace):
        """The coarsest band's derivative rows are those of its truncated
        trace on its own nodes, by the reference loops."""
        grid = CartesianGrid(disk512, 64, 64)
        band = min(bukhgeim._kernel_bands(polybump_trace, grid), key=lambda b: b.nodes.n_nodes)
        assert band.nodes.n_nodes < disk512.n_nodes
        orders = list(range(1, polybump_trace.n_modes + 1))
        pts = grid.points[band.index]
        coarse = ModeTrace(band.nodes, polybump_trace.n_modes, band.data)
        assert_roundoff(del_v_minus(band, orders, grid, part=band.index),
                        ref_del_v(coarse, orders, pts[:, 0] + 1j * pts[:, 1]))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than double here")
class TestHankelG:
    """G at the nodes of a disk or an ellipse, by FFT convolution, against
    the same discrete sum in long double on exact nodes.  Measured: at most
    2.6e-15 of max|G| in these cases (2.6e-14 to 9.7e-14 for the sweep's G,
    which is exact for the rounded double nodes)."""

    @pytest.mark.parametrize("kind, n, a, b, n_modes", [
        ("unit-disk", 256, 1.0, 1.0, 11),
        ("ellipse", 256, 1.5, 1.0, 11),
        ("ellipse", 256, 1.5, 1.0, 12),
        ("ellipse", 256, 3.0, 1.0, 12),
        ("ellipse", 256, 1.0, 1.7, 11),
        ("ellipse", 255, 1.5, 1.0, 10),
        ("ellipse", 255, 3.0, 1.0, 9),
        ("ellipse", 512, 1.5, 1.0, 32),
        ("unit-disk", 64, 1.0, 1.0, 1),
        ("ellipse", 64, 1.5, 1.0, 1),
    ])
    def test_exact_node_G(self, kind, n, a, b, n_modes):
        """N = 1 leaves no rows two apart: G is exactly zero, as the oracle's."""
        g = random_trace(make_boundary(kind, n, a=a, b=b), n_modes, seed=12)
        ref = exact_node_G(g.data, g.boundary)
        got = bukhgeim._boundary_S_G(g)[1]
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_chunking_moves_no_bits(sweep_case, monkeypatch):
    """Each target is a row of every BLAS product, so G, C and every order
    keep their bits whatever the chunk.  The sizes leave no chunk of one
    target (a matrix-vector product, summed in another order)."""
    g, pts = sweep_case
    orders = range(1, g.n_modes + 1)
    runs = []
    for chunk in (7, 32, 128):
        monkeypatch.setattr(bukhgeim, "TARGET_CHUNK", chunk)
        runs.append(bukhgeim._sweep(g.data, g.boundary, pts, with_c=True, orders=orders))
    for other in runs[1:]:
        for got, first in zip(other, runs[0]):
            assert np.array_equal(got, first)


class TestAAnalyticity:
    def test_phantom_field_defect(self, disk512, polybump_trace):
        patch = CartesianGrid(disk512, 81, 81, margin=0.0,
                              extent=(-0.4, 0.4, -0.4, 0.4))  # h = 0.01
        field = cauchy_build(polybump_trace, patch.points, margin=0.0)
        d = aanaliticity_defect(field, patch)
        assert d <= 1e-4

    def test_defect_shrinks_with_h(self, disk512, polybump_trace):
        vals = []
        for m in (41, 81):
            patch = CartesianGrid(disk512, m, m, margin=0.0, extent=(-0.4, 0.4, -0.4, 0.4))
            field = cauchy_build(polybump_trace, patch.points, margin=0.0)
            vals.append(aanaliticity_defect(field, patch))
        assert vals[1] < 0.5 * vals[0]  # second-order differences


class TestReconstructF0:
    def test_polybump_exact_class(self, disk512, polybump_trace):
        grid = CartesianGrid(disk512, 24, 24, margin=0.05)
        pic = reconstruct_f0(polybump_trace, grid)
        f = phantom("poly-bump", disk512)
        xs, ys = np.meshgrid(grid.xs, grid.ys)
        ref = f(np.stack([xs.ravel(), ys.ravel()], axis=1)).reshape(24, 24)
        mask = grid.valid.reshape(24, 24)
        err = np.abs(pic - ref)[mask]
        assert np.max(err) < 1e-8

    def test_linearity(self, disk512, polybump_trace):
        from aradon.harmonics import ModeTrace

        grid = CartesianGrid(disk512, 12, 12, margin=0.05)
        pic1 = reconstruct_f0(polybump_trace, grid)
        doubled = ModeTrace(disk512, polybump_trace.n_modes, 2.0 * polybump_trace.data)
        pic2 = reconstruct_f0(doubled, grid)
        assert np.max(np.abs(pic2 - 2.0 * pic1)) < 1e-10

    def test_gate_warns_on_inconsistent_input(self, disk512, polybump_trace):
        from aradon.errors import InconsistentInput
        from aradon.harmonics import ModeTrace

        bad = polybump_trace.data.copy()
        bad[0] += 0.5 * np.conj(disk512.complex_nodes())
        g = ModeTrace(disk512, polybump_trace.n_modes, bad)
        grid = CartesianGrid(disk512, 8, 8, margin=0.05)
        with pytest.warns(InconsistentInput):
            reconstruct_f0(g, grid)


class TestGridAndPatch:
    def test_unflatten_round_trip(self, disk256):
        grid = CartesianGrid(disk256, 10, 14, margin=0.05)
        vals = np.arange(np.count_nonzero(grid.valid), dtype=float)
        pic = grid.unflatten(vals)
        assert pic.shape == (14, 10)
        assert np.all(pic[~grid.valid.reshape(14, 10)] == 0.0)

    def test_patch_fully_interior(self, disk256):
        patch = CartesianGrid(disk256, 21, 21, margin=0.0, extent=(-0.3, 0.3, -0.3, 0.3))
        r = np.hypot(patch.points[:, 0], patch.points[:, 1])
        assert len(patch.points) == 21 * 21
        assert np.max(r) < 1.0 - 1e-6
