"""Boundary-integral machinery for A-analytic maps.

An A-analytic map is a sequence-valued function <v_0, v_{-1}, v_{-2}, ...>
with dbar v_n + d v_{n-2} = 0.  Its boundary traces are characterized by
the kernel condition (I + i H_0) g = 0 with H_0 = i (S + G), where C and
S are the componentwise Cauchy integrals (interior and principal-value
boundary versions) and G couples modes k and k+2j through powers of
conj(w - xi)/(w - xi).  This module discretizes all of them with the
trapezoid rule on the uniform boundary parameter (spectrally accurate
for smooth periodic integrands), builds the interior map from its trace,
and evaluates the derivative formula recovering the source as
f = 2 Re(d v_{-1}).

Both coupling kernels are power series in r = conj(w - xi)/(w - xi) over
the trace rows two apart, and one sweep (_sweep) evaluates them
together: each power of r is formed once per chunk of targets and meets
every trace row it multiplies in one BLAS matrix product, r^j times G's
base for G, r^m / (w - xi)^2 for d v_{-d} of every order at once (see
del_v_minus).  The same w'/(w - xi) gives C's kernel, one more product,
and G's base, so the boundary S = I + 2 C (C a principal value on the
nodes) and G, the interior map v = (1/2) G g + C g and every derivative
order share one pass over the kernels.  The targets run in chunks of
TARGET_CHUNK through (chunk x nodes) work arrays allocated once per
call, and are the row dimension of every product, so no value depends
on the chunk size unless a target falls alone into the last chunk (a
matrix-vector product).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TooCloseToBoundary, InconsistentInput, OutsideDomain
from .geometry import ON_BOUNDARY_TOL
from .harmonics import ModeTrace, weighted_norms


class ModeField:
    """Mode data of an A-analytic map sampled at interior points.

    data[k, p] = v_{-k}(xi_p).
    """

    def __init__(self, points, n_modes, data, boundary=None):
        points = np.asarray(points, dtype=float)
        data = np.asarray(data, dtype=complex)
        if data.shape != (n_modes + 1, len(points)):
            raise ValueError("mode field shape mismatch")
        if not np.all(np.isfinite(data)):
            raise ValueError("mode field contains non-finite entries")
        self.points = points
        self.n_modes = int(n_modes)
        self.data = data
        self.boundary = boundary


@dataclass
class RangeResidual:
    """Residual of the range characterization with its summary norms."""

    residual: ModeTrace
    norm_l1: float
    norm_l11: float
    relative: float
    per_mode_max: np.ndarray

    def report(self):
        return {
            "norm_l1": self.norm_l1,
            "norm_l11": self.norm_l11,
            "relative": self.relative,
            "per_mode_max": [float(x) for x in self.per_mode_max],
        }


EPS_FLOOR = 1e-12
# Target points per pass of the (points x nodes) kernels at 512 nodes, and
# a whole multiple of it on fewer nodes.  Measured on one thread, fused field
# and 32 orders at 2876 points of the 512-node ellipse: 16 -> 0.20 s,
# 32 and 64 -> 0.16 s, 128 -> 0.17-0.18 s.
TARGET_CHUNK = 64


def _require_interior(boundary, points, margin, part=slice(None)):
    """The points (their slice `part`) as complex targets, checked to lie
    inside, margin from the curve.

    One signed distance decides both.  A CartesianGrid on this boundary
    stands for its valid points, which passed the same cut at the grid's
    margin: when that covers `margin`, it is not made again.
    """
    if margin is None:
        margin = boundary.interior_margin()
    if isinstance(points, CartesianGrid):
        if points.boundary is boundary and points.margin >= margin:
            return _as_complex_points(points.points[part])
        points = points.points
    z = _as_complex_points(points)[part]
    d = boundary.distance_to_boundary(np.column_stack([z.real, z.imag]))
    if np.any(d < -ON_BOUNDARY_TOL):
        raise OutsideDomain("evaluation point outside the closed domain")
    if margin > 0.0 and np.any(d < margin):
        raise TooCloseToBoundary(
            "evaluation point %g from the boundary; margin is %g "
            "(pass margin=0 to override, or use the trace operators)"
            % (float(np.min(d)), margin)
        )
    return z


def _spectral_derivative(rows):
    """d/dt along the boundary parameter, row-wise, by FFT."""
    n = rows.shape[1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.fft.ifft(1j * k[None, :] * np.fft.fft(rows, axis=1), axis=1)


def op_C(g, xi, margin=None):
    """Interior Cauchy integral of every mode row at one point."""
    targets = _require_interior(g.boundary, xi, margin)
    return _sweep(g.data, g.boundary, targets, with_g=False, with_c=True)[1][:, 0]


def _as_complex_points(points):
    """Points as a 1-D complex array.

    Complex input (scalar or array) passes through; real input is read
    as (x, y) coordinate pairs, with a single bare scalar taken as a
    point on the real axis.
    """
    arr = np.asarray(points)
    if np.iscomplexobj(arr) or arr.ndim == 0:
        return np.atleast_1d(arr.astype(complex))
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1 and arr.shape[0] == 2:
        return np.array([arr[0] + 1j * arr[1]])
    if arr.ndim == 1:
        return arr.astype(complex)
    return arr[:, 0] + 1j * arr[:, 1]


def op_S(g):
    """Boundary principal-value Cauchy integral, componentwise: g + 2 C g,
    with C on the nodes by singularity subtraction (see _sweep), since the
    p.v. integral of dw/(w - xi_0) over a smooth closed curve is pi*i."""
    return ModeTrace(g.boundary, g.n_modes, _boundary_S_G(g, with_g=False)[0])


def _sweep(g_data, boundary, targets, node_targets=None, with_g=True, with_c=False,
           orders=()):
    """G g, C g and d v_{-d} of every order in `orders` at the targets, in one sweep.

    G and the derivatives are power series in r = conj(u)/u, u = w - xi,
    over the trace rows two apart.  Each power of r is formed once per
    chunk of targets, by one elementwise product, and meets every trace
    row it multiplies in one matrix product with the targets as rows:
    B_j = base r^j adds row k + 2j into G's row k, and R_m = r^m / u^2
    applied to the columns M_m[:, d] = (m + 1) (w' g_{d+2m} - conj(w')
    g_{d+2m+2}) (rows past N zero) sums d v_{-d} (see del_v_minus).  C is
    (w'/u) g^T, and w'/u gives G's base.  Node targets (node_targets >= 0)
    get the double-layer diagonal limit kappa |w'| / 2 in the base, the
    tangential limit conj(w')/w' in the ratio, and C's principal value:
    w'/u with its diagonal zeroed, minus g at the target times the row
    sum, plus the smooth quotient's diagonal limit g'.  Targets run in
    chunks of TARGET_CHUNK (times 512 // n on n < 512 nodes) through work
    arrays allocated once per call; each target is a row of every product,
    so no value depends on how targets fall into chunks of two or more.

    Returns (G, C, D), None for each of G and C not asked for; C carries
    its factor dt / (2 pi i) and D has one row per order asked for.
    """
    orders = np.asarray(orders, dtype=int).reshape(-1)
    if np.any(orders < 0):
        raise ValueError("derivative orders must be nonnegative")
    n_rows, n = g_data.shape
    top = n_rows - 1
    w = boundary.complex_nodes()
    wd = boundary.complex_velocity()
    dt = 2.0 * np.pi / n
    scale = dt / (2.0j * np.pi)
    # M_m for the sorted orders with d + 2m <= N, a prefix of them: the
    # others would read only rows past N, which are zero
    uniq, inverse = np.unique(orders, return_inverse=True)
    m = np.arange(max(0, (top - np.min(orders, initial=top + 1)) // 2 + 1))
    active = np.searchsorted(uniq, top - 2 * m, side="right")
    pad = np.vstack([g_data, np.zeros((2, n))])
    mats = [(p + 1) * scale
            * (wd * pad[uniq[:k] + 2 * p] - np.conj(wd) * pad[uniq[:k] + 2 * p + 2])
            for p, k in zip(m, active)]
    n_pow = max(top // 2 + 1 if with_g else 0, len(m))
    g_acc = np.zeros((len(targets), n_rows), dtype=complex) if with_g else None
    c_acc = np.zeros((len(targets), n_rows), dtype=complex) if with_c else None
    d_acc = np.zeros((len(targets), len(uniq)), dtype=complex)
    c_rows = (g_data * scale).T
    gdot = _spectral_derivative(g_data) if with_c and node_targets is not None else None
    chunk = TARGET_CHUNK * max(1, 512 // n)
    work = np.empty((5, min(chunk, len(targets)), n), dtype=complex)
    for lo in range(0, len(targets), chunk):
        sl = slice(lo, lo + chunk)
        u, q, ratio, base, r_pow = work[:, :len(targets[sl])]
        np.subtract(w[None, :], targets[sl, None], out=u)
        if node_targets is not None:
            rows = np.nonzero(node_targets[sl] >= 0)[0]
            cols = node_targets[sl][rows]
            u[rows, cols] = 1.0                  # placeholder, replaced below
        if with_g or with_c:                     # w'/u: G's base and C's kernel
            np.divide(wd[None, :], u, out=q)
        if with_g or len(m):                     # r: G's and the orders' ratio
            np.divide(np.conjugate(u, out=ratio), u, out=ratio)
        if with_g:
            base[...] = (2.0 / np.pi) * np.imag(q) * dt
            if node_targets is not None:
                base[rows, cols] = (2.0 / np.pi) * (
                    boundary.curvatures[cols] * np.abs(wd[cols]) / 2.0
                ) * dt
                ratio[rows, cols] = np.conj(wd[cols]) / wd[cols]
        if with_c:
            if node_targets is not None:         # principal value: S g = g + 2 C g
                q[rows, cols] = 0.0
                c_acc[lo + rows] = scale * (
                    gdot[:, cols] - g_data[:, cols] * np.sum(q[rows], axis=1)).T
            c_acc[sl] += q @ c_rows
        if len(m):
            np.divide(1.0, np.multiply(u, u, out=r_pow), out=r_pow)
        for p in range(n_pow):
            if with_g and 0 < 2 * p <= top:      # base r^p: rows 2p..N into rows 0..N-2p
                base *= ratio
                g_acc[sl, :n_rows - 2 * p] += base @ g_data[2 * p:].T
            if p < len(m):                       # r^p / u^2
                d_acc[sl, :active[p]] += r_pow @ mats[p].T
                r_pow *= ratio
    d_out = d_acc[:, inverse].T
    return (None if g_acc is None else g_acc.T), (None if c_acc is None else c_acc.T), d_out


def _boundary_S_G(g, with_g=True):
    """S g and G g (None without `with_g`) at the nodes, from one sweep: on
    node targets its C is the principal value, so S g = g + 2 C g."""
    b = g.boundary
    gg, cg, _ = _sweep(g.data, b, b.complex_nodes(), np.arange(b.n_nodes), with_g, True)
    return g.data + 2.0 * cg, gg


def hilbert_H0(g):
    """Hilbert transform of the trace: H0 g = i (S g + G g)."""
    s, gg = _boundary_S_G(g)
    return ModeTrace(g.boundary, g.n_modes, 1.0j * (s + gg))


def _make_residual(res_data, in_data, boundary, n_modes):
    res = ModeTrace(boundary, n_modes, res_data)
    l11, _, l1 = weighted_norms(res)
    _, _, l1_in = weighted_norms(ModeTrace(boundary, n_modes, in_data))
    rel = l1 / max(l1_in, EPS_FLOOR)
    per_mode = np.max(np.abs(res_data), axis=1)
    return RangeResidual(res, l1, l11, rel, per_mode)


def range_residual_0(g):
    """Residual (I - S - G) g of the non-attenuated range condition.

    Identical to (I + i H0) g; zero exactly on traces of A-analytic maps.
    """
    s, gg = _boundary_S_G(g)
    res_data = g.data - s - gg
    return _make_residual(res_data, g.data, g.boundary, g.n_modes)


def cauchy_build(g, points, margin=None):
    """Interior A-analytic map from its trace: v_n = (1/2) G g + C g."""
    targets = _require_interior(g.boundary, points, margin)
    gg, cg, _ = _sweep(g.data, g.boundary, targets, with_c=True)
    return _cauchy_field(g, targets, gg, cg)


def _cauchy_field(g, targets, gg, cg):
    pts = np.column_stack([targets.real, targets.imag])
    return ModeField(pts, g.n_modes, 0.5 * gg + cg, g.boundary)


class CartesianGrid:
    """Regular Cartesian grid clipped to the domain interior.

    Points are ordered row-major with x varying fastest.  One signed
    distance sets `inside` (the closed domain) and `valid` (at least
    `margin` inside it); evaluation happens on the valid subset and
    `unflatten` scatters values back to the (ny, nx) picture with zeros
    elsewhere.
    """

    def __init__(self, boundary, nx, ny, margin=None, extent=None):
        if extent is None:
            lo = np.min(boundary.positions, axis=0)
            hi = np.max(boundary.positions, axis=0)
            extent = (lo[0], hi[0], lo[1], hi[1])
        self.boundary = boundary
        self.nx = int(nx)
        self.ny = int(ny)
        self.xs = np.linspace(extent[0], extent[1], nx)
        self.ys = np.linspace(extent[2], extent[3], ny)
        gx, gy = np.meshgrid(self.xs, self.ys)
        self.points_all = np.column_stack([gx.ravel(), gy.ravel()])
        self.margin = boundary.interior_margin() if margin is None else float(margin)
        dist = boundary.distance_to_boundary(self.points_all)
        self.inside = dist >= -ON_BOUNDARY_TOL
        self.valid = dist >= self.margin
        self.points = self.points_all[self.valid]

    def unflatten(self, values, fill=0.0):
        out = np.full(self.ny * self.nx, fill, dtype=np.asarray(values).dtype)
        out[self.valid] = values
        return out.reshape(self.ny, self.nx)


def del_v_minus(g, d, points, field=False, part=slice(None)):
    """d v_{-d} at interior points from the trace, by explicit kernels.

    2 pi i times the value is the j-sum of dw-integrals with kernels
    j conj(w-xi)^{j-1}/(w-xi)^{j+1} against trace rows d + 2j - 2, minus
    the dconj(w)-integrals with (j-1) conj(w-xi)^{j-2}/(w-xi)^j.  With
    r = conj(w-xi)/(w-xi) and A_d = sum_j j row_{d+2j-2} r^{j-1},
    the integrand is (w' A_d - conj(w') A_{d+2}) / (w-xi)^2.  Collected by
    powers of r instead, with rows past N zero,

        2 pi i d v_{-d} = dt sum_m sum_nodes r^m / (w-xi)^2
                          (m + 1) (w' row_{d+2m} - conj(w') row_{d+2m+2}),

    so each power r^m / (w-xi)^2 gives every order asked for by one
    matrix product with these columns, O(N^2 P n) flops of BLAS for P
    points and n nodes.

    d is one order, giving shape (P,), or a sequence of orders, giving
    shape (len(d), P) in the order asked.  points may be a CartesianGrid,
    for its valid points (see _require_interior).  With `field` the same sweep
    also builds the map itself, and the call returns the pair
    (derivatives, cauchy_build(g, points)).  `part`, a slice of the points,
    evaluates at those alone.
    """
    targets = _require_interior(g.boundary, points, None, part)
    gg, cg, out = _sweep(g.data, g.boundary, targets, with_g=field, with_c=field, orders=d)
    out = out[0] if np.ndim(d) == 0 else out
    return (out, _cauchy_field(g, targets, gg, cg)) if field else out


def reconstruct_f0(g, grid, gate=0.05):
    """Source term from consistent non-attenuated boundary data.

    Returns the picture 2 Re(d v_{-1}) on the grid (zeros outside the
    evaluated region).  A residual above the gate only warns: the
    reconstruction formula stays well defined on inconsistent input, it
    just stops meaning anything.
    """
    check = range_residual_0(g)
    if check.relative > gate:
        warnings.warn(
            "range residual %.3g exceeds the gate %.3g; input may not be "
            "in range" % (check.relative, gate),
            InconsistentInput,
        )
    vals = 2.0 * np.real(del_v_minus(g, 1, grid))
    return grid.unflatten(vals)
