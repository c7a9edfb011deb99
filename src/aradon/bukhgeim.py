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
the trace rows two apart, and one downward sweep (_sweep) evaluates
them together: d v_{-d} of every order d at once through
A_d = row_d + r (A_{d+2} + E_{d+2}) and E_d = row_d + r E_{d+2} (see
del_v_minus), and G's Horner bracket for row k, which is r E_{k+2}.
The same w'/(w - xi) gives C's kernel and G's base, so the boundary G,
the interior map v = (1/2) G g + C g and every derivative order share
one pass over the kernels.  The sweep runs over the target points in
chunks of TARGET_CHUNK, updating (chunk x nodes) work arrays allocated
once per call; 32 targets keep the arrays the inner loop reads inside a
2 MB L2 at 512 nodes, and fewer nodes take whole multiples of 32.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TooCloseToBoundary, InconsistentInput, OutsideDomain
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
# a whole multiple of it on fewer nodes: up to 512 nodes each complex work
# array takes at most 256 KB, so the six the sweep's inner loop reads fit a
# 2 MB L2, and small boundaries do not pay the per-pass overhead more often.
TARGET_CHUNK = 32


def _require_interior(boundary, points, margin):
    if margin is None:
        margin = boundary.interior_margin()
    z = _as_complex_points(points)
    pts = np.column_stack([z.real, z.imag])
    if not np.all(boundary.contains(pts)):
        raise OutsideDomain("evaluation point outside the closed domain")
    if margin <= 0.0:
        return
    d = boundary.distance_to_boundary(pts)
    if np.any(d < margin):
        worst = float(np.min(d))
        raise TooCloseToBoundary(
            "evaluation point %g from the boundary; margin is %g "
            "(pass margin=0 to override, or use the trace operators)"
            % (worst, margin)
        )


def _spectral_derivative(rows):
    """d/dt along the boundary parameter, row-wise, by FFT."""
    n = rows.shape[1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.fft.ifft(1j * k[None, :] * np.fft.fft(rows, axis=1), axis=1)


def op_C(g, xi, margin=None):
    """Interior Cauchy integral of every mode row at one point."""
    _require_interior(g.boundary, xi, margin)
    return _sweep(g.data, g.boundary, _as_complex_points(xi), with_g=False, with_c=True)[1][:, 0]


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
    """Boundary principal-value Cauchy integral, componentwise.

    Uses singularity subtraction: the smooth difference quotient is
    integrated by the trapezoid rule with the diagonal replaced by its
    limit (the parameter derivative of the mode values, computed
    spectrally), and the subtracted constant contributes exactly itself
    since the p.v. integral of dw/(w - xi_0) over a smooth closed curve
    is pi*i.
    """
    return ModeTrace(g.boundary, g.n_modes, _S_apply(g.data, g.boundary))


def _S_apply(g_data, boundary):
    n = boundary.n_nodes
    w = boundary.complex_nodes()
    wd = boundary.complex_velocity()
    dt = 2.0 * np.pi / n
    diff = w[None, :] - w[:, None]           # [m, i] = w_i - w_m
    np.fill_diagonal(diff, 1.0)
    kernel = wd[None, :] / diff
    np.fill_diagonal(kernel, 0.0)
    row_sum = np.sum(kernel, axis=1)
    gdot = _spectral_derivative(g_data)
    smooth = (
        np.einsum("ki,mi->km", g_data, kernel, optimize=False)
        - g_data * row_sum[None, :]
        + gdot
    )
    return smooth * (dt / (1.0j * np.pi)) + g_data


def _sweep(g_data, boundary, targets, node_targets=None, with_g=True, with_c=False,
           orders=()):
    """G g, C g and d v_{-d} of every order in `orders` at the targets, in one sweep.

    G and the derivatives are power series in r = conj(u)/u, u = w - xi,
    over the trace rows two apart.  One downward sweep per parity of rows
    keeps E_k = row_k + r E_{k+2} and, from the lowest order asked for up,
    A_k = row_k + r (A_{k+2} + E_{k+2}) (see del_v_minus).  G's Horner
    bracket for row k, r (g_{k+2} + r (g_{k+4} + ...)), is r E_{k+2}: it is
    read just before row k is added.  D's kernel sums are formed only on
    the rows D reads, each order's and the one two above.  wd/u is C's
    kernel and gives G's base.  Node targets (node_targets >= 0, G only)
    get the double-layer diagonal limit kappa |w'| / 2 in the base and
    the tangential limit conj(w')/w' in the ratio.  Targets run in
    chunks of TARGET_CHUNK (times 512 // n on n < 512 nodes) through
    work arrays allocated once per call.

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
    weights = np.stack([wd, np.conj(wd)], axis=1)
    lowest = {par: int(np.min(orders[orders % 2 == par]))
              for par in (0, 1) if np.any(orders % 2 == par)}
    read = set(orders.tolist()) | set((orders + 2).tolist())   # rows whose sums D reads
    # lowest row each parity's sweep reaches: every row for G
    stop = {0: 0, 1: 1} if with_g else lowest
    g_out = np.zeros((n_rows, len(targets)), dtype=complex) if with_g else None
    c_out = np.empty((n_rows, len(targets)), dtype=complex) if with_c else None
    d_out = np.zeros((len(orders), len(targets)), dtype=complex)
    chunk = TARGET_CHUNK * max(1, 512 // n)
    work = np.empty((8, min(chunk, len(targets)), n), dtype=complex)
    for lo in range(0, len(targets), chunk):
        sl = slice(lo, lo + chunk)
        u, q, ratio, base, e, a, inv_u2, t = work[:, :len(targets[sl])]
        np.subtract(w[None, :], targets[sl, None], out=u)
        if node_targets is not None:
            rows = np.nonzero(node_targets[sl] >= 0)[0]
            cols = node_targets[sl][rows]
            u[rows, cols] = 1.0                  # placeholder, replaced below
        np.divide(wd[None, :], u, out=q)
        np.divide(np.conjugate(u, out=ratio), u, out=ratio)
        if with_g:
            base[...] = (2.0 / np.pi) * np.imag(q) * dt
            if node_targets is not None:
                base[rows, cols] = (2.0 / np.pi) * (
                    boundary.curvatures[cols] * np.abs(wd[cols]) / 2.0
                ) * dt
                ratio[rows, cols] = np.conj(wd[cols]) / wd[cols]
        if with_c:
            c_out[:, sl] = g_data @ q.T
        if lowest:
            np.divide(1.0, np.multiply(u, u, out=inv_u2), out=inv_u2)
        for par, end in stop.items():
            low = lowest.get(par, top + 1)
            a.fill(0.0)
            e.fill(0.0)
            c_above = 0.0                        # conj(w')-sum of A_{k+2}
            for k in range(top - (top - par) % 2, end - 1, -2):
                row = g_data[k]
                if k >= low:
                    a += e
                    a *= ratio
                    a += row
                e *= ratio
                if with_g and k <= top - 2:      # rows N-1, N couple to nothing
                    g_out[k, sl] = np.einsum("pi,pi->p", e, base)
                e += row
                if k in read:
                    np.multiply(a, inv_u2, out=t)
                    b, c = (t @ weights).T
                    d_out[orders == k, sl] = b - c_above
                    c_above = c
    if with_c:
        c_out *= dt / (2.0j * np.pi)
    d_out *= dt / (2.0j * np.pi)
    return g_out, c_out, d_out


def _G_boundary(g_data, boundary):
    targets = boundary.complex_nodes()
    node_targets = np.arange(boundary.n_nodes)
    return _sweep(g_data, boundary, targets, node_targets)[0]


def hilbert_H0(g):
    """Hilbert transform of the trace: H0 g = i (S g + G g)."""
    data = 1.0j * (_S_apply(g.data, g.boundary) + _G_boundary(g.data, g.boundary))
    return ModeTrace(g.boundary, g.n_modes, data)


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
    res_data = g.data - _S_apply(g.data, g.boundary) - _G_boundary(g.data, g.boundary)
    return _make_residual(res_data, g.data, g.boundary, g.n_modes)


def cauchy_build(g, points, margin=None):
    """Interior A-analytic map from its trace: v_n = (1/2) G g + C g."""
    _require_interior(g.boundary, points, margin)
    targets = _as_complex_points(points)
    gg, cg, _ = _sweep(g.data, g.boundary, targets, with_c=True)
    return _cauchy_field(g, targets, gg, cg)


def _cauchy_field(g, targets, gg, cg):
    pts = np.column_stack([targets.real, targets.imag])
    return ModeField(pts, g.n_modes, 0.5 * gg + cg, g.boundary)


class CartesianGrid:
    """Regular Cartesian grid clipped to the domain interior.

    Points are ordered row-major with x varying fastest.  `valid` marks
    points inside the domain at roughly `margin` distance from the
    boundary; evaluation happens on the valid subset and `unflatten`
    scatters values back to the (ny, nx) picture with zeros elsewhere.
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
        self.hx = float(self.xs[1] - self.xs[0]) if nx > 1 else 1.0
        self.hy = float(self.ys[1] - self.ys[0]) if ny > 1 else 1.0
        gx, gy = np.meshgrid(self.xs, self.ys)
        self.points_all = np.column_stack([gx.ravel(), gy.ravel()])
        self.margin = boundary.interior_margin() if margin is None else float(margin)
        inside = boundary.contains(self.points_all)
        dist = boundary.distance_to_boundary(self.points_all)
        self.valid = inside & (dist >= self.margin)
        self.points = self.points_all[self.valid]

    def unflatten(self, values, fill=0.0):
        out = np.full(self.ny * self.nx, fill, dtype=np.asarray(values).dtype)
        out[self.valid] = values
        return out.reshape(self.ny, self.nx)


def del_v_minus(g, d, points, margin=None, field=False):
    """d v_{-d} at interior points from the trace, by explicit kernels.

    2 pi i times the value is the j-sum of dw-integrals with kernels
    j conj(w-xi)^{j-1}/(w-xi)^{j+1} against trace rows d + 2j - 2, minus
    the dconj(w)-integrals with (j-1) conj(w-xi)^{j-2}/(w-xi)^j.  With
    r = conj(w-xi)/(w-xi) and the sums

        A_d = sum_j j row_{d+2j-2} r^{j-1},   E_d = sum_j row_{d+2j-2} r^{j-1},

    the integrand is (w' A_d - conj(w') A_{d+2}) / (w-xi)^2, and

        A_d = row_d + r (A_{d+2} + E_{d+2}),   E_d = row_d + r E_{d+2},

    so one downward sweep from row N, per parity of the orders asked
    for, gives every order at once in O(N P n) for P points and n nodes.

    d is one order, giving shape (P,), or a sequence of orders, giving
    shape (len(d), P) in the order asked.  With `field` the same sweep
    also builds the map itself, and the call returns the pair
    (derivatives, cauchy_build(g, points)).
    """
    _require_interior(g.boundary, points, margin)
    targets = _as_complex_points(points)
    gg, cg, out = _sweep(g.data, g.boundary, targets, with_g=field, with_c=field, orders=d)
    out = out[0] if np.ndim(d) == 0 else out
    return (out, _cauchy_field(g, targets, gg, cg)) if field else out


def reconstruct_f0(g, grid, margin=None, gate=0.05):
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
    vals = 2.0 * np.real(del_v_minus(g, 1, grid.points, margin=margin))
    return grid.unflatten(vals)
