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
base for G, r^m / (w - xi)^2 for d v_{-d} of every order at once, against
a contiguous slice of one table of node rows (see _sweep).  The same
w'/(w - xi) gives C's kernel, one more product, and G's base, so the
interior map v = (1/2) G g + C g and every derivative order share one
pass over the kernels, and so do the boundary S = I + 2 C (C a principal
value on the nodes) and G on a point table.
The targets run in chunks of TARGET_CHUNK through (chunk x nodes) work
arrays allocated once per call, and are the row dimension of every
product, so no value depends on the chunk size (a lone last target joins
the chunk before it, where it would make a matrix-vector product).

Far from the curve the kernels need fewer nodes: both reconstructs
evaluate each grid point against the trace truncated by FFT onto the
coarsest of n/2, n/4, ... nodes that its distance, the mode count and
the trace's spectrum allow (_kernel_bands).

On a disk or an ellipse, G at the nodes is a Hankel operator (its
kernels depend on t_i + t_l alone), and _hankel_G applies it by FFTs in
O(N^2 n + N n log n) in place of the sweep's N^2/4 dense n x n products.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TooCloseToBoundary, InconsistentInput, OutsideDomain
from .geometry import ON_BOUNDARY_TOL, make_boundary
from .harmonics import ModeTrace, weighted_norms


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
# Far-point bands (_kernel_bands): spacing factor, mode floor and spectral
# tail tolerance.  On the disk at 512 nodes and N = 32, factor 9 moves the
# attenuated picture by at most 1.2e-12 of max|f|, and factor 6 moves it by
# 2.8e-7 with a sigma = 0.18 Gaussian `a`, whose high mode rows decay
# slowly.  The tail test keeps the 1.5 x 1 ellipse (g tail 2.4e-7 at
# |k| >= 128) on all nodes.
BAND_SPACINGS = 9.0
BAND_MODE_FLOOR = 4
BAND_TAIL_TOL = 1e-9


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
            "evaluation point %g from the boundary; margin is %g"
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
    as (x, y) coordinate pairs along its last axis, which must have length
    2, with a single bare scalar taken as a point on the real axis.
    """
    arr = np.asarray(points)
    if np.iscomplexobj(arr) or arr.ndim == 0:
        return np.atleast_1d(arr.astype(complex))
    if arr.shape[-1] != 2:
        raise ValueError("real points must be (x, y) pairs, got shape %s" % (arr.shape,))
    pairs = np.asarray(arr, dtype=float).reshape(-1, 2)
    return pairs[:, 0] + 1j * pairs[:, 1]


def op_S(g):
    """Boundary principal-value Cauchy integral, componentwise: g + 2 C g,
    with C on the nodes by singularity subtraction (see _sweep), since the
    p.v. integral of dw/(w - xi_0) over a smooth closed curve is pi*i."""
    return ModeTrace(g.boundary, g.n_modes, _boundary_S_G(g, with_g=False)[0])


def _slices(n, size):
    """Slices of range(n), `size` long; a lone last index joins the slice
    before it (one row would make a BLAS product a matrix-vector one)."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _sweep(g_data, boundary, targets, node_targets=None, with_g=True, with_c=False,
           orders=()):
    """G g, C g and d v_{-d} of every order in `orders` at the targets, in one sweep.

    G and the derivatives are power series in r = conj(u)/u, u = w - xi,
    over the trace rows two apart.  Each power of r is formed once per
    chunk of targets, by one elementwise product, and meets every trace
    row it multiplies in one matrix product with the targets as rows:
    B_j = base r^j adds row k + 2j into G's row k, and R_m = r^m / u^2
    applied to the rows P_{d+2m} of one table, P_k = dt/(2 pi i) (w' g_k
    - conj(w') g_{k+2}) (rows past N zero), and scaled by m + 1, sums
    d v_{-d} (see del_v_minus): for the orders' range d_lo..d_hi each
    power reads the contiguous rows d_lo+2m..d_hi+2m, and the orders asked
    for are picked from the range at the end.  C is (w'/u) g^T, and w'/u
    gives G's base.  Node targets (node_targets >= 0) get the double-layer
    diagonal limit kappa |w'| / 2 in the base, the tangential limit
    conj(w')/w' in the ratio, and C's principal value: w'/u with its
    diagonal zeroed, minus g at the target times the row sum, plus the
    smooth quotient's diagonal limit g'.  Targets run in chunks of
    TARGET_CHUNK (times 512 // n on n < 512 nodes, a lone last target
    joining the chunk before it) through work arrays allocated once per
    call, only those the outputs asked for need; each target is a row of
    every product, so no value depends on the chunks.

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
    # orders past N read only zero rows and share one zero column, at N + 1;
    # no orders: an empty range, so no powers and no columns
    orders = np.minimum(orders, top + 1)
    d_lo, d_hi = (np.min(orders), np.max(orders)) if orders.size else (top + 1, top)
    n_dpow = max(0, (top - d_lo) // 2 + 1)         # powers that reach a row <= N
    if n_dpow:
        pad = np.vstack([g_data, np.zeros((2, n))])
        table = scale * (wd * pad[:-2] - np.conj(wd) * pad[2:])
    n_pow = max(top // 2 + 1 if with_g else 0, n_dpow)
    g_acc = np.zeros((len(targets), n_rows), dtype=complex) if with_g else None
    c_acc = np.zeros((len(targets), n_rows), dtype=complex) if with_c else None
    d_acc = np.zeros((len(targets), d_hi - d_lo + 1), dtype=complex)
    c_rows = (g_data * scale).T
    gdot = _spectral_derivative(g_data) if with_c and node_targets is not None else None
    chunks = _slices(len(targets), TARGET_CHUNK * max(1, 512 // n))
    # u, q = w'/u, ratio, base and r_pow, each only if an output reads it,
    # in one block: separate ones each fault in every page on every call
    needed = [bool(x) for x in (True, with_g or with_c, with_g or n_dpow, with_g, n_dpow)]
    largest = max((sl.stop - sl.start for sl in chunks), default=0)
    planes = iter(np.empty((sum(needed), largest, n), dtype=complex))
    work = [next(planes) if x else None for x in needed]
    for sl in chunks:
        lo = sl.start
        u, q, ratio, base, r_pow = (None if x is None else x[:sl.stop - lo] for x in work)
        np.subtract(w[None, :], targets[sl, None], out=u)
        if node_targets is not None:
            rows = np.nonzero(node_targets[sl] >= 0)[0]
            cols = node_targets[sl][rows]
            u[rows, cols] = 1.0                  # placeholder, replaced below
        if with_g or with_c:                     # w'/u: G's base and C's kernel
            np.divide(wd[None, :], u, out=q)
        if with_g or n_dpow:                     # r: G's and the orders' ratio
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
        if n_dpow:
            np.divide(1.0, np.multiply(u, u, out=r_pow), out=r_pow)
        for p in range(n_pow):
            if with_g and 0 < 2 * p <= top:      # base r^p: rows 2p..N into rows 0..N-2p
                base *= ratio
                g_acc[sl, :n_rows - 2 * p] += base @ g_data[2 * p:].T
            if p < n_dpow:                       # r^p / u^2: rows d_lo+2p..min(d_hi+2p, N)
                k = min(d_hi, top - 2 * p) - d_lo + 1
                d_acc[sl, :k] += (p + 1) * (r_pow @ table[d_lo + 2 * p:d_lo + 2 * p + k].T)
                r_pow *= ratio
    d_out = d_acc[:, orders - d_lo].T
    return (None if g_acc is None else g_acc.T), (None if c_acc is None else c_acc.T), d_out


def _hankel_G(g_data, boundary):
    """G g at the nodes of a disk or an ellipse, by FFT convolution.

    With w = A e^{it} + B e^{-it}, A = (a + b)/2, B = (a - b)/2, G's node
    kernels depend on phi = t_i + t_l alone: the double layer
    (2/pi) Im(w'_l / (w_l - w_i)) = (2/pi) ab / (a^2 + b^2 - (a^2 - b^2) cos phi)
    and r = -e^{-i phi} (A - B e^{i phi}) / (A - B e^{-i phi}); at i = l
    they are the diagonal limits kappa |w'| / 2 and conj(w') / w'.  Row k
    at node i is sum_p sum_l K_p(phi_{(i+l) mod n}) g_{k+2p}(l), K_p =
    dt (2/pi) ab / (...) r^p, whose DFT is sum_p DFT(K_p) DFT(g_{k+2p})
    read at minus the frequency.  Taken at the exact node angles, this is
    the operator of the exact nodes, not of their rounded positions.
    """
    n_rows, n = g_data.shape
    a, b = boundary.a, boundary.b
    dt = 2.0 * np.pi / n
    phi = dt * np.arange(n)
    e = np.exp(-1j * phi)
    z = 0.5 * (a + b) - 0.5 * (a - b) * e
    ratio = -e * np.conj(z) / z
    k_pow = (2.0 / np.pi) * dt * a * b / (a * a + b * b - (a * a - b * b) * np.cos(phi))
    g_hat = np.fft.fft(g_data, axis=1)[:, -np.arange(n) % n]
    acc = np.zeros((n_rows, n), dtype=complex)
    for p in range(1, (n_rows - 1) // 2 + 1):   # K_p: rows 2p..N into rows 0..N-2p
        k_pow = k_pow * ratio
        acc[:n_rows - 2 * p] += np.fft.fft(k_pow) * g_hat[2 * p:]
    return np.fft.ifft(acc, axis=1)


def _boundary_S_G(g, with_g=True):
    """S g and G g (None without `with_g`) at the nodes: S g = g + 2 C g
    with the sweep's principal-value C, G from the same sweep on a point
    table and from _hankel_G on a disk or an ellipse."""
    b = g.boundary
    hankel = with_g and b.kind != "generic"
    gg, cg, _ = _sweep(g.data, b, b.complex_nodes(), np.arange(b.n_nodes),
                       with_g and not hankel, True)
    if hankel:
        gg = _hankel_G(g.data, b)
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
    """Interior A-analytic map from its trace: v_n = (1/2) G g + C g, as an
    (N+1, P) array whose row k is v_{-k} at the P points."""
    targets = _require_interior(g.boundary, points, margin)
    gg, cg, _ = _sweep(g.data, g.boundary, targets, with_c=True)
    return 0.5 * gg + cg


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
        self.distance = dist[self.valid]         # the valid points' signed distance

    def unflatten(self, values, fill=0.0):
        out = np.full(self.ny * self.nx, fill, dtype=np.asarray(values).dtype)
        out[self.valid] = values
        return out.reshape(self.ny, self.nx)


class _KernelTrace:
    """A trace as the derivative kernels read it: its rows on the nodes of
    `nodes` (the trace's own boundary, or fewer nodes of the same curve).
    `boundary` is the trace's, so targets are checked against its curve;
    `index` picks the grid's valid points it serves."""

    def __init__(self, g, nodes=None, data=None, index=None):
        self.boundary = g.boundary
        self.nodes = g.boundary if nodes is None else nodes
        self.data = g.data if data is None else data
        self.index = index


def _kernel_bands(g, grid):
    """The grid's valid points split by the nodes their kernels read: one
    _KernelTrace, with its `index`, per node count that has points, made
    one at a time, so a band's trace goes once the caller moves on.

    Far from the curve the trapezoid rule converges geometrically in the
    distance over the node spacing (Trefethen & Weideman, SIAM Rev. 56
    (2014) 385), so a target at distance d reads the trace truncated by
    FFT onto the coarsest m of n/2, n/4, ... with m >= BAND_MODE_FLOOR * N
    nodes, d >= BAND_SPACINGS * perimeter / m, and the trace's spectrum at
    |k| >= m/2 within BAND_TAIL_TOL of its largest coefficient; the rest
    read all n nodes.  The distances are the grid's own; a grid on another
    boundary object, or n nodes that allow no halving, read all n nodes
    everywhere, with no FFT taken.
    """
    b = g.boundary
    n = b.n_nodes
    floor = max(BAND_MODE_FLOOR * g.n_modes, 16)   # and make_boundary's 16 nodes
    if grid.boundary is not b or n % 4 or n // 2 < floor:
        yield _KernelTrace(g, index=np.arange(len(grid.points)))
        return
    spec = np.fft.fft(g.data, axis=1)
    amp = np.max(np.abs(spec), axis=0)
    freq = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    sizes = [n]
    # even halvings of n, no fewer than the floor
    while (sizes[-1] % 4 == 0 and sizes[-1] // 2 >= floor
           and np.max(amp[freq >= sizes[-1] // 4]) <= BAND_TAIL_TOL * np.max(amp)):
        sizes.append(sizes[-1] // 2)
    level = np.zeros(len(grid.points), dtype=int)
    for i, m in enumerate(sizes[1:], 1):
        level[grid.distance >= BAND_SPACINGS * b.perimeter / m] = i
    for i, m in enumerate(sizes):
        index = np.flatnonzero(level == i)
        if len(index) and m == n:
            yield _KernelTrace(g, index=index)
        elif len(index):
            # modes |k| < m/2; the one at m/2 is part of the dropped tail
            kept = np.hstack([spec[:, :m // 2], np.zeros((len(spec), 1)),
                              spec[:, n - m // 2 + 1:]])
            nodes = make_boundary(b.kind, m, b.a, b.b, getattr(b, "table", None))
            yield _KernelTrace(g, nodes, np.fft.ifft(kept, axis=1) * (m / n), index)


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
    matrix product with a slice of one table of these node rows (see
    _sweep), O(N^2 P n) flops of BLAS for P points and n nodes.

    d is one order, giving shape (P,), or a sequence of orders, giving
    shape (len(d), P) in the order asked.  points may be a CartesianGrid,
    for its valid points (see _require_interior).  With `field` the same sweep
    also builds the map itself, and the call returns the pair
    (derivatives, cauchy_build(g, points)).  `part`, a slice or an index
    array of the points, evaluates at those alone.  g may be a band of
    _kernel_bands, whose kernels read its trace on the band's nodes.
    """
    trace = g if isinstance(g, _KernelTrace) else _KernelTrace(g)
    targets = _require_interior(g.boundary, points, None, part)
    gg, cg, out = _sweep(trace.data, trace.nodes, targets, with_g=field, with_c=field,
                         orders=d)
    out = out[0] if np.ndim(d) == 0 else out
    return (out, 0.5 * gg + cg) if field else out


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
    vals = np.empty(len(grid.points))
    for band in _kernel_bands(g, grid):
        vals[band.index] = 2.0 * np.real(del_v_minus(band, 1, grid, part=band.index))
    return grid.unflatten(vals)
