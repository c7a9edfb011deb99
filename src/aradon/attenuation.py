"""Integrating factors and the attenuated range machinery.

The special integrating factor h = Da - (1/2)(I - iH)Ra (with H the
finite Hilbert transform in the offset variable) has the property that
e^{-h} and e^{+h} carry only nonnegative angular Fourier modes.  Their
mode sequences alpha and beta conjugate the attenuated problem to the
non-attenuated one: H_a = beta * H_0 (alpha * .), the attenuated range
condition is (I + i H_a) applied to the nonpositive projection, and the
source is recovered from u = beta * v via f = 2 Re(d u_{-1}) + a u_0.

build_h computes Ra and its finite Hilbert transform on the symmetric
offset grid of `s_samples` points once per direction pair theta,
theta + pi: Ra(s, theta + pi) = Ra(-s, theta).  One not-a-knot cubic
spline fit per build interpolates every profile between the offsets.
The interior factors are streamed: build_h walks the inside points of the
grid in chunks and keeps only beta there, and the attenuated reconstruct
walks the valid points the same way, so neither h nor any per-point
transform of it is held on the whole grid.

Factor builds validate their own algebra: alpha * beta must reproduce
the convolution identity and the negative modes of e^{+-h} must vanish
to tolerance, otherwise the build raises instead of guessing at signs.
"""

import warnings
from functools import lru_cache

import numpy as np

from .errors import (
    SupportTouchesEdge,
    FactorBuildError,
    GridMismatch,
    InconsistentInput,
)
from .harmonics import ModeTrace, convolve, convolve_seq
from .bukhgeim import (
    hilbert_H0,
    _make_residual,
    del_v_minus,
    reconstruct_f0,
)
from .xray import QuadSettings, chord_integrals, radon_profile, ray_span, _directions

# Entries of h (inside points x directions) per pass of build_h's interior
# stream, 1024 points at 128 angles; entries of e^{-+h} and their FFTs per
# block of _factor_modes; valid grid points per pass of the attenuated
# reconstruct (a whole number of bukhgeim's TARGET_CHUNK at 512 nodes, so
# the kernels see the targets in the chunks of one whole call).
H_CHUNK = 1 << 17
MODE_CHUNK = 1 << 15
RECON_CHUNK = 1024


@lru_cache(maxsize=None)  # keyed by sample count: one per offset grid
def _hilbert_kernel_spectrum(n):
    """FFT length and read-only rfft of the 1/k kernel on shifts 1-n..n-1."""
    shifts = np.arange(1 - n, n, dtype=float)
    kern = np.where(shifts == 0.0, 0.0, 1.0 / np.where(shifts == 0.0, 1.0, shifts))
    # The linear convolution of n samples with the 2n-1 taps has 3n-2
    # terms, of which n-1..2n-2 are kept.  A circular one of length
    # L >= 2n-1 folds term k onto k - L, and neither k + L >= 3n-2 nor
    # k - L < 0 reaches the kept ones from the computed range 0..3n-3.
    nfft = 1
    while nfft < 2 * n - 1:
        nfft *= 2
    spectrum = np.fft.rfft(kern, nfft)
    spectrum.flags.writeable = False
    return nfft, spectrum


def finite_hilbert(samples):
    """Finite Hilbert transform on a uniform grid, compact support inside.

    Evaluates (1/pi) p.v. integral of f(t)/(s - t) dt at every grid
    point by pairing t = s - u against t = s + u (the odd combination is
    regular at u = 0) plus the trapezoid endpoint term, which restores
    second-order accuracy:

        H_i = (1/pi) [ sum_{k>=1} (f_{i-k} - f_{i+k})/k - (f_{i+1} - f_{i-1})/2 ]

    The grid spacing cancels.  Endpoint samples must vanish: the scheme
    assumes the support is strictly inside the grid.  Samples of shape
    (S, k) are k profiles, one per column, each transformed as alone.
    """
    f = np.asarray(samples, dtype=float)
    n = len(f)
    if n < 4:
        raise ValueError("need at least 4 samples")
    first, last = np.max(np.abs(f[0])), np.max(np.abs(f[-1]))
    if first > 1e-12 or last > 1e-12:
        raise SupportTouchesEdge(
            "endpoint samples are %.3g / %.3g, expected 0" % (first, last)
        )
    nfft, spectrum = _hilbert_kernel_spectrum(n)
    # profiles as contiguous rows: the FFTs of strided columns are slower
    rows = np.ascontiguousarray(np.moveaxis(f, 0, -1))
    spec = np.fft.rfft(rows, nfft)
    spec *= spectrum
    pair_sum = np.fft.irfft(spec, nfft)[..., n - 1:2 * n - 1]
    corr = np.zeros_like(rows)
    corr[..., 1:-1] = (rows[..., 2:] - rows[..., :-2]) / 2.0
    corr[..., 0] = rows[..., 1] / 2.0
    corr[..., -1] = -rows[..., -2] / 2.0
    return np.ascontiguousarray(np.moveaxis((pair_sum - corr) / np.pi, -1, 0))


def _spline_slopes(x, y):
    """Knot slopes of the not-a-knot cubic splines through the columns of y.

    x is the (S,) increasing knot grid, y the (S, k) values.  The system is
    scipy's CubicSpline's tridiagonal one; its matrix depends on x alone,
    so the scalar elimination of a Thomas sweep runs once and each knot
    costs one row update of the right-hand side on the way down and one
    on the way back.  Returns (S, k).
    """
    dx = np.diff(x)
    slope = np.diff(y, axis=0)
    slope /= dx[:, None]
    n = len(x)
    sub, diag, sup = np.zeros(n), np.empty(n), np.zeros(n)
    rhs = np.empty(y.shape)
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    sub[1:-1] = dx[1:]
    sup[1:-1] = dx[:-1]
    # 3 (dx_i slope_{i-1} + dx_{i-1} slope_i), in place: no (S, k) temporaries
    inner = np.multiply(dx[1:, None], slope[:-1], out=rhs[1:-1])
    inner += dx[:-1, None] * slope[1:]
    inner *= 3.0
    # not-a-knot: the third derivative is continuous across x[1] and x[-2]
    d = x[2] - x[0]
    diag[0], sup[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], sub[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d

    piv, mult = diag.tolist(), [0.0] * n
    for i in range(1, n):
        mult[i] = sub[i] / piv[i - 1]
        piv[i] = diag[i] - mult[i] * sup[i - 1]
    rows, tmp = list(rhs), np.empty(rhs.shape[1:])
    for i in range(1, n):
        rows[i] -= np.multiply(mult[i], rows[i - 1], out=tmp)
    rhs /= np.array(piv)[:, None]
    sup = (sup / piv).tolist()
    for i in range(n - 2, -1, -1):
        rows[i] -= np.multiply(sup[i], rows[i + 1], out=tmp)
    return rhs


def _spline_eval(x, y, slopes, at):
    """The cubic Hermite spline with knot values y and knot slopes (S,) at
    the points `at`, each read off its knot interval as scipy's PPoly does
    (the end intervals extend outwards), by Horner's rule.  The knots x are
    uniform: floor((at - x0) / dx) is off by at most one from the interval,
    and one comparison with each of its knots corrects it."""
    last = len(x) - 2
    i = np.clip(np.floor((at - x[0]) * (last + 1) / (x[-1] - x[0])), 0, last).astype(np.intp)
    i -= at < x[i]
    i += at >= x[i + 1]
    np.clip(i, 0, last, out=i)
    h = x[i + 1] - x[i]
    s = at - x[i]
    y0, d0 = y[i], slopes[i]
    secant = (y[i + 1] - y0) / h
    t = (d0 + slopes[i + 1] - 2.0 * secant) / h
    return ((t / h * s + ((secant - d0) / h - t)) * s + d0) * s + y0


class IntegratingFactor:
    """The mode sequences of e^{-+h} on the boundary cylinder."""

    def __init__(self, boundary, angular, n_modes, alpha, beta,
                 zero_attenuation, a_info, tol_neg, max_neg_mode,
                 max_identity_dev, interior=None):
        self.boundary = boundary
        self.angular = angular
        self.n_modes = int(n_modes)
        self.alpha = alpha                  # (N+1, n_nodes), modes of e^{-h}
        self.beta = beta                    # (N+1, n_nodes), modes of e^{+h}
        self.zero_attenuation = bool(zero_attenuation)
        self.a_info = dict(a_info or {})
        self.tol_neg = float(tol_neg)
        self.max_neg_mode = float(max_neg_mode)
        self.max_identity_dev = float(max_identity_dev)
        self.interior = interior


class InteriorFactors:
    """Factor data on the inside points of a Cartesian grid."""

    def __init__(self, grid, beta, a_values):
        self.grid = grid
        self.inside = grid.inside           # bool (ny*nx,)
        self.beta = beta                    # (N+1, p_in)
        self.a_values = a_values            # (p_in,)


def _slices(n, size):
    """Slices of range(n), `size` long; a lone last index joins the slice
    before it (one row would make a BLAS product a matrix-vector one)."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _factor_modes(h_values, n_modes):
    """Nonnegative mode rows (N+1, p) of e^{-h} and e^{+h} at the p points of
    h_values (p, M), and the largest negative mode of either.  The points
    run in blocks of MODE_CHUNK entries, each row transformed alone."""
    p, m = h_values.shape
    n_neg = min(n_modes, m // 2 - 1)
    neg_idx = m - np.arange(1, n_neg + 1)
    rows = np.empty((2, n_modes + 1, p), dtype=complex)      # alpha, beta
    neg = 0.0
    for sl in _slices(p, max(1, MODE_CHUNK // m)):
        for out, sign in zip(rows, (-1.0, 1.0)):
            c = np.fft.fft(np.exp(-h_values[sl] if sign < 0.0 else h_values[sl]), axis=1)
            c /= m
            if n_neg >= 1:
                neg = max(neg, float(np.max(np.abs(c[:, neg_idx]))))
            out[:, sl] = c[:, : n_modes + 1].T
    return rows[0], rows[1], neg


def _check_leak(neg, tol_neg, what):
    if neg > tol_neg:
        raise FactorBuildError(
            "negative angular modes of e^{+-h} reach %.3g > %.3g on the %s; "
            "h is inconsistent with the vanishing-mode structure" % (neg, tol_neg, what)
        )


def _seq_product_deviation(alpha, beta):
    """Max deviation of the product sequence alpha * beta from <1,0,...>."""
    prod = convolve_seq(alpha, beta)
    prod[0] -= 1.0
    return float(np.max(np.abs(prod)))


def default_s_grid(boundary, n_samples=2048):
    radius = float(np.max(np.hypot(*boundary.positions.T)))
    return np.linspace(-1.2 * radius, 1.2 * radius, n_samples)


class _HSampler:
    """h = Da - (1/2)(I - iH)Ra on every direction, at any points of the
    closed domain, the nodes among them.

    With an even number of angles, direction j + M/2 is theta_j + pi, so
    it reads the profile of direction j at -s, conjugated (Ra(s, theta +
    pi) = Ra(-s, theta), and H is odd under the flip): Ra and HRa are
    computed once, for the first M/2 directions only, and one spline fit
    takes all their (I - iH)Ra profiles.  Da is integrated for every
    direction, at each call.
    """

    def __init__(self, a, boundary, angular, quad, s_samples):
        self.a, self.boundary, self.quad = a, boundary, quad
        self.dirs = _directions(angular.angles)
        m_ang = angular.n_angles
        self.paired = m_ang % 2 == 0
        self.n_base = m_ang // 2 if self.paired else m_ang
        self.s_grid = default_s_grid(boundary, s_samples)
        ra = np.column_stack([radon_profile(a, boundary, self.dirs[j], self.s_grid, quad)
                              for j in range(self.n_base)])
        # one complex column per base direction; the spline is linear in the
        # data, so its real and imaginary parts are fitted as two real columns
        self.profiles = ra - 1.0j * finite_hilbert(ra)
        self.slopes = _spline_slopes(self.s_grid, self.profiles.view(float)).view(complex)

    def at(self, points):
        """h at the points (p, 2), (p, M).  Da runs along each ray from its
        point to the ray's end (ray_span); from a node that is the whole
        chord on incoming rays and, to roundoff, nothing on the others."""
        dirs = self.dirs
        h = np.empty((len(points), len(dirs)), dtype=complex)
        for j in range(self.n_base):
            # (direction, sign): the opposite direction reads the profile at -s
            pair = ((j, 1.0), (j + self.n_base, -1.0)) if self.paired else ((j, 1.0),)
            offsets = np.concatenate([sign * (points @ np.array([-dirs[k][1], dirs[k][0]]))
                                      for k, sign in pair])
            lin = _spline_eval(self.s_grid, self.profiles[:, j], self.slopes[:, j],
                               offsets).reshape(len(pair), -1)
            for (k, sign), lin_k in zip(pair, lin):
                if sign < 0.0:
                    lin_k = np.conj(lin_k)
                _, end = ray_span((self.a,), self.boundary, points, dirs[k])
                da = chord_integrals(self.a, points, dirs[k], 0.0, end, self.quad)
                h[:, k] = da - 0.5 * lin_k
        return h


def build_h(a, boundary, angular, n_modes, quad=None, s_samples=2048,
            interior_grid=None, tol_neg=1e-6, tol_identity=1e-8):
    """Integrating factor of the attenuation on the boundary cylinder.

    Samples h on the nodes, with Ra on the offset grid
    `default_s_grid(boundary, s_samples)`, and keeps the nonnegative mode
    sequences alpha, beta of e^{-+h} there.  With `interior_grid`, which
    reconstruction needs, it walks the grid's inside points in chunks of
    H_CHUNK entries of h (points x directions) and keeps only beta; no
    point's h or modes depend on the chunk.  Zero attenuation takes the
    same path: h = 0 gives the identity rows.
    """
    quad = quad or QuadSettings()
    angular.check_modes(n_modes)
    sampler = _HSampler(a, boundary, angular, quad, s_samples)

    alpha, beta, neg = _factor_modes(sampler.at(boundary.positions), n_modes)
    _check_leak(neg, tol_neg, "boundary")
    dev = _seq_product_deviation(alpha, beta)
    if dev > tol_identity:
        raise FactorBuildError(
            "alpha * beta deviates from the identity sequence by %.3g > %.3g"
            % (dev, tol_identity)
        )

    interior = None
    if interior_grid is not None:
        pts = interior_grid.points_all[interior_grid.inside]
        beta_i = np.empty((n_modes + 1, len(pts)), dtype=complex)
        neg_i = 0.0
        for sl in _slices(len(pts), max(1, H_CHUNK // angular.n_angles)):
            _, beta_i[:, sl], neg_c = _factor_modes(sampler.at(pts[sl]), n_modes)
            neg_i = max(neg_i, neg_c)
        _check_leak(neg_i, tol_neg, "interior grid")
        neg = max(neg, neg_i)
        interior = InteriorFactors(interior_grid, beta_i, a(pts))

    return IntegratingFactor(
        boundary, angular, n_modes, alpha, beta, a.is_zero,
        {"name": a.name, "params": a.params}, tol_neg, neg, dev, interior,
    )


def _check_match(g, factors):
    # the descriptor holds the kind, the node count, the ellipse axes and
    # the table points
    if g.boundary.descriptor() != factors.boundary.descriptor():
        raise GridMismatch("trace and factors live on different boundaries")
    if g.n_modes != factors.n_modes:
        raise GridMismatch(
            "trace has N=%d but factors were built for N=%d"
            % (g.n_modes, factors.n_modes)
        )


def hilbert_Ha(g, factors):
    """Attenuated Hilbert transform: beta * H0(alpha * g), per node."""
    _check_match(g, factors)
    if factors.zero_attenuation:
        return hilbert_H0(g)
    ag = convolve(factors.alpha, g.data)
    h0 = hilbert_H0(ModeTrace(g.boundary, g.n_modes, ag))
    return ModeTrace(g.boundary, g.n_modes, convolve(factors.beta, h0.data))


def range_residual_a(g, factors):
    """Residual of the attenuated range condition, (I + i H_a) g."""
    res_data = g.data + 1.0j * hilbert_Ha(g, factors).data
    return _make_residual(res_data, g.data, g.boundary, g.n_modes)


def reconstruct_f_attenuated(g, factors, grid, gate=0.05):
    """Source reconstruction from attenuated boundary data.

    Builds v from the conjugated trace alpha * g, forms u = beta * v on
    the grid, and evaluates f = 2 Re(d u_{-1}) + a u_0.  The derivative
    of u splits by the product rule: d v modes come from the explicit
    boundary kernels, d beta from centered differences of the interior
    factor grid (beta is smooth; v is the singular part).  The valid points
    are walked in chunks of RECON_CHUNK, so only the picture is held whole.
    """
    _check_match(g, factors)
    if factors.zero_attenuation:
        return reconstruct_f0(g, grid, gate=gate)

    check = range_residual_a(g, factors)
    if check.relative > gate:
        warnings.warn(
            "attenuated range residual %.3g exceeds the gate %.3g"
            % (check.relative, gate),
            InconsistentInput,
        )

    if factors.interior is None or factors.interior.grid is not grid:
        if factors.interior is None:
            raise GridMismatch("factors carry no interior data; rebuild with interior_grid")
        gi = factors.interior.grid
        same = (
            gi.nx == grid.nx and gi.ny == grid.ny
            and np.allclose(gi.xs, grid.xs) and np.allclose(gi.ys, grid.ys)
            and np.array_equal(gi.inside, grid.inside)
        )
        if not same:
            raise GridMismatch("factors were built on a different interior grid")

    inter = factors.interior
    n_modes = g.n_modes
    ag_trace = ModeTrace(g.boundary, n_modes, convolve(factors.alpha, g.data))

    # the column of each grid point in the inside-point blocks
    col = np.full(grid.ny * grid.nx, -1)
    col[inter.inside] = np.arange(len(inter.a_values))
    at = np.flatnonzero(grid.valid)
    fd_ok = ~fd_zeroed_mask(factors, grid)[at]
    f_vals = np.empty(len(at))
    for sl in _slices(len(at), RECON_CHUNK):
        dv, v = del_v_minus(ag_trace, range(1, n_modes + 1), grid, field=True, part=sl)
        f_vals[sl] = _source_values(inter, grid, col, at[sl], fd_ok[sl], dv, v.data)
    return grid.unflatten(f_vals)


def _source_values(inter, grid, col, q, ok, dv, v):
    """f = 2 Re(d u_{-1}) + a u_0 at the grid points q (flat indices), from
    d v_{-1..-N} (dv) and v (rows 0..N) there; 0 where `ok` is False.

    d beta comes from centred differences of beta's columns at the four
    neighbours; a point without all four reads its own column instead.
    """
    n_modes = len(dv)

    def beta_at(step):
        return inter.beta[:, col[np.where(ok, q + step, q)]]

    dbx = (beta_at(1) - beta_at(-1)) / (2.0 * grid.hx)
    dby = (beta_at(grid.nx) - beta_at(-grid.nx)) / (2.0 * grid.hy)
    del_beta = 0.5 * (dbx - 1.0j * dby)
    here = col[q]
    beta_here = inter.beta[:, here]
    # every operand column-major, like these column picks: each point's
    # mode sum then adds its terms in one order, whatever the chunk
    dv = np.asfortranarray(dv)
    u0 = np.real(np.sum(beta_here * v, axis=0))
    del_u1 = np.sum(beta_here[:n_modes] * dv + del_beta[:n_modes] * v[1:], axis=0)
    return np.where(ok, 2.0 * np.real(del_u1) + inter.a_values[here] * u0, 0.0)


def fd_zeroed_mask(factors, grid):
    """Grid points where reconstruct_f_attenuated evaluates but returns 0.

    The derivative of beta comes from centred differences of the interior
    factor grid; at an evaluated point whose four neighbours do not all
    carry factor data (including the picture's edge) there is none, and
    the reconstruction sets f to 0 there.  Returns a flat boolean mask
    over the grid, all False on the zero-attenuation route, which
    evaluates no differences.
    """
    if factors.zero_attenuation:
        return np.zeros(grid.ny * grid.nx, dtype=bool)
    pic = factors.interior.inside.reshape(grid.ny, grid.nx)
    fd_ok = np.zeros_like(pic)
    fd_ok[1:-1, 1:-1] = pic[1:-1, 2:] & pic[1:-1, :-2] & pic[2:, 1:-1] & pic[:-2, 1:-1]
    return grid.valid & ~fd_ok.ravel()
