"""Integrating factors and the attenuated range machinery.

The special integrating factor h = Da - (1/2)(I - iH)Ra (with H the
finite Hilbert transform in the offset variable) has the property that
e^{-h} and e^{+h} carry only nonnegative angular Fourier modes.  Their
mode sequences alpha and beta conjugate the attenuated problem to the
non-attenuated one: H_a = beta * H_0 (alpha * .), the attenuated range
condition is (I + i H_a) applied to the nonpositive projection, and the
source is recovered from u = beta * v via f = 2 Re(d u_{-1}) + a u_0.

build_h expands Ra, once per direction pair theta, theta + pi, in a
sine series of phi, s = mid + half cos(phi), on the offset interval
where Ra can be nonzero.  sin(m phi) -> cos(m phi) is the finite Hilbert
transform there, so (I - iH)Ra is one power series (finite_hilbert), and
h is exact in the offset once the series has converged.
The interior factors are streamed: build_h walks the inside points of the
grid in chunks and keeps only beta there, and the attenuated reconstruct
walks the valid points the same way, so neither h nor any per-point
transform of it is held on the whole grid.

Factor builds validate their own algebra: alpha * beta must reproduce
the convolution identity and the negative modes of e^{+-h} must vanish
to tolerance, otherwise the build raises instead of guessing at signs.
"""

import warnings

import numpy as np

from .errors import FactorBuildError, GridMismatch, InconsistentInput
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

# The offset series of Ra has converged when the last quarter of its
# coefficients is below this fraction of the largest.
SERIES_TOL = 1e-15


def _sine_series(values):
    """Coefficients b_1..b_n of sum_m b_m sin(m phi) through the n values
    at phi_j = j pi / (n + 1), j = 1..n, along axis 0: a discrete sine
    transform, taken as the rfft of the odd extension (0, v, 0, -v
    reversed), whose mode m is -2i sum_j v_j sin(m phi_j)."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    zero = np.zeros((1,) + v.shape[1:])
    odd = np.concatenate([zero, v, zero, -v[::-1]])
    return -np.fft.rfft(odd, axis=0)[1:n + 1].imag / (n + 1)


def finite_hilbert(b, u):
    """sum_m b_m zeta^m at the points u by Horner's rule.  Its real part
    is the finite Hilbert transform (1/pi) p.v. integral f(t)/(u - t) dt
    of f = sum b_m sin(m phi) on [-1, 1], u = cos(phi), and its imaginary
    part is f: zeta = e^{i phi} on |u| <= 1, and the real u - sgn(u)
    sqrt(u^2 - 1), taken free of cancellation, outside.  An empty b sums
    to 0."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    zeta = np.where(au <= 1.0, u + 1.0j * np.sqrt(np.maximum(1.0 - u * u, 0.0)),
                    np.sign(u) / (np.maximum(au, 1.0) + np.sqrt(np.maximum(u * u - 1.0, 0.0))))
    out = np.zeros(u.shape, dtype=complex)
    for coef in b[::-1]:
        out += coef
        out *= zeta
    return out


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


class _HSampler:
    """h = Da - (1/2)(I - iH)Ra on every direction, at any points of the
    closed domain, the nodes among them.

    Ra is nonzero only for offsets s in [mid - half, mid + half], `a`'s
    support disk or else the domain's extent projected on theta_perp.
    Its n samples at s = mid + half cos(j pi / (n + 1)) give the sine
    series b, and (I - iH)Ra = -i finite_hilbert(b, (s - mid) / half).
    n starts at 15 and doubles to 2n + 1, sampling only the new points,
    until the last quarter of b is below SERIES_TOL of its largest entry
    or 2n + 1 would pass `s_samples`; trailing b under roundoff go.
    With an even number of angles, direction j + M/2 reads the series of
    direction j at -s, conjugated (Ra(s, theta + pi) = Ra(-s, theta), and
    H is odd under the flip).  Da is integrated for every direction.
    """

    def __init__(self, a, boundary, angular, quad, s_samples):
        self.a, self.boundary, self.quad = a, boundary, quad
        self.dirs = _directions(angular.angles)
        m_ang = angular.n_angles
        self.paired = m_ang % 2 == 0
        self.n_base = m_ang // 2 if self.paired else m_ang
        self.series = [self._series(self.dirs[j], s_samples) for j in range(self.n_base)]

    def _series(self, theta, s_samples):
        """(mid, half, b) of direction theta."""
        if self.a.support is not None:
            center, half = self.a.support
            mid = theta[0] * center[1] - theta[1] * center[0]
        else:
            (lo, hi), _ = self.boundary.extent(theta)
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

        def ra(phi):
            return radon_profile(self.a, self.boundary, theta, mid + half * np.cos(phi),
                                 self.quad)

        n = 15
        values = ra(np.pi * np.arange(1, n + 1) / (n + 1))
        while True:
            b = _sine_series(values)
            scale = np.max(np.abs(b))
            if np.max(np.abs(b[3 * n // 4:])) <= SERIES_TOL * scale or 2 * n + 1 > s_samples:
                break
            # the old points are the even ones of the doubled grid
            merged = np.empty(2 * n + 1)
            merged[1::2] = values
            merged[0::2] = ra(np.pi * np.arange(1, 2 * n + 2, 2) / (2 * n + 2))
            values, n = merged, 2 * n + 1
        keep = np.flatnonzero(np.abs(b) > np.finfo(float).eps * scale)
        return mid, half, b[:keep[-1] + 1 if keep.size else 0]

    def at(self, points):
        """h at the points (p, 2), (p, M).  Da runs along each ray from its
        point to the ray's end (ray_span); from a node that is the whole
        chord on incoming rays and, to roundoff, nothing on the others."""
        dirs = self.dirs
        h = np.empty((len(points), len(dirs)), dtype=complex)
        for j, (mid, half, b) in enumerate(self.series):
            # (direction, sign): the opposite direction reads the series at -s
            pair = ((j, 1.0), (j + self.n_base, -1.0)) if self.paired else ((j, 1.0),)
            offsets = np.concatenate([sign * (points @ np.array([-dirs[k][1], dirs[k][0]]))
                                      for k, sign in pair])
            lin = -1.0j * finite_hilbert(b, (offsets - mid) / half)
            for (k, sign), lin_k in zip(pair, lin.reshape(len(pair), -1)):
                if sign < 0.0:
                    lin_k = np.conj(lin_k)
                _, end = ray_span((self.a,), self.boundary, points, dirs[k])
                da = chord_integrals(self.a, points, dirs[k], 0.0, end, self.quad)
                h[:, k] = da - 0.5 * lin_k
        return h


def build_h(a, boundary, angular, n_modes, quad=None, s_samples=2048,
            interior_grid=None, tol_neg=1e-6, tol_identity=1e-8):
    """Integrating factor of the attenuation on the boundary cylinder.

    Samples h on the nodes, with Ra expanded in its offset sine series
    of at most `s_samples` terms (_HSampler), and keeps the nonnegative
    mode sequences alpha, beta of e^{-+h} there.  With `interior_grid`, which
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
