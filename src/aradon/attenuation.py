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
The attenuated reconstruct takes beta and d beta at each point from h
and theta_perp . grad h there: as theta . grad h = -a, d beta_k is
-(a/2) beta_{k+1} - (i/2) mode k+1 of e^h theta_perp . grad h.  No point
needs its neighbours, and nothing per point outlives its chunk.

Factor builds validate their own algebra: alpha * beta must reproduce
the convolution identity and the negative modes of e^{+-h} must vanish
to tolerance, otherwise the build raises instead of guessing at signs.
"""

import warnings

import numpy as np

from .errors import ConfigError, FactorBuildError, GridMismatch, InconsistentInput
from .harmonics import ModeTrace, convolve, convolve_seq
from .bukhgeim import (
    hilbert_H0,
    _kernel_bands,
    _make_residual,
    _slices,
    del_v_minus,
    reconstruct_f0,
)
from .xray import QuadSettings, chord_integrals, phantom, radon_profile, ray_span, _directions

# Entries of e^{-+h} and their FFTs per block of _factor_modes; valid grid
# points per pass of the attenuated reconstruct, within one kernel band.
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


def finite_hilbert(b, u, slope=False):
    """sum_m b_m zeta^m at the points u by Horner's rule.  Its real part
    is the finite Hilbert transform (1/pi) p.v. integral f(t)/(u - t) dt
    of f = sum b_m sin(m phi) on [-1, 1], u = cos(phi), and its imaginary
    part is f: zeta = e^{i phi} on |u| <= 1, and the real u - sgn(u)
    sqrt(u^2 - 1), taken free of cancellation, outside.  An empty b sums
    to 0.

    With `slope`, the pair (sum, d/du sum): sum_m m b_m zeta^m, from the
    same Horner pass, times zeta'/zeta, -i / sqrt(1 - u^2) inside and
    -sgn(u) / sqrt(u^2 - 1) outside, or at |u| = 1, where both vanish for
    a series of finite slope, its limit sum_m m^2 b_m u^{m+1}."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    zeta = np.where(au <= 1.0, u + 1.0j * np.sqrt(np.maximum(1.0 - u * u, 0.0)),
                    np.sign(u) / (np.maximum(au, 1.0) + np.sqrt(np.maximum(u * u - 1.0, 0.0))))
    out = np.zeros(u.shape, dtype=complex)
    d = np.zeros(u.shape, dtype=complex) if slope else None
    for m in range(len(b), 0, -1):
        out += b[m - 1]
        out *= zeta
        if slope:
            d += m * b[m - 1]
            d *= zeta
    if not slope:
        return out
    root = np.sqrt(np.abs(1.0 - u * u))
    edge = root == 0.0
    d *= np.where(au <= 1.0, -1.0j, -np.sign(u)) / np.where(edge, 1.0, root)
    m = np.arange(1, len(b) + 1)
    d[edge] = np.power.outer(u[edge], m + 1) @ (m * m * b)
    return out, d


class IntegratingFactor:
    """The mode sequences of e^{-+h} on the boundary cylinder, and the
    sampler of h inside (_HSampler), which factors read from a cache
    rebuild from their recipe (a_info, quad, s_samples) on first use."""

    def __init__(self, boundary, angular, n_modes, alpha, beta,
                 zero_attenuation, a_info, tol_neg, max_neg_mode,
                 max_identity_dev, quad=None, s_samples=None, sampler=None):
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
        self.quad = quad                    # QuadSettings, None in an older cache
        self.s_samples = s_samples
        self._sampler = sampler
        # always None: only perfbench/tracer.py's _hook_recon_att reads it
        self.interior = None

    @property
    def sampler(self):
        if self._sampler is None:
            if self.quad is None:
                raise ConfigError("these factors record no recipe for h inside the "
                                  "domain (an older cache); rebuild with `factors`")
            a = phantom(self.a_info["name"], self.boundary, self.a_info.get("params"))
            self._sampler = _HSampler(a, self.boundary, self.angular, self.quad,
                                      self.s_samples)
        return self._sampler


def _factor_modes(h_values, n_modes, slopes=None):
    """Nonnegative mode rows (N+1, p) of e^{-h} and e^{+h} at the p points of
    h_values (p, M), with `slopes` (p, M) those of e^{+h} slopes too, and
    the largest negative mode of e^{-+h}.  The points run in blocks of
    MODE_CHUNK entries, each row transformed alone.  An e^{-+h} past the
    largest float raises FactorBuildError."""
    p, m = h_values.shape
    neg_idx = m - np.arange(1, min(n_modes, m // 2 - 1) + 1)
    rows = np.empty((2 if slopes is None else 3, n_modes + 1, p), dtype=complex)
    neg = 0.0
    for sl in _slices(p, max(1, MODE_CHUNK // m)):
        for out, h in zip(rows, (-h_values[sl], h_values[sl])):
            with np.errstate(over="ignore", invalid="ignore"):
                e = np.exp(h)
                c = np.fft.fft(e, axis=1)
            if not np.all(np.isfinite(c)):
                raise FactorBuildError("e^{+-h} overflows: the attenuation is too strong")
            c /= m
            neg = max(neg, float(np.max(np.abs(c[:, neg_idx]), initial=0.0)))
            out[:, sl] = c[:, :n_modes + 1].T
        if slopes is not None:                    # e is e^{+h}
            e *= slopes[sl]
            rows[2, :, sl] = np.fft.fft(e, axis=1)[:, :n_modes + 1].T / m
    return rows, neg


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

    def at(self, points, slopes=False):
        """h at the points (p, 2), (p, M); with `slopes`, the pair of h and
        theta_perp . grad h (the opposite direction reads the series' slope
        as minus its conjugate).  Da runs along each ray from its point to
        the ray's end (ray_span); from a node that is the whole chord on
        incoming rays and, to roundoff, nothing on the others."""
        dirs = self.dirs
        h = np.empty((len(points), len(dirs)), dtype=complex)
        dh = np.empty_like(h) if slopes else None
        for j, (mid, half, b) in enumerate(self.series):
            # (direction, sign): the opposite direction reads the series at -s
            pair = ((j, 1.0), (j + self.n_base, -1.0)) if self.paired else ((j, 1.0),)
            offsets = np.concatenate([sign * (points @ np.array([-dirs[k][1], dirs[k][0]]))
                                      for k, sign in pair])
            series = finite_hilbert(b, (offsets - mid) / half, slope=slopes)
            if slopes:
                series, dlin = series
                dlin = ((-1.0j / half) * dlin).reshape(len(pair), -1)
            lin = (-1.0j * series).reshape(len(pair), -1)
            for i, (k, sign) in enumerate(pair):
                da = self._da(points, k, slopes)
                if slopes:
                    da, dda = da
                    dh[:, k] = dda - 0.5 * (-np.conj(dlin[i]) if sign < 0.0 else dlin[i])
                h[:, k] = da - 0.5 * (np.conj(lin[i]) if sign < 0.0 else lin[i])
        return (h, dh) if slopes else h

    def _da(self, points, k, slopes):
        """Da on direction k at the points; with `slopes`, also theta_perp .
        grad Da: theta_perp . grad a on Da's samples, less a(e) (n .
        theta_perp) / (n . theta) where the ray ends on the curve at e."""
        theta = self.dirs[k]
        perp = np.array([-theta[1], theta[0]]) if slopes else None
        _, end, normal = ray_span((self.a,), self.boundary, points, theta, normal=slopes)
        da = chord_integrals(self.a, points, theta, 0.0, end, self.quad, across=perp)
        if normal is not None:
            da[1] -= self.a(points + end[:, None] * theta) * (normal @ perp) / (normal @ theta)
        return da


def build_h(a, boundary, angular, n_modes, quad=None, s_samples=2048,
            tol_neg=1e-6, tol_identity=1e-8):
    """Integrating factor of the attenuation on the boundary cylinder.

    Samples h on the nodes, with Ra expanded in its offset sine series
    of at most `s_samples` terms (_HSampler), and keeps the nonnegative
    mode sequences alpha, beta of e^{-+h} there and the sampler, which
    the attenuated reconstruct reads at its points.  Zero attenuation
    takes the same path: h = 0 gives the identity rows.
    """
    quad = quad or QuadSettings()
    angular.check_modes(n_modes)
    sampler = _HSampler(a, boundary, angular, quad, s_samples)

    (alpha, beta), neg = _factor_modes(sampler.at(boundary.positions), n_modes)
    _check_leak(neg, tol_neg, "boundary")
    dev = _seq_product_deviation(alpha, beta)
    if dev > tol_identity:
        raise FactorBuildError(
            "alpha * beta deviates from the identity sequence by %.3g > %.3g"
            % (dev, tol_identity)
        )
    return IntegratingFactor(
        boundary, angular, n_modes, alpha, beta, a.is_zero,
        {"name": a.name, "params": a.params}, tol_neg, neg, dev,
        quad=quad, s_samples=s_samples, sampler=sampler,
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


def _beta_slopes(sampler, points, n_modes):
    """beta (N+1, p) and d beta_0..N-1 (N, p) at the points, `a` there,
    and the largest negative mode of e^{-+h} there."""
    h, dh = sampler.at(points, slopes=True)
    (_, beta, modes), neg = _factor_modes(h, n_modes, dh)
    a_values = sampler.a(points)
    return beta, -0.5 * a_values * beta[1:] - 0.5j * modes[1:], a_values, neg


def reconstruct_f_attenuated(g, factors, grid, gate=0.05, return_dbeta0=False):
    """Source reconstruction from attenuated boundary data.

    Builds v from the conjugated trace alpha * g and evaluates
    f = 2 Re(d u_{-1}) + a u_0, u = beta * v, at the grid's valid points.
    d v comes from the explicit boundary kernels, beta and d beta from
    factors.sampler at the point itself (a leak past tol_neg raises).
    The points run band by band (bukhgeim._kernel_bands: far points read
    the trace on fewer nodes), in chunks of RECON_CHUNK within each band;
    no value depends on the chunks.
    d beta_0 vanishes exactly: with `return_dbeta0` the call returns the
    picture and max |d beta_0| over the points (0.0 without attenuation).
    """
    _check_match(g, factors)
    if factors.zero_attenuation:
        pic = reconstruct_f0(g, grid, gate=gate)
        return (pic, 0.0) if return_dbeta0 else pic

    check = range_residual_a(g, factors)
    if check.relative > gate:
        warnings.warn(
            "attenuated range residual %.3g exceeds the gate %.3g"
            % (check.relative, gate),
            InconsistentInput,
        )

    sampler = factors.sampler
    n_modes = g.n_modes
    orders = range(1, n_modes + 1)
    ag_trace = ModeTrace(g.boundary, n_modes, convolve(factors.alpha, g.data))
    f_vals = np.empty(len(grid.points))
    dbeta0 = 0.0
    for band in _kernel_bands(ag_trace, grid):
        for sl in _slices(len(band.index), RECON_CHUNK):
            idx = band.index[sl]
            beta, dbeta, a_values, neg = _beta_slopes(sampler, grid.points[idx], n_modes)
            _check_leak(neg, factors.tol_neg, "picture's points")
            dbeta0 = max(dbeta0, float(np.max(np.abs(dbeta[0]))))
            dv, v = del_v_minus(band, orders, grid, field=True, part=idx)
            # every operand column-major, like v: each point's mode sum then
            # adds its terms in one order, whatever the chunk
            beta, dbeta, dv = (np.asfortranarray(x) for x in (beta, dbeta, dv))
            u0 = np.real(np.sum(beta * v.data, axis=0))
            del_u1 = np.sum(beta[:n_modes] * dv + dbeta * v.data[1:], axis=0)
            f_vals[idx] = 2.0 * np.real(del_u1) + a_values * u0
    pic = grid.unflatten(f_vals)
    return (pic, dbeta0) if return_dbeta0 else pic
