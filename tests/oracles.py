"""Independent reference checks of the library's guarantees.

Each checker recomputes a property of the chain by a route of its own
(dense trapezoid sums, trigonometric interpolation, finite differences,
a second operator ordering), so it can judge the library's outputs
without sharing their quadratures.  It also holds the dense n x n
principal-value kernel, the reference for the boundary sweep's S, the
long-double node G of a disk or an ellipse, the reference for its FFT, the
closed-form integrating factor of a bump attenuation on the disk, the
signed distance by a search over curve samples, and the
identities of the paper's Lemma 2.1 and the chord-length jump at
tangency, which no command needs.  Tests import it like conftest.
"""
import numpy as np
from numpy.polynomial.chebyshev import chebval

from aradon.attenuation import range_residual_a
from aradon.bukhgeim import hilbert_H0
from aradon.errors import OutsideDomain
from aradon.geometry import TOL_TANGENT
from aradon.harmonics import ModeTrace, convolve


def _trapezoid_sum(values, s):
    """Trapezoid rule for samples `values` at the increasing abscissae s."""
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(s)))


def dense_S(g_data, boundary):
    """Principal-value Cauchy integral of every mode row at the nodes, from
    one dense n x n kernel: the smooth quotient (g_i - g_m) w'_i / (w_i - w_m)
    by the trapezoid rule, its diagonal limit the spectral g'."""
    n = boundary.n_nodes
    w = boundary.complex_nodes()
    wd = boundary.complex_velocity()
    dt = 2.0 * np.pi / n
    kernel = w[None, :] - w[:, None]         # [m, i] = w_i - w_m
    np.fill_diagonal(kernel, 1.0)
    np.divide(wd[None, :], kernel, out=kernel)
    np.fill_diagonal(kernel, 0.0)
    row_sum = np.sum(kernel, axis=1)
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    gdot = np.fft.ifft(1j * k[None, :] * np.fft.fft(g_data, axis=1), axis=1)
    smooth = g_data @ kernel.T - g_data * row_sum[None, :] + gdot
    return smooth * (dt / (1.0j * np.pi)) + g_data


def exact_node_G(g_data, boundary):
    """G g at the nodes of a disk or an ellipse, in np.longdouble.

    The same discrete sum as the library's (the double-layer base
    (2/pi) Im(w'_l / (w_l - w_i)) dt times r^p, r = conj(u)/u, with the
    diagonal limits kappa |w'| / 2 and conj(w')/w', by Horner over the
    powers), but on nodes computed in long double from long-double
    parameters, so it stands for the operator of the exact nodes rather
    than of their rounded double positions.  Where np.longdouble is no
    wider than double, it is only another double evaluation.
    """
    ld = np.longdouble
    n = boundary.n_nodes
    a, b = ld(boundary.a), ld(boundary.b)
    pi = ld(4) * np.arctan(ld(1))
    dt = ld(2) * pi / ld(n)
    t = dt * np.arange(n, dtype=ld)
    w = (a * np.cos(t) + 1j * b * np.sin(t)).astype(np.clongdouble)
    wd = (-a * np.sin(t) + 1j * b * np.cos(t)).astype(np.clongdouble)
    speed = np.abs(wd)
    diag = np.arange(n)
    u = w[None, :] - w[:, None]              # [i, l] = w_l - w_i
    u[diag, diag] = 1
    base = (ld(2) / pi) * dt * np.imag(wd[None, :] / u)
    ratio = np.conj(u) / u
    base[diag, diag] = (ld(2) / pi) * dt * (a * b / speed ** 3) * speed / ld(2)
    ratio[diag, diag] = np.conj(wd) / wd
    rows = np.asarray(g_data).astype(np.clongdouble)
    out = np.zeros(rows.shape, dtype=np.clongdouble)
    acc = np.zeros((2, n, n), dtype=np.clongdouble)
    for k in range(len(rows) - 3, -1, -1):
        s = acc[k % 2]
        s += rows[k + 2][None, :]
        s *= ratio
        out[k] = np.sum(s * base, axis=1)
    return out


def identity_seq(n_modes):
    """Convolution identity <1, 0, 0, ...>."""
    e = np.zeros(n_modes + 1, dtype=complex)
    e[0] = 1.0
    return e


def lemma21_identity(c):
    """Both sides of the two summation identities for nonnegative sequences.

    The input vector holds c_1..c_J (c[i] is the coefficient of index
    i+1).  Identity (i): sum_{k>=1} sum_{n>=0} k c_{k+n} equals
    sum_j j(j+1)/2 c_j.  Identity (ii): the same double sum without the
    factor k equals sum_j j c_j.  Left sides are computed by a literal
    double loop, right sides by the weighted single sums.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if np.any(c < 0.0):
        raise ValueError("sequence entries must be nonnegative")
    jmax = len(c)

    def cval(j):
        return c[j - 1] if 1 <= j <= jmax else 0.0

    lhs_i = 0.0
    lhs_ii = 0.0
    for k in range(1, jmax + 1):
        for n in range(0, jmax - k + 1):
            lhs_i += k * cval(k + n)
            lhs_ii += cval(k + n)
    j = np.arange(1, jmax + 1, dtype=float)
    rhs_i = float(np.sum(j * (j + 1) / 2.0 * c))
    rhs_ii = float(np.sum(j * c))
    return lhs_i, rhs_i, lhs_ii, rhs_ii


def _as_point(p):
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise ValueError("expected a 2-vector, got shape %r" % (p.shape,))
    return p


def tau_angular_jump(boundary, z0, h_phi=1e-3):
    """Jump of the phi-derivative of the chord length across tangency.

    z0 may be a node index or a node position.  The chord length
    tau(z0, theta(phi)) vanishes at the tangential direction phi0 and
    grows like 2 R0 |sin(phi - phi0)| on both sides, so the derivative
    jump is estimated as (tau(phi0+h) + tau(phi0-h)) / h -> 4 R0.
    """
    if np.isscalar(z0) or (isinstance(z0, np.ndarray) and z0.ndim == 0):
        idx = int(z0)
    else:
        z = _as_point(z0)
        idx = int(np.argmin(np.sum((boundary.positions - z) ** 2, axis=1)))
        if np.hypot(*(boundary.positions[idx] - z)) > 1e-8:
            raise OutsideDomain("z0 is not a boundary node")
    tang = boundary.tangents[idx]
    phis = np.arctan2(tang[1], tang[0]) + np.array([h_phi, -h_phi])
    taus = boundary.node_chord_lengths(np.column_stack([np.cos(phis), np.sin(phis)]))
    return float(np.sum(taus[idx]) / h_phi)


def nearest_param(boundary, point):
    """Boundary parameter of the foot point closest to `point`.

    The nearest of 16 n curve samples, polished by Newton on
    d/du |w(u) - p|^2 = 0; closed form on the unit disk.
    """
    p = np.asarray(point, dtype=float)
    if boundary.kind == "unit-disk":
        return float(np.mod(np.arctan2(p[1], p[0]), 2.0 * np.pi))
    t = np.linspace(0.0, 2.0 * np.pi, 16 * boundary.n_nodes, endpoint=False)
    cand = boundary.position_at(t)
    u = t[np.argmin(np.sum((cand - p) ** 2, axis=1))]
    for _ in range(8):
        w = boundary.position_at(u)
        dw = boundary._derivative_at(u)
        ddw = boundary._second_derivative_at(u)
        r = w - p
        g = float(r @ dw)
        gp = float(dw @ dw + r @ ddw)
        if abs(gp) < 1e-300:
            break
        u = u - min(max(g / gp, -0.5), 0.5)
    return float(np.mod(u, 2.0 * np.pi))


def searched_distance(boundary, points):
    """Signed distance by search: for each point the nearest of 8n curve
    samples by its own squared distances (in chunks of points, which
    changes no point's values), six Newton steps on
    d/du |w(u) - p|^2 = 0 over all points in one piece, and the side of
    the tangent at the foot.  Coordinates are squared raw, so points stay
    within about 1e150 of the curve."""
    pts = np.asarray(points, dtype=float)
    t = np.linspace(0.0, 2.0 * np.pi, 8 * boundary.n_nodes, endpoint=False)
    cand = boundary.position_at(t)
    nearest = np.empty(len(pts), dtype=int)
    for lo in range(0, len(pts), 256):
        p = pts[lo:lo + 256]
        sq = (p[:, :1] - cand[:, 0]) ** 2 + (p[:, 1:] - cand[:, 1]) ** 2
        nearest[lo:lo + 256] = np.argmin(sq, axis=1)
    u = t[nearest]
    for _ in range(6):
        r = boundary.position_at(u) - pts
        dw = boundary._derivative_at(u)
        ddw = boundary._second_derivative_at(u)
        g = np.sum(r * dw, axis=1)
        gp = np.sum(dw * dw, axis=1) + np.sum(r * ddw, axis=1)
        # no step where gp is roundoff (the point on the evolute, the sample
        # at its foot): g / gp would jump to another critical point
        flat = np.abs(gp) <= 8.0 * np.finfo(float).eps * (
            np.sum(dw * dw, axis=1) + np.sum(np.abs(r * ddw), axis=1))
        step = np.where(flat, 0.0, g / np.where(flat, 1.0, gp))
        u = u - np.clip(step, -0.5, 0.5)
    r = pts - boundary.position_at(u)
    d = np.hypot(r[:, 0], r[:, 1])
    dw = boundary._derivative_at(u)
    return np.where(dw[:, 0] * r[:, 1] - dw[:, 1] * r[:, 0] < 0.0, -d, d)


def _trig_interp_columns(data, u_query):
    """Trigonometric interpolation of periodic node columns at parameters u.

    data has one row per boundary node (uniform parameter grid); returns
    interpolated rows at each query parameter, one per column of data.
    """
    n = data.shape[0]
    coeffs = np.fft.rfft(data, axis=0) / n
    k = np.arange(coeffs.shape[0])
    phase = np.exp(1j * np.outer(u_query, k))
    vals = np.real(phase @ coeffs) * 2.0
    vals -= np.real(coeffs[0])[None, :]
    if n % 2 == 0:
        # unpaired Nyquist mode carries half weight
        vals -= np.real(np.outer(phase[:, -1], coeffs[-1]))
    return vals


def _dense_attenuated_integral(f, a, entry, theta, tau, n_pts=4001):
    """Reference chord integral of f e^{-Da} by dense trapezoid."""
    s = np.linspace(0.0, tau, n_pts)
    pts = entry[None, :] + s[:, None] * theta[None, :]
    fv = f(pts)
    if a.is_zero:
        integ = fv
    else:
        av = a(pts)
        seg = 0.5 * (av[1:] + av[:-1]) * np.diff(s)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        integ = fv * np.exp(-(cum[-1] - cum))
    return _trapezoid_sum(integ, s)


def bump_chord_integral(a, starts, th, t_lo, t_hi):
    """Closed-form integral of a (shifted) poly-bump over [t_lo, t_hi] on
    the lines starts + t * th: with u = t + p.th measured from the foot
    of the centre, the bump is amp (1 - (d^2 + u^2) / r^2)^2 for
    |u| <= w = sqrt(r^2 - d^2)."""
    center = np.asarray(a.params.get("center", (0.0, 0.0)))
    r = a.params.get("radius", 1.0)
    amp = a.params["amplitude"]
    p = starts - center
    b = p @ th
    d2 = np.sum(p * p, axis=-1) - b * b
    w = np.sqrt(np.maximum(r * r - d2, 0.0))
    c0 = 1.0 - d2 / r ** 2

    def anti(u):
        return amp * (c0 ** 2 * u - 2.0 * c0 * u ** 3 / (3.0 * r ** 2) + u ** 5 / (5.0 * r ** 4))

    lo = np.clip(t_lo + b, -w, w)
    hi = np.clip(t_hi + b, -w, w)
    return np.where(hi > lo, anti(hi) - anti(lo), 0.0)


def poly_bump_h(c, points, angles):
    """The integrating factor h = Da - (1/2)(Ra - i HRa) of the attenuation
    a = c (1 - |x|^2)^2 on the unit disk, in closed form, at the points
    (p, 2) of the closed disk on every direction: (p, M).

    Along x + t theta, 1 - |x + t theta|^2 = q - 2 p t - t^2 with
    p = x . theta and q = 1 - |x|^2, so Da is a quintic in the exit
    distance L = -p + sqrt(p^2 + q).  Ra(s) = (16c/15)(1 - s^2)^{5/2}, and
    its finite Hilbert transform is (16c/15)(5/8 T1 - 5/16 T3 + 1/16 T5)(s),
    both at s = x . theta_perp, theta_perp = (-sin theta, cos theta).
    """
    p = points @ np.array([np.cos(angles), np.sin(angles)])
    s = points @ np.array([-np.sin(angles), np.cos(angles)])
    q = np.maximum(1.0 - np.sum(points * points, axis=1), 0.0)[:, None]
    L = -p + np.sqrt(p * p + q)
    da = c * (q * q * L - 2.0 * p * q * L ** 2 + (4.0 * p * p - 2.0 * q) * L ** 3 / 3.0
              + p * L ** 4 + L ** 5 / 5.0)
    scale = 16.0 * c / 15.0
    ra = scale * np.maximum(1.0 - s * s, 0.0) ** 2.5
    hra = scale * chebval(s, [0.0, 5.0 / 8.0, 0.0, -5.0 / 16.0, 0.0, 1.0 / 16.0])
    return da - 0.5 * (ra - 1.0j * hra)


def _support_span(f, entry, theta, tau):
    """The part [lo, hi] of each chord entry + s theta, s in [0, tau], inside
    f's support disk by the plain quadratic formula; the whole chord when
    f carries no support, and lo == hi where the chord misses it."""
    if f.support is None:
        return np.zeros_like(tau), tau
    center, radius = f.support
    p = entry - np.asarray(center)
    b = p @ theta
    disc = b * b - (np.sum(p * p, axis=1) - radius * radius)
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.clip(-b - root, 0.0, tau)
    hi = np.clip(-b + root, 0.0, tau)
    return lo, np.where(disc > 0.0, np.maximum(hi, lo), lo)


def trapezoid_forward(f, a, boundary, angular, quad, steps=8):
    """Attenuated forward data with Da from one cumulative trapezoid pass.

    The Gauss-Legendre rule of `quad` runs over the part of each chord
    inside f's support disk (the whole chord without one), as the
    forward's does.  `a` is sampled there on steps * (panels * points)
    uniform steps joined with the Gauss-Legendre fractions, so Da at
    those fractions is read off the running sum without interpolation;
    the rest of the chord past f's support adds one more trapezoid pass
    of as many steps.  steps=8 has the step count of the forward's former
    scheme; steps=256 (32 times as many) is the accuracy tests'
    reference: against 1024 steps it moved by 3e-11 to 8e-10 of the
    sinogram's maximum in the cases measured.
    """
    dirs = np.column_stack([np.cos(angular.angles), np.sin(angular.angles)])
    taus = boundary.node_chord_lengths(dirs)
    normal_dot = boundary.normals @ dirs.T
    gl_frac, gl_w = quad.nodes_weights()
    n_da = steps * len(gl_frac)
    frac_union = np.unique(np.concatenate([np.arange(n_da + 1) / n_da, gl_frac]))
    gl_pos = np.searchsorted(frac_union, gl_frac)
    data = np.zeros((boundary.n_nodes, angular.n_angles))
    for j, th in enumerate(dirs):
        out = normal_dot[:, j] > TOL_TANGENT
        tau = taus[out, j]
        entry = boundary.positions[out] - tau[:, None] * th[None, :]
        lo, hi = _support_span(f, entry, th, tau)
        span = hi - lo
        s_gl = lo[:, None] + span[:, None] * gl_frac[None, :]
        fv = f.planes(entry[:, :1] + s_gl * th[0], entry[:, 1:] + s_gl * th[1])
        s_u = lo[:, None] + span[:, None] * frac_union[None, :]
        av = a.planes(entry[:, :1] + s_u * th[0], entry[:, 1:] + s_u * th[1])
        seg = 0.5 * (av[:, 1:] + av[:, :-1]) * np.diff(s_u, axis=1)
        cum = np.concatenate([np.zeros((len(tau), 1)), np.cumsum(seg, axis=1)], axis=1)
        s_b = hi[:, None] + (tau - hi)[:, None] * (np.arange(n_da + 1) / n_da)[None, :]
        ab = a.planes(entry[:, :1] + s_b * th[0], entry[:, 1:] + s_b * th[1])
        beyond = np.sum(0.5 * (ab[:, 1:] + ab[:, :-1]) * np.diff(s_b, axis=1), axis=1)
        fv = fv * np.exp(-(cum[:, -1:] - cum[:, gl_pos] + beyond[:, None]))
        data[out, j] = span * np.einsum("mk,k->m", fv, gl_w, optimize=False)
    return data


def verify_radon_identity(g, f, a, n_probes=100, seed=1234):
    """Max defect of the defining chord identity over random probes.

    Each probe draws a grid direction and a point in the bounding box of
    the boundary nodes, kept if it lies inside, at least 1e-3 from the
    curve.  It forms the chord through the point and compares
    g(exit) - e^{-Da(entry)} g(entry) against an independent
    dense-trapezoid attenuated ray integral of f; g values at the chord
    endpoints come from trigonometric interpolation along the boundary.
    """
    rng = np.random.default_rng(seed)
    boundary = g.boundary
    angles = g.angular.angles
    worst = 0.0
    lo, hi = np.min(boundary.positions, axis=0), np.max(boundary.positions, axis=0)
    for _ in range(n_probes):
        j = int(rng.integers(len(angles)))
        th = np.array([np.cos(angles[j]), np.sin(angles[j])])
        while True:
            x = rng.uniform(lo, hi)
            if boundary.contains(x) and boundary.distance_to_boundary(x[None, :])[0] > 1e-3:
                break
        t_lo, t_hi, _ = boundary.line_spans(x[None, :], th)
        end_plus = x + t_hi[0] * th
        end_minus = x + t_lo[0] * th
        length = t_hi[0] - t_lo[0]
        u_plus = nearest_param(boundary, end_plus)
        u_minus = nearest_param(boundary, end_minus)
        col = g.data[:, j:j + 1]
        g_pm = _trig_interp_columns(col, np.array([u_plus, u_minus]))
        g_plus, g_minus = float(g_pm[0, 0]), float(g_pm[1, 0])
        if a.is_zero:
            att = 1.0
        else:
            s_dense = np.linspace(0.0, length, 4001)
            pts = end_minus[None, :] + s_dense[:, None] * th[None, :]
            att = float(np.exp(-_trapezoid_sum(a(pts), s_dense)))
        ray = _dense_attenuated_integral(f, a, end_minus, th, length)
        defect = abs(g_plus - att * g_minus - ray)
        worst = max(worst, defect)
    return worst


def aanaliticity_defect(field, grid):
    """Max finite-difference defect of dbar v_n + d v_{n-2} on a patch.

    The field, cauchy_build's (N+1, P) array, must be sampled on a fully
    valid Cartesian patch; centered differences give dbar = (d_x + i d_y)/2
    and d = (d_x - i d_y)/2 and the defect pairs stored rows k and k+2.
    """
    if not np.all(grid.valid):
        raise ValueError("a-analyticity defect needs a fully interior patch")
    n_rows = field.shape[0]
    pic = field.reshape(n_rows, grid.ny, grid.nx)
    dx = (pic[:, 1:-1, 2:] - pic[:, 1:-1, :-2]) / (2.0 * (grid.xs[1] - grid.xs[0]))
    dy = (pic[:, 2:, 1:-1] - pic[:, :-2, 1:-1]) / (2.0 * (grid.ys[1] - grid.ys[0]))
    dbar = 0.5 * (dx + 1.0j * dy)
    dee = 0.5 * (dx - 1.0j * dy)
    worst = 0.0
    for k in range(0, n_rows - 2):
        worst = max(worst, float(np.max(np.abs(dbar[k] + dee[k + 2]))))
    return worst


def residual_route_gap(g, factors):
    """Max gap between the two equivalent residual formulations.

    Route one applies (I + i H_a) directly; route two conjugates by the
    factors, applying (I + i H_0) to alpha * g and convolving the result
    by beta.  They agree up to the alpha * beta identity defect.
    """
    r1 = range_residual_a(g, factors).residual.data
    ag = convolve(factors.alpha, g.data)
    inner = ag + 1.0j * hilbert_H0(ModeTrace(g.boundary, g.n_modes, ag)).data
    r2 = convolve(factors.beta, inner)
    return float(np.max(np.abs(r1 - r2)))
