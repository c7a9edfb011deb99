"""Forward modeling: ray transforms, sinogram assembly, analytic phantoms.

The full-line transform integrates across the whole domain, on many
parallel lines at once.  One helper, ray_span, decides how far every
line and ray runs: unbounded when each field on it has a support disk,
else to the curve crossings of the geometry's one primitive,
ConvexBoundary.line_spans.  Every chord integral goes through one
helper, chord_integrals: it clips the chord to the field's support disk
(clip_chords), integrates a field that is a polynomial along lines
inside that disk with one EXACT_POINTS Gauss-Legendre panel (exact) and
any other field with QuadSettings' composite rule.  Rays are sampled
with ray_points, which returns one contiguous plane per coordinate, and
fields are evaluated on those planes directly: an interleaved (..., 2)
layout would make every sample a stride-2 write and every field read a
stride-2 read.
forward_sinogram produces the canonical boundary data of an attenuated
ray transform: on outgoing node/direction pairs it carries the
attenuated ray integral of the source along the ray back from the node,
on incoming and tangential pairs it is zero.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander

from .errors import AradonError, UnknownPhantom, SupportViolation
from .geometry import TOL_TANGENT, unit_circle_spans

# Gauss points of the one panel on a polynomial field's clipped chord:
# exact for degree up to 2 * 8 - 1, and its interpolant reproduces
# degree up to 7, so tail integrals of such a field are exact too.
EXACT_POINTS = 8


@dataclass(frozen=True)
class QuadSettings:
    """Composite Gauss-Legendre settings for chord integrals."""

    panels: int = 8
    points: int = 8

    def nodes_weights(self):
        """Nodes and weights on [0, 1], composite over equal panels (read-only)."""
        return _composite_rule(self.panels, self.points)


@lru_cache(maxsize=None)  # keyed by (panels, points): a handful per process
def _composite_rule(panels, points):
    x, w = leggauss(points)
    nodes = ((np.arange(panels)[:, None] + (x[None, :] + 1.0) / 2.0) / panels).ravel()
    weights = np.tile(w / (2.0 * panels), panels)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)  # keyed by point count: one or two per process
def _lagrange_antiderivatives(points):
    """Legendre coefficients (points + 1, points) of the antiderivatives of
    the Lagrange polynomials on the Gauss nodes, one column each (read-only)."""
    x, w = leggauss(points)
    anti = legint((np.arange(points) + 0.5)[:, None] * legvander(x, points - 1).T * w, axis=0)
    anti.flags.writeable = False
    return anti


def _legendre_series(coef, y):
    """sum_d coef[d] P_d(y) by Clenshaw's recurrence; each coef[d]
    broadcasts against y.  Three buffers of y's shape do all the work:
    numpy's legval, which allocates at every step, made the attenuated
    forward about 30% slower."""
    b1 = np.zeros(y.shape) + coef[-1]
    b2 = np.zeros(y.shape)
    tmp = np.empty(y.shape)
    for k in range(len(coef) - 2, 0, -1):
        # b_k = c_k + (2k+1)/(k+1) y b_{k+1} - (k+1)/(k+2) b_{k+2}
        np.multiply(y, b1, out=tmp)
        tmp *= (2 * k + 1) / (k + 1)
        tmp += coef[k]
        b2 *= (k + 1) / (k + 2)
        tmp -= b2
        b1, b2, tmp = tmp, b1, b2
    np.multiply(y, b1, out=tmp)
    tmp += coef[0]
    b2 *= 0.5
    tmp -= b2
    return tmp


def ray_points(starts, direction, t):
    """starts + t * direction as a (2,) + t.shape array, one plane per coordinate.

    starts is one point (2,) or one per row of t (m, 2); every element gets
    the same multiply and add as in the broadcast expression.
    """
    pts = np.empty((2,) + np.shape(t))
    for c in range(2):
        np.multiply(t, direction[c], out=pts[c])
        pts[c] += starts[..., c, None]
    return pts


class ScalarField:
    """Scalar function on the closed domain, where its callers sample it.

    Wraps a vectorized formula of the coordinate planes (x, y); no mask
    cuts it off outside.  Calling the field takes points with a last axis
    of length 2; `planes` takes the coordinates as two arrays of one
    shape, as ray_points lays them out.

    A field may carry a `support` disk, (center, radius), outside which
    it is zero and which lies in the closed domain, and a `line_degree`:
    the degree of the polynomial it is along every line inside that disk.
    Chord integrals read both (chord_integrals).
    """

    def __init__(self, func, name="", params=None, support=None, line_degree=None):
        self._func = func
        self.name = name
        self.params = dict(params or {})
        self.support = support            # (center (2,), radius): zero outside
        self.line_degree = line_degree    # polynomial degree along lines inside support

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        out = self.planes(pts[..., 0], pts[..., 1])
        return float(out) if pts.ndim == 1 else out

    def planes(self, x, y, across=None):
        """Values at the points (x, y); x and y are arrays of one shape.
        With a unit vector `across`, values and across . grad stacked."""
        vals = self._func(x, y) if across is None else self._func(x, y, across)
        return np.asarray(vals, dtype=float)

    @property
    def is_zero(self):
        return self.name == "zero"


def phantom(name, boundary, params=None):
    """Named analytic test field on the given domain.

    poly-bump          (1 - |x|^2)^2 on the unit disk, 0 outside it (C^{1,1})
    shifted-poly-bump  same profile moved to `center`, support radius `radius`
    gaussian-truncated amplitude * exp(-|x-center|^2 / sigma^2), cut off
                       at the boundary by the domain its callers sample
    zero               identically 0

    Both bumps carry their support disk and line degree 4 (a quartic
    along every line inside the disk), so their chord integrals are exact,
    and those of their derivatives (cubic) too.
    """
    p = dict(params or {})
    if name == "poly-bump":
        amp = float(p.get("amplitude", 1.0))

        def f(x, y, across=None):
            q = np.maximum(1.0 - (x ** 2 + y ** 2), 0.0)
            if across is None:
                return amp * q ** 2
            return amp * q ** 2, (-4.0 * amp) * q * (across[0] * x + across[1] * y)
        c = np.zeros(2)
        _check_disk_support(boundary, c, 1.0, name)
        return ScalarField(f, name=name, params={"amplitude": amp},
                           support=(c, 1.0), line_degree=4)
    if name == "shifted-poly-bump":
        c = np.asarray(p.get("center", (0.3, 0.15)), dtype=float)
        r = float(p.get("radius", 0.55))
        amp = float(p.get("amplitude", 1.0))
        _check_disk_support(boundary, c, r, name)

        def f(x, y, across=None):
            dx, dy = x - c[0], y - c[1]
            q = np.maximum(1.0 - (dx ** 2 + dy ** 2) / r ** 2, 0.0)
            if across is None:
                return amp * q ** 2
            return amp * q ** 2, (-4.0 * amp / r ** 2) * q * (across[0] * dx + across[1] * dy)
        return ScalarField(f, name=name,
                           params={"center": tuple(c), "radius": r, "amplitude": amp},
                           support=(c, r), line_degree=4)
    if name == "gaussian-truncated":
        c = np.asarray(p.get("center", (0.0, 0.0)), dtype=float)
        sig = float(p.get("sigma", 0.18))
        amp = float(p.get("amplitude", 1.0))

        def f(x, y, across=None):
            dx, dy = x - c[0], y - c[1]
            val = amp * np.exp(-(dx ** 2 + dy ** 2) / sig ** 2)
            if across is None:
                return val
            return val, (-2.0 / sig ** 2) * val * (across[0] * dx + across[1] * dy)
        return ScalarField(f, name=name,
                           params={"center": tuple(c), "sigma": sig, "amplitude": amp})
    if name == "zero":
        return ScalarField(lambda x, y, across=None: np.zeros(np.shape(x)) if across is None
                           else (np.zeros(np.shape(x)),) * 2, name="zero")
    raise UnknownPhantom("unknown phantom %r" % (name,))


def _check_disk_support(boundary, center, radius, name):
    # The support disk must stay inside the closed domain: its centre at
    # least `radius` inside the curve (a negative distance is outside).
    if boundary.distance_to_boundary(np.asarray(center, dtype=float)) < radius - 1e-12:
        raise SupportViolation(
            "%s support disk (center %s, radius %g) leaks outside the domain"
            % (name, tuple(float(x) for x in center), radius)
        )


class Sinogram:
    """Boundary data g tabulated on boundary nodes x directions."""

    def __init__(self, boundary, angular, data, attenuated=False, meta=None):
        data = np.asarray(data, dtype=float)
        if data.shape != (boundary.n_nodes, angular.n_angles):
            raise ValueError(
                "sinogram shape %r does not match (n_nodes, n_angles) = %r"
                % (data.shape, (boundary.n_nodes, angular.n_angles))
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("sinogram contains non-finite entries")
        self.boundary = boundary
        self.angular = angular
        self.data = data
        self.attenuated = bool(attenuated)
        self.meta = dict(meta or {})


def _directions(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


def ray_span(fields, boundary, starts, direction, normal=False):
    """(t_lo, t_hi, n_hi): how far the lines starts + t * direction run for
    the integrals of `fields` on them; a ray from a point of the closed
    domain runs over [0, t_hi].  With `normal`, n_hi is line_spans' normal
    where each line ends, else None, and None on whole lines.

    When every field has a support disk, which lies in the closed domain
    and which clip_chords cuts each line to, the lines are whole.  Else
    line_spans solves their crossings with the curve, once for all the
    fields: a field without a support, the zero one too, never runs to
    infinity, where its zero samples would read inf * 0 = NaN.
    """
    if all(f.support is not None for f in fields):
        return -np.inf, np.inf, None
    spans = boundary.line_spans(starts, direction, normal=normal)
    return spans[0], spans[1], spans[3] if normal else None


def clip_chords(field, starts, direction, t_lo, t_hi):
    """The part of each chord starts + t * direction, t in [t_lo, t_hi],
    inside the field's support disk, as (lo, hi) arrays with hi == lo where
    the chord misses it.  A field without a support keeps whole chords.
    """
    if field.support is None:
        return np.broadcast_arrays(np.asarray(t_lo, float), np.asarray(t_hi, float))
    center, radius = field.support
    s_lo, s_hi, hit = unit_circle_spans((starts - center) / radius, direction / radius)
    lo = np.maximum(t_lo, s_lo)
    hi = np.minimum(t_hi, s_hi)
    return lo, np.where(hit & (hi > lo), hi, lo)


def _sample_chords(field, starts, direction, t_lo, t_hi, nodes, across=None, chords=None):
    """Clipped chords (lo, span), positions t = lo + span * nodes and the
    field's values there (with `across`, its slopes too: ScalarField.planes),
    one row per start.  `chords`, clip_chords' (lo, hi) for these chords
    already made, stands for the clipping."""
    lo, hi = clip_chords(field, starts, direction, t_lo, t_hi) if chords is None else chords
    span = hi - lo
    t = lo[..., None] + span[..., None] * nodes
    return lo, span, t, field.planes(*ray_points(starts, direction, t), across)


def chord_integrals(field, starts, direction, t_lo, t_hi, quad=QuadSettings(), across=None):
    """Integrals of `field` along starts + t * direction over [t_lo, t_hi].

    The chords are clipped to the field's support disk; a chord that
    misses it integrates to exactly 0.  A polynomial on its support takes
    one EXACT_POINTS Gauss-Legendre panel, exact; any other field takes
    quad's composite rule over the whole chord.  With a unit vector
    `across`, those of the field's slope along it too, on the same samples,
    stacked (2, ...).
    """
    if field.line_degree is not None:
        nodes, weights = _composite_rule(1, EXACT_POINTS)
    else:
        nodes, weights = quad.nodes_weights()
    _, span, _, vals = _sample_chords(field, starts, direction, t_lo, t_hi, nodes, across)
    return span * np.einsum("...mk,k->...m", vals, weights, optimize=False)


def _tail_integrals(a, starts, direction, tau, t, quad, chords=None):
    """Integrals of `a` from each position t (m, K) on the rays
    starts + s * direction to their ends s = tau, ray_span's t_hi;
    `chords`, if given, are the rays clipped to `a`'s support disk.

    `a` is sampled on its own rule: one EXACT_POINTS panel on its clipped
    span for a polynomial `a` (exact), else max(4P, 32) panels x max(Q, 8)
    points over the whole chord.  A position integrates the Legendre
    interpolant of its panel from there to the panel's end and adds the
    Gauss sums of every later panel (spectral integration, Greengard,
    SIAM J. Numer. Anal. 28 (1991) 1071); before the span it takes the
    whole span, after it nothing.
    """
    if a.line_degree is not None:
        n_pan, n_pts = 1, EXACT_POINTS
    else:
        n_pan, n_pts = max(4 * quad.panels, 32), max(quad.points, 8)
    nodes, weights = _composite_rule(n_pan, n_pts)
    lo, span, _, av = _sample_chords(a, starts, direction, 0.0, tau, nodes, chords=chords)
    m = len(span)
    # Legendre coefficients of each panel's antiderivative of its
    # interpolant, (n_coef, m, n_pan); for a polynomial `a` those past
    # the antiderivative's degree vanish and are left out
    n_coef = n_pts + 1 if a.line_degree is None else min(n_pts, a.line_degree + 1) + 1
    anti = _lagrange_antiderivatives(n_pts)[:n_coef]
    coef = (anti @ av.reshape(m * n_pan, n_pts).T).reshape(n_coef, m, n_pan)
    end = coef.sum(axis=0)                      # (m, n_pan): values at y = 1

    # each position in panel units; a chord that misses a's support has
    # span 0, so every position sits at 0 and integrates to 0
    per_len = np.divide(n_pan, span, out=np.zeros_like(span), where=span > 0.0)
    u = np.clip((t - lo[:, None]) * per_len[:, None], 0.0, n_pan)
    if n_pan == 1:
        pan, later = 0, 0.0
    else:
        panel_sums = av.reshape(m, n_pan, n_pts) @ weights[:n_pts]
        later = np.zeros_like(panel_sums)
        later[:, :-1] = np.cumsum(panel_sums[:, :0:-1], axis=1)[:, ::-1]
        pan = np.minimum(u.astype(int), n_pan - 1)
        rows = np.arange(m)[:, None]
        coef, end, later = coef[:, rows, pan], end[rows, pan], later[rows, pan]
    own = end - _legendre_series(coef, 2.0 * (u - pan) - 1.0)
    return span[:, None] * (later + own / (2.0 * n_pan))


def radon_profile(a, boundary, theta, s_values, quad=QuadSettings()):
    """Full-line integrals of `a` on a whole vector of offsets at once,
    over the lines' ray_span."""
    th = np.asarray(theta, float)
    perp = np.array([-th[1], th[0]])
    s_values = np.asarray(s_values, float)
    if a.is_zero:
        return np.zeros(len(s_values))
    p0s = s_values[:, None] * perp[None, :]
    return chord_integrals(a, p0s, th, *ray_span((a,), boundary, p0s, th)[:2], quad)


def forward_sinogram(f, a, boundary, angular, quad=QuadSettings()):
    """Canonical attenuated boundary data of the source f.

    On outgoing pairs (n(z) . theta > 0) the value is the integral of
    f e^{-Da} along the ray z - t theta, t >= 0, back from z to its
    ray_span's end; incoming and tangential pairs are zero.  Without
    attenuation that is chord_integrals of f.  With it, quad's composite
    rule runs over f's clipped ray, and Da at its nodes, the integral of
    `a` from the node on to z, is `a`'s whole back ray less its tail from
    the node (_tail_integrals; README, "Forward quadrature").
    """
    dirs = _directions(angular.angles)
    normal_dot = boundary.normals @ dirs.T            # (n_nodes, M)
    gl_frac, gl_w = quad.nodes_weights()

    attenuated = not a.is_zero
    fields = (f, a) if attenuated else (f,)
    # f and `a` on one support disk clip each ray alike: once for both
    shared = (f.support is not None and a.support is not None
              and np.array_equal(f.support[0], a.support[0]) and f.support[1] == a.support[1])
    data = np.zeros((boundary.n_nodes, angular.n_angles))
    for j in range(angular.n_angles):
        back = -dirs[j]
        out_mask = normal_dot[:, j] > TOL_TANGENT
        if not np.any(out_mask):
            continue
        z = boundary.positions[out_mask]
        _, end, _ = ray_span(fields, boundary, z, back)
        if not attenuated:
            data[out_mask, j] = chord_integrals(f, z, back, 0.0, end, quad)
            continue
        chords = clip_chords(f, z, back, 0.0, end)
        _, span, t, fv = _sample_chords(f, z, back, 0.0, end, gl_frac, chords=chords)  # (m, K)
        # tails from z itself (column 0) and from each of f's nodes
        t_from = np.concatenate((np.zeros((len(z), 1)), t), axis=1)
        tails = _tail_integrals(a, z, back, end, t_from, quad, chords if shared else None)
        with np.errstate(over="ignore", invalid="ignore"):
            fv *= np.exp(tails[:, 1:] - tails[:, :1])
            data[out_mask, j] = span * np.einsum("mk,k->m", fv, gl_w, optimize=False)
    if not np.all(np.isfinite(data)):
        raise AradonError("e^{-Da} overflows on some ray: a negative attenuation is too strong")

    meta = {
        "f": {"name": f.name, "params": f.params},
        "a": {"name": a.name, "params": a.params},
        "quad": {"panels": quad.panels, "points": quad.points},
        "gauge": "zero-on-incoming",
    }
    return Sinogram(boundary, angular, data, attenuated=attenuated, meta=meta)
