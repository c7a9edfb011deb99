"""Forward modeling: ray transforms, sinogram assembly, analytic phantoms.

Every shipped field integrates itself along a line in closed form
(ScalarField.line_integral): a bump is a quartic along every line inside
its support disk, which it clips the line to, and the Gaussian an erf.
One helper, ray_span, decides how far every line and ray runs: unbounded
when each field on it has a support disk, else to the curve crossings of
the geometry's one primitive, ConvexBoundary.line_spans.  So Ra, Da and
every plain chord are closed forms; only the attenuated forward samples
a field, f e^{-Da} on QuadSettings' composite rule over f's ray clipped
to its support disk (clip_chords).  Rays are sampled with ray_points,
which returns one contiguous plane per coordinate, and fields are
evaluated on those planes directly: an interleaved (..., 2) layout would
make every sample a stride-2 write and every field read a stride-2 read.
forward_sinogram produces the canonical boundary data of an attenuated
ray transform: on outgoing node/direction pairs it carries the
attenuated ray integral of the source along the ray back from the node,
on incoming and tangential pairs it is zero.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AradonError, UnknownPhantom, SupportViolation
from .geometry import TOL_TANGENT, unit_circle_spans


@dataclass(frozen=True)
class QuadSettings:
    """Composite Gauss-Legendre settings for the attenuated forward's
    integrals of f e^{-Da}, the one integrand that is not a closed form."""

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
    it is zero and which lies in the closed domain.  Its `line` is the
    closed form of its integral along a line (line_integral).
    """

    def __init__(self, func, line, name="", params=None, support=None, center=(0.0, 0.0)):
        self._func = func
        self._line = line
        self.name = name
        self.params = dict(params or {})
        self.support = support            # (center (2,), radius): zero outside
        self._center = np.asarray(center, dtype=float)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        out = self.planes(pts[..., 0], pts[..., 1])
        return float(out) if pts.ndim == 1 else out

    def planes(self, x, y):
        """Values at the points (x, y); x and y are arrays of one shape."""
        return np.asarray(self._func(x, y), dtype=float)

    def line_integral(self, starts, direction, t_lo, t_hi, across=None):
        """Integrals of the field along starts + t * direction, t in [t_lo, t_hi].

        starts is (m, 2), direction a unit vector, t_lo a number or (m,)
        and t_hi (m,) or (m, K), K ends on each line; infinite ends are
        allowed where the field has a support disk.  With `across`, the
        unit normal of direction, the pair (integrals, integrals of
        across . grad) of one shape.  Each field's `line` takes the ends
        s measured from each line's foot point nearest the field's centre
        and the line's offset `off` (across, or the normal (-d_y, d_x),
        dotted with start - centre): |x - centre|^2 = s^2 + off^2.
        """
        rel = starts - self._center
        normal = (-direction[1], direction[0]) if across is None else across
        col = (slice(None),) + (None,) * (np.ndim(t_hi) - 1)
        along = (rel @ direction)[col]
        off = (rel @ np.asarray(normal, dtype=float))[col]
        if np.ndim(t_lo):
            t_lo = np.asarray(t_lo)[col]
        return self._line(t_lo + along, t_hi + along, off, across is not None)

    @property
    def is_zero(self):
        return self.name == "zero"


def _bump(name, boundary, center, radius, amp, params):
    """amp (1 - |x - center|^2 / radius^2)^2 on its support disk, 0 outside
    (C^{1,1}).  Along a line at offset `off`, with rho^2 = radius^2 - off^2,
    it is amp / radius^4 (rho^2 - s^2)^2 on |s| <= rho; across . grad is
    -4 amp / radius^4 off (rho^2 - s^2) there."""
    c, r = center, radius
    _check_disk_support(boundary, c, r, name)

    def f(x, y):
        dx, dy = x - c[0], y - c[1]
        q = np.maximum(1.0 - (dx ** 2 + dy ** 2) / r ** 2, 0.0)
        return amp * q ** 2

    def line(s_lo, s_hi, off, slope):
        rho2 = np.maximum(r * r - off * off, 0.0)
        rho = np.sqrt(rho2)
        # the ends in units of rho, clipped to the disk; a line that misses
        # it has rho = 0 and both ends at 0
        unit = np.where(rho > 0.0, rho, 1.0)
        lo = np.clip(s_lo, -rho, rho) / unit
        hi = np.maximum(np.clip(s_hi, -rho, rho) / unit, lo)
        lo2, hi2 = lo * lo, hi * hi
        cube = (amp / r ** 4) * rho2 * rho
        val = (cube * rho2) * (hi * (1.0 - hi2 * (2.0 / 3.0 - 0.2 * hi2))
                               - lo * (1.0 - lo2 * (2.0 / 3.0 - 0.2 * lo2)))
        if not slope:
            return val
        return val, (-4.0 * cube) * off * (hi * (1.0 - hi2 / 3.0) - lo * (1.0 - lo2 / 3.0))

    return ScalarField(f, line, name=name, params=params, support=(c, r), center=c)


# The shipped phantoms: each one's params and their defaults.  A support
# radius or a width (POSITIVE_PARAMS) must be positive.
PHANTOMS = {
    "poly-bump": {"amplitude": 1.0},
    "shifted-poly-bump": {"center": (0.3, 0.15), "radius": 0.55, "amplitude": 1.0},
    "gaussian-truncated": {"center": (0.0, 0.0), "sigma": 0.18, "amplitude": 1.0},
    "zero": {},
}
POSITIVE_PARAMS = ("radius", "sigma")


def phantom(name, boundary, params=None):
    """Named analytic test field on the given domain.

    poly-bump          (1 - |x|^2)^2 on the unit disk, 0 outside it (C^{1,1}):
                       the shifted bump at centre (0, 0) of radius 1
    shifted-poly-bump  same profile moved to `center`, support radius `radius`
    gaussian-truncated amplitude * exp(-|x-center|^2 / sigma^2), cut off
                       at the boundary by the domain its callers sample
    zero               identically 0

    Along a line the Gaussian integrates to amplitude e^{-off^2/sigma^2}
    (sigma sqrt(pi) / 2) erf(s / sigma) between its ends, and across . grad
    to -2 off / sigma^2 times that; scipy.special.erf is imported at the
    first such integral.
    """
    if not isinstance(name, str) or name not in PHANTOMS:
        raise UnknownPhantom("unknown phantom %r" % (name,))
    p = {**PHANTOMS[name], **(params or {})}
    if name == "poly-bump":
        amp = float(p["amplitude"])
        return _bump(name, boundary, np.zeros(2), 1.0, amp, {"amplitude": amp})
    if name == "shifted-poly-bump":
        c = np.asarray(p["center"], dtype=float)
        r, amp = float(p["radius"]), float(p["amplitude"])
        return _bump(name, boundary, c, r, amp,
                     {"center": tuple(c), "radius": r, "amplitude": amp})
    if name == "gaussian-truncated":
        c = np.asarray(p["center"], dtype=float)
        sig, amp = float(p["sigma"]), float(p["amplitude"])

        def f(x, y):
            dx, dy = x - c[0], y - c[1]
            return amp * np.exp(-(dx ** 2 + dy ** 2) / sig ** 2)

        def line(s_lo, s_hi, off, slope):
            from scipy.special import erf  # only Gaussian runs load scipy

            val = ((0.5 * np.sqrt(np.pi) * sig * amp) * np.exp(-(off / sig) ** 2)
                   * (erf(s_hi / sig) - erf(s_lo / sig)))
            return (val, (-2.0 / sig ** 2) * off * val) if slope else val
        return ScalarField(f, line, name=name, center=c,
                           params={"center": tuple(c), "sigma": sig, "amplitude": amp})

    # the one name left, "zero"
    def line(s_lo, s_hi, off, slope):
        val = np.zeros(np.broadcast(s_lo, s_hi, off).shape)
        return (val, val) if slope else val
    return ScalarField(lambda x, y: np.zeros(np.shape(x)), line, name="zero")


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


def radon_profile(a, boundary, theta, s_values):
    """Full-line integrals of `a` on a whole vector of offsets at once,
    over the lines' ray_span."""
    th = np.asarray(theta, float)
    perp = np.array([-th[1], th[0]])
    s_values = np.asarray(s_values, float)
    if a.is_zero:
        return np.zeros(len(s_values))
    p0s = s_values[:, None] * perp[None, :]
    return a.line_integral(p0s, th, *ray_span((a,), boundary, p0s, th)[:2])


def forward_sinogram(f, a, boundary, angular, quad=QuadSettings()):
    """Canonical attenuated boundary data of the source f.

    On outgoing pairs (n(z) . theta > 0) the value is the integral of
    f e^{-Da} along the ray z - t theta, t >= 0, back from z to its
    ray_span's end; incoming and tangential pairs are zero.  Without
    attenuation that is f's line integral, a closed form.  With it,
    quad's composite rule runs over f's clipped ray, and Da at its nodes,
    the integral of `a` from the node on to z, is `a`'s line integral
    over [0, t] of the ray (README, "Forward quadrature").
    """
    dirs = _directions(angular.angles)
    normal_dot = boundary.normals @ dirs.T            # (n_nodes, M)
    gl_frac, gl_w = quad.nodes_weights()

    attenuated = not a.is_zero
    fields = (f, a) if attenuated else (f,)
    data = np.zeros((boundary.n_nodes, angular.n_angles))
    for j in range(angular.n_angles):
        back = -dirs[j]
        out_mask = normal_dot[:, j] > TOL_TANGENT
        if not np.any(out_mask):
            continue
        z = boundary.positions[out_mask]
        _, end, _ = ray_span(fields, boundary, z, back)
        if not attenuated:
            data[out_mask, j] = f.line_integral(z, back, 0.0, end)
            continue
        lo, hi = clip_chords(f, z, back, 0.0, end)
        span = hi - lo
        t = lo[:, None] + span[:, None] * gl_frac                 # (m, K)
        fv = f.planes(*ray_points(z, back, t))
        with np.errstate(over="ignore", invalid="ignore"):
            fv *= np.exp(-a.line_integral(z, back, 0.0, t))
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
