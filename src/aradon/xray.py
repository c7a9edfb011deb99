"""Forward modeling: ray transforms, sinogram assembly, analytic phantoms.

The full-line transform integrates across the whole domain, on many
parallel lines at once.  No crossing is solved here: every chord and
line span comes from the geometry's one primitive,
ConvexBoundary.line_spans, and every chord quadrature samples its rays
with one helper, ray_points, which returns one contiguous plane per
coordinate, and fields are evaluated on those planes directly: an
interleaved (..., 2) layout would make every sample a stride-2 write
and every field read a stride-2 read.
forward_sinogram produces the canonical boundary data of an attenuated
ray transform: on outgoing node/direction pairs it carries the
attenuated ray integral of the source over the full chord, on incoming
and tangential pairs it is zero.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

from .errors import UnknownPhantom, SupportViolation
from .geometry import TOL_TANGENT


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


@lru_cache(maxsize=None)
def _tail_rule(panels, points):
    """Nodes of a finer rule, max(4 panels, 32) x max(points, 8), and the
    matrix from samples there to the integrals from each (panels, points)
    node to 1 (read-only): a row integrates its fine panel's interpolant
    from the node on, then takes the Gauss weights of every later panel.
    """
    fp, fq = max(4 * panels, 32), max(points, 8)
    fine, fine_w = _composite_rule(fp, fq)
    x, w = leggauss(fq)
    # antiderivatives of the fq Lagrange polynomials on x, one column each
    anti = legint((np.arange(fq) + 0.5)[:, None] * legvander(x, fq - 1).T * w, axis=0)
    nodes = _composite_rule(panels, points)[0]
    pan = np.minimum((nodes * fp).astype(int), fp - 1)
    part = (legval(1.0, anti)[:, None] - legval(2.0 * (nodes * fp - pan) - 1.0, anti)) / (2.0 * fp)
    col_pan = np.arange(fp * fq) // fq
    tail = np.where(col_pan > pan[:, None], fine_w, 0.0)
    tail[col_pan == pan[:, None]] = part.T.ravel()
    tail.flags.writeable = False
    return fine, tail


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
    """Scalar function on the closed domain, zero outside.

    Wraps a vectorized formula of the coordinate planes (x, y).  With
    `mask_domain` its values are set to zero outside the domain, for
    formulas whose own support reaches past it.  Calling the field takes
    points with a last axis of length 2; `planes` takes the coordinates
    as two arrays of one shape, as ray_points lays them out.
    """

    def __init__(self, func, boundary, name="", params=None, mask_domain=False):
        self._func = func
        self.boundary = boundary
        self.name = name
        self.params = dict(params or {})
        self._mask_domain = mask_domain

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        out = self.planes(pts[..., 0], pts[..., 1])
        return float(out) if pts.ndim == 1 else out

    def planes(self, x, y):
        """Values at the points (x, y); x and y are arrays of one shape."""
        out = np.asarray(self._func(x, y), dtype=float)
        if self._mask_domain:
            flat = np.stack([np.ravel(x), np.ravel(y)], axis=-1)
            out = np.where(self.boundary.contains(flat).reshape(out.shape), out, 0.0)
        return out

    @property
    def is_zero(self):
        return self.name == "zero"


def phantom(name, boundary, params=None):
    """Named analytic test field on the given domain.

    poly-bump          (1 - |x|^2)^2 on the unit disk, 0 outside it (C^{1,1})
    shifted-poly-bump  same profile moved to `center`, support radius `radius`
    gaussian-truncated amplitude * exp(-|x-center|^2 / sigma^2), cut off
                       at the boundary
    zero               identically 0
    """
    p = dict(params or {})
    if name == "poly-bump":
        amp = float(p.get("amplitude", 1.0))

        def f(x, y):
            r2 = x ** 2 + y ** 2
            return amp * np.maximum(1.0 - r2, 0.0) ** 2
        _check_disk_support(boundary, np.zeros(2), 1.0, name)
        return ScalarField(f, boundary, name=name, params={"amplitude": amp})
    if name == "shifted-poly-bump":
        c = np.asarray(p.get("center", (0.3, 0.15)), dtype=float)
        r = float(p.get("radius", 0.55))
        amp = float(p.get("amplitude", 1.0))
        _check_disk_support(boundary, c, r, name)

        def f(x, y):
            r2 = (x - c[0]) ** 2 + (y - c[1]) ** 2
            return amp * np.maximum(1.0 - r2 / r ** 2, 0.0) ** 2
        return ScalarField(f, boundary, name=name, params={"center": tuple(c), "radius": r, "amplitude": amp})
    if name == "gaussian-truncated":
        c = np.asarray(p.get("center", (0.0, 0.0)), dtype=float)
        sig = float(p.get("sigma", 0.18))
        amp = float(p.get("amplitude", 1.0))

        def f(x, y):
            r2 = (x - c[0]) ** 2 + (y - c[1]) ** 2
            return amp * np.exp(-r2 / sig ** 2)
        return ScalarField(f, boundary, name=name,
                           params={"center": tuple(c), "sigma": sig, "amplitude": amp},
                           mask_domain=True)
    if name == "zero":
        return ScalarField(lambda x, y: np.zeros(np.shape(x)), boundary, name="zero")
    raise UnknownPhantom("unknown phantom %r" % (name,))


def _check_disk_support(boundary, center, radius, name):
    # The support disk must stay inside the closed domain.
    t = np.linspace(0.0, 2.0 * np.pi, 16 * boundary.n_nodes, endpoint=False)
    w = boundary.position_at(t)
    dmin = float(np.min(np.hypot(w[:, 0] - center[0], w[:, 1] - center[1])))
    if not boundary.contains(np.asarray(center, dtype=float)) or dmin < radius - 1e-12:
        raise SupportViolation(
            "%s support disk (center %s, radius %g) leaks outside the domain"
            % (name, tuple(center), radius)
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


def radon_profile(a, boundary, theta, s_values, quad=QuadSettings()):
    """Full-line integrals of `a` on a whole vector of offsets at once."""
    th = np.asarray(theta, float)
    perp = np.array([-th[1], th[0]])
    s_values = np.asarray(s_values, float)
    if a.is_zero:
        return np.zeros(len(s_values))
    p0s = s_values[:, None] * perp[None, :]
    t_lo, t_hi, _ = boundary.line_spans(p0s, th)
    nodes, weights = quad.nodes_weights()
    spans = t_hi - t_lo
    ts = t_lo[:, None] + spans[:, None] * nodes[None, :]
    vals = a.planes(*ray_points(p0s, th, ts))
    return spans * np.einsum("sq,q->s", vals, weights, optimize=False)


def forward_sinogram(f, a, boundary, angular, quad=QuadSettings()):
    """Canonical attenuated boundary data of the source f.

    On outgoing pairs (n(z) . theta > 0) the value is the integral of
    f e^{-Da} over the full chord ending at z; incoming and tangential
    pairs are zero.  Da at the Gauss nodes is `a` sampled on _tail_rule's
    finer Gauss-Legendre rule times its tail-integral matrix (accuracy
    against the former trapezoid pass: README, "Forward quadrature").
    """
    dirs = _directions(angular.angles)
    taus = boundary.node_chord_lengths(dirs)          # (n_nodes, M)
    normal_dot = boundary.normals @ dirs.T            # (n_nodes, M)
    gl_frac, gl_w = quad.nodes_weights()

    attenuated = not a.is_zero
    data = np.zeros((boundary.n_nodes, angular.n_angles))
    for j in range(angular.n_angles):
        th = dirs[j]
        out_mask = normal_dot[:, j] > TOL_TANGENT
        if not np.any(out_mask):
            continue
        tau = taus[out_mask, j]                       # (m,)
        entry = boundary.positions[out_mask] - tau[:, None] * th[None, :]
        fv = f.planes(*ray_points(entry, th, tau[:, None] * gl_frac[None, :]))   # (m, K)
        if attenuated:
            fine, tail = _tail_rule(quad.panels, quad.points)
            av = a.planes(*ray_points(entry, th, tau[:, None] * fine[None, :]))
            fv = fv * np.exp(-tau[:, None] * (av @ tail.T))   # Da at the GL nodes
        data[out_mask, j] = tau * np.einsum("mk,k->m", fv, gl_w, optimize=False)

    meta = {
        "f": {"name": f.name, "params": f.params},
        "a": {"name": a.name, "params": a.params},
        "quad": {"panels": quad.panels, "points": quad.points},
        "gauge": "zero-on-incoming",
    }
    return Sinogram(boundary, angular, data, attenuated=attenuated, meta=meta)
