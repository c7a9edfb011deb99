"""Convex planar domains and their chord geometry.

A domain is represented by its boundary curve, discretized at uniformly
spaced parameter values on [0, 2pi).  Three kinds are supported: the unit
disk, axis-aligned ellipses, and generic convex curves given as point
tables (interpolated with periodic cubic splines).

Every chord comes from one primitive, ConvexBoundary.line_spans, which
returns the two crossings of many parallel lines with the curve.  It
works in two ways: disks and ellipses solve the quadric in closed form;
point tables use that s(u) = theta x w(u) is monotone on the two arcs
between its extrema, so each crossing is bracketed by a searchsorted on
one arc and polished by Newton kept inside the bracket.

Conventions: curves are traversed counterclockwise; the outward normal is
the tangent rotated clockwise by 90 degrees; angles phi always refer to
the direction (cos phi, sin phi).
"""

import numpy as np

from .errors import NonConvex, TooFewNodes

# Tolerances shared by the geometric predicates.
ON_BOUNDARY_TOL = 1e-9     # distance below which a point counts as lying on the curve
TOL_TANGENT = 1e-9         # |n . theta| below this is tangential (variety Z)
EXTREMUM_ITERS = 8         # cap on Newton steps refining the extrema of s(u)
ROOT_ITERS = 60            # cap on safeguarded Newton steps per arc crossing
ROOT_STEP_TOL = 1e-13      # parameter step below which a Newton iterate counts as converged
CURVATURE_FLOOR = 1e-6     # strictly positive curvature bound delta
POINT_CHUNK = 128          # points per pass of the (points x curve samples) distance search

# Config-file spellings of the boundary kinds.
KIND_ALIASES = {"disk": "unit-disk", "table": "generic"}


def _cross(u, v):
    """z-component of the 2-D cross product u x v."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _dot(u, v):
    """Dot product over the last axis, broadcasting the others."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def unit_circle_spans(points, direction):
    """Crossings of the lines points + t * direction with the unit circle.

    Returns (t_lo, t_hi, hit) as ConvexBoundary.line_spans does.  The
    stable quadratic A t^2 + 2 B t + C = 0 has the roots q / A and C / q
    with q = -(B + sign(B) sqrt(B^2 - A C)).  Any disk or axis-aligned
    ellipse reduces to it by scaling (and shifting) the coordinates.
    """
    A = _dot(direction, direction)
    B = _dot(points, direction)
    C = _dot(points, points) - 1.0
    disc = B * B - A * C
    hit = disc > 0.0
    q = -(B + np.copysign(np.sqrt(np.maximum(disc, 0.0)), B))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, r2 = q / A, C / q
    return (np.where(hit, np.minimum(r1, r2), 0.0),
            np.where(hit, np.maximum(r1, r2), 0.0), hit)


class ConvexBoundary:
    """Discretized C^2 convex boundary curve.

    Attributes
    ----------
    kind : str
        One of "unit-disk", "ellipse", "generic".
    n_nodes : int
        Number of uniformly spaced parameter nodes.
    params : (n,) array
        Node parameters t_i = 2 pi i / n.
    positions, tangents, normals : (n, 2) arrays
        Node positions, unit tangents, outward unit normals.
    curvatures, speeds : (n,) arrays
        kappa(t_i) and |w'(t_i)| at the nodes.
    table : (m, 2) array, "generic" only
        The point table the spline is fitted to, counterclockwise.
    """

    def __init__(self, kind, n_nodes, a=1.0, b=1.0, table=None):
        if n_nodes < 16:
            raise TooFewNodes("n_nodes must be >= 16, got %d" % n_nodes)
        self.kind = kind
        self.n_nodes = int(n_nodes)
        self.a = float(a)
        self.b = float(b)
        self.params = 2.0 * np.pi * np.arange(self.n_nodes) / self.n_nodes
        self._spline = None

        if kind == "generic":
            pts = np.array(table, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 8:
                raise NonConvex("generic boundary needs a table of at least 8 (x, y) rows")
            # Normalize to counterclockwise orientation before fitting.
            area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
            if area2 < 0:
                pts = pts[::-1]
            self.table = pts
            ts = 2.0 * np.pi * np.arange(len(pts) + 1) / len(pts)
            closed = np.vstack([pts, pts[:1]])
            # imported here: scipy.interpolate takes most of a start-up, and
            # only point tables need it
            from scipy.interpolate import CubicSpline
            self._spline = CubicSpline(ts, closed, bc_type="periodic")

        t = self.params
        self.positions = self.position_at(t)
        d1 = self._derivative_at(t)
        d2 = self._second_derivative_at(t)
        self.speeds = np.hypot(d1[:, 0], d1[:, 1])
        self.tangents = d1 / self.speeds[:, None]
        # Outward normal of a counterclockwise curve: tangent rotated by -90 degrees.
        self.normals = np.column_stack([self.tangents[:, 1], -self.tangents[:, 0]])
        self.curvatures = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / self.speeds ** 3

        check_t = np.linspace(0.0, 2.0 * np.pi, 8 * self.n_nodes, endpoint=False)
        cd1 = self._derivative_at(check_t)
        cd2 = self._second_derivative_at(check_t)
        csp = np.hypot(cd1[:, 0], cd1[:, 1])
        ck = (cd1[:, 0] * cd2[:, 1] - cd1[:, 1] * cd2[:, 0]) / csp ** 3
        if np.min(ck) < CURVATURE_FLOOR:
            raise NonConvex(
                "curvature lower bound violated: min kappa = %.3e < %.1e"
                % (np.min(ck), CURVATURE_FLOOR)
            )

        dt = 2.0 * np.pi / self.n_nodes
        self.perimeter = float(np.sum(self.speeds) * dt)

    # ------------------------------------------------------------------
    # curve evaluation: the disk is the ellipse a = b = 1 (times 1.0 is exact)

    def position_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "generic":
            return self._spline(np.mod(t, 2.0 * np.pi))
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def _derivative_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "generic":
            return self._spline(np.mod(t, 2.0 * np.pi), 1)
        return np.stack([-self.a * np.sin(t), self.b * np.cos(t)], axis=-1)

    def _second_derivative_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "generic":
            return self._spline(np.mod(t, 2.0 * np.pi), 2)
        return np.stack([-self.a * np.cos(t), -self.b * np.sin(t)], axis=-1)

    # ------------------------------------------------------------------
    # membership and distance

    def contains(self, points, tol=ON_BOUNDARY_TOL):
        """Closed-domain membership test, vectorized over points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "unit-disk":
            inside = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0 + tol
        elif self.kind == "ellipse":
            form = (pts[:, 0] / self.a) ** 2 + (pts[:, 1] / self.b) ** 2
            inside = form <= 1.0 + 2.0 * tol / min(self.a, self.b)
        else:
            inside = self.distance_to_boundary(pts) >= -tol
        return inside if np.asarray(points).ndim == 2 else bool(inside[0])

    def distance_to_boundary(self, points):
        """Signed distance from each point to the curve, positive inside.

        The sign is the side of the tangent at the Newton foot, exact on a
        convex curve: the interior lies left of it.  The disk takes 1 - |p|.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "unit-disk":
            d = 1.0 - np.hypot(pts[:, 0], pts[:, 1])
            return d if np.asarray(points).ndim == 2 else float(d[0])
        t = np.linspace(0.0, 2.0 * np.pi, 8 * self.n_nodes, endpoint=False)
        cand = self.position_at(t)
        nearest = np.empty(len(pts), dtype=int)
        d2, dy = np.empty((2, min(len(pts), POINT_CHUNK), len(cand)))  # reused: no page faults per chunk
        for lo in range(0, len(pts), POINT_CHUNK):
            p = pts[lo:lo + POINT_CHUNK]
            k = len(p)
            np.square(np.subtract.outer(p[:, 0], cand[:, 0], out=d2[:k]), out=d2[:k])
            np.square(np.subtract.outer(p[:, 1], cand[:, 1], out=dy[:k]), out=dy[:k])
            nearest[lo:lo + POINT_CHUNK] = np.argmin(np.add(d2[:k], dy[:k], out=d2[:k]), axis=1)
        u = t[nearest]
        # Newton on d/du |w(u) - p|^2 = 0.
        for _ in range(6):
            w = self.position_at(u)
            dw = self._derivative_at(u)
            ddw = self._second_derivative_at(u)
            r = w - pts
            g = np.sum(r * dw, axis=1)
            gp = np.sum(dw * dw, axis=1) + np.sum(r * ddw, axis=1)
            step = g / np.where(np.abs(gp) > 1e-300, gp, 1e-300)
            u = u - np.clip(step, -0.5, 0.5)
        r = pts - self.position_at(u)
        d = np.hypot(r[:, 0], r[:, 1])
        d = np.where(_cross(self._derivative_at(u), r) < 0.0, -d, d)
        return d if np.asarray(points).ndim == 2 else float(d[0])

    def interior_margin(self, n_spacings=3.0):
        """Margin below which quadrature kernels are under-resolved."""
        return n_spacings * self.perimeter / self.n_nodes

    # ------------------------------------------------------------------
    # line crossings

    def line_spans(self, points, direction, normal=False):
        """Crossings of the lines points + t * direction with the curve.

        points is an (m, 2) array and direction one vector; disks and
        ellipses also take any pair of (..., 2) arrays that broadcast.
        Returns (t_lo, t_hi, hit), one entry per line: the two crossing
        coordinates t_lo <= t_hi, and hit False (with both coordinates 0)
        where the line misses the closed domain or only touches it.
        Points may lie anywhere.  Disks and ellipses solve the quadric
        x^2/a^2 + y^2/b^2 = 1 in closed form; point tables search the two
        monotone arcs of s(u) = direction x w(u).  With `normal`, a fourth
        entry: an outward normal (of no set length) at each hit line's t_hi.
        """
        p = np.asarray(points, dtype=float)
        d = np.asarray(direction, dtype=float)
        if self.kind != "generic":
            scale = np.array([self.a, self.b])
            spans = unit_circle_spans(p / scale, d / scale)
            if normal:
                spans += ((p + spans[1][..., None] * d) / scale ** 2,)
            return spans
        hit, (r1, r2), u_hi = self._arc_crossings(np.atleast_2d(p), d)
        spans = (np.where(hit, np.minimum(r1, r2), 0.0),
                 np.where(hit, np.maximum(r1, r2), 0.0), hit)
        if normal:
            tangent = self._derivative_at(u_hi)
            spans += (np.column_stack([tangent[:, 1], -tangent[:, 0]]),)
        return spans

    def extent(self, direction):
        """(s_min, s_max) of the offset s(u) = direction x w(u) over the
        curve, and the parameters u where s takes them: the extremal nodes
        refined by Newton on s'(u) = 0."""
        d = np.asarray(direction, dtype=float)
        s_nodes = _cross(d, self.positions)
        u_ext = self.params[[np.argmin(s_nodes), np.argmax(s_nodes)]]
        dt = 2.0 * np.pi / self.n_nodes
        for _ in range(EXTREMUM_ITERS):
            g = _cross(d, self._derivative_at(u_ext))
            h = _cross(d, self._second_derivative_at(u_ext))
            step = np.clip(g / h, -dt, dt)
            u_ext = u_ext - step
            if np.max(np.abs(step)) <= ROOT_STEP_TOL:
                break
        return _cross(d, self.position_at(u_ext)), u_ext

    def _arc_crossings(self, p, d):
        # s(u) = d x w(u) has one minimum and one maximum on a strictly
        # convex curve and is monotone on the two arcs between them; the
        # line through p crosses where s(u) = d x p, once on each arc.
        s_ext, u_ext = self.extent(d)
        s_nodes = _cross(d, self.positions)
        c = _cross(d, p)
        hit = (c > s_ext[0]) & (c < s_ext[1])

        # Arc k runs counterclockwise from extremum k to the other one,
        # and sign[k] * s increases along it.  Each crossing is bracketed
        # by a searchsorted on the arc's nodes and started by linear
        # interpolation.  Roundoff can put a node a hair past a refined
        # extremum, hence the running maximum.
        sign = np.array([[1.0], [-1.0]])
        target = sign * c[hit]
        lo, hi, u = np.empty((3,) + target.shape)
        for k in (0, 1):
            u0 = u_ext[k]
            off = np.mod(self.params - u0, 2.0 * np.pi)
            span = np.mod(u_ext[1 - k] - u0, 2.0 * np.pi)
            inner = (off > 0.0) & (off < span)
            order = np.argsort(off[inner])
            u_arc = u0 + np.concatenate([[0.0], off[inner][order], [span]])
            g_arc = np.maximum.accumulate(
                sign[k] * np.concatenate([[s_ext[k]], s_nodes[inner][order], [s_ext[1 - k]]]))
            j = np.clip(np.searchsorted(g_arc, target[k]), 1, len(g_arc) - 1)
            lo[k], hi[k] = u_arc[j - 1], u_arc[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.clip((target[k] - g_arc[j - 1]) / (g_arc[j] - g_arc[j - 1]), 0.0, 1.0)
            u[k] = lo[k] + (hi[k] - lo[k]) * np.nan_to_num(frac, nan=0.5)

        u = self._polish_roots(d, sign, target, lo, hi, u)
        ts = np.zeros((2, len(p)))
        ts[:, hit] = _dot(self.position_at(u) - p[hit], d)
        # the parameter of each hit line's far crossing
        u_hi = np.zeros(len(p))
        u_hi[hit] = np.where(ts[0, hit] >= ts[1, hit], u[0], u[1])
        return hit, ts, u_hi

    def _polish_roots(self, d, sign, target, lo, hi, u):
        # Newton on sign * s(u) = target, kept inside [lo, hi] (bisection
        # when a step leaves it).  A residual within a few roundoffs of s
        # cannot shrink further, so such a root is final.
        f_tol = 2.0 * np.finfo(float).eps * np.max(np.abs(self.positions))
        for _ in range(ROOT_ITERS):
            f = sign * _cross(d, self.position_at(u)) - target
            lo = np.where(f < 0.0, u, lo)
            hi = np.where(f > 0.0, u, hi)
            fp = sign * _cross(d, self._derivative_at(u))
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = u - f / fp
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            final = np.abs(f) <= f_tol
            done = final | (np.abs(nxt - u) <= ROOT_STEP_TOL)
            u = np.where(final, u, nxt)
            if np.all(done):
                break
        return u

    def node_chord_lengths(self, directions):
        """Full chord lengths through every node for every direction.

        Parameters
        ----------
        directions : (M, 2) array of unit vectors.

        Returns
        -------
        (n_nodes, M) array of chord lengths, 0 on tangential pairs
        (|n . theta| <= TOL_TANGENT).
        """
        dirs = np.asarray(directions, dtype=float)
        if self.kind == "generic":
            t_lo, t_hi = np.zeros((2, self.n_nodes, len(dirs)))
            for j, d in enumerate(dirs):
                t_lo[:, j], t_hi[:, j], _ = self.line_spans(self.positions, d)
        else:
            t_lo, t_hi, _ = self.line_spans(self.positions[:, None, :], dirs[None, :, :])
        out = t_hi - t_lo
        out[np.abs(self.normals @ dirs.T) <= TOL_TANGENT] = 0.0
        return out

    # ------------------------------------------------------------------
    # complex views used by the boundary-integral operators

    def complex_nodes(self):
        return self.positions[:, 0] + 1j * self.positions[:, 1]

    def complex_velocity(self):
        d1 = self._derivative_at(self.params)
        return d1[:, 0] + 1j * d1[:, 1]

    def descriptor(self):
        """JSON-ready description used by the file formats."""
        desc = {"kind": self.kind, "n_nodes": self.n_nodes}
        if self.kind == "ellipse":
            desc["a"] = self.a
            desc["b"] = self.b
        if self.kind == "generic":
            desc["table"] = [[float(x), float(y)] for x, y in self.table]
        return desc


def make_boundary(kind, n_nodes, a=1.0, b=1.0, table=None):
    """Construct a ConvexBoundary.

    Parameters
    ----------
    kind : str
        "unit-disk", "ellipse" (semi-axes a, b) or "generic" (point table).
        Config-file spellings "disk" and "table" are accepted as aliases.
    n_nodes : int
        Node count, at least 16.
    """
    kind = KIND_ALIASES.get(kind, kind)
    if kind == "unit-disk":
        return ConvexBoundary("unit-disk", n_nodes)
    if kind == "ellipse":
        if a <= 0 or b <= 0:
            raise NonConvex("ellipse semi-axes must be positive")
        return ConvexBoundary("ellipse", n_nodes, a=a, b=b)
    if kind == "generic":
        return ConvexBoundary("generic", n_nodes, table=table)
    raise NonConvex("unknown boundary kind %r" % (kind,))
