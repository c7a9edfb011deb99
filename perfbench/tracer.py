"""Spans around calls into aradon's public functions, from outside the program.

`Tracer.install()` replaces each traced function (and method) by a
wrapper in every loaded `aradon` module that holds it, so names imported
with `from .x import f` are traced too; `restore()` puts every original
back.  A wrapper records one span per call: name, start, end and the
span that caused it.  Spans stay in memory; `layer_metrics()` turns them
into busy time (inclusive, outermost call of a name only), self time
(minus the part covered by child spans) and call counts.

Count hooks run after a call returns and see its arguments and result.
Their time is taken off every open span, and the wrappers pass straight
through while a hook runs, so counting costs the layers nothing.
"""

import functools
import os
import sys
import time
from contextlib import contextmanager

# (module, attribute path, metric name).  The attribute path is a
# function name or Class.method; CartesianGrid is traced as construction.
TRACED = (
    ("config", "load_config", "config.load_config"),
    ("geometry", "make_boundary", "geometry.make_boundary"),
    ("geometry", "ConvexBoundary.node_chord_lengths", "geometry.node_chord_lengths"),
    ("geometry", "ConvexBoundary.distance_to_boundary", "geometry.distance_to_boundary"),
    ("geometry", "ConvexBoundary.contains", "geometry.contains"),
    ("xray", "forward_sinogram", "xray.forward_sinogram"),
    ("xray", "radon_profile", "xray.radon_profile"),
    ("xray", "phantom", "xray.phantom"),
    ("harmonics", "project_minus", "harmonics.project_minus"),
    ("harmonics", "convolve", "harmonics.convolve"),
    ("bukhgeim", "CartesianGrid.__init__", "bukhgeim.CartesianGrid"),
    ("bukhgeim", "range_residual_0", "bukhgeim.range_residual_0"),
    ("bukhgeim", "hilbert_H0", "bukhgeim.hilbert_H0"),
    ("bukhgeim", "cauchy_build", "bukhgeim.cauchy_build"),
    ("bukhgeim", "del_v_minus", "bukhgeim.del_v_minus"),
    ("bukhgeim", "reconstruct_f0", "bukhgeim.reconstruct_f0"),
    ("attenuation", "build_h", "attenuation.build_h"),
    ("attenuation", "finite_hilbert", "attenuation.finite_hilbert"),
    ("attenuation", "range_residual_a", "attenuation.range_residual_a"),
    ("attenuation", "reconstruct_f_attenuated", "attenuation.reconstruct_f_attenuated"),
    ("io", "read_sinogram", "io.read_sinogram"),
    ("io", "write_sinogram", "io.write_sinogram"),
    ("io", "read_factors_cache", "io.read_factors_cache"),
    ("io", "write_factors_cache", "io.write_factors_cache"),
    ("io", "write_field_csv", "io.write_field_csv"),
    ("io", "write_residual_report", "io.write_residual_report"),
)

# Counters reported next to the timed functions.
COUNTERS = (
    "geometry.chord_pairs",
    "geometry.chord_pairs_used",
    "xray.rays",
    "attenuation.interior_used_ratio",
    "attenuation.fd_zeroed_points",
    "attenuation.identity_dev",
    "attenuation.factor_leak",
    "bukhgeim.margin_excluded_points",
    "io.bytes_read",
    "io.bytes_written",
)


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans = []          # [id, parent id, name, start, end, self]
        self.counts = {}
        self._stack = []         # [span id, start, child time, hook time at start]
        self._hook_time = 0.0
        self._paused = False
        self._patches = []       # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([span_id, parent, name, 0.0, 0.0, 0.0])
        self._stack.append([span_id, time.perf_counter(), 0.0, self._hook_time])
        return span_id

    def _exit(self, end):
        span_id, start, child, hook0 = self._stack.pop()
        duration = (end - start) - (self._hook_time - hook0)
        span = self.spans[span_id]
        span[3], span[4], span[5] = start, start + duration, duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit(time.perf_counter())

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0.0) + value

    @contextmanager
    def paused(self):
        """Wrappers pass straight through, e.g. while the benchmark checks outputs."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _run_hook(self, hook, args, kwargs, result):
        t0 = time.perf_counter()
        with self.paused():
            hook(self, args, kwargs, result)
        self._hook_time += time.perf_counter() - t0

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(time.perf_counter())
            if hook is not None:
                tracer._run_hook(hook, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        """Wrap every TRACED function wherever an aradon module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "aradon" or n.startswith("aradon."))]
        for module_name, attr_path, metric in TRACED:
            module = sys.modules["aradon." + module_name]
            hook = HOOKS.get(metric)
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(original, metric, hook))
                continue
            original = getattr(module, attr_path)
            wrapper = self.wrap(original, metric, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- summaries -----------------------------------------------------

    def layer_metrics(self, n_ops):
        """Per-layer busy time, self time and calls, divided by `n_ops`.

        Busy time counts only the outermost call of each name, so a
        function that calls itself is not counted twice.  Spans named
        `cli.<subcommand>` are the CLI subcommands: their
        self time is `cli.overhead_s`, and the share of their wall time
        covered by child spans is the trace coverage.
        """
        n_ops = max(int(n_ops), 1)
        names = [m for _, _, m in TRACED]
        busy = dict.fromkeys(names, 0.0)
        own = dict.fromkeys(names, 0.0)
        calls = dict.fromkeys(names, 0)
        root_wall = root_self = 0.0
        by_id = {s[0]: s for s in self.spans}
        for span_id, parent, name, start, end, self_s in self.spans:
            if name.startswith("cli."):
                root_wall += end - start
                root_self += self_s
                continue
            if name not in busy:
                continue
            calls[name] += 1
            own[name] += self_s
            outer = True
            p = parent
            while p is not None:
                if by_id[p][2] == name:
                    outer = False
                    break
                p = by_id[p][1]
            if outer:
                busy[name] += end - start
        out = {}
        for name in names:
            out[name + ".s"] = (busy[name] / n_ops, "s")
            out[name + ".self_s"] = (own[name] / n_ops, "s")
            out[name + ".calls"] = (calls[name] / n_ops, "count")
        out["cli.overhead_s"] = (root_self / n_ops, "s")
        out["trace.coverage"] = ((1.0 - root_self / root_wall) if root_wall else 0.0, "1")
        for name in COUNTERS:
            value = self.counts.get(name, 0.0)
            if name == "attenuation.interior_used_ratio":
                inside = self.counts.get("attenuation.interior_points", 0.0)
                out[name] = (value / inside if inside else 0.0, "1")
            elif name in ("attenuation.identity_dev", "attenuation.factor_leak"):
                out[name] = (value, "1")
            elif name == "geometry.chord_pairs_used":
                pairs = self.counts.get("geometry.chord_pairs", 0.0)
                out[name] = (value / pairs if pairs else 0.0, "1")
            elif name.startswith("io.bytes"):
                out[name] = (value / n_ops, "B")
            else:
                out[name] = (value / n_ops, "count")
        return out


# -- count hooks: (tracer, args, kwargs, result) ---------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _hook_chords(tr, args, kwargs, result):
    boundary = args[0]
    dirs = _arg(args, kwargs, 1, "directions")
    tr.add("geometry.chord_pairs", boundary.n_nodes * len(dirs))


def _pair_masks(boundary, angular):
    import numpy as np
    from aradon.geometry import TOL_TANGENT

    dirs = np.stack([np.cos(angular.angles), np.sin(angular.angles)], axis=1)
    dots = boundary.normals @ dirs.T
    return dots > TOL_TANGENT, dots < 0.0


def _hook_forward(tr, args, kwargs, result):
    outgoing, _ = _pair_masks(_arg(args, kwargs, 2, "boundary"),
                              _arg(args, kwargs, 3, "angular"))
    rays = float(outgoing.sum())
    tr.add("xray.rays", rays)
    tr.add("geometry.chord_pairs_used", rays)


def _record_factors(tr, factors):
    tr.counts["attenuation.identity_dev"] = max(
        tr.counts.get("attenuation.identity_dev", 0.0), factors.max_identity_dev)
    tr.counts["attenuation.factor_leak"] = max(
        tr.counts.get("attenuation.factor_leak", 0.0), factors.max_neg_mode)


def _hook_build_h(tr, args, kwargs, result):
    _record_factors(tr, result)
    if not result.zero_attenuation:
        # build_h integrates `a` along the incoming chords it solves
        _, incoming = _pair_masks(result.boundary, result.angular)
        tr.add("geometry.chord_pairs_used", float(incoming.sum()))


def _hook_read_factors(tr, args, kwargs, result):
    _record_factors(tr, result)
    _hook_read(tr, args, kwargs, result)


def _hook_recon_att(tr, args, kwargs, result):
    import numpy as np

    factors = _arg(args, kwargs, 1, "factors")
    grid = _arg(args, kwargs, 2, "grid")
    if factors.zero_attenuation or factors.interior is None:
        return
    inside = factors.interior.inside
    evaluated = grid.valid & inside
    tr.add("attenuation.interior_points", float(inside.sum()))
    tr.add("attenuation.interior_used_ratio", float(evaluated.sum()))
    # reconstruct_f_attenuated sets f to 0 where a centred difference of
    # beta would reach a grid point without interior factor data.
    pic = inside.reshape(grid.ny, grid.nx)
    fd_ok = np.zeros_like(pic)
    fd_ok[1:-1, 1:-1] = (pic[1:-1, 2:] & pic[1:-1, :-2] & pic[2:, 1:-1] & pic[:-2, 1:-1])
    tr.add("attenuation.fd_zeroed_points",
           float(np.sum(evaluated & ~fd_ok.ravel())))


def _hook_grid(tr, args, kwargs, result):
    grid = args[0]
    inside = grid.boundary.contains(grid.points_all)
    tr.add("bukhgeim.margin_excluded_points", float((inside & ~grid.valid).sum()))


def _hook_read(tr, args, kwargs, result):
    tr.add("io.bytes_read", float(os.path.getsize(_arg(args, kwargs, 0, "path"))))


def _hook_write(tr, args, kwargs, result):
    tr.add("io.bytes_written", float(os.path.getsize(_arg(args, kwargs, 0, "path"))))


HOOKS = {
    "geometry.node_chord_lengths": _hook_chords,
    "xray.forward_sinogram": _hook_forward,
    "attenuation.build_h": _hook_build_h,
    "attenuation.reconstruct_f_attenuated": _hook_recon_att,
    "bukhgeim.CartesianGrid": _hook_grid,
    "io.read_sinogram": _hook_read,
    "io.read_factors_cache": _hook_read_factors,
    "io.write_sinogram": _hook_write,
    "io.write_factors_cache": _hook_write,
    "io.write_field_csv": _hook_write,
    "io.write_residual_report": _hook_write,
}
