"""Run configuration: one JSON document, validated before any compute.

Unknown keys are rejected so typos fail loudly.  The config hash (first
16 hex chars of the sha256 of the canonical JSON) is embedded in every
output file for provenance.
"""

import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .geometry import KIND_ALIASES, make_boundary
from .harmonics import AngularGrid
from .xray import QuadSettings, phantom
from .bukhgeim import CartesianGrid

# The params each phantom takes.
_PHANTOM_PARAMS = {
    "poly-bump": ("amplitude",),
    "shifted-poly-bump": ("center", "radius", "amplitude"),
    "gaussian-truncated": ("center", "sigma", "amplitude"),
    "zero": (),
}


def _expect_mapping(doc, key, where):
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError("%s.%s: expected an object" % (where, key))
    return dict(val)


def _reject_unknown(d, allowed, where):
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError("%s: unknown keys %s" % (where, sorted(extra)))


def _get_num(d, key, where, default, lo=None, integer=False, above=None):
    val = d.get(key, default)
    if val is None and key not in d:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError("%s.%s: expected a number" % (where, key))
    # json reads NaN, Infinity and overflowing literals such as 1e400.  No
    # size, length, amplitude or tolerance of a run comes near 1e6; a larger
    # one would overflow a square or an allocation long before it ran.
    if not abs(val) <= 1e6:
        raise ConfigError("%s.%s: expected a finite number of size at most 1e6"
                          % (where, key))
    if integer and int(val) != val:
        raise ConfigError("%s.%s: expected an integer" % (where, key))
    if lo is not None and val < lo:
        raise ConfigError("%s.%s: must be >= %s" % (where, key, lo))
    if above is not None and val <= above:
        raise ConfigError("%s.%s: must be > %s" % (where, key, above))
    return int(val) if integer else float(val)


@dataclass
class RunConfig:
    raw: dict
    boundary_kind: str
    n_nodes: int
    boundary_a: float
    boundary_b: float
    table_path: str
    n_modes: int
    n_angles: int
    quad_panels: int
    quad_points: int
    grid_nx: int
    grid_ny: int
    grid_margin: float  # None means the default interior margin
    phantom_f: dict = field(default_factory=dict)
    phantom_a: dict = field(default_factory=dict)
    out_dir: str = "."
    residual_gate: float = 0.01
    recon_gate: float = 0.05
    tol_neg: float = 1e-6
    tol_identity: float = 1e-8
    s_samples: int = 2048
    error_radius: float = 0.9
    sweep_values: tuple = ()

    @property
    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def make_boundary(self):
        if self.boundary_kind == "table":
            from .io import read_boundary_table

            table = read_boundary_table(self.table_path)
            return make_boundary("table", self.n_nodes, table=table)
        return make_boundary(self.boundary_kind, self.n_nodes,
                             a=self.boundary_a, b=self.boundary_b)

    def make_angular(self):
        return AngularGrid(self.n_angles)

    def make_quad(self):
        return QuadSettings(self.quad_panels, self.quad_points)

    def make_grid(self, boundary):
        return CartesianGrid(boundary, self.grid_nx, self.grid_ny,
                             margin=self.grid_margin)

    def make_phantom(self, which, boundary):
        spec = self.phantom_f if which == "f" else self.phantom_a
        return phantom(spec["name"], boundary, params=spec.get("params"))


def _phantom_spec(d, key, where, default_name):
    spec = _expect_mapping(d, key, where)
    _reject_unknown(spec, ("name", "params"), "%s.%s" % (where, key))
    name = spec.get("name", default_name)
    if not isinstance(name, str) or name not in _PHANTOM_PARAMS:
        raise ConfigError(
            "%s.%s.name: unknown phantom %r (choices: %s)"
            % (where, key, name, ", ".join(_PHANTOM_PARAMS))
        )
    params = _expect_mapping(spec, "params", "%s.%s" % (where, key))
    where = "%s.%s.params" % (where, key)
    _reject_unknown(params, _PHANTOM_PARAMS[name], where)
    center = params.get("center", [0.0, 0.0])
    if not isinstance(center, list) or len(center) != 2 or None in center:
        raise ConfigError("%s.center: expected two numbers" % where)
    for c in center:
        _get_num({"center": c}, "center", where, None)
    _get_num(params, "amplitude", where, None)
    for positive in ("radius", "sigma"):
        _get_num(params, positive, where, None, above=0.0)
    return {"name": name, "params": params}


def parse_config(doc):
    """Validate a config mapping and return a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    _reject_unknown(
        doc,
        ("boundary", "modes", "quad", "grid", "phantoms", "io", "tolerances", "sweep"),
        "config",
    )
    b = _expect_mapping(doc, "boundary", "config")
    _reject_unknown(b, ("kind", "n_nodes", "a", "b", "table_path"), "config.boundary")
    kind = b.get("kind", "disk")
    if kind not in ("ellipse", *KIND_ALIASES, *KIND_ALIASES.values()):
        raise ConfigError("config.boundary.kind: unknown kind %r" % (kind,))
    kind = {v: k for k, v in KIND_ALIASES.items()}.get(kind, kind)
    n_nodes = _get_num(b, "n_nodes", "config.boundary", 512, lo=16, integer=True)
    ba = _get_num(b, "a", "config.boundary", 1.0, lo=0.0)
    bb = _get_num(b, "b", "config.boundary", 1.0, lo=0.0)
    table_path = b.get("table_path", "")
    if kind == "table" and not table_path:
        raise ConfigError("config.boundary.table_path: required for kind 'table'")

    m = _expect_mapping(doc, "modes", "config")
    _reject_unknown(m, ("n", "angles"), "config.modes")
    n_modes = _get_num(m, "n", "config.modes", 32, lo=1, integer=True)
    n_angles = _get_num(m, "angles", "config.modes", 128, lo=4, integer=True)
    if n_angles < 2 * n_modes + 2:
        raise ConfigError(
            "config.modes.angles: %d angles cannot resolve N=%d modes "
            "(need >= 2N+2 = %d)" % (n_angles, n_modes, 2 * n_modes + 2)
        )

    q = _expect_mapping(doc, "quad", "config")
    _reject_unknown(q, ("panels", "points"), "config.quad")
    panels = _get_num(q, "panels", "config.quad", 8, lo=1, integer=True)
    points = _get_num(q, "points", "config.quad", 8, lo=1, integer=True)

    g = _expect_mapping(doc, "grid", "config")
    _reject_unknown(g, ("nx", "ny", "margin"), "config.grid")
    nx = _get_num(g, "nx", "config.grid", 64, lo=2, integer=True)
    ny = _get_num(g, "ny", "config.grid", 64, lo=2, integer=True)
    margin = _get_num(g, "margin", "config.grid", None, lo=0.0)

    ph = _expect_mapping(doc, "phantoms", "config")
    _reject_unknown(ph, ("f", "a"), "config.phantoms")
    f_spec = _phantom_spec(ph, "f", "config.phantoms", "poly-bump")
    a_spec = _phantom_spec(ph, "a", "config.phantoms", "zero")

    io_d = _expect_mapping(doc, "io", "config")
    _reject_unknown(io_d, ("out_dir",), "config.io")
    out_dir = io_d.get("out_dir", ".")

    t = _expect_mapping(doc, "tolerances", "config")
    _reject_unknown(
        t,
        ("residual_gate", "recon_gate", "tol_neg", "tol_identity",
         "s_samples", "error_radius"),
        "config.tolerances",
    )
    residual_gate = _get_num(t, "residual_gate", "config.tolerances", 0.01, lo=0.0)
    recon_gate = _get_num(t, "recon_gate", "config.tolerances", 0.05, lo=0.0)
    tol_neg = _get_num(t, "tol_neg", "config.tolerances", 1e-6, lo=0.0)
    tol_identity = _get_num(t, "tol_identity", "config.tolerances", 1e-8, lo=0.0)
    s_samples = _get_num(t, "s_samples", "config.tolerances", 2048, lo=64, integer=True)
    error_radius = _get_num(t, "error_radius", "config.tolerances", 0.9, lo=0.0)

    sw = _expect_mapping(doc, "sweep", "config")
    _reject_unknown(sw, ("values",), "config.sweep")
    values = sw.get("values", [])
    if not isinstance(values, list) or None in values:
        raise ConfigError("config.sweep.values: expected a list of integers")
    values = [_get_num({"values": v}, "values", "config.sweep", None, integer=True)
              for v in values]

    return RunConfig(
        raw=doc,
        boundary_kind=kind,
        n_nodes=n_nodes,
        boundary_a=ba,
        boundary_b=bb,
        table_path=table_path,
        n_modes=n_modes,
        n_angles=n_angles,
        quad_panels=panels,
        quad_points=points,
        grid_nx=nx,
        grid_ny=ny,
        grid_margin=margin,
        phantom_f=f_spec,
        phantom_a=a_spec,
        out_dir=out_dir,
        residual_gate=residual_gate,
        recon_gate=recon_gate,
        tol_neg=tol_neg,
        tol_identity=tol_identity,
        s_samples=s_samples,
        error_radius=error_radius,
        sweep_values=tuple(values),
    )


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    cfg = parse_config(doc)
    if cfg.boundary_kind == "table":
        import os

        if not os.path.exists(cfg.table_path):
            raise ConfigError(
                "config.boundary.table_path: no such file: %s" % cfg.table_path
            )
    return cfg
