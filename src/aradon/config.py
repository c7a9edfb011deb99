"""Run configuration: one JSON document, validated before any compute.

Every key a config may hold is one entry of KEYS, which gives its type,
default and bound; unknown keys are rejected so typos fail loudly.  The
config hash (first 16 hex chars of the sha256 of the canonical JSON) is
embedded in every output file for provenance.
"""

import hashlib
import json
import os

from .errors import ConfigError, NonConvex
from .geometry import KIND_ALIASES, make_boundary
from .harmonics import AngularGrid
from .xray import PHANTOMS, POSITIVE_PARAMS, QuadSettings, phantom
from .bukhgeim import CartesianGrid

# Config spellings of the boundary kinds, each the value it reads as.
_KINDS = {"disk": "disk", "ellipse": "ellipse", "table": "table",
          **{name: key for key, name in KIND_ALIASES.items()}}

# Every config key: (section, key, RunConfig attribute, type, default,
# bound).  A type is int, float, str, a choice (a mapping of each accepted
# spelling to its value), list (of integers) or "phantom" (an object of a
# name from xray.PHANTOMS, whose default is given, and its params).  A
# bound is (">=", x) or (">", x).  grid.margin's None is the boundary's
# own minimum (CartesianGrid).
KEYS = (
    ("boundary", "kind", "boundary_kind", _KINDS, "disk", None),
    ("boundary", "n_nodes", "n_nodes", int, 512, (">=", 16)),
    ("boundary", "a", "boundary_a", float, 1.0, (">", 0.0)),
    ("boundary", "b", "boundary_b", float, 1.0, (">", 0.0)),
    ("boundary", "table_path", "table_path", str, "", None),
    ("modes", "n", "n_modes", int, 32, (">=", 1)),
    ("modes", "angles", "n_angles", int, 128, (">=", 4)),
    ("quad", "panels", "quad_panels", int, 8, (">=", 1)),
    ("quad", "points", "quad_points", int, 8, (">=", 1)),
    ("grid", "nx", "grid_nx", int, 64, (">=", 2)),
    ("grid", "ny", "grid_ny", int, 64, (">=", 2)),
    ("grid", "margin", "grid_margin", float, None, (">=", 0.0)),
    ("phantoms", "f", "phantom_f", "phantom", "poly-bump", None),
    ("phantoms", "a", "phantom_a", "phantom", "zero", None),
    ("io", "out_dir", "out_dir", str, ".", None),
    ("tolerances", "residual_gate", "residual_gate", float, 0.01, (">=", 0.0)),
    ("tolerances", "recon_gate", "recon_gate", float, 0.05, (">=", 0.0)),
    ("tolerances", "tol_neg", "tol_neg", float, 1e-6, (">=", 0.0)),
    ("tolerances", "tol_identity", "tol_identity", float, 1e-8, (">=", 0.0)),
    ("tolerances", "s_samples", "s_samples", int, 2048, (">=", 64)),
    ("tolerances", "error_radius", "error_radius", float, 0.9, (">=", 0.0)),
    ("sweep", "values", "sweep_values", list, (), None),
)

# Each section's keys.
_SECTIONS = {section: [key for sec, key, *_ in KEYS if sec == section]
             for section in dict.fromkeys(entry[0] for entry in KEYS)}

# Each sweep axis: the config key its rungs set, and its default rungs.
SWEEP_AXES = {
    "nodes": ("boundary", "n_nodes", (128, 256, 512)),
    "modes": ("modes", "n", (8, 16, 32)),
    "angles": ("modes", "angles", (64, 128, 256)),
    "quad": ("quad", "panels", (2, 4, 8)),
}


def _reject_unknown(d, allowed, where):
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError("%s: unknown keys %s" % (where, sorted(extra)))


def _section(doc, key, where, allowed):
    """doc[key] ({} when absent): an object of `allowed` keys only."""
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError("%s.%s: expected an object" % (where, key))
    _reject_unknown(val, allowed, "%s.%s" % (where, key))
    return dict(val)


def _number(val, path, integer=False, bound=None):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError("%s: expected a number" % path)
    # json reads NaN, Infinity and overflowing literals such as 1e400.  No
    # size, length, amplitude or tolerance of a run comes near 1e6; a larger
    # one would overflow a square or an allocation long before it ran.
    if not abs(val) <= 1e6:
        raise ConfigError("%s: expected a finite number of size at most 1e6" % path)
    if integer and int(val) != val:
        raise ConfigError("%s: expected an integer" % path)
    if bound and (val <= bound[1] if bound[0] == ">" else val < bound[1]):
        raise ConfigError("%s: must be %s %s" % (path, bound[0], bound[1]))
    return int(val) if integer else float(val)


def _numbers(val, path, expected, integer=False, length=None):
    """The numbers of a JSON list; `expected` words what it must hold."""
    if not isinstance(val, list) or None in val or length not in (None, len(val)):
        raise ConfigError("%s: expected %s" % (path, expected))
    return [_number(v, path, integer) for v in val]


def _phantom_spec(d, where, key, default_name):
    path = "%s.%s" % (where, key)
    spec = _section(d, key, where, ("name", "params"))
    name = spec.get("name", default_name)
    if not isinstance(name, str) or name not in PHANTOMS:
        raise ConfigError("%s.name: unknown phantom %r (choices: %s)"
                          % (path, name, ", ".join(PHANTOMS)))
    params = _section(spec, "params", path, PHANTOMS[name])
    for key, val in params.items():
        where = "%s.params.%s" % (path, key)
        if isinstance(PHANTOMS[name][key], tuple):
            _numbers(val, where, "two numbers", length=2)
        else:
            _number(val, where, bound=(">", 0.0) if key in POSITIVE_PARAMS else None)
    return {"name": name, "params": params}


def _value(d, where, key, kind, default, bound):
    """The checked value of `key` in the section `d` at `where`."""
    if kind == "phantom":
        return _phantom_spec(d, where, key, default)
    path = "%s.%s" % (where, key)
    if key not in d:
        return default
    val = d[key]
    if kind is str:
        if not isinstance(val, str):
            raise ConfigError("%s: expected a string" % path)
        return val
    if kind is list:
        return tuple(_numbers(val, path, "a list of integers", integer=True))
    if isinstance(kind, dict):
        if not isinstance(val, str) or val not in kind:
            raise ConfigError("%s: unknown %s %r" % (path, key, val))
        return kind[val]
    return _number(val, path, kind is int, bound)


class RunConfig:
    """A checked config: `raw`, the document as read, and one attribute
    per key, named in its KEYS entry."""

    def __init__(self, raw, **values):
        self.raw = raw
        vars(self).update(values)

    @property
    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def make_boundary(self):
        if self.boundary_kind == "table":
            from .io import read_boundary_table

            table = read_boundary_table(self.table_path)
            try:
                return make_boundary("table", self.n_nodes, table=table)
            except NonConvex as exc:
                raise NonConvex("config.boundary.table_path: %s: %s"
                                % (self.table_path, exc)) from None
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


def parse_config(doc):
    """Validate a config mapping and return a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    _reject_unknown(doc, _SECTIONS, "config")
    sections = {section: _section(doc, section, "config", keys)
                for section, keys in _SECTIONS.items()}
    cfg = RunConfig(doc, **{
        attr: _value(sections[section], "config." + section, key, kind, default, bound)
        for section, key, attr, kind, default, bound in KEYS})
    if cfg.boundary_kind == "table" and not cfg.table_path:
        raise ConfigError("config.boundary.table_path: required for kind 'table'")
    if cfg.n_angles < 2 * cfg.n_modes + 2:
        raise ConfigError(
            "config.modes.angles: %d angles cannot resolve N=%d modes "
            "(need >= 2N+2 = %d)" % (cfg.n_angles, cfg.n_modes, 2 * cfg.n_modes + 2)
        )
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    cfg = parse_config(doc)
    if cfg.boundary_kind == "table" and not os.path.exists(cfg.table_path):
        raise ConfigError("config.boundary.table_path: no such file: %s" % cfg.table_path)
    return cfg
