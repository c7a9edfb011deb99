"""File persistence: binary containers, CSV exports, report JSON.

Binary containers share one layout: a single-line UTF-8 JSON header
(sorted keys, so identical content writes identical bytes), a newline,
then the raw payload.  Complex arrays are stored as contiguous
little-endian 64-bit float pairs (re, im), row-major, which is exactly
numpy's '<c16'.  Headers carry a sha256 checksum of the payload;
readers verify it before trusting the data.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

from .errors import ConfigError, GridMismatch
from .geometry import make_boundary
from .harmonics import AngularGrid
from .xray import Sinogram
from .attenuation import IntegratingFactor

_SINO_FORMAT = "aradon-sinogram"
_FACTORS_FORMAT = "aradon-factors"


def _checksum(payload):
    return hashlib.sha256(payload).hexdigest()


def _write_container(path, header, payload):
    header = dict(header)
    header["checksum"] = _checksum(payload)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(b"\n")
        fh.write(payload)


def _read_container(path, expect_format, required):
    with open(path, "rb") as fh:
        first = fh.readline()
        # one writable buffer, so readers can take arrays as views of it
        payload = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
        del payload[fh.readinto(payload):]
    try:
        header = json.loads(first.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("%s: not a recognized container: %s" % (path, exc))
    if header.get("format") != expect_format:
        raise ConfigError(
            "%s: expected format %r, found %r"
            % (path, expect_format, header.get("format"))
        )
    if header.get("checksum") != _checksum(payload):
        raise ConfigError("%s: payload checksum mismatch" % path)
    # the checksum covers the payload only: the header is checked here
    _require(header, required, path, "header")
    return header, payload


def _require(obj, keys, path, what):
    """ConfigError unless the header object `obj` is a mapping with every key."""
    if not isinstance(obj, dict):
        raise ConfigError("%s: %s is not an object" % (path, what))
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ConfigError("%s: %s lacks %s" % (path, what, ", ".join(missing)))


def _descriptor(header, path):
    """The header's boundary descriptor, once it holds what
    boundary_from_descriptor reads."""
    desc = header["boundary"]
    _require(desc, ("kind", "n_nodes"), path, "boundary descriptor")
    if desc["kind"] == "generic":
        _require(desc, ("table",), path, "boundary descriptor")
    return desc


def boundary_from_descriptor(desc):
    kind = desc["kind"]
    if kind == "generic":
        return make_boundary("table", desc["n_nodes"],
                             table=np.asarray(desc["table"], dtype=float))
    return make_boundary(kind, desc["n_nodes"],
                         a=desc.get("a", 1.0), b=desc.get("b", 1.0))


def _boundary_words(desc):
    words = {"unit-disk": "unit disk", "generic": "boundary table"}.get(desc["kind"], desc["kind"])
    if desc["kind"] == "ellipse":
        words += " a=%r b=%r" % (desc.get("a"), desc.get("b"))
    return "%s of %d nodes" % (words, desc["n_nodes"])


def _grids(header, path, boundary, angular):
    """The boundary and angular grid of a file: the caller's own objects,
    which the header must describe (GridMismatch otherwise), or else the
    header's rebuilt.  A boundary matches when its descriptor (kind, node
    count, ellipse axes, the counterclockwise table a spline boundary was
    fitted to) equals the header's."""
    desc = _descriptor(header, path)
    if int(header["n_nodes"]) != desc["n_nodes"]:
        raise ConfigError("%s: header has %d nodes, its boundary descriptor %d"
                          % (path, int(header["n_nodes"]), desc["n_nodes"]))
    if boundary is None:
        boundary = boundary_from_descriptor(desc)
    elif boundary.descriptor() != desc:
        raise GridMismatch("%s was written on another boundary (%s) than the run's (%s)"
                           % (path, _boundary_words(desc),
                              _boundary_words(boundary.descriptor())))
    n_angles = int(header["n_angles"])
    if angular is None:
        angular = AngularGrid(n_angles)
    elif angular.n_angles != n_angles:
        raise GridMismatch("%s was written with %d angles, the run uses %d"
                           % (path, n_angles, angular.n_angles))
    return boundary, angular


def write_sinogram(path, sino, config_hash=None):
    meta = dict(sino.meta or {})
    if config_hash is not None:
        meta["config_hash"] = config_hash
    header = {
        "format": _SINO_FORMAT,
        "version": 1,
        "n_nodes": sino.boundary.n_nodes,
        "n_angles": sino.angular.n_angles,
        "boundary": sino.boundary.descriptor(),
        "attenuated": bool(sino.attenuated),
        "meta": meta,
    }
    _write_container(path, header, np.ascontiguousarray(sino.data, dtype="<f8").tobytes())


def read_sinogram(path, boundary=None, angular=None):
    """Load a sinogram; `boundary`/`angular`, when given, are matched
    against the header and used, as in read_factors_cache."""
    header, payload = _read_container(
        path, _SINO_FORMAT, ("boundary", "n_nodes", "n_angles", "attenuated"))
    shape = (int(header["n_nodes"]), int(header["n_angles"]))
    if len(payload) != 8 * shape[0] * shape[1]:
        raise ConfigError("%s: payload holds %d bytes, not %d x %d values"
                          % (path, len(payload), shape[0], shape[1]))
    boundary, angular = _grids(header, path, boundary, angular)
    data = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return Sinogram(boundary, angular, data,
                    attenuated=bool(header["attenuated"]), meta=header.get("meta", {}))


def _write_csv(path, head, row_format, blocks):
    """CSV of the header `head` and one row per row of each (rows, cols)
    block, each row `row_format` (say "%d,%.17g") applied to its values:
    the bytes csv.writer writes for those strings, "\r\n" line ends and
    no quoting, one string per block."""
    line = row_format + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(head) + "\r\n")
        for block in blocks:
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def sinogram_to_csv(path, sino):
    pos = sino.boundary.positions
    angles = sino.angular.angles
    m = sino.angular.n_angles
    blocks = (np.column_stack([np.full(m, i), np.arange(m), np.full(m, pos[i, 0]),
                               np.full(m, pos[i, 1]), angles, sino.data[i]])
              for i in range(sino.boundary.n_nodes))
    _write_csv(path, ["node_index", "angle_index", "z_x", "z_y", "phi", "value"],
               "%d,%d,%.17g,%.17g,%.17g,%.17g", blocks)


def write_residual_report(path, residual, extra=None):
    """A RangeResidual's report as JSON, optionally merged with verdict fields."""
    doc = residual.report()
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_field_csv(path, xs, ys, picture):
    picture = np.asarray(picture)
    blocks = (np.column_stack([xs, np.full(len(xs), y), picture[iy]])
              for iy, y in enumerate(ys))
    _write_csv(path, ["x", "y", "value"], "%.17g,%.17g,%.17g", blocks)


def read_field_csv(path):
    xs, ys, vals = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader)
        if head[:3] != ["x", "y", "value"]:
            raise ConfigError("%s: not a field CSV" % path)
        for row in reader:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
            vals.append(float(row[2]))
    ux = np.unique(np.asarray(xs))
    uy = np.unique(np.asarray(ys))
    pic = np.asarray(vals).reshape(len(uy), len(ux))
    return ux, uy, pic


def _block_bytes(arrays):
    blocks = []
    payload = b""
    for name, arr, dtype in arrays:
        arr = np.ascontiguousarray(arr, dtype=dtype)
        blocks.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        payload += arr.tobytes()
    return blocks, payload


def _split_blocks(path, blocks, payload, names):
    """Views of the blocks called `names`, once the header's block shapes
    are seen to account for the whole payload; other blocks are skipped."""
    spans = {}
    offset = 0
    for i, blk in enumerate(blocks):
        _require(blk, ("name", "shape", "dtype"), path, "block %d" % i)
        dt = np.dtype(blk["dtype"])
        count = int(np.prod(blk["shape"]))
        spans[blk["name"]] = (dt, count, offset, blk["shape"])
        offset += count * dt.itemsize
    if offset != len(payload):
        raise ConfigError("%s: blocks describe %d payload bytes, the file holds %d"
                          % (path, offset, len(payload)))
    out = {}
    for name in names:
        if name not in spans:
            raise ConfigError("%s: no %r block" % (path, name))
        dt, count, start, shape = spans[name]
        out[name] = np.frombuffer(payload, dtype=dt, count=count, offset=start).reshape(shape)
    return out


def write_factors_cache(path, factors, config_hash=None):
    """The boundary factors alpha and beta, and in the header the recipe
    of h inside the domain: `a` and s_samples."""
    blocks, payload = _block_bytes([
        ("alpha", factors.alpha, "<c16"),
        ("beta", factors.beta, "<c16"),
    ])
    header = {
        "format": _FACTORS_FORMAT,
        "version": 1,
        "n_modes": factors.n_modes,
        "n_nodes": factors.boundary.n_nodes,
        "n_angles": factors.angular.n_angles,
        "boundary": factors.boundary.descriptor(),
        "zero_attenuation": factors.zero_attenuation,
        "a": factors.a_info,
        "s_samples": factors.s_samples,
        "tol_neg": factors.tol_neg,
        "max_neg_mode": factors.max_neg_mode,
        "max_identity_dev": factors.max_identity_dev,
        "blocks": blocks,
    }
    if config_hash is not None:
        header["config_hash"] = config_hash
    _write_container(path, header, payload)


def _recipe(header, path):
    """s_samples of a cache's header, None for an older cache, which
    records no recipe of h inside the domain.  A `quad` entry, which
    caches once recorded, is not read."""
    s_samples = header.get("s_samples")
    if s_samples is not None and not (type(s_samples) is int and s_samples >= 1):
        raise ConfigError("%s: s_samples must be a positive integer" % path)
    return s_samples


def read_factors_cache(path, boundary=None, angular=None):
    """Load an integrating-factor cache.

    When `boundary`/`angular` are given, the cached grids must match
    them (GridMismatch otherwise) and the given objects are used so the
    factors share identity with the caller's grids.  Blocks are read by
    name, so an older cache that also carries h or factors on a grid of
    inside points still loads for the range test; without a recorded
    recipe, a reconstruct from it exits 2 (IntegratingFactor.sampler).
    """
    header, payload = _read_container(
        path, _FACTORS_FORMAT,
        ("boundary", "n_nodes", "n_angles", "n_modes", "zero_attenuation",
         "tol_neg", "max_neg_mode", "max_identity_dev", "blocks"))
    boundary, angular = _grids(header, path, boundary, angular)
    data = _split_blocks(path, header["blocks"], payload, ("alpha", "beta"))
    return IntegratingFactor(
        boundary, angular, int(header["n_modes"]), data["alpha"], data["beta"],
        bool(header["zero_attenuation"]), header.get("a", {}),
        float(header["tol_neg"]), float(header["max_neg_mode"]),
        float(header["max_identity_dev"]), s_samples=_recipe(header, path),
    )


def read_boundary_table(path):
    """Boundary node table: CSV of x,y rows, closed implicitly.  A row that
    is not two finite numbers is a ConfigError naming the file and line."""
    pts = []
    with open(path, newline="", errors="replace") as fh:  # a bad byte fails its row
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row or row[0].strip().startswith("#"):
                    continue
                if row[0].strip().lower() in ("x", ""):
                    continue
                pts.append([float(row[0]), float(row[1])])
                if not all(map(math.isfinite, pts[-1])):
                    raise ValueError("a coordinate is not finite")
        except (ValueError, IndexError, csv.Error) as exc:
            raise ConfigError("%s, line %d: expected an x,y row of finite numbers (%s)"
                              % (path, reader.line_num, exc))
    return np.asarray(pts, dtype=float)
