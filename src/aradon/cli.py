"""Batch front-end: phantom, forward, check, reconstruct, factors, sweep.

Every subcommand and every `sweep` rung runs the paper's chain through
the stage helpers of this module, `_forward`, `_build_factors`, `_load`,
`_residual` and `_reconstruct`, each the one caller of its library
routines; the subcommands add only arguments, files and printed lines.

Exit codes: 0 consistent / success, 1 inconsistent (range test failed),
2 usage, config, or file-format error, 3 numeric failure (running out of
memory among them).

`ARADON_THREADS` caps the worker pools of the underlying numeric
libraries.  It is consumed here, before numpy is first imported, because
BLAS pools size themselves at import time; it is the only environment
variable the tool reads.
"""

import os


def _cap_threads():
    val = os.environ.get("ARADON_THREADS")
    if not val:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, val)


_cap_threads()

import argparse
import json
import sys
import time
import warnings

import numpy as np

from .errors import (AradonError, ConfigError, GridMismatch, InconsistentInput,
                     SupportViolation)
from .config import load_config, parse_config
from .harmonics import project_minus
from .xray import forward_sinogram, phantom
from .bukhgeim import range_residual_0, reconstruct_f0
from .attenuation import build_h, range_residual_a, reconstruct_f_attenuated
from . import io as aio


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="aradon",
        description="Attenuated Radon transform range tests and reconstruction "
        "on convex planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sino_arg=False):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (default: config io.out_dir)")
        p.add_argument("--factors-cache", default=None,
                       help="integrating-factor cache file to reuse or create")
        p.add_argument("--attenuated", action="store_true",
                       help="use the attenuation phantom from the config")
        if sino_arg:
            p.add_argument("sinogram", help="path to a sinogram file")

    common(sub.add_parser("phantom", help="evaluate the source phantom on the grid"))
    fw = sub.add_parser("forward", help="compute boundary data for the configured phantoms")
    common(fw)
    fw.add_argument("--csv", action="store_true", help="also export the sinogram as CSV")
    common(sub.add_parser("check", help="test boundary data against the range condition"),
           sino_arg=True)
    common(sub.add_parser("reconstruct", help="recover the source from boundary data"),
           sino_arg=True)
    common(sub.add_parser("factors", help="build and cache the integrating factors"))
    sw = sub.add_parser("sweep", help="run the cycle across a resolution ladder")
    common(sw)
    sw.add_argument("axis", choices=("nodes", "modes", "angles", "quad"))
    return parser


def _outdir(cfg, args):
    out = args.out if args.out is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _plain(obj):
    """Mirror JSON round-tripping: tuples to lists, for comparisons."""
    return json.loads(json.dumps(obj))


def _forward(cfg, attenuated):
    """Boundary data of the configured source, through `a` or through zero."""
    boundary = cfg.make_boundary()
    angular = cfg.make_angular()
    f = cfg.make_phantom("f", boundary)
    a = cfg.make_phantom("a", boundary) if attenuated else phantom("zero", boundary)
    return forward_sinogram(f, a, boundary, angular, quad=cfg.make_quad())


def _build_factors(cfg, boundary, angular):
    """Integrating factors of the configured `a`."""
    return build_h(
        cfg.make_phantom("a", boundary), boundary, angular, cfg.n_modes,
        quad=cfg.make_quad(), s_samples=cfg.s_samples,
        tol_neg=cfg.tol_neg, tol_identity=cfg.tol_identity,
    )


def _get_factors(cfg, args, sino):
    """Integrating factors for `sino`, honoring the cache flag."""
    cache = args.factors_cache
    if cache and os.path.exists(cache):
        a = cfg.make_phantom("a", sino.boundary)
        factors = aio.read_factors_cache(cache, boundary=sino.boundary,
                                         angular=sino.angular)
        if factors.a_info != {"name": a.name, "params": _plain(a.params)}:
            raise ConfigError(
                "factors cache %s was built for attenuation %s, config says %s"
                % (cache, factors.a_info, {"name": a.name, "params": a.params})
            )
        if factors.n_modes != cfg.n_modes:
            raise GridMismatch(
                "factors cache has N=%d, config wants N=%d"
                % (factors.n_modes, cfg.n_modes)
            )
        return factors
    factors = _build_factors(cfg, sino.boundary, sino.angular)
    if cache:
        aio.write_factors_cache(cache, factors, config_hash=cfg.config_hash)
    return factors


def _load(cfg, args, with_grid):
    """The sinogram argument's modes, the grid (if `with_grid`) and the
    factors (None unless the file or --attenuated says attenuated).  The
    sinogram must be written on the config's boundary and angles."""
    sino = aio.read_sinogram(args.sinogram, cfg.make_boundary(), cfg.make_angular())
    grid = cfg.make_grid(sino.boundary) if with_grid else None
    trace = project_minus(sino, cfg.n_modes)
    factors = None
    if args.attenuated or sino.attenuated:
        factors = _get_factors(cfg, args, sino)
    return trace, grid, factors


def _residual(trace, factors):
    """Range test of the trace: the attenuated one when there are factors."""
    if factors is None:
        return range_residual_0(trace)
    return range_residual_a(trace, factors)


def _reconstruct(cfg, trace, factors, grid):
    """Picture, InconsistentInput warning count and max |d beta_0| over the
    points (0.0 without attenuation), which vanishes exactly."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", InconsistentInput)
        if factors is None:
            pic, dbeta0 = reconstruct_f0(trace, grid, gate=cfg.recon_gate), 0.0
        else:
            pic, dbeta0 = reconstruct_f_attenuated(trace, factors, grid, gate=cfg.recon_gate,
                                                   return_dbeta0=True)
    flagged = sum(1 for w in caught if issubclass(w.category, InconsistentInput))
    return pic, flagged, dbeta0


def _recon_error(cfg, grid, pic, truth_field):
    """Relative L2 error against the named phantom on the gated interior."""
    mask_pic = grid.valid.reshape(grid.ny, grid.nx)
    r = np.hypot(grid.points_all[:, 0], grid.points_all[:, 1]).reshape(grid.ny, grid.nx)
    region = mask_pic & (r <= cfg.error_radius)
    truth = np.zeros(grid.ny * grid.nx)
    truth[grid.valid] = truth_field(grid.points)
    truth = truth.reshape(grid.ny, grid.nx)
    denom = float(np.sqrt(np.sum(truth[region] ** 2)))
    if denom == 0.0:
        return float(np.sqrt(np.sum(pic[region] ** 2)))
    return float(np.sqrt(np.sum((pic[region] - truth[region]) ** 2)) / denom)


def cmd_phantom(cfg, args):
    out = _outdir(cfg, args)
    boundary = cfg.make_boundary()
    which = "a" if args.attenuated else "f"
    f = cfg.make_phantom(which, boundary)
    grid = cfg.make_grid(boundary)
    vals = np.zeros(grid.ny * grid.nx)
    vals[grid.inside] = f(grid.points_all[grid.inside])
    pic = vals.reshape(grid.ny, grid.nx)
    path = os.path.join(out, "phantom_%s.csv" % which)
    aio.write_field_csv(path, grid.xs, grid.ys, pic)
    print("phantom %s (%s): min %.6g max %.6g supported=%s -> %s"
          % (which, f.name, pic.min(), pic.max(), not f.is_zero, path))
    return 0


def cmd_forward(cfg, args):
    out = _outdir(cfg, args)
    sino = _forward(cfg, args.attenuated)
    path = os.path.join(out, "sinogram.bin")
    aio.write_sinogram(path, sino, config_hash=cfg.config_hash)
    if getattr(args, "csv", False):
        aio.sinogram_to_csv(os.path.join(out, "sinogram.csv"), sino)
    boundary, angular = sino.boundary, sino.angular
    dirs = np.stack([np.cos(angular.angles), np.sin(angular.angles)], axis=1)
    incoming = (boundary.normals @ dirs.T) < 0.0
    max_incoming = float(np.max(np.abs(sino.data[incoming]))) if incoming.any() else 0.0
    print(
        "sinogram %d nodes x %d angles: min %.6g max %.6g, "
        "max |incoming| %.3g (gauge zero) -> %s"
        % (boundary.n_nodes, angular.n_angles, sino.data.min(), sino.data.max(),
           max_incoming, path)
    )
    return 0


def cmd_check(cfg, args):
    out = _outdir(cfg, args)
    trace, _, factors = _load(cfg, args, with_grid=False)
    rr = _residual(trace, factors)
    consistent = rr.relative <= cfg.residual_gate
    extra = {
        "config_hash": cfg.config_hash,
        "attenuated": factors is not None,
        "gate": cfg.residual_gate,
        "verdict": "consistent" if consistent else "inconsistent",
    }
    path = os.path.join(out, "residual.json")
    aio.write_residual_report(path, rr.report(), extra=extra)
    print("range residual: relative %.6g (gate %.3g) -> %s [%s]"
          % (rr.relative, cfg.residual_gate, path, extra["verdict"]))
    return 0 if consistent else 1


def cmd_reconstruct(cfg, args):
    out = _outdir(cfg, args)
    trace, grid, factors = _load(cfg, args, with_grid=True)
    pic, flagged, dbeta0 = _reconstruct(cfg, trace, factors, grid)
    path = os.path.join(out, "reconstruction.csv")
    aio.write_field_csv(path, grid.xs, grid.ys, pic)
    report = {
        "config_hash": cfg.config_hash,
        "attenuated": factors is not None,
        "consistency_flag": flagged,
        "dbeta0_max": dbeta0,
        "grid": {"nx": grid.nx, "ny": grid.ny, "margin": grid.margin},
    }
    if cfg.phantom_f["name"] != "zero":
        truth = cfg.make_phantom("f", trace.boundary)
        err = _recon_error(cfg, grid, pic, truth)
        report["relative_l2_error"] = err
        report["error_radius"] = cfg.error_radius
        print("reconstruction error %.4g (|xi| <= %.3g) consistency_flag=%d -> %s"
              % (err, cfg.error_radius, flagged, path))
    else:
        print("reconstruction written, consistency_flag=%d -> %s" % (flagged, path))
    with open(os.path.join(out, "recon_report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def cmd_factors(cfg, args):
    out = _outdir(cfg, args)
    boundary = cfg.make_boundary()
    cache = args.factors_cache or os.path.join(out, "factors.bin")
    factors = _build_factors(cfg, boundary, cfg.make_angular())
    aio.write_factors_cache(cache, factors, config_hash=cfg.config_hash)
    print(
        "factors for a=%s: max negative mode %.3g (tol %.3g), "
        "alpha*beta identity deviation %.3g -> %s"
        % (factors.a_info["name"], factors.max_neg_mode, factors.tol_neg,
           factors.max_identity_dev, cache)
    )
    return 0


_SWEEP_DEFAULTS = {
    "nodes": (128, 256, 512),
    "modes": (8, 16, 32),
    "angles": (64, 128, 256),
    "quad": (2, 4, 8),
}


def _rung_config(cfg, axis, value):
    doc = json.loads(json.dumps(cfg.raw))
    doc.setdefault("boundary", {})
    doc.setdefault("modes", {})
    doc.setdefault("quad", {})
    if axis == "nodes":
        doc["boundary"]["n_nodes"] = value
    elif axis == "modes":
        doc["modes"]["n"] = value
    elif axis == "angles":
        doc["modes"]["angles"] = value
    elif axis == "quad":
        doc["quad"]["panels"] = value
    return parse_config(doc)


def cmd_sweep(cfg, args):
    out = _outdir(cfg, args)
    values = list(cfg.sweep_values or _SWEEP_DEFAULTS[args.axis])
    path = os.path.join(out, "sweep_%s.csv" % args.axis)
    failed = None
    with open(path, "w", newline="") as fh:
        fh.write("resolution,residual,recon_error,runtime\n")
        fh.flush()
        for value in values:
            t0 = time.perf_counter()
            try:
                rung = _rung_config(cfg, args.axis, value)
                sino = _forward(rung, args.attenuated)
                trace = project_minus(sino, rung.n_modes)
                grid = rung.make_grid(sino.boundary)
                factors = None
                if args.attenuated:
                    factors = _build_factors(rung, sino.boundary, sino.angular)
                rr = _residual(trace, factors)
                pic, _, _ = _reconstruct(rung, trace, factors, grid)
                err = _recon_error(rung, grid, pic, rung.make_phantom("f", sino.boundary))
            except SupportViolation:
                raise                            # the same on every rung: exit 2
            except (AradonError, ValueError) as exc:
                failed = "rung %s=%d failed: %s" % (args.axis, value, exc)
                break
            runtime = time.perf_counter() - t0
            fh.write("%d,%.12g,%.12g,%.6g\n" % (value, rr.relative, err, runtime))
            fh.flush()
            print("sweep %s=%d: residual %.4g recon_error %.4g (%.2fs)"
                  % (args.axis, value, rr.relative, err, runtime))
    if failed:
        print("sweep aborted, partial results in %s\n%s" % (path, failed),
              file=sys.stderr)
        return 3
    print("sweep complete -> %s" % path)
    return 0


_COMMANDS = {
    "phantom": cmd_phantom,
    "forward": cmd_forward,
    "check": cmd_check,
    "reconstruct": cmd_reconstruct,
    "factors": cmd_factors,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, GridMismatch, SupportViolation) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AradonError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError:
        print("numeric failure: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
