"""Start-up: disk and ellipse commands run on numpy alone.

Importing scipy.interpolate is most of a fresh interpreter's start-up,
and only point-table boundaries need it, for their periodic spline.  A
Gaussian field needs scipy.special's erf for its line integrals.
Each test runs commands through aradon.cli.main in a fresh interpreter
and reads which scipy modules that interpreter has loaded.
"""
import json
import os
import subprocess
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_RUN = """
import json, sys
from aradon.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        sys.exit("%s exited %d" % (argv, code))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules(*commands):
    """The scipy modules loaded after running `commands` (argv lists) in a
    fresh interpreter that imports aradon.cli first."""
    env = dict(os.environ, PYTHONPATH=SRC, ARADON_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RUN, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def write_config(path, boundary, a=None):
    doc = {
        "boundary": boundary,
        "modes": {"n": 8, "angles": 32},
        "quad": {"panels": 4, "points": 4},
        "grid": {"nx": 20, "ny": 20},
        "phantoms": {"f": {"name": "poly-bump"},
                     "a": a or {"name": "poly-bump", "params": {"amplitude": 0.2}}},
        "tolerances": {"s_samples": 512},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def test_import_loads_no_scipy():
    assert scipy_modules() == []


def test_plain_ellipse_cycle_loads_no_scipy(tmp_path):
    cfg = write_config(tmp_path / "run.json", {"kind": "ellipse", "n_nodes": 128,
                                               "a": 1.5, "b": 1.0})
    sino = str(tmp_path / "fw" / "sinogram.bin")
    assert scipy_modules(
        ["forward", "--config", cfg, "--out", str(tmp_path / "fw")],
        ["check", "--config", cfg, "--out", str(tmp_path / "chk"), sino],
        ["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec"), sino],
    ) == []


def test_attenuated_disk_commands_load_no_scipy(tmp_path):
    cfg = write_config(tmp_path / "run.json", {"kind": "disk", "n_nodes": 128})
    cache = str(tmp_path / "factors.bin")
    sino = str(tmp_path / "fw" / "sinogram.bin")
    assert scipy_modules(
        ["forward", "--config", cfg, "--out", str(tmp_path / "fw"), "--attenuated"],
        ["factors", "--config", cfg, "--out", str(tmp_path / "fa"), "--factors-cache", cache],
        ["check", "--config", cfg, "--out", str(tmp_path / "c1"), "--factors-cache", cache, sino],
        ["check", "--config", cfg, "--out", str(tmp_path / "c2"), "--attenuated", sino],
        ["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec"), "--attenuated", sino],
    ) == []


def test_gaussian_attenuation_loads_special_only(tmp_path):
    """A Gaussian `a` integrates along lines by scipy.special's erf,
    imported at its first integral; the disk still needs no spline."""
    cfg = write_config(tmp_path / "run.json", {"kind": "disk", "n_nodes": 128},
                       a={"name": "gaussian-truncated",
                          "params": {"sigma": 0.6, "amplitude": 0.3}})
    cache = str(tmp_path / "factors.bin")
    modules = scipy_modules(
        ["forward", "--config", cfg, "--out", str(tmp_path / "fw")],
        ["factors", "--config", cfg, "--out", str(tmp_path / "fa"), "--factors-cache", cache],
        ["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec"), "--attenuated",
         "--factors-cache", cache, str(tmp_path / "fw" / "sinogram.bin")],
    )
    assert "scipy.special" in modules
    assert not any(m.startswith("scipy.interpolate") for m in modules)


def test_table_boundary_loads_interpolate(tmp_path):
    """The one exception: a point table's periodic spline is scipy's."""
    u = 2.0 * np.pi * np.arange(64) / 64
    table = tmp_path / "boundary.csv"
    np.savetxt(table, np.column_stack([1.5 * np.cos(u), np.sin(u)]),
               delimiter=",", header="x,y", comments="", fmt="%.17g")
    cfg = write_config(tmp_path / "run.json", {"kind": "table", "n_nodes": 64,
                                               "table_path": str(table)})
    assert "scipy.interpolate" in scipy_modules(
        ["forward", "--config", cfg, "--out", str(tmp_path / "fw")])
