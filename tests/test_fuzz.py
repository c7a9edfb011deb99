"""Seeded fuzz of the exit-code contract: every config value runs, or exits 2 or 3.

One field of a small valid config is mutated at a time: a wrong type, 0,
a negative, NaN, a huge value, or an extra key in a section.  forward,
check, reconstruct and factors run on it through cli.main, on a disk, on
an ellipse and on a 64-point table, and write to the config's io.out_dir.
Each must exit 0, 2 or 3 (check also 1, its verdict on inconsistent
data), never with a traceback, and on exit 0 its outputs must be finite.
The bad values come from stdlib `random`, seeded; the huge ones (10^200
and up) fail any array allocation before it starts.
"""

import copy
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from aradon import io as aio
from aradon.cli import main

DISK = {
    "boundary": {"kind": "disk", "n_nodes": 64, "a": 1.0, "b": 1.0},
    "modes": {"n": 4, "angles": 32},
    "quad": {"panels": 2, "points": 4},
    "grid": {"nx": 8, "ny": 8, "margin": 0.3},
    "phantoms": {"f": {"name": "shifted-poly-bump",
                       "params": {"center": [0.1, 0.0], "radius": 0.5, "amplitude": 1.0}},
                 "a": {"name": "gaussian-truncated",
                       "params": {"center": [0.0, 0.1], "sigma": 0.5, "amplitude": 0.02}}},
    "io": {"out_dir": "out"},
    "tolerances": {"residual_gate": 0.1, "recon_gate": 0.05, "tol_neg": 1e-6,
                   "tol_identity": 1e-8, "s_samples": 64, "error_radius": 0.9},
}
ELLIPSE = copy.deepcopy(DISK)
ELLIPSE["boundary"].update(kind="ellipse", a=1.2)
ELLIPSE["grid"]["margin"] = 0.35
# The ellipse's curve as a table; each config runs in its own directory
# beside the table file.
TABLE = copy.deepcopy(ELLIPSE)
TABLE["boundary"] = {"kind": "table", "n_nodes": 64, "table_path": "../table.csv"}

BAD_VALUES = (
    lambda rng: rng.choice(["abc", True, None, [1], {"x": 1}]),      # wrong type
    lambda rng: rng.choice([0, 0.0]),
    lambda rng: -rng.choice([1, rng.uniform(0.01, 10.0)]),
    lambda rng: float("nan"),
    lambda rng: rng.choice([1.0, -1.0]) * 10.0 ** rng.randint(200, 308),
)
EXTRA = object()


def _leaves(doc, path=()):
    """Paths of every value of doc, list entries included, and of every
    section, tagged EXTRA (a key is added there)."""
    for key, val in doc.items():
        here = path + (key,)
        if isinstance(val, dict):
            yield here, EXTRA
            yield from _leaves(val, here)
        elif isinstance(val, list):
            yield from ((here + (i,), None) for i in range(len(val)))
        else:
            yield here, None


def _mutants(base, seed):
    rng = random.Random(seed)
    for path, tag in _leaves(base):
        doc = copy.deepcopy(base)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if tag is EXTRA:
            node[path[-1]]["extra_key"] = 1
            yield path + ("extra_key",), doc
            continue
        for make in BAD_VALUES:
            mutant = copy.deepcopy(doc)
            node = mutant
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = make(rng)
            yield path + (node[path[-1]],), mutant


def _run(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _finite(command, out):
    if command == "forward":
        return np.all(np.isfinite(aio.read_sinogram(os.path.join(out, "sinogram.bin")).data))
    if command == "check":
        with open(os.path.join(out, "residual.json")) as fh:
            return math.isfinite(json.load(fh)["relative"])
    if command == "reconstruct":
        _, _, pic = aio.read_field_csv(os.path.join(out, "reconstruction.csv"))
        with open(os.path.join(out, "recon_report.json")) as fh:
            doc = json.load(fh)
        figures = (doc["dbeta0_max"], doc.get("relative_l2_error", 0.0))
        return np.all(np.isfinite(pic)) and all(math.isfinite(x) for x in figures)
    fac = aio.read_factors_cache(os.path.join(out, "factors.bin"))
    return (np.all(np.isfinite(fac.alpha)) and np.all(np.isfinite(fac.beta))
            and math.isfinite(fac.max_neg_mode))


def _cycle(doc, where, fallback_sino):
    """Exit code and stderr of each command on the config doc, and the
    commands that broke the contract."""
    os.makedirs(where)
    os.chdir(where)                 # relative paths of the config start here
    with open("run.json", "w") as fh:
        json.dump(doc, fh)
    out = doc.get("io", {}).get("out_dir")
    codes = {"forward": _run(["forward", "--config", "run.json", "--attenuated"])}
    sino = os.path.join(where, str(out), "sinogram.bin")
    if codes["forward"][0] != 0:
        sino = fallback_sino
    for command in ("check", "reconstruct"):
        codes[command] = _run([command, "--config", "run.json", sino])
    codes["factors"] = _run(["factors", "--config", "run.json"])
    broken = []
    for command, (code, err) in codes.items():
        allowed = (0, 1, 2, 3) if command == "check" else (0, 2, 3)
        if code not in allowed or (code == 0 and not _finite(command, out)):
            broken.append((command, code, err.strip()[-160:]))
    return codes, broken


@pytest.mark.parametrize("base", [DISK, ELLIPSE, TABLE], ids=["disk", "ellipse", "table"])
def test_exit_codes(tmp_path, monkeypatch, base):
    monkeypatch.chdir(tmp_path)
    u = 2.0 * np.pi * np.arange(64) / 64
    np.savetxt(tmp_path / "table.csv", np.column_stack([1.2 * np.cos(u), np.sin(u)]),
               delimiter=",", header="x,y", comments="", fmt="%.17g")
    codes, broken = _cycle(base, str(tmp_path / "base"), None)
    assert {command: code for command, (code, _) in codes.items()} == dict.fromkeys(codes, 0)
    base_sino = str(tmp_path / "base" / "out" / "sinogram.bin")
    failures = []
    for i, (what, doc) in enumerate(_mutants(base, seed=16)):
        _, broken = _cycle(doc, str(tmp_path / ("m%d" % i)), base_sino)
        failures += [(what,) + b for b in broken]
    assert not failures, "\n".join(map(repr, failures))
