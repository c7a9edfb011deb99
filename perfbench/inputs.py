"""Seeded input generation for the benchmark workloads.

Everything the program reads comes from here: run configs, the boundary
table CSV and the screen's sinograms with their labels.  The same seed
gives byte-identical files.  Only the screen's sinograms need the
program itself (its `forward` subcommand makes the basis data); every
other input is written without it.

Cycle workloads use the README scenario with a seeded source amplitude.
The data is linear in the source, so the amplitude changes the bytes the
program reads but not the relative residual, the relative error or the
cost.
"""

import json
import os

import numpy as np

GATE = 0.01  # the CLI's default tolerances.residual_gate

# The README config: 512 nodes, 128 angles, N=32, 64x64 grid.
README_CONFIG = {
    "boundary": {"kind": "disk", "n_nodes": 512},
    "modes": {"n": 32, "angles": 128},
    "grid": {"nx": 64, "ny": 64},
}

ATTENUATION = {"name": "poly-bump", "params": {"amplitude": 0.3}}

# The table boundary samples this ellipse; `ellipse-cycle` runs it in
# closed form.
ELLIPSE = {"a": 1.5, "b": 1.0}
TABLE_POINTS = 64

# Screen classes and their magnitudes.  At the 0.01 gate a 1% drift
# (residual about 3.9e-3) and amplitude 0.45 instead of 0.3 on one of
# four components (about 1e-3) pass as consistent.  An amplitude error
# also hides on a source centred in the radial attenuation map (3.0
# instead of 0.3 gives 0.013 on its own), so the wrong-attenuation class
# uses a misregistered, stronger map on the input's dominant component,
# which every basis geometry tried shows at 0.04-0.07 on its own.  The
# benchmark reports each class's residual-to-gate margin.
SCREEN_CLASSES = {
    "consistent": 12,
    "drift": 4,              # offset on every outgoing cell
    "gain": 4,               # gain error on an arc of nodes
    "wrong-attenuation": 4,  # one component forwarded through another map
}
# Basis sources: (distance of the centre from the origin, support
# radius), turned about the origin by a seeded angle.  The residual
# floor of consistent data grows as the support shrinks, so a fixed
# layout keeps the floor, and the screen's figures, alike across seeds.
BASIS_LAYOUT = ((0.30, 0.45), (0.20, 0.50), (0.35, 0.42), (0.10, 0.55))
N_BASIS = len(BASIS_LAYOUT)
DRIFT_RANGE = (0.05, 0.08)       # share of the input's largest value
GAIN_RANGE = (0.03, 0.05)        # relative gain error
GAIN_ARC_NODES = 40
WRONG_ATTENUATION = {"name": "shifted-poly-bump",
                     "params": {"center": [0.3, 0.15], "radius": 0.55, "amplitude": 0.6}}
# Narrow weights keep the largest consistent residual, a metric, alike
# across seeds (quartile spread about 0.05 against 0.12 for 0.2-1).
WEIGHT_RANGE = (0.7, 1.0)
MINOR_WEIGHT_RANGE = (0.2, 0.5)  # other components of a wrong-attenuation input


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _config(base, **sections):
    doc = json.loads(json.dumps(base))
    for key, val in sections.items():
        doc[key] = val
    return doc


def source_amplitude(seed):
    """Seeded amplitude of the cycle workloads' poly-bump source."""
    return float(np.round(_rng(seed, 1).uniform(0.5, 2.0), 6))


def ellipse_table(n_points=TABLE_POINTS):
    """Boundary table CSV rows of the ellipse, counterclockwise."""
    t = 2.0 * np.pi * np.arange(n_points) / n_points
    return np.column_stack([ELLIPSE["a"] * np.cos(t), ELLIPSE["b"] * np.sin(t)])


def write_cycle_inputs(workload, seed, dest):
    """Config (and boundary table) of a cycle workload; returns the config path."""
    f_spec = {"name": "poly-bump", "params": {"amplitude": source_amplitude(seed)}}
    if workload == "disk-att-cycle":
        doc = _config(README_CONFIG, phantoms={"f": f_spec, "a": ATTENUATION})
    elif workload == "ellipse-cycle":
        doc = _config(README_CONFIG,
                      boundary={"kind": "ellipse", "n_nodes": 512, **ELLIPSE},
                      phantoms={"f": f_spec})
    elif workload == "table-cycle":
        table = os.path.join(dest, "boundary.csv")
        with open(table, "w") as fh:
            fh.write("x,y\n")
            for x, y in ellipse_table():
                fh.write("%.17g,%.17g\n" % (x, y))
        doc = _config(README_CONFIG,
                      boundary={"kind": "table", "n_nodes": TABLE_POINTS,
                                "table_path": table},
                      modes={"n": 15, "angles": 32},
                      phantoms={"f": f_spec})
    else:
        raise ValueError("not a cycle workload: %r" % (workload,))
    return _write_json(os.path.join(dest, "run.json"), doc)


def screen_plan(seed, sizes=None):
    """The screen's basis sources and labelled inputs, from the seed alone.

    `sizes` overrides the README config sections (tests use a tiny one).
    Returns a JSON-ready dict: the check config, the basis source specs,
    the wrong-attenuation forward and one entry per input.
    """
    rng = _rng(seed, 2)
    base = _config(README_CONFIG, **(sizes or {}))
    check_cfg = _config(base, phantoms={"f": {"name": "poly-bump"}, "a": ATTENUATION})
    turn = rng.uniform(0.0, 2.0 * np.pi)
    basis = []
    for k, (rho, radius) in enumerate(BASIS_LAYOUT):
        phi = turn + 2.0 * np.pi * k / N_BASIS
        center = [float(np.round(rho * np.cos(phi), 6)), float(np.round(rho * np.sin(phi), 6))]
        basis.append({"name": "shifted-poly-bump",
                      "params": {"center": center, "radius": radius}})
    wrong_k = int(rng.integers(N_BASIS))

    inputs = []
    n_nodes = base["boundary"]["n_nodes"]
    for label_class, count in SCREEN_CLASSES.items():
        for _ in range(count):
            if label_class == "wrong-attenuation":
                weights = rng.uniform(*MINOR_WEIGHT_RANGE, N_BASIS)
                weights[wrong_k] = 1.0
            else:
                weights = rng.uniform(*WEIGHT_RANGE, N_BASIS)
            entry = {
                "class": label_class,
                "label": "consistent" if label_class == "consistent" else "inconsistent",
                "weights": [float(np.round(w, 6)) for w in weights],
            }
            if label_class == "drift":
                entry["drift"] = float(np.round(rng.uniform(*DRIFT_RANGE), 6))
            elif label_class == "gain":
                entry["gain"] = float(np.round(rng.uniform(*GAIN_RANGE), 6))
                entry["arc_start"] = int(rng.integers(n_nodes))
                entry["arc_nodes"] = min(GAIN_ARC_NODES, n_nodes // 4)
            elif label_class == "wrong-attenuation":
                entry["wrong_component"] = wrong_k
            inputs.append(entry)
    order = rng.permutation(len(inputs))
    inputs = [dict(inputs[i], name="input_%02d" % n) for n, i in enumerate(order)]
    return {
        "seed": int(seed),
        "check_config": check_cfg,
        "basis": basis,
        "wrong_attenuation": {"component": wrong_k, "a": WRONG_ATTENUATION},
        "inputs": inputs,
    }


def write_screen_configs(plan, dest):
    """Check config and one forward config per basis sinogram.

    Returns (check config path, [(name, config path)]) where the last
    forward is the wrong-attenuation one.
    """
    check_path = _write_json(os.path.join(dest, "screen.json"), plan["check_config"])
    forwards = []
    for k, f_spec in enumerate(plan["basis"]):
        doc = _config(plan["check_config"], phantoms={"f": f_spec, "a": ATTENUATION})
        forwards.append(("basis_%d" % k, _write_json(os.path.join(dest, "basis_%d.json" % k), doc)))
    wrong = plan["wrong_attenuation"]
    doc = _config(plan["check_config"],
                  phantoms={"f": plan["basis"][wrong["component"]], "a": wrong["a"]})
    forwards.append(("wrong", _write_json(os.path.join(dest, "wrong.json"), doc)))
    return check_path, forwards


def normal_dots(boundary, angular):
    """n(z) . theta per node and direction: > 0 outgoing, < 0 incoming."""
    dirs = np.stack([np.cos(angular.angles), np.sin(angular.angles)], axis=1)
    return boundary.normals @ dirs.T


def screen_input_data(entry, basis_data, wrong_data, outgoing):
    """Sinogram values of one screen input from the basis sinograms."""
    parts = list(basis_data)
    if entry["class"] == "wrong-attenuation":
        parts[entry["wrong_component"]] = wrong_data
    data = sum(w * p for w, p in zip(entry["weights"], parts))
    if entry["class"] == "drift":
        data = data + entry["drift"] * float(np.max(np.abs(data))) * outgoing
    elif entry["class"] == "gain":
        n = data.shape[0]
        rows = (entry["arc_start"] + np.arange(entry["arc_nodes"])) % n
        data = data.copy()
        data[rows] *= 1.0 + entry["gain"]
    return data


def write_screen_inputs(plan, basis_paths, wrong_path, dest):
    """Write every screen input sinogram and `labels.json`; returns the entries.

    `basis_paths` are the forward outputs in basis order, `wrong_path`
    the wrong-attenuation forward.
    """
    from aradon import io as aio
    from aradon.xray import Sinogram

    basis = [aio.read_sinogram(p) for p in basis_paths]
    wrong = aio.read_sinogram(wrong_path)
    ref = basis[0]
    outgoing = normal_dots(ref.boundary, ref.angular) > 0.0
    entries = []
    for entry in plan["inputs"]:
        data = screen_input_data(entry, [b.data for b in basis], wrong.data, outgoing)
        path = os.path.join(dest, entry["name"] + ".bin")
        meta = {"screen_class": entry["class"], "seed": plan["seed"]}
        aio.write_sinogram(path, Sinogram(ref.boundary, ref.angular, data,
                                          attenuated=True, meta=meta))
        entries.append(dict(entry, path=path))
    _write_json(os.path.join(dest, "labels.json"),
                [{"name": e["name"], "class": e["class"], "label": e["label"]}
                 for e in entries])
    return entries
