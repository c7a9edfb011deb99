"""The benchmark's tracer around a small attenuated reconstruct.

perfbench/tracer.py wraps aradon's functions and methods by name and its
count hooks read attributes of their arguments and results
(`IntegratingFactor.interior` and `zero_attenuation`,
`ConvexBoundary.contains` and `distance_to_boundary` among them).  A
rename of any of them fails here.  The reconstruct holds no factors on a
grid, so `interior` is None and the interior counters stay unset.  The tracer is loaded from its file and
only read; the reconstruct writes nothing.
"""

import importlib.util
import os

import numpy as np
import pytest

import aradon.config  # noqa: F401  (the tracer patches every traced module)
import aradon.io  # noqa: F401
from aradon import attenuation, bukhgeim
from aradon.geometry import ConvexBoundary, make_boundary
from aradon.harmonics import AngularGrid, project_minus
from aradon.xray import QuadSettings, forward_sinogram, phantom

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reconstruct(boundary, ang, a, trace):
    grid = bukhgeim.CartesianGrid(boundary, 16, 16)
    factors = attenuation.build_h(a, boundary, ang, trace.n_modes, s_samples=512)
    return grid, attenuation.reconstruct_f_attenuated(trace, factors, grid)


def test_traced_attenuated_reconstruct(tracing):
    b = make_boundary("disk", 128)
    ang = AngularGrid(32)
    f = phantom("poly-bump", b)
    a = phantom("poly-bump", b, params={"amplitude": 0.2})
    trace = project_minus(forward_sinogram(f, a, b, ang, QuadSettings(4, 4)), 8)
    _, ref = _reconstruct(b, ang, a, trace)

    originals = {name: ConvexBoundary.__dict__[name] for name in ("contains", "distance_to_boundary")}
    build_h = attenuation.build_h
    tr = tracing.Tracer()
    with tr.installed():
        assert attenuation.build_h is not build_h
        grid, pic = _reconstruct(b, ang, a, trace)
    assert attenuation.build_h is build_h
    assert {name: ConvexBoundary.__dict__[name] for name in originals} == originals

    assert np.array_equal(pic, ref)
    layer = tr.layer_metrics(1)
    for name in ("bukhgeim.CartesianGrid", "attenuation.build_h",
                 "attenuation.reconstruct_f_attenuated"):
        assert layer[name + ".calls"][0] == 1
    assert layer["geometry.distance_to_boundary.calls"][0] >= 1
    for name in ("attenuation.interior_points", "attenuation.interior_used_ratio",
                 "attenuation.fd_zeroed_points"):
        assert name not in tr.counts
    assert layer["attenuation.interior_used_ratio"][0] == 0.0
    assert layer["attenuation.fd_zeroed_points"][0] == 0.0
    assert tr.counts["bukhgeim.margin_excluded_points"] == np.count_nonzero(
        grid.inside & ~grid.valid)
    assert "attenuation.identity_dev" in tr.counts and "attenuation.factor_leak" in tr.counts
