"""Tests of the benchmark's own code: generator, screen labels, tracer.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import copy
import filecmp
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

# A screen small enough to set up in a few seconds.
TINY = {
    "boundary": {"kind": "disk", "n_nodes": 128},
    "modes": {"n": 8, "angles": 32},
    "grid": {"nx": 20, "ny": 20},
    "quad": {"panels": 4, "points": 4},
    "tolerances": {"s_samples": 512},
}


# The full-size gates are tighter than this grid's floors; the CLI's own
# tolerances still apply.
TINY_GATES = {"residual_rel": inputs.GATE, "identity_dev": 1e-8, "factor_leak": 1e-6}


@pytest.fixture(scope="module")
def tiny_screen(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(wl.GATES, "att-screen", TINY_GATES)
        work = str(tmp_path_factory.mktemp("screen"))
        screen = wl.ScreenWorkload(7, work, sizes=TINY)
        screen.setup(os.path.join(work, "inputs"))
        assert not [f for op in screen.setup_ops for f in op.failures]
        yield screen


def test_plan_is_a_function_of_the_seed():
    assert inputs.screen_plan(3) == inputs.screen_plan(3)
    assert inputs.screen_plan(3) != inputs.screen_plan(4)
    labels = [e["label"] for e in inputs.screen_plan(3)["inputs"]]
    assert labels.count("consistent") == inputs.SCREEN_CLASSES["consistent"]


@pytest.mark.parametrize("workload", ["disk-att-cycle", "ellipse-cycle", "table-cycle"])
def test_cycle_inputs_are_deterministic(tmp_path, workload):
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        inputs.write_cycle_inputs(workload, seed, str(d))
    same = filecmp.dircmp(dirs[0], dirs[1])
    if workload == "table-cycle":
        # the config names its table by path, which differs per directory
        assert same.diff_files == ["run.json"]
        assert filecmp.cmp(dirs[0] / "boundary.csv", dirs[1] / "boundary.csv", shallow=False)
    else:
        assert same.diff_files == []
    assert not filecmp.cmp(dirs[0] / "run.json", dirs[2] / "run.json", shallow=False)


def test_screen_inputs_are_deterministic(tiny_screen, tmp_path):
    again = wl.ScreenWorkload(7, str(tmp_path), sizes=TINY)
    again.setup(str(tmp_path / "inputs"))
    for a, b in zip(tiny_screen.entries, again.entries):
        assert filecmp.cmp(a["path"], b["path"], shallow=False)


def test_screen_labels_match_verdicts(tiny_screen):
    for _ in tiny_screen.entries:
        op = tiny_screen.run_op()
        assert op.failures == []
        assert "residual_rel" in op.values


def test_wrong_label_is_a_failure(tiny_screen):
    entry = dict(tiny_screen.entries[0])
    entry["label"] = "inconsistent" if entry["label"] == "consistent" else "consistent"
    screen = copy.copy(tiny_screen)
    screen.entries = [entry]
    assert screen.run_op().failures


def _holders():
    """Every (owner, attribute) that holds a traced function, with its value."""
    held = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "aradon" or name.startswith("aradon.")):
            continue
        for key, val in vars(mod).items():
            if callable(val):
                held[(name, key)] = val
    for module_name, path, _ in tracing.TRACED:
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(sys.modules["aradon." + module_name], cls_name)
            held[(cls_name, meth)] = cls.__dict__[meth]
    return held


def test_wrappers_are_restored(tiny_screen):
    before = _holders()
    tr = tracing.Tracer()
    tiny_screen.tracer = tr
    try:
        with tr.installed():
            from aradon import attenuation, cli

            # names imported into other modules are wrapped there too
            assert cli.build_h is not before[("aradon.attenuation", "build_h")]
            assert attenuation.del_v_minus is not before[("aradon.bukhgeim", "del_v_minus")]
            op = tiny_screen.run_op(traced=True)
    finally:
        tiny_screen.tracer = None
    assert op.failures == []
    after = _holders()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    layer = tr.layer_metrics(1)
    assert layer["bukhgeim.hilbert_H0.calls"][0] >= 1
    assert layer["io.read_factors_cache.calls"][0] == 1
    assert 0.0 < layer["trace.coverage"][0] <= 1.0


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    with tr.span("cli.outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    assert inner[1] == outer[0]
    assert outer[5] == pytest.approx((outer[4] - outer[3]) - (inner[4] - inner[3]))


def test_tail_needs_ten_samples_beyond():
    import run

    assert run.tail(list(range(10))) is None
    t = run.tail([float(i) for i in range(1, 41)])
    assert t["value"] == 30.0 and t["percentile"] == 75.0 and t["samples"] == 40
