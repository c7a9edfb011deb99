"""The four workloads: set-up, one measured operation, and output checks.

Every program call goes through `aradon.cli.main` in this process.  An
operation records the wall time of each subcommand and the reasons it
failed, if any: a wrong exit code, an output file that does not parse,
a nonzero gauge cell, or an accuracy figure over the workload's gate.

Why these workloads: each ROADMAP layer gets one workload where it does
most of the work and one where it is absent.

- disk-att-cycle: attenuated disk cycle without a factor cache.  The 32
  `del_v_minus` calls of `reconstruct_f_attenuated` dominate and
  `build_h` runs twice (check, then reconstruct with interior points).
- ellipse-cycle: the same `bukhgeim` kernels with one derivative order
  and no attenuation layer; `distance_to_boundary` runs the Newton path.
- att-screen: a stream of labelled attenuated sinograms checked against
  one factor cache built during set-up: S/G operators, cache reads.
- table-cycle: the only run of the generic chord solver (`table`
  boundary); disk and ellipse use closed forms.
"""

import json
import os
import shutil
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np

from aradon import cli
from aradon import io as aio

import inputs

# Accuracy gates per workload.  Discretisation floors measured when the
# benchmark was added get about 2x headroom (disk recon_err 5.5e-5,
# ellipse residual 2.0e-4 and recon_err 2.3e-4, table residual 6.0e-3,
# capped at the CLI's 0.01 gate, and recon_err 1.1e-3, screen consistent
# residuals up to 2.3e-4).  Figures at roundoff level (disk residual
# 1.6e-9, alpha*beta deviation 3.8e-11, leak 5.2e-10) get a fixed gate
# well above roundoff and below the CLI's own tolerances.
GATES = {
    "disk-att-cycle": {"residual_rel": 1e-7, "recon_err": 1.1e-4},
    "ellipse-cycle": {"residual_rel": 4e-4, "recon_err": 5e-4},
    "table-cycle": {"residual_rel": inputs.GATE, "recon_err": 2.5e-3},
    "att-screen": {"residual_rel": 5e-4, "identity_dev": 1e-9, "factor_leak": 1e-8},
}

# The bounded `residual_rel` reports at least this floor.  The disk
# residual sits at roundoff (1.6e-9), where reordering floating-point
# work alone can move it by more than any relative bound; there only the
# absolute gate above applies.  Every other workload is far above it.
RESIDUAL_FLOOR = 1e-8


class Op:
    """One measured operation: subcommand wall times and failures."""

    def __init__(self, kind):
        self.kind = kind
        self.stages = {}     # subcommand -> wall seconds
        self.cpu = {}        # subcommand -> CPU seconds of this process
        self.failures = []
        self.values = {}

    @property
    def wall(self):
        return sum(self.stages.values())


def run_cli(op, stage, argv, expect, tracer=None):
    """Run one subcommand in-process, timing it; returns the exit code.

    Output is captured, and shown with the failure if the exit code is
    not `expect`.  Exit codes 2 and 3 always fail.
    """
    out = StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(out):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli." + argv[0]):
                    code = cli.main(argv)
    except Exception:
        code = None
        out.write(traceback.format_exc())
    op.stages[stage] = time.perf_counter() - t0
    op.cpu[stage] = time.process_time() - c0
    if code != expect:
        op.failures.append("%s exited %s, expected %s: %s"
                           % (" ".join(argv[:1]), code, expect, out.getvalue().strip()[-400:]))
    return code


def _read_json(op, path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        op.failures.append("cannot read %s: %s" % (os.path.basename(path), exc))
        return None


def _gate(op, workload, name, value):
    op.values[name] = value
    limit = GATES[workload].get(name)
    if limit is not None and not value <= limit:
        op.failures.append("%s %.3g over the %s gate %.3g" % (name, value, workload, limit))


def check_forward_output(op, path):
    """The sinogram parses and every incoming cell is exactly 0."""
    try:
        sino = aio.read_sinogram(path)
    except (OSError, ValueError) as exc:
        op.failures.append("sinogram does not parse: %s" % exc)
        return
    incoming = inputs.normal_dots(sino.boundary, sino.angular) < 0.0
    worst = float(np.max(np.abs(sino.data[incoming]))) if incoming.any() else 0.0
    op.values["max_incoming"] = worst
    if worst != 0.0:
        op.failures.append("max |incoming| gauge value is %.3g, not 0" % worst)


class Workload:
    """Base: `setup` writes the inputs, `run_op` measures one operation,
    `run_stage` one more sample of a single subcommand, `sizes` describes
    the inputs."""

    name = ""
    stages = ()          # subcommands one operation runs
    op_kind = "cycle"

    def __init__(self, seed, work, tracer=None):
        self.seed = int(seed)
        self.work = work
        self.tracer = tracer
        self.setup_ops = []      # operations the set-up ran through the CLI

    def _paused(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()


class CycleWorkload(Workload):
    """forward -> check -> reconstruct on one config."""

    stages = ("forward", "check", "reconstruct")

    def __init__(self, name, seed, work, tracer=None):
        super().__init__(seed, work, tracer)
        self.name = name
        self.attenuated = name == "disk-att-cycle"

    def setup(self, dest):
        os.makedirs(dest, exist_ok=True)
        self.config = inputs.write_cycle_inputs(self.name, self.seed, dest)
        with open(self.config) as fh:
            self.doc = json.load(fh)

    def sizes(self):
        d = self.doc
        return {"boundary": d["boundary"]["kind"], "n_nodes": d["boundary"]["n_nodes"],
                "angles": d["modes"]["angles"], "n_modes": d["modes"]["n"],
                "grid": [d["grid"]["nx"], d["grid"]["ny"]],
                "source_amplitude": d["phantoms"]["f"]["params"]["amplitude"],
                "attenuation": d["phantoms"].get("a")}

    def run_op(self, traced=False):
        op = Op(self.op_kind)
        tracer = self.tracer if traced else None
        for stage in self.stages:
            getattr(self, "_" + stage)(op, tracer)
        return op

    def run_stage(self, stage):
        """One more sample of a single stage, on the last cycle's outputs."""
        op = Op(stage)
        getattr(self, "_" + stage)(op, None)
        return op

    def _argv(self, stage):
        out = os.path.join(self.work, "cycle")
        argv = [stage, "--config", self.config, "--out", out]
        argv += ["--attenuated"] if self.attenuated else []
        return argv, out, os.path.join(out, "sinogram.bin")

    def _forward(self, op, tracer):
        argv, _, sino = self._argv("forward")
        if run_cli(op, "forward", argv, 0, tracer) == 0:
            with self._paused():
                check_forward_output(op, sino)

    def _check(self, op, tracer):
        argv, out, sino = self._argv("check")
        if run_cli(op, "check", argv + [sino], 0, tracer) != 0:
            return
        doc = _read_json(op, os.path.join(out, "residual.json"))
        if doc is not None:
            _gate(op, self.name, "residual_rel", float(doc["relative"]))
            if doc.get("verdict") != "consistent":
                op.failures.append("verdict %r on consistent data" % doc.get("verdict"))

    def _reconstruct(self, op, tracer):
        argv, out, sino = self._argv("reconstruct")
        if run_cli(op, "reconstruct", argv + [sino], 0, tracer) != 0:
            return
        doc = _read_json(op, os.path.join(out, "recon_report.json"))
        if doc is not None:
            _gate(op, self.name, "recon_err", float(doc["relative_l2_error"]))
            if doc.get("consistency_flag") != 0:
                op.failures.append("consistency_flag %r" % doc.get("consistency_flag"))
        want = self.doc["grid"]["nx"] * self.doc["grid"]["ny"] + 1
        try:
            with open(os.path.join(out, "reconstruction.csv")) as fh:
                rows = sum(1 for _ in fh)
        except OSError as exc:
            rows = "unreadable (%s)" % exc
        if rows != want:
            op.failures.append("reconstruction.csv has %s lines, expected %d" % (rows, want))


class ScreenWorkload(Workload):
    """Labelled attenuated sinograms checked against one factor cache."""

    name = "att-screen"
    stages = ("check",)
    op_kind = "screen"

    def __init__(self, seed, work, tracer=None, sizes=None):
        super().__init__(seed, work, tracer)
        self.plan = inputs.screen_plan(seed, sizes)
        self.factor_health = {}
        self.next_input = 0

    def setup(self, dest):
        os.makedirs(dest, exist_ok=True)
        check_cfg, forwards = inputs.write_screen_configs(self.plan, dest)
        paths = []
        for name, cfg in forwards:
            op = Op("forward")
            out = os.path.join(dest, name)
            run_cli(op, "forward", ["forward", "--config", cfg, "--out", out, "--attenuated"], 0)
            path = os.path.join(out, "sinogram.bin")
            if not op.failures:
                check_forward_output(op, path)
            self.setup_ops.append(op)
            paths.append(path)
        cache = os.path.join(dest, "factors.bin")
        op = Op("factors")
        if run_cli(op, "factors", ["factors", "--config", check_cfg, "--out", dest,
                                   "--factors-cache", cache], 0) == 0:
            header = _read_container_header(op, cache)
            if header is not None:
                _gate(op, self.name, "identity_dev", float(header["max_identity_dev"]))
                _gate(op, self.name, "factor_leak", float(header["max_neg_mode"]))
                self.factor_health = dict(op.values)
        self.setup_ops.append(op)
        if any(o.failures for o in self.setup_ops):
            return
        self.entries = inputs.write_screen_inputs(self.plan, paths[:-1], paths[-1], dest)
        self.check_cfg = check_cfg
        self.cache = cache

    def sizes(self):
        cfg = self.plan["check_config"]
        counts = {}
        for e in self.plan["inputs"]:
            counts[e["class"]] = counts.get(e["class"], 0) + 1
        return {"boundary": cfg["boundary"]["kind"], "n_nodes": cfg["boundary"]["n_nodes"],
                "angles": cfg["modes"]["angles"], "n_modes": cfg["modes"]["n"],
                "grid": [cfg["grid"]["nx"], cfg["grid"]["ny"]],
                "inputs": counts, "basis": len(self.plan["basis"]),
                "factor_cache_bytes": os.path.getsize(self.cache)}

    def run_stage(self, stage):
        return self.run_op()

    def run_op(self, traced=False):
        op = Op(self.op_kind)
        tracer = self.tracer if traced else None
        entry = self.entries[self.next_input % len(self.entries)]
        self.next_input += 1
        out = os.path.join(self.work, "check")
        expect = 0 if entry["label"] == "consistent" else 1
        argv = ["check", "--config", self.check_cfg, "--out", out,
                "--factors-cache", self.cache, entry["path"]]
        code = run_cli(op, "check", argv, expect, tracer)
        if code in (0, 1):
            doc = _read_json(op, os.path.join(out, "residual.json"))
            if doc is not None:
                op.values["class"] = entry["class"]
                op.values["input"] = entry["name"]
                if entry["class"] == "consistent":
                    _gate(op, self.name, "residual_rel", float(doc["relative"]))
                else:
                    op.values["residual_rel"] = float(doc["relative"])
        return op


def _read_container_header(op, path):
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.readline().decode("utf-8"))
    except (OSError, ValueError) as exc:
        op.failures.append("cannot read the factor cache header: %s" % exc)
        return None


def make_workload(name, seed, work, tracer=None):
    if name == "att-screen":
        return ScreenWorkload(seed, work, tracer)
    if name in ("disk-att-cycle", "ellipse-cycle", "table-cycle"):
        return CycleWorkload(name, seed, work, tracer)
    raise ValueError("unknown workload %r" % (name,))


def timed_setup(workload, reps):
    """Run the set-up `reps` times; the first one's inputs are kept.

    Returns the set-up times as (wall, CPU) pairs.  Later repetitions
    redo the same work in throwaway directories so the median has several
    samples.
    """
    times = []
    for rep in range(reps):
        dest = os.path.join(workload.work, "inputs" if rep == 0 else "setup_%d" % rep)
        t0, c0 = time.perf_counter(), time.process_time()
        if rep == 0:
            workload.setup(dest)
        else:
            clone = make_workload(workload.name, workload.seed, workload.work)
            clone.setup(dest)
            workload.setup_ops.extend(clone.setup_ops)
        times.append((time.perf_counter() - t0, time.process_time() - c0))
        if rep:
            shutil.rmtree(dest, ignore_errors=True)
        if any(o.failures for o in workload.setup_ops):
            break
    return times
