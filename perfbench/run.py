"""Benchmark of the aradon CLI: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; `src/` is put on the import path,
nothing needs installing.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: with
`--trace 0` the end-to-end metrics of BENCHMARK.json, with `--trace 1`
the per-layer ones.  The lines before it are a human-readable report,
and the full record (provenance, every operation, spans) is written to
`.perfbench_out/` in the checkout.

Trace 0 repeats the set-up SETUP_REPS times, then runs operations until
`--seconds` have passed (at least one), then samples again the stages
the window sampled too rarely (`top_up`), then times the import again
in fresh interpreters (`import_times`).  Its bounded timings are CPU
seconds of this process: the program is single-threaded here, so on an
idle machine they equal wall time, and unlike wall time they do not
count the time the process waits while others hold the shared cores.
The report lines give the wall-time figures too.

Trace 1 sets up once, then runs untraced and traced operations in turn
(wrappers around the program's public functions, installed for each
traced operation only); the difference of their medians is the tracing
overhead.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("disk-att-cycle", "ellipse-cycle", "att-screen", "table-cycle")
SETUP_REPS = 3
# The import is most of a cycle workload's set-up (the inputs take a few
# milliseconds), so it is timed again in IMPORT_REPS - 1 fresh interpreters.
IMPORT_REPS = 5
THREAD_VARS = ("ARADON_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10   # samples a tail percentile must have beyond it
# A stage the window sampled fewer than STAGE_MIN_SAMPLES times, for
# less than STAGE_MIN_SECONDS in all, is run again on the same inputs
# until it has one or the other: one disk cycle is longer than the
# window, and on a shared 2-core machine single samples of a stage
# spread by 20% (the disk's one-second stages) to a factor of two (the
# table's check of a few milliseconds; the ellipse forward, whose
# samples fall in two groups 30% apart).  The extra samples take turns,
# each turn running a stage for TOP_UP_TURN seconds, and span at least
# TOP_UP_SPAN seconds, because the machine's speed drifts over seconds.
STAGE_MIN_SAMPLES = 25
STAGE_MIN_SECONDS = 6.0
TOP_UP_SPAN = 5.0
TOP_UP_TURN = 0.2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def import_program():
    """Import aradon from the checkout's src/; returns (wall, CPU) seconds."""
    if not os.path.isfile(os.path.join(SRC, "aradon", "cli.py")):
        raise SystemExit("error: %s has no aradon sources; run from a checkout "
                         "of the repository" % ROOT)
    # BLAS pools size themselves when numpy loads; aradon.cli reads this
    # before importing numpy, so nothing here may import numpy first.
    os.environ["ARADON_THREADS"] = "1"
    sys.path.insert(0, SRC)
    t0, c0 = time.perf_counter(), time.process_time()
    import aradon.cli  # noqa: F401
    elapsed = (time.perf_counter() - t0, time.process_time() - c0)
    import aradon
    if not os.path.abspath(aradon.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported aradon from %s, not %s" % (aradon.__file__, SRC))
    return elapsed


def import_times(reps):
    """(wall, CPU) import times of aradon.cli in `reps` fresh interpreters,
    each timing itself."""
    code = ("import sys, time; sys.path.insert(0, %r); "
            "t0, c0 = time.perf_counter(), time.process_time(); import aradon.cli; "
            "print(time.perf_counter() - t0, time.process_time() - c0)" % SRC)
    return [tuple(map(float, subprocess.run([sys.executable, "-c", code], capture_output=True,
                                            text=True, check=True, timeout=120).stdout.split()))
            for _ in range(reps)]


def provenance(seed):
    import numpy
    import scipy

    return {
        "git_commit": git("rev-parse", "HEAD"),
        "src_uncommitted": git("status", "--porcelain", "--", "src"),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def git(*args):
    """Output of a git command in the checkout, or None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(("git",) + args, cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_window(workload, seconds):
    """Operations back to back until `seconds` have passed, at least one."""
    ops = []
    t0 = time.perf_counter()
    while True:
        ops.append(workload.run_op())
        if time.perf_counter() - t0 >= seconds:
            return ops


def run_pairs(workload, tracer, seconds):
    """Untraced and traced operations in turn until `seconds` have passed."""
    reference, traced = [], []
    t0 = time.perf_counter()
    while True:
        reference.append(workload.run_op())
        with tracer.installed():
            traced.append(workload.run_op(traced=True))
        if time.perf_counter() - t0 >= seconds:
            return reference, traced


def top_up(workload, ops):
    """Extra single-stage samples for stages the window sampled too rarely."""
    times = {s: [op.cpu[s] for op in ops if s in op.cpu] for s in workload.stages}

    def rare(stage):
        return len(times[stage]) < STAGE_MIN_SAMPLES and sum(times[stage]) < STAGE_MIN_SECONDS

    stages = [s for s in workload.stages if rare(s)]
    extra = []
    t0 = time.perf_counter()
    while stages and (any(rare(s) for s in stages) or time.perf_counter() - t0 < TOP_UP_SPAN):
        for stage in stages:
            spent = 0.0
            while spent < TOP_UP_TURN:
                op = workload.run_stage(stage)
                extra.append(op)
                times[stage].append(op.cpu[stage])
                spent += op.cpu[stage]
    return extra


def tail(samples):
    """Highest percentile with TAIL_BEYOND samples beyond it, or None.

    With n samples that is the (n - 10)-th smallest, at 100 (n - 10) / n.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND
    return {"value": sorted(samples)[k - 1], "percentile": 100.0 * k / n, "samples": n}


def accuracy(workload, ops):
    """Accuracy figures read from the CLI's own outputs."""
    import workloads as wl

    gate = wl.inputs.GATE
    out = {}
    cons = [op.values["residual_rel"] for op in ops
            if "residual_rel" in op.values and op.values.get("class", "consistent") == "consistent"]
    if cons:
        out["residual_rel"] = max(cons)
    errs = [op.values["recon_err"] for op in ops if "recon_err" in op.values]
    if errs:
        out["recon_err"] = max(errs)
    if isinstance(workload, wl.ScreenWorkload):
        out.update(workload.factor_health)
        by_class = {}
        for op in ops:
            if "residual_rel" in op.values:
                by_class.setdefault(op.values["class"], []).append(op.values["residual_rel"])
        margins = {}
        for cls, vals in sorted(by_class.items()):
            if cls == "consistent":
                margins[cls] = gate / max(vals)
            else:
                margins[cls] = min(vals) / gate
        out["class_margins"] = margins
        bad = [min(v) for c, v in by_class.items() if c != "consistent"]
        if cons and bad:
            out["screen_margin"] = min(bad) / max(cons)
    return out


def end_to_end(workload, ops, setup_times, imports):
    """The bounded metrics, in CPU seconds, and their wall-time figures.

    `cycle_cpu_s` sums the stage medians, so that the stages `top_up`
    sampled again count with all their samples.  On the screen the
    forwards are the set-up's basis forwards.
    """
    import workloads as wl

    acc = accuracy(workload, ops)
    if "residual_rel" not in acc:
        return None, None
    counted = ops + [op for op in workload.setup_ops if op.kind == "forward"]

    def medians(clock):
        samples = {s: [getattr(op, clock)[s] for op in (counted if s == "forward" else ops)
                       if s in getattr(op, clock)]
                   for s in ("forward", "check", "reconstruct")}
        med = {s: statistics.median(v) if v else None for s, v in samples.items()}
        med["cycle"] = sum(med[s] for s in workload.stages)
        med["checks_per_s"] = len(samples["check"]) / sum(samples["check"])
        return med, samples

    cpu, samples = medians("cpu")
    wall, wall_samples = medians("stages")
    setup = {clock: statistics.median(t[i] for t in imports)
             + statistics.median(t[i] for t in setup_times)
             for i, clock in enumerate(("wall", "cpu"))}
    metrics = {
        "cycle_cpu_s": (cpu["cycle"], "s"),
        "forward_cpu_s": (cpu["forward"], "s"),
        "check_cpu_s": (cpu["check"], "s"),
        "checks_per_cpu_s": (cpu["checks_per_s"], "1/s"),
        "setup_s": (setup["cpu"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "residual_rel": (max(acc["residual_rel"], wl.RESIDUAL_FLOOR), "1"),
    }
    extra = {
        "reconstruct_cpu_s": cpu["reconstruct"],
        "wall": {"cycle_s": wall["cycle"], "forward_s": wall["forward"],
                 "check_s": wall["check"], "reconstruct_s": wall["reconstruct"],
                 "checks_per_s": wall["checks_per_s"], "setup_s": setup["wall"]},
        "check_tail_s": tail(wall_samples["check"]),
        "import_samples_s": imports,
        "setup_samples_s": setup_times,
        "samples": {s: len(v) for s, v in samples.items()},
        "accuracy": acc,
    }
    return metrics, extra


def per_layer(tracer, ref_ops, traced_ops):
    metrics = tracer.layer_metrics(len(traced_ops))
    ref = statistics.median(op.wall for op in ref_ops)
    traced = statistics.median(op.wall for op in traced_ops)
    metrics["trace.overhead_s"] = (traced - ref, "s")
    metrics["trace.overhead_ratio"] = ((traced - ref) / ref, "1")
    return metrics


# Why a figure printed in the report lines is missing on a workload.
NOT_APPLICABLE = {
    "reconstruct_cpu_s": "the screen runs no reconstruct",
    "reconstruct_s": "the screen runs no reconstruct",
    "check_tail_s": "fewer than 11 checks in the run",
    "recon_err": "the screen runs no reconstruct",
    "identity_dev": "no factors (plain data), or built inside check/reconstruct: see --trace 1",
    "factor_leak": "no factors (plain data), or built inside check/reconstruct: see --trace 1",
    "screen_margin": "only the screen has inconsistent inputs",
}


def print_report(args, result, metrics, extra, failures):
    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed,
                                                      args.seconds, args.trace))
    for name, (value, unit) in metrics.items():
        print("  %-44s %-14.6g %s" % (name, value, unit))
    if args.trace == 0:
        acc = extra["accuracy"]
        wall = extra["wall"]
        rows = [("reconstruct_cpu_s", extra["reconstruct_cpu_s"], "s")]
        rows += [(name, wall[name], "1/s" if name == "checks_per_s" else "s")
                 for name in ("cycle_s", "forward_s", "check_s", "reconstruct_s",
                              "checks_per_s")]
        rows += [("setup_s wall", wall["setup_s"], "s")]
        rows += [
            ("check_tail_s", extra["check_tail_s"] and extra["check_tail_s"]["value"], "s"),
            ("residual_rel measured", acc["residual_rel"], "1"),
            ("recon_err", acc.get("recon_err"), "1"),
            ("identity_dev", acc.get("identity_dev"), "1"),
            ("factor_leak", acc.get("factor_leak"), "1"),
            ("screen_margin", acc.get("screen_margin"), "1"),
            ("fail_rate", result["failed"] / result["attempted"], "1"),
        ]
        for name, value, unit in rows:
            if value is None:
                print("  %-44s n/a            (%s)" % (name, NOT_APPLICABLE[name]))
            else:
                print("  %-44s %-14.6g %s" % (name, value, unit))
        if extra["check_tail_s"]:
            t = extra["check_tail_s"]
            print("  check tail: p%.1f of %d checks" % (t["percentile"], t["samples"]))
        if "class_margins" in acc:
            print("  class margins (residual/gate, gate/residual for consistent): %s"
                  % ", ".join("%s %.3g" % kv for kv in acc["class_margins"].items()))
        print("  samples: %s" % extra["samples"])
    for line in failures[:20]:
        print("  FAILED: %s" % line)


def main(argv=None):
    args = parse_args(argv)
    import_s = import_program()
    import tracer as tracing
    import workloads as wl

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK_DIR)
    tr = tracing.Tracer() if args.trace else None
    try:
        workload = wl.make_workload(args.workload, args.seed, work, tr)
        setup_times = wl.timed_setup(workload, 1 if args.trace else SETUP_REPS)
        setup_failures = [f for op in workload.setup_ops for f in op.failures]
        if setup_failures:
            print("error: set-up failed:\n  " + "\n  ".join(setup_failures), file=sys.stderr)
            return 1
        if args.trace:
            ref_ops, traced_ops = run_pairs(workload, tr, args.seconds)
            ops = ref_ops + traced_ops
            metrics = per_layer(tr, ref_ops, traced_ops)
            extra = {"accuracy": accuracy(workload, ops),
                     "samples": {"reference_ops": len(ref_ops), "traced_ops": len(traced_ops)}}
        else:
            ops = run_window(workload, args.seconds)
            ops += top_up(workload, ops)
            imports = [import_s] + import_times(IMPORT_REPS - 1)
            metrics, extra = end_to_end(workload, ops, setup_times, imports)
            if metrics is None:
                print("error: no consistent check completed:\n  "
                      + "\n  ".join(f for op in ops for f in op.failures), file=sys.stderr)
                return 1
        sizes = workload.sizes()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counted = workload.setup_ops + ops
    failures = [f for op in counted for f in op.failures]
    result = {
        "correct": not failures,
        "attempted": len(counted),
        "failed": sum(1 for op in counted if op.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print_report(args, result, metrics, extra, failures)
    record = {
        "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(args.seed), "sizes": sizes, "gates": wl.GATES[args.workload],
        "result": result, "extra": extra,
        "ops": [{"kind": op.kind, "stages": op.stages, "cpu": op.cpu, "values": op.values,
                 "failures": op.failures} for op in counted],
    }
    if tr is not None:
        record["spans"] = tr.spans
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("  provenance: %s" % json.dumps(record["provenance"], sort_keys=True))
    print("  sizes: %s" % json.dumps(sizes, sort_keys=True))
    print("  record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
