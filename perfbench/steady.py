"""Steadiness check: repeat every workload over seeds, compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Runs `perfbench/run.py` once per (set, workload, seed), seeds 1..runs,
one process at a time, with BENCHMARK.json's `run_seconds`.  For every
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread, (Q3 - Q1) / median, against the metric's bound; a spread
over a third of the bound is marked.  With --sets 2 the second set reruns
the same seeds and the change of median between sets, either way, is
compared with the bound too.  The spread of `setup_s` is printed but not
held to its bound, as in the benchmark's acceptance rule: set-up time
has few samples per run (three set-ups, five imports); its change of
median between sets is held to the bound like every other metric's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(bench, workload, seed):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                           proc.stderr[-2000:]))
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    p.add_argument("--sets", type=int, default=1, help="repeat the whole set this often")
    args = p.parse_args(argv)

    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(args.sets):
            values = {}
            for seed in seeds:
                result = run_once(bench, workload, seed)
                if not result["correct"]:
                    ok = False
                    print("%s seed %d: incorrect, %d of %d failed"
                          % (workload, seed, result["failed"], result["attempted"]))
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append({name: summarize(v) for name, v in values.items()})
        print("\n%s (%d seeds x %d sets, %ss runs)" % (workload, len(seeds), args.sets,
                                                     bench["run_seconds"]))
        print("  %-34s %12s %12s %12s %8s %6s %s" % ("metric", "median", "q1", "q3",
                                                    "spread", "bound", "note"))
        for name in sorted(sets[0]):
            bound = specs.get(name, {}).get("bound")
            for i, st in enumerate(s[name] for s in sets):
                note = []
                if bound is not None and st["spread"] > bound:
                    if name == "setup_s":
                        note.append("spread over bound (exempt)")
                    else:
                        note.append("SPREAD OVER BOUND")
                        ok = False
                elif bound is not None and st["spread"] > bound / 3:
                    note.append("spread over bound/3")
                if i and bound is not None:
                    first = sets[0][name]["median"]
                    change = (st["median"] - first) / abs(first) if first else 0.0
                    if specs[name]["better"] == "higher":
                        change = -change
                    note.append("worse by %.3f vs set 1" % change)
                    if abs(change) > bound:
                        note.append("MEDIAN OVER BOUND")
                        ok = False
                print("  %-34s %12.6g %12.6g %12.6g %8.4f %6s %s"
                      % (name if i == 0 else "  set %d" % (i + 1), st["median"], st["q1"],
                         st["q3"], st["spread"], "-" if bound is None else bound,
                         " ".join(note)))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
