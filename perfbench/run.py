#!/usr/bin/env python3
"""Benchmark runner: one workload, one seed, one timed run.

From the root of a checkout:

    python3 perfbench/run.py --workload singular --seed 1 --seconds 20 --trace 0

The run sets up (import, input generation from the seed, warm-up), then
repeats whole rounds of the workload's trials until --seconds have passed,
checks every output outside the timed interval, and prints one JSON object
as its last line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones, from rounds run under the span tracer and
alternated with untraced rounds so the tracing overhead can be reported.

Times of rounds and set-ups are reported at reference speed: each is
divided by the mean time of the workload's calibration loop run just
before and just after it, and multiplied by the loop's time on the
reference box.  On a shared 2-core virtual machine the same code ran up to
twice as fast at some times as at others; the ratio follows the program,
not the host.  Raw times are printed on stderr and kept in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("singular", "stopping", "feasibility", "characteristics")
SETUP_PROBES = 5          # set-ups in fresh processes, for setup_s
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    return parser.parse_args(argv)


def set_up(name: str, seed: int, tracer_factory=None):
    """Import the package from the checkout, make the inputs, warm up.

    Returns (workload, package, tracer, seconds).  The tracer, when asked
    for, is installed around input generation and warm-up only.
    """
    start = time.perf_counter()
    sys.path[:0] = [str(HERE), str(SRC)]
    import sparsedom
    import workloads

    package = Path(sparsedom.__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise ImportError(f"sparsedom resolved to {package}, outside {SRC}")
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install(sparsedom)
    workload = workloads.WORKLOADS[name](seed, OUT)
    workload.warm_up()
    if tracer is not None:
        tracer.remove()
    return workload, sparsedom, tracer, time.perf_counter() - start


class Clock:
    """Scales measured steps to reference speed.

    The workload's calibration loop runs before the first step and after
    every step; a step's wall and CPU times are divided by the mean of the
    loops on either side of it and multiplied by the loop's time on the
    reference box (the workload's CALIBRATION_S).
    """

    def __init__(self, workload):
        self.loop = workload.calibrate
        self.reference_s = workload.CALIBRATION_S
        self.loops = [self.time_loop()]

    def time_loop(self):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.loop()
        return time.perf_counter() - wall0, time.process_time() - cpu0

    def scale(self, wall: float, cpu: float):
        self.loops.append(self.time_loop())
        before, after = self.loops[-2], self.loops[-1]
        return (wall / (before[0] + after[0]) * 2.0 * self.reference_s,
                cpu / (before[1] + after[1]) * 2.0 * self.reference_s)


def probe_setup(args, clock) -> tuple:
    """Raw and reference-speed set-up times of fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(seconds)
        scaled.append(clock.scale(seconds, seconds)[0])
    return raw, scaled


class Rounds:
    """Runs whole rounds of trials; keeps the first round's outputs."""

    def __init__(self, workload, name, checks):
        self.trials = workload.trials()
        self.name = name
        self.checks = checks
        self.first = None
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.trial_id = 0

    def run(self, tracer=None):
        outputs, failed = [], 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for trial in self.trials:
            if tracer is not None:
                tracer.trial = self.trial_id
            self.trial_id += 1
            try:
                outputs.append(trial())
            except Exception:           # one failed trial must not end the run
                traceback.print_exc(file=sys.stderr)
                outputs.append(None)
                failed += 1
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        self.attempted += len(self.trials)
        self.failed += failed
        self.digests.append(self.checks.digest(
            self.name, [o for o in outputs if o is not None]))
        if self.first is None:
            self.first = outputs
        return wall, cpu

    def problems(self, workload) -> list:
        problems = []
        if len(set(self.digests)) > 1:
            problems.append("rounds gave different outputs")
        kept = [o for o in self.first if o is not None]
        if kept:
            problems += self.checks.CHECKS[self.name](workload, kept)
        return problems


def per_layer(totals: dict, names: list) -> dict:
    out = {}
    for name in names:
        if name == "sparse.verify_feasible_ratio":
            calls = totals.get("sparse.verify_sparsity_calls", 0)
            out[name] = totals.get("sparse.verify_feasible", 0) / calls \
                if calls else 0.0
        else:
            out[name] = totals.get(name, 0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ONE_THREAD:
        os.environ[var] = "1"
    if not (SRC / "sparsedom" / "__init__.py").is_file():
        print(f"error: no sparsedom sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        seconds = set_up(args.workload, args.seed)[3]
        print(json.dumps({"setup_s": seconds}))
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer_factory = None
    if args.trace:
        import tracing

        tracer_factory = tracing.Tracer
    workload, package, tracer, setup_here = set_up(
        args.workload, args.seed, tracer_factory)
    setup_totals = tracer.totals() if tracer else {}
    import checks

    rounds = Rounds(workload, args.workload, checks)
    raw = {"wall_s": [], "cpu_s": [], "traced_wall_s": []}
    walls, cpus, traced_walls, traced_totals = [], [], [], []
    clock = Clock(workload)
    start = time.perf_counter()
    while True:
        wall, cpu = rounds.run()
        raw["wall_s"].append(wall)
        raw["cpu_s"].append(cpu)
        wall, cpu = clock.scale(wall, cpu)
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            tracer.reset_totals()
            tracer.install(package)
            try:
                wall, _ = rounds.run(tracer)
            finally:
                tracer.remove()
            raw["traced_wall_s"].append(wall)
            traced_walls.append(clock.scale(wall, wall)[0])
            traced_totals.append(tracer.totals())
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = time.perf_counter() - start

    problems = rounds.problems(workload)
    print(f"{args.workload}: set-up {setup_here:.3f} s, {len(walls)} rounds "
          f"of {len(rounds.trials)} trials in {timed:.1f} s, checks "
          f"{time.perf_counter() - start - timed:.1f} s", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    raw["calibration_wall_s"] = [loop[0] for loop in clock.loops]
    if tracer is None:
        raw["setup_s"], setup_samples = probe_setup(args, clock)
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        specs = bench["end_to_end"]
        print(f"raw medians: wall {statistics.median(raw['wall_s']):.3f} s, "
              f"cpu {statistics.median(raw['cpu_s']):.3f} s, set-up "
              f"{statistics.median(raw['setup_s']):.3f} s; calibration loop "
              f"{statistics.median(raw['calibration_wall_s']):.4f} s",
              file=sys.stderr)
        with open(OUT / f"run-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "reference_s": clock.reference_s, "raw": raw,
                       "metrics": values}, fh, indent=1, sort_keys=True)
    else:
        names = [m["name"] for m in bench["per_layer"]]
        layers = [per_layer(t, names) for t in traced_totals]
        values = {name: statistics.median(row[name] for row in layers)
                  for name in names}
        if "harness.generate_corpus_s" in values:     # corpora made in set-up
            values["harness.generate_corpus_s"] += \
                setup_totals.get("harness.generate_corpus_s", 0.0)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        tracer.save(stem.with_suffix(".npz"))
        with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced_wall_s": walls, "traced_wall_s": traced_walls,
                       "raw": raw, "tracing_overhead_s": overhead,
                       "per_layer": values,
                       "set_up": setup_totals, "rounds": traced_totals},
                      fh, indent=1, sort_keys=True)
        print(f"tracing overhead: {overhead:.4f} s per round "
              f"({len(traced_walls)} traced rounds)", file=sys.stderr)
        specs = bench["per_layer"]

    result = {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
