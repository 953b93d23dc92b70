#!/usr/bin/env python3
"""End-to-end benchmark of the gas CLI: simulate -> sketch -> dist.

Run from the repository root:

    python3 gasbench/run.py --workload ref-exact --seed 3 --seconds 15 --trace 0

The script builds `gas` and the benchmark harness from source into
.bench_build/, generates the workload's corpus from --seed into
.bench_work/ (wiped at start and end), and measures:

  --trace 0   end-to-end metrics, tracing off: the wall time of whole
              `gas dist` processes (median over every invocation in
              --seconds), their peak RSS, `gas sketch` set-up time (median
              of SETUP_REPS runs) and the inter-rank bytes of one
              report-enabled invocation.
  --trace 1   per-layer metrics from the traced harness (gasbench_harness
              trace), alternated with untraced `gas dist` runs so the
              tracing overhead is measured in the same run.

Every output is checked against an exact all-pairs reference computed
once per seed; a failed check counts as a failed operation. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from BENCHMARK.json. Workload rationale, the
layer -> end-to-end map and the seeds are in gasbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

DEFAULT_SEED = 3
HELD_OUT_SEED = 7

K = 21
DIST_FLAGS = ["--k", str(K), "--ranks", "4", "--batches", "4"]
SETUP_REPS = 3
MIN_DIST_REPS = 3
MIN_TRACE_REPS = 2
PROCESS_TIMEOUT_S = 150

WORKLOADS = {
    "ref-exact": {"corpus": "ref", "estimator": "exact", "output": "sasm"},
    "ref-minhash": {"corpus": "ref", "estimator": "minhash", "output": "sasm"},
    "clades-hybrid": {"corpus": "clades", "estimator": "hybrid", "output": "sasp"},
}
OUTPUT_FLAG = {"sasm": "--similarity-out", "sasp": "--sparse-similarity-out"}

# Counts that must repeat exactly across runs of one seed.
DETERMINISTIC = ["bsp.total_bytes", "bsp.messages", "distmat.flops_total",
                 "distmat.flops_max", "core.packed_nnz", "sketch.survivor_ratio"]

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
GAS = BUILD / "sas" / "gas"
HARNESS = BUILD / "gasbench_harness"


class BenchError(Exception):
    """The benchmark cannot run at all (no result is printed)."""


def log(message):
    print(f"gasbench: {message}", file=sys.stderr, flush=True)


def run_quiet(argv):
    """Run a set-up step; raise BenchError if it fails."""
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"{Path(argv[0]).name} {argv[1]} exited {done.returncode}: "
                         f"{done.stderr.decode(errors='replace').strip()[-500:]}")


def run_timed(argv, stdout_path=None):
    """Run one process; return (exit code, wall seconds, peak RSS MiB)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        with open(WORK / "stderr.log", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
    finally:
        if stdout_path:
            out.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "gas.cpp").is_file():
        raise BenchError("run from the root of a source checkout (CMakeLists.txt, tools/gas.cpp)")
    # Compiler and tool temporaries stay inside the checkout too.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    with open(BUILD / "build.log", "wb") as logfile:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "gasbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "gas", "gasbench_harness",
                      "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=logfile, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed, see {BUILD / 'build.log'}")


def make_corpus(corpus, seed):
    """FASTA inputs of one corpus, generated from the seed."""
    fasta = WORK / "fa"
    if corpus == "ref":
        run_quiet([GAS, "simulate", "--samples", "64", "--length", "200000", "--rate", "0.02",
                   "--seed", str(seed), "--out-dir", fasta])
    else:
        # Eight unrelated clades: one ancestor each, so only within-clade
        # pairs clear the prune threshold.
        for clade in range(8):
            clade_dir = WORK / f"clade{clade}"
            run_quiet([GAS, "simulate", "--samples", "32", "--length", "50000", "--rate", "0.02",
                       "--seed", str(100 * seed + clade), "--out-dir", clade_dir])
            fasta.mkdir(exist_ok=True)
            for fa in clade_dir.glob("*.fa"):
                fa.rename(fasta / f"c{clade}_{fa.name}")
            clade_dir.rmdir()
    return sorted(fasta.glob("*.fa"))


def sketch(fasta_files, reps):
    """`gas sketch` timed `reps` times; returns (.kmers files, seconds list)."""
    times = []
    for rep in range(reps):
        out_dir = WORK / ("kmers" if rep == 0 else "kmers_rep")
        start = time.perf_counter()
        run_quiet([GAS, "sketch", *fasta_files, "--k", str(K), "--out-dir", out_dir])
        times.append(time.perf_counter() - start)
        if rep > 0:
            shutil.rmtree(out_dir)
    return sorted((WORK / "kmers").glob("*.kmers")), times


class Session:
    """One workload at one seed: inputs, reference, and operation tally."""

    def __init__(self, name, seed, setup_reps):
        spec = WORKLOADS[name]
        self.estimator = spec["estimator"]
        self.output = WORK / f"out.{spec['output']}"
        self.output_flag = OUTPUT_FLAG[spec["output"]]
        self.kmers, self.setup_times = sketch(make_corpus(spec["corpus"], seed), setup_reps)
        self.reference = WORK / "reference.sasm"
        run_quiet([HARNESS, "reference", self.reference, *self.kmers])
        self.attempted = 0
        self.failed = 0
        self.inconsistent = False

    def check(self):
        """Check the current output against the reference; None on failure."""
        done = subprocess.run([HARNESS, "check", self.estimator, self.reference, self.output],
                              capture_output=True, timeout=PROCESS_TIMEOUT_S)
        if done.returncode != 0:
            log(f"output check failed: {done.stdout.decode().strip()} {done.stderr.decode().strip()}")
            return None
        return json.loads(done.stdout)

    def operation(self, argv, stdout_path=None):
        """One timed invocation plus its output check; None if it failed."""
        self.attempted += 1
        self.output.unlink(missing_ok=True)
        code, wall, rss = run_timed(argv, stdout_path)
        verdict = self.check() if code == 0 else None
        if verdict is None:
            self.failed += 1
            stderr = (WORK / "stderr.log").read_text(errors="replace").strip()[-500:]
            log(f"operation failed (exit {code}): {argv[1]}: {stderr}")
            return None
        return wall, rss, verdict

    def dist_argv(self, *extra):
        return [GAS, "dist", *self.kmers, *DIST_FLAGS, "--estimator", self.estimator,
                self.output_flag, self.output, *extra]

    def trace_argv(self):
        return [HARNESS, "trace", self.estimator, self.output, str(K), *self.kmers]

    def comm_bytes(self):
        """Inter-rank bytes from one report-enabled (untimed) invocation."""
        report = WORK / "report.json"
        if self.operation(self.dist_argv("--report-json", report)) is None:
            return None
        return json.loads(report.read_text())["cost_summary"]["total_bytes"]


def measure_end_to_end(session, seconds):
    comm_bytes = session.comm_bytes()
    walls, rss = [], []
    start = time.perf_counter()
    while len(walls) < MIN_DIST_REPS or time.perf_counter() - start < seconds:
        if session.attempted > 4 * MIN_DIST_REPS and not walls:
            break
        done = session.operation(session.dist_argv())
        if done is not None:
            walls.append(done[0])
            rss.append(done[1])
    if comm_bytes is None or not walls:
        raise BenchError("no successful gas dist invocation")
    log(f"{len(walls)} timed gas dist runs: " + " ".join(f"{w:.3f}" for w in walls))
    return {
        "dist_wall_s": statistics.median(walls),
        "setup_s": statistics.median(session.setup_times),
        "peak_rss_mb": statistics.median(rss),
        "comm_bytes": comm_bytes,
    }


def measure_per_layer(session, seconds):
    comm_bytes = session.comm_bytes()
    traced, untraced = [], []
    start = time.perf_counter()
    trace_out = WORK / "trace.json"
    while len(traced) < MIN_TRACE_REPS or time.perf_counter() - start < seconds:
        if session.attempted > 4 * MIN_TRACE_REPS and not traced:
            break
        done = session.operation(session.dist_argv())
        if done is not None:
            untraced.append(done[0])
        done = session.operation(session.trace_argv(), trace_out)
        if done is not None:
            wall, _, verdict = done
            metrics = json.loads(trace_out.read_text())
            metrics["sketch.mae"] = verdict["mae"]
            metrics["obs.traced_wall_s"] = wall
            metrics["obs.span_coverage"] = (metrics["genome.load_s"] + metrics["harness.pipeline_s"]
                                            + metrics["matrix_io.write_s"]) / wall
            metrics["obs.program_span_coverage"] = (metrics["harness.program_span_s"]
                                                    / metrics["harness.pipeline_s"])
            traced.append(metrics)
    if comm_bytes is None or not traced or not untraced:
        raise BenchError("no successful traced run")

    problems = [f"count {name} differs between traced runs of one seed"
                for name in DETERMINISTIC if len({m[name] for m in traced}) != 1]
    if traced[0]["bsp.total_bytes"] != comm_bytes:
        problems.append(f"harness moved {traced[0]['bsp.total_bytes']} bytes, gas dist {comm_bytes}")
    if any(m["harness.dropped_spans"] for m in traced):
        problems.append("observer dropped spans; span-derived metrics are incomplete")
    for problem in problems:
        log(problem)
    session.inconsistent = bool(problems)

    metrics = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
    metrics["obs.trace_overhead"] = metrics["obs.traced_wall_s"] / statistics.median(untraced) - 1.0
    log(f"{len(traced)} traced / {len(untraced)} untraced runs")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 10**12:
        parser.error("--seed must be in [0, 1e12)")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        build()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        try:
            session = Session(args.workload, args.seed, 1 if args.trace else SETUP_REPS)
            measure = measure_per_layer if args.trace else measure_end_to_end
            measured = measure(session, args.seconds)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        log(f"error: metrics not measured: {missing}")
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        log(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": session.failed == 0 and not session.inconsistent,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
