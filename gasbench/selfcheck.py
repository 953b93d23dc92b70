#!/usr/bin/env python3
"""Every workload at the default and held-out seeds, plus count determinism.

Run from the repository root:  python3 gasbench/selfcheck.py [--seconds 15]

For each workload:
  * the end-to-end benchmark at the default and the held-out seed, printing
    every end-to-end metric with its unit and the failed-operation count;
  * the traced benchmark twice at the default seed and once at the held-out
    seed: the deterministic counts must be identical between the two
    default-seed runs, the held-out seed must generate different inputs, and
    the workload-design properties must hold at both seeds (span coverage
    >= 0.95; ref-minhash bypasses pack/exchange/multiply; clades-hybrid
    prunes most pairs).
Passes when all of that holds and every run is correct with 0 failed
operations.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import DEFAULT_SEED, DETERMINISTIC, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def bench(workload, seed, seconds, trace):
    done = subprocess.run([sys.executable, str(Path(__file__).resolve().parent / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: benchmark exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    ok = result["correct"] and result["failed"] == 0
    print(f"{workload:14} seed {seed} trace {trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}, {'correct' if ok else 'INCORRECT'}")
    return ok, result["metrics"]


def design_checks(workload, m):
    """(name, value, passed) of the workload-design properties a traced run confirms."""
    coverage = m["obs.span_coverage"]
    checks = [("obs.span_coverage >= 0.95", coverage, coverage >= 0.95)]
    if workload == "ref-minhash":
        # Pack, exchange and multiply are bypassed: < 10% of the untraced wall.
        untraced_wall = m["obs.traced_wall_s"] / (1.0 + m["obs.trace_overhead"])
        share = (m["core.pack_s"] + m["bsp.exchange_s"] + m["distmat.multiply_s"]) / untraced_wall
        checks.append(("(pack + exchange + multiply) / dist wall < 0.1", share, share < 0.1))
    if workload == "clades-hybrid":
        ratio = m["sketch.survivor_ratio"]
        checks.append(("sketch.survivor_ratio < 0.2", ratio, ratio < 0.2))
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            run_ok, metrics = bench(workload, seed, args.seconds, 0)
            ok &= run_ok
            print("    " + "  ".join(f"{name} = {m['value']:.6g} {m['unit']}"
                                     for name, m in metrics.items()))
        traced = []
        for seed in (DEFAULT_SEED, DEFAULT_SEED, HELD_OUT_SEED):
            run_ok, metrics = bench(workload, seed, args.seconds, 1)
            ok &= run_ok
            traced.append({name: m["value"] for name, m in metrics.items()})
        first, second, held_out = traced
        for name in DETERMINISTIC:
            same = first[name] == second[name]
            ok &= same
            print(f"    {name:22} seed {DEFAULT_SEED}: {first[name]:>14.10g} "
                  f"{'==' if same else '!='} {second[name]:<14.10g} "
                  f"seed {HELD_OUT_SEED}: {held_out[name]:.10g}")
        if first["genome.input_bytes"] == held_out["genome.input_bytes"]:
            print("    held-out seed produced the same inputs")
            ok = False
        for seed, metrics in ((DEFAULT_SEED, first), (HELD_OUT_SEED, held_out)):
            for name, value, passed in design_checks(workload, metrics):
                ok &= passed
                print(f"    seed {seed}: {name} = {value:.4g} {'ok' if passed else 'FAILED'}")
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
