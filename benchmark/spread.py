#!/usr/bin/env python3
"""Run the benchmark on ten seeds per workload and print, for every
end-to-end metric, the median and the quartile spread (Q3-Q1)/median that
the driver's acceptance rule looks at, beside the metric's bound.

    python3 benchmark/spread.py [--seeds 10] [--first-seed 101] [--trace 0] [workload ...]

Run from the repository root. Results are appended to
benchmark/out/spread-<workload>.jsonl, one benchmark result line per run.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

manifest = json.load(open("BENCHMARK.json"))
ap = argparse.ArgumentParser()
ap.add_argument("--seeds", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=101)
ap.add_argument("--trace", type=int, default=0)
ap.add_argument("workloads", nargs="*", default=[w["name"] for w in manifest["workloads"]])
args = ap.parse_args()
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

for w in args.workloads:
    rows = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        t0 = time.time()
        cmd = manifest["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(manifest["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
        line = json.loads(out.stdout.strip().splitlines()[-1])
        if not line["correct"] or line["failed"]:
            sys.exit(f"{w} seed {seed}: not correct: {out.stderr}")
        line["seed"], line["wall_s"] = seed, round(time.time() - t0, 2)
        detail = json.load(open("benchmark/out/result-trace.json" if args.trace else "benchmark/out/result.json"))
        line["detail"] = detail["workloads"][w]["detail"]
        line["all_metrics"] = {k: v["value"] for k, v in detail["workloads"][w]["all_metrics"].items()}
        rows.append(line)
        with open(f"benchmark/out/spread-{w}.jsonl", "a") as f:
            f.write(json.dumps(line) + "\n")
    print(f"## {w}: {len(rows)} seeds, wall {statistics.median(r['wall_s'] for r in rows):.1f} s median, "
          f"{max(r['wall_s'] for r in rows):.1f} s max")
    print("| metric | median | (Q3-Q1)/median | bound |\n|---|---|---|---|")
    for name in rows[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in rows]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread <= bound / 3 else (" !" if spread <= bound else " !!")
        print(f"| {name} | {med:.6g} | {spread:.4f}{flag} | {bound if bound is not None else '-'} |")
    sys.stdout.flush()
