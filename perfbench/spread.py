#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload sim-azure --seeds 1-10 [--trace 0]
    python3 perfbench/spread.py --workload all --seeds 1

--workload all runs every workload BENCHMARK.json lists, in turn. The
script stops with an error at the first run that fails its output checks.

Run from the checkout root. For every metric it prints the median, the
first and third quartiles (Python's statistics.quantiles with n=4) and the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json. --json writes the same figures to a file.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(bench, workload, seed_list, trace, json_out):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, units = {}, {}
    for seed in seed_list:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not res.get("correct"):
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g} {v['unit']}" for k, v in sorted(res["metrics"].items())
            if k in bounds or trace == "1"), flush=True)
    if len(seed_list) < 2:
        return
    report = {}
    for name, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vs), "unit": units[name]}
        if name in bounds or trace == "1":
            b = bounds.get(name)
            flag = "" if b is None or spread <= b / 3 else "  <-- above a third of the bound"
            print(f"{name:40s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.4f}  bound {b}{flag}")
    if json_out:
        with open(json_out, "w") as f:
            json.dump({"workload": workload, "seeds": [seed_list[0], seed_list[-1]], "metrics": report}, f, indent=1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    for name in names:
        out = args.json
        if out and len(names) > 1:
            out = out.removesuffix(".json") + f"-{name}.json"
        run(bench, name, list(seeds(args.seeds)), args.trace, out)


if __name__ == "__main__":
    main()
