#!/usr/bin/env python3
"""Repeatability report: run every workload of BENCHMARK.json ten times, each
time with another seed, and print for every end-to-end metric the median and
the spread (distance between the first and third quartile as a share of the
median) beside its bound. Run from the root of the checkout:

    python3 bench/spread.py [first_seed]

README.md's repeatability tables are two outputs of this script.
"""
import json
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
runs = 10

for w in spec["workloads"]:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    start = time.time()
    for seed in range(first, first + runs):
        cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, res
        for name in values:
            values[name].append(res["metrics"][name]["value"])
    print(f"{w['name']}: {runs} runs, seeds {first}..{first + runs - 1}, {time.time() - start:.0f}s")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"  {m['name']:<10} median {med:12.4f} {m['unit']:<4} spread {(q[2] - q[0]) / med:7.4f}  bound {m['bound']}")
