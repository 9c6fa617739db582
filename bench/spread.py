#!/usr/bin/env python3
"""Run workloads over several seeds and report the spread of each metric.

    python3 bench/spread.py [--workloads a,b] [--seeds 1,2,...] [--seconds S] [--trace 0|1]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for every metric its median and the distance between its first
and third quartile as a share of the median (the spread the bounds in
BENCHMARK.json are judged against).  Raw results go to
``bench/out/spread-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    runs = []
    for w in args.workloads.split(","):
        values = {}
        for seed in (int(s) for s in args.seeds.split(",")):
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if p.returncode != 0:
                print(p.stdout, p.stderr, sep="\n", file=sys.stderr)
                return 1
            result = json.loads(p.stdout.strip().splitlines()[-1])
            runs.append({"workload": w, "seed": seed, "elapsed_s": time.time() - t0,
                         "stdout": p.stdout, "result": result})
            print(f"{w} seed {seed}: {time.time() - t0:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            print(f"  {name:36s} median {med:.5g}  spread {(q3 - q1) / med if med else float('nan'):.4f}")
    out = HERE / "out" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"results in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
