"""Run a workload once per seed, one run after the other, and keep the results.

    python3 ladderbench/series.py --workloads census,bundle --seeds 1-10 \
        --out ladderbench/out/set-a.jsonl [--trace 1] [--seconds 24]

Every run is a fresh ``run.py`` process. Each line of the output file is
one JSON object: workload, seed, trace, the run's diagnostics and its
result line. ``report.py`` turns such files into the tables of README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as h:
            args.seconds = json.load(h)["run_seconds"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "diagnostics": json.loads(lines[-2])["diagnostics"],
                      "result": json.loads(lines[-1])}
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            metrics = {k: round(v["value"], 4) for k, v in record["result"]["metrics"].items()
                       if not args.trace}
            print(workload, seed, metrics, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
