"""Summarise series.py result files as the markdown tables of README.md.

    python3 ladderbench/report.py SET_A.jsonl [SET_B.jsonl]  # end to end
    python3 ladderbench/report.py --commands SET_A.jsonl     # every command
    python3 ladderbench/report.py --layers TRACED.jsonl      # per layer

With two sets, each end-to-end metric is judged as BENCHMARK.json asks:
the spread (interquartile range over median) of each set within the
metric's bound (setup_s exempt), and the second median not worse than
the first by more than the bound. The share of failed operations must
be the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def fmt(x) -> str:
    return f"{x:.4g}" if isinstance(x, float) else str(x)


def end_to_end(sets: list, spec: dict) -> bool:
    ok = True
    names = [m["name"] for m in spec["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in sets[0]:
        print(f"\n**{workload}**\n")
        head = "| metric | bound |" + "".join(
            f" set {chr(65 + i)} median | Q1 | Q3 | spread |" for i in range(len(sets)))
        if len(sets) > 1:
            head += " B / A |"
        print(head)
        print("|" + "---|" * (head.count("|") - 1))
        for name in names:
            row = f"| `{name}` | {bounds[name]} |"
            medians = []
            for runs in sets:
                values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                s = spread(values)
                row += f" {fmt(med)} | {fmt(q1)} | {fmt(q3)} | {s:.3f} |"
                if name != "setup_s" and s > bounds[name]:
                    ok = False
            if len(sets) > 1:
                change = medians[1] / medians[0]
                row += f" {change:.3f} |"
                if change - 1 > bounds[name]:
                    ok = False
            print(row)
        shares = set()
        for i, runs in enumerate(sets):
            failed = sum(r["result"]["failed"] for r in runs[workload])
            attempted = sum(r["result"]["attempted"] for r in runs[workload])
            per_run = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs[workload]}
            exact = {f / a for f, a in per_run}
            shares |= exact
            correct = all(r["result"]["correct"] for r in runs[workload])
            print(f"\nset {chr(65 + i)}: {len(runs[workload])} runs, seeds "
                  f"{[r['seed'] for r in runs[workload]]}, failed {failed} of {attempted} "
                  f"attempted, correct {correct}")
            ok = ok and correct
        if len(shares) != 1:
            ok = False
            print(f"\nfailed shares differ between runs: {sorted(shares)}")
    return ok


def commands(runs: dict):
    for workload, records in runs.items():
        print(f"\n**{workload}** ({len(records)} runs; per run the median over its passes)\n")
        print("| command | raw s median | raw Q1 | raw Q3 | s median | Q1 | Q3 |")
        print("|---|---|---|---|---|---|---|")
        for name in records[0]["diagnostics"]["commands"]:
            raw = [r["diagnostics"]["commands"][name]["raw_s"] for r in records]
            norm = [r["diagnostics"]["commands"][name]["s"] for r in records]
            r1, rm, r3 = quartiles(raw)
            n1, nm, n3 = quartiles(norm)
            print(f"| {name} | {rm:.4f} | {r1:.4f} | {r3:.4f} | {nm:.4f} | {n1:.4f} | {n3:.4f} |")
        raw_pass = [statistics.median(r["diagnostics"]["raw_pass_s"]) for r in records]
        norm_pass = [statistics.median(r["diagnostics"]["pass_s"]) for r in records]
        kernels = [r["diagnostics"]["kernel_s"]["median"] for r in records]
        print(f"\npass: raw median {statistics.median(raw_pass):.3f} s (spread "
              f"{spread(raw_pass):.3f}), at reference speed {statistics.median(norm_pass):.3f} s "
              f"(spread {spread(norm_pass):.3f}); kernel sample medians per run "
              f"{min(kernels) * 1e6:.0f}-{max(kernels) * 1e6:.0f} us")


def layers(runs: dict, spec: dict):
    workloads = list(runs)
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for m in spec["per_layer"]:
        cells = []
        for w in workloads:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            cells.append(fmt(statistics.median(values)))
        print(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("files", nargs="+")
    p.add_argument("--commands", action="store_true")
    p.add_argument("--layers", action="store_true")
    args = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as h:
        spec = json.load(h)
    sets = [load(f) for f in args.files]
    if args.commands:
        commands(sets[0])
        return 0
    if args.layers:
        layers(sets[0], spec)
        return 0
    ok = end_to_end(sets, spec)
    print(f"\nwithin the bounds of BENCHMARK.json: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
