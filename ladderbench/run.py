"""Run one workload of finsite commands and print its metrics.

    python3 ladderbench/run.py --workload census --seed 1 --seconds 24 --trace 0

The process imports finsite from ``src/`` of the checkout it sits in,
makes the workload's documents from --seed, then issues the workload's
commands back to back through ``finsite.cli.main`` (one caller, closed
loop, stdout captured) in whole passes for about --seconds seconds.
Every time is normalised by samples of the reference kernel taken
around and inside it (see kernel.py). The
outputs of the first pass are checked by the checkers in checks.py;
later passes must reproduce them byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics, or with --trace 1 the per-layer
metrics of spans.py). The line before it holds raw seconds and kernel
times for diagnosis.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3

sys.path.insert(0, HERE)

import checks  # noqa: E402
import kernel  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--hash-seed", default="0",
                   help="PYTHONHASHSEED the run re-executes itself under")
    p.add_argument("--dump", help="write every input document and every "
                                  "command's stdout of one pass into this directory")
    return p.parse_args(argv)


def fix_hash_seed(args):
    """Re-execute in place (same process, no child) under a fixed hash seed."""
    if os.environ.get("PYTHONHASHSEED") != args.hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=args.hash_seed)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def purge_finsite():
    for name in [n for n in sys.modules if n == "finsite" or n.startswith("finsite.")]:
        del sys.modules[name]


def setup_once(workload: str, seed: int, workdir: str, after_import=None):
    """Import finsite afresh and make the workload's documents."""
    purge_finsite()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    import finsite.cli  # noqa: F401
    if after_import is not None:
        after_import()
    builder = workloads.Builder(workdir, seed)
    ops = workloads.BUILDERS[workload](builder)
    return ops, builder.files


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Context:
    """What the checkers need from outside a command: gallery tables."""

    def __init__(self, cli):
        self.cli = cli
        self.cats = {}

    def cat(self, member):
        if member not in self.cats:
            code, out, err = run_command(self.cli, workloads.show_args(member))
            if code != 0:
                raise checks.CheckError(f"gallery show failed: {err.strip()}")
            self.cats[member] = checks.Cat(workloads.parse(out))
        return self.cats[member]


def check_op(op, code, out, ctx):
    """None when the output passes, else the reason it was rejected."""
    if code != 0:
        return None
    try:
        op.check(workloads.parse(out), ctx)
    except checks.CheckError as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
    return None


class Result(NamedTuple):
    code: int
    out: str
    err: str
    time: kernel.Interval


def run_pass(probe, cli, ops, on_command=None) -> list:
    """One pass over the ops, each timed by the probe."""
    results = []
    for op in ops:
        if on_command is not None:
            on_command(op)
        (code, out, err), interval = probe.measure(lambda: run_command(cli, op.argv))
        results.append(Result(code, out, err, interval))
    return results


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    fix_hash_seed(args)
    if not os.path.isdir(os.path.join(SRC, "finsite")):
        print(f"error: no finsite sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    probe = kernel.SpeedProbe()
    setups = []
    tracer = None
    for i in range(SETUP_REPEATS):
        if args.trace and i == SETUP_REPEATS - 1:
            # The last set-up is traced: the sampling and serialising it does.
            import spans
            tracer = spans.Tracer()
        after_import = tracer.install if tracer is not None else None
        (ops, files), interval = probe.measure(
            lambda: setup_once(args.workload, args.seed, workdir, after_import))
        if setups and files != first_files:
            print("error: set-up made different documents on a repeat", file=sys.stderr)
            return 1
        first_files = files
        setups.append(interval)
    import finsite.cli as cli

    if args.dump:
        return dump(args.dump, cli, ops, files)

    # Traced runs alternate untraced and traced passes; the untraced ones
    # are the base of the tracing overhead. The first pass is untraced.
    runs = []
    start = time.perf_counter()
    while True:
        traced_now = tracer is not None and len(runs) % 2 == 1
        if traced_now:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        runs.append((traced_now, run_pass(probe, cli, ops,
                                          tracer.on_command if traced_now else None)))
        elapsed = time.perf_counter() - start
        if (tracer is None or len(runs) >= 2) and \
                elapsed + elapsed / len(runs) > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    passes = [results for _traced, results in runs]
    untraced = [results for traced_now, results in runs if not traced_now]
    traced = [results for traced_now, results in runs if traced_now]

    rejected = check_passes(ops, passes, Context(cli))
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for op, r in zip(ops, p)
                 if r.code != 0 or op.name in rejected)

    pass_s = [sum(r.time.s for r in p) for p in untraced]
    per_op = [median([p[i].time.s for p in untraced]) for i in range(len(ops))]
    per_op_raw = [median([p[i].time.raw_s for p in untraced]) for i in range(len(ops))]
    kernels = [r.time.kernel_before for p in untraced for r in p]
    diagnostics = {
        "passes": len(untraced),
        "raw_pass_s": [sum(r.time.raw_s for r in p) for p in untraced], "pass_s": pass_s,
        "raw_setup_s": [s.raw_s for s in setups], "setup_s": [s.s for s in setups],
        "kernel_s": {"median": median(kernels), "min": min(kernels), "max": max(kernels),
                     "inner_samples": sum(r.time.inner_samples for p in untraced for r in p)},
        "commands": {op.name: {"raw_s": raw, "s": norm, "exit": passes[0][i].code}
                     for i, (op, raw, norm) in enumerate(zip(ops, per_op_raw, per_op))},
    }
    if tracer is None:
        metrics = {
            "pass_s": {"value": median(pass_s), "unit": "s"},
            "slowest_op_s": {"value": max(per_op), "unit": "s"},
            "setup_s": {"value": median([s.s for s in setups]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        metrics = tracer.metrics([[r.time for r in p] for p in traced], median(pass_s),
                                 setups[-1])
        diagnostics["trace_file"] = tracer.write(HERE, args.workload, args.seed)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": not rejected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def check_passes(ops, passes, ctx) -> dict:
    """The first pass is checked, later passes must repeat it byte for byte.
    Returns the rejected op names with the reason; failures to exit 0 are
    reported on stderr but are not rejections."""
    first = passes[0]
    rejected = {}
    for op, r in zip(ops, first):
        reason = check_op(op, r.code, r.out, ctx)
        if reason is not None:
            rejected[op.name] = reason
    for results in passes[1:]:
        for op, r, ref in zip(ops, results, first):
            if (r.code, r.out) != (ref.code, ref.out) and op.name not in rejected:
                rejected[op.name] = "a later pass differs from the first"
    for name, reason in rejected.items():
        print(f"rejected: {name}: {reason}", file=sys.stderr)
    for op, r in zip(ops, first):
        if r.code != 0:
            print(f"failed: {op.name}: {r.err.strip()}", file=sys.stderr)
    return rejected


def dump(directory, cli, ops, files) -> int:
    """Write the inputs and one pass of stdout, for the determinism guard."""
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, f"input-{name}.yaml"), "w", encoding="utf-8") as h:
            h.write(text)
    for i, op in enumerate(ops):
        code, out, err = run_command(cli, op.argv)
        with open(os.path.join(directory, f"stdout-{i:03d}.txt"), "w", encoding="utf-8") as h:
            h.write(f"{op.name}\nexit {code}\n{err}\n{out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
