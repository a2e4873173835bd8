"""Benchmark of the sgmyc command line.

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
its `src/` directory, and nothing needs installing.  The benchmark draws
its inputs from --seed, writes them to a work directory inside the
checkout, and hands the command lines to one worker process.  The worker
imports sgmyc and runs each operation through `sgmyc.cli.main` with
standard output captured, one at a time, in a closed loop with one
client.  It runs one untimed warm-up round, then timed rounds until
--seconds are spent; a round is one pass over the workload's small list
and one over its large list, and no pass is cut short.  The parent
checks every warm-up output (workloads.py says how); timed outputs must
match the warm-up outputs byte for byte.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones:

  small_ops_per_ref_s  completed commands per reference second of command
                       time (reference.py), over a pass of the small list;
                       the median over rounds
  large_ops_per_ref_s  the same over the large list
  peak_rss_mb          peak resident memory of the worker process
  setup_s              in a fresh interpreter, the wall time to import sgmyc
                       and finish the workload's command once on a tiny
                       graph; the median of 16 interpreters, half started
                       before the worker and half after it

The rates in plain seconds are printed on the lines before the result.

With --trace 1 the worker wraps each layer of the package (tracing.py) and
the metrics are the per-layer ones, per command attempted.

Exit codes: 0 with a result, 2 when the checkout has no sgmyc sources or
a step of the benchmark itself breaks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 16
WORKER_TIMEOUT_S = 170
GAUGE_EVERY_S = 0.25  # command time between two gauges of the reference second
GAUGE_SHARE = 0.08    # time spent gauging, as a share of command time

# Runs in a fresh interpreter: the clock starts before sgmyc is imported.
SETUP_CODE = """
import time
start = time.perf_counter()
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import sgmyc.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = sgmyc.cli.main({argv!r})
print(json.dumps({{"rc": rc, "s": time.perf_counter() - start}}))
"""


def import_sgmyc():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import sgmyc.cli  # noqa: F401

    where = os.path.dirname(os.path.abspath(sys.modules["sgmyc"].__file__))
    if where != os.path.join(SRC, "sgmyc"):
        raise SystemExit(f"bench: sgmyc imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# worker: runs the operations and times them


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["sgmyc.cli"].main  # looked up per call, so a traced main is used
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc, error = main(argv), None
        except Exception as exc:  # a crash of the program counts as a failed operation
            rc, error = None, type(exc).__name__
        elapsed = time.perf_counter() - start
    return rc, error, out.getvalue(), elapsed


@dataclass
class Pass:
    attempted: int = 0
    completed: int = 0
    busy: float = 0.0       # command time, seconds
    busy_ref: float = 0.0   # command time, reference seconds


def timed_pass(ops, digests, mismatches):
    """Run one pass, gauging the reference second between commands.

    Each stretch of command time is divided by the mean of the reference
    seconds gauged just before and just after it.
    """
    done = Pass()
    ref = reference.reference_second()
    segment = 0.0
    for k, (i, argv) in enumerate(ops):
        rc, error, out, elapsed = run_op(argv)
        done.attempted += 1
        done.completed += error is None
        if (rc, error, hashlib.sha256(out.encode()).digest()) != digests[i]:
            mismatches.add(i)
        segment += elapsed
        if segment >= GAUGE_EVERY_S or k == len(ops) - 1:
            runs = max(1, round(segment * GAUGE_SHARE * reference.NOMINAL_RUNS / ref))
            now = reference.reference_second(runs)
            done.busy += segment
            done.busy_ref += segment / ((ref + now) / 2)
            ref, segment = now, 0.0
    return done


def worker(spec_path, seconds, traced):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import_sgmyc()
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    lists = {"small": [], "large": []}
    for i, op in enumerate(spec["ops"]):
        lists[op["list"]].append((i, op["argv"]))

    warmup, digests = [], {}
    for name in ("small", "large"):
        for i, argv in lists[name]:
            rc, error, out, _ = run_op(argv)
            with open(os.path.join(spec["outdir"], f"{i}.out"), "w", encoding="utf-8") as fh:
                fh.write(out)
            warmup.append({"op": i, "rc": rc, "error": error})
            digests[i] = (rc, error, hashlib.sha256(out.encode()).digest())
    if tracer is not None:
        tracer.reset()

    rates = {"small": [], "large": []}
    wall_rates = {"small": [], "large": []}
    attempted = failed = rounds = 0
    mismatches = set()
    start = time.perf_counter()
    while True:
        for name in ("small", "large"):
            gc.collect()  # so garbage of the last pass is not collected inside this one
            done = timed_pass(lists[name], digests, mismatches)
            attempted += done.attempted
            failed += done.attempted - done.completed
            rates[name].append(done.completed / done.busy_ref)
            wall_rates[name].append(done.completed / done.busy)
        rounds += 1
        spent = time.perf_counter() - start
        if spent + spent / rounds > seconds:
            break

    result = {
        "warmup": warmup,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "mismatches": sorted(mismatches),
        "rates": rates,
        "wall_rates": wall_rates,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.metrics(attempted) if tracer is not None else None,
    }
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# parent: inputs, checks, set-up time, report


def setup_samples(tiny_argv, count):
    """Set-up times of `count` fresh interpreters."""
    code = SETUP_CODE.format(src=SRC, argv=tiny_argv)
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True)
        report = json.loads(done.stdout.splitlines()[-1])
        if report["rc"] != 0:
            raise RuntimeError(f"set-up command exited {report['rc']}")
        samples.append(report["s"])
    return samples


def check_outputs(workload, warmup, outdir):
    """Check each warm-up output that did not crash; returns the problems found."""
    problems = []
    by_op = {w["op"]: w for w in warmup}
    for i, op in enumerate(workload.ops):
        w = by_op[i]
        if w["error"] is not None:
            continue
        with open(os.path.join(outdir, f"{i}.out"), encoding="utf-8") as fh:
            out = fh.read()
        try:
            workloads.need(w["rc"] == 0, f"exit code {w['rc']}")
            op.check(out)
        except (workloads.CheckFailed, LookupError, ValueError, TypeError, AttributeError) as exc:
            # a malformed output is a wrong output, whichever step of the check it trips
            problems.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
    return problems


def bench(args):
    workroot = os.path.join(ROOT, ".bench_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        outdir = os.path.join(workdir, "out")
        os.mkdir(outdir)
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Inputs(workdir))
        spec_path = os.path.join(workdir, "ops.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"outdir": outdir, "ops": [{"argv": op.argv, "list": op.list} for op in workload.ops]}, fh)
        print(f"inputs: {len(workload.small)} small and {len(workload.large)} large operations "
              f"in {time.perf_counter() - t0:.2f} s", flush=True)

        setup = []
        if not args.trace:
            setup_samples(workload.tiny_argv, 1)  # compiles the sources; not counted
            setup += setup_samples(workload.tiny_argv, SETUP_SAMPLES // 2)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker", spec_path,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True, cwd=ROOT,
        )
        report = json.loads(done.stdout.splitlines()[-1])

        t0 = time.perf_counter()
        problems = check_outputs(workload, report["warmup"], outdir)
        problems += [f"{' '.join(workload.ops[i].argv)}: timed output differs from the warm-up output"
                     for i in report["mismatches"]]
        crashed = sorted({w["error"] for w in report["warmup"] if w["error"]})
        print(f"checked {len(workload.ops)} outputs in {time.perf_counter() - t0:.2f} s; "
              f"{report['rounds']} timed rounds; crashes: {crashed or 'none'}", flush=True)
        for problem in problems:
            print(f"wrong output: {problem}", file=sys.stderr)

        small, large = (statistics.median(report["rates"][k]) for k in ("small", "large"))
        for k in ("small", "large"):
            for unit, key in (("ref_s", "rates"), ("s", "wall_rates")):
                print(f"{'traced' if args.trace else 'untraced'} {k}_ops_per_{unit} by round: "
                      + " ".join(f"{x:.4f}" for x in report[key][k]), flush=True)
        if args.trace:
            metrics = report["trace"]
        else:
            # the other half after the worker, so drift during the run shows in both
            setup += setup_samples(workload.tiny_argv, SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics = {
                "small_ops_per_ref_s": {"value": small, "unit": "1/ref_s"},
                "large_ops_per_ref_s": {"value": large, "unit": "1/ref_s"},
                "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
            }
        return {
            "correct": not problems,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:  # another run still uses it
            pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sgmyc", "__init__.py")):
        print(f"bench: no sgmyc sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if args.worker:
        worker(args.worker, args.seconds, args.trace)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = bench(args)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
