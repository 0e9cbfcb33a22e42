"""Benchmark of the evalcode library, end to end and per layer.

    python3 benchmarks/run.py --workload oracles --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

One workload runs per process.  It times set-up (import and field
construction, in fresh child processes), then repeats whole passes of its
operations until the next pass would end past ``--seconds`` (at least
MIN_PASSES timed passes), checks every output, and prints one JSON line
last: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, in seconds at the
reference speed of ``speed.py``; with ``--trace 1`` the library's module
functions are wrapped in spans and the metrics are the per-layer ones, in
seconds as measured.  ``--workload all`` runs each workload in its own
process, one after the other.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread keeps a run on one core, where the speed samples are taken;
# a second thread would wait on whatever else runs on the other.  Set before
# numpy is imported, here and in the set-up probes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import speed  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("oracles", "tables", "certify")
SETUP_SAMPLES = 15
# timed passes a run makes at the least, so that run_s is a median
MIN_PASSES = 5

# reference kernel calls each set-up probe makes after its timed set-up
SETUP_KERNEL_CALLS = 10

# Import and field construction, timed inside a fresh interpreter; then the
# reference kernel, for the machine's speed at that moment.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import evalcode
from evalcode.cartesian import field_from_order
for q in {orders!r}:
    field_from_order(q)
setup = time.perf_counter() - t0
sys.path.insert(0, {here!r})
from speed import kernel
t0 = time.perf_counter()
for _ in range({calls}):
    kernel()
print(setup, time.perf_counter() - t0)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(field_orders, env) -> tuple[float, float]:
    """Median import-plus-fields time over fresh interpreters, at the
    reference speed and as measured."""
    code = SETUP_PROBE.format(orders=tuple(field_orders), here=str(HERE), calls=SETUP_KERNEL_CALLS)
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        setup, kernel_s = (float(x) for x in out.stdout.split()[-2:])
        raw.append(setup)
        scaled.append(setup / speed.slowdown(kernel_s, SETUP_KERNEL_CALLS))
    return statistics.median(scaled), statistics.median(raw)


def run_passes(workload, seconds: float, tracer, sampler):
    """Whole passes until the next one would end past `seconds`, and at least
    MIN_PASSES timed ones.  The workload's warm-up passes are run and checked,
    not timed.  Returns each timed pass's operation times, with the time the
    `sampler` spent in them taken out, and the pass's slowdown.
    Also returns the peak resident memory, in MB, at the end of the
    MIN_PASSES-th timed pass: a fixed amount of work, where the peak at exit
    would grow with the number of passes a machine's speed allows."""
    passes = []  # (operation times, kernel seconds, kernel calls) per timed pass
    peak_mb = None
    attempted = failed = 0
    correct = True
    warmup = workload.warmup_passes
    t_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        busy_start, calls_start = sampler.busy, sampler.calls
        pass_op_times = []
        for op in workload.next_pass():
            attempted += 1
            busy = sampler.busy
            t0 = time.perf_counter()
            try:
                if tracer is not None and op.span is not None:
                    out = tracer.span(op.span, op.run)
                else:
                    out = op.run()
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                print(f"FAILED {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            pass_op_times.append(elapsed - (sampler.busy - busy))
            problems = op.check(out)
            if problems:
                failed += 1
                correct = False
                print(f"WRONG {op.label}: " + "; ".join(problems), file=sys.stderr)
        now = time.perf_counter()
        if warmup:
            warmup -= 1
            continue
        passes.append((pass_op_times, sampler.busy - busy_start, sampler.calls - calls_start))
        if len(passes) == MIN_PASSES:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(passes) >= MIN_PASSES and now - t_start + (now - pass_start) > seconds:
            break
    return _scale_passes(passes), peak_mb, attempted, failed, correct


def _scale_passes(passes):
    """(operation times, slowdown) per pass.  A pass's slowdown comes from
    the kernel samples taken during it; a traced run takes none, and its
    slowdowns are 1."""
    return [(times, speed.slowdown(b, c) if c else 1.0) for times, b, c in passes]


def _quantile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _per_pass_quantile(passes, pct: int) -> float:
    """Median over passes of each pass's percentile of operation times, at
    the reference speed.

    A slow spell of the machine that covers less than half the passes then
    leaves the figure alone, where a percentile over all operations would
    take it in as tail."""
    return statistics.median(_quantile(times, pct) / slow for times, slow in passes)


def run_workload(args) -> int:
    if "EVALCODE_BUDGET_STEPS" in os.environ:
        print(
            "refusing to measure: EVALCODE_BUDGET_STEPS changes the search caps "
            "and with them the work done; unset it",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "evalcode" / "__init__.py").is_file():
        print(f"no evalcode sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(cls.field_orders, _child_env())
    for q in cls.field_orders:
        workloads.field_from_order(q)
    workload = cls(args.seed)

    tracer, bindings = None, 0
    if args.trace:
        tracer = spans.Tracer()
        bindings = spans.install(tracer, workloads)
    # spans would count the kernel samples as library time, so a traced run
    # does not start the sampler and its figures are as measured
    sampler = speed.Sampler()
    with contextlib.nullcontext() if tracer else sampler:
        passes, peak_mb, attempted, failed, correct = run_passes(workload, args.seconds, tracer, sampler)
    raw_times = [sum(times) for times, _ in passes]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(
        f"{args.workload}: seed {args.seed}, trace {args.trace}"
        + (f" ({bindings} bindings wrapped)" if tracer else "")
        + f", {len(passes)} passes, "
        f"pass seconds as measured {[round(t, 3) for t in raw_times]} "
        f"(median {statistics.median(raw_times):.3f}), "
        f"slowdowns {[round(slow, 3) for _, slow in passes]}, "
        + ("" if tracer else f"set-up seconds as measured {setup_raw_s:.4f}, ")
        + f"operation p50 {1e3 * _per_pass_quantile(passes, 50):.3f} ms, "
        f"user {usage.ru_utime:.1f} s, sys {usage.ru_stime:.1f} s, "
        f"peak RSS at exit {usage.ru_maxrss / 1024:.1f} MB, "
        f"BLAS threads {BLAS_THREADS}, numpy {np.__version__}, python {sys.version.split()[0]}",
        file=sys.stderr,
    )
    if tracer is not None:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(sum(t) / slow for t, slow in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "instance_p95_ms": {"value": 1e3 * _per_pass_quantile(passes, 95), "unit": "ms"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory are its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        if out.returncode != 0 or not lines:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
