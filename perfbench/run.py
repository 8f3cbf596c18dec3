"""rkadapt benchmark: one workload per run, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload dg_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the last line holds the end-to-end metrics; with --trace 1 the
run alternates untraced and traced rounds and the last line holds the
per-layer metrics derived from the spans.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

# one BLAS/OpenMP thread, before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
# Timings are rescaled to a nominal machine speed at which the calibration
# kernel takes CAL_NOMINAL_S.  On the 2-core x86-64 VM of the reference
# figures in README.md, the kernel's time drifts between about 1.2 and 2.3 ms
# within minutes, and the workloads slow down and speed up with it: an
# operation's seconds divided by the kernel's time measured around it vary
# about a fifth as much as the seconds themselves.
CAL_NOMINAL_S = 0.002
CAL_INTERVAL_S = 0.25
CAL_WINDOW_S = 0.3


def _use_checkout_package():
    if not os.path.isfile(os.path.join(SRC, "rkadapt", "__init__.py")):
        raise SystemExit(f"error: no rkadapt package under {SRC}")
    sys.path.insert(0, SRC)
    import rkadapt
    if not os.path.abspath(rkadapt.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: rkadapt imported from {rkadapt.__file__}, not {SRC}")


def _setup_probe(workload):
    """Child process: time imports plus building catalog objects and
    problems; print the raw and the nominal seconds."""
    t0 = time.perf_counter()
    _use_checkout_package()
    from workloads import WORKLOADS
    WORKLOADS[workload](0, OUT).setup()
    seconds = time.perf_counter() - t0
    kernel = statistics.median(_calibration_kernel() for _ in range(9))
    print(repr(seconds), repr(seconds * CAL_NOMINAL_S / kernel))


def measure_setup(workload):
    """Median (raw, nominal) set-up seconds over SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-probe", workload],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        times.append([float(v) for v in proc.stdout.split()[-2:]])
    return tuple(statistics.median(col) for col in zip(*times))


def _calibration_kernel():
    """Fixed work shaped like the package's: small numpy calls, a Python loop."""
    import numpy as np
    t0 = time.perf_counter()
    a = np.arange(180.0)
    acc = 0.0
    for _ in range(100):
        acc += float((np.roll(a, 1) * 0.5 + a).sum())
    x = 0
    for i in range(5000):
        x += i * i
    return time.perf_counter() - t0


class Calibrator:
    """Times the calibration kernel between operations and, from a timer
    signal, every CAL_INTERVAL_S during them."""

    def __init__(self):
        self.samples = []      # (start time, kernel seconds)

    def sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append((t0, _calibration_kernel()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def nominal(self, t0, seconds):
        """Seconds of an operation that started at t0, at nominal speed."""
        near = [k for t, k in self.samples
                if t0 - CAL_WINDOW_S <= t <= t0 + seconds + CAL_WINDOW_S]
        return seconds * CAL_NOMINAL_S / statistics.median(near)

    def median_ms(self):
        return 1e3 * statistics.median(k for _, k in self.samples)


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(wl, cal, tracer=None):
    stability = importlib.import_module("rkadapt.stability")
    cache = getattr(stability, "_SAMPLE_CACHE", None)
    if cache is not None:
        cache.clear()       # each round traces as a fresh rkadapt invocation does
    ops = wl.ops()
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            first = len(tracer.spans) if tracer else 0
            cal.sample()
            op.t0 = time.perf_counter()
            try:
                wl.run_op(op)
            except Exception as exc:          # an operation that raised counts as failed
                op.fail(f"{type(exc).__name__}: {exc}", check=False)
            op.spans = (first, len(tracer.spans) if tracer else 0)
        cal.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op in ops:
        op.nominal = cal.nominal(op.t0, op.seconds)
    wl.check(ops)
    if tracer is not None:
        for op in ops:
            bad = tracer.nfe_mismatches(*op.spans)
            if bad:
                op.fail(f"reported nfe differs from counted RHS calls: {bad[:3]}")
    for op in ops:
        # drop checked arrays, so that peak memory does not grow with rounds
        op.out = {k: v for k, v in op.out.items() if not hasattr(v, "shape")}
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0

    _use_checkout_package()
    from workloads import WORKLOADS
    import tracing
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: --workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)

    raw_setup_s, setup_s = measure_setup(args.workload)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    wl.setup()
    wl.prepare()

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []       # (nominal round seconds, ops)
    # whole rounds: at least one, then another only while it fits the run
    start = time.perf_counter()
    with Calibrator() as cal:
        while True:
            t0 = time.perf_counter()
            ops = run_round(wl, cal)
            plain.append((sum(op.nominal for op in ops), ops))
            if tracer is not None:
                ops = run_round(wl, cal, tracer)
                traced.append((sum(op.nominal for op in ops), ops))
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break

    all_ops = [op for _, ops in plain + traced for op in ops]
    failed = [op for op in all_ops if op.error]
    for op in failed[:5]:
        print(f"FAILED {op.name}: {op.error}", file=sys.stderr)

    wall_s = statistics.median(w for w, _ in plain)
    summaries = [wl.summary(ops) for _, ops in plain]
    detail = {"workload": wl.name, "seed": args.seed, "rounds": len(plain),
              "round_wall_s": [round(w, 4) for w, _ in plain],
              "raw_wall_s": statistics.median(sum(op.seconds for op in ops)
                                              for _, ops in plain),
              "raw_setup_s": raw_setup_s,
              "calibration_ms": cal.median_ms(),
              "calibration_samples": len(cal.samples)}
    for key in ("rhs_evals", "recommended_max_nfe"):
        vals = [s[key] for s in summaries if key in s]
        if vals:
            detail[key] = vals[0]
            if any(v != vals[0] for v in vals):
                detail[key + "_varies"] = vals
    for key in ("pid_wall_s", "cfl_wall_s"):
        vals = [s[key] for s in summaries if key in s]
        if vals:
            detail[key] = statistics.median(vals)
    if "rhs_evals" in detail:
        detail["rhs_evals_per_s"] = detail["rhs_evals"] / wall_s
    undecided = sum(op.out.get("undecided", 0) for op in all_ops)
    if undecided:
        detail["undecided_candidates"] = undecided

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        traced_wall = statistics.median(w for w, _ in traced)
        layer = tracer.layer_metrics(len(traced),
                                     sum(sum(op.seconds for op in ops)
                                         for _, ops in traced) / len(traced))
        layer["trace.overhead_s"] = traced_wall - wall_s
        for key in ("rhs_evals", "rhs_evals_per_s", "pid_wall_s", "cfl_wall_s",
                    "recommended_max_nfe"):
            layer[key] = float(detail.get(key, 0.0))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        tracer.dump(os.path.join(OUT, f"trace_{wl.name}.jsonl"))

    print(json.dumps(detail))
    print(json.dumps({"correct": not any(op.check_failed for op in all_ops),
                      "attempted": len(all_ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
