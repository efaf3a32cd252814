"""singscat benchmark: one workload, one closed-loop client, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload core_k_sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``ops_per_s``,
``op_s.p50``, ``ok_frac``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the per-layer ones.  Both lists, with their units, are
read from ``BENCHMARK.json``.  A summary naming every metric with its
unit, ``failed_frac`` included, goes to standard error, and the exact
per-op results go to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without ``src/singscat`` the run exits with status 2.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 21          # p50 then has ten ops beyond it
SETUP_REPS = 5        # setup_s is the median of these
SUBMODULES = ("bases", "cli", "connect", "disk", "errors", "integrate", "model", "oracle")


def metric_units(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; the run reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def import_singscat():
    """Import the checkout's package; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "singscat", "__init__.py")):
        raise ImportError(f"no singscat package under {SRC}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("singscat")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise ImportError(f"singscat imported from {pkg.__file__}, not from {SRC}")
    for name in SUBMODULES:
        importlib.import_module(f"singscat.{name}")
    return pkg


def fresh_import_s() -> float:
    """Import time of the package in a new interpreter, measured there."""
    code = ("import importlib, sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {SRC!r})\n"
            f"for name in {SUBMODULES!r}:\n"
            "    importlib.import_module('singscat.' + name)\n"
            "print(time.perf_counter() - t0)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def run_op(wl, case):
    """Time one op; returns (start, end, result or None, error or None)."""
    t0 = time.perf_counter()
    try:
        result = wl.op(case)
    except Exception as exc:  # a failed op is counted, not fatal
        return t0, time.perf_counter(), None, exc
    return t0, time.perf_counter(), result, None


def run_unchecked(wl, case) -> float:
    """One op whose result is read back but not gated; returns its wall."""
    t0, t1, result, error = run_op(wl, case)
    if error is None:
        wl.outcome(case, result)
    return t1 - t0


def run_pass(wl, *, seconds, min_ops=1, tracer=None):
    """Closed loop over the workload's cycle of cases.

    Stops once the timed ops add up to ``seconds`` and at least
    ``min_ops`` ran.  A traced pass stops only at a cycle boundary, so
    that its per-op counts repeat exactly.  Each op's gate runs after its
    timed region.
    """
    cycle = len(wl.cases)
    ops = []
    timed = 0.0
    while not (timed >= seconds and len(ops) >= min_ops
               and not (tracer and len(ops) % cycle)):
        case = wl.cases[len(ops) % cycle]
        first_span = len(tracer.spans) if tracer else 0
        j0 = tracer.j_evals if tracer else 0
        t0, t1, result, error = run_op(wl, case)
        op = {"wall": t1 - t0, "window": (t0, t1)}
        if tracer:
            op["j_evals"] = tracer.j_evals - j0
            op["spans"] = tracer.spans[first_span:]
        if error is None:
            try:
                out = wl.outcome(case, result)
                op["fails"] = wl.gate(case, out)
                op["record"] = wl.record(case, out)
            except Exception as exc:  # a result that cannot be checked fails
                error = exc
        if error is not None:
            op["fails"] = [f"{type(error).__name__}: {error}"]
            op["record"] = {"error": type(error).__name__}
        ops.append(op)
        timed += op["wall"]
    return ops


def setup(args, singscat, reps):
    """Set up ``reps`` times; returns (workload, median s).

    One set-up is a fresh import of the package, building the workload
    and one warm-up op.
    """
    times = []
    for _ in range(reps):
        import_s = fresh_import_s()
        t0 = time.perf_counter()
        wl = workloads.make(args.workload, singscat, args.seed, OUT,
                            os.path.join(ROOT, "configs"))
        wl.setup()
        run_unchecked(wl, wl.cases[0])  # warm-up
        times.append(import_s + time.perf_counter() - t0)
    return wl, statistics.median(times)


def end_to_end(ops, setup_s) -> dict:
    walls = [op["wall"] for op in ops]
    passed = sum(not op["fails"] for op in ops)
    return {
        "ops_per_s": passed / sum(walls),
        "op_s.p50": statistics.median(walls),
        "ok_frac": passed / len(ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, seconds):
    """Traced pass of whole cycles, then its last cycle untraced.

    Returns (ops, per-layer metrics, reached boundaries).
    """
    tracer = spans.Tracer()
    try:
        tracer.install()
        ops = run_pass(wl, seconds=seconds / 2.0, tracer=tracer)
    finally:
        tracer.uninstall()
    # overhead: the last traced cycle again, untraced
    cycle = len(wl.cases)
    start = max(0, len(ops) - cycle)
    plain = sum(run_unchecked(wl, wl.cases[i % cycle]) for i in range(start, len(ops)))
    overhead = sum(op["wall"] for op in ops[start:]) / plain - 1.0
    metrics = spans.layer_metrics(tracer.spans, [op["window"] for op in ops],
                                  tracer.j_evals, overhead, tracer.fit_peak_alloc())
    for op in ops:
        if "error" not in op["record"]:
            op["record"]["j_evals"] = op["j_evals"]
            op["record"].update(spans.op_counts(op["spans"]))
    reached = sorted(name for name, n in tracer.hits.items() if n)
    return ops, metrics, reached


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one client in one process: keep BLAS (fit_mobius's SVD) on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        singscat = import_singscat()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    # the traced run does not report setup_s, so it sets up once
    wl, setup_s = setup(args, singscat, 1 if args.trace else SETUP_REPS)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        ops, metrics, result["reached"] = traced(wl, args.seconds)
        units = metric_units("per_layer")
    else:
        ops = run_pass(wl, seconds=args.seconds, min_ops=MIN_OPS)
        metrics = end_to_end(ops, setup_s)
        units = metric_units("end_to_end")
    failed = sum(bool(op["fails"]) for op in ops)
    result["ops"] = [dict(op["record"], wall=op["wall"], fails=op["fails"]) for op in ops]
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops, "
          f"{failed} failed, failed_frac {failed / len(ops):.4g} ratio", file=sys.stderr)
    for name, unit in units:
        print(f"  {name:<44} {metrics[name]:.6g} {unit}", file=sys.stderr)
    for op in ops:
        for reason in op["fails"]:
            print(f"  FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
