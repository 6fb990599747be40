"""Measurement loop and the per-layer reduction of spans.

``measure`` runs one workload: ops one after another (a closed loop, one
client) until the time budget has passed and at least the workload's
``min_ops`` have run, with ``setup_repeats`` set-ups spread over the run (the
median is ``setup_s``).  Every op's output is checked outside its timing.
In a traced run the ops alternate traced and untraced, so one process gives
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from tracing import layer_table

# Share of traced op time that may lie outside every library span.
UNATTRIBUTED_LIMIT = 0.05

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Per-layer metrics whose span name is not the metric name minus its field.
_SPAN_ALIASES = {"pcg.iters": ("pcg.solve", "iters"), "rla.probes": ("rla.slq", "probes")}


def metric_units(traced: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, from BENCHMARK.json:
    the per-layer metrics when traced, else the end-to-end ones."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def measure(workload, seconds: float) -> dict:
    """Set up, run and check one workload; returns the full record.

    The run is traced when the workload was given a tracer.
    """
    tracer = workload.tracer
    traced = tracer is not None
    setup_times = []

    def timed_setup():
        with (tracer.patched() if traced else contextlib.nullcontext()):
            with (tracer.span("setup") if traced else contextlib.nullcontext()):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)

    # A traced run sets up once.  Otherwise the set-ups are spread over the
    # run: back to back, a sub-millisecond set-up read up to 2x apart between
    # processes, interleaved with ops its median held within 10 %.
    repeats = 1 if traced else workload.setup_repeats
    timed_setup()

    op_times, traced_ops, failures = {}, [], {}
    min_ops = max(workload.min_ops, 2 if traced else 1)
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        trace_op = traced and i % 2 == 0
        elapsed, failed_checks = _run_op(
            workload, i, tracer if trace_op else None, print_traceback=not failures
        )
        if elapsed is not None:
            op_times[i] = elapsed
            if trace_op:
                traced_ops.append(i)
        if failed_checks:
            failures[i] = failed_checks
        i += 1
        if len(setup_times) < repeats and time.perf_counter() - start >= seconds * len(setup_times) / repeats:
            timed_setup()
    while len(setup_times) < repeats:
        timed_setup()
    attempted = i
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for k, names in workload.finish().items():
        failures.setdefault(k, []).extend(names)

    times = list(op_times.values())
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(traced),
        "seconds": seconds,
        **workload.params(),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "op_s": times,
        "setup_s": setup_times,
        # Only runs of at least 100 ops have ten samples beyond the 90th
        # percentile; with fewer it is close to the slowest op.
        "op_s_p90": (
            statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else None
        ),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        # run.py pins these before numpy loads its BLAS
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    units = metric_units(traced)
    if traced:
        metrics, trace_ok = _per_layer(workload, tracer, op_times, traced_ops, units)
        record["trace_consistent"] = trace_ok
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s.p50": statistics.median(times) if times else None,
            "pcg_iters": workload.pcg_iters,
            "peak_rss_mb": peak_rss_mb,
        }
        stats = workload.logdet_stats(sorted(op_times))
        if stats is not None:
            record["logdet_ref"] = workload.ref
            record["est_logdet_stderr"], record["est_logdet_relerr"] = stats
        trace_ok = True
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    record["correct"] = (
        not failures and trace_ok and all(v is not None for v in metrics.values())
    )
    return record


def _run_op(workload, i, tracer, print_traceback):
    """Time op i (traced when a tracer is given) and check it.

    Returns (op seconds, or None if it raised; names of failed checks).  An
    op or check that raises counts as failed and the loop goes on.  The op's
    result dies with this frame, so it is not alive during the next op.
    """
    elapsed = None
    try:
        inp = workload.op_input(i)
        with (tracer.patched() if tracer else contextlib.nullcontext()):
            with (tracer.span("op") if tracer else contextlib.nullcontext()):
                t0 = time.perf_counter()
                result = workload.op(i, inp)
                elapsed = time.perf_counter() - t0
        return elapsed, workload.check(i, inp, result)
    except Exception as exc:
        if print_traceback:
            traceback.print_exc(file=sys.stderr)
        return elapsed, [f"raised {type(exc).__name__}: {exc}"]


def _per_layer(workload, tracer, op_times, traced_ops, names):
    """Per-layer metrics (per traced op) and whether the spans add up."""
    spans = tracer.spans
    op_roots = [k for k, s in enumerate(spans) if s.parent is None and s.name == "op"]
    setup_roots = [k for k, s in enumerate(spans) if s.parent is None and s.name == "setup"]
    table = layer_table(spans, op_roots)
    setup = layer_table(spans, setup_roots)
    ops = max(len(op_roots), 1)

    def per_op(span, field):
        return table.get(span, {}).get(field, 0) / ops

    # Metrics read straight off the table; the derived ones below overwrite theirs.
    metrics = {}
    for name in names:
        if name.startswith(("setup.", "trace.")):
            continue
        span, field = _SPAN_ALIASES.get(name, name.rsplit(".", 1))
        metrics[name] = per_op(span, field)
    iters = per_op("pcg.solve", "iters")
    metrics["pcg.s_per_iter"] = per_op("pcg.solve", "s") / iters if iters else 0.0
    requested = per_op("linalg.lanczos", "requested")
    metrics["linalg.lanczos.useful_ratio"] = (
        per_op("linalg.lanczos", "steps") / requested if requested else 0.0
    )
    ic0 = table.get("linalg.ic0") or setup.get("linalg.ic0") or {}
    metrics["linalg.ic0.shift"] = ic0.get("shift", 0.0) / ic0["calls"] if ic0 else 0.0
    stats = workload.logdet_stats(traced_ops)
    metrics["rla.logdet_stderr"], metrics["rla.logdet_relerr"] = stats or (0.0, 0.0)

    metrics["setup.s"] = setup.get("setup", {}).get("s", 0.0)
    for name in ("linalg.ic0.s", "linalg.tri_solve.s", "linalg.sym_eig.s",
                 "precond.error_core.self_s"):
        span, field = name.rsplit(".", 1)
        metrics["setup." + name] = setup.get(span, {}).get(field, 0.0)

    traced_times = [op_times[k] for k in traced_ops]
    plain_times = [t for k, t in op_times.items() if k not in traced_ops]
    metrics["trace.op_s.p50"] = statistics.median(traced_times) if traced_times else None
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        if traced_times and plain_times else None
    )
    root = table.get("op", {"s": 0.0, "self_s": 0.0})
    total = root["s"]
    unattributed = root["self_s"] / total if total > 0 else None
    metrics["trace.unattributed_ratio"] = unattributed
    # The library's layers must cover nearly all of the op time.
    ok = unattributed is not None and unattributed <= UNATTRIBUTED_LIMIT
    return metrics, ok


def summary_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


