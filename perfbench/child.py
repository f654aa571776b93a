"""One workload in a fresh process; started by ``run.py``.

Modes:

``run``    set up, measure for ``--seconds`` (untraced), run the checks and
           print the end-to-end result.  With ``--trace 1`` the first half
           of the time is measured traced and the second half untraced; the
           per-layer metrics come from the traced half, and
           ``trace.overhead_pct`` is the measured cost of the spans one
           operation records against the untraced median operation.
``setup``  set up and stop: one more ``setup_s`` sample.

The last line printed is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback


def _workloads():
    from encode import EncodeLong, EncodeShort
    from serve import ServeDaemon
    from train import Finetune

    return {cls.name: cls
            for cls in (EncodeShort, EncodeLong, ServeDaemon, Finetune)}


#: Largest share by which the per-layer self times may miss the time
#: measured around each traced operation.
SELF_TIME_TOLERANCE = 0.05


def span_cost_ns(count: int = 20000) -> float:
    """Cost of one span (enter plus exit) on this machine, in ns."""
    from tracing import Tracer

    tracer = Tracer()
    start = time.perf_counter_ns()
    for _ in range(count):
        tracer.exit(tracer.enter("probe"))
    return (time.perf_counter_ns() - start) / count


def _traced(workload, seconds: float, report: list) -> tuple:
    from common import PER_LAYER, percentile
    from tracing import Tracer

    tracer = Tracer()
    workload.measure(seconds / 2, tracer)
    traced_ops = workload.op_seconds
    traced = percentile(traced_ops, 50)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(workload.layer_metrics())
    workload.op_seconds = []
    workload.measure(seconds / 2)
    untraced = percentile(workload.op_seconds, 50)
    for key in ("model_build", "plan_compile", "warmup"):
        metrics[f"setup.{key}_ms"] = workload.setup_ms[key]
    ok = True
    table = getattr(workload, "layer_table", None)
    if table is not None:
        measured_ms = sum(traced_ops) * 1e3 / len(traced_ops)
        report += table.format(f"{workload.name} traced", measured_ms)
        error = table.sum_error(measured_ms)
        ok = abs(error) <= SELF_TIME_TOLERANCE and not table.negative
        report.append(
            f"check {'PASS' if ok else 'FAIL'} self times sum to the traced "
            f"operation time: {error * 100:+.2f}% (limit "
            f"{SELF_TIME_TOLERANCE * 100:.0f}%), negative self times: "
            f"{sorted(set(table.negative)) or 'none'}")
    else:
        report += workload.layer_report()
    # The two halves differ by more than the tracing costs whenever the
    # machine's speed drifts between them, so the reported overhead is the
    # measured cost of the spans one operation records, against the
    # untraced median operation; the halves are printed alongside.
    spans_per_op = len(tracer.spans) / len({s[4] for s in tracer.spans})
    cost_ns = span_cost_ns()
    metrics["trace.overhead_pct"] = spans_per_op * cost_ns / (untraced * 1e7)
    report.append(
        f"trace overhead: {spans_per_op:.1f} spans per operation at "
        f"{cost_ns:.0f} ns each = {metrics['trace.overhead_pct']:.2f}% of "
        f"the untraced median operation; median operation "
        f"{traced * 1e3:.4f} ms traced vs {untraced * 1e3:.4f} ms untraced "
        f"({(traced / untraced - 1.0) * 100.0:+.2f}%)")
    path = os.path.join("perfbench", "traces",
                        f"{workload.name}-seed{workload.seed}.jsonl")
    tracer.write(path)
    report.append(f"spans: {len(tracer.spans)} written to {path}")
    return metrics, ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall-clock time the parent started this process")
    args = parser.parse_args()

    from repro.kernels import available_kernels
    from common import peak_rss_mb, tail_label

    workload = _workloads()[args.workload](args.seed)
    report: list = []
    result = {"native": "softermax-native" in available_kernels()}
    try:
        workload.setup()
        result["setup_s"] = time.time() - args.spawned_at
        if args.mode == "setup":
            workload.close()
            print(json.dumps(result))
            return 0
        if args.trace:
            metrics, trace_ok = _traced(workload, args.seconds, report)
        else:
            workload.measure(args.seconds)
            metrics, trace_ok = workload.end_to_end(), True
        checks = workload.checks()
    finally:
        workload.close()
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    report.append(f"operation latency: {tail_label(workload.op_seconds)}")
    report += workload.accounting()
    report += [check.line() for check in checks]
    result.update(
        correct=trace_ok and all(check.ok for check in checks),
        attempted=workload.attempted, failed=workload.failed,
        metrics=metrics)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - reported to run.py as a failed run
        traceback.print_exc()
        sys.exit(1)
