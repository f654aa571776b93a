"""Shared pieces of the benchmark workloads: the workload base class,
percentiles, memory and the metric names."""

from __future__ import annotations

import resource
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

#: End-to-end metrics every workload reports (see README.md for what the
#: work item is on each workload).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

#: The machine this benchmark was built on runs all code up to 1.6x slower
#: for stretches of seconds to minutes (other tenants of the host; a thread's
#: CPU time tracks its wall time through them).  So every timed loop also runs
#: a fixed reference task, the speed gauge, for ``GAUGE_SHARE`` of its time,
#: and ``work_per_s`` is the rate scaled to a machine that runs the gauge at
#: ``REFERENCE_UNITS_PER_S``: per window of at least ``RATE_WINDOW_S``
#: seconds, work items per second of operation time times
#: ``REFERENCE_UNITS_PER_S`` over the gauge's own rate in that window, and
#: the median over the windows.  The gauge's code is the benchmark's, not the
#: program's, so a change to the program moves the scaled rate as much as the
#: raw one.
GAUGE_SHARE = 0.2
#: The gauge runs in chunks of at least this long, a few times per window.
GAUGE_CHUNK_S = 0.02
REFERENCE_UNITS_PER_S = 1000.0
RATE_WINDOW_S = 1.0

#: Per-layer metrics every traced run reports, with their units.  A layer a
#: workload does not run reports 0.
PER_LAYER = {
    "kernels.busy_ms": "ms",
    "kernels.ns_per_element": "ns",
    "kernels.bytes_moved": "B",
    "kernels.dispatch_ms": "ms",
    "kernels.calls": "count",
    "kernels.elements": "count",
    "kernels.native_calls": "count",
    "kernels.fused_calls": "count",
    "kernels.blocked_calls": "count",
    "kernels.parallel_calls": "count",
    "kernels.online_stats_calls": "count",
    "plan.layernorm_ms": "ms",
    "plan.attention_core_ms": "ms",
    "plan.release_ms": "ms",
    "plan.loop_ms": "ms",
    "plan.qkv_ms": "ms",
    "plan.ffn_ms": "ms",
    "plan.attention_out_ms": "ms",
    "plan.gelu_ms": "ms",
    "plan.residual_ms": "ms",
    "plan.embedding_ms": "ms",
    "plan.ops": "count",
    "plan.arena_misses": "count",
    "setup.model_build_ms": "ms",
    "setup.plan_compile_ms": "ms",
    "setup.warmup_ms": "ms",
    "serving.queue_wait_ms_p50": "ms",
    "serving.queue_wait_ms_p99": "ms",
    "serving.batch_size_mean": "count",
    "serving.batches": "count",
    "serving.forward_ms_p50": "ms",
    "serving.cache_hits": "count",
    "serving.requests": "count",
    "serving.wire_ms_p50": "ms",
    "serving.shed": "count",
    "serving.expired": "count",
    "train.forward_ms": "ms",
    "train.backward_ms": "ms",
    "train.optimizer_ms": "ms",
    "train.clip_ms": "ms",
    "train.steps": "count",
    "train.fake_quant_ms": "ms",
    "train.softmax_kernel_ms": "ms",
    "train.loop_ms": "ms",
    "trace.overhead_pct": "%",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_label(values: Sequence[float]) -> str:
    """p10 and median plus the highest of p99/p95/p90 with >= 10 samples
    beyond it, with the sample count (no tail below 40 samples)."""
    n = len(values)
    parts = [f"p{q:g}={percentile(values, q) * 1e3:.3f} ms"
             for q in (10.0, 50.0)]
    for q in (99.0, 95.0, 90.0):
        if n >= 40 and n * (100.0 - q) / 100.0 >= 10:
            parts.append(f"p{q:g}={percentile(values, q) * 1e3:.3f} ms")
            break
    return ", ".join(parts) + f" (n={n})"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child.

    ``ru_maxrss`` is in KiB on Linux.  Children count once they have been
    waited for, so workloads stop their subprocesses before calling this.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Workload:
    """One benchmark workload, run in its own process.

    Subclasses implement :meth:`setup` (everything before the first timed
    operation), :meth:`measure` (the timed loop, ``seconds`` long, with or
    without a tracer), :meth:`checks` (outside every timed window) and
    :meth:`close`.  ``op_seconds`` holds each timed operation's duration,
    ``work`` the work items the timed loop completed in ``elapsed`` seconds
    and ``meter`` the per-window work and speed-gauge totals
    (``meter.add`` after each operation, or each slice of the serving
    burst).
    """

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.op_seconds: List[float] = []
        self.work = 0.0
        self.elapsed = 0.0
        self.meter = RateMeter()
        self.attempted = 0
        self.failed = 0
        self.setup_ms: Dict[str, float] = {"model_build": 0.0,
                                           "plan_compile": 0.0,
                                           "warmup": 0.0}

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> None:
        raise NotImplementedError

    def checks(self) -> list:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def accounting(self) -> List[str]:
        return [f"operations attempted {self.attempted}, failed "
                f"{self.failed}; {self.work:.0f} work items in "
                f"{self.elapsed:.3f} s", self.meter.line()]

    def end_to_end(self) -> Dict[str, float]:
        return {"work_per_s": self.meter.rate()}

    def timed(self, label: str, fn):
        """Run ``fn()`` and add its wall time to ``setup_ms[label]``."""
        start = time.perf_counter()
        result = fn()
        self.setup_ms[label] += (time.perf_counter() - start) * 1e3
        return result


class SpeedGauge:
    """The fixed reference task: one unit is eight small LayerNorm, GEMM,
    softmax and dict steps on 8-16 rows (Python around small NumPy calls,
    as in a short forward) and one exp and sum over 64k floats (as in a
    kernel call).  Its inputs are fixed, so its speed is the machine's."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((64, 128)) / 8.0
        self.w2 = rng.standard_normal((128, 64)) / 12.0
        self.rows = [rng.standard_normal((int(n), 64))
                     for n in rng.integers(8, 17, size=8)]
        self.big = rng.standard_normal(1 << 16)
        self.big_out = np.empty_like(self.big)

    def unit(self) -> float:
        total = 0.0
        for x in self.rows:
            h = x - x.mean(-1, keepdims=True)
            h = h / np.sqrt((h * h).mean(-1, keepdims=True) + 1e-5)
            h = np.tanh(h @ self.w1) @ self.w2
            s = h @ h.T
            s = np.exp(s - s.max(-1, keepdims=True))
            s /= s.sum(-1, keepdims=True)
            total += sum({i: float(v) for i, v in enumerate(s[0])}.values())
        np.exp(self.big, out=self.big_out)
        return total + float(self.big_out.sum())

    def run(self, seconds: float) -> tuple:
        """Run whole units for at least ``seconds``; (units, seconds)."""
        start = time.perf_counter()
        units = 0
        while True:
            self.unit()
            units += 1
            spent = time.perf_counter() - start
            if spent >= seconds:
                return units, spent


class RateMeter:
    """Work rate of a timed loop at the reference machine speed.

    ``add(work, op_seconds)`` after each operation pays the gauge's share
    of the loop (``GAUGE_SHARE``) once it reaches ``GAUGE_CHUNK_S``; a
    window closes once ``RATE_WINDOW_S`` of wall time has passed and the
    gauge has run in it.
    """

    def __init__(self) -> None:
        self.gauge = SpeedGauge()
        self.start()

    def start(self) -> None:
        """Drop what was measured so far (a new timed loop starts)."""
        #: closed windows: [work, operation s, gauge units, gauge s]
        self.windows: List[list] = []
        self._window = [0.0, 0.0, 0, 0.0]
        self._debt = 0.0
        self._opened = time.perf_counter()

    def add(self, work: float, op_seconds: float) -> None:
        window = self._window
        window[0] += work
        window[1] += op_seconds
        self._debt += op_seconds * GAUGE_SHARE / (1.0 - GAUGE_SHARE)
        if self._debt >= GAUGE_CHUNK_S:
            units, spent = self.gauge.run(self._debt)
            self._debt -= spent
            window[2] += units
            window[3] += spent
        now = time.perf_counter()
        if window[2] and now - self._opened >= RATE_WINDOW_S:
            self.windows.append(window)
            self._window = [0.0, 0.0, 0, 0.0]
            self._opened = now

    def _closed(self) -> List[list]:
        # A loop shorter than one window still reports its one window.
        if self.windows:
            return self.windows
        return [self._window] if self._window[2] else []

    def rate(self) -> float:
        """Median over the windows of work per operation second, scaled by
        ``REFERENCE_UNITS_PER_S`` over the gauge rate of the window."""
        windows = self._closed()
        if not windows:
            raise ValueError("the timed loop ran the speed gauge not once")
        return statistics.median(
            work / op_s * REFERENCE_UNITS_PER_S / (units / gauge_s)
            for work, op_s, units, gauge_s in windows)

    def line(self) -> str:
        windows = self._closed()
        if not windows:
            return "speed gauge: not run"
        raw = statistics.median(w / s for w, s, _, _ in windows)
        gauge = statistics.median(u / s for _, _, u, s in windows)
        return (f"rate: {raw:.1f}/s of operation time (median of "
                f"{len(windows)} windows), speed gauge {gauge:.0f} units/s "
                f"(reference {REFERENCE_UNITS_PER_S:.0f}); at the reference "
                f"speed {self.rate():.1f}/s")


def deadline_loop(seconds: float, step, min_ops: int = 1) -> float:
    """Call ``step(i)`` until ``seconds`` have passed (at least ``min_ops``
    times); returns the elapsed wall time."""
    start = time.perf_counter()
    end = start + seconds
    i = 0
    while i < min_ops or time.perf_counter() < end:
        step(i)
        i += 1
    return time.perf_counter() - start
