"""Spans around the calls into each layer, and the self-time table.

The traced mode records a span for every call into a layer's public entry
point.  Nothing inside the program is edited: the wrappers are installed
from this benchmark on the objects the workload already holds and removed
when the run ends.

* ``repro.infer``: each ``InferencePlan.ops`` closure, wrapped by op name
  and filed under one ``plan.*`` category (see :func:`plan_category`).
* ``repro.kernels``: ``AdaptiveSoftermaxKernel.__call__`` (the registry's
  adaptive dispatch), every engine's ``__call__`` and
  ``FusedSoftermaxKernel.online_stats``.
* Training: ``Tensor.backward``, ``Adam.step`` and
  ``FakeQuantizer.__call__``; the forward/loss and ``clip_grad_norm`` are
  spanned where the benchmark's own step loop calls them.

A span is ``(name, start_ns, end_ns, parent, op_id, elements)``.  Spans stay
in memory and are written out when the run ends.  A span's self time is
its duration minus the durations of its direct children, so the self times
of one operation's spans add up to its root span.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional

#: Kernel engine span names, by engine class.
ENGINE_SPANS = {
    "NativeSoftermaxKernel": "kernels.native",
    "FusedSoftermaxKernel": "kernels.fused",
    "BlockedSoftermaxKernel": "kernels.blocked",
    "ParallelSoftermaxKernel": "kernels.parallel",
}
ONLINE_STATS_SPAN = "kernels.online_stats"
DISPATCH_SPAN = "kernels.dispatch"
KERNEL_SPANS = frozenset(ENGINE_SPANS.values()) | {ONLINE_STATS_SPAN}

#: Every kernel engine touches each element once on the way in and once on
#: the way out (float64 scores in, float64 probabilities or unnormalized
#: numerators out), so the bytes moved follow from the tensor sizes.
BYTES_PER_ELEMENT = 16


def plan_category(op_name: str) -> str:
    """The ``plan.*`` row an ``InferencePlan`` op is filed under."""
    if op_name.endswith(".free"):
        return "plan.release"
    if op_name == "embeddings":
        return "plan.embedding"
    if op_name.endswith("norm"):
        return "plan.layernorm"
    tail = op_name.rsplit(".", 1)[-1]
    if tail in ("query", "key", "value", "qkv_fused"):
        return "plan.qkv"
    if tail == "core":
        return "plan.attention_core"
    if tail in ("merge", "output"):
        return "plan.attention_out"
    if tail in ("expand", "contract"):
        return "plan.ffn"
    if tail == "gelu":
        return "plan.gelu"
    if tail.startswith("residual"):
        return "plan.residual"
    raise ValueError(f"plan op {op_name!r} has no benchmark category")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: records nothing."""

    op_id = 0

    def enter(self, name: str, elements: int = 0) -> int:
        return 0

    def exit(self, index: int) -> None:
        pass


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.op_id = 0
        self._restore: List[Callable[[], None]] = []

    # -------------------------------------------------------------- spans
    def enter(self, name: str, elements: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, parent,
                           self.op_id, elements))
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        # Spans are tuples of atoms, which the garbage collector stops
        # tracking, so a long traced run does not slow every collection.
        name, start, _, parent, op_id, elements = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter_ns(), parent,
                             op_id, elements)
        self._stack.pop()

    def record(self, name: str, start_s: float, end_s: float,
               op_id: int) -> None:
        """Add a finished root span from ``time.perf_counter()`` stamps."""
        self.spans.append((name, int(start_s * 1e9), int(end_s * 1e9), -1,
                           op_id, 0))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)

        return traced

    # ------------------------------------------------------ instrumenting
    def _patch(self, cls, attr: str, name: str,
               count_elements: bool = False) -> None:
        """Span every call of ``cls.attr`` until :meth:`uninstall`;
        ``count_elements`` records the size of the first argument."""
        original = cls.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            elements = getattr(args[1], "size", 0) if count_elements else 0
            index = tracer.enter(name, elements)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit(index)

        setattr(cls, attr, traced)
        self._restore.append(lambda: setattr(cls, attr, original))

    def instrument_kernels(self) -> None:
        """Span the adaptive dispatch and every Softermax engine."""
        from repro.kernels.blocked import BlockedSoftermaxKernel
        from repro.kernels.fused import FusedSoftermaxKernel
        from repro.kernels.native import NativeSoftermaxKernel
        from repro.kernels.parallel import ParallelSoftermaxKernel
        from repro.kernels.registry import AdaptiveSoftermaxKernel

        self._patch(AdaptiveSoftermaxKernel, "__call__", DISPATCH_SPAN)
        for cls in (NativeSoftermaxKernel, FusedSoftermaxKernel,
                    BlockedSoftermaxKernel, ParallelSoftermaxKernel):
            self._patch(cls, "__call__", ENGINE_SPANS[cls.__name__],
                        count_elements=True)
        self._patch(FusedSoftermaxKernel, "online_stats", ONLINE_STATS_SPAN,
                    count_elements=True)

    def instrument_plan(self, plan) -> None:
        """Span every op of ``plan`` under its ``plan.*`` category."""
        from repro.infer.plan import PlanOp

        ops = list(plan.ops)
        plan.ops = [PlanOp(op.name, self.wrap(plan_category(op.name), op.fn))
                    for op in ops]
        self._restore.append(lambda: setattr(plan, "ops", ops))

    def instrument_training(self) -> None:
        """Span autograd backward, the optimizer and fake quantization."""
        from repro.nn.optim import Adam
        from repro.nn.tensor import Tensor
        from repro.quant.qat import FakeQuantizer

        self._patch(Tensor, "backward", "train.backward")
        self._patch(Adam, "step", "train.optimizer")
        self._patch(FakeQuantizer, "__call__", "train.fake_quant")

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------- output
    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                ["name", "start_ns", "end_ns", "parent", "op_id",
                 "elements"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: List[tuple]) -> List[int]:
    """Self time (ns) of each span: duration minus its direct children."""
    selfs = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


class LayerTable:
    """Per-layer self times and kernel counters of one traced phase.

    ``root`` is the span name that opens each timed operation (a forward or
    a training step); its self time is the time no layer covered.  Kernel
    spans are filed under ``kernels.dispatch`` and ``kernels.busy``, or all
    under ``kernel_row`` when one is given (``train.softmax_kernel``); the
    ``kernels.*`` counters are kept either way.
    """

    def __init__(self, spans: List[tuple], root: str,
                 kernel_row: Optional[str] = None) -> None:
        selfs = self_times(spans)
        self.rows: Dict[str, float] = {}
        self.ops = 0
        self.root_ns = 0
        self.negative = []
        self.kernel = {"busy_ns": 0, "dispatch_ns": 0, "calls": 0,
                       "elements": 0, "native": 0, "fused": 0,
                       "blocked": 0, "parallel": 0, "online_stats": 0}
        for span, own in zip(spans, selfs):
            name, start, end, parent, _, elements = span
            if own < 0:
                self.negative.append(name)
            if name == root:
                self.ops += 1
                self.root_ns += end - start
            row = name
            if name in KERNEL_SPANS:
                row = kernel_row or "kernels.busy"
            elif name == DISPATCH_SPAN:
                row = kernel_row or DISPATCH_SPAN
            self.rows[row] = self.rows.get(row, 0) + own
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == DISPATCH_SPAN:
                self.kernel["dispatch_ns"] += own
                self.kernel["calls"] += 1
            elif name in KERNEL_SPANS:
                self.kernel["busy_ns"] += own
                if parent_name not in KERNEL_SPANS:
                    # The outermost engine of a call served it.
                    self.kernel[name.split(".", 1)[1]] += 1
                    self.kernel["elements"] += elements
                    if parent_name != DISPATCH_SPAN:
                        self.kernel["calls"] += 1
        self.rows[root] = self.rows.pop(root, 0)

    def per_op_ms(self, row: str) -> float:
        return self.rows.get(row, 0) / 1e6 / max(self.ops, 1)

    def total_ms(self) -> float:
        return sum(self.rows.values()) / 1e6 / max(self.ops, 1)

    def kernel_metrics(self) -> Dict[str, float]:
        ops = max(self.ops, 1)
        k = self.kernel
        return {
            "kernels.busy_ms": k["busy_ns"] / 1e6 / ops,
            "kernels.dispatch_ms": k["dispatch_ns"] / 1e6 / ops,
            "kernels.ns_per_element": (k["busy_ns"] / k["elements"]
                                       if k["elements"] else 0.0),
            "kernels.bytes_moved": BYTES_PER_ELEMENT * k["elements"] / ops,
            "kernels.calls": k["calls"] / ops,
            "kernels.elements": k["elements"] / ops,
            "kernels.native_calls": k["native"] / ops,
            "kernels.fused_calls": k["fused"] / ops,
            "kernels.blocked_calls": k["blocked"] / ops,
            "kernels.parallel_calls": k["parallel"] / ops,
            "kernels.online_stats_calls": k["online_stats"] / ops,
        }

    def format(self, title: str, measured_ms: float) -> List[str]:
        """The self-time table, one line per row, with the sum check."""
        lines = [f"{title}: self time per operation over {self.ops} "
                 "traced operations"]
        total = self.total_ms()
        for row, ns in sorted(self.rows.items(), key=lambda kv: -kv[1]):
            ms = ns / 1e6 / max(self.ops, 1)
            share = 100.0 * ms / total if total else 0.0
            lines.append(f"  {row:<24s} {ms:10.4f} ms  {share:5.1f}%")
        lines.append(f"  {'sum of rows':<24s} {total:10.4f} ms vs "
                     f"{measured_ms:.4f} ms timed around each operation "
                     f"({self.sum_error(measured_ms) * 100:+.2f}%)")
        return lines

    def sum_error(self, measured_ms: float) -> float:
        return self.total_ms() / measured_ms - 1.0 if measured_ms else 1.0
