"""Encoder workloads: short ragged serving batches and long sequences.

``encode-short``  closed loop, one caller: tiny-base
                  ``encode_ragged(engine="plan")`` on batches of 8 unique
                  requests of 8-16 tokens.  Operation: one batch forward;
                  work item: one valid token.
``encode-long``   tiny-long, one operation = a dense plan forward of
                  2 x 1024 tokens (one Softermax call of 2 * 4 heads *
                  1024**2 = 8.4M elements, through the adaptive dispatch)
                  followed by a ``block_kv=256`` plan forward of 2048 tokens
                  (the chunked path, which reaches the kernel through
                  ``FusedSoftermaxKernel.online_stats``).  Work item: one
                  token.
"""

from __future__ import annotations

import time

import numpy as np

from checks import (
    CONFIG,
    Check,
    KernelRowSampler,
    compare_forward,
    model_weights,
    numpy_encoder_forward,
)
from common import Workload, deadline_loop
from tracing import LayerTable, NullTracer

#: Token ids are drawn from 1..31 (0 is the pad id of the 32-token vocab).
TOKEN_LOW, TOKEN_HIGH = 1, 32


#: ``block_kv`` of the chunked long-context plan.
BLOCK_KV = 256


class _EncoderWorkload(Workload):
    model_name = ""
    #: ``block_kv`` of each plan an operation runs (None: dense).
    block_kvs = (None,)
    pool_size = 4
    rows_per_call = 16
    #: Operations whose kernel calls the row check samples.
    rows_check_ops = 1

    def make_inputs(self, rng):
        raise NotImplementedError

    def forward(self, inputs):
        raise NotImplementedError

    def work_of(self, inputs) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.serving.service import build_encoder_model

        # The model's weights are fixed (seed 0) so every run measures the
        # same program; the workload seed drives the inputs only.
        self.model = self.timed(
            "model_build", lambda: build_encoder_model(self.model_name,
                                                       seed=0))
        self.plans = self.timed(
            "plan_compile",
            lambda: [self.model.inference_plan(block_kv=block_kv)
                     for block_kv in self.block_kvs])
        rng = np.random.default_rng(self.seed)
        self.pool = [self.make_inputs(rng) for _ in range(self.pool_size)]
        self.timed("warmup", self.warmup)

    def warmup(self) -> None:
        # Two forwards: the first also starts the kernel worker pool.
        for inputs in self.pool[:2]:
            self.forward(inputs)

    def measure(self, seconds: float, tracer=None) -> None:
        pool = self.pool
        ops = self.op_seconds
        misses_before = self.arena_misses()
        if tracer is not None:
            for plan in self.plans:
                tracer.instrument_plan(plan)
            tracer.instrument_kernels()
        trace = tracer if tracer is not None else NullTracer()
        work = 0
        meter = self.meter
        meter.start()

        def step(i: int) -> None:
            nonlocal work
            inputs = pool[i % len(pool)]
            trace.op_id = i
            start = time.perf_counter()
            span = trace.enter("plan.loop")
            self.forward(inputs)
            trace.exit(span)
            end = time.perf_counter()
            ops.append(end - start)
            items = self.work_of(inputs)
            work += items
            meter.add(items, end - start)

        self.elapsed = deadline_loop(seconds, step, min_ops=3)
        self.work = work
        self.attempted += len(ops)
        if tracer is not None:
            tracer.uninstall()
            self.layer_table = LayerTable(tracer.spans, "plan.loop")
            self.misses_per_op = (self.arena_misses() - misses_before) \
                / max(len(ops), 1)

    def arena_misses(self) -> int:
        return sum(plan.arena.misses for plan in self.plans)

    def layer_metrics(self) -> dict:
        table = self.layer_table
        metrics = table.kernel_metrics()
        for row in ("layernorm", "attention_core", "release", "loop", "qkv",
                    "ffn", "attention_out", "gelu", "residual", "embedding"):
            metrics[f"plan.{row}_ms"] = table.per_op_ms(f"plan.{row}")
        metrics["plan.ops"] = float(sum(plan.num_ops for plan in self.plans))
        metrics["plan.arena_misses"] = self.misses_per_op
        return metrics

    def kernel_rows_check(self) -> Check:
        sampler = KernelRowSampler(self.seed + 1, self.rows_per_call)
        sampler.install()
        try:
            for inputs in self.pool[:self.rows_check_ops]:
                self.forward(inputs)
        finally:
            sampler.uninstall()
        return sampler.verify("kernel rows == SoftermaxPipeline")

    def close(self) -> None:
        from repro.kernels.parallel import get_parallel_kernel

        # The adaptive dispatcher's worker pool (if a call ever crossed the
        # parallel threshold) is stopped and joined before peak memory is
        # read, so its processes count as waited-for children.
        get_parallel_kernel(CONFIG).close()


class EncodeShort(_EncoderWorkload):
    name = "encode-short"
    model_name = "tiny-base"
    pool_size = 256
    batch = 8
    rows_per_call = 4
    rows_check_ops = 2

    def make_inputs(self, rng):
        seqs = set()
        while len(seqs) < self.batch:
            length = int(rng.integers(8, 17))
            seqs.add(tuple(int(t) for t in
                           rng.integers(TOKEN_LOW, TOKEN_HIGH, size=length)))
        return [list(s) for s in sorted(seqs)]

    def warmup(self) -> None:
        for inputs in self.pool[:20]:
            self.forward(inputs)

    def forward(self, inputs):
        return self.model.encode_ragged(inputs, engine="plan")

    def work_of(self, inputs) -> int:
        return sum(len(seq) for seq in inputs)

    def checks(self) -> list:
        weights = model_weights(self.model)
        config = self.model.config
        pairs = []
        for inputs in self.pool[:8]:
            outputs = self.forward(inputs)
            for seq, out in zip(inputs, outputs):
                want = numpy_encoder_forward(weights, config, seq)[0]
                pairs.append((out, want))
        return [self.kernel_rows_check(),
                compare_forward("ragged plan output == numpy forward", pairs)]


class EncodeLong(_EncoderWorkload):
    name = "encode-long"
    model_name = "tiny-long"
    block_kvs = (None, BLOCK_KV)
    dense_shape = (2, 1024)
    chunked_shape = (1, 2048)

    def make_inputs(self, rng):
        return (rng.integers(TOKEN_LOW, TOKEN_HIGH, size=self.dense_shape),
                rng.integers(TOKEN_LOW, TOKEN_HIGH, size=self.chunked_shape))

    def forward(self, inputs):
        dense, chunked = inputs
        return (self.model.encode(dense, engine="plan"),
                self.model.encode(chunked, engine="plan", block_kv=BLOCK_KV))

    def work_of(self, inputs) -> int:
        return inputs[0].size + inputs[1].size

    def capture_context(self, tokens) -> np.ndarray:
        """The chunked attention context of one forward (pre head merge)."""
        from repro.infer.plan import PlanOp

        captured = []
        plan = self.plans[1]
        ops = list(plan.ops)

        def capture(fn):
            def op(ctx):
                fn(ctx)
                for reg, value in ctx.regs.items():
                    if reg.endswith("attention.context"):
                        captured.append(np.array(value))
            return op

        plan.ops = [PlanOp(op.name, capture(op.fn))
                    if op.name.endswith(".core") else op for op in ops]
        try:
            self.model.encode(tokens, engine="plan", block_kv=BLOCK_KV)
        finally:
            plan.ops = ops
        return captured[0]

    def checks(self) -> list:
        weights = model_weights(self.model)
        config = self.model.config
        rng = np.random.default_rng(self.seed + 2)
        dense, chunked = self.pool[1]
        hidden, _ = self.forward(self.pool[1])
        pairs = []
        for b in range(dense.shape[0]):
            rows = np.sort(rng.choice(dense.shape[1], size=16,
                                      replace=False))
            want = numpy_encoder_forward(weights, config, dense[b],
                                         query_rows=rows)[0]
            pairs.append((hidden[b, rows], want))
        context = self.capture_context(chunked)[0]
        length = chunked.shape[1]
        rows = np.sort(rng.choice(length, size=64, replace=False))
        _, contexts, values = numpy_encoder_forward(
            weights, config, chunked[0], query_rows=rows)
        bound = CONFIG.output_fmt.resolution * np.sqrt(length) \
            * np.abs(values[0]).max()
        worst = float(np.max(np.abs(context[:, rows, :] - contexts[0])))
        return [self.kernel_rows_check(),
                compare_forward("dense plan output == numpy forward "
                                "(16 sampled positions per sequence)",
                                pairs),
                Check("chunked context within the documented bound of the "
                      "dense oracle context", worst <= bound,
                      f"64 sampled positions, max |chunked - dense| = "
                      f"{worst:.3e}, bound resolution*sqrt(L)*max|V| = "
                      f"{bound:.3e}")]
