"""``finetune``: the paper's Table III recipe on a synthetic GLUE task.

The recipe of :mod:`repro.models.finetune` at tiny-base on the SST-2
surrogate (``make_sst2``, 512 training and 128 dev examples drawn from the
workload seed; weights initialised from seed 0), with both training phases
side by side so each is timed under the same machine conditions:

``pretrain``  phase 1 on a fresh model: reference softmax, no quantization.
              No Softermax kernel and no fake quantizer runs, so a kernel
              change should not move this half.
``finetune``  phases 2-3: set-up runs one pre-training epoch
              (``pretrain_task_model``), attaches the 8-bit fake quantizers,
              calibrates them (``_calibrate``) and switches to the
              ``softermax`` variant; its steps run the bit-accurate kernel
              forward and the straight-through backward.

Operation: one pre-train step followed by one fine-tune step (a batch of 32
examples each); work item: one training example.  Each step mirrors
``finetune._train_epochs``: schedule step, forward and loss
(``finetune._compute_loss``), ``zero_grad``, ``backward``,
``clip_grad_norm``, ``Adam.step``.  The run trains whole epochs until its
time is up (at least ``MIN_EPOCHS``).  The warm-up-then-decay schedules are stretched
over ``MAX_EPOCHS`` so the learning rate stays near its peak whatever the
run length.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from checks import Check, KernelRowSampler
from common import Workload
from tracing import LayerTable, NullTracer

NUM_TRAIN, NUM_DEV = 512, 128
MAX_EPOCHS = 200
#: Epochs a run trains at least, so the loss check sees the fine-tune
#: phase settle (its first epochs after quantization are noisy).
MIN_EPOCHS = 8
#: Dev accuracy (%) a run must beat: chance (50% on two classes) plus a
#: margin of ten points.
DEV_FLOOR = 60.0
#: Central differences: step, and the tolerance on |fd - grad|.  The
#: truncation error is O(h**2) (~1e-10 relative) and float64 cancellation
#: adds about eps * |loss| / h (~1e-11), both far below the tolerance.
FD_STEP = 1e-5
FD_ATOL, FD_RTOL = 1e-7, 1e-5


@dataclass
class _Phase:
    """One model trained by the recipe's step, with its own data order."""

    name: str
    model: object
    optimizer: object
    schedule: object
    rng: np.random.Generator
    epoch_losses: list = field(default_factory=list)


class Finetune(Workload):
    name = "finetune"

    def setup(self) -> None:
        from repro.data.synthetic_glue import make_sst2
        from repro.models import BertConfig
        from repro.models.bert import TaskModel
        from repro.quant import attach_quantizers

        self.ft = importlib.import_module("repro.models.finetune")
        recipe = self.recipe = self.ft.FinetuneConfig(seed=0)
        self.task = make_sst2(num_train=NUM_TRAIN, num_dev=NUM_DEV,
                              seed=self.seed)
        config = BertConfig.tiny_base(vocab_size=self.task.vocab_size,
                                      max_seq_len=self.task.seq_len)

        def build():
            fresh = TaskModel(config, self.task, softmax_variant="reference",
                              seed=0)
            # The recipe's own phase 1, shortened to one epoch.
            pretrained = self.ft.pretrain_task_model(
                self.task, config, replace(recipe, pretrain_epochs=1))
            return fresh, pretrained

        fresh, tuned = self.timed("model_build", build)

        def prepare():
            quantizers = attach_quantizers(
                tuned, num_bits=recipe.quant_bits,
                percentile=recipe.calibration_percentile)
            self.ft._calibrate(tuned, self.task, quantizers, recipe,
                               np.random.default_rng(self.seed + 2))
            tuned.set_softmax_variant("softermax")

        self.timed("warmup", prepare)
        self.phases = [self._phase("pretrain", fresh, recipe.pretrain_lr, 1),
                       self._phase("finetune", tuned, recipe.finetune_lr, 3)]

    def _phase(self, name, model, lr, offset) -> _Phase:
        from repro.nn import Adam, LinearWarmupSchedule

        optimizer = Adam(model.parameters(), lr=lr,
                         weight_decay=self.recipe.weight_decay)
        steps = -(-NUM_TRAIN // self.recipe.batch_size)
        schedule = LinearWarmupSchedule(optimizer, warmup_steps=steps,
                                        total_steps=steps * MAX_EPOCHS)
        model.train()
        return _Phase(name, model, optimizer, schedule,
                      np.random.default_rng(self.seed + offset))

    def measure(self, seconds: float, tracer=None) -> None:
        from repro.nn import clip_grad_norm

        recipe = self.recipe
        compute_loss = self.ft._compute_loss
        trace = tracer if tracer is not None else NullTracer()
        if tracer is not None:
            tracer.instrument_kernels()
            tracer.instrument_training()
        ops = self.op_seconds

        def step(phase: _Phase, batch) -> float:
            model = phase.model
            phase.schedule.step()
            span = trace.enter("train.forward")
            loss = compute_loss(model, batch)
            trace.exit(span)
            model.zero_grad()
            loss.backward()
            span = trace.enter("train.clip")
            clip_grad_norm(model.parameters(), recipe.max_grad_norm)
            trace.exit(span)
            phase.optimizer.step()
            return loss.item()

        self.work = 0
        start = time.perf_counter()
        end = start + seconds
        self.meter.start()
        epochs = 0
        while epochs < MIN_EPOCHS or time.perf_counter() < end:
            losses = ([], [])
            batches = zip(*(self.task.train.batches(
                recipe.batch_size, shuffle=True, rng=phase.rng)
                for phase in self.phases))
            for pair in batches:
                trace.op_id = len(ops)
                began = time.perf_counter()
                root = trace.enter("train.loop")
                items = 0
                for phase, batch, phase_losses in zip(self.phases, pair,
                                                      losses):
                    phase_losses.append(step(phase, batch))
                    items += len(batch.labels)
                trace.exit(root)
                now = time.perf_counter()
                ops.append(now - began)
                self.work += items
                self.meter.add(items, now - began)
            for phase, phase_losses in zip(self.phases, losses):
                phase.epoch_losses.append(float(np.mean(phase_losses)))
            epochs += 1
        self.elapsed = time.perf_counter() - start
        self.attempted += len(ops)
        if tracer is not None:
            tracer.uninstall()
            self.layer_table = LayerTable(tracer.spans, "train.loop",
                                          kernel_row="train.softmax_kernel")

    def layer_metrics(self) -> dict:
        table = self.layer_table
        metrics = table.kernel_metrics()
        for row in ("forward", "backward", "optimizer", "clip", "fake_quant",
                    "softmax_kernel", "loop"):
            metrics[f"train.{row}_ms"] = table.per_op_ms(f"train.{row}")
        metrics["train.steps"] = float(table.ops * len(self.phases))
        return metrics

    def accounting(self) -> list:
        lines = [f"operations attempted {self.attempted} (one pre-train and "
                 f"one fine-tune step each), failed {self.failed}; "
                 f"{self.work:.0f} examples in {self.elapsed:.3f} s",
                 self.meter.line()]
        for phase in self.phases:
            losses = phase.epoch_losses
            lines.append(f"{phase.name}: {len(losses)} epochs, mean loss "
                         f"first epoch {losses[0]:.4f}, last epoch "
                         f"{losses[-1]:.4f}")
        return lines

    # ------------------------------------------------------------ checks
    def checks(self) -> list:
        from repro.eval.accuracy import evaluate_model

        pretrain, finetune = self.phases
        checks = [self.gradient_check(pretrain.model),
                  self.kernel_rows_check(finetune.model)]
        for phase in self.phases:
            losses = phase.epoch_losses
            # The median of the later epochs, so one noisy epoch at the
            # end of a run (Adam at a loss near zero) does not decide it.
            late = float(np.median(losses[len(losses) // 2:]))
            phase.model.eval()
            score = evaluate_model(phase.model, self.task)
            checks += [
                Check(f"{phase.name} loss falls", late < losses[0],
                      f"mean loss {losses[0]:.4f} in the first epoch, "
                      f"median {late:.4f} over the last "
                      f"{len(losses) - len(losses) // 2} of {len(losses)}"),
                Check(f"{phase.name} dev score above chance",
                      score > DEV_FLOOR,
                      f"dev {self.task.metric} {score:.2f} (floor "
                      f"{DEV_FLOOR}, chance "
                      f"{100.0 / self.task.num_classes:.0f})"),
            ]
        return checks

    def kernel_rows_check(self, model) -> Check:
        sampler = KernelRowSampler(self.seed + 4, rows_per_call=32)
        train = self.task.train
        sampler.install()
        try:
            model(train.input_ids[:32], train.attention_mask[:32])
        finally:
            sampler.uninstall()
        return sampler.verify("kernel rows == SoftermaxPipeline")

    def gradient_check(self, model) -> Check:
        """Autograd gradients vs central finite differences, dropout off."""
        from repro.data.tasks import TaskBatch

        model.eval()
        train = self.task.train
        batch = TaskBatch(train.input_ids[:8], train.attention_mask[:8],
                          train.labels[:8])

        def loss_value() -> float:
            return self.ft._compute_loss(model, batch).item()

        loss = self.ft._compute_loss(model, batch)
        model.zero_grad()
        loss.backward()
        params = [p for _, p in model.named_parameters()
                  if p.grad is not None]
        rng = np.random.default_rng(self.seed + 5)
        worst = 0.0
        failures = 0
        for _ in range(12):
            param = params[int(rng.integers(len(params)))]
            index = int(rng.integers(param.data.size))
            grad = float(param.grad.flat[index])
            original = float(param.data.flat[index])
            param.data.flat[index] = original + FD_STEP
            plus = loss_value()
            param.data.flat[index] = original - FD_STEP
            minus = loss_value()
            param.data.flat[index] = original
            error = abs((plus - minus) / (2 * FD_STEP) - grad)
            worst = max(worst, error)
            failures += error > FD_ATOL + FD_RTOL * abs(grad)
        return Check("pretrain autograd == central finite differences",
                     failures == 0,
                     f"12 sampled parameters, max |fd - grad| = {worst:.2e} "
                     f"(tolerance {FD_ATOL:g} + {FD_RTOL:g}*|grad|)")
