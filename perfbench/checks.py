"""Correctness checks computed apart from the timed path.

* :func:`numpy_encoder_forward` -- the encoder forward written here in
  plain NumPy from the model's weights, with the slice-loop oracle
  (``SoftermaxPipeline``, the spec) as its attention softmax.
* :class:`KernelRowSampler` -- samples rows from the Softermax kernel calls
  a workload makes and replays them through the oracle, which must agree
  bit for bit.
* :data:`FORWARD_ATOL` -- the tolerance between the program's encoder
  output and :func:`numpy_encoder_forward`, derived from the output
  format's resolution (see its comment).

Nothing here compares against a stored copy of an earlier output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SoftermaxConfig
from repro.core.softermax import SoftermaxPipeline

#: Paper Table I, the operating point every benchmarked model runs.
CONFIG = SoftermaxConfig.paper_table1()

#: A Softermax probability is a multiple of ``output_fmt.resolution``
#: (2**-7), so if the two forwards disagreed on any probability the value
#: GEMM would move a context element by a multiple of 2**-7 * |v| -- about
#: 1e-3 at these weights.  The two forwards may differ otherwise only by
#: float64 rounding order (around 1e-14).  A tolerance of the resolution
#: times 2**-20 (7.5e-9) sits between the two: rounding noise passes, one
#: disagreeing probability fails.
FORWARD_ATOL = CONFIG.output_fmt.resolution * 2.0 ** -20


class Check:
    """One named pass/fail check with a one-line detail."""

    def __init__(self, name: str, ok: bool, detail: str) -> None:
        self.name = name
        self.ok = bool(ok)
        self.detail = detail

    def line(self) -> str:
        return f"check {'PASS' if self.ok else 'FAIL'} {self.name}: " \
               f"{self.detail}"


# --------------------------------------------------------------------- #
# NumPy encoder forward
# --------------------------------------------------------------------- #
def _layer_norm(x: np.ndarray, weight, bias, eps: float) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * weight + bias


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                    * (x + 0.044715 * x ** 3)))


def model_weights(model) -> Dict[str, np.ndarray]:
    return {name: np.array(p.data) for name, p in model.named_parameters()}


def numpy_encoder_forward(weights: Dict[str, np.ndarray], config,
                          tokens: Sequence[int],
                          query_rows: Optional[np.ndarray] = None,
                          eps: float = 1e-5,
                          oracle: Optional[SoftermaxPipeline] = None):
    """Encoder forward of one sequence attended alone, in plain NumPy.

    Returns ``(hidden, contexts, values)``: the final hidden states and,
    per layer, the attention context ``(heads, rows, head_dim)`` before the
    head merge and the value projections ``(heads, length, head_dim)``.
    ``query_rows`` restricts the output (and the last layer's queries) to
    those positions; it needs a one-layer model, since an earlier layer
    would need every position's output.
    """
    oracle = oracle or SoftermaxPipeline(CONFIG)
    w = weights
    ids = np.asarray(tokens, dtype=np.int64)
    length = ids.shape[0]
    heads = config.num_heads
    head_dim = config.hidden_dim // heads
    if query_rows is not None and config.num_layers != 1:
        raise ValueError("query_rows needs a one-layer model")
    x = w["token_embedding.weight"][ids] \
        + w["position_embedding.weight"][np.arange(length)]
    x = _layer_norm(x, w["embedding_norm.weight"], w["embedding_norm.bias"],
                    eps)
    contexts, values = [], []
    for layer in range(config.num_layers):
        p = f"encoder.layer_{layer}."
        rows = query_rows if query_rows is not None else np.arange(length)
        xq = x[rows]

        def project(name, inputs):
            return inputs @ w[p + name + ".weight"] + w[p + name + ".bias"]

        def split(t):
            return t.reshape(t.shape[0], heads, head_dim).transpose(1, 0, 2)

        q = split(project("attention.query", xq))
        k = split(project("attention.key", x))
        v = split(project("attention.value", x))
        scores = (q @ k.transpose(0, 2, 1)) / np.sqrt(head_dim)
        probs = oracle(scores, axis=-1)
        context = probs @ v
        contexts.append(context)
        values.append(v)
        merged = context.transpose(1, 0, 2).reshape(len(rows), -1)
        attended = project("attention.output", merged)
        h = _layer_norm(xq + attended, w[p + "attention_norm.weight"],
                        w[p + "attention_norm.bias"], eps)
        ffn = project("feed_forward.contract",
                      _gelu(project("feed_forward.expand", h)))
        x = _layer_norm(h + ffn, w[p + "output_norm.weight"],
                        w[p + "output_norm.bias"], eps)
    return x, contexts, values


def compare_forward(name: str, pairs) -> Check:
    """``pairs`` of (program output, NumPy output); max error vs the atol."""
    worst = 0.0
    count = 0
    for got, want in pairs:
        if got.shape != want.shape:
            return Check(name, False, f"shape {got.shape} vs {want.shape}")
        worst = max(worst, float(np.max(np.abs(got - want))))
        count += 1
    return Check(name, worst <= FORWARD_ATOL,
                 f"{count} sequences, max |plan - numpy| = {worst:.3e} "
                 f"(tolerance {FORWARD_ATOL:.3e})")


# --------------------------------------------------------------------- #
# kernel rows against the oracle
# --------------------------------------------------------------------- #
class KernelRowSampler:
    """Copies a few rows of every Softermax kernel call while installed.

    Wraps ``AdaptiveSoftermaxKernel.__call__`` (every call a model's
    Softermax variant makes) and ``FusedSoftermaxKernel.online_stats``
    (every block the chunked attention path feeds it).  :meth:`verify`
    replays the rows through the oracle.
    """

    def __init__(self, seed: int, rows_per_call: int = 4) -> None:
        self.rng = np.random.default_rng(seed)
        self.rows_per_call = rows_per_call
        self.calls: List[tuple] = []
        self.stats: List[tuple] = []
        self._restore = []

    def _pick(self, x2: np.ndarray) -> np.ndarray:
        count = min(self.rows_per_call, x2.shape[0])
        return self.rng.choice(x2.shape[0], size=count, replace=False)

    def install(self) -> None:
        from repro.kernels.fused import FusedSoftermaxKernel
        from repro.kernels.registry import AdaptiveSoftermaxKernel

        sampler = self
        call = AdaptiveSoftermaxKernel.__dict__["__call__"]
        stats = FusedSoftermaxKernel.__dict__["online_stats"]

        def sampled_call(kernel, x, axis=-1, out=None, scratch=None):
            result = call(kernel, x, axis=axis, out=out, scratch=scratch)
            x2 = np.asarray(x).reshape(-1, np.shape(x)[-1])
            rows = sampler._pick(x2)
            y2 = np.asarray(result).reshape(x2.shape)
            sampler.calls.append((x2[rows].copy(), y2[rows].copy()))
            return result

        def sampled_stats(kernel, x, ws=None):
            result = stats(kernel, x, ws=ws)
            x2 = np.asarray(x).reshape(-1, np.shape(x)[-1])
            rows = sampler._pick(x2)
            lead = np.shape(x)[:-1]
            flat = [np.asarray(r).reshape((int(np.prod(lead)),) +
                                          np.shape(r)[len(lead):])
                    for r in result]
            sampler.stats.append((x2[rows].copy(),
                                  tuple(f[rows].copy() for f in flat)))
            return result

        AdaptiveSoftermaxKernel.__call__ = sampled_call
        FusedSoftermaxKernel.online_stats = sampled_stats
        self._restore = [(AdaptiveSoftermaxKernel, "__call__", call),
                         (FusedSoftermaxKernel, "online_stats", stats)]

    def uninstall(self) -> None:
        for cls, attr, original in self._restore:
            setattr(cls, attr, original)
        self._restore = []

    def verify(self, name: str) -> Check:
        oracle = SoftermaxPipeline(CONFIG)
        rows = mismatched = 0
        for x, y in self.calls:
            rows += len(x)
            mismatched += int(np.sum(~np.all(oracle(x) == y, axis=-1)))
        for x, (unnormed, slice_maxes, bmax, bsum) in self.stats:
            spec = oracle.run(x).intermediates
            rows += len(x)
            same = (np.all(unnormed[:, :x.shape[1]] == spec.unnormed, axis=-1)
                    & np.all(slice_maxes == spec.slice_maxes, axis=-1)
                    & (bmax == spec.global_max) & (bsum == spec.denominator))
            mismatched += int(np.sum(~same))
        calls = len(self.calls) + len(self.stats)
        return Check(name, rows > 0 and mismatched == 0,
                     f"{rows} rows from {calls} kernel calls "
                     f"({len(self.stats)} online_stats), {mismatched} "
                     "differ from SoftermaxPipeline bitwise")
