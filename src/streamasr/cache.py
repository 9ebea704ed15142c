"""Streaming caches: what a session carries between chunks.

A stream's state is a dict of named float32 tensors, which
encoder.state_spec names and shapes at the stream's counts, as
encoder_weight_spec does the weights. Per encoder layer i:
  layers.{i}.rows - each input's post-first-FFN value, then its query, key
              and value (x1|q|k|v, 4 * d_model wide), computed once, when it
              arrives: the rows of every input whose output is not yet
              settled (the regular regime's next queries), plus those of
              the settled inputs still within the left context of the next
              query: attn_keep_rows. Starts empty and grows until it
              saturates.
  layers.{i}.conv - the last kernel-1 settled inputs of the causal depthwise
              convolution, zero-filled at session start so the first chunk
              sees the same operands as the left-padded single-pass
              computation.
Per downsampler stage s, ds.carry{s} is the last input row the stage has
read (1, width), a zero row at the start of a stream.

The stream stores one counter, tokens_in: the tokens layer 0 has read. Each
layer settles all but the last settle_delay inputs it has seen, and passes
them up, so each layer's inputs seen and outputs settled follow from
tokens_in alone (StreamState.counts); the top layer's settled outputs are the
stream's tokens. That is the encoder's state alone: decoding state belongs
to the run's decoders. Every tensor changes by one rule, cache_append: this
step's window is the cache followed by the new rows, and the cache keeps the
window's newest rows. encode_step applies it to each of them once per step;
an offline pass is the same stream from init_state, taken in steps of up to
128 tokens.

A stream's state is these tensors and tokens_in alone. The attention plans
its steps read are derived data that depend only on the model and the step's
geometry, so they live with the model's weights (encoder.PlanStore), where
every stream on the same weights reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import AttentionContext
from .errors import ShapeError, StateError
from .numerics import operand


def attn_keep_rows(ctx: AttentionContext, n_in: int, n_out: int) -> int:
    """Attention cache rows a layer retains once its outputs before n_out are settled.

    Every unsettled input stays, plus the settled inputs that a query from
    n_out on can still reach: every key from the start of n_out's interval.
    """
    return n_in - ctx.attend_interval(n_out)[0]


def cache_append(
    cache: np.ndarray, new_rows: np.ndarray, n_keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Append new rows to a cache.

    Returns (window, kept): the step's operand window cache||new_rows (the
    new rows themselves when the cache is empty) and a copy of its newest
    n_keep rows, which seed the next step. The copy keeps a state from
    pinning the whole window.
    """
    cache, new_rows = operand(cache, "cache"), operand(new_rows, "new cache rows")
    if cache.ndim != 2 or new_rows.shape[1:] != cache.shape[1:]:
        raise ShapeError(f"cannot append {new_rows.shape} rows to a {cache.shape} cache")
    window = np.concatenate([cache, new_rows], axis=0) if cache.shape[0] else new_rows
    if not 0 <= n_keep <= window.shape[0]:
        raise StateError(f"cannot keep {n_keep} rows of a {window.shape[0]}-row window")
    return window, window[window.shape[0] - n_keep :].copy()


@dataclass
class StreamState:
    tensors: dict[str, np.ndarray]  # by encoder.state_spec name, see above
    settle_delay: int  # the attention context's settle_delay() the stream runs under
    tokens_in: int = 0  # tokens read by layer 0
    finished: bool = False

    def counts(self, i: int) -> tuple[int, int]:
        """Layer i's inputs seen and outputs settled; a finished stream has settled all."""
        if self.finished:
            return self.tokens_in, self.tokens_in
        t, m = self.tokens_in, self.settle_delay
        return max(0, t - i * m), max(0, t - (i + 1) * m)

    @property
    def tokens_emitted(self) -> int:
        """Encoder tokens settled at the top; the state holds one `rows` per layer."""
        return self.counts(sum(name.endswith(".rows") for name in self.tensors) - 1)[1]

    def float_count(self) -> int:
        return sum(t.size for t in self.tensors.values())
