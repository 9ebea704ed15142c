"""Multiply-accumulate accounting for inference runs.

The MAC model is token-level and counts the products that run:

  attention   - 2 * d_model per unmasked query-key pair (score dot product
                plus value aggregation).
  conv        - d_model * kernel per token per depthwise convolution.
  ffn         - per-token linear layers: the two macaron FFN modules
                (2 * d * d_ffn each), the QKVO projections (4 * d^2) and the
                conv-module pointwise layers (3 * d^2).
  downsampler - stride-2 stage outputs and the projection of each token.
  decoder     - d_model * V per encoder row for the CTC head; for the RNNT
                head d_model * d_joint per encoder row (its joint
                projection), pred_layers * 2 * d_pred^2 per prediction-net
                step, d_pred * d_joint per prediction state made (the zero
                state too) and d_joint * V per joint call.

Each product is booked once, at the step where it runs
(encoder.layer_macs_per_token): FFN1 and Q, K, V when a token reaches a
layer, the rest per query row, and each downsampler stage row once per
stream; encode_step sums a step's encoder MACs and books each category
once per step. Normalizations and elementwise activations carry no MACs. A
streaming step runs only the query rows it settles, so in every streaming
regime each product runs once, the duplicate counter stays at zero, and
per-step totals sum to exactly the single-pass total. The counter tracks the
buffered baseline alone: run_buffered books the share of each window's MACs
spent on context regions that are discarded and computed again later.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from .errors import ArgumentError

CATEGORIES = ("attention", "conv", "ffn", "downsampler", "decoder")
_BOOKABLE = CATEGORIES + ("duplicate",)


@dataclass
class StepMacs:
    attention: int = 0
    conv: int = 0
    ffn: int = 0
    downsampler: int = 0
    decoder: int = 0
    duplicate: int = 0

    @property
    def total(self) -> int:
        return self.attention + self.conv + self.ffn + self.downsampler + self.decoder


@dataclass
class ComputeLedger:
    steps: list[StepMacs] = field(default_factory=list)

    def new_step(self) -> StepMacs:
        step = StepMacs()
        self.steps.append(step)
        return step

    @property
    def current(self) -> StepMacs:
        if not self.steps:
            return self.new_step()
        return self.steps[-1]

    def add(self, category: str, macs: int) -> None:
        """Book `macs`, a non-negative integer, to `category` of the current step."""
        if category not in _BOOKABLE:
            raise ArgumentError(f"no MAC category {category!r}; the ledger books "
                                f"{', '.join(CATEGORIES)} and duplicate")
        if type(macs) is not int and (isinstance(macs, bool)
                                      or not isinstance(macs, numbers.Integral)) or macs < 0:
            raise ArgumentError(f"MACs must be a non-negative integer, got {macs!r}")
        step = self.current
        setattr(step, category, getattr(step, category) + int(macs))

    def category_total(self, category: str) -> int:
        return sum(getattr(s, category) for s in self.steps)

    @property
    def duplicate_macs(self) -> int:
        return sum(s.duplicate for s in self.steps)

    @property
    def total(self) -> int:
        return sum(s.total for s in self.steps)

    def to_dict(self) -> dict:
        return {
            **{c: self.category_total(c) for c in CATEGORIES},
            "total": self.total,
            "duplicate": self.duplicate_macs,
            "steps": len(self.steps),
        }
