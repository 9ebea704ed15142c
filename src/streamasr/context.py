"""Attention look-ahead geometry: key intervals, effective look-ahead, latency math.

Three regimes limit what a token may attend to:
  zero     - only the past (optionally capped at `left_context` tokens back).
  regular  - a window [t - left_context, t + m]; the per-layer look-ahead m
             compounds with depth, so n layers see m*n tokens ahead.
  chunk    - everything in the token's own chunk of size `chunk` plus the
             previous `left_chunks` chunks; depth does not grow the look-ahead.

All sizes are in post-downsampling tokens. This module is the only one that
branches on the regime: the encoder, the caches and the session engine take
every attention question to attend_interval or receptive_field_tokens.
It also holds check_fields, the field-type rule every config dataclass applies.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import dataclass, fields

from .errors import ConfigError

ZERO = "zero"
REGULAR = "regular"
CHUNK = "chunk"

# int accepts any integral value and float any real number; a bool is neither
_ACCEPTS = {int: numbers.Integral, float: numbers.Real}
_NAMES = {numbers.Integral: "an integer", numbers.Real: "a number", str: "a string",
          type(None): "null"}


@functools.cache
def field_types(cls) -> dict[str, tuple[type, ...]]:
    """Per field of the dataclass cls, the types its annotation accepts (an
    `X | None` union accepts X and None)."""
    hints = typing.get_type_hints(cls)
    accepted = {}
    for f in fields(cls):
        tp = hints[f.name]
        named = typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
        accepted[f.name] = tuple(_ACCEPTS.get(t, t) for t in named)
    return accepted


def check_fields(cfg) -> None:
    """Raise ConfigError unless each field of the frozen config dataclass cfg
    holds a value of an annotated type; store each integer as an int and any
    other value as given."""
    for name, accepted in field_types(type(cfg)).items():
        v = getattr(cfg, name)
        if isinstance(v, bool) or not isinstance(v, accepted):
            expected = " or ".join(_NAMES.get(t, f"an {t.__name__}") for t in accepted)
            raise ConfigError(f"{type(cfg).__name__}.{name} must be {expected}, got {v!r}")
        if numbers.Integral in accepted and v is not None:
            object.__setattr__(cfg, name, int(v))


@dataclass(frozen=True)
class AttentionContext:
    regime: str
    m: int = 0
    left_context: int | None = None
    chunk: int = 1
    left_chunks: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.regime not in (ZERO, REGULAR, CHUNK):
            raise ConfigError(f"unknown attention regime {self.regime!r}")
        if self.regime == REGULAR:
            if self.m < 0:
                raise ConfigError("regular look-ahead m must be >= 0")
            if self.left_context is None or self.left_context < 0:
                raise ConfigError("regular regime needs a finite left_context >= 0")
        if self.regime == CHUNK:
            if self.chunk < 1:
                raise ConfigError("chunk size must be >= 1")
            if self.left_chunks < 0:
                raise ConfigError("left_chunks must be >= 0")
        if self.regime == ZERO and self.left_context is not None and self.left_context < 0:
            raise ConfigError("left_context must be >= 0")

    @staticmethod
    def zero(left_context: int | None = None) -> "AttentionContext":
        return AttentionContext(ZERO, left_context=left_context)

    @staticmethod
    def regular(m: int, left_context: int) -> "AttentionContext":
        return AttentionContext(REGULAR, m=m, left_context=left_context)

    @staticmethod
    def chunked(chunk: int, left_chunks: int) -> "AttentionContext":
        return AttentionContext(CHUNK, chunk=chunk, left_chunks=left_chunks)

    def attend_interval(self, pos: int) -> tuple[int, int]:
        """Global key interval [lo, hi] a query at global `pos` may attend.

        lo is clipped at 0; hi is not clipped (callers clip at the number of
        keys actually available, which is how sequence ends behave).
        """
        if self.regime == ZERO:
            lo = 0 if self.left_context is None else pos - self.left_context
            return max(0, lo), pos
        if self.regime == REGULAR:
            return max(0, pos - self.left_context), pos + self.m
        start = (pos // self.chunk) * self.chunk
        return max(0, start - self.left_chunks * self.chunk), start + self.chunk - 1

    def past_span(self) -> int:
        """Largest query-minus-key offset reachable under the mask (for bias tables)."""
        if self.regime == ZERO:
            return self.left_context if self.left_context is not None else 64
        if self.regime == REGULAR:
            return self.left_context
        return (self.left_chunks + 1) * self.chunk - 1

    def future_span(self) -> int:
        if self.regime == ZERO:
            return 0
        if self.regime == REGULAR:
            return self.m
        return self.chunk - 1

    def settle_delay(self) -> int:
        """Tokens of future input each layer needs before its output is final."""
        return self.m if self.regime == REGULAR else 0

    def step_tokens(self) -> int:
        """Natural streaming step size in tokens: a chunk, or else one token."""
        return self.chunk if self.regime == CHUNK else 1


@dataclass(frozen=True)
class LatencyModel:
    frame_shift_ms: float
    downsampling_rate: int
    n_layers: int

    def __post_init__(self):
        check_fields(self)
        finite_shift = 0 < self.frame_shift_ms < math.inf
        if not finite_shift or min(self.downsampling_rate, self.n_layers) < 1:
            raise ConfigError(f"LatencyModel fields must be positive and finite: {self}")

    @property
    def token_ms(self) -> float:
        return self.frame_shift_ms * self.downsampling_rate


def effective_lookahead(ctx: AttentionContext, n_layers: int) -> int:
    """Maximum future dependency of any output token, in tokens."""
    if n_layers < 1:
        raise ConfigError("n_layers must be >= 1")
    if ctx.regime == ZERO:
        return 0
    if ctx.regime == REGULAR:
        return ctx.m * n_layers
    return ctx.chunk - 1


@dataclass(frozen=True)
class LatencyBounds:
    max_ms: float
    avg_ms: float


def latency_ms(ctx: AttentionContext, lm: LatencyModel) -> LatencyBounds:
    """Algorithmic latency bounds implied by the look-ahead geometry.

    The average is half the maximum: chunk look-ahead is uniform over
    [0, chunk-1], and the same halved-maximum convention is applied to the
    constant regular look-ahead.
    """
    la = effective_lookahead(ctx, lm.n_layers)
    max_ms = la * lm.token_ms
    return LatencyBounds(max_ms=max_ms, avg_ms=max_ms / 2.0)


def feasible_regular_latencies(lm: LatencyModel, m_max: int) -> list[float]:
    """Latencies reachable with regular look-ahead: multiples of n_layers*token_ms."""
    if m_max < 0:
        raise ConfigError("m_max must be >= 0")
    return [m * lm.n_layers * lm.token_ms for m in range(m_max + 1)]


def receptive_field_tokens(
    ctx: AttentionContext, n_layers: int, conv_kernel: int, pos: int, total: int
) -> tuple[int, int]:
    """Exact token-level dependency interval of output token `pos`.

    Walks the per-block extension backward: a block output reads the causal
    conv window (conv_kernel-1 past steps) of attention outputs, whose own
    inputs follow the regime's interval; so the conv widening applies before
    the attention widening. Clipped to [0, total-1].
    """
    lo = hi = pos
    for _ in range(n_layers):
        lo = ctx.attend_interval(max(0, lo - (conv_kernel - 1)))[0]
        hi = min(ctx.attend_interval(hi)[1], total - 1)
    return lo, hi


def receptive_field_frames(
    ctx: AttentionContext,
    n_layers: int,
    conv_kernel: int,
    downsampling_rate: int,
    pos: int,
    total_tokens: int,
    total_frames: int,
) -> tuple[int, int]:
    """Exact mel-frame dependency interval of output token `pos`.

    A downsampled token j covers frames [j*D - (D-1), j*D + (D-1)] where D is
    the downsampling rate: its own frame group plus D-1 past frames.
    """
    lo_t, hi_t = receptive_field_tokens(ctx, n_layers, conv_kernel, pos, total_tokens)
    d = downsampling_rate
    lo_f = max(0, lo_t * d - (d - 1))
    hi_f = min(total_frames - 1, hi_t * d + (d - 1))
    return lo_f, hi_f
