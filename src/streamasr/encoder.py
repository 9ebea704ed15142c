"""Limited-context conformer-style encoder with exact chunked inference.

Block layout (pre-norm, macaron):

    x1  = x  + 0.5 * FFN1(x)          FFN = LN -> W1 -> swish -> W2
    x2  = x1 + MHSA(LN(x1))           masked, relative-position bias
    x3  = x2 + Conv(LN(x2))           pointwise -> GLU -> causal depthwise ->
                                      LN (in place of batch norm) -> swish ->
                                      pointwise
    out = LN(x3 + 0.5 * FFN2(x3))

Every normalization is a per-step layer norm and every convolution is causal,
so apart from self-attention no sublayer looks ahead. Attention look-ahead is
governed by an AttentionContext. Positions enter only through relative
offsets (a learned per-head bias table), never absolutely, which is what
makes cached chunked processing reproduce the single-pass computation bit for
bit: every output element is reduced from the same operand sequence in the
same order in both modes.

The downsampler is a stack of log2(rate) stride-2 kernel-3 convolutions, each
aligned so token j reads inputs 2j-1 .. 2j+1 (zero at index -1). A token
therefore depends on its own frame group plus rate-1 past frames and never on
later groups, and carrying 2*log2(rate)+1 trailing mel frames between chunks
is enough to reproduce the single-pass output exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cache import (
    LayerCache,
    StreamState,
    attn_cache_update,
    attn_keep_rows,
    conv_cache_apply_update,
    pending_update,
)
from .context import AttentionContext
from .errors import ChunkingError, ConfigError, SessionError, ShapeError, StateError
from .ledger import ComputeLedger
from .numerics import (
    Rng,
    check_finite,
    depthwise_conv1d_causal,
    glu,
    layer_norm,
    linear,
    matmul64,
    swish,
)


@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int
    d_model: int
    n_heads: int
    conv_kernel: int
    downsampling_rate: int
    attention: AttentionContext
    ffn_expansion: int = 4
    n_mels: int = 80
    bias_past: int | None = None
    bias_future: int | None = None

    def __post_init__(self):
        if min(self.n_layers, self.d_model, self.n_heads) < 1:
            raise ConfigError("n_layers, d_model and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.conv_kernel < 1:
            raise ConfigError("conv_kernel must be >= 1")
        if self.downsampling_rate not in (1, 2, 4, 8):
            raise ConfigError(
                f"downsampling_rate must be a power of 2 in {{1,2,4,8}}, got "
                f"{self.downsampling_rate}"
            )
        if self.ffn_expansion < 1 or self.n_mels < 1:
            raise ConfigError("ffn_expansion and n_mels must be >= 1")
        if self.bias_past is None:
            object.__setattr__(self, "bias_past", self.attention.past_span())
        if self.bias_future is None:
            object.__setattr__(self, "bias_future", self.attention.future_span())
        if min(self.bias_past, self.bias_future) < 0:
            raise ConfigError("bias_past and bias_future must be >= 0")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_ffn(self) -> int:
        return self.d_model * self.ffn_expansion

    @property
    def n_stages(self) -> int:
        return int(math.log2(self.downsampling_rate))

    @property
    def residual_frames(self) -> int:
        """Mel frames carried between chunks for the downsampler."""
        if self.downsampling_rate == 1:
            return 0
        return 2 * self.n_stages + 1

    def with_attention(self, attention: AttentionContext) -> "EncoderConfig":
        """Same weights-compatible config under a different mask (bias spans kept)."""
        return replace(self, attention=attention)


def encoder_weight_spec(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...], object]]:
    """Ordered tensor list: (name, shape, init). init is a fan-in int, "ones" or None (zeros)."""
    d, f, k = cfg.d_model, cfg.d_ffn, cfg.conv_kernel
    spec: list[tuple[str, tuple[int, ...], object]] = []
    c_in = cfg.n_mels
    for s in range(cfg.n_stages):
        spec.append((f"ds.stage{s}.w", (3, c_in, d), 3 * c_in))
        spec.append((f"ds.stage{s}.b", (d,), None))
        c_in = d
    spec.append(("ds.proj.w", (c_in, d), c_in))
    spec.append(("ds.proj.b", (d,), None))
    span = cfg.bias_past + cfg.bias_future + 1
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        for mod in ("ffn1", "ffn2"):
            spec += [
                (f"{p}.{mod}.ln_g", (d,), "ones"),
                (f"{p}.{mod}.ln_b", (d,), None),
                (f"{p}.{mod}.w1", (d, f), d),
                (f"{p}.{mod}.b1", (f,), None),
                (f"{p}.{mod}.w2", (f, d), f),
                (f"{p}.{mod}.b2", (d,), None),
            ]
        spec += [
            (f"{p}.attn.ln_g", (d,), "ones"),
            (f"{p}.attn.ln_b", (d,), None),
            (f"{p}.attn.wq", (d, d), d),
            (f"{p}.attn.bq", (d,), None),
            (f"{p}.attn.wk", (d, d), d),
            (f"{p}.attn.bk", (d,), None),
            (f"{p}.attn.wv", (d, d), d),
            (f"{p}.attn.bv", (d,), None),
            (f"{p}.attn.wo", (d, d), d),
            (f"{p}.attn.bo", (d,), None),
            (f"{p}.attn.bias", (cfg.n_heads, span), d),
            (f"{p}.conv.ln_g", (d,), "ones"),
            (f"{p}.conv.ln_b", (d,), None),
            (f"{p}.conv.pw1", (d, 2 * d), d),
            (f"{p}.conv.pw1_b", (2 * d,), None),
            (f"{p}.conv.dw", (d, k), k),
            (f"{p}.conv.dw_b", (d,), None),
            (f"{p}.conv.ln2_g", (d,), "ones"),
            (f"{p}.conv.ln2_b", (d,), None),
            (f"{p}.conv.pw2", (d, d), d),
            (f"{p}.conv.pw2_b", (d,), None),
            (f"{p}.out.ln_g", (d,), "ones"),
            (f"{p}.out.ln_b", (d,), None),
        ]
    return spec


class EncoderWeights:
    """The encoder's tensors, and per layer a dict built once: the layer's
    tensors without their `layers.{i}.` prefix, plus the K and V projections
    side by side as one (d, 2d) weight `attn.wkv` and bias `attn.bkv`."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.tensors = tensors
        self._layers: dict[int, dict[str, np.ndarray]] = {}
        for name, v in tensors.items():
            if name.startswith("layers."):
                i, rest = name[len("layers.") :].split(".", 1)
                self._layers.setdefault(int(i), {})[rest] = v
        for lw in self._layers.values():
            lw["attn.wkv"] = np.concatenate([lw["attn.wk"], lw["attn.wv"]], axis=1)
            lw["attn.bkv"] = np.concatenate([lw["attn.bk"], lw["attn.bv"]])

    def layer(self, i: int) -> dict[str, np.ndarray]:
        return self._layers[i]


def init_tensors(
    spec: list[tuple[str, tuple[int, ...], object]], rng: Rng
) -> dict[str, np.ndarray]:
    out = {}
    for name, shape, init in spec:
        if init == "ones":
            out[name] = np.ones(shape, dtype=np.float32)
        elif init is None:
            out[name] = np.zeros(shape, dtype=np.float32)
        else:
            out[name] = rng.uniform(shape, 1.0 / math.sqrt(int(init)))
    return out


# ---------------------------------------------------------------------------
# downsampler


def downsample_segment(
    w: EncoderWeights,
    cfg: EncoderConfig,
    segment: np.ndarray,
    seg_start: int,
    j_lo: int,
    j_hi: int,
) -> np.ndarray:
    """Downsampler outputs for global token indices j_lo..j_hi.

    `segment` holds mel frames starting at global frame index seg_start; it
    must cover every frame the requested tokens depend on. Indexing is kept
    global throughout, so a token computed from a chunk-plus-residual segment
    uses exactly the operands of the whole-utterance computation.
    """
    d = cfg.d_model
    if j_hi < j_lo:
        return np.zeros((0, d), dtype=np.float32)
    ranges = [(j_lo, j_hi)]
    for _ in range(cfg.n_stages):
        lo, hi = ranges[-1]
        ranges.append((2 * lo - 1, 2 * hi + 1))
    ranges.reverse()
    flo, fhi = ranges[0]
    if fhi > seg_start + segment.shape[0] - 1:
        raise ChunkingError(
            f"segment ends at frame {seg_start + segment.shape[0] - 1}, token {j_hi} "
            f"needs frame {fhi}"
        )
    if flo >= 0 and flo < seg_start:
        raise ChunkingError(f"segment starts at frame {seg_start}, token {j_lo} needs {flo}")
    idx = np.arange(flo, fhi + 1)
    cur = np.zeros((idx.size, segment.shape[1]), dtype=np.float32)
    valid = idx >= 0
    cur[valid] = segment[idx[valid] - seg_start]
    cur_idx = idx
    for s in range(cfg.n_stages):
        out_lo, out_hi = ranges[s + 1]
        n_out = out_hi - out_lo + 1
        ws = w.tensors[f"ds.stage{s}.w"]
        acc = np.zeros((n_out, d), dtype=np.float64)
        for r in range(3):
            first = (2 * out_lo + r - 1) - cur_idx[0]
            rows = cur[first : first + 2 * n_out : 2]
            acc += matmul64(rows, ws[r])
        acc += w.tensors[f"ds.stage{s}.b"].astype(np.float64)
        cur = swish(acc.astype(np.float32))
        cur_idx = np.arange(out_lo, out_hi + 1)
        cur[cur_idx < 0] = 0.0  # stage outputs left of the sequence are padding
    return linear(cur, w.tensors["ds.proj.w"], w.tensors["ds.proj.b"])


def downsampler_macs_per_token(cfg: EncoderConfig) -> int:
    n = cfg.n_stages
    total = 0
    c_in = cfg.n_mels
    for s in range(n):
        total += (2 ** (n - 1 - s)) * 3 * c_in * cfg.d_model
        c_in = cfg.d_model
    return total + c_in * cfg.d_model


# ---------------------------------------------------------------------------
# block internals


def _ffn_module(lw: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    h = layer_norm(x, lw[f"{prefix}.ln_g"], lw[f"{prefix}.ln_b"])
    h = swish(linear(h, lw[f"{prefix}.w1"], lw[f"{prefix}.b1"]))
    return linear(h, lw[f"{prefix}.w2"], lw[f"{prefix}.b2"])


def query_groups(
    ctx: AttentionContext, qpos: np.ndarray, avail_hi: int
) -> list[tuple[int, int, int, int]]:
    """(row_lo, row_hi, key_lo, key_hi) runs of consecutive queries whose key
    interval, clipped at avail_hi, is the same.

    Chunk-regime queries share an interval exactly when they share a chunk.
    """
    groups: list[tuple[int, int, int, int]] = []
    for r in range(qpos.shape[0]):
        lo, hi = ctx.attend_interval(int(qpos[r]))
        hi = min(hi, avail_hi)
        if groups and groups[-1][2:] == (lo, hi):
            groups[-1] = (groups[-1][0], r, lo, hi)
        else:
            groups.append((r, r, lo, hi))
    return groups


def _attend(
    cfg: EncoderConfig,
    lw: dict,
    q_ain: np.ndarray,
    qpos: np.ndarray,
    key_ain: np.ndarray,
    key_base: int,
    groups: list[tuple[int, int, int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Masked multi-head attention over precomputed intervals.

    Keys are addressed globally; each group's scores, softmax and value sums
    run over exactly the slice [key_lo, key_hi], so results do not depend on
    what else happens to be in the key array. All heads go through one
    batched matmul64 per product, each head summing as it would alone.
    """
    d, heads, dh = cfg.d_model, cfg.n_heads, cfg.d_head
    q = linear(q_ain, lw["attn.wq"], lw["attn.bq"])
    kv = linear(key_ain, lw["attn.wkv"], lw["attn.bkv"])
    # a -inf score gets softmax weight 0, which would hide a non-finite key
    check_finite(kv, "attention K|V projection")
    # per-head views: q and v (heads, rows, dh), k transposed (heads, dh, keys)
    qh = q.reshape(-1, heads, dh).transpose(1, 0, 2)
    kh = kv[:, :d].reshape(-1, heads, dh).transpose(1, 2, 0)
    vh = kv[:, d:].reshape(-1, heads, dh).transpose(1, 0, 2)
    scale = 1.0 / math.sqrt(dh)
    bias = lw["attn.bias"].astype(np.float64)
    sp, sf = cfg.bias_past, cfg.bias_future
    ctx_out = np.zeros((q.shape[0], heads, dh), dtype=np.float32)
    pairs = np.zeros(q.shape[0], dtype=np.int64)
    for r0, r1, lo, hi in groups:
        if lo < key_base or hi - key_base + 1 > kv.shape[0]:
            raise SessionError(
                f"attention cache does not cover keys [{lo},{hi}] (base {key_base})"
            )
        keys = slice(lo - key_base, hi - key_base + 1)
        offs = qpos[r0 : r1 + 1, None] - np.arange(lo, hi + 1)[None, :]
        idx = np.clip(offs, -sf, sp) + sf
        pairs[r0 : r1 + 1] = hi - lo + 1
        s64 = matmul64(qh[:, r0 : r1 + 1], kh[:, :, keys]) * scale + bias[:, idx]
        m = s64.max(axis=2, keepdims=True)
        e = np.exp(s64 - m)
        wrow = (e / e.sum(axis=2, keepdims=True)).astype(np.float32)
        ctx_out[r0 : r1 + 1] = matmul64(wrow, vh[:, keys]).astype(np.float32).transpose(1, 0, 2)
    return linear(ctx_out.reshape(-1, d), lw["attn.wo"], lw["attn.bo"]), pairs


def _layer_arrival(
    cfg: EncoderConfig, lw: dict, x_new: np.ndarray, rec: ComputeLedger | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token work done once when an input token reaches this layer."""
    if x_new.shape[0] == 0:
        e = np.zeros((0, cfg.d_model), dtype=np.float32)
        return e, e
    x1 = x_new + np.float32(0.5) * _ffn_module(lw, "ffn1", x_new)
    a_in = layer_norm(x1, lw["attn.ln_g"], lw["attn.ln_b"])
    if rec is not None:
        d, f = cfg.d_model, cfg.d_ffn
        rec.add("ffn", x_new.shape[0] * (2 * d * f + 2 * d * d))  # FFN1 + K,V projections
    return x1, a_in


def _layer_window(
    cfg: EncoderConfig,
    lw: dict,
    x1_win: np.ndarray,
    key_ain: np.ndarray,
    key_base: int,
    conv_hist: np.ndarray | None,
    n_settle: int,
    rec: ComputeLedger | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one block over a query window; rows beyond n_settle are speculative.

    The queries are the newest len(x1_win) attention inputs in key_ain, whose
    first row sits at global position key_base.
    """
    n_rows = x1_win.shape[0]
    end = key_base + key_ain.shape[0]
    qpos = np.arange(end - n_rows, end)
    groups = query_groups(cfg.attention, qpos, end - 1)
    q_ain = key_ain[key_ain.shape[0] - n_rows :]
    attn_out, pairs = _attend(cfg, lw, q_ain, qpos, key_ain, key_base, groups)
    x2 = x1_win + attn_out
    c = layer_norm(x2, lw["conv.ln_g"], lw["conv.ln_b"])
    pw = linear(c, lw["conv.pw1"], lw["conv.pw1_b"])
    check_finite(pw, "conv pointwise")  # the GLU's sigmoid maps an infinite gate to 0 or 1
    g = glu(pw)
    cv = depthwise_conv1d_causal(g, lw["conv.dw"], lw["conv.dw_b"], conv_hist)
    cv = swish(layer_norm(cv, lw["conv.ln2_g"], lw["conv.ln2_b"]))
    x3 = x2 + linear(cv, lw["conv.pw2"], lw["conv.pw2_b"])
    out = x3 + np.float32(0.5) * _ffn_module(lw, "ffn2", x3)
    out = layer_norm(out, lw["out.ln_g"], lw["out.ln_b"])
    check_finite(out, "encoder layer")
    if rec is not None:
        d, f, k = cfg.d_model, cfg.d_ffn, cfg.conv_kernel
        ffn_row = 2 * d * d + 3 * d * d + 2 * d * f  # Q,O + pointwise convs + FFN2
        rec.add("ffn", n_settle * ffn_row)
        rec.add("conv", n_settle * d * k)
        rec.add("attention", 2 * d * int(pairs[:n_settle].sum()))
        n_spec = n_rows - n_settle
        if n_spec > 0:
            rec.add("ffn", n_spec * ffn_row, duplicate=True)
            rec.add("conv", n_spec * d * k, duplicate=True)
            rec.add("attention", 2 * d * int(pairs[n_settle:].sum()), duplicate=True)
            rec.add_speculative_tokens(n_spec)
    return out, g[:n_settle]


# ---------------------------------------------------------------------------
# full-utterance and chunked entry points


def _as_frames(mel: np.ndarray) -> np.ndarray:
    return np.asarray(mel).astype(np.float32, copy=False)


def encode_full(
    mel: np.ndarray,
    w: EncoderWeights,
    cfg: EncoderConfig,
    rec: ComputeLedger | None = None,
) -> np.ndarray:
    """Whole-utterance forward pass; returns (n_tokens, d_model)."""
    frames = _as_frames(mel)
    if frames.shape[0] > 0 and frames.shape[1] != cfg.n_mels:
        raise ShapeError(f"mel has {frames.shape[1]} bins, config says {cfg.n_mels}")
    t = frames.shape[0] // cfg.downsampling_rate
    if t == 0:
        return np.zeros((0, cfg.d_model), dtype=np.float32)
    x = downsample_segment(w, cfg, frames, 0, 0, t - 1)
    if rec is not None:
        rec.add("downsampler", t * downsampler_macs_per_token(cfg))
    for i in range(cfg.n_layers):
        lw = w.layer(i)
        x1, ain = _layer_arrival(cfg, lw, x, rec)
        x, _ = _layer_window(cfg, lw, x1, ain, 0, None, t, rec)
    return x


def init_state(cfg: EncoderConfig) -> StreamState:
    d = cfg.d_model
    layers = [
        LayerCache(
            attn=np.zeros((0, d), dtype=np.float32),
            conv=np.zeros((cfg.conv_kernel - 1, d), dtype=np.float32),
            pending=np.zeros((0, d), dtype=np.float32),
        )
        for _ in range(cfg.n_layers)
    ]
    return StreamState(
        layers=layers,
        ds_residual=np.zeros((cfg.residual_frames, cfg.n_mels), dtype=np.float32),
    )


def _check_state(state: StreamState, cfg: EncoderConfig) -> None:
    """Raise StateError unless every cached tensor is float32 in the shape cfg's encoder needs."""
    d = cfg.d_model
    if len(state.layers) != cfg.n_layers:
        raise StateError(f"state has {len(state.layers)} layers, the encoder {cfg.n_layers}")
    shapes = [("ds_residual", state.ds_residual, cfg.residual_frames, cfg.n_mels)]
    for i, lc in enumerate(state.layers):
        shapes += [(f"layer{i}.attn", lc.attn, None, d),
                   (f"layer{i}.conv", lc.conv, cfg.conv_kernel - 1, d),
                   (f"layer{i}.pending", lc.pending, None, d)]
    for name, arr, rows, cols in shapes:
        bad_shape = arr.ndim != 2 or arr.shape[1] != cols or rows not in (None, arr.shape[0])
        if bad_shape or arr.dtype != np.float32:
            want = "any number of" if rows is None else rows
            raise StateError(f"{name} is {arr.dtype} {arr.shape}, the encoder needs {want} "
                             f"float32 rows of {cols}")


def encode_step(
    chunk: np.ndarray,
    state: StreamState,
    w: EncoderWeights,
    cfg: EncoderConfig,
    rec: ComputeLedger | None = None,
    final: bool = False,
) -> tuple[np.ndarray, StreamState]:
    """Consume one chunk of mel frames, return newly settled encoder tokens.

    Concatenating the outputs over a stream equals encode_full of the whole
    input exactly. Non-final chunks must be whole downsampler groups, and a
    multiple of the context's step_tokens() tokens; the final chunk may be
    any length (a trailing partial frame group yields no token).
    """
    frames = _as_frames(chunk)
    if state.finished:
        raise SessionError("stream already finalized")
    _check_state(state, cfg)
    if frames.shape[0] > 0 and frames.shape[1] != cfg.n_mels:
        raise ShapeError(f"mel has {frames.shape[1]} bins, config says {cfg.n_mels}")
    dr = cfg.downsampling_rate
    if not final and frames.shape[0] % dr != 0:
        raise ChunkingError(
            f"non-final chunk of {frames.shape[0]} frames is not a multiple of {dr}"
        )
    n_new = (state.mel_seen + frames.shape[0]) // dr - state.tokens_in
    ctx = cfg.attention
    if not final and n_new % ctx.step_tokens() != 0:
        raise ChunkingError(
            f"attention context expects multiples of {ctx.step_tokens()} tokens per step, "
            f"got {n_new}"
        )
    if final:
        state.finished = True

    seg = np.concatenate([state.ds_residual, frames], axis=0)
    seg_start = state.mel_seen - state.ds_residual.shape[0]
    j_lo, j_hi = state.tokens_in, state.tokens_in + n_new - 1
    new_x = downsample_segment(w, cfg, seg, seg_start, j_lo, j_hi)
    if rec is not None and n_new > 0:
        rec.add("downsampler", n_new * downsampler_macs_per_token(cfg))
    r = cfg.residual_frames
    state.ds_residual = seg[seg.shape[0] - r :].copy() if r > 0 else seg[:0]
    state.mel_seen += frames.shape[0]
    state.tokens_in += n_new

    delay = ctx.settle_delay()
    for i, lc in enumerate(state.layers):
        lw = w.layer(i)
        x1n, ainn = _layer_arrival(cfg, lw, new_x, rec)
        lc.n_in += new_x.shape[0]
        settle_to = lc.n_in if final else max(lc.n_out, lc.n_in - delay)
        n_settle = settle_to - lc.n_out
        x1_win, lc.pending = pending_update(lc.pending, x1n, n_settle)
        keys, lc.attn = attn_cache_update(lc.attn, ainn, attn_keep_rows(ctx, lc.n_in, settle_to))
        if x1_win.shape[0] == 0:
            new_x = np.zeros((0, cfg.d_model), dtype=np.float32)
            continue
        out, g_settled = _layer_window(
            cfg, lw, x1_win, keys, lc.n_in - keys.shape[0], lc.conv, n_settle, rec
        )
        _, lc.conv = conv_cache_apply_update(lc.conv, g_settled, cfg.conv_kernel)
        lc.n_out = settle_to
        new_x = out[:n_settle]
    state.tokens_emitted += new_x.shape[0]
    return new_x, state
