"""Independent oracles and fixtures shared across the test suite.

Everything here is deliberately naive: triple loops, exhaustive path
enumeration, rational arithmetic. Oracles never call the code they check.
"""

from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction

import numpy as np

from streamasr import (
    AttentionContext,
    AudioBuffer,
    ComputeLedger,
    EncoderConfig,
    EncoderWeights,
    HeadConfig,
    ModelConfig,
    Vocab,
    init_model,
)
from streamasr.context import ZERO
from streamasr.encoder import downsampler_macs_per_token, encoder_weight_spec, init_tensors
from streamasr.errors import ArgumentError, ConfigError, ShapeError, StreamAsrError
from streamasr.numerics import Rng


class DegenerateMaskError(StreamAsrError):
    code = "mask"


def build_mask(ctx: AttentionContext, t: int, query_offset: int = 0) -> np.ndarray:
    """Boolean mask (t queries x query_offset+t keys): True where attention is allowed.

    Row i is the query at global position query_offset+i; columns are global
    key positions starting at 0. Building the whole utterance at offset 0 and
    slicing out a chunk's rows gives the same mask as building that chunk with
    its offset, which is the property streaming relies on.
    """
    if t < 1:
        raise ConfigError("mask needs at least one query token")
    if query_offset < 0:
        raise ConfigError("query_offset must be >= 0")
    n_keys = query_offset + t
    mask = np.zeros((t, n_keys), dtype=bool)
    for i in range(t):
        lo, hi = ctx.attend_interval(query_offset + i)
        mask[i, lo : min(hi, n_keys - 1) + 1] = True
    return mask


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for k in range(a.shape[1]):
                s += a64[i, k] * b64[k, j]
            out[i, j] = s
    return out.astype(np.float32)


def matmul64_kloop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul64's oracle, for (m, k) x (k, n) or batched (h, m, k) x (h, k, n):
    each element summed over k in ascending order, each product rounded to
    float64 before it is added. Element-wise numpy operations only, so no
    operand layout can change the order."""
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    acc = np.zeros(a64.shape[:-1] + b64.shape[-1:], dtype=np.float64)
    for k in range(a64.shape[-1]):
        acc += a64[..., :, k, None] * b64[..., None, k, :]
    return acc


def sigmoid_mask(x: np.ndarray) -> np.ndarray:
    """sigmoid's oracle: each formula applied only to its own elements by a
    boolean-mask gather and scatter."""
    x64 = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x64)
    pos = x64 >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x64[pos]))
    ez = np.exp(x64[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out.astype(np.float32)


def attend_per_head(cfg: EncoderConfig, lw: dict, q_ain: np.ndarray, qpos: np.ndarray,
                    key_ain: np.ndarray, key_base: int, groups) -> np.ndarray:
    """encoder._attend's oracle: separate Q, K and V projections, then one
    head at a time, every product a k-loop."""
    def lin(x, w, b):
        return matmul64_kloop(x, w).astype(np.float32) + b

    q = lin(q_ain, lw["attn.wq"], lw["attn.bq"])
    k = lin(key_ain, lw["attn.wk"], lw["attn.bk"])
    v = lin(key_ain, lw["attn.wv"], lw["attn.bv"])
    dh = cfg.d_head
    bias = lw["attn.bias"].astype(np.float64)
    ctx = np.zeros_like(q)
    for r0, r1, lo, hi in groups:
        keys = slice(lo - key_base, hi - key_base + 1)
        offs = qpos[r0 : r1 + 1, None] - np.arange(lo, hi + 1)[None, :]
        idx = np.clip(offs, -cfg.bias_future, cfg.bias_past) + cfg.bias_future
        for h in range(cfg.n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            s64 = (matmul64_kloop(q[r0 : r1 + 1, cols], k[keys, cols].T) * (1.0 / math.sqrt(dh))
                   + bias[h][idx])
            e = np.exp(s64 - s64.max(axis=1, keepdims=True))
            wts = (e / e.sum(axis=1, keepdims=True)).astype(np.float32)
            ctx[r0 : r1 + 1, cols] = matmul64_kloop(wts, v[keys, cols]).astype(np.float32)
    return lin(ctx, lw["attn.wo"], lw["attn.bo"])


def softmax_rational(scores: list[float], mask: list[bool], terms: int = 40) -> list[float]:
    """Softmax via rational-arithmetic exp series on the max-shifted scores."""
    m = max(s for s, keep in zip(scores, mask) if keep)

    def exp_frac(x: Fraction) -> Fraction:
        total = Fraction(1)
        term = Fraction(1)
        for n in range(1, terms):
            term *= x / n
            total += term
        return total

    exps = []
    for s, keep in zip(scores, mask):
        if keep:
            exps.append(exp_frac(Fraction(s - m).limit_denominator(10**12)))
        else:
            exps.append(Fraction(0))
    denom = sum(exps)
    return [float(e / denom) for e in exps]


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the allowed entries; masked entries are exactly 0."""
    scores = np.asarray(scores)
    mask = np.asarray(mask, dtype=bool)
    if scores.shape != mask.shape or scores.ndim != 2:
        raise ShapeError(f"scores {scores.shape} and mask {mask.shape} must be equal 2-D shapes")
    if not mask.any(axis=1).all():
        rows = np.where(~mask.any(axis=1))[0]
        raise DegenerateMaskError(f"fully masked rows: {rows.tolist()}")
    s = scores.astype(np.float64)
    m = np.max(np.where(mask, s, -np.inf), axis=1, keepdims=True)
    e = np.where(mask, np.exp(s - m), 0.0)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def count_macs(
    cfg: EncoderConfig,
    ctx: AttentionContext,
    n_tokens: int,
    mode: str = "offline",
    step_tokens: int | None = None,
) -> ComputeLedger:
    """Closed-form MAC model for an encoder pass over n_tokens.

    mode="offline" integrates the mask intervals directly; mode="streaming"
    walks the same per-step schedule the session engine uses (including
    regular-regime speculation), so engine ledgers must match this to the MAC.
    """
    if mode not in ("offline", "streaming"):
        raise ArgumentError(f"unknown mode {mode!r}")
    cfg = cfg.with_attention(ctx)
    ledger = ComputeLedger()
    if n_tokens == 0:
        return ledger
    d, f, k = cfg.d_model, cfg.d_ffn, cfg.conv_kernel
    arr = 2 * d * f + 2 * d * d  # FFN1 + K,V projections, once per arriving token
    set_ = 2 * d * d + 3 * d * d + 2 * d * f  # Q,O + pointwise convs + FFN2, per query row
    ds_tok = downsampler_macs_per_token(cfg)

    def pairs(pos: int, avail_hi: int) -> int:
        lo, hi = ctx.attend_interval(pos)
        return min(hi, avail_hi) - lo + 1

    if mode == "offline":
        ledger.new_step()
        ledger.add("downsampler", n_tokens * ds_tok)
        att = sum(pairs(t, n_tokens - 1) for t in range(n_tokens))
        for _ in range(cfg.n_layers):
            ledger.add("ffn", n_tokens * (arr + set_))
            ledger.add("conv", n_tokens * d * k)
            ledger.add("attention", att * 2 * d)
        return ledger

    step = (step_tokens or 1) if ctx.regime == ZERO else ctx.step_tokens()
    delay = ctx.settle_delay()
    n_in = [0] * cfg.n_layers
    n_out = [0] * cfg.n_layers
    fed = 0
    while True:
        final = fed + step > n_tokens
        arrive = n_tokens - fed if final else step
        fed += arrive
        ledger.new_step()
        if arrive > 0:
            ledger.add("downsampler", arrive * ds_tok)
        new_x = arrive
        for li in range(cfg.n_layers):
            if new_x > 0:
                ledger.add("ffn", new_x * arr)
            n_in[li] += new_x
            settle_to = n_in[li] if final else max(n_out[li], n_in[li] - delay)
            n_settle = settle_to - n_out[li]
            n_win = n_in[li] - n_out[li]
            if n_win == 0:
                new_x = 0
                continue
            avail = n_in[li] - 1
            settled_rows = range(n_out[li], settle_to)
            spec_rows = range(settle_to, n_in[li])
            ledger.add("ffn", n_settle * set_)
            ledger.add("conv", n_settle * d * k)
            ledger.add("attention", sum(pairs(q, avail) for q in settled_rows) * 2 * d)
            n_spec = len(spec_rows)
            if n_spec:
                ledger.add("ffn", n_spec * set_, duplicate=True)
                ledger.add("conv", n_spec * d * k, duplicate=True)
                ledger.add(
                    "attention", sum(pairs(q, avail) for q in spec_rows) * 2 * d,
                    duplicate=True,
                )
                ledger.add_speculative_tokens(n_spec)
            n_out[li] = settle_to
            new_x = n_settle
        if final:
            break
    return ledger


def dft_power_oracle(window: np.ndarray) -> np.ndarray:
    """Direct per-bin DFT magnitude squared."""
    n = len(window)
    out = np.zeros(n // 2 + 1)
    for b in range(n // 2 + 1):
        re = sum(window[k] * math.cos(-2 * math.pi * k * b / n) for k in range(n))
        im = sum(window[k] * math.sin(-2 * math.pi * k * b / n) for k in range(n))
        out[b] = re * re + im * im
    return out


def ctc_loss_enumeration(grid: np.ndarray, target: list[int], blank: int = 0) -> float:
    """Sum path probabilities over all V^T frame label sequences that collapse
    to the target."""
    t_len, v = grid.shape
    probs = np.exp(grid)
    total = 0.0
    for path in itertools.product(range(v), repeat=t_len):
        collapsed = []
        prev = None
        for p in path:
            if p != prev:
                if p != blank:
                    collapsed.append(p)
            prev = p
        if collapsed == list(target):
            pr = 1.0
            for t, p in enumerate(path):
                pr *= probs[t, p]
            total += pr
    return float("inf") if total == 0.0 else -math.log(total)


def rnnt_loss_enumeration(lp: np.ndarray, target: list[int], blank: int = 0) -> float:
    """Sum over all monotonic emit/advance paths through the (T, U+1) lattice."""
    t_len, u_len, _ = lp.shape
    u_total = u_len - 1
    probs = np.exp(lp)
    total = 0.0

    def walk(t: int, u: int, p: float) -> None:
        nonlocal total
        if t == t_len - 1 and u == u_total:
            total += p * probs[t, u, blank]
        if u < u_total:
            walk(t, u + 1, p * probs[t, u, target[u]])
        if t < t_len - 1:
            walk(t + 1, u, p * probs[t, u, blank])

    walk(0, 0, 1.0)
    return float("inf") if total == 0.0 else -math.log(total)


def rnnt_path_count(t_len: int, u_len: int) -> int:
    return math.comb(t_len + u_len - 1, u_len)


def wer_enumeration(ref: list[str], hyp: list[str]):
    """Exhaustive alignment search minimizing (cost, -S, -D)."""
    best = [None]

    def walk(i: int, j: int, s: int, d: int, ins: int) -> None:
        if i == len(ref) and j == len(hyp):
            key = (s + d + ins, -s, -d)
            if best[0] is None or key < best[0]:
                best[0] = key
            return
        if i < len(ref) and j < len(hyp):
            walk(i + 1, j + 1, s + (ref[i] != hyp[j]), d, ins)
        if i < len(ref):
            walk(i + 1, j, s, d + 1, ins)
        if j < len(hyp):
            walk(i, j + 1, s, d, ins + 1)

    walk(0, 0, 0, 0, 0)
    cost, neg_s, neg_d = best[0]
    return -neg_s, -neg_d, cost - (-neg_s) - (-neg_d)


def write_wav(path: str, samples: np.ndarray, sample_rate: int = 16000,
              channels: int = 1, bits: int = 16, audio_format: int = 1) -> None:
    samples = np.asarray(samples, dtype=np.int16)
    data = samples.astype("<i2").tobytes()
    byte_rate = sample_rate * channels * bits // 8
    block_align = channels * bits // 8
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + len(data)))
        f.write(b"WAVE")
        f.write(b"fmt ")
        f.write(struct.pack("<IHHIIHH", 16, audio_format, channels, sample_rate,
                            byte_rate, block_align, bits))
        f.write(b"data")
        f.write(struct.pack("<I", len(data)))
        f.write(data)


def synth_audio(seconds: float, seed: int, sample_rate: int = 16000) -> AudioBuffer:
    """Deterministic tone mixture with a little noise, int16."""
    rng = np.random.default_rng(seed)
    n = int(seconds * sample_rate)
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for _ in range(3):
        f = rng.uniform(80.0, 3500.0)
        x += rng.uniform(0.1, 0.4) * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x += 0.02 * rng.standard_normal(n)
    return AudioBuffer(sample_rate, (np.clip(x, -1, 1) * 12000).astype(np.int16))


def random_mel(n_frames: int, n_mels: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n_frames, n_mels)).astype(np.float32)


def tiny_encoder_config(
    ctx: AttentionContext | None = None,
    n_layers: int = 2,
    d_model: int = 16,
    n_heads: int = 2,
    conv_kernel: int = 3,
    downsampling_rate: int = 4,
    n_mels: int = 8,
    **kw,
) -> EncoderConfig:
    return EncoderConfig(
        n_layers=n_layers,
        d_model=d_model,
        n_heads=n_heads,
        conv_kernel=conv_kernel,
        downsampling_rate=downsampling_rate,
        attention=ctx or AttentionContext.chunked(3, 1),
        n_mels=n_mels,
        **kw,
    )


def init_encoder_weights(cfg: EncoderConfig, seed: int) -> EncoderWeights:
    return EncoderWeights(init_tensors(encoder_weight_spec(cfg), Rng(seed)))


def tiny_model(ctx: AttentionContext | None = None, seed: int = 11, vocab: Vocab | None = None,
               **enc_kw):
    vocab = vocab or Vocab.chars("abc ")
    cfg = ModelConfig(
        encoder=tiny_encoder_config(ctx, n_mels=enc_kw.pop("n_mels", 80), **enc_kw),
        vocab_size=vocab.size,
        d_pred=12,
        d_joint=12,
    )
    return init_model(cfg, seed), vocab


def random_head(seed: int = 3, d_model: int = 16, vocab_size: int = 5,
                d_pred: int = 8, d_joint: int = 8, pred_layers: int = 1):
    from streamasr.decoders import CtcHead, RnntHead, ctc_weight_spec, rnnt_weight_spec
    from streamasr.encoder import init_tensors
    from streamasr.numerics import Rng

    hc = HeadConfig(d_model=d_model, vocab_size=vocab_size, d_pred=d_pred,
                    pred_layers=pred_layers, d_joint=d_joint)
    rng = Rng(seed)
    ctc = init_tensors(ctc_weight_spec(hc), rng)
    rnnt = init_tensors(rnnt_weight_spec(hc), rng)
    return CtcHead(hc, ctc["ctc.w"], ctc["ctc.b"]), RnntHead(hc, rnnt)
