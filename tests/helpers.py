"""Independent oracles and fixtures shared across the test suite.

Everything here is deliberately naive: triple loops, exhaustive path
enumeration, rational arithmetic. Oracles never call the code they check.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import struct
import sys
import tracemalloc
from dataclasses import replace
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
    StreamingSession,
    Vocab,
    init_model,
)
from streamasr import encoder, features
from streamasr.context import ZERO
from streamasr.encoder import encoder_weight_spec, init_tensors
from streamasr.errors import ArgumentError, ConfigError, ShapeError, StreamAsrError
from streamasr.features import FeatureConfig, mel_filterbank
from streamasr.numerics import (
    LAYER_NORM_EPS,
    Rng,
    depthwise_conv1d_causal,
    glu,
    layer_norm,
    matmul64,
    swish,
)


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


# The elementwise kernels as expressions that build a new array per
# operation, each over sigmoid_mask where it gates.

def swish_expr(x: np.ndarray) -> np.ndarray:
    """swish's oracle: x * sigmoid(x) in float64, rounded once."""
    return (np.asarray(x, dtype=np.float64) * sigmoid_mask(x)).astype(np.float32)


def glu_expr(x: np.ndarray) -> np.ndarray:
    """glu's oracle: the first half of the last axis times sigmoid of the second."""
    h = x.shape[-1] // 2
    return (x[..., :h].astype(np.float64) * sigmoid_mask(x[..., h:])).astype(np.float32)


def layer_norm_expr(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """layer_norm's oracle: each row centered by sum / d, scaled by the root
    of its variance plus LAYER_NORM_EPS, then gamma and beta."""
    d = x.shape[-1]
    x64 = x.astype(np.float64)
    xc = x64 - x64.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    return (xc / np.sqrt(var + LAYER_NORM_EPS) * gamma + beta).astype(np.float32)


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


def reference_encode(mel: np.ndarray, w: EncoderWeights, cfg: EncoderConfig) -> np.ndarray:
    """encode_full's oracle: the whole utterance at once, with no state,
    cache, plan or steps. The downsampler's taps read a zero-padded input,
    each query row attends the keys build_mask gives it through
    attend_per_head, every other product is a k-loop, and the row-wise
    kernels and the depthwise convolution (from zero history) are the
    package's. Every weight is read from the float32 `w.tensors`, never from
    the operands EncoderWeights prepares, so the oracle checks those too."""
    def lin(x, wt, b):
        return matmul64_kloop(x, wt).astype(np.float32) + b

    def ffn(lw, p, x):
        h = layer_norm(x, lw[f"{p}.ln_g"], lw[f"{p}.ln_b"])
        return lin(swish(lin(h, lw[f"{p}.w1"], lw[f"{p}.b1"])), lw[f"{p}.w2"], lw[f"{p}.b2"])

    t, n = w.tensors, mel.shape[0] // cfg.downsampling_rate
    if n == 0:
        return np.zeros((0, cfg.d_model), dtype=np.float32)
    x = np.asarray(mel[: n * cfg.downsampling_rate], dtype=np.float32)
    for s in range(cfg.n_stages):  # output j reads inputs 2j-1 .. 2j+1; input -1 is zero
        xp = np.concatenate([np.zeros((1, x.shape[1]), dtype=np.float32), x])
        acc = np.zeros((x.shape[0] // 2, cfg.d_model))
        for r in range(3):
            acc += matmul64_kloop(xp[r : r + x.shape[0] : 2], t[f"ds.stage{s}.w"][r])
        x = swish((acc + t[f"ds.stage{s}.b"]).astype(np.float32))
    x = lin(x, t["ds.proj.w"], t["ds.proj.b"])
    groups = []
    for r, row in enumerate(build_mask(cfg.attention, n)):
        keys = np.flatnonzero(row)
        assert np.array_equal(keys, np.arange(keys[0], keys[-1] + 1)), "keys must be a run"
        groups.append((r, r, int(keys[0]), int(keys[-1])))
    history = np.zeros((cfg.conv_kernel - 1, cfg.d_model), dtype=np.float32)
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        lw = {name[len(p) :]: v for name, v in t.items() if name.startswith(p)}
        x1 = x + np.float32(0.5) * ffn(lw, "ffn1", x)
        a_in = layer_norm(x1, lw["attn.ln_g"], lw["attn.ln_b"])
        x2 = x1 + attend_per_head(cfg, lw, a_in, np.arange(n), a_in, 0, groups)
        c = layer_norm(x2, lw["conv.ln_g"], lw["conv.ln_b"])
        g = glu(lin(c, lw["conv.pw1"], lw["conv.pw1_b"]))
        cv = depthwise_conv1d_causal(g, lw["conv.dw"], lw["conv.dw_b"], history)
        cv = swish(layer_norm(cv, lw["conv.ln2_g"], lw["conv.ln2_b"]))
        x3 = x2 + lin(cv, lw["conv.pw2"], lw["conv.pw2_b"])
        x = layer_norm(x3 + np.float32(0.5) * ffn(lw, "ffn2", x3), lw["out.ln_g"], lw["out.ln_b"])
    return x


def reference_joint_logits(head, enc_row: np.ndarray, prefix: list[int]) -> np.ndarray:
    """The RNNT joint's logits for one encoder row after the emitted labels
    `prefix`, from scratch on the float32 `head.tensors`: the prediction
    state recomputed from the zero state over the whole prefix, both joint
    projections made here, every product a k-loop."""
    t = head.tensors

    def lin(x, w, b=None):
        y = matmul64_kloop(x[None, :], w).astype(np.float32)[0]
        return y if b is None else y + b

    h = [np.zeros(head.hc.d_pred, np.float32)] * head.hc.pred_layers
    for k in prefix:
        x = t["rnnt.embed"][k]
        for i in range(head.hc.pred_layers):
            z = (lin(x, t[f"rnnt.cell{i}.w_in"]).astype(np.float64)
                 + lin(h[i], t[f"rnnt.cell{i}.w_h"]).astype(np.float64)
                 + t[f"rnnt.cell{i}.b"].astype(np.float64))
            h[i] = x = np.tanh(z).astype(np.float32)
    z = (lin(enc_row, t["rnnt.joint_enc.w"], t["rnnt.joint_enc.b"]).astype(np.float64)
         + lin(h[-1], t["rnnt.joint_pred.w"], t["rnnt.joint_pred.b"]).astype(np.float64))
    return lin(np.tanh(z).astype(np.float32), t["rnnt.joint_out.w"], t["rnnt.joint_out.b"])


def reference_rnnt_greedy(enc: np.ndarray, head, max_symbols: int = 10) -> list[tuple[int, int]]:
    """rnnt_greedy_decode's oracle, blank 0: at every (t, u) the joint is
    evaluated from scratch (reference_joint_logits). No state or projection
    carries from one joint to the next, so nothing about how a decoder
    splits, carries or projects its states can reach the result."""
    out: list[tuple[int, int]] = []
    for f in range(enc.shape[0]):
        for _ in range(max_symbols):
            k = int(np.argmax(reference_joint_logits(head, enc[f], [k for k, _ in out])))
            if k == 0:
                break
            out.append((k, f))
    return out


def offline_composition(audio: AudioBuffer, model, vocab: Vocab, decoder: str = "both"):
    """run_offline's oracle: the old composition, the whole log_mel first,
    then encode_full over that array and one push of the run's decoders."""
    from streamasr import encode_full, log_mel
    from streamasr.streaming import _Decoders

    dec = _Decoders(model, vocab, decoder)
    ledger = ComputeLedger()
    ledger.new_step()
    enc = encode_full(log_mel(audio, model.cfg.feature_config()), model.encoder,
                      model.cfg.encoder, rec=ledger)
    dec.push(enc, ledger)
    return dec.result("offline", ledger, lambda f: f, None)


def vary_rnnt_emission(head, gain: float, blank_shift: float) -> None:
    """Scale a random RNNT head in place so that its prediction state moves
    the joint: frames then emit nothing, a few tokens or the cap, as the shift
    added to the blank logit decides."""
    t = head.tensors
    for name in ("rnnt.embed", "rnnt.joint_pred.w", "rnnt.joint_out.w"):
        t[name] = t[name] * np.float32(gain)
    t["rnnt.joint_out.b"] = t["rnnt.joint_out.b"].copy()
    t["rnnt.joint_out.b"][0] += np.float32(blank_shift)


def varied_rnnt_model(ctx: AttentionContext | None = None):
    """A tiny model (chunked(2, 1) unless `ctx` is given) whose RNNT head,
    scaled, emits on synth_audio(1.2, seed=55)'s frames nothing, a few tokens
    or the cap of 10: every way a frame's loop ends."""
    model, vocab = tiny_model(ctx or AttentionContext.chunked(2, 1), seed=54)
    vary_rnnt_emission(model.rnnt, 4.0, 0.5)
    return model, vocab


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
    walks the same per-step schedule the session engine uses, each layer
    running the query rows it settles, so engine ledgers must match this to
    the MAC.
    """
    if mode not in ("offline", "streaming"):
        raise ArgumentError(f"unknown mode {mode!r}")
    cfg = replace(cfg, attention=ctx)
    ledger = ComputeLedger()
    if n_tokens == 0:
        return ledger
    d, f, k = cfg.d_model, cfg.d_ffn, cfg.conv_kernel
    arr = 2 * d * f + 3 * d * d  # FFN1 + Q,K,V projections, once per arriving token
    set_ = d * d + 3 * d * d + 2 * d * f  # O + pointwise convs + FFN2, per query row
    # per token: stage s of n makes 2^(n-1-s) rows of 3 taps, then the projection
    n, widths = cfg.n_stages, [cfg.n_mels] + [d] * cfg.n_stages
    ds_tok = sum(2 ** (n - 1 - s) * 3 * widths[s] * d for s in range(n)) + widths[n] * d

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
            ledger.add("ffn", n_settle * set_)
            ledger.add("conv", n_settle * d * k)
            ledger.add("attention", sum(pairs(q, n_in[li] - 1)
                                        for q in range(n_out[li], settle_to)) * 2 * d)
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


def dense_mel_product(power: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """The mel product over every bin and filter: one matmul64 of the power
    rows and cfg's whole filterbank, zero weights included."""
    n = cfg.window_samples
    return matmul64(power, mel_filterbank(cfg.n_mels, n // 2 + 1, cfg.sample_rate, n))


def count_feature_kernels(monkeypatch) -> list[str]:
    """The name of each rfft and matmul64 call the features make, in order,
    appended to the returned list while the monkeypatch holds."""
    calls = []
    rfft = np.fft.rfft

    def counting_rfft(*args, **kwargs):
        calls.append("rfft")
        return rfft(*args, **kwargs)

    def counting_matmul64(a, b):
        calls.append("matmul64")
        return matmul64(a, b)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(features, "matmul64", counting_matmul64)
    return calls


def count_plans(monkeypatch) -> list:
    """One entry per attention plan the encoder builds, appended to the
    returned list while the monkeypatch holds."""
    built = []

    class Counted(encoder.AttentionPlan):
        def __new__(cls, *args):
            built.append(1)
            return super().__new__(cls, *args)

    monkeypatch.setattr(encoder, "AttentionPlan", Counted)
    return built


_SRC = os.path.dirname(encoder.__file__) + os.sep


def src_calls(fn) -> tuple[collections.Counter, int]:
    """Run fn() under sys.setprofile. Returns the Python calls of functions
    defined in the streamasr package, by qualified name, and the number of
    calls into C functions made from those functions' frames."""
    python, c_calls = collections.Counter(), 0

    def profile(frame, event, arg):
        nonlocal c_calls
        if event == "call" and frame.f_code.co_filename.startswith(_SRC):
            python[frame.f_code.co_qualname] += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(_SRC):
            c_calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return python, c_calls


def steady_step_calls(ctx: AttentionContext, decoder: str) -> tuple[collections.Counter, int, int]:
    """What a steady streaming step calls in the streamasr package: a
    StreamingSession on baseline_model(ctx) takes 20 ms packets of 4 s of
    audio, and the count runs over the packets from 1.28 s to 3.84 s (past
    the warm-up, whose steps build the plans and fill the caches), features
    and decoding included. Returns src_calls' two counts over that span and
    the steps it ran."""
    model, vocab = baseline_model(ctx)
    samples = synth_audio(4.0, seed=51).samples
    session = StreamingSession(model, vocab, decoder=decoder)
    packets = [samples[i : i + 320] for i in range(0, len(samples), 320)]
    for p in packets[:64]:
        session.feed(p)
    n = len(session.ledger.steps)

    def feed():
        for p in packets[64:192]:
            session.feed(p)

    python, c_calls = src_calls(feed)
    return python, c_calls, len(session.ledger.steps) - n


def baseline_model(ctx):
    """perfbench's baseline model (4 layers, d_model 64) and its vocabulary.

    Its encoder's and heads' float64 weight copies are built here, not on
    first use, so a traced window opened on the model measures the run alone
    (TestPreparedWeights pins the encoder copies' bytes)."""
    vocab = Vocab.chars("abcdefghijklmnopqrstuvwxyz '")
    enc = EncoderConfig(n_layers=4, d_model=64, n_heads=4, conv_kernel=9,
                        downsampling_rate=4, attention=ctx, n_mels=80)
    model = init_model(ModelConfig(encoder=enc, vocab_size=vocab.size), 7)
    model.encoder.layer(0), model.encoder.downsampler, model.ctc.w64, model.rnnt.w64
    return model, vocab


def traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw allocated while it
    ran, above what was live when it started. numpy reports its buffers to
    tracemalloc, so the figure counts array memory exactly and, unlike the
    process's RSS, does not move with the allocator or other processes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak


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
