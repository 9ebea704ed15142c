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
aligned so output j reads inputs 2j-1 .. 2j+1 (zero at index -1). A token
therefore depends on its own frame group plus rate-1 past frames and never on
later groups. Each stage carries the last input row it has read between
chunks, so every stage row is computed once per stream, from the operands of
the single-pass computation.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .cache import LayerCache, StreamState, attn_keep_rows, cache_append
from .context import AttentionContext, check_fields
from .errors import ChunkingError, ConfigError, SessionError, ShapeError, StateError
from .ledger import ComputeLedger
from .numerics import (
    Rng,
    check_finite,
    check_tensors,
    depthwise_conv1d_causal,
    float64_copy,
    glu,
    layer_norm,
    linear,
    matmul64,
    operand,
    swish,
)

_BLOCK_TOKENS = 128  # a whole-utterance step: 5.12 s at 40 ms tokens


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
        check_fields(self)
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
    def ds_carry_widths(self) -> list[int]:
        """Per downsampler stage, the width of the input row it carries between chunks."""
        return ([self.n_mels] + [self.d_model] * self.n_stages)[: self.n_stages]


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


# the layer weights a product or the depthwise convolution reads, mirrored as float64
_LAYER_FLOAT64 = ("ffn1.w1", "ffn1.w2", "ffn2.w1", "ffn2.w2", "attn.wqkv", "attn.wo",
                  "conv.pw1", "conv.pw2", "conv.dw")


class EncoderWeights:
    """The encoder's float32 tensors, and the operands its kernels read,
    built once per instance on first use, so loading a model builds none.

    `layer(i)` is layer i's tensors without their `layers.{i}.` prefix, plus
    the Q, K and V projections side by side as one weight `attn.wqkv` and
    bias `attn.bqkv`, and the relative-position bias table in float64 as
    `attn.bias64`. Every weight there that a product or the depthwise
    convolution reads is a float64 copy, and so are `downsampler`'s. Biases
    and norm parameters stay float32, because `linear` adds its bias in
    float32. float32 to float64 is exact, so no output bit changes and
    `matmul64` copies activations only. Every prepared array is read-only.

    `plans` keeps the attention plans of non-final steps for every stream
    that runs on these weights (see PlanStore).

    `check(cfg)` holds the tensors to cfg's spec once per weight signature;
    encode_step calls it, so the kernels read only checked weights."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.tensors = tensors
        self.plans = PlanStore()
        self._fits: set[tuple] = set()  # the weight signatures the tensors passed

    def check(self, cfg: EncoderConfig) -> None:
        """Raise ShapeError unless the tensors are the ones
        encoder_weight_spec(cfg) names, each float32 and of its shape (a
        tensor it does not name would join a layer). A signature that passed
        costs one set lookup."""
        # the fields encoder_weight_spec reads: all but the attention mask
        sig = (cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.conv_kernel, cfg.downsampling_rate,
               cfg.ffn_expansion, cfg.n_mels, cfg.bias_past, cfg.bias_future)
        if sig not in self._fits:
            spec = encoder_weight_spec(cfg)
            check_tensors(self.tensors, spec, "encoder")
            extra = sorted(set(self.tensors) - {name for name, _, _ in spec})
            if extra:
                raise ShapeError(f"encoder tensor {extra[0]} is not one the config names")
            self._fits.add(sig)

    def layer(self, i: int) -> dict[str, np.ndarray]:
        return self._layers[i]

    @functools.cached_property
    def _layers(self) -> dict[int, dict[str, np.ndarray]]:
        layers: dict[int, dict[str, np.ndarray]] = {}
        for name, v in self.tensors.items():
            if name.startswith("layers."):
                i, rest = name[len("layers.") :].split(".", 1)
                layers.setdefault(int(i), {})[rest] = v
        for lw in layers.values():
            lw["attn.wqkv"] = np.concatenate([lw[f"attn.w{p}"] for p in "qkv"], axis=1)
            lw["attn.bqkv"] = np.concatenate([lw[f"attn.b{p}"] for p in "qkv"])
            lw["attn.bqkv"].flags.writeable = False
            lw["attn.bias64"] = float64_copy(lw["attn.bias"])
            lw.update({name: float64_copy(lw[name]) for name in _LAYER_FLOAT64})
        return layers

    @functools.cached_property
    def downsampler(self) -> dict[str, np.ndarray]:
        """`stage{s}.w`, `stage{s}.b` and `proj.w` in float64, `proj.b` float32."""
        ds = {name[len("ds.") :]: float64_copy(v) for name, v in self.tensors.items()
              if name.startswith("ds.") and name != "ds.proj.b"}
        ds["proj.b"] = self.tensors["ds.proj.b"]
        return ds


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
    frames: np.ndarray,
    carry: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Downsampler outputs for the whole frame groups in `frames`, and the
    rows to carry into the next call.

    carry[s] is the last input row stage s has read: a zero row at the start
    of a stream, where index -1 is padding. Stage output i reads inputs
    2i-1 .. 2i+1, so the carried row and the new inputs are exactly the
    operands of the new outputs, and every stage row is computed once per
    stream. A trailing partial frame group is not read.
    """
    cur = frames[: frames.shape[0] // cfg.downsampling_rate * cfg.downsampling_rate]
    ds, kept = w.downsampler, []
    for s, row in enumerate(carry):
        window, last = cache_append(row, cur, 1)
        kept.append(last)
        n_out = cur.shape[0] // 2
        ws = ds[f"stage{s}.w"]
        acc = np.zeros((n_out, cfg.d_model), dtype=np.float64)
        for r in range(3):
            acc += matmul64(window[r : r + 2 * n_out : 2], ws[r])
        acc += ds[f"stage{s}.b"]
        cur = swish(acc.astype(np.float32))
    return linear(cur, ds["proj.w"], ds["proj.b"]), kept


def downsampler_macs_per_token(cfg: EncoderConfig) -> int:
    n = cfg.n_stages
    total = 0
    c_in = cfg.n_mels
    for s in range(n):
        total += (2 ** (n - 1 - s)) * 3 * c_in * cfg.d_model
        c_in = cfg.d_model
    return total + c_in * cfg.d_model


def layer_macs_per_token(cfg: EncoderConfig) -> tuple[int, int, int]:
    """A token's MACs in one encoder layer, where they run: on arrival (FFN1
    and the Q|K|V projection), per query row (O, the conv module's pointwise
    layers and FFN2) and in the depthwise convolution. Attention adds
    2 * d_model per query-key pair."""
    d, f = cfg.d_model, cfg.d_ffn
    return 2 * d * f + 3 * d * d, 4 * d * d + 2 * d * f, d * cfg.conv_kernel


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


class AttentionPlan(NamedTuple):
    """What one attention step needs besides its operands, built from its
    geometry: per (rows, keys) shape of query group, the query rows, the key
    rows (relative to the first key) and the gathered float64 bias
    (heads, groups, rows, keys), with one group where every group meets its
    keys at the same offsets; and the step's query-key pairs.

    Rows and keys are index arrays (groups, rows) and (groups, keys), or
    slices for a shape held by one group, which then reads views. `table` is
    the bias table the gathers read. Every array is read-only, so streams in
    several threads can share a plan. (A NamedTuple: a dataclass would add
    about a millisecond to every import of the package.)
    """

    table: np.ndarray
    batches: list[tuple[object, object, np.ndarray]]  # rows, keys, bias
    pairs: int


class PlanStore:
    """Attention plans for every stream on one set of weights.

    encode_step keys a plan by what fixes it before any of it is built: the
    identity of the bias table, which the stored plan keeps alive (so each
    layer and each copied table gets plans of its own), the attention mask,
    the bias spans, and the step's geometry relative to its first key k0:
    the offset of its first query q0 - k0, its query rows, its keys and its
    last available key. k0 is the start of q0's key interval, so either it
    is 0 and relative positions are absolute, or no interval the step reads
    is clipped at 0 (and under a chunked mask k0 is a whole chunk); either
    way the key fixes every query group and every array of the plan. So a
    session, an offline block or a model under the same mask
    (with_attention) whose step has a stored key reads that plan, and builds
    neither the plan nor its query groups.

    The store counts its plans' bytes (arrays plus a fixed allowance per
    plan, batch and group for the Python objects) and drops the least
    recently used plans first, before a new plan would take the count past
    _BOUND. A lock guards the order and the count; a plan that is dropped
    stays valid for any step that holds it.
    """

    _BOUND = 4 << 20  # bytes

    def __init__(self):
        self._plans: OrderedDict[tuple, tuple[AttentionPlan, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, key: tuple) -> AttentionPlan | None:
        with self._lock:
            entry = self._plans.get(key)
            if entry is None:
                return None
            self._plans.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, plan: AttentionPlan) -> None:
        groups = sum(rows.shape[0] if isinstance(rows, np.ndarray) else 1
                     for rows, _, _ in plan.batches)
        size = (2048 + 96 * groups + 512 * len(plan.batches)
                + sum(a.nbytes for b in plan.batches for a in b if isinstance(a, np.ndarray)))
        with self._lock:
            if key in self._plans or size > self._BOUND:
                return
            while self.nbytes + size > self._BOUND:
                self.nbytes -= self._plans.popitem(last=False)[1][1]
            self._plans[key] = (plan, size)
            self.nbytes += size


def attention_plan(
    cfg: EncoderConfig,
    table: np.ndarray,
    qpos: np.ndarray,
    n_keys: int,
    key_base: int,
    groups: list[tuple[int, int, int, int]],
) -> AttentionPlan:
    """A new plan for queries at consecutive global positions qpos, in
    `groups` (query_groups), over n_keys keys from global position key_base
    on. encode_step looks a step's plan up in the weights' PlanStore first
    and builds one only when the store has none."""
    sp, sf = cfg.bias_past, cfg.bias_future
    pairs = 0
    by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r0, r1, lo, hi in groups:
        if lo < key_base or hi - key_base + 1 > n_keys:
            raise SessionError(
                f"attention cache does not cover keys [{lo},{hi}] (base {key_base})"
            )
        pairs += (r1 - r0 + 1) * (hi - lo + 1)
        by_shape.setdefault((r1 - r0 + 1, hi - lo + 1), []).append((r0, lo - key_base))
    batches = []
    for (n_r, n_k), same in by_shape.items():
        rows = np.array([g[0] for g in same])[:, None] + np.arange(n_r)  # (groups, n_r)
        keys = np.array([g[1] for g in same])[:, None] + np.arange(n_k)  # (groups, n_k)
        offs = qpos[rows][:, :, None] - (keys + key_base)[:, None, :]
        if (offs == offs[:1]).all():  # every group meets its keys at the same offsets
            offs = offs[:1]
        bias = table[:, np.clip(offs, -sf, sp) + sf]  # (heads, groups or 1, n_r, n_k)
        bias.flags.writeable = False
        if len(same) == 1:
            [(r0, k0)] = same
            rows, keys = slice(r0, r0 + n_r), slice(k0, k0 + n_k)
        else:
            rows.flags.writeable = keys.flags.writeable = False
        batches.append((rows, keys, bias))
    return AttentionPlan(table, batches, pairs)


def _attend(
    cfg: EncoderConfig, lw: dict, q: np.ndarray, kv: np.ndarray, plan: AttentionPlan
) -> np.ndarray:
    """Masked multi-head attention of the projected queries q over the
    projected K|V rows kv (keys, 2d), in the geometry `plan` gives.

    Each group's scores, softmax and value sums run over exactly its own
    keys, so results do not depend on what else is in the key array. All
    heads of a group go through one batched matmul64 per product, and so do
    all groups of one (rows, keys) shape: each head and group sums as it
    would alone.
    """
    d, heads, dh = cfg.d_model, cfg.n_heads, cfg.d_head
    # per-head views (heads, rows, dh) of the queries, keys and values
    qh = q.reshape(-1, heads, dh).transpose(1, 0, 2)
    kh = kv[:, :d].reshape(-1, heads, dh).transpose(1, 0, 2)
    vh = kv[:, d:].reshape(-1, heads, dh).transpose(1, 0, 2)
    scale = 1.0 / math.sqrt(dh)
    ctx_out = np.zeros((q.shape[0], heads, dh), dtype=np.float32)
    for rows, keys, bias in plan.batches:
        n_r, n_k = bias.shape[2:]
        qg = qh[:, rows].reshape(-1, n_r, dh)  # batch axis: head-major, then group
        n = qg.shape[0]
        s = matmul64(qg, kh[:, keys].reshape(n, n_k, dh).transpose(0, 2, 1))
        # the softmax runs in place on the scores (heads, groups, rows, keys),
        # where a bias of one group serves every group; each row's max, exp
        # and sum run over its own keys, along the last axis (the ufuncs'
        # reduce is what ndarray.max and ndarray.sum call)
        s = s.reshape(heads, -1, n_r, n_k)
        s *= scale
        s += bias
        s -= np.maximum.reduce(s, axis=3, keepdims=True)
        np.exp(s, out=s)
        s /= np.add.reduce(s, axis=3, keepdims=True)
        w = s.astype(np.float32).reshape(n, n_r, n_k)
        out = matmul64(w, vh[:, keys].reshape(n, n_k, dh)).astype(np.float32)
        # (groups, rows, heads, dh); a slice's target drops the leading 1
        ctx_out[rows] = out.reshape(heads, -1, n_r, dh).transpose(1, 2, 0, 3)
    return linear(ctx_out.reshape(-1, d), lw["attn.wo"], lw["attn.bo"])


def _layer_arrival(cfg: EncoderConfig, lw: dict, x_new: np.ndarray) -> np.ndarray:
    """Per-token work done once when an input token reaches this layer: its
    post-FFN1 row beside its query, key and value (x1|q|k|v, 4d wide)."""
    x1 = x_new + np.float32(0.5) * _ffn_module(lw, "ffn1", x_new)
    a_in = layer_norm(x1, lw["attn.ln_g"], lw["attn.ln_b"])
    qkv = linear(a_in, lw["attn.wqkv"], lw["attn.bqkv"])
    # a -inf score gets softmax weight 0, which would hide a non-finite key
    check_finite(qkv, "attention Q|K|V projection")
    return np.concatenate([x1, qkv], axis=1)


def _layer_window(
    cfg: EncoderConfig,
    lw: dict,
    x1q_win: np.ndarray,
    kv: np.ndarray,
    plan: AttentionPlan,
    conv_hist: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The rest of the layer for query rows x1q_win (post-FFN1 rows beside
    their projected queries, x1|q), which are consecutive keys of kv.
    Returns their outputs and GLU outputs, the conv cache's next rows.
    """
    d = cfg.d_model
    x2 = x1q_win[:, :d] + _attend(cfg, lw, x1q_win[:, d:], kv, plan)
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
    return out, g


# ---------------------------------------------------------------------------
# full-utterance and chunked entry points


def block_frames(cfg: EncoderConfig) -> int:
    """The mel frames of one whole-utterance step: _BLOCK_TOKENS tokens
    rounded up to whole step_tokens(), so a longer chunk is one step."""
    step = cfg.attention.step_tokens()
    return -(-_BLOCK_TOKENS // step) * step * cfg.downsampling_rate


def encode_full(
    mel: np.ndarray | Iterable[np.ndarray],
    w: EncoderWeights,
    cfg: EncoderConfig,
    rec: ComputeLedger | None = None,
) -> np.ndarray:
    """Whole-utterance forward pass, (n_tokens, d_model): the stream from a
    fresh state into one preallocated output, so its working memory is one
    step's and its ledger the single pass's.

    `mel` is the (frames, n_mels) array, taken in steps of block_frames(cfg)
    frames and a partial last one, or a source of it in pieces: an iterable
    of frame arrays with `n_frames`, their total, each piece one step as it
    arrives (whole step_tokens() but the last). The step whose frames reach
    the total is final."""
    dr = cfg.downsampling_rate
    if hasattr(mel, "n_frames"):
        pieces, n_frames = mel, mel.n_frames
    else:
        frames = operand(mel, "mel")
        if frames.ndim != 2:
            raise ShapeError(f"mel is {frames.shape}, the encoder reads (frames, {cfg.n_mels})")
        n_frames, size = frames.shape[0], block_frames(cfg)
        pieces = (frames[f0 : f0 + size] for f0 in range(0, max(n_frames, 1), size))
    state, pos, seen = init_state(cfg), 0, 0
    out = np.empty((n_frames // dr, cfg.d_model), dtype=np.float32)
    for piece in pieces:
        seen += piece.shape[0]
        y, _ = encode_step(piece, state, w, cfg, rec, final=seen == n_frames)
        out[pos : pos + y.shape[0]] = y
        pos += y.shape[0]
    if not state.finished:
        raise ShapeError(f"pieces of {seen} frames do not add up to their total of {n_frames}")
    return out


def init_state(cfg: EncoderConfig) -> StreamState:
    d = cfg.d_model
    layers = [
        LayerCache(
            rows=np.zeros((0, 4 * d), dtype=np.float32),
            conv=np.zeros((cfg.conv_kernel - 1, d), dtype=np.float32),
        )
        for _ in range(cfg.n_layers)
    ]
    return StreamState(
        layers=layers,
        ds_carry=[np.zeros((1, width), dtype=np.float32) for width in cfg.ds_carry_widths],
        settle_delay=cfg.attention.settle_delay(),
    )


def _check_state(state: StreamState, cfg: EncoderConfig) -> list[tuple[int, int]]:
    """Raise StateError unless the state was built under cfg's settle delay,
    and every cached tensor is float32 in the shape cfg's encoder needs at
    the state's counts. Returns each layer's counts (StreamState.counts)."""
    d, ctx = cfg.d_model, cfg.attention
    if len(state.layers) != cfg.n_layers:
        raise StateError(f"state has {len(state.layers)} layers, the encoder {cfg.n_layers}")
    if state.settle_delay != ctx.settle_delay():
        raise StateError(f"state has settle delay {state.settle_delay}, the encoder's "
                         f"attention context {ctx.settle_delay()}")
    if len(state.ds_carry) != cfg.n_stages:
        raise StateError(f"state carries {len(state.ds_carry)} downsampler rows, the encoder "
                         f"has {cfg.n_stages} stages")
    counts = [state.counts(i) for i in range(cfg.n_layers)]
    # (array, rows, cols): each carried row, then each layer's rows and conv
    arrays = [(row, 1, width) for row, width in zip(state.ds_carry, cfg.ds_carry_widths)]
    for lc, (n_in, n_out) in zip(state.layers, counts):
        arrays += [(lc.rows, attn_keep_rows(ctx, n_in, n_out), 4 * d),
                   (lc.conv, cfg.conv_kernel - 1, d)]
    for j, (arr, rows, cols) in enumerate(arrays):
        if arr.shape != (rows, cols) or arr.dtype != np.float32:
            i, part = divmod(j - cfg.n_stages, 2)
            name = f"ds_carry{j}" if j < cfg.n_stages else f"layer{i}.{('rows', 'conv')[part]}"
            raise StateError(f"{name} is {arr.dtype} {arr.shape}, the encoder needs {rows} "
                             f"float32 rows of {cols}")
    return counts


def encode_step(
    chunk: np.ndarray,
    state: StreamState,
    w: EncoderWeights,
    cfg: EncoderConfig,
    rec: ComputeLedger | None = None,
    final: bool = False,
) -> tuple[np.ndarray, StreamState]:
    """Consume one chunk of mel frames, return newly settled encoder tokens.

    Concatenating the outputs over a stream equals encode_full exactly.
    Non-final chunks must be whole downsampler groups, and a multiple of the
    context's step_tokens() tokens; the final chunk may be any length (a
    trailing partial frame group yields no token).

    Each layer runs its query rows in one pass: the rows this step settles,
    and no others, so a long step holds float64 temporaries for all of them.
    """
    frames = operand(chunk, "mel").astype(np.float32, copy=False)
    if state.finished:
        raise SessionError("stream already finalized")
    w.check(cfg)
    counts = _check_state(state, cfg)  # each layer's, before this step
    if frames.ndim != 2 or frames.shape[1] != cfg.n_mels:
        raise ShapeError(f"mel is {frames.shape}, the encoder reads (frames, {cfg.n_mels})")
    dr = cfg.downsampling_rate
    if not final and frames.shape[0] % dr != 0:
        raise ChunkingError(
            f"non-final chunk of {frames.shape[0]} frames is not a multiple of {dr}"
        )
    n_new = frames.shape[0] // dr  # an unfinished stream has read whole frame groups only
    ctx = cfg.attention
    if not final and n_new % ctx.step_tokens() != 0:
        raise ChunkingError(
            f"attention context expects multiples of {ctx.step_tokens()} tokens per step, "
            f"got {n_new}"
        )
    state.tokens_in += n_new
    state.finished = final

    new_x, state.ds_carry = downsample_segment(w, cfg, frames, state.ds_carry)
    d = cfg.d_model
    arrived = settled = pairs = 0  # the step's MACs, booked once per category below
    for i, lc in enumerate(state.layers):
        lw = w.layer(i)
        arrived += new_x.shape[0]
        new_rows = _layer_arrival(cfg, lw, new_x)
        n_in, settle_to = state.counts(i)
        window, lc.rows = cache_append(lc.rows, new_rows, attn_keep_rows(ctx, n_in, settle_to))
        q0, k0 = counts[i][1], n_in - window.shape[0]
        # queries: the x1|q of the rows this step settles; keys: every row's K|V
        x1q_win, kv = window[q0 - k0 : settle_to - k0, : 2 * d], window[:, 2 * d :]
        if x1q_win.shape[0] == 0:
            new_x = np.zeros((0, d), dtype=np.float32)
            continue
        table = lw["attn.bias64"]
        # what fixes the plan (PlanStore); a final step's plan is never
        # reused, so the store neither reads nor keeps it
        key = (id(table), ctx, cfg.bias_past, cfg.bias_future, q0 - k0, x1q_win.shape[0],
               kv.shape[0], n_in - 1 - k0)
        plan = None if final else w.plans.get(key)
        if plan is None:
            qpos = np.arange(q0, settle_to)
            plan = attention_plan(cfg, table, qpos, kv.shape[0], k0,
                                  query_groups(ctx, qpos, n_in - 1))
            if not final:
                w.plans.put(key, plan)
        settled += x1q_win.shape[0]
        pairs += plan.pairs
        new_x, g = _layer_window(cfg, lw, x1q_win, kv, plan, lc.conv)
        _, lc.conv = cache_append(lc.conv, g, cfg.conv_kernel - 1)
    if rec is not None:
        on_arrival, per_row, conv = layer_macs_per_token(cfg)
        rec.add("downsampler", n_new * downsampler_macs_per_token(cfg))
        rec.add("ffn", arrived * on_arrival + settled * per_row)
        rec.add("conv", settled * conv)
        rec.add("attention", 2 * d * pairs)
    return new_x, state
