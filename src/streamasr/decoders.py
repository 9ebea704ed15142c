"""Hybrid decoding heads over a shared encoder.

The CTC head is a stateless projection to per-frame log-probabilities, and
CtcIncrementalDecoder carries its collapse state (the previous frame's
label) across pushes. The RNNT head is a recurrent prediction network plus a
joint network, whose state (RnntState) carries across pushes. A streaming
run's decoders (streaming._Decoders) own both, and carrying them makes split
decoding equal single-shot decoding token for token.

The joint is additive, tanh(W_enc e_t + W_pred g_u), so each projection
runs once: a push's encoder rows in one product, and a state's when it is
made. As in the encoder, the product weights are float64 copies made on
first use, so no output bit changes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .context import check_fields
from .errors import ArgumentError, ConfigError, FormatError, InputFileError, ShapeError
from .ledger import ComputeLedger
from .losses import target_ids
from .numerics import check_finite, check_tensors, float64_copy, linear, log_softmax, operand

BLANK_TOKEN = "<blank>"
_LINE_BREAK_OR_SURROGATE = re.compile("[\n\r\ud800-\udfff]")


@dataclass(frozen=True)
class Vocab:
    tokens: list[str]
    blank_id: ClassVar[int] = 0  # line 0 is always BLANK_TOKEN

    def __post_init__(self):
        if not isinstance(self.tokens, list):
            raise FormatError(f"vocab tokens must be a list, got {self.tokens!r}")
        for t in self.tokens:
            # the file holds one UTF-8 line per token
            if not isinstance(t, str) or not t or _LINE_BREAK_OR_SURROGATE.search(t):
                raise FormatError(f"vocab token {t!r} is not one line of UTF-8 text")
        if not self.tokens or self.tokens[0] != BLANK_TOKEN:
            raise FormatError(f"vocab line 0 must be {BLANK_TOKEN!r}")
        if len(set(self.tokens)) != len(self.tokens):
            raise FormatError("vocab has duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(self.tokens) + "\n")

    @staticmethod
    def load(path: str) -> "Vocab":
        try:
            with open(path, "r", encoding="utf-8") as f:
                tokens = [line.rstrip("\n") for line in f if line.rstrip("\n") != ""]
        except OSError as ex:
            raise InputFileError(f"cannot read {path}: {ex}") from ex
        except UnicodeDecodeError as ex:
            raise FormatError(f"{path}: vocab is not UTF-8: {ex}") from ex
        return Vocab(tokens)

    @staticmethod
    def chars(alphabet: str = "abcdefghijklmnopqrstuvwxyz' ") -> "Vocab":
        return Vocab([BLANK_TOKEN] + list(alphabet))


@dataclass(frozen=True)
class HeadConfig:
    d_model: int
    vocab_size: int
    d_pred: int = 64
    pred_layers: int = 1
    d_joint: int = 64

    def __post_init__(self):
        check_fields(self)
        if self.vocab_size < 2:
            raise ConfigError("vocab needs blank plus at least one label")
        if min(self.d_model, self.d_pred, self.pred_layers, self.d_joint) < 1:
            raise ConfigError("head dims must be >= 1")


def ctc_weight_spec(hc: HeadConfig):
    return [
        ("ctc.w", (hc.d_model, hc.vocab_size), hc.d_model),
        ("ctc.b", (hc.vocab_size,), None),
    ]


def rnnt_weight_spec(hc: HeadConfig):
    spec = [("rnnt.embed", (hc.vocab_size, hc.d_pred), hc.d_pred)]
    for i in range(hc.pred_layers):
        spec += [
            (f"rnnt.cell{i}.w_in", (hc.d_pred, hc.d_pred), hc.d_pred),
            (f"rnnt.cell{i}.w_h", (hc.d_pred, hc.d_pred), hc.d_pred),
            (f"rnnt.cell{i}.b", (hc.d_pred,), None),
        ]
    spec += [
        ("rnnt.joint_enc.w", (hc.d_model, hc.d_joint), hc.d_model),
        ("rnnt.joint_enc.b", (hc.d_joint,), None),
        ("rnnt.joint_pred.w", (hc.d_pred, hc.d_joint), hc.d_pred),
        ("rnnt.joint_pred.b", (hc.d_joint,), None),
        ("rnnt.joint_out.w", (hc.d_joint, hc.vocab_size), hc.d_joint),
        ("rnnt.joint_out.b", (hc.vocab_size,), None),
    ]
    return spec


@dataclass
class CtcHead:
    """The CTC projection; ShapeError when built unless `w` and `b` are
    float32 in the shapes ctc_weight_spec gives."""

    hc: HeadConfig
    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        check_tensors({"ctc.w": self.w, "ctc.b": self.b}, ctc_weight_spec(self.hc), "CTC head")

    @functools.cached_property
    def w64(self) -> np.ndarray:
        """`w` as the read-only float64 copy its product reads, built on first use."""
        return float64_copy(self.w)


@dataclass
class RnntHead:
    """The RNNT head's float32 tensors, and in `w64` the weights its products
    read (each cell's `w_in` and `w_h`, the joint's three) as read-only
    float64 copies, built on first use. The biases stay the live float32
    tensors, because `linear` adds its bias in float32. ShapeError when built
    unless every tensor rnnt_weight_spec names is float32 in its shape."""

    hc: HeadConfig
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        check_tensors(self.tensors, rnnt_weight_spec(self.hc), "RNNT head")

    @functools.cached_property
    def w64(self) -> dict[str, np.ndarray]:
        names = [f"rnnt.cell{i}.w_{p}" for i in range(self.hc.pred_layers) for p in ("in", "h")]
        return {n: float64_copy(self.tensors[n])
                for n in names + [f"rnnt.joint_{p}.w" for p in ("enc", "pred", "out")]}


@dataclass(frozen=True)
class RnntState:
    """A prediction-network state: each layer's hidden row (float32), and the
    joint's projection of the last one (float64), made once with the state."""

    hidden: list[np.ndarray]
    joint_pred: np.ndarray


def _encoder_rows(enc, hc: HeadConfig) -> np.ndarray:
    """`enc` as an array of (T, d_model) encoder rows, or ShapeError."""
    enc = operand(enc, "encoder output")
    if enc.ndim != 2 or enc.shape[1] != hc.d_model:
        raise ShapeError(f"encoder output is {enc.shape}, the head reads (frames, {hc.d_model})")
    return enc


def ctc_logprobs(enc: np.ndarray, head: CtcHead, rec: ComputeLedger | None = None) -> np.ndarray:
    """Per-frame log-softmax over the vocabulary, (T, V) float64."""
    enc = _encoder_rows(enc, head.hc)
    if enc.shape[0] == 0:
        return np.zeros((0, head.hc.vocab_size), dtype=np.float64)
    logits = linear(enc, head.w64, head.b)
    check_finite(logits, "CTC head")
    if rec is not None:
        rec.add("decoder", enc.shape[0] * head.hc.d_model * head.hc.vocab_size)
    return log_softmax(logits, axis=-1)


class CtcIncrementalDecoder:
    """Best-path decoding with the collapse state carried across pushes."""

    def __init__(self, blank_id: int = 0):
        self.blank_id = blank_id
        self._prev = blank_id

    def push(self, logprobs: np.ndarray, frame_offset: int = 0) -> list[tuple[int, int]]:
        """The (token, frame) pairs that `logprobs`, (frames, V), adds."""
        logprobs = operand(logprobs, "CTC log-probs")
        if logprobs.ndim != 2 or logprobs.shape[1] == 0:
            raise ShapeError(f"CTC log-probs are {logprobs.shape}, the decoder reads (frames, V)")
        out = []
        for t, k in enumerate(np.argmax(logprobs, axis=1).tolist()):  # ties to the lowest id
            if k != self.blank_id and k != self._prev:
                out.append((k, frame_offset + t))
            self._prev = k
        return out


def _joint_projection(head: RnntHead, src: str, rows: np.ndarray) -> np.ndarray:
    """`rows` projected into the joint by `rnnt.joint_{src}`, held in float64.

    Each row is rounded to float32 as one joint call's projection was, and
    rows do not depend on each other, so a projection made once serves every
    joint that reads it. It is checked here, once: the sum of two finite
    float32 rows cannot overflow in float64, so the joint's sum needs no check.
    """
    p = linear(rows, head.w64[f"rnnt.joint_{src}.w"], head.tensors[f"rnnt.joint_{src}.b"])
    check_finite(p, f"RNNT joint {src} projection")  # tanh maps an infinity to +-1
    return p.astype(np.float64)


def _rnnt_state(head: RnntHead, hidden: list[np.ndarray], rec: ComputeLedger | None) -> RnntState:
    if rec is not None:
        rec.add("decoder", head.hc.d_pred * head.hc.d_joint)
    return RnntState(hidden, _joint_projection(head, "pred", hidden[-1][None, :])[0])


def rnnt_init_state(head: RnntHead, rec: ComputeLedger | None = None) -> RnntState:
    """The zero state, with its joint projection."""
    hc = head.hc
    return _rnnt_state(head, [np.zeros(hc.d_pred, dtype=np.float32)] * hc.pred_layers, rec)


def rnnt_pred_advance(
    head: RnntHead, state: RnntState, token_id: int, rec: ComputeLedger | None = None
) -> RnntState:
    """One prediction-network step after emitting token_id."""
    w, t = head.w64, head.tensors
    x, hidden = t["rnnt.embed"][token_id], []
    for i, h_prev in enumerate(state.hidden):
        z = (linear(x[None, :], w[f"rnnt.cell{i}.w_in"])[0].astype(np.float64)
             + linear(h_prev[None, :], w[f"rnnt.cell{i}.w_h"])[0].astype(np.float64)
             + t[f"rnnt.cell{i}.b"].astype(np.float64))
        check_finite(z, "RNNT prediction cell")  # tanh maps an infinity to +-1
        x = np.tanh(z).astype(np.float32)
        hidden.append(x)
    if rec is not None:
        rec.add("decoder", head.hc.pred_layers * 2 * head.hc.d_pred * head.hc.d_pred)
    return _rnnt_state(head, hidden, rec)


def rnnt_joint_logits(
    head: RnntHead, enc_proj: np.ndarray, pred_proj: np.ndarray,
    rec: ComputeLedger | None = None,
) -> np.ndarray:
    """The joint's logits from an encoder row's projection and a state's."""
    h = np.tanh(enc_proj + pred_proj).astype(np.float32)
    logits = linear(h[None, :], head.w64["rnnt.joint_out.w"], head.tensors["rnnt.joint_out.b"])[0]
    check_finite(logits, "RNNT joint logits")
    if rec is not None:
        rec.add("decoder", head.hc.d_joint * head.hc.vocab_size)
    return logits


def _check_rnnt_state(state, hc: HeadConfig) -> None:
    """ArgumentError unless `state` is an RnntState of hc's layers; ShapeError
    unless its rows are what the head makes: float32 (d_pred,) hidden rows
    and a float64 (d_joint,) joint projection."""
    if not (isinstance(state, RnntState) and isinstance(state.hidden, list)
            and len(state.hidden) == hc.pred_layers):
        raise ArgumentError(f"state must be an RnntState of {hc.pred_layers} layers")
    rows = [(f"hidden row {i}", h, np.float32, hc.d_pred) for i, h in enumerate(state.hidden)]
    rows.append(("joint_pred", state.joint_pred, np.float64, hc.d_joint))
    for what, row, dtype, width in rows:
        if not (isinstance(row, np.ndarray) and row.dtype == dtype and row.shape == (width,)):
            got = f"{row.dtype} {row.shape}" if isinstance(row, np.ndarray) else type(row).__name__
            raise ShapeError(f"RnntState {what} is {got}, the head needs "
                             f"{np.dtype(dtype)} ({width},)")


def rnnt_greedy_decode(
    enc: np.ndarray,
    head: RnntHead,
    state: RnntState | None = None,
    blank_id: int = 0,
    max_symbols_per_frame: int = 10,
    frame_offset: int = 0,
    rec: ComputeLedger | None = None,
) -> tuple[list[tuple[int, int]], RnntState]:
    """Frame-synchronous greedy decoding; returns (token, frame) pairs and state.

    Passing the returned state into the next call continues the same
    hypothesis, so decoding an utterance in any number of pieces yields the
    same tokens as decoding it at once. All of `enc`'s rows are projected
    into the joint in one product, and each state when it is made.
    """
    enc = _encoder_rows(enc, head.hc)
    if state is None:
        state = rnnt_init_state(head, rec)
    else:
        _check_rnnt_state(state, head.hc)
    enc_proj = _joint_projection(head, "enc", enc)
    if rec is not None:
        rec.add("decoder", enc.shape[0] * head.hc.d_model * head.hc.d_joint)
    out: list[tuple[int, int]] = []
    for t in range(enc.shape[0]):
        emitted = 0
        while emitted < max_symbols_per_frame:
            logits = rnnt_joint_logits(head, enc_proj[t], state.joint_pred, rec)
            k = int(np.argmax(logits))  # ties resolve to the lowest id
            if k == blank_id:
                break
            out.append((k, frame_offset + t))
            state = rnnt_pred_advance(head, state, k, rec)
            emitted += 1
    return out, state


def rnnt_joint_log_probs(
    enc: np.ndarray, target: list[int], head: RnntHead, blank_id: int = 0
) -> np.ndarray:
    """Teacher-forced joint grid (T, U+1, V) of normalized log-probs, from
    the projections greedy decoding makes: one per encoder row and one per
    prediction state."""
    enc = _encoder_rows(enc, head.hc)
    v = head.hc.vocab_size
    target = target_ids(target, v, blank_id)
    states = [rnnt_init_state(head)]
    for y in target:
        states.append(rnnt_pred_advance(head, states[-1], y))
    enc_proj = _joint_projection(head, "enc", enc)
    grid = np.zeros((enc.shape[0], len(states), v), dtype=np.float64)
    for t in range(enc.shape[0]):
        for u, s in enumerate(states):
            grid[t, u] = log_softmax(rnnt_joint_logits(head, enc_proj[t], s.joint_pred))
    return grid
