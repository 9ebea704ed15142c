"""Hybrid decoding heads over a shared encoder.

The CTC head is a stateless projection to per-frame log-probabilities, and
CtcIncrementalDecoder carries its collapse state (the previous frame's
label) across pushes. The RNNT head is a recurrent prediction network plus a
joint network, whose hidden states carry across pushes. A streaming run's
decoders (streaming._Decoders) own both, and carrying them makes split
decoding equal single-shot decoding token for token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ArgumentError, ConfigError, FormatError, InputFileError, ShapeError
from .ledger import ComputeLedger
from .numerics import check_finite, linear, log_softmax, operand

BLANK_TOKEN = "<blank>"


@dataclass(frozen=True)
class Vocab:
    tokens: list[str]
    blank_id: ClassVar[int] = 0  # line 0 is always BLANK_TOKEN

    def __post_init__(self):
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
        if self.vocab_size < 2:
            raise ConfigError("vocab needs blank plus at least one label")
        if min(self.d_pred, self.pred_layers, self.d_joint) < 1:
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
    hc: HeadConfig
    w: np.ndarray
    b: np.ndarray


@dataclass
class RnntHead:
    hc: HeadConfig
    tensors: dict[str, np.ndarray]

    def cell(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = self.tensors
        return t[f"rnnt.cell{i}.w_in"], t[f"rnnt.cell{i}.w_h"], t[f"rnnt.cell{i}.b"]


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
    logits = linear(enc, head.w, head.b)
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
        out = []
        for t in range(logprobs.shape[0]):
            k = int(np.argmax(logprobs[t]))  # ties resolve to the lowest id
            if k != self.blank_id and k != self._prev:
                out.append((k, frame_offset + t))
            self._prev = k
        return out


def rnnt_init_state(head: RnntHead) -> list[np.ndarray]:
    return [np.zeros(head.hc.d_pred, dtype=np.float32) for _ in range(head.hc.pred_layers)]


def rnnt_pred_advance(
    head: RnntHead, states: list[np.ndarray], token_id: int, rec: ComputeLedger | None = None
) -> list[np.ndarray]:
    """One prediction-network step after emitting token_id."""
    x = head.tensors["rnnt.embed"][token_id]
    new_states = []
    for i in range(head.hc.pred_layers):
        w_in, w_h, b = head.cell(i)
        z = (
            np.asarray(linear(x[None, :], w_in), dtype=np.float64)[0]
            + np.asarray(linear(states[i][None, :], w_h), dtype=np.float64)[0]
            + b.astype(np.float64)
        )
        check_finite(z, "RNNT prediction cell")  # tanh maps an infinity to +-1
        h = np.tanh(z).astype(np.float32)
        new_states.append(h)
        x = h
    if rec is not None:
        rec.add("decoder", head.hc.pred_layers * 2 * head.hc.d_pred * head.hc.d_pred)
    return new_states


def rnnt_joint_logits(
    head: RnntHead, enc_t: np.ndarray, g: np.ndarray, rec: ComputeLedger | None = None
) -> np.ndarray:
    t = head.tensors
    z = linear(enc_t[None, :], t["rnnt.joint_enc.w"], t["rnnt.joint_enc.b"]).astype(
        np.float64
    ) + linear(g[None, :], t["rnnt.joint_pred.w"], t["rnnt.joint_pred.b"]).astype(np.float64)
    check_finite(z, "RNNT joint hidden layer")  # tanh maps an infinity to +-1
    h = np.tanh(z).astype(np.float32)
    if rec is not None:
        hc = head.hc
        rec.add(
            "decoder",
            hc.d_model * hc.d_joint + hc.d_pred * hc.d_joint + hc.d_joint * hc.vocab_size,
        )
    logits = linear(h, t["rnnt.joint_out.w"], t["rnnt.joint_out.b"])[0]
    check_finite(logits, "RNNT joint logits")
    return logits


def rnnt_greedy_decode(
    enc: np.ndarray,
    head: RnntHead,
    states: list[np.ndarray] | None = None,
    blank_id: int = 0,
    max_symbols_per_frame: int = 10,
    frame_offset: int = 0,
    rec: ComputeLedger | None = None,
) -> tuple[list[tuple[int, int]], list[np.ndarray]]:
    """Frame-synchronous greedy decoding; returns (token, frame) pairs and state.

    Passing the returned state into the next call continues the same
    hypothesis, so decoding an utterance in any number of pieces yields the
    same tokens as decoding it at once.
    """
    enc = _encoder_rows(enc, head.hc)
    if states is None:
        states = rnnt_init_state(head)
    if len(states) != head.hc.pred_layers:
        raise ArgumentError(
            f"state has {len(states)} layers, head expects {head.hc.pred_layers}"
        )
    out: list[tuple[int, int]] = []
    for t in range(enc.shape[0]):
        emitted = 0
        while emitted < max_symbols_per_frame:
            g = states[-1]
            logits = rnnt_joint_logits(head, enc[t], g, rec)
            k = int(np.argmax(logits))  # ties resolve to the lowest id
            if k == blank_id:
                break
            out.append((k, frame_offset + t))
            states = rnnt_pred_advance(head, states, k, rec)
            emitted += 1
    return out, states


def rnnt_joint_log_probs(
    enc: np.ndarray, target: list[int], head: RnntHead, blank_id: int = 0
) -> np.ndarray:
    """Teacher-forced joint grid (T, U+1, V) of normalized log-probs."""
    enc = _encoder_rows(enc, head.hc)
    if blank_id in target:
        raise ArgumentError("target must not contain blank")
    states = rnnt_init_state(head)
    gs = [states[-1]]
    for y in target:
        states = rnnt_pred_advance(head, states, y)
        gs.append(states[-1])
    t_len, u_len, v = enc.shape[0], len(target) + 1, head.hc.vocab_size
    grid = np.zeros((t_len, u_len, v), dtype=np.float64)
    for t in range(t_len):
        for u in range(u_len):
            grid[t, u] = log_softmax(rnnt_joint_logits(head, enc[t], gs[u]))
    return grid
