"""Session engine: audio in, transcripts plus compute and latency accounting out.

Three ways to run the same weights:

  streaming - chunked cache-aware inference (the real thing). For the chunk
              regime the transcript and the encoder outputs equal the
              offline run exactly, and the ledger shows zero duplicate MACs.
  offline   - one forward pass with the same limited-context mask.
  buffered  - the conventional baseline: overlapping windows through an
              unrestricted-mask pass, keeping only each window's central
              chunk. Context regions are recomputed every window, which the
              duplicate counter makes visible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .context import AttentionContext, LatencyModel, receptive_field_tokens
from .decoders import (
    CtcIncrementalDecoder,
    Vocab,
    ctc_logprobs,
    rnnt_greedy_decode,
    rnnt_init_state,
)
from .encoder import (
    EncoderConfig,
    downsampler_macs_per_token,
    encode_full,
    encode_step,
    init_state,
)
from .errors import ArgumentError, ConfigError, SessionError
from .features import AudioBuffer, StreamingFeatureExtractor, log_mel
from .ledger import ComputeLedger
from .metrics import eil
from .model import HybridModel


@dataclass
class TranscriptToken:
    text: str
    token_id: int
    first_frame: int  # encoder frame where the token was decoded
    emit_frame: int  # encoder frame whose audio completes the needed look-ahead


@dataclass
class Transcript:
    decoder: str
    mode: str
    tokens: list[TranscriptToken]
    avg_latency_ms: float | None
    macs: dict

    @property
    def text(self) -> str:
        return "".join(t.text for t in self.tokens)

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "decoder": self.decoder,
                "tokens": [
                    {"text": t.text, "first_frame": t.first_frame, "emit_frame": t.emit_frame}
                    for t in self.tokens
                ],
                "avg_latency_ms": self.avg_latency_ms,
                "macs": self.macs,
                "text": self.text,
            },
            sort_keys=True,
        )


@dataclass
class StreamResult:
    transcripts: dict[str, Transcript]
    ledger: ComputeLedger


@dataclass(frozen=True)
class BufferedConfig:
    chunk_seconds: float = 2.0
    buffer_seconds: float = 4.0

    def __post_init__(self):
        if self.chunk_seconds <= 0:
            raise ConfigError("chunk_seconds must be > 0")
        if self.buffer_seconds < self.chunk_seconds:
            raise ConfigError("buffer must be at least as long as the chunk")


def _result(
    mode: str,
    raw: dict[str, list[tuple[int, int]]],
    vocab: Vocab,
    ledger: ComputeLedger,
    emit_frame: Callable[[int], int],
    lm: LatencyModel | None,
) -> StreamResult:
    """Transcripts from (token, frame) pairs per decoder, built once all
    decoding is done so every transcript's macs is the whole ledger.

    emit_frame maps a token's frame to the frame completing its look-ahead;
    lm=None leaves the average latency unset (offline).
    """
    transcripts = {}
    for name, pairs in raw.items():
        toks = [TranscriptToken(vocab.tokens[k], k, f, emit_frame(f)) for k, f in pairs]
        avg = None if lm is None else eil(
            [t.emit_frame for t in toks], [t.first_frame for t in toks], lm
        )
        transcripts[name] = Transcript(
            decoder=name, mode=mode, tokens=toks, avg_latency_ms=avg, macs=ledger.to_dict()
        )
    return StreamResult(transcripts=transcripts, ledger=ledger)


def _decoders_for(choice: str) -> list[str]:
    if choice not in ("ctc", "rnnt", "both"):
        raise ArgumentError(f"decoder must be ctc, rnnt or both, got {choice!r}")
    return ["ctc", "rnnt"] if choice == "both" else [choice]


class StreamingSession:
    """One audio stream: feed samples in any sized pieces, then finish().

    Owns all mutable state (feature remainder, encoder caches, decoder
    states); identical audio fed in different piece sizes produces identical
    transcripts and ledgers because steps are cut from an internal mel buffer
    at a fixed token granularity.
    """

    def __init__(
        self,
        model: HybridModel,
        vocab: Vocab,
        decoder: str = "both",
        step_tokens: int | None = None,
    ):
        if vocab.size != model.cfg.vocab_size:
            raise ConfigError(f"vocab size {vocab.size} != model vocab {model.cfg.vocab_size}")
        self.model = model
        self.vocab = vocab
        self.decoders = _decoders_for(decoder)
        cfg = model.cfg.encoder
        self._extractor = StreamingFeatureExtractor(model.cfg.feature_config())
        self._mel = np.zeros((0, cfg.n_mels), dtype=np.float32)
        self.state = init_state(cfg)
        self.ledger = ComputeLedger()
        ctx = cfg.attention
        if step_tokens is None:
            self._step_tokens = ctx.step_tokens()
        else:
            if step_tokens < 1:
                raise ConfigError("step_tokens must be >= 1")
            if step_tokens % ctx.step_tokens() != 0:
                raise ConfigError(
                    f"step_tokens {step_tokens} must be a multiple of the attention "
                    f"context's step of {ctx.step_tokens()} tokens"
                )
            self._step_tokens = step_tokens
        self._raw_tokens: dict[str, list[tuple[int, int]]] = {d: [] for d in self.decoders}
        if "ctc" in self.decoders:
            self._ctc_dec = CtcIncrementalDecoder(vocab.blank_id)
        if "rnnt" in self.decoders:
            self.state.rnnt_states = rnnt_init_state(model.rnnt)
        self._finished = False

    def feed(self, samples: np.ndarray) -> None:
        if self._finished:
            raise SessionError("session already finished")
        mel_new = self._extractor.push(samples)
        if mel_new.shape[0]:
            self._mel = np.concatenate([self._mel, mel_new], axis=0)
        step_frames = self._step_tokens * self.model.cfg.encoder.downsampling_rate
        while self._mel.shape[0] >= step_frames:
            self._step(self._mel[:step_frames], final=False)
            self._mel = self._mel[step_frames:]

    def _step(self, frames: np.ndarray, final: bool) -> None:
        self.ledger.new_step()
        offset = self.state.tokens_emitted
        enc_new, _ = encode_step(
            frames, self.state, self.model.encoder, self.model.cfg.encoder,
            rec=self.ledger, final=final,
        )
        if enc_new.shape[0] == 0:
            return
        if "ctc" in self.decoders:
            grid = ctc_logprobs(enc_new, self.model.ctc, self.ledger)
            self._raw_tokens["ctc"] += self._ctc_dec.push(grid, offset)
        if "rnnt" in self.decoders:
            toks, states = rnnt_greedy_decode(
                enc_new, self.model.rnnt, self.state.rnnt_states,
                blank_id=self.vocab.blank_id, frame_offset=offset, rec=self.ledger,
            )
            self.state.rnnt_states = states
            self._raw_tokens["rnnt"] += toks

    def finish(self) -> StreamResult:
        """Process whatever remains (a short final chunk is fine) and assemble."""
        if self._finished:
            raise SessionError("session already finished")
        self._step(self._mel, final=True)
        self._mel = self._mel[:0]
        self._finished = True
        enc, total = self.model.cfg.encoder, self.state.tokens_emitted
        return _result(
            "streaming", self._raw_tokens, self.vocab, self.ledger,
            lambda f: receptive_field_tokens(
                enc.attention, enc.n_layers, enc.conv_kernel, f, total
            )[1],
            self.model.cfg.latency_model(),
        )


def run_streaming(
    audio: AudioBuffer,
    model: HybridModel,
    vocab: Vocab,
    decoder: str = "both",
    step_tokens: int | None = None,
) -> StreamResult:
    session = StreamingSession(model, vocab, decoder=decoder, step_tokens=step_tokens)
    session.feed(audio.samples)
    return session.finish()


def run_offline(
    audio: AudioBuffer,
    model: HybridModel,
    vocab: Vocab,
    decoder: str = "both",
) -> StreamResult:
    """Single-pass inference with the same limited-context mask."""
    mel = log_mel(audio, model.cfg.feature_config())
    ledger = ComputeLedger()
    ledger.new_step()
    enc = encode_full(mel, model.encoder, model.cfg.encoder, rec=ledger)
    raw = {}
    for name in _decoders_for(decoder):
        if name == "ctc":
            grid = ctc_logprobs(enc, model.ctc, ledger)
            raw[name] = CtcIncrementalDecoder(vocab.blank_id).push(grid)
        else:
            raw[name], _ = rnnt_greedy_decode(
                enc, model.rnnt, None, blank_id=vocab.blank_id, rec=ledger
            )
    return _result("offline", raw, vocab, ledger, lambda f: f, None)


def _central_window_macs(cfg: EncoderConfig, n_window: int, n_central: int) -> int:
    """What the central tokens of a full-context window cost on their own."""
    d, f, k = cfg.d_model, cfg.d_ffn, cfg.conv_kernel
    per_token = 2 * (2 * d * f) + 7 * d * d + d * k  # two FFNs, QKVO + pointwise, conv
    per_layer = n_central * per_token + n_central * n_window * 2 * d
    return n_central * downsampler_macs_per_token(cfg) + cfg.n_layers * per_layer


def run_buffered(
    audio: AudioBuffer,
    model: HybridModel,
    vocab: Vocab,
    bcfg: BufferedConfig,
    decoder: str = "both",
) -> StreamResult:
    """Buffered baseline: full-context windows, only central chunks kept.

    CTC keeps the central log-prob rows; the RNNT prediction network is reset
    for every buffer and decodes only the central region, the simplest merge
    for a decoder with state. All window MACs are counted; whatever exceeds
    the cost of the central chunks is recorded as duplicate work.
    """
    cfg = model.cfg.encoder
    lm = model.cfg.latency_model()
    token_s = lm.token_ms / 1000.0
    chunk_tok = max(1, int(round(bcfg.chunk_seconds / token_s)))
    buffer_tok = max(chunk_tok, int(round(bcfg.buffer_seconds / token_s)))
    left = (buffer_tok - chunk_tok) // 2
    right = buffer_tok - chunk_tok - left
    mel = log_mel(audio, model.cfg.feature_config())
    dr = cfg.downsampling_rate
    total = mel.shape[0] // dr
    ledger = ComputeLedger()
    names = _decoders_for(decoder)
    raw: dict[str, list[tuple[int, int]]] = {n: [] for n in names}
    ctc_dec = CtcIncrementalDecoder(vocab.blank_id) if "ctc" in names else None
    for c0 in range(0, total, chunk_tok):
        c1 = min(c0 + chunk_tok - 1, total - 1)
        b0 = max(0, c0 - left)
        b1 = min(total - 1, c1 + right)
        step = ledger.new_step()
        window = mel[b0 * dr : (b1 + 1) * dr]
        # one chunk spanning the window: every query sees every key
        full = cfg.with_attention(AttentionContext.chunked(b1 - b0 + 1, 0))
        enc = encode_full(window, model.encoder, full, rec=ledger)
        step.duplicate += step.total - _central_window_macs(cfg, b1 - b0 + 1, c1 - c0 + 1)
        central = enc[c0 - b0 : c1 - b0 + 1]
        if "ctc" in names:
            grid = ctc_logprobs(central, model.ctc, ledger)
            raw["ctc"] += ctc_dec.push(grid, c0)
        if "rnnt" in names:
            toks, _ = rnnt_greedy_decode(
                central, model.rnnt, None, blank_id=vocab.blank_id,
                frame_offset=c0, rec=ledger,
            )
            raw["rnnt"] += toks
    return _result(
        "buffered", raw, vocab, ledger,
        lambda f: min(total - 1, (f // chunk_tok + 1) * chunk_tok - 1 + right), lm,
    )


def run_multi_lookahead(
    audio: AudioBuffer,
    model: HybridModel,
    vocab: Vocab,
    chunk_sizes: list[int],
    decoder: str = "both",
    left_chunks: int | None = None,
) -> dict[int, StreamResult]:
    """Evaluate one set of weights under several chunk sizes.

    The relative-position bias table baked into the weights must reach the
    largest chunk's future span (HybridModel.with_attention raises
    ConfigError otherwise); smaller chunks then come for free, which is what
    lets a single model serve multiple latency targets.
    """
    base = model.cfg.encoder.attention
    lc = left_chunks if left_chunks is not None else (
        base.left_chunks if base.regime == "chunk" else 1
    )
    out = {}
    for c in chunk_sizes:
        ctx = AttentionContext.chunked(c, lc)
        out[c] = run_streaming(audio, model.with_attention(ctx), vocab, decoder=decoder)
    return out
