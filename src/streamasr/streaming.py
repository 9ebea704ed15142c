"""Session engine: audio in, transcripts plus compute and latency accounting out.

Three ways to run the same weights:

  streaming - chunked cache-aware inference (the real thing). In every
              regime a step runs only the query rows it settles, so the
              transcript and the encoder outputs equal the offline run
              exactly, and the ledger shows zero duplicate MACs.
  offline   - encode_full, the same limited-context mask over the whole
              utterance: the same stream in long steps.
  buffered  - the conventional baseline: overlapping windows through an
              unrestricted-mask pass, keeping only each window's central
              chunk. Context regions are recomputed every window, which the
              duplicate counter makes visible.

All three decode through one _Decoders, the owner of all decoding state: CTC's
collapse state, the RNNT prediction-net state and the emitted tokens. A session
pushes each step's rows, offline pushes once, and buffered restarts the
prediction net in every window. With STREAMASR_LOG=debug (or this module's
logger at DEBUG) a session logs one line per step.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .context import AttentionContext, LatencyModel, check_fields, receptive_field_tokens
from .decoders import (
    CtcIncrementalDecoder,
    RnntState,
    Vocab,
    ctc_logprobs,
    rnnt_greedy_decode,
)
from .encoder import block_frames, encode_full, encode_step, init_state
from .errors import ArgumentError, ConfigError, SessionError
from .features import AudioBuffer, check_sample_rate, first_frames, log_mel, pcm16
from .ledger import ComputeLedger
from .metrics import eil
from .model import HybridModel

_log = logging.getLogger(__name__)


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
        check_fields(self)
        if not 0 < self.chunk_seconds <= self.buffer_seconds < math.inf:
            raise ConfigError(
                f"buffered windows need 0 < chunk_seconds <= buffer_seconds < inf, got "
                f"{self.chunk_seconds} and {self.buffer_seconds}"
            )


class _Decoders:
    """The heads one run decodes with and all their state: CTC's collapse state,
    the RNNT prediction-net state and its joint projection (None starts
    afresh), the encoder rows decoded so far (the next push's frame offset)
    and the (token, frame) pairs per decoder."""

    def __init__(self, model: HybridModel, vocab: Vocab, choice: str):
        if vocab.size != model.cfg.vocab_size:
            raise ConfigError(f"vocab size {vocab.size} != model vocab {model.cfg.vocab_size}")
        if choice not in ("ctc", "rnnt", "both"):
            raise ArgumentError(f"decoder must be ctc, rnnt or both, got {choice!r}")
        self.model, self.vocab = model, vocab
        self.raw: dict[str, list[tuple[int, int]]] = {
            d: [] for d in (["ctc", "rnnt"] if choice == "both" else [choice])}
        self._ctc = CtcIncrementalDecoder(vocab.blank_id)
        self.rnnt_state: RnntState | None = None
        self.frames = 0

    def push(self, enc: np.ndarray, ledger: ComputeLedger) -> None:
        """Decode the next encoder rows, the first of which is frame self.frames."""
        if enc.shape[0] == 0:
            return
        if "ctc" in self.raw:
            self.raw["ctc"] += self._ctc.push(ctc_logprobs(enc, self.model.ctc, ledger),
                                              self.frames)
        if "rnnt" in self.raw:
            toks, self.rnnt_state = rnnt_greedy_decode(
                enc, self.model.rnnt, self.rnnt_state, blank_id=self.vocab.blank_id,
                frame_offset=self.frames, rec=ledger,
            )
            self.raw["rnnt"] += toks
        self.frames += enc.shape[0]

    def result(
        self, mode: str, ledger: ComputeLedger, emit_frame: Callable[[int], int],
        lm: LatencyModel | None,
    ) -> StreamResult:
        """Transcripts, built once all decoding is done so every transcript's
        macs is the whole ledger.

        emit_frame maps a token's frame to the frame completing its look-ahead;
        lm=None leaves the average latency unset (offline).
        """
        transcripts = {}
        for name, pairs in self.raw.items():
            toks = [TranscriptToken(self.vocab.tokens[k], k, f, emit_frame(f)) for k, f in pairs]
            avg = None if lm is None else eil(
                [t.emit_frame for t in toks], [t.first_frame for t in toks], lm
            )
            transcripts[name] = Transcript(
                decoder=name, mode=mode, tokens=toks, avg_latency_ms=avg, macs=ledger.to_dict()
            )
        return StreamResult(transcripts=transcripts, ledger=ledger)


class StreamingSession:
    """One audio stream: feed samples in any sized pieces, then finish().

    Owns all mutable state: the int16 samples from the next step's first
    frame on, the encoder caches and the decoders. A feed that completes one
    or more steps' frames makes those frames in one feature push and runs the
    steps; any other feed only keeps its samples. Steps are cut every
    step_tokens() tokens of the attention context, and a frame depends only
    on its own window, so identical audio fed in different piece sizes
    produces identical transcripts and ledgers.
    """

    def __init__(self, model: HybridModel, vocab: Vocab, decoder: str = "both"):
        self.model = model
        self._dec = _Decoders(model, vocab, decoder)
        cfg = model.cfg.encoder
        self._fcfg = model.cfg.feature_config()
        self._samples = np.zeros(0, dtype=np.int16)
        self._step_frames = cfg.attention.step_tokens() * cfg.downsampling_rate
        self.state = init_state(cfg)
        self.ledger = ComputeLedger()

    def feed(self, samples: np.ndarray) -> None:
        """Bare samples, at the model's rate: model.cfg.feature_config().sample_rate."""
        if self.state.finished:
            raise SessionError("session already finished")
        self._samples = np.concatenate([self._samples, pcm16(samples)])
        sf = self._step_frames
        n = self._fcfg.frames_in(len(self._samples)) // sf * sf
        if n:
            mel = first_frames(self._samples, n, self._fcfg)
            for f0 in range(0, n, sf):
                self._step(mel[f0 : f0 + sf], final=False)
            # a view of the rest would pin every sample of this feed
            self._samples = self._samples[n * self._fcfg.shift_samples :].copy()

    def _step(self, frames: np.ndarray, final: bool) -> None:
        step = self.ledger.new_step()
        enc_new, _ = encode_step(
            frames, self.state, self.model.encoder, self.model.cfg.encoder,
            rec=self.ledger, final=final,
        )
        self._dec.push(enc_new, self.ledger)
        _log.debug("step %d: %d tokens settled, %d MACs",
                   len(self.ledger.steps) - 1, enc_new.shape[0], step.total)

    def finish(self) -> StreamResult:
        """Process whatever remains (a short final chunk is fine) and assemble."""
        if self.state.finished:
            raise SessionError("session already finished")
        n = self._fcfg.frames_in(len(self._samples))
        self._step(first_frames(self._samples, n, self._fcfg), final=True)
        self._samples = np.zeros(0, dtype=np.int16)
        enc, total = self.model.cfg.encoder, self.state.tokens_emitted
        return self._dec.result(
            "streaming", self.ledger,
            lambda f: receptive_field_tokens(enc.attention, enc.n_layers, enc.conv_kernel, f,
                                             total)[1],
            self.model.cfg.latency_model(),
        )


def run_streaming(
    audio: AudioBuffer,
    model: HybridModel,
    vocab: Vocab,
    decoder: str = "both",
) -> StreamResult:
    check_sample_rate(audio, model.cfg.feature_config())
    session = StreamingSession(model, vocab, decoder=decoder)
    session.feed(audio.samples)
    return session.finish()


class _MelPieces:
    """log_mel of a recording as encode_full's pieces source, for run_offline.

    Pieces are the steps encode_full takes over an array, block_frames()
    frames and a partial last one, each computed on the caller's thread when
    encode_full asks for it. Each piece comes from its own samples alone, and
    a frame depends on its own window only, so the pieces are log_mel's rows
    bit for bit and the whole mel is never held.
    """

    def __init__(self, audio: AudioBuffer, model: HybridModel):
        self._fcfg = model.cfg.feature_config()
        check_sample_rate(audio, self._fcfg)
        self._samples, self._size = audio.samples, block_frames(model.cfg.encoder)
        self.n_frames = self._fcfg.frames_in(len(self._samples))

    def __iter__(self):
        for f0 in range(0, max(self.n_frames, 1), self._size):
            yield first_frames(self._samples[f0 * self._fcfg.shift_samples :],
                               min(self._size, self.n_frames - f0), self._fcfg)


def run_offline(
    audio: AudioBuffer,
    model: HybridModel,
    vocab: Vocab,
    decoder: str = "both",
) -> StreamResult:
    """Whole-utterance inference with the same limited-context mask:
    encode_full stepping through the log-mel pieces, then one decode of all
    its tokens."""
    dec = _Decoders(model, vocab, decoder)
    ledger = ComputeLedger()
    ledger.new_step()
    enc = encode_full(_MelPieces(audio, model), model.encoder, model.cfg.encoder, rec=ledger)
    dec.push(enc, ledger)
    return dec.result("offline", ledger, lambda f: f, None)


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
    dec = _Decoders(model, vocab, decoder)
    for c0 in range(0, total, chunk_tok):
        c1 = min(c0 + chunk_tok - 1, total - 1)
        b0 = max(0, c0 - left)
        b1 = min(total - 1, c1 + right)
        step = ledger.new_step()
        window = mel[b0 * dr : (b1 + 1) * dr]
        # one chunk spanning the window: every query sees every key
        full = replace(cfg, attention=AttentionContext.chunked(b1 - b0 + 1, 0))
        enc = encode_full(window, model.encoder, full, rec=ledger)
        # the step holds this window's encoder MACs alone (the decoders push
        # below), and under one chunk every token costs the same, so the
        # tokens outside the central chunk cost an exact share of them
        n_window, n_central = b1 - b0 + 1, c1 - c0 + 1
        step.duplicate += step.total * (n_window - n_central) // n_window
        dec.rnnt_state = None  # the prediction net restarts in every buffer
        dec.push(enc[c0 - b0 : c1 - b0 + 1], ledger)  # the central chunks tile the utterance
    return dec.result(
        "buffered", ledger,
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
