"""Workload definitions and seeded input generation.

Everything a run feeds the program is made here from the workload seed: the
model file (``init_model`` + ``save_model``, with the RNNT blank bias
calibrated when the workload decodes with RNNT), the vocabulary file and the
audio. The program under test only ever sees those files and samples.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from streamasr import (
    AttentionContext,
    AudioBuffer,
    EncoderConfig,
    ModelConfig,
    Vocab,
    encode_full,
    init_model,
    log_mel,
    rnnt_greedy_decode,
    save_model,
)

SAMPLE_RATE = 16000
AUDIO_SECONDS = 6.0
SMOKE_AUDIO_SECONDS = 3.0
# 20 ms packets: shorter than one step of every workload (40 ms regular, 160 ms chunk).
PACKET_SAMPLES = 320
# RNNT emission target: 0.5 tokens per 40 ms encoder frame, 12.5 characters/s,
# the rate of a trained character model on read speech.
RNNT_TARGET_RATE = 0.5
RNNT_MAX_SYMBOLS = 10  # StreamingSession's default cap
BISECTION_STEPS = 14
# One network for every seed: the seed varies the audio. Other inits of the
# same config differ up to 5x in CTC emission (11 to 76 tokens per 6 s), which
# would make token counts a property of the seed rather than of the program.
MODEL_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    regime: str  # "chunk" or "regular"
    decoder: str  # StreamingSession decoder choice

    def attention(self) -> AttentionContext:
        if self.regime == "chunk":
            return AttentionContext.chunked(4, left_chunks=4)  # 160 ms chunks
        return AttentionContext.regular(1, left_context=16)  # 160 ms over 4 layers

    @property
    def decoders(self) -> list[str]:
        return ["ctc", "rnnt"] if self.decoder == "both" else [self.decoder]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chunk_ctc", "chunk", "ctc"),
        Workload("chunk_hybrid", "chunk", "both"),
        Workload("regular_ctc", "regular", "ctc"),
    )
}


def model_config(workload: Workload, vocab: Vocab) -> ModelConfig:
    """The ROADMAP baseline: 4 layers, d_model 64, 4 heads, kernel 9, 4x downsampling."""
    enc = EncoderConfig(
        n_layers=4, d_model=64, n_heads=4, conv_kernel=9, downsampling_rate=4,
        attention=workload.attention(), n_mels=80,
    )
    return ModelConfig(encoder=enc, vocab_size=vocab.size)


def speech_like_audio(seed: int, seconds: float) -> AudioBuffer:
    """Seeded speech-like sound: voiced harmonic segments shaped by three
    formant resonances, separated by short pauses, over a faint noise floor.

    Each segment has its own pitch (90-240 Hz, gliding up to 15%), formant
    triple, length (120-350 ms) and level; pauses last 40-150 ms.
    """
    rng = np.random.default_rng([seed, 1])
    n = int(round(seconds * SAMPLE_RATE))
    out = np.zeros(n)
    pos = int(rng.uniform(0.05, 0.15) * SAMPLE_RATE)
    while pos < n:
        seg = min(int(rng.uniform(0.12, 0.35) * SAMPLE_RATE), n - pos)
        t = np.arange(seg) / SAMPLE_RATE
        glide = rng.uniform(-0.15, 0.15)
        f0 = rng.uniform(90.0, 240.0) * (1.0 + glide * t / max(t[-1], 1e-3))
        phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
        formants = np.sort(rng.uniform([250.0, 800.0, 1900.0], [900.0, 2400.0, 3300.0]))
        sig = np.zeros(seg)
        for h in range(1, 64):
            fh = float(f0.mean()) * h
            if fh > 4000.0:
                break
            amp = float(np.exp(-0.5 * ((fh - formants) / 120.0) ** 2).sum()) + 0.02
            sig += amp / np.sqrt(h) * np.sin(h * phase)
        env = np.sin(np.pi * np.arange(seg) / seg) ** 0.5
        out[pos : pos + seg] += sig * env * rng.uniform(0.5, 1.0)
        pos += seg + int(rng.uniform(0.04, 0.15) * SAMPLE_RATE)
    out += rng.normal(0.0, 0.003, n)
    out *= 0.4 / np.abs(out).max()
    return AudioBuffer(SAMPLE_RATE, np.round(out * 32767).astype(np.int16))


def calibrate_blank_bias(model, vocab: Vocab, audio: AudioBuffer) -> dict:
    """Raise the RNNT joint's blank bias until greedy emission is at most
    RNNT_TARGET_RATE tokens per encoder frame on this audio.

    Bisection over [0, hi] for BISECTION_STEPS steps; the upper end of the
    final bracket is kept, so the rate is the closest one at or below the
    target. The randomly initialised head emits all-or-nothing per frame, so
    the rate holds in aggregate, not frame by frame.
    """
    enc = encode_full(log_mel(audio), model.encoder, model.cfg.encoder)
    bias = model.rnnt.tensors["rnnt.joint_out.b"]
    base = float(bias[vocab.blank_id])

    def rate(shift: float) -> float:
        bias[vocab.blank_id] = np.float32(base + shift)
        toks, _ = rnnt_greedy_decode(
            enc, model.rnnt, None, blank_id=vocab.blank_id,
            max_symbols_per_frame=RNNT_MAX_SYMBOLS,
        )
        return len(toks) / enc.shape[0]

    lo, hi = 0.0, 4.0
    while rate(hi) > RNNT_TARGET_RATE:
        lo, hi = hi, 2.0 * hi
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if rate(mid) > RNNT_TARGET_RATE:
            lo = mid
        else:
            hi = mid
    achieved = rate(hi)
    return {"blank_bias_shift": hi, "rnnt_tokens_per_frame": achieved, "frames": enc.shape[0]}


@dataclass
class Inputs:
    model_path: str
    vocab_path: str
    audio: AudioBuffer
    calibration: dict | None


def make_inputs(workload: Workload, seed: int, seconds: float, out_dir: str) -> Inputs:
    vocab = Vocab.chars()
    audio = speech_like_audio(seed, seconds)
    model = init_model(model_config(workload, vocab), MODEL_SEED)
    calibration = None
    if "rnnt" in workload.decoders:
        calibration = calibrate_blank_bias(model, vocab, audio)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload.name}-{seed}-{os.getpid()}"
    model_path = os.path.join(out_dir, f"model-{tag}.bin")
    vocab_path = os.path.join(out_dir, f"vocab-{tag}.txt")
    save_model(model, model_path)
    vocab.save(vocab_path)
    return Inputs(model_path, vocab_path, audio, calibration)
