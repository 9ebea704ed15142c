"""WAV ingestion and streamable log-mel features.

There is deliberately no utterance-level normalization anywhere in this
module: every output frame is a function of the samples in its own window
only, so features computed chunk by chunk (carrying the sample remainder
between pushes) are bit-identical to features of the whole recording.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, InputFileError
from .numerics import matmul64

LOG_FLOOR = 1e-10


@dataclass
class AudioBuffer:
    sample_rate: int
    samples: np.ndarray  # int16, mono

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise FormatError(f"sample_rate={self.sample_rate} (must be > 0)")
        self.samples = np.asarray(self.samples, dtype=np.int16)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 16000
    window_ms: float = 25.0
    frame_shift_ms: float = 10.0
    n_mels: int = 80

    def __post_init__(self):
        if self.window_ms < self.frame_shift_ms:
            raise ConfigError("window_ms must be >= frame_shift_ms")
        if self.n_mels < 1:
            raise ConfigError("n_mels must be >= 1")

    @property
    def window_samples(self) -> int:
        return int(round(self.sample_rate * self.window_ms / 1000.0))

    @property
    def shift_samples(self) -> int:
        return int(round(self.sample_rate * self.frame_shift_ms / 1000.0))


def read_wav(path: str) -> AudioBuffer:
    """Parse a RIFF/WAVE file; PCM16 mono little-endian only."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as ex:
        raise InputFileError(f"cannot read {path}: {ex}") from ex
    if len(raw) < 12 or raw[:4] != b"RIFF":
        raise FormatError("missing RIFF magic")
    if raw[8:12] != b"WAVE":
        raise FormatError(f"RIFF form type {raw[8:12]!r} (expected WAVE)")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"truncated chunk {cid!r}")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError("fmt chunk too short")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None:
        raise FormatError("missing fmt chunk")
    if data is None:
        raise FormatError("missing data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise FormatError(f"audio_format={audio_format} (expected PCM=1)")
    if channels != 1:
        raise FormatError(f"channels={channels} (expected mono=1)")
    if bits != 16:
        raise FormatError(f"bits_per_sample={bits} (expected 16)")
    samples = np.frombuffer(data[: len(data) - (len(data) % 2)], dtype="<i2")
    return AudioBuffer(sample_rate=sample_rate, samples=samples.astype(np.int16))


def hann_window(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def mel_scale(hz: np.ndarray | float) -> np.ndarray | float:
    return 1127.0 * np.log(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_filterbank(n_mels: int, n_bins: int, sample_rate: int, window_samples: int) -> np.ndarray:
    """Triangular mel filters (n_bins, n_mels), peak 1, spanning 0..Nyquist."""
    bin_hz = np.arange(n_bins) * sample_rate / float(window_samples)
    bin_mel = mel_scale(bin_hz)
    edges = np.linspace(0.0, float(mel_scale(sample_rate / 2.0)), n_mels + 2)
    fb = np.zeros((n_bins, n_mels), dtype=np.float64)
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_mel - lo) / max(center - lo, 1e-12)
        down = (hi - bin_mel) / max(hi - center, 1e-12)
        fb[:, m] = np.maximum(0.0, np.minimum(up, down))
    return fb


_DFT_CACHE: dict[int, np.ndarray] = {}


def _dft_matrix(n: int) -> np.ndarray:
    """(n, 2 * (n // 2 + 1)): the real DFT's cos columns, then its sin columns."""
    if n not in _DFT_CACHE:
        k = np.arange(n)[:, None]
        b = np.arange(n // 2 + 1)[None, :]
        ang = -2.0 * np.pi * k * b / n
        # written in place: a concatenate would hold a third n x n_bins array
        dft = np.empty((n, 2 * b.shape[1]))
        np.cos(ang, out=dft[:, : b.shape[1]])
        np.sin(ang, out=dft[:, b.shape[1] :])
        _DFT_CACHE[n] = dft
    return _DFT_CACHE[n]


class StreamingFeatureExtractor:
    """Carries the inter-frame sample remainder so pushes of any size work."""

    def __init__(self, cfg: FeatureConfig):
        self.cfg = cfg
        self._pending = np.zeros(0, dtype=np.int16)
        win = cfg.window_samples
        self._hann = hann_window(win)
        self._dft = _dft_matrix(win)
        self._fb = mel_filterbank(cfg.n_mels, win // 2 + 1, cfg.sample_rate, win)

    def push(self, samples: np.ndarray) -> np.ndarray:
        """Consume samples, return all newly complete frames (n, n_mels) float32."""
        buf = np.concatenate([self._pending, np.asarray(samples, dtype=np.int16)])
        win, shift = self.cfg.window_samples, self.cfg.shift_samples
        if len(buf) < win:
            self._pending = buf
            return np.zeros((0, self.cfg.n_mels), dtype=np.float32)
        n_frames = (len(buf) - win) // shift + 1
        x = buf.astype(np.float64) / 32768.0
        idx = np.arange(win)[None, :] + shift * np.arange(n_frames)[:, None]
        frames = x[idx] * self._hann[None, :]
        # matmul64 sums each output element sequentially over k, so rows are
        # independent of how many frames are in the batch, and each column of
        # the cos|sin product equals that column computed alone.
        spec = matmul64(frames, self._dft)
        n_bins = win // 2 + 1
        re, im = spec[:, :n_bins], spec[:, n_bins:]
        power = re * re + im * im
        mel = matmul64(power, self._fb)
        out = np.log(mel + LOG_FLOOR).astype(np.float32)
        self._pending = buf[n_frames * shift :]
        return out


def log_mel(audio: AudioBuffer, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Log-mel energies of a whole recording, (n_frames, n_mels) float32;
    ln(power + 1e-10), no normalization."""
    cfg = cfg or FeatureConfig()
    if audio.sample_rate != cfg.sample_rate:
        raise ConfigError(
            f"audio sample rate {audio.sample_rate} != configured {cfg.sample_rate}"
        )
    return StreamingFeatureExtractor(cfg).push(audio.samples)

