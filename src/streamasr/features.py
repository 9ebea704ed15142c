"""WAV ingestion and streamable log-mel features.

There is deliberately no utterance-level normalization anywhere in this
module: every output frame is a function of the samples in its own window
only, so features computed chunk by chunk (carrying the sample remainder
between pushes) are bit-identical to features of the whole recording.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .container import file_path
from .context import check_fields
from .errors import ConfigError, FormatError, InputFileError
from .numerics import matmul64

LOG_FLOOR = 1e-10
_BLOCK_FRAMES = 64  # frames per feature block: 0.64 s at the default 10 ms shift
_MEL_BANDS = 4  # runs of adjacent mel filters, each multiplied over its own bins


def pcm16(samples) -> np.ndarray:
    """`samples` as an int16 array. FormatError unless they are a 1-D array
    (or sequence) of integers within int16's range: a float or an integer
    out of range would be truncated or wrapped without a word."""
    try:
        a = np.asarray(samples)
    except (TypeError, ValueError) as ex:  # ragged nesting
        raise FormatError(f"samples are not a 1-D integer array: {ex}") from ex
    if a.ndim != 1 or (a.size > 0 and a.dtype.kind not in "iu"):
        raise FormatError(f"samples must be a 1-D integer array, got {a.dtype} {a.shape}")
    if a.dtype != np.int16 and a.size > 0 and (a.min() < -32768 or a.max() > 32767):
        raise FormatError(f"samples span [{a.min()}, {a.max()}], beyond int16")
    return a.astype(np.int16, copy=False)


@dataclass
class AudioBuffer:
    sample_rate: int
    samples: np.ndarray  # int16, mono

    def __post_init__(self):
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Integral) or rate <= 0:
            raise FormatError(f"sample_rate={rate!r} (must be an integer > 0)")
        self.samples = pcm16(self.samples)

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
        check_fields(self)
        if not all(map(math.isfinite, (self.sample_rate, self.window_ms, self.frame_shift_ms))):
            raise ConfigError(f"feature config fields must be finite: {self}")
        if self.shift_samples < 1:
            raise ConfigError(f"a frame shift of {self.frame_shift_ms} ms is under one sample")
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

    def frames_in(self, n_samples: int) -> int:
        """Whole frames in n_samples samples."""
        return max(0, (n_samples - self.window_samples) // self.shift_samples + 1)


def read_wav(path: str) -> AudioBuffer:
    """Parse a RIFF/WAVE file; PCM16 mono little-endian only."""
    try:
        with open(file_path(path), "rb") as f:
            raw = f.read()
    except OSError as ex:
        raise InputFileError(f"cannot read {path}: {ex}") from ex
    if len(raw) < 12 or raw[:4] != b"RIFF":
        raise FormatError("missing RIFF magic")
    if raw[8:12] != b"WAVE":
        raise FormatError(f"RIFF form type {raw[8:12]!r} (expected WAVE)")
    raw = memoryview(raw)  # chunk bodies are views, not copies of the file
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid = bytes(raw[pos : pos + 4])
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


@functools.cache
def _extractor_matrices(cfg: FeatureConfig) -> tuple[np.ndarray, tuple]:
    """The Hann window and the mel bands of `cfg`, built once per config.

    The (window // 2 + 1 rfft bins, n_mels) filterbank is cut into
    _MEL_BANDS runs of adjacent filters (fewer if there are fewer filters).
    A band is (lo, hi, weights): the filterbank's rows lo..hi-1, the bins
    where any of the band's filters is nonzero, and its columns, or no rows
    when all of them are empty."""
    n = cfg.window_samples
    fb = mel_filterbank(cfg.n_mels, n // 2 + 1, cfg.sample_rate, n)
    bands, k = [], min(_MEL_BANDS, cfg.n_mels)
    for b in range(k):
        m0, m1 = cfg.n_mels * b // k, cfg.n_mels * (b + 1) // k
        rows = np.flatnonzero((fb[:, m0:m1] != 0).any(axis=1))
        lo, hi = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
        bands.append((lo, hi, np.ascontiguousarray(fb[lo:hi, m0:m1])))
    hann = hann_window(n)
    for m in (hann, *(w for _, _, w in bands)):
        m.flags.writeable = False  # every extractor of cfg shares them
    return hann, tuple(bands)


def _mel_product(power: np.ndarray, bands: tuple) -> np.ndarray:
    """matmul64(power, filterbank) of non-negative finite power rows, one
    matmul64 per band over the band's own bins.

    Bit for bit the dense product: a dropped term is p times a zero weight,
    a zero since p >= 0 is finite; einsum's sum starts at +0 and never goes
    negative, so adding a zero changes nothing, and the kept terms are added
    in the same ascending order. A band with no rows gives einsum's +0 sums
    over an empty k."""
    return np.concatenate([matmul64(power[:, lo:hi], w) for lo, hi, w in bands], axis=1)


class StreamingFeatureExtractor:
    """Carries the inter-frame sample remainder so pushes of any size work."""

    def __init__(self, cfg: FeatureConfig):
        self.cfg = cfg
        self._pending = np.zeros(0, dtype=np.int16)
        self._hann, self._bands = _extractor_matrices(cfg)

    def push(self, samples: np.ndarray) -> np.ndarray:
        """Consume samples (see pcm16), return all newly complete frames
        (n, n_mels) float32.

        The frames run in blocks of at most _BLOCK_FRAMES: each block's
        samples are converted once, its frames are strided views of them,
        each windowed frame's power spectrum comes from one `np.fft.rfft`
        over the block's rows, the mel product is one matmul64 per mel band
        (_mel_product), and the log rows are written into the one float32
        output. rfft transforms each row as it
        would that row alone (numpy's pocketfft runs one transform per row,
        and the tests hold it to that bit for bit), a row of matmul64's
        output depends only on its own operand row, and the other steps run
        element by element, so every bit is the same for any block size or
        packet split. The working set is one block of float64 plus the
        output: traced, log_mel of 60 s peaks at 4.6 MiB for a 1.8 MiB
        output, where float64 buffers over the whole push took 84 MiB."""
        buf = np.concatenate([self._pending, pcm16(samples)])
        win, shift = self.cfg.window_samples, self.cfg.shift_samples
        n_frames = self.cfg.frames_in(len(buf))
        out = np.empty((n_frames, self.cfg.n_mels), dtype=np.float32)
        for f0 in range(0, n_frames, _BLOCK_FRAMES):
            n = min(_BLOCK_FRAMES, n_frames - f0)
            x = buf[f0 * shift : (f0 + n - 1) * shift + win].astype(np.float64) / 32768.0
            # frame i is x[i * shift : i * shift + win], a view of x
            frames = np.ndarray((n, win), np.float64, buffer=x, strides=(shift * 8, 8))
            spec = np.fft.rfft(frames * self._hann[None, :], axis=1)
            power = spec.real * spec.real
            power += spec.imag * spec.imag
            mel = _mel_product(power, self._bands)
            out[f0 : f0 + n] = np.log(mel + LOG_FLOOR)
        self._pending = buf[n_frames * shift :].copy()  # a view would pin the whole push
        return out


def first_frames(samples: np.ndarray, n: int, cfg: FeatureConfig) -> np.ndarray:
    """Log-mel of the first n frames of `samples`, from those frames' own
    samples: one push of a fresh extractor. A frame depends only on its own
    window, so these are the rows of any push of the same samples."""
    return StreamingFeatureExtractor(cfg).push(
        samples[: (n - 1) * cfg.shift_samples + cfg.window_samples])


def log_mel(audio: AudioBuffer, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Log-mel energies of a whole recording, (n_frames, n_mels) float32;
    ln(power + 1e-10), no normalization. One push of the recording, so it
    holds one block of float64 and its float32 output, whatever the
    recording's length."""
    cfg = cfg or FeatureConfig()
    check_sample_rate(audio, cfg)
    return StreamingFeatureExtractor(cfg).push(audio.samples)


def check_sample_rate(audio: AudioBuffer, cfg: FeatureConfig) -> None:
    """Raise ConfigError unless the recording is at the configured rate."""
    if audio.sample_rate != cfg.sample_rate:
        raise ConfigError(f"audio sample rate {audio.sample_rate} != configured {cfg.sample_rate}")
