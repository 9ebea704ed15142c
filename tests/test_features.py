import functools
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from streamasr import (
    AudioBuffer,
    FeatureConfig,
    StreamingFeatureExtractor,
    log_mel,
    read_wav,
)
from streamasr.errors import ConfigError, FormatError, InputFileError
from streamasr import features
from streamasr.features import LOG_FLOOR, hann_window, mel_filterbank

from helpers import (
    count_feature_kernels,
    dense_mel_product,
    dft_power_oracle,
    synth_audio,
    traced_peak,
    write_wav,
)

BLOCK = features._BLOCK_FRAMES
BANDS = features._MEL_BANDS


class TestReadWav:
    def test_silence_roundtrip(self, tmp_path):
        path = str(tmp_path / "s.wav")
        write_wav(path, np.zeros(16000, np.int16))
        buf = read_wav(path)
        assert buf.sample_rate == 16000
        assert len(buf.samples) == 16000
        assert np.all(buf.samples == 0)

    def test_sine_fixture_matches_generator(self, tmp_path):
        t = np.arange(8000) / 16000.0
        wave = (10000 * np.sin(2 * np.pi * 440.0 * t)).astype(np.int16)
        path = str(tmp_path / "sine.wav")
        write_wav(path, wave)
        buf = read_wav(path)
        assert np.array_equal(buf.samples, wave)

    def test_stereo_rejected(self, tmp_path):
        path = str(tmp_path / "st.wav")
        write_wav(path, np.zeros(100, np.int16), channels=2)
        with pytest.raises(FormatError, match="channels=2"):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = str(tmp_path / "f.wav")
        write_wav(path, np.zeros(100, np.int16), audio_format=3)
        with pytest.raises(FormatError, match="audio_format=3"):
            read_wav(path)

    def test_corrupt_header(self, tmp_path):
        path = str(tmp_path / "bad.wav")
        with open(path, "wb") as f:
            f.write(b"RIFFxxxxNOPE")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFileError):
            read_wav(str(tmp_path / "nope.wav"))

    def test_truncated_chunk_is_named(self, tmp_path):
        path = str(tmp_path / "cut.wav")
        write_wav(path, np.zeros(100, np.int16))
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 10)
        with pytest.raises(FormatError, match="truncated chunk b'data'"):
            read_wav(path)

    def test_peak_is_the_file_and_its_samples(self, tmp_path):
        # the file's bytes plus one copy of its samples; a sliced chunk body
        # would add a third
        path = str(tmp_path / "long.wav")
        write_wav(path, np.random.default_rng(0).integers(-3000, 3000, 16000 * 120))
        read_wav(path)  # first-call allocations are not the reader's
        buf, peak = traced_peak(lambda: read_wav(path))
        assert len(buf.samples) == 16000 * 120
        assert buf.samples.base is None and buf.samples.flags.writeable  # not the file buffer
        assert peak <= 2.2 * os.path.getsize(path)


class TestFeatureConfig:
    @pytest.mark.parametrize("kw", [
        {"frame_shift_ms": 0.0}, {"frame_shift_ms": 0.01}, {"frame_shift_ms": -10.0},
        {"frame_shift_ms": float("nan")}, {"frame_shift_ms": float("inf")},
        {"window_ms": float("nan")}, {"window_ms": float("inf")}, {"sample_rate": 0},
    ], ids=["shift-0", "shift-0.01", "shift-negative", "shift-nan", "shift-inf", "window-nan",
            "window-inf", "rate-0"])
    def test_a_shift_the_extractor_cannot_step_by_is_config_error(self, kw):
        with pytest.raises(ConfigError):
            FeatureConfig(**kw)

    def test_one_sample_shift_is_taken(self):
        assert FeatureConfig(frame_shift_ms=0.0625).shift_samples == 1


class TestLogMel:
    def test_silence_hits_log_floor(self):
        buf = AudioBuffer(16000, np.zeros(16000, np.int16))
        mel = log_mel(buf)
        assert mel.shape[0] > 0
        assert np.allclose(mel, math.log(LOG_FLOOR))

    def test_too_short_yields_empty(self):
        buf = AudioBuffer(16000, np.zeros(100, np.int16))
        mel = log_mel(buf)
        assert mel.shape[0] == 0

    def test_concatenation_locality(self):
        a = synth_audio(0.7, seed=1)
        b = synth_audio(0.5, seed=2)
        both = AudioBuffer(16000, np.concatenate([a.samples, b.samples]))
        mel_a = log_mel(a)
        mel_both = log_mel(both)
        assert np.array_equal(mel_both[: mel_a.shape[0]], mel_a)

    def test_tone_concentrates_energy_in_matching_bin(self):
        cfg = FeatureConfig()
        tone_hz = 1000.0
        t = np.arange(16000) / 16000.0
        buf = AudioBuffer(16000, (9000 * np.sin(2 * np.pi * tone_hz * t)).astype(np.int16))
        mel = log_mel(buf, cfg)
        # locate the mel filter holding the tone via a direct DFT oracle
        win = cfg.window_samples
        x = buf.samples[:win].astype(np.float64) / 32768.0
        power = dft_power_oracle(x * hann_window(win))
        fb = mel_filterbank(cfg.n_mels, win // 2 + 1, 16000, win)
        expected_bin = int(np.argmax(power @ fb))
        assert int(np.argmax(mel[5])) == expected_bin

    def test_streaming_extractor_equals_whole(self):
        audio = synth_audio(1.3, seed=3)
        cfg = FeatureConfig()
        whole = log_mel(audio, cfg)
        ext = StreamingFeatureExtractor(cfg)
        rng = np.random.default_rng(0)
        parts = []
        pos = 0
        while pos < len(audio.samples):
            n = int(rng.integers(1, 3000))
            parts.append(ext.push(audio.samples[pos : pos + n]))
            pos += n
        got = np.concatenate(parts, axis=0)
        assert np.array_equal(got, whole)

    def test_no_utterance_statistics(self):
        # appending audio never changes already-computed frames
        a = synth_audio(0.5, seed=4)
        loud = AudioBuffer(16000, np.concatenate([
            a.samples, (0.9 * 32767 * np.ones(8000)).astype(np.int16)
        ]))
        mel_a = log_mel(a)
        mel_loud = log_mel(loud)
        assert np.array_equal(mel_loud[: mel_a.shape[0]], mel_a)


def test_push_makes_two_kernel_calls(monkeypatch):
    # the two kernels: one rfft and one matmul64 per mel band, per push
    # that yields frames
    calls = count_feature_kernels(monkeypatch)
    audio = synth_audio(0.5, seed=8)
    fe = StreamingFeatureExtractor(FeatureConfig())
    yielded = 0
    for n in (100, 200, 500, 160, 1, 3000, 4039):
        before = len(calls)
        frames = fe.push(audio.samples[:n])
        yielded += frames.shape[0] > 0
        assert calls[before:] == (["rfft"] + ["matmul64"] * BANDS if frames.shape[0] > 0 else [])
    assert 0 < yielded < 7


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, 3 * BLOCK + 5])
def test_push_makes_two_kernel_calls_per_block(monkeypatch, n):
    # one rfft and one matmul64 per mel band, per block
    calls = count_feature_kernels(monkeypatch)
    cfg = FeatureConfig()
    length = cfg.window_samples + (n - 1) * cfg.shift_samples if n else cfg.window_samples - 1
    frames = StreamingFeatureExtractor(cfg).push(synth_audio(4.0, seed=9).samples[:length])
    assert frames.shape[0] == n
    assert calls == (["rfft"] + ["matmul64"] * BANDS) * math.ceil(n / BLOCK)


FEATURE_CONFIGS = {
    "default": FeatureConfig(),
    "8k": FeatureConfig(sample_rate=8000),  # one empty filter
    "2.5ms": FeatureConfig(window_ms=2.5, frame_shift_ms=1.0),  # 43 of 80 filters empty
    "1ms-64": FeatureConfig(window_ms=1.0, frame_shift_ms=1.0, n_mels=64),  # an empty band
    "1-mel": FeatureConfig(n_mels=1),
    "3-mels": FeatureConfig(n_mels=3),
    "odd": FeatureConfig(sample_rate=11025, window_ms=30.0, frame_shift_ms=7.0, n_mels=23),
}


@st.composite
def power_rows(draw, n_bins: int) -> np.ndarray:
    """Power spectra: zeros, tiny, unit and huge magnitudes, mixed in a row."""
    rows = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.choice([-300.0, -30.0, 0.0, 30.0, 300.0], size=(rows, n_bins))
    power = rng.random((rows, n_bins)) * scale
    power[rng.random((rows, n_bins)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return power


class TestMelBands:
    """The banded mel product skips only zero weights, which is exact; this
    holds it to the dense product bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(FEATURE_CONFIGS)), data=st.data())
    def test_banded_equals_the_dense_product(self, name, data):
        cfg = FEATURE_CONFIGS[name]
        _, bands = features._extractor_matrices(cfg)
        power = data.draw(power_rows(cfg.window_samples // 2 + 1))
        got = features._mel_product(power, bands)
        want = dense_mel_product(power, cfg)
        assert got.shape == want.shape == (power.shape[0], cfg.n_mels)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(FEATURE_CONFIGS))
    def test_the_bands_keep_every_nonzero_weight(self, name):
        cfg = FEATURE_CONFIGS[name]
        n = cfg.window_samples
        fb = mel_filterbank(cfg.n_mels, n // 2 + 1, cfg.sample_rate, n)
        _, bands = features._extractor_matrices(cfg)
        kept = sum(int(np.count_nonzero(w)) for _, _, w in bands)
        assert kept == np.count_nonzero(fb)
        assert sum(w.shape[1] for _, _, w in bands) == cfg.n_mels
        assert len(bands) == min(BANDS, cfg.n_mels)

    def test_the_default_bands_skip_most_weights(self):
        _, bands = features._extractor_matrices(FeatureConfig())
        assert sum(w.size for _, _, w in bands) < 201 * 80 // 3


class TestRfftRows:
    """The features' exactness rests on rfft transforming each row of a batch
    as it would that row alone; this test pins it bit for bit, the way
    TestMatmul64 pins matmul64's summation order."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 69),
        width=st.sampled_from([400, 401, 512, 1, 2, 3, 97]),
        layout=st.sampled_from(["C", "slice", "strided"]),
        scale=st.sampled_from([1.0 / 32768.0, 1.0, 32768.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_equals_the_row_alone(self, rows, width, layout, scale, seed):
        rng = np.random.default_rng(seed)
        if layout == "C":
            x = rng.standard_normal((rows, width)) * scale
        elif layout == "slice":  # rows and columns cut out of a larger block
            big = rng.standard_normal((rows + 5, width + 7)) * scale
            x = big[2 : 2 + rows, 3 : 3 + width]
        else:  # every other row and column of a larger block
            big = rng.standard_normal((2 * rows + 1, 2 * width)) * scale
            x = big[1::2, ::2]
        spec = np.fft.rfft(x, axis=1)
        for i in range(rows):
            alone = np.fft.rfft(np.ascontiguousarray(x[i]))
            assert spec[i].tobytes() == alone.tobytes()


@functools.cache
def _block_reference():
    """4 s of audio (398 frames, six block edges) and its log_mel."""
    audio = synth_audio(4.0, seed=6)
    return audio, log_mel(audio)


class TestBlocks:
    def test_each_frame_is_the_push_of_its_own_window(self):
        audio, whole = _block_reference()
        cfg = FeatureConfig()
        win, shift = cfg.window_samples, cfg.shift_samples
        alone = [StreamingFeatureExtractor(cfg).push(audio.samples[i * shift : i * shift + win])
                 for i in range(whole.shape[0])]
        assert whole.shape[0] > 3 * BLOCK
        assert np.array_equal(np.concatenate(alone), whole)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.integers(1, 320), st.integers(1, 4 * BLOCK * 160)),
                    min_size=1, max_size=10))
    def test_any_split_equals_the_whole_push(self, sizes):
        # the last push takes what the drawn ones left
        audio, whole = _block_reference()
        ext = StreamingFeatureExtractor(FeatureConfig())
        parts, pos = [], 0
        for n in sizes + [len(audio.samples)]:
            parts.append(ext.push(audio.samples[pos : pos + n]))
            pos += n
        assume(sum(-(-len(p) // BLOCK) - 1 for p in parts if len(p)) >= 3)  # edges inside pushes
        assert np.array_equal(np.concatenate(parts), whole)

    def test_log_mel_holds_one_block_plus_its_output(self):
        # whole-push float64 buffers took about 46x the output
        audio = synth_audio(60.0, seed=5)
        log_mel(synth_audio(0.1, seed=5))  # the cached DFT and filterbank are not the call's
        mel, peak = traced_peak(lambda: log_mel(audio))
        assert mel.shape == (5998, 80)
        assert peak < 3 * mel.nbytes + 2 * 2**20
