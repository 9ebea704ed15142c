import math

import numpy as np
import pytest

from streamasr import (
    AudioBuffer,
    FeatureConfig,
    StreamingFeatureExtractor,
    log_mel,
    read_wav,
)
from streamasr.errors import FormatError, InputFileError
from streamasr import features
from streamasr.features import LOG_FLOOR, hann_window, mel_filterbank

from helpers import dft_power_oracle, synth_audio, write_wav


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
    # one cos|sin DFT product and one mel product per push that yields frames
    calls = []
    real = features.matmul64

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(features, "matmul64", counting)
    audio = synth_audio(0.5, seed=8)
    fe = StreamingFeatureExtractor(FeatureConfig())
    yielded = 0
    for n in (100, 200, 500, 160, 1, 3000, 4039):
        before = len(calls)
        frames = fe.push(audio.samples[:n])
        yielded += frames.shape[0] > 0
        assert len(calls) - before == (2 if frames.shape[0] > 0 else 0)
    assert 0 < yielded < 7
