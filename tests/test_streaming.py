import json

import numpy as np
import pytest

from streamasr import (
    AttentionContext,
    BufferedConfig,
    StreamingSession,
    encode_full,
    load_model,
    log_mel,
    run_buffered,
    run_multi_lookahead,
    run_offline,
    run_streaming,
    save_model,
)
from streamasr.errors import ConfigError, NumericsError, SessionError
from streamasr.features import AudioBuffer

from helpers import count_macs, synth_audio, tiny_model


def transcripts_equal(a, b):
    return [(t.token_id, t.first_frame) for t in a.tokens] == [
        (t.token_id, t.first_frame) for t in b.tokens
    ]


class TestStreamingVsOffline:
    @pytest.mark.parametrize(
        "ctx",
        [
            AttentionContext.chunked(3, 1),
            AttentionContext.chunked(2, 2),
            AttentionContext.zero(left_context=4),
            AttentionContext.regular(1, 4),
        ],
    )
    def test_transcripts_match(self, ctx):
        model, vocab = tiny_model(ctx, seed=31)
        audio = synth_audio(1.2, seed=32)
        st = run_streaming(audio, model, vocab)
        off = run_offline(audio, model, vocab)
        for dec in ("ctc", "rnnt"):
            assert transcripts_equal(st.transcripts[dec], off.transcripts[dec])

    def test_any_audio_chunking_is_equivalent(self):
        model, vocab = tiny_model(AttentionContext.chunked(4, 1), seed=33)
        audio = synth_audio(1.0, seed=34)
        base = run_streaming(audio, model, vocab)
        rng = np.random.default_rng(0)
        session = StreamingSession(model, vocab)
        pos = 0
        while pos < len(audio.samples):
            n = int(rng.integers(1, 4000))
            session.feed(audio.samples[pos : pos + n])
            pos += n
        other = session.finish()
        for dec in ("ctc", "rnnt"):
            assert transcripts_equal(base.transcripts[dec], other.transcripts[dec])
        assert base.ledger.to_dict() == other.ledger.to_dict()

    def test_zero_length_audio(self):
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=35)
        res = run_streaming(AudioBuffer(16000, np.zeros(0, np.int16)), model, vocab)
        assert res.transcripts["ctc"].tokens == []
        assert res.transcripts["rnnt"].tokens == []
        assert res.ledger.total == 0

    def test_determinism(self):
        model, vocab = tiny_model(AttentionContext.chunked(3, 1), seed=36)
        audio = synth_audio(0.8, seed=37)
        a = run_streaming(audio, model, vocab)
        b = run_streaming(audio, model, vocab)
        for dec in ("ctc", "rnnt"):
            assert a.transcripts[dec].to_json() == b.transcripts[dec].to_json()
        assert a.ledger.to_dict() == b.ledger.to_dict()

    def test_session_finish_once(self):
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=38)
        s = StreamingSession(model, vocab)
        s.feed(synth_audio(0.3, seed=39).samples)
        s.finish()
        with pytest.raises(SessionError):
            s.finish()
        with pytest.raises(SessionError):
            s.feed(np.zeros(100, np.int16))

    def test_step_tokens_must_be_a_context_step_multiple(self):
        model, vocab = tiny_model(AttentionContext.chunked(3, 1), seed=38)
        with pytest.raises(ConfigError):
            StreamingSession(model, vocab, step_tokens=4)
        StreamingSession(model, vocab, step_tokens=6)
        model, vocab = tiny_model(AttentionContext.regular(1, 3), seed=38)
        StreamingSession(model, vocab, step_tokens=4)


class TestLedgerEquality:
    def test_chunk_zero_duplication_and_total_match(self):
        model, vocab = tiny_model(AttentionContext.chunked(3, 1), seed=40)
        audio = synth_audio(1.1, seed=41)
        st = run_streaming(audio, model, vocab)
        off = run_offline(audio, model, vocab)
        assert st.ledger.duplicate_macs == 0
        assert st.ledger.total == off.ledger.total
        for cat in ("attention", "conv", "ffn", "downsampler", "decoder"):
            assert st.ledger.category_total(cat) == off.ledger.category_total(cat)

    def test_one_chunk_vs_many_same_totals(self):
        ctx = AttentionContext.chunked(2, 1)
        model, vocab = tiny_model(ctx, seed=42)
        audio = synth_audio(0.9, seed=43)
        many = run_streaming(audio, model, vocab)
        # single giant step: feed everything as one final chunk
        session = StreamingSession(model, vocab, step_tokens=10_000)
        session.feed(audio.samples)
        one = session.finish()
        for dec in ("ctc", "rnnt"):
            assert transcripts_equal(many.transcripts[dec], one.transcripts[dec])
        assert many.ledger.total == one.ledger.total

    @pytest.mark.parametrize(
        "ctx",
        [
            AttentionContext.chunked(3, 1),
            AttentionContext.zero(left_context=4),
            AttentionContext.regular(1, 3),
        ],
    )
    def test_closed_form_matches_engine(self, ctx):
        model, vocab = tiny_model(ctx, seed=44)
        cfg = model.cfg.encoder
        audio = synth_audio(1.0, seed=45)
        st = run_streaming(audio, model, vocab, decoder="ctc")
        from streamasr.features import log_mel

        n_tokens = log_mel(audio).shape[0] // cfg.downsampling_rate
        enc_cats = ("attention", "conv", "ffn", "downsampler")

        walk = count_macs(cfg, ctx, n_tokens, mode="streaming")
        for cat in enc_cats:
            assert walk.category_total(cat) == st.ledger.category_total(cat)
        assert walk.duplicate_macs == st.ledger.duplicate_macs

        off = run_offline(audio, model, vocab, decoder="ctc")
        closed = count_macs(cfg, ctx, n_tokens, mode="offline")
        for cat in enc_cats:
            assert closed.category_total(cat) == off.ledger.category_total(cat)

    def test_zero_regime_triangular_pairs(self):
        model, _ = tiny_model(AttentionContext.zero(), seed=46)
        cfg = model.cfg.encoder
        t = 10
        led = count_macs(cfg, AttentionContext.zero(), t, mode="offline")
        expected_pairs = t * (t + 1) // 2
        assert led.category_total("attention") == (
            cfg.n_layers * expected_pairs * 2 * cfg.d_model
        )

    def test_regular_streaming_speculation_in_walk(self):
        model, _ = tiny_model(AttentionContext.regular(2, 4), seed=47)
        cfg = model.cfg.encoder
        led = count_macs(cfg, cfg.attention, 20, mode="streaming")
        steady = [s.speculative_tokens for s in led.steps[6:-1]]
        assert steady and all(s == 2 * cfg.n_layers for s in steady)
        assert led.duplicate_macs > 0

    def test_zero_duplication_theorem_over_many_configs(self):
        # chunk regime: per-step MACs sum to the single-pass total, no duplicates
        from helpers import tiny_encoder_config

        for i in range(120):
            rng = np.random.default_rng(5000 + i)
            ctx = AttentionContext.chunked(int(rng.integers(1, 9)), int(rng.integers(0, 4)))
            cfg = tiny_encoder_config(
                ctx,
                n_layers=int(rng.integers(1, 5)),
                d_model=int(rng.choice([16, 32])),
                n_heads=int(rng.choice([2, 4])),
                conv_kernel=int(rng.choice([3, 5])),
                downsampling_rate=int(rng.choice([2, 4, 8])),
            )
            t = int(rng.integers(1, 120))
            streaming = count_macs(cfg, ctx, t, mode="streaming")
            offline = count_macs(cfg, ctx, t, mode="offline")
            assert streaming.duplicate_macs == 0, f"config {i}"
            assert streaming.total == offline.total, f"config {i}"


class TestBuffered:
    def test_duplication_positive_and_total_greater(self):
        model, vocab = tiny_model(AttentionContext.chunked(3, 1), seed=48)
        audio = synth_audio(1.5, seed=49)
        buf = run_buffered(audio, model, vocab, BufferedConfig(0.5, 2.0))
        off = run_offline(audio, model, vocab)
        assert buf.ledger.duplicate_macs > 0
        assert buf.ledger.total > off.ledger.total

    def test_buffer_equal_chunk_degenerates(self):
        model, vocab = tiny_model(AttentionContext.chunked(3, 1), seed=50)
        audio = synth_audio(1.0, seed=51)
        buf = run_buffered(audio, model, vocab, BufferedConfig(0.5, 0.5))
        assert buf.ledger.duplicate_macs == 0

    def test_buffered_differs_from_limited_context_offline(self):
        # train/inference context mismatch: full-context windows vs limited mask
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=50)
        audio = synth_audio(1.4, seed=51)
        buf = run_buffered(audio, model, vocab, BufferedConfig(0.4, 1.6), decoder="ctc")
        off = run_offline(audio, model, vocab, decoder="ctc")
        assert not transcripts_equal(buf.transcripts["ctc"], off.transcripts["ctc"])

    def test_buffer_shorter_than_chunk_rejected(self):
        with pytest.raises(ConfigError):
            BufferedConfig(chunk_seconds=2.0, buffer_seconds=1.0)

    def test_rnnt_state_resets_per_buffer(self):
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=54)
        audio = synth_audio(1.2, seed=55)
        res = run_buffered(audio, model, vocab, BufferedConfig(0.4, 0.8), decoder="rnnt")
        assert res.transcripts["rnnt"].mode == "buffered"


class TestMultiLookahead:
    def test_advertised_latencies(self):
        ctx = AttentionContext.chunked(14, 1)
        model, vocab = tiny_model(ctx, seed=56, downsampling_rate=8)
        audio = synth_audio(1.5, seed=57)
        results = run_multi_lookahead(audio, model, vocab, [2, 7, 14], decoder="ctc")
        from streamasr import latency_ms

        lm = model.cfg.latency_model()
        expected = {2: 40.0, 7: 240.0, 14: 520.0}
        for c, want in expected.items():
            assert latency_ms(AttentionContext.chunked(c, 1), lm).avg_ms == want
            assert results[c].transcripts["ctc"].mode == "streaming"

    def test_span_violation_rejected(self):
        model, vocab = tiny_model(AttentionContext.chunked(4, 1), seed=58)
        audio = synth_audio(0.5, seed=59)
        with pytest.raises(ConfigError):
            run_multi_lookahead(audio, model, vocab, [16])

    def test_single_size_equals_run_streaming(self):
        ctx = AttentionContext.chunked(4, 1)
        model, vocab = tiny_model(ctx, seed=60)
        audio = synth_audio(0.8, seed=61)
        multi = run_multi_lookahead(audio, model, vocab, [4])
        direct = run_streaming(audio, model, vocab)
        for dec in ("ctc", "rnnt"):
            assert transcripts_equal(multi[4].transcripts[dec], direct.transcripts[dec])

    def test_each_size_satisfies_equivalence(self):
        model, vocab = tiny_model(AttentionContext.chunked(6, 1), seed=62)
        audio = synth_audio(0.9, seed=63)
        results = run_multi_lookahead(audio, model, vocab, [2, 3, 6], decoder="ctc")
        for c, res in results.items():
            m2 = model.with_attention(AttentionContext.chunked(c, 1))
            off = run_offline(audio, m2, vocab, decoder="ctc")
            assert transcripts_equal(res.transcripts["ctc"], off.transcripts["ctc"])


class TestTranscriptFormat:
    def test_json_contract(self):
        model, vocab = tiny_model(AttentionContext.chunked(3, 1), seed=64)
        audio = synth_audio(0.7, seed=65)
        res = run_streaming(audio, model, vocab, decoder="ctc")
        payload = json.loads(res.transcripts["ctc"].to_json())
        assert payload["mode"] == "streaming"
        assert set(payload["macs"]) >= {"attention", "conv", "ffn", "downsampler",
                                        "decoder", "total", "duplicate"}
        for tok in payload["tokens"]:
            assert set(tok) == {"text", "first_frame", "emit_frame"}
        assert isinstance(payload["avg_latency_ms"], float)

    @pytest.mark.parametrize(
        "ctx",
        [AttentionContext.chunked(4, 1), AttentionContext.regular(2, 4), AttentionContext.zero()],
        ids=["chunk", "regular", "zero"],
    )
    def test_emit_frames_and_latency(self, ctx):
        model, vocab = tiny_model(ctx, seed=70)
        audio = synth_audio(1.0, seed=67)
        res = run_streaming(audio, model, vocab, decoder="ctc")
        tr = res.transcripts["ctc"]
        assert tr.tokens
        enc = model.cfg.encoder
        total = log_mel(audio).shape[0] // enc.downsampling_rate
        for tok in tr.tokens:
            f = tok.first_frame
            if ctx.regime == "chunk":
                assert f <= tok.emit_frame <= (f // 4) * 4 + 3
            elif ctx.regime == "regular":
                assert tok.emit_frame == min(f + ctx.m * enc.n_layers, total - 1)
            else:
                assert tok.emit_frame == f
        lm = model.cfg.latency_model()
        waits = [t.emit_frame - t.first_frame for t in tr.tokens]
        assert tr.avg_latency_ms == sum(waits) / len(waits) * lm.token_ms

    @pytest.mark.parametrize("mode", ["streaming", "offline", "buffered"])
    def test_every_transcript_carries_the_whole_ledger(self, mode):
        model, vocab = tiny_model(AttentionContext.chunked(3, 1), seed=70)
        audio = synth_audio(2.0, seed=71)
        if mode == "streaming":
            res = run_streaming(audio, model, vocab, decoder="both")
        elif mode == "offline":
            res = run_offline(audio, model, vocab, decoder="both")
        else:
            res = run_buffered(audio, model, vocab, BufferedConfig(0.5, 1.0), decoder="both")
        assert set(res.transcripts) == {"ctc", "rnnt"}
        assert res.ledger.category_total("decoder") > 0
        for tr in res.transcripts.values():
            assert tr.macs == res.ledger.to_dict()

    def test_offline_latency_is_null(self):
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=68)
        res = run_offline(synth_audio(0.5, seed=69), model, vocab, decoder="ctc")
        assert res.transcripts["ctc"].avg_latency_ms is None


# Weights of random sign and magnitude 3e37 in a d_model-64 model: each output
# of the projection they feed sums 64 such products, and many of those sums
# overflow float32. Each case names the decoder to run, and the tensors and
# columns that get the huge weights.
HUGE = np.float32(3e37)
OVERFLOWS = {
    "ffn1": ("ctc", [(f"enc.layers.{i}.ffn1.w1", slice(None)) for i in range(2)]),
    # the last layer's: reaches nothing but the encoder output
    "ffn2": ("ctc", [("enc.layers.1.ffn2.w1", slice(None))]),
    # a sigmoid maps an infinite gate to 0 or 1: the layer output stays finite
    "conv-gate": ("ctc", [(f"enc.layers.{i}.conv.pw1", slice(64, None)) for i in range(2)]),
    "attention-keys": ("ctc", [(f"enc.layers.{i}.attn.wk", slice(None)) for i in range(2)]),
    "ctc-head": ("ctc", [("ctc.w", slice(None))]),
    # tanh maps an infinity to +-1
    "rnnt-joint": ("rnnt", [("rnnt.joint_enc.w", slice(None))]),
}


def overflowing_model(tmp_path, case):
    """The tiny d_model-64 model with the case's huge weights, through a model file."""
    model, vocab = tiny_model(AttentionContext.chunked(3, 1), d_model=64, n_heads=4)
    rng = np.random.default_rng(0)
    for name, cols in OVERFLOWS[case][1]:
        t = model.tensors[name].copy()
        t[:, cols] = np.where(rng.random(t[:, cols].shape) < 0.5, -HUGE, HUGE)
        model.tensors[name] = t
    path = str(tmp_path / "huge.bin")
    save_model(model, path)
    return load_model(path), vocab, OVERFLOWS[case][0]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNumericsError:
    @pytest.mark.parametrize("case", ["ffn1", "ffn2", "conv-gate", "attention-keys"])
    def test_encode_full(self, tmp_path, case):
        model, _, _ = overflowing_model(tmp_path, case)
        mel = log_mel(synth_audio(2.0, seed=1), model.cfg.feature_config())
        with pytest.raises(NumericsError):
            encode_full(mel, model.encoder, model.cfg.encoder)

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_streaming_session(self, tmp_path, case):
        model, vocab, decoder = overflowing_model(tmp_path, case)
        samples = synth_audio(2.0, seed=1).samples
        session = StreamingSession(model, vocab, decoder=decoder)
        with pytest.raises(NumericsError):
            for i in range(0, len(samples), 320):
                session.feed(samples[i : i + 320])
            session.finish()

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_run_offline(self, tmp_path, case):
        model, vocab, decoder = overflowing_model(tmp_path, case)
        with pytest.raises(NumericsError):
            run_offline(synth_audio(2.0, seed=1), model, vocab, decoder=decoder)
