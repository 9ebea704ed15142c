import collections
import dataclasses
import functools
import json
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamasr import (
    AttentionContext,
    BufferedConfig,
    ComputeLedger,
    FeatureConfig,
    LayerCache,
    StreamingSession,
    StreamState,
    Vocab,
    encode_full,
    features,
    load_model,
    log_mel,
    run_buffered,
    run_multi_lookahead,
    run_offline,
    run_streaming,
    save_model,
    streaming,
)
from streamasr import encoder as encoder_module
from streamasr.encoder import block_frames
from streamasr.errors import ConfigError, FormatError, NumericsError, SessionError, ShapeError
from streamasr.features import AudioBuffer, StreamingFeatureExtractor
from streamasr.ledger import CATEGORIES
from streamasr.streaming import _MelPieces

from helpers import (
    baseline_model,
    count_feature_kernels,
    count_plans,
    count_macs,
    offline_composition,
    reference_rnnt_greedy,
    synth_audio,
    tiny_encoder_config,
    tiny_model,
    traced_peak,
    varied_rnnt_model,
)


SPLIT_CONTEXTS = {
    "chunk": AttentionContext.chunked(4, 1),
    "regular": AttentionContext.regular(1, 4),
    "zero": AttentionContext.zero(left_context=4),
}
SPLIT_AUDIO = synth_audio(0.7, seed=34)


@functools.cache
def split_baseline(regime: str):
    """The model of a regime, its vocab, and SPLIT_AUDIO streamed in one feed()."""
    model, vocab = tiny_model(SPLIT_CONTEXTS[regime], seed=33)
    return model, vocab, run_streaming(SPLIT_AUDIO, model, vocab)


def pairs(transcript):
    return [(t.token_id, t.first_frame) for t in transcript.tokens]


def transcripts_equal(a, b):
    return pairs(a) == pairs(b)


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

    @settings(max_examples=40, deadline=None)
    @given(regime=st.sampled_from(sorted(SPLIT_CONTEXTS)),
           cuts=st.lists(st.integers(0, len(SPLIT_AUDIO.samples)), max_size=12))
    def test_any_audio_chunking_is_equivalent(self, regime, cuts):
        # any feed() split, empty pieces included, gives one feed()'s bytes and steps
        model, vocab, whole = split_baseline(regime)
        session = StreamingSession(model, vocab)
        bounds = [0, *sorted(cuts), len(SPLIT_AUDIO.samples)]
        for lo, hi in zip(bounds, bounds[1:]):
            session.feed(SPLIT_AUDIO.samples[lo:hi])
        split = session.finish()
        assert [t.to_json() for t in split.transcripts.values()] == [
            t.to_json() for t in whole.transcripts.values()]
        assert split.ledger.steps == whole.ledger.steps

    @pytest.mark.parametrize("decoder", ["ctc", "rnnt", "both"])
    @pytest.mark.parametrize("regime", sorted(SPLIT_CONTEXTS))
    def test_a_session_resumes_on_its_state_rebuilt_from_the_arrays(self, regime, decoder):
        # the encoder's part of a stream is its arrays and counters: a session
        # whose state is swapped mid-stream for a copy of them ends in the
        # same transcripts and ledger steps
        model, vocab, _ = split_baseline(regime)
        half = len(SPLIT_AUDIO.samples) // 2
        whole = StreamingSession(model, vocab, decoder)
        whole.feed(SPLIT_AUDIO.samples)
        cut = StreamingSession(model, vocab, decoder)
        cut.feed(SPLIT_AUDIO.samples[:half])
        old = cut.state
        assert old.tokens_in > 0
        cut.state = StreamState(
            layers=[LayerCache(lc.rows.copy(), lc.conv.copy()) for lc in old.layers],
            ds_carry=[row.copy() for row in old.ds_carry],
            settle_delay=old.settle_delay, tokens_in=old.tokens_in)
        cut.feed(SPLIT_AUDIO.samples[half:])
        a, b = whole.finish(), cut.finish()
        assert [t.to_json() for t in b.transcripts.values()] == [
            t.to_json() for t in a.transcripts.values()]
        assert b.ledger.steps == a.ledger.steps

    @pytest.mark.parametrize("mode", ["streaming", "offline", "buffered"])
    def test_vocab_smaller_than_the_model_is_config_error(self, mode):
        model, _ = tiny_model(AttentionContext.chunked(2, 1), seed=38)
        small = Vocab.chars("a")
        audio = synth_audio(0.6, seed=39)
        run = {"streaming": run_streaming, "offline": run_offline,
               "buffered": lambda a, m, v: run_buffered(a, m, v, BufferedConfig(0.2, 0.4))}
        with pytest.raises(ConfigError):
            run[mode](audio, model, small)

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

    @pytest.mark.parametrize("samples", [
        np.array([0.5, 1e9]), np.array([1.0, 2.0]), np.array([40000], np.int32),
        np.array([-32769], np.int64), np.array([70000], np.uint32), np.zeros((2, 160), np.int16),
        np.array([True, False]), "abc", None, 7, [[1, 2], [3]],
    ], ids=["float-huge", "float-whole", "int32-over", "int64-under", "uint32-over", "2-D",
            "bool", "str", "None", "scalar", "ragged"])
    def test_feed_rejects_what_int16_cannot_hold(self, samples):
        # a cast would truncate floats and wrap integers out of range
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=38)
        s = StreamingSession(model, vocab)
        with pytest.raises(FormatError):
            s.feed(samples)
        with pytest.raises(FormatError):
            AudioBuffer(16000, samples)

    @pytest.mark.parametrize("rate", [True, 16000.5, 16000.0, "16000", None, 0, -8000],
                             ids=["bool", "fraction", "float", "str", "None", "zero", "negative"])
    def test_audio_sample_rate_must_be_a_positive_integer(self, rate):
        with pytest.raises(FormatError, match="sample_rate="):
            AudioBuffer(rate, np.zeros(160, np.int16))

    def test_audio_takes_any_integer_sample_rate(self):
        assert AudioBuffer(np.int32(16000), np.zeros(160, np.int16)).duration_s == 0.01

    def test_feed_takes_any_integer_array_within_int16(self):
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=38)
        audio = synth_audio(0.3, seed=39)
        want = run_streaming(audio, model, vocab).transcripts["ctc"].to_json()
        for cast in (lambda a: a.astype(np.int64), lambda a: a.astype(np.int32).tolist()):
            s = StreamingSession(model, vocab)
            s.feed([])
            s.feed(cast(audio.samples))
            assert s.finish().transcripts["ctc"].to_json() == want
        edges = np.array([-32768, 32767], np.int64)
        assert AudioBuffer(16000, edges).samples.dtype == np.int16


class TestFeaturesPerStep:
    """A session makes a step's frames in the feed that completes the step,
    in one feature push: a feed that completes no step does no numeric work,
    and no step runs late."""

    def test_a_feed_that_completes_no_step_makes_no_feature_call(self, monkeypatch):
        model, vocab = tiny_model(AttentionContext.chunked(4, 1), seed=33)
        calls = count_feature_kernels(monkeypatch)
        block = ["rfft"] + ["matmul64"] * len(
            features._extractor_matrices(model.cfg.feature_config())[1])
        session = StreamingSession(model, vocab, decoder="ctc")
        samples = synth_audio(1.0, seed=41).samples
        stepping = 0
        for i in range(0, len(samples), 320):  # 20 ms packets
            steps, before = len(session.ledger.steps), len(calls)
            session.feed(samples[i : i + 320])
            stepped = len(session.ledger.steps) - steps
            assert stepped in (0, 1)
            assert calls[before:] == block * stepped  # a step's frames are one block
            stepping += stepped
        session.finish()
        assert calls == block * len(session.ledger.steps)
        assert stepping == len(session.ledger.steps) - 1 > 3

    @settings(max_examples=40, deadline=None)
    @given(regime=st.sampled_from(sorted(SPLIT_CONTEXTS)),
           sizes=st.lists(st.integers(0, 2500), max_size=12))
    def test_every_step_runs_in_the_feed_that_completes_its_samples(self, regime, sizes):
        model, vocab, whole = split_baseline(regime)
        fcfg, enc = model.cfg.feature_config(), model.cfg.encoder
        step_frames = enc.attention.step_tokens() * enc.downsampling_rate
        samples, fed = SPLIT_AUDIO.samples, 0
        session = StreamingSession(model, vocab)
        for n in sizes + [len(samples)]:  # the last feed takes what the drawn ones left
            session.feed(samples[fed : fed + n])
            fed = min(fed + n, len(samples))
            frames = max(0, (fed - fcfg.window_samples) // fcfg.shift_samples + 1)
            assert len(session.ledger.steps) == frames // step_frames
        split = session.finish()
        assert [t.to_json() for t in split.transcripts.values()] == [
            t.to_json() for t in whole.transcripts.values()]
        assert split.ledger.steps == whole.ledger.steps


PIECE_CONTEXTS = {  # chunks of 3 and 5 tokens do not divide encoder._BLOCK_TOKENS
    "chunk3": AttentionContext.chunked(3, 1),
    "chunk5": AttentionContext.chunked(5, 2),
    "regular": AttentionContext.regular(1, 4),
    "zero": AttentionContext.zero(left_context=4),
}
# the largest piece of the four contexts, in frames (tiny_model's encoder)
MAX_PIECE = max(block_frames(tiny_encoder_config(ctx)) for ctx in PIECE_CONTEXTS.values())


def audio_of_frames(n_frames: float, seed: int) -> AudioBuffer:
    """synth_audio of n_frames frames and a shift's samples more."""
    fcfg = FeatureConfig()
    n = n_frames * fcfg.shift_samples + fcfg.window_samples
    return synth_audio(n / fcfg.sample_rate, seed=seed)


PIECE_AUDIO = audio_of_frames(2.5 * MAX_PIECE, seed=47)  # three pieces, the last one partial
LONG_AUDIO = audio_of_frames(3 * MAX_PIECE, seed=48)  # two pieces, a piece's frames less one


@functools.cache
def piece_model(name: str):
    return tiny_model(PIECE_CONTEXTS[name], seed=33)


STEP_CONTEXTS = dict(PIECE_CONTEXTS, chunk150=AttentionContext.chunked(150, 1))  # > a block
LONG_BLOCK = block_frames(tiny_encoder_config(STEP_CONTEXTS["chunk150"]))


@functools.cache
def step_model(name: str):
    return tiny_model(STEP_CONTEXTS[name], seed=34)


class TestOfflinePieces:
    """run_offline's log-mel comes in pieces, each computed on the caller's
    thread when encode_full steps to it."""

    @pytest.mark.parametrize("name", sorted(PIECE_CONTEXTS))
    def test_the_pieces_are_log_mels_rows_in_whole_steps(self, name):
        model, _ = piece_model(name)
        enc = model.cfg.encoder
        src = _MelPieces(PIECE_AUDIO, model)
        pieces = list(src)
        size = block_frames(enc)
        step_frames = enc.attention.step_tokens() * enc.downsampling_rate
        block = encoder_module._BLOCK_TOKENS * enc.downsampling_rate
        assert size % step_frames == 0 and 0 <= size - block < step_frames
        assert [p.shape[0] for p in pieces[:-1]] == [size] * 2 and pieces[-1].shape[0] < size
        whole = log_mel(PIECE_AUDIO, model.cfg.feature_config())
        assert src.n_frames == whole.shape[0]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(PIECE_CONTEXTS)), pieces=st.integers(0, 2),
           rest=st.one_of(st.integers(0, 3), st.integers(0, MAX_PIECE - 1)),
           tail=st.integers(0, 399))
    @example(name="chunk3", pieces=0, rest=0, tail=0)  # no frame
    @example(name="chunk5", pieces=0, rest=0, tail=399)  # samples short of one window
    @example(name="regular", pieces=0, rest=37, tail=0)  # less than one piece
    @example(name="chunk3", pieces=2, rest=0, tail=0)  # exact multiples of a piece
    @example(name="chunk5", pieces=1, rest=0, tail=159)
    @example(name="zero", pieces=2, rest=3, tail=0)  # plus a partial frame group
    @example(name="chunk3", pieces=1, rest=2, tail=0)
    def test_encode_full_over_the_pieces_equals_it_over_the_array(self, name, pieces, rest,
                                                                  tail):
        model, _ = piece_model(name)
        fcfg, size = model.cfg.feature_config(), block_frames(model.cfg.encoder)
        n_frames = pieces * size + rest % size
        n = (n_frames - 1) * fcfg.shift_samples + fcfg.window_samples + tail % fcfg.shift_samples \
            if n_frames else tail  # tail < window_samples: no frame at all
        audio = AudioBuffer(16000, LONG_AUDIO.samples[:n])
        led_array, led_pieces = ComputeLedger(), ComputeLedger()
        led_array.new_step()
        led_pieces.new_step()
        want = encode_full(log_mel(audio, fcfg), model.encoder, model.cfg.encoder, rec=led_array)
        src = _MelPieces(audio, model)
        assert src.n_frames == n_frames
        got = encode_full(src, model.encoder, model.cfg.encoder, rec=led_pieces)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert led_pieces.steps == led_array.steps

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(STEP_CONTEXTS)),
           n_frames=st.one_of(st.integers(0, 9), st.integers(0, 2 * LONG_BLOCK + 99)))
    @example(name="chunk150", n_frames=LONG_BLOCK + 3)  # a block and a partial frame group
    @example(name="chunk5", n_frames=2 * MAX_PIECE)
    def test_encode_full_over_the_array_and_run_offline_take_the_same_steps(self, name,
                                                                           n_frames):
        model, vocab = step_model(name)
        fcfg = model.cfg.feature_config()
        n = (n_frames - 1) * fcfg.shift_samples + fcfg.window_samples if n_frames else 0
        audio = AudioBuffer(16000, LONG_AUDIO.samples[:n])
        real, calls = encoder_module.encode_step, []

        def recording(chunk, *args, **kwargs):
            calls[-1].append((chunk.shape[0], kwargs["final"]))
            return real(chunk, *args, **kwargs)

        with mock.patch.object(encoder_module, "encode_step", recording):
            calls.append([])
            encode_full(log_mel(audio, fcfg), model.encoder, model.cfg.encoder)
            calls.append([])
            run_offline(audio, model, vocab, "ctc")
        assert calls[0] == calls[1]
        size = block_frames(model.cfg.encoder)
        assert [c for c, _ in calls[0]] == [size] * (n_frames // size) + (
            [n_frames % size] if n_frames % size or not n_frames else [])
        assert [f for _, f in calls[0]] == [False] * (len(calls[0]) - 1) + [True]

    def test_pieces_short_of_their_total_are_shape_error(self):
        model, _ = piece_model("chunk3")

        class Short:
            n_frames = 24

            def __iter__(self):
                yield np.zeros((12, 80), np.float32)  # one whole step, then nothing

        with pytest.raises(ShapeError):
            encode_full(Short(), model.encoder, model.cfg.encoder)

    @pytest.mark.parametrize("decoder", ["ctc", "rnnt", "both"])
    @pytest.mark.parametrize("name", sorted(PIECE_CONTEXTS))
    def test_run_offline_equals_the_whole_mel_composition(self, name, decoder):
        model, vocab = piece_model(name)
        got = run_offline(PIECE_AUDIO, model, vocab, decoder)
        want = offline_composition(PIECE_AUDIO, model, vocab, decoder)
        assert [t.to_json() for t in got.transcripts.values()] == [
            t.to_json() for t in want.transcripts.values()]
        assert got.ledger.steps == want.ledger.steps

    def test_run_offline_is_exact_when_threads_switch_every_microsecond(self):
        # no thread hands a piece over, so no switch can reorder one
        model, vocab = piece_model("regular")
        want = offline_composition(PIECE_AUDIO, model, vocab)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_offline(PIECE_AUDIO, model, vocab)
        finally:
            sys.setswitchinterval(interval)
        assert [t.to_json() for t in got.transcripts.values()] == [
            t.to_json() for t in want.transcripts.values()]
        assert got.ledger.steps == want.ledger.steps

    def test_run_offline_reaches_the_encoder_through_streaming_encode_full_once(self,
                                                                               monkeypatch):
        # perfbench's tracer times the offline pass by wrapping this name
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return encode_full(*args, **kwargs)

        monkeypatch.setattr(streaming, "encode_full", counting)
        model, vocab = piece_model("chunk3")
        run_offline(PIECE_AUDIO, model, vocab, "ctc")
        assert len(calls) == 1

    def test_a_failing_step_raises_on_the_callers_thread(self, monkeypatch):
        # the second step fails after the second piece was computed
        model, vocab = piece_model("chunk3")
        err, push, step = RuntimeError("second step"), StreamingFeatureExtractor.push, \
            encoder_module.encode_step
        threads, alive = [], []  # per push and step; threads alive per step

        def recording_push(self, samples):
            threads.append(threading.current_thread())
            return push(self, samples)

        def failing(*args, **kwargs):
            threads.append(threading.current_thread())
            alive.append(threading.active_count())
            if len(alive) == 2:
                raise err
            return step(*args, **kwargs)

        monkeypatch.setattr(StreamingFeatureExtractor, "push", recording_push)
        monkeypatch.setattr(encoder_module, "encode_step", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_offline(PIECE_AUDIO, model, vocab)
        assert info.value is err
        assert len(threads) == 4 and set(threads) == {threading.current_thread()}
        assert alive == [before, before] and threading.active_count() == before


SHARED_AUDIO = synth_audio(3.0, seed=35)  # 300 frames: three offline blocks at rate 1


class TestSharedPlans:
    """The attention plans of non-final steps live with the model's weights,
    so every stream on one model shares them."""

    def test_a_second_session_and_offline_pass_build_no_plan(self, monkeypatch):
        model, vocab = tiny_model(AttentionContext.regular(1, 4), seed=36, downsampling_rate=1)
        n_layers = model.cfg.encoder.n_layers
        built = count_plans(monkeypatch)
        first = run_streaming(SHARED_AUDIO, model, vocab)
        assert len(built) > n_layers
        second = StreamingSession(model, vocab)
        n = len(built)
        second.feed(SHARED_AUDIO.samples)
        assert len(built) == n  # every non-final step reads a stored plan
        result = second.finish()
        assert len(built) - n <= n_layers  # the final step's plans, never stored
        assert [t.to_json() for t in result.transcripts.values()] == [
            t.to_json() for t in first.transcripts.values()]
        assert result.ledger.steps == first.ledger.steps
        # a model under the same weights and mask shares the store
        other = model.with_attention(AttentionContext.regular(1, 4))
        assert other.encoder.plans is model.encoder.plans
        n = len(built)
        StreamingSession(other, vocab).feed(SHARED_AUDIO.samples)
        assert len(built) == n
        # three blocks: two stored steps and a final one per layer
        n = len(built)
        offline = run_offline(SHARED_AUDIO, model, vocab)
        assert len(built) - n == 3 * n_layers
        n = len(built)
        again = run_offline(SHARED_AUDIO, model, vocab)
        assert len(built) - n == n_layers
        assert [t.to_json() for t in again.transcripts.values()] == [
            t.to_json() for t in offline.transcripts.values()]

    @pytest.mark.parametrize("ctx, bound", [
        (AttentionContext.regular(1, 4), None),
        (AttentionContext.chunked(2, 1), None),
        # no geometry repeats, so the store drops plans all through the run
        (AttentionContext.zero(), 30_000),
    ], ids=["regular", "chunk", "zero-evicting"])
    def test_sessions_in_threads_share_one_store_exactly(self, ctx, bound):
        audio = synth_audio(2.0, seed=37)
        model, vocab = tiny_model(ctx, seed=38)
        alone, _ = tiny_model(ctx, seed=38)  # the same weights, its own store
        want = run_streaming(audio, alone, vocab)
        want_json = [t.to_json() for t in want.transcripts.values()]
        limit = bound or encoder_module.PlanStore._BOUND
        results, errors, over = [], [], []

        def stream(packet):
            try:
                for _ in range(3):
                    session = StreamingSession(model, vocab)
                    for i in range(0, len(audio.samples), packet):
                        session.feed(audio.samples[i : i + packet])
                        if model.encoder.plans.nbytes > limit:
                            over.append(model.encoder.plans.nbytes)
                    results.append(session.finish())
            except Exception as err:  # re-raised on the test's thread below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(encoder_module.PlanStore, "_BOUND", limit):
                threads = [threading.Thread(target=stream, args=(p,), daemon=True)
                           for p in (320, 160, 1000, 4000)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        if errors:
            raise errors[0]
        assert len(results) == 12 and not over
        for got in results:
            assert [t.to_json() for t in got.transcripts.values()] == want_json
            assert got.ledger.steps == want.ledger.steps
        store = model.encoder.plans
        assert 0 < store.nbytes <= limit
        assert store.nbytes == sum(size for _, size in store._plans.values())


def held(a: np.ndarray) -> np.ndarray:
    """The array whose memory `a` keeps alive: a view keeps its base's."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@functools.cache
def minute_of_audio():
    """60 s of audio and its 80-mel features."""
    audio = synth_audio(60.0, seed=42)
    return audio, log_mel(audio)


def held_samples(session: StreamingSession) -> int:
    """The int16 samples a session's arrays keep alive, through views too."""
    arrays = [a for a in vars(session).values() if isinstance(a, np.ndarray)]
    assert all(a.dtype == np.int16 for a in arrays)  # samples, never mel rows
    return sum(held(a).size for a in arrays)


class TestWorkingMemory:
    def test_a_whole_recording_feed_keeps_one_step_and_one_window(self):
        # a session holds the samples from its next step's first frame on:
        # fewer than one step's frames span, and none once finished
        model, vocab = tiny_model(AttentionContext.chunked(4, 1), seed=33)
        fcfg = model.cfg.feature_config()
        step_frames = 4 * model.cfg.encoder.downsampling_rate
        bound = (step_frames - 1) * fcfg.shift_samples + fcfg.window_samples
        audio = synth_audio(10.0, seed=41).samples
        for packet in (len(audio), 320):  # the whole recording, then 20 ms packets
            session = StreamingSession(model, vocab, decoder="ctc")
            for i in range(0, len(audio), packet):
                session.feed(audio[i : i + packet])
                assert held_samples(session) < bound, packet
            session.finish()
            assert held_samples(session) == 0, packet

    @pytest.mark.parametrize("ctx", [AttentionContext.regular(1, 16),
                                     AttentionContext.chunked(4, 4)], ids=["regular", "chunk"])
    def test_an_offline_minute_encodes_in_blocks_not_the_utterance(self, ctx):
        # one step of at most 128 tokens, its float64 temporaries and each
        # layer's float32 rows, plus the float32 output
        model, _ = baseline_model(ctx)
        _, mel = minute_of_audio()
        _, peak = traced_peak(lambda: encode_full(mel, model.encoder, model.cfg.encoder))
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("ctx", [AttentionContext.regular(1, 16),
                                     AttentionContext.chunked(4, 4)], ids=["regular", "chunk"])
    def test_offline_peak_grows_by_the_output_alone(self, ctx):
        # from 60 to 120 s, encode_full's steps stay the same size: only the
        # output grows, plus at most 0.25 MiB
        model, _ = baseline_model(ctx)
        cfg = model.cfg.encoder
        _, mel = minute_of_audio()
        (short, p60), (long, p120) = [traced_peak(lambda m=m: encode_full(m, model.encoder, cfg))
                                      for m in (mel, np.concatenate([mel, mel]))]
        assert p120 - p60 <= long.nbytes - short.nbytes + 2**18

    def test_run_offline_peak_grows_by_its_whole_arrays_alone(self):
        # from 60 to 120 s the mel (1.9 MB a minute) runs in pieces; only the
        # encoder output, the CTC logits (float32) and log-probs (float64)
        # are held whole, plus at most 0.25 MiB. The encoder's own growth in
        # either regime is held by test_offline_peak_grows_by_the_output_alone
        model, vocab = baseline_model(AttentionContext.regular(1, 16))
        audio, _ = minute_of_audio()
        longer = AudioBuffer(audio.sample_rate, np.concatenate([audio.samples, audio.samples]))
        (_, p60), (_, p120) = [traced_peak(lambda a=a: run_offline(a, model, vocab, "ctc"))
                               for a in (audio, longer)]
        fcfg, enc = model.cfg.feature_config(), model.cfg.encoder
        tokens = [((len(a.samples) - fcfg.window_samples) // fcfg.shift_samples + 1)
                  // enc.downsampling_rate for a in (audio, longer)]
        grown = tokens[1] - tokens[0]
        encoder_out = grown * enc.d_model * 4
        ctc_logits = grown * model.cfg.vocab_size * 4
        ctc_logprobs = grown * model.cfg.vocab_size * 8
        assert p120 - p60 <= encoder_out + ctc_logits + ctc_logprobs + 2**18

    def test_an_offline_minute_transcribes_in_blocks(self):
        # encode_full's steps plus the features and the decoder, which do
        # not depend on the attention regime
        model, vocab = baseline_model(AttentionContext.regular(1, 16))
        audio, _ = minute_of_audio()
        _, peak = traced_peak(lambda: run_offline(audio, model, vocab, decoder="ctc"))
        assert peak < 12 * 2**20

    def test_a_twelve_second_buffer_softmaxes_its_scores_in_place(self):
        # a buffered window is one chunk, so each layer's attention scores
        # span the whole 300-token window; the softmax runs on that one buffer
        model, vocab = baseline_model(AttentionContext.regular(1, 16))
        audio, _ = minute_of_audio()
        bcfg = BufferedConfig(chunk_seconds=2.0, buffer_seconds=12.0)
        _, peak = traced_peak(lambda: run_buffered(audio, model, vocab, bcfg, decoder="ctc"))
        assert peak < 13 * 2**20


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

    @settings(max_examples=12, deadline=None)
    @given(m=st.integers(0, 3), left=st.integers(0, 6), seconds=st.floats(0.2, 1.0),
           seed=st.integers(0, 2**16))
    def test_regular_streaming_ledger_equals_offline(self, m, left, seconds, seed):
        # the engine itself: a regular-regime stream runs every product once,
        # the ones the offline pass runs
        model, vocab = tiny_model(AttentionContext.regular(m, left), seed=seed)
        audio = synth_audio(seconds, seed=seed)
        st_led = run_streaming(audio, model, vocab, decoder="ctc").ledger
        off_led = run_offline(audio, model, vocab, decoder="ctc").ledger
        assert st_led.duplicate_macs == 0
        for cat in CATEGORIES:
            assert st_led.category_total(cat) == off_led.category_total(cat), cat

    def test_zero_regime_triangular_pairs(self):
        model, _ = tiny_model(AttentionContext.zero(), seed=46)
        cfg = model.cfg.encoder
        t = 10
        led = count_macs(cfg, AttentionContext.zero(), t, mode="offline")
        expected_pairs = t * (t + 1) // 2
        assert led.category_total("attention") == (
            cfg.n_layers * expected_pairs * 2 * cfg.d_model
        )

    def test_regular_streaming_walk_equals_offline(self):
        # a regular-regime step runs only the rows it settles, so the walk
        # books the offline MACs in every category, none of them duplicate
        model, _ = tiny_model(AttentionContext.regular(2, 4), seed=47)
        cfg = model.cfg.encoder
        led = count_macs(cfg, cfg.attention, 20, mode="streaming")
        off = count_macs(cfg, cfg.attention, 20, mode="offline")
        assert led.duplicate_macs == 0 and len(led.steps) == 21
        for cat in CATEGORIES:
            assert led.category_total(cat) == off.category_total(cat), cat

    def test_zero_duplication_theorem_over_many_configs(self):
        # every regime: per-step MACs sum to the single-pass total, no duplicates
        from helpers import tiny_encoder_config

        for i in range(120):
            rng = np.random.default_rng(5000 + i)
            if i % 3 == 0:
                ctx = AttentionContext.chunked(int(rng.integers(1, 9)), int(rng.integers(0, 4)))
            elif i % 3 == 1:
                ctx = AttentionContext.regular(int(rng.integers(0, 4)), int(rng.integers(0, 7)))
            else:
                ctx = AttentionContext.zero(int(rng.integers(0, 7)) if rng.random() < 0.5 else None)
            cfg = tiny_encoder_config(
                ctx,
                n_layers=int(rng.integers(1, 5)),
                d_model=int(rng.choice([16, 32])),
                n_heads=int(rng.choice([2, 4])),
                conv_kernel=int(rng.choice([3, 5])),
                downsampling_rate=int(rng.choice([2, 4, 8])),
            )
            t = int(rng.integers(1, 120))
            streaming = count_macs(cfg, ctx, t, mode="streaming",
                                   step_tokens=int(rng.integers(1, 5)))
            offline = count_macs(cfg, ctx, t, mode="offline")
            assert streaming.duplicate_macs == 0, f"config {i}"
            assert streaming.total == offline.total, f"config {i}"


RNNT_AUDIO = synth_audio(1.2, seed=55)


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
        nan, inf = float("nan"), float("inf")
        for chunk, buffer in ((2.0, 1.0), (0.0, 1.0), (nan, 4.0), (2.0, nan), (2.0, inf),
                              (inf, inf), (-inf, 4.0)):
            with pytest.raises(ConfigError):
                BufferedConfig(chunk_seconds=chunk, buffer_seconds=buffer)

    def test_rnnt_state_resets_per_buffer(self):
        # 0.4 s chunks are 10 tokens of 40 ms; 0.8 s buffers add 5 on each side
        model, vocab = varied_rnnt_model()
        res = run_buffered(RNNT_AUDIO, model, vocab, BufferedConfig(0.4, 0.8), decoder="rnnt")
        cfg, dr = model.cfg.encoder, model.cfg.encoder.downsampling_rate
        mel = log_mel(RNNT_AUDIO, model.cfg.feature_config())
        total, ref = mel.shape[0] // dr, []
        for c0 in range(0, total, 10):
            c1 = min(c0 + 10, total)
            b0, b1 = max(0, c0 - 5), min(total, c1 + 5)
            full = dataclasses.replace(cfg, attention=AttentionContext.chunked(b1 - b0, 0))
            enc = encode_full(mel[b0 * dr : b1 * dr], model.encoder, full)
            ref += [(k, c0 + f) for k, f in reference_rnnt_greedy(enc[c0 - b0 : c1 - b0],
                                                                   model.rnnt)]
        assert ref and pairs(res.transcripts["rnnt"]) == ref


class TestRnntAgainstReference:
    def test_streaming_and_offline_equal_the_reference(self):
        model, vocab = varied_rnnt_model()
        mel = log_mel(RNNT_AUDIO, model.cfg.feature_config())
        ref = reference_rnnt_greedy(encode_full(mel, model.encoder, model.cfg.encoder),
                                    model.rnnt)
        per_frame = collections.Counter(f for _, f in ref)
        assert 10 in per_frame.values() and set(per_frame.values()) - {10}
        assert len(per_frame) < mel.shape[0] // model.cfg.encoder.downsampling_rate
        for run in (run_streaming, run_offline):
            assert pairs(run(RNNT_AUDIO, model, vocab, decoder="rnnt").transcripts["rnnt"]) == ref


class TestDecoderMacs:
    """The decoder books the products that run: each encoder row's CTC and
    joint projections, the cells and the joint projection of every state
    made, and the joint's output layer per joint call."""

    @staticmethod
    def closed_form(model, frames: int, rnnt_frames: list[int], runs: int) -> int:
        hc, cap = model.cfg.head_config(), 10
        per_frame = np.bincount(rnnt_frames, minlength=frames)
        joints = int(sum(n + (n < cap) for n in per_frame))  # a blank ends a frame below the cap
        states = len(rnnt_frames) + runs  # the zero state per stream or buffered window
        return (frames * hc.d_model * (hc.vocab_size + hc.d_joint)
                + len(rnnt_frames) * hc.pred_layers * 2 * hc.d_pred ** 2
                + states * hc.d_pred * hc.d_joint
                + joints * hc.d_joint * hc.vocab_size)

    @pytest.mark.parametrize("ctx", [AttentionContext.chunked(2, 1), AttentionContext.zero(4),
                                     AttentionContext.regular(1, 3)],
                             ids=["chunk", "zero", "regular"])
    def test_decoder_category_in_closed_form(self, ctx):
        model, vocab = varied_rnnt_model(ctx)
        frames = (model.cfg.feature_config().frames_in(len(RNNT_AUDIO.samples))
                  // model.cfg.encoder.downsampling_rate)
        booked = {}
        for mode, run in (("streaming", run_streaming), ("offline", run_offline),
                          ("buffered", lambda *a, **k: run_buffered(
                              *a, BufferedConfig(0.4, 0.8), **k))):
            res = run(RNNT_AUDIO, model, vocab, decoder="both")
            rnnt_frames = [t.first_frame for t in res.transcripts["rnnt"].tokens]
            assert rnnt_frames
            runs = len(res.ledger.steps) if mode == "buffered" else 1
            booked[mode] = res.ledger.category_total("decoder")
            assert booked[mode] == self.closed_form(model, frames, rnnt_frames, runs), mode
        assert booked["streaming"] == booked["offline"]


class TestSampleRate:
    RUNS = {
        "streaming": run_streaming,
        "multi_lookahead": lambda audio, model, vocab: run_multi_lookahead(audio, model, vocab,
                                                                           [2]),
        "offline": run_offline,
        "buffered": lambda audio, model, vocab: run_buffered(audio, model, vocab,
                                                             BufferedConfig()),
    }

    @pytest.mark.parametrize("mode", list(RUNS))
    def test_audio_at_another_rate_is_config_error(self, mode):
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=54)
        audio = synth_audio(0.5, seed=55, sample_rate=8000)
        with pytest.raises(ConfigError, match="^audio sample rate 8000 != configured 16000$"):
            self.RUNS[mode](audio, model, vocab)


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
