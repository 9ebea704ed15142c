import numpy as np
import pytest

from streamasr import (
    AttentionContext,
    EncoderWeights,
    Rng,
    encode_full,
    encode_step,
    init_state,
    receptive_field_frames,
)
from streamasr import encoder, numerics
from streamasr.context import ZERO
from streamasr.encoder import (
    _attend,
    downsample_segment,
    encoder_weight_spec,
    init_tensors,
    query_groups,
)
from streamasr.errors import ChunkingError, ConfigError, NumericsError, SessionError
from streamasr.ledger import ComputeLedger
from streamasr.numerics import linear

from helpers import (
    attend_per_head,
    build_mask,
    init_encoder_weights,
    masked_softmax,
    random_mel,
    tiny_encoder_config,
)

REGIMES = [
    AttentionContext.zero(),
    AttentionContext.zero(left_context=3),
    AttentionContext.regular(1, 4),
    AttentionContext.regular(2, 5),
    AttentionContext.chunked(1, 2),
    AttentionContext.chunked(3, 1),
    AttentionContext.chunked(4, 0),
]


def stream_encode(mel, w, cfg, step_tokens=None, rec=None):
    """Drive encode_step over fixed-size steps plus a final flush."""
    ctx = cfg.attention
    step = (step_tokens or 1) if ctx.regime == ZERO else ctx.step_tokens()
    step *= cfg.downsampling_rate
    state = init_state(cfg)
    outs = []
    pos = 0
    while pos + step <= mel.shape[0]:
        if rec is not None:
            rec.new_step()
        o, state = encode_step(mel[pos : pos + step], state, w, cfg, rec=rec)
        outs.append(o)
        pos += step
    if rec is not None:
        rec.new_step()
    o, state = encode_step(mel[pos:], state, w, cfg, rec=rec, final=True)
    outs.append(o)
    return np.concatenate(outs, axis=0), state


class TestStreamingOfflineEquivalence:
    @pytest.mark.parametrize("ctx", REGIMES)
    def test_exact_equality(self, ctx):
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=5)
        mel = random_mel(17 * cfg.downsampling_rate, cfg.n_mels, seed=6)
        full = encode_full(mel, w, cfg)
        got, _ = stream_encode(mel, w, cfg)
        assert got.shape == full.shape
        assert np.array_equal(got, full)

    @pytest.mark.parametrize("dr", [1, 2, 4, 8])
    def test_exact_across_downsampling_rates(self, dr):
        ctx = AttentionContext.chunked(2, 1)
        cfg = tiny_encoder_config(ctx, downsampling_rate=dr)
        w = init_encoder_weights(cfg, seed=7)
        mel = random_mel(16 * dr + dr // 2, cfg.n_mels, seed=8)  # ragged tail
        full = encode_full(mel, w, cfg)
        got, _ = stream_encode(mel, w, cfg)
        assert np.array_equal(got, full)

    def test_single_step_equals_full(self):
        ctx = AttentionContext.regular(2, 4)
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=9)
        mel = random_mel(48, cfg.n_mels, seed=10)
        state = init_state(cfg)
        out, _ = encode_step(mel, state, w, cfg, final=True)
        assert np.array_equal(out, encode_full(mel, w, cfg))

    def test_zero_equals_chunk_of_one(self):
        lc = 4
        za = tiny_encoder_config(AttentionContext.zero(left_context=lc))
        ch = tiny_encoder_config(AttentionContext.chunked(1, lc))
        w = init_encoder_weights(za, seed=11)
        assert za.bias_past == ch.bias_past and za.bias_future == ch.bias_future
        w2 = init_encoder_weights(ch, seed=11)
        mel = random_mel(40, za.n_mels, seed=12)
        assert np.array_equal(encode_full(mel, w, za), encode_full(mel, w2, ch))

    def test_single_token_utterance(self):
        cfg = tiny_encoder_config(AttentionContext.zero())
        w = init_encoder_weights(cfg, seed=13)
        mel = random_mel(cfg.downsampling_rate, cfg.n_mels, seed=14)
        out = encode_full(mel, w, cfg)
        assert out.shape == (1, cfg.d_model)
        got, _ = stream_encode(mel, w, cfg)
        assert np.array_equal(got, out)


class TestDownsampler:
    @pytest.mark.parametrize("dr,expected", [(1, 0), (2, 3), (4, 5), (8, 7)])
    def test_residual_frame_counts(self, dr, expected):
        cfg = tiny_encoder_config(AttentionContext.zero(), downsampling_rate=dr)
        assert cfg.residual_frames == expected
        assert init_state(cfg).ds_residual.shape == (expected, cfg.n_mels)

    def test_rate_one_is_projection(self):
        cfg = tiny_encoder_config(AttentionContext.zero(), downsampling_rate=1)
        w = init_encoder_weights(cfg, seed=15)
        mel = random_mel(10, cfg.n_mels, seed=16)
        tokens = downsample_segment(w, cfg, mel, 0, 0, 9)
        assert np.array_equal(
            tokens, linear(mel, w.tensors["ds.proj.w"], w.tensors["ds.proj.b"])
        )

    def test_chunked_slices_match_whole(self):
        cfg = tiny_encoder_config(AttentionContext.chunked(4, 1), downsampling_rate=4)
        w = init_encoder_weights(cfg, seed=17)
        mel = random_mel(32, cfg.n_mels, seed=18)
        whole = downsample_segment(w, cfg, mel, 0, 0, 7)
        r = cfg.residual_frames
        first = downsample_segment(
            w, cfg, np.concatenate([np.zeros((r, cfg.n_mels), np.float32), mel[:16]]),
            -r, 0, 3,
        )
        second = downsample_segment(w, cfg, mel[16 - r : 32], 16 - r, 4, 7)
        assert np.array_equal(np.concatenate([first, second]), whole)

    def test_segment_too_short_raises(self):
        cfg = tiny_encoder_config(AttentionContext.zero(), downsampling_rate=4)
        w = init_encoder_weights(cfg, seed=19)
        with pytest.raises(ChunkingError):
            downsample_segment(w, cfg, random_mel(4, cfg.n_mels, 0), 8, 2, 2)


class TestReceptiveField:
    @pytest.mark.parametrize(
        "ctx",
        [
            AttentionContext.zero(left_context=2),
            AttentionContext.regular(1, 2),
            AttentionContext.chunked(3, 1),
        ],
    )
    def test_perturbation_changes_exactly_predicted_outputs(self, ctx):
        cfg = tiny_encoder_config(ctx, n_layers=2, downsampling_rate=2)
        w = init_encoder_weights(cfg, seed=21)
        total_frames = 32
        total_tokens = total_frames // cfg.downsampling_rate
        mel = random_mel(total_frames, cfg.n_mels, seed=22)
        base = encode_full(mel, w, cfg)
        fields = [
            receptive_field_frames(ctx, cfg.n_layers, cfg.conv_kernel, cfg.downsampling_rate,
                                   t, total_tokens, total_frames)
            for t in range(total_tokens)
        ]
        for f in range(total_frames):
            bumped = mel.copy()
            bumped[f, 0] += 0.5
            out = encode_full(bumped, w, cfg)
            changed = [
                t for t in range(total_tokens) if not np.array_equal(out[t], base[t])
            ]
            predicted = [t for t in range(total_tokens) if fields[t][0] <= f <= fields[t][1]]
            assert changed == predicted, f"frame {f}: {changed} != {predicted}"


class TestAttentionInternals:
    # chunked(12, 0) over 12 tokens is one chunk: the buffered baseline's full context
    @pytest.mark.parametrize("ctx", REGIMES + [AttentionContext.chunked(12, 0)])
    def test_attend_matches_masked_softmax_reference(self, ctx):
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=23)
        lw = w.layer(0)
        rng = np.random.default_rng(24)
        t = 12
        ain = rng.standard_normal((t, cfg.d_model)).astype(np.float32)
        qpos = np.arange(t)
        groups = query_groups(ctx, qpos, t - 1)
        out, _ = _attend(cfg, lw, ain, qpos, ain, 0, groups)

        # reference path: full score matrices + masked softmax
        mask = build_mask(ctx, t)
        q = linear(ain, lw["attn.wq"], lw["attn.bq"])
        k = linear(ain, lw["attn.wk"], lw["attn.bk"])
        v = linear(ain, lw["attn.wv"], lw["attn.bv"])
        dh = cfg.d_head
        ref_ctx = np.zeros_like(q)
        for h in range(cfg.n_heads):
            qh = q[:, h * dh : (h + 1) * dh].astype(np.float64)
            kh = k[:, h * dh : (h + 1) * dh].astype(np.float64)
            scores = qh @ kh.T / np.sqrt(dh)
            offs = qpos[:, None] - qpos[None, :]
            idx = np.clip(offs, -cfg.bias_future, cfg.bias_past) + cfg.bias_future
            scores = scores + lw["attn.bias"].astype(np.float64)[h][idx]
            wts = masked_softmax(scores.astype(np.float32), mask)
            ref_ctx[:, h * dh : (h + 1) * dh] = (
                wts.astype(np.float64) @ v[:, h * dh : (h + 1) * dh].astype(np.float64)
            ).astype(np.float32)
        ref = linear(ref_ctx, lw["attn.wo"], lw["attn.bo"])
        assert np.abs(out - ref).max() < 1e-4

    @pytest.mark.parametrize("d_model,n_heads", [(16, 1), (16, 2), (16, 4), (4, 4)])
    @pytest.mark.parametrize("ctx", REGIMES)
    def test_attend_equals_per_head_kloop_bit_for_bit(self, ctx, d_model, n_heads):
        # d_model 4 over 4 heads gives one-column value products
        cfg = tiny_encoder_config(ctx, d_model=d_model, n_heads=n_heads)
        lw = init_encoder_weights(cfg, seed=23).layer(0)
        t = 12
        ain = np.random.default_rng(24).standard_normal((t, d_model)).astype(np.float32)
        for n_q in (12, 5, 1):  # queries are the newest n_q of the t keys
            qpos = np.arange(t - n_q, t)
            groups = query_groups(ctx, qpos, t - 1)
            out, _ = _attend(cfg, lw, ain[t - n_q :], qpos, ain, 0, groups)
            want = attend_per_head(cfg, lw, ain[t - n_q :], qpos, ain, 0, groups)
            assert np.array_equal(out, want)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_infinite_key_that_softmax_hides_raises(self):
        # every query's first component is -1 and one key's is +inf: that key
        # scores -inf, gets weight 0, and the output would stay finite
        ctx = AttentionContext.chunked(12, 0)
        cfg = tiny_encoder_config(ctx)
        tensors = init_tensors(encoder_weight_spec(cfg), Rng(23))
        tensors["layers.0.attn.wq"][:, 0] = 0.0
        tensors["layers.0.attn.bq"][0] = -1.0
        tensors["layers.0.attn.wk"][:, 0] = 0.0
        tensors["layers.0.attn.wk"][0, 0] = 3e38
        lw = EncoderWeights(tensors).layer(0)
        ain = np.random.default_rng(24).standard_normal((12, cfg.d_model)).astype(np.float32)
        ain[:, 0] = 0.0
        ain[4, 0] = 2.0  # key 4's first component overflows to +inf
        qpos = np.arange(12)
        with pytest.raises(NumericsError):
            _attend(cfg, lw, ain, qpos, ain, 0, query_groups(ctx, qpos, 11))

    @pytest.mark.parametrize("ctx", REGIMES)
    @pytest.mark.parametrize("q0,n", [(0, 12), (5, 1), (5, 9), (11, 6)])
    def test_query_groups_follow_the_mask(self, ctx, q0, n):
        qpos = np.arange(q0, q0 + n)
        groups = query_groups(ctx, qpos, q0 + n - 1)
        rows = [r for r0, r1, _, _ in groups for r in range(r0, r1 + 1)]
        assert rows == list(range(n))
        mask = build_mask(ctx, n, query_offset=q0)
        for r0, r1, lo, hi in groups:
            for r in range(r0, r1 + 1):
                assert np.array_equal(np.flatnonzero(mask[r]), np.arange(lo, hi + 1))
        for a, b in zip(groups, groups[1:]):
            assert a[2:] != b[2:]

    def test_cached_keys_reproduce_full_sequence_rows_exactly(self):
        # attention over cache||chunk with chunk queries equals full-sequence
        # masked attention restricted to those query rows, bit for bit
        ctx = AttentionContext.chunked(4, 1)
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=77)
        lw = w.layer(0)
        rng = np.random.default_rng(78)
        t, c = 16, ctx.chunk
        ain = rng.standard_normal((t, cfg.d_model)).astype(np.float32)
        qpos = np.arange(t)
        full_out, _ = _attend(cfg, lw, ain, qpos, ain, 0, query_groups(ctx, qpos, t - 1))
        q0 = 8  # third chunk; cache holds the previous left_chunks * c inputs
        cache_lo = q0 - ctx.left_chunks * c
        key_slice = ain[cache_lo : q0 + c]
        chunk_q = qpos[q0 : q0 + c]
        part_out, _ = _attend(
            cfg, lw, ain[q0 : q0 + c], chunk_q, key_slice, cache_lo,
            query_groups(ctx, chunk_q, q0 + c - 1),
        )
        assert np.array_equal(part_out, full_out[q0 : q0 + c])

    def test_position_shift_invariance(self):
        # identical cache contents at different global offsets give identical outputs
        ctx = AttentionContext.chunked(3, 1)
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=25)
        mel = random_mel(48, cfg.n_mels, seed=26)
        step = ctx.chunk * cfg.downsampling_rate

        state_a = init_state(cfg)
        for i in range(0, 24, step):
            encode_step(mel[i : i + step], state_a, w, cfg)
        state_b = init_state(cfg)
        for i in range(0, 24, step):
            encode_step(mel[i : i + step], state_b, w, cfg)
        shift = 5 * ctx.chunk
        for lc in state_b.layers:
            lc.n_in += shift
            lc.n_out += shift
        state_b.mel_seen += shift * cfg.downsampling_rate
        state_b.tokens_in += shift
        nxt = mel[24 : 24 + step]
        out_a, _ = encode_step(nxt, state_a, w, cfg)
        out_b, _ = encode_step(nxt, state_b, w, cfg)
        assert np.array_equal(out_a, out_b)


class TestEncodeStepContracts:
    def test_initial_caches(self):
        cfg = tiny_encoder_config(AttentionContext.chunked(2, 1), conv_kernel=5)
        state = init_state(cfg)
        assert all(lc.attn.shape[0] == 0 for lc in state.layers)
        assert all(lc.conv.shape[0] == 4 for lc in state.layers)
        assert all(np.all(lc.conv == 0.0) for lc in state.layers)

    def test_non_multiple_chunk_rejected(self):
        cfg = tiny_encoder_config(AttentionContext.chunked(2, 1), downsampling_rate=4)
        w = init_encoder_weights(cfg, seed=27)
        state = init_state(cfg)
        with pytest.raises(ChunkingError):
            encode_step(random_mel(6, cfg.n_mels, 0), state, w, cfg)

    def test_partial_token_group_rejected_unless_final(self):
        cfg = tiny_encoder_config(AttentionContext.zero(), downsampling_rate=4)
        w = init_encoder_weights(cfg, seed=28)
        state = init_state(cfg)
        with pytest.raises(ChunkingError):
            encode_step(random_mel(5, cfg.n_mels, 1), state, w, cfg)
        out, _ = encode_step(random_mel(5, cfg.n_mels, 1), state, w, cfg, final=True)
        assert out.shape[0] == 1

    def test_finished_stream_rejects_more_input(self):
        cfg = tiny_encoder_config(AttentionContext.zero())
        w = init_encoder_weights(cfg, seed=29)
        state = init_state(cfg)
        encode_step(random_mel(4, cfg.n_mels, 2), state, w, cfg, final=True)
        with pytest.raises(SessionError):
            encode_step(random_mel(4, cfg.n_mels, 3), state, w, cfg)

    def test_regular_speculation_logged(self):
        ctx = AttentionContext.regular(2, 4)
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=30)
        mel = random_mel(40, cfg.n_mels, seed=31)
        rec = ComputeLedger()
        stream_encode(mel, w, cfg, rec=rec)
        assert rec.duplicate_macs > 0
        # steady-state steps recompute exactly m look-ahead tokens per layer
        steady = [s.speculative_tokens for s in rec.steps[4:-1]]
        assert steady and all(s == ctx.m * cfg.n_layers for s in steady)


class TestConfigValidation:
    def test_heads_divide_width(self):
        with pytest.raises(ConfigError):
            tiny_encoder_config(AttentionContext.zero(), d_model=16, n_heads=3)

    def test_downsampling_power_of_two(self):
        with pytest.raises(ConfigError):
            tiny_encoder_config(AttentionContext.zero(), downsampling_rate=3)

    def test_bias_span_defaults(self):
        cfg = tiny_encoder_config(AttentionContext.chunked(4, 2))
        assert cfg.bias_past == 3 * 4 - 1
        assert cfg.bias_future == 3


class TestKernelCalls:
    @pytest.mark.parametrize("ctx", REGIMES)
    def test_matmul_calls_per_step_do_not_depend_on_heads(self, ctx, monkeypatch):
        # one batched product per query group covers every head
        per_heads = {}
        for n_heads in (1, 2, 4):
            cfg = tiny_encoder_config(ctx, n_heads=n_heads)
            w = init_encoder_weights(cfg, seed=5)
            mel = random_mel(40, cfg.n_mels, seed=6)
            calls = []
            real = numerics.matmul64

            def counting(a, b):
                calls.append(1)
                return real(a, b)

            monkeypatch.setattr(numerics, "matmul64", counting)
            monkeypatch.setattr(encoder, "matmul64", counting)
            step = (1 if ctx.regime == ZERO else ctx.step_tokens()) * cfg.downsampling_rate
            state = init_state(cfg)
            counts = []
            for pos in range(0, mel.shape[0], step):
                before = len(calls)
                final = pos + step >= mel.shape[0]
                encode_step(mel[pos : pos + step], state, w, cfg, final=final)
                counts.append(len(calls) - before)
            monkeypatch.undo()
            per_heads[n_heads] = counts
        assert per_heads[1] == per_heads[2] == per_heads[4]
        assert min(per_heads[1]) > 0
