import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamasr import (
    AttentionContext,
    EncoderConfig,
    EncoderWeights,
    Rng,
    encode_full,
    encode_step,
    init_state,
    load_model,
    receptive_field_frames,
    run_multi_lookahead,
    save_model,
)
from streamasr import encoder, numerics
from streamasr.context import ZERO
from streamasr.encoder import (
    PlanStore,
    _attend,
    _layer_arrival,
    attention_plan,
    downsample_segment,
    encoder_weight_spec,
    init_tensors,
    query_groups,
)
from streamasr.errors import ChunkingError, ConfigError, NumericsError, SessionError, ShapeError
from streamasr.ledger import CATEGORIES, ComputeLedger
from streamasr.numerics import linear

from helpers import (
    attend_per_head,
    steady_step_calls,
    count_plans,
    build_mask,
    init_encoder_weights,
    masked_softmax,
    random_mel,
    reference_encode,
    synth_audio,
    tiny_encoder_config,
    tiny_model,
)


def attend(cfg, lw, q_ain, qpos, key_ain, key_base, groups):
    """_attend as a layer step runs it: the queries and the K|V rows are
    projected from their attention inputs as _layer_arrival projects them."""
    d = cfg.d_model
    q = linear(q_ain, lw["attn.wqkv"], lw["attn.bqkv"])[:, :d]
    kv = linear(key_ain, lw["attn.wqkv"], lw["attn.bqkv"])[:, d:]
    return _attend(cfg, lw, q, kv,
                   attention_plan(cfg, lw["attn.bias64"], qpos, kv.shape[0], key_base, groups))


REGIMES = [
    AttentionContext.zero(),
    AttentionContext.zero(left_context=3),
    AttentionContext.regular(1, 4),
    AttentionContext.regular(2, 5),
    AttentionContext.chunked(1, 2),
    AttentionContext.chunked(3, 1),
    AttentionContext.chunked(4, 0),
]


CONTEXTS = st.one_of(
    st.builds(AttentionContext.zero, st.none() | st.integers(0, 6)),
    st.builds(AttentionContext.regular, st.integers(0, 3), st.integers(0, 6)),
    st.builds(AttentionContext.chunked, st.integers(1, 5), st.integers(0, 2)),
)


def counting_matmul64(monkeypatch) -> list:
    """Patch matmul64 where the encoder and the kernels look it up; the
    returned list grows by one per call."""
    calls = []
    real = numerics.matmul64

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(numerics, "matmul64", counting)
    monkeypatch.setattr(encoder, "matmul64", counting)
    return calls


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


class TestReferenceForward:
    """encode_full and the stream equal reference_encode, which runs the
    utterance at once with no state, cache, plan or step."""

    @settings(max_examples=80, deadline=None)
    @given(ctx=CONTEXTS, dr=st.sampled_from([1, 2, 4, 8]), kernel=st.sampled_from([1, 3, 5]),
           bias_past=st.none() | st.integers(0, 2), tokens=st.integers(0, 24),
           tail=st.integers(0, 7), steps=st.lists(st.integers(0, 4), max_size=8),
           seed=st.integers(0, 2**16))
    def test_full_and_random_steps_equal_the_reference(self, ctx, dr, kernel, bias_past, tokens,
                                                       tail, steps, seed):
        cfg = tiny_encoder_config(ctx, downsampling_rate=dr, conv_kernel=kernel,
                                  bias_past=bias_past)
        w = init_encoder_weights(cfg, seed=seed)
        mel = random_mel(tokens * dr + tail % dr, cfg.n_mels, seed=seed + 1)  # partial group
        want = reference_encode(mel, w, cfg)
        assert want.shape == (tokens, cfg.d_model)
        assert np.array_equal(encode_full(mel, w, cfg), want)
        state, outs, pos = init_state(cfg), [], 0
        for n in steps:
            n *= ctx.step_tokens() * dr
            if pos + n > mel.shape[0]:
                break
            outs.append(encode_step(mel[pos : pos + n], state, w, cfg)[0])
            pos += n
        outs.append(encode_step(mel[pos:], state, w, cfg, final=True)[0])
        assert np.array_equal(np.concatenate(outs), want)

    @pytest.mark.parametrize("ctx", [AttentionContext.zero(left_context=3),
                                     AttentionContext.regular(2, 5),
                                     AttentionContext.chunked(3, 1)],
                             ids=["zero", "regular", "chunk"])
    @pytest.mark.parametrize("tokens", [120, 129, 257, 300])
    def test_long_utterances_across_the_step_cuts(self, ctx, tokens):
        cfg = tiny_encoder_config(ctx, downsampling_rate=2)
        w = init_encoder_weights(cfg, seed=tokens)
        mel = random_mel(tokens * 2 + 1, cfg.n_mels, seed=tokens + 1)
        assert np.array_equal(encode_full(mel, w, cfg), reference_encode(mel, w, cfg))


class TestOfflineSteps:
    """encode_full runs the stream in steps of encoder.block_frames() frames
    and a partial last one."""

    @staticmethod
    def run(mel, w, cfg, sizes):
        """encode_full of mel, and encode_step over non-final steps of `sizes`
        tokens plus a final flush; each output with its ledger."""
        dr = cfg.downsampling_rate
        full_rec = ComputeLedger()
        full = encode_full(mel, w, cfg, rec=full_rec)
        state, rec, outs, pos = init_state(cfg), ComputeLedger(), [], 0
        for n in sizes + [None]:
            rec.new_step()
            chunk = mel[pos:] if n is None else mel[pos : pos + n * dr]
            outs.append(encode_step(chunk, state, w, cfg, rec=rec, final=n is None)[0])
            pos += chunk.shape[0]
        return full, full_rec, np.concatenate(outs), rec

    @pytest.mark.parametrize("ctx", [AttentionContext.zero(), AttentionContext.regular(2, 5),
                                     AttentionContext.chunked(3, 1)],
                             ids=["zero", "regular", "chunk"])
    @pytest.mark.parametrize("tokens", [0, 1, 127, 128, 129, 256, 257, 301])
    def test_offline_steps_change_no_bit(self, ctx, tokens):
        # random steps of 1-3 or 100-299 tokens, then the rest, equal
        # encode_full bit for bit; both, and their ledgers, equal the same
        # runs with encode_full taken as one final step
        cfg = tiny_encoder_config(ctx, downsampling_rate=2)
        w = init_encoder_weights(cfg, seed=40)
        mel = random_mel(tokens * 2 + 1, cfg.n_mels, seed=tokens)  # a partial last group
        rng, step, sizes = np.random.default_rng(tokens), ctx.step_tokens(), []
        while True:
            n = int(rng.integers(1, 4) if rng.random() < 0.5 else rng.integers(100, 300))
            n = max(1, n // step) * step
            if sum(sizes) + n > tokens:
                break
            sizes.append(n)
        stepped = self.run(mel, w, cfg, sizes)
        with mock.patch.object(encoder, "_BLOCK_TOKENS", 10**9):
            whole = self.run(mel, w, cfg, sizes)
        assert stepped[0].shape == (tokens, cfg.d_model)
        assert np.array_equal(stepped[2], stepped[0])
        for i in (0, 2):  # encode_full, then the stream, each before its ledger
            assert np.array_equal(stepped[i], whole[i])
            assert stepped[i + 1].to_dict() == whole[i + 1].to_dict()
            assert stepped[i + 1].steps == whole[i + 1].steps

    @pytest.mark.parametrize("ctx", REGIMES)
    def test_offline_steps_speculate_nothing(self, ctx):
        # three steps, none of which runs a row it cannot settle
        cfg = tiny_encoder_config(ctx, downsampling_rate=2)
        w = init_encoder_weights(cfg, seed=41)
        rec = ComputeLedger()
        encode_full(random_mel(301 * 2, cfg.n_mels, seed=42), w, cfg, rec=rec)
        assert rec.duplicate_macs == 0 and len(rec.steps) == 1


class TestDownsampler:
    @pytest.mark.parametrize("dr,expected", [(1, []), (2, [8]), (4, [8, 16]), (8, [8, 16, 16])])
    def test_carried_row_widths(self, dr, expected):
        # each stage carries one input row: a mel frame, then a stage output
        cfg = tiny_encoder_config(AttentionContext.zero(), downsampling_rate=dr)
        carry = {n: t for n, t in init_state(cfg).tensors.items() if n.startswith("ds.")}
        assert [(n, c.shape) for n, c in carry.items()] == [
            (f"ds.carry{s}", (1, n)) for s, n in enumerate(expected)]
        assert all(np.all(c == 0.0) for c in carry.values())

    def test_rate_one_is_projection(self):
        cfg = tiny_encoder_config(AttentionContext.zero(), downsampling_rate=1)
        w = init_encoder_weights(cfg, seed=15)
        mel = random_mel(10, cfg.n_mels, seed=16)
        carry = {}
        tokens = downsample_segment(w, cfg, mel, carry)
        assert carry == {}
        assert np.array_equal(
            tokens, linear(mel, w.tensors["ds.proj.w"], w.tensors["ds.proj.b"])
        )

    @pytest.mark.parametrize("dr", [2, 4, 8])
    def test_chunked_slices_match_whole(self, dr):
        cfg = tiny_encoder_config(AttentionContext.chunked(4, 1), downsampling_rate=dr)
        w = init_encoder_weights(cfg, seed=17)
        mel = random_mel(8 * dr, cfg.n_mels, seed=18)
        whole = downsample_segment(w, cfg, mel, init_state(cfg).tensors)
        carry, parts = init_state(cfg).tensors, []
        for lo, hi in ((0, dr), (dr, 4 * dr), (4 * dr, 4 * dr), (4 * dr, 8 * dr)):
            parts.append(downsample_segment(w, cfg, mel[lo:hi], carry))
        assert np.array_equal(np.concatenate(parts), whole)

    def test_partial_group_is_not_read(self):
        cfg = tiny_encoder_config(AttentionContext.zero(), downsampling_rate=4)
        w = init_encoder_weights(cfg, seed=19)
        mel = random_mel(11, cfg.n_mels, seed=0)
        kept, whole_kept = init_state(cfg).tensors, init_state(cfg).tensors
        tokens = downsample_segment(w, cfg, mel, kept)
        whole = downsample_segment(w, cfg, mel[:8], whole_kept)
        assert tokens.shape[0] == 2 and np.array_equal(tokens, whole)
        assert all(np.array_equal(kept[n], whole_kept[n]) for n in kept)

    @pytest.mark.parametrize("ctx", [AttentionContext.zero(left_context=3),
                                     AttentionContext.regular(1, 4),
                                     AttentionContext.chunked(2, 1)],
                             ids=["zero", "regular", "chunk"])
    @pytest.mark.parametrize("dr", [2, 4, 8])
    def test_ledger_books_the_rows_that_run(self, ctx, dr, monkeypatch):
        # every matmul64 row through a downsampler weight, against the ledger
        cfg = tiny_encoder_config(ctx, downsampling_rate=dr)
        w = init_encoder_weights(cfg, seed=20)
        ds_weights = list(w.downsampler.values())  # the operands the products read
        macs = []
        real = numerics.matmul64

        def counting(a, b):
            if any(np.shares_memory(b, t) for t in ds_weights):
                macs.append(a.shape[0] * a.shape[1] * b.shape[-1])
            return real(a, b)

        monkeypatch.setattr(numerics, "matmul64", counting)
        monkeypatch.setattr(encoder, "matmul64", counting)
        mel = random_mel(13 * dr + dr // 2, cfg.n_mels, seed=21)  # a partial last group
        for mode in ("streaming", "offline"):
            macs.clear()
            rec = ComputeLedger()
            if mode == "streaming":
                stream_encode(mel, w, cfg, rec=rec)
            else:
                rec.new_step()
                encode_full(mel, w, cfg, rec=rec)
            assert sum(macs) == rec.category_total("downsampler") > 0, mode
            if ctx.regime == "chunk":
                assert rec.duplicate_macs == 0


@pytest.mark.parametrize("ctx", [AttentionContext.zero(left_context=3),
                                 AttentionContext.regular(1, 4),
                                 AttentionContext.chunked(2, 1)],
                         ids=["zero", "regular", "chunk"])
def test_each_step_books_the_products_it_runs(ctx, monkeypatch):
    # every encoder product but the depthwise convolution runs through
    # matmul64: per encode_step, and for encode_full, the m*k*n MACs of its
    # calls equal the booked attention, ffn and downsampler MACs
    cfg = tiny_encoder_config(ctx)
    w = init_encoder_weights(cfg, seed=22)
    ran = []
    real = numerics.matmul64

    def counting(a, b):
        ran.append(math.prod(a.shape) * b.shape[-1])
        return real(a, b)

    monkeypatch.setattr(numerics, "matmul64", counting)
    monkeypatch.setattr(encoder, "matmul64", counting)
    step = (1 if ctx.regime == ZERO else ctx.step_tokens()) * cfg.downsampling_rate
    mel = random_mel(40 * cfg.downsampling_rate + 3, cfg.n_mels, seed=23)
    cuts = [(pos, pos + step, False) for pos in range(0, 40 * cfg.downsampling_rate, step)]
    state, runs = init_state(cfg), []
    for lo, hi, final in cuts + [(cuts[-1][1], mel.shape[0], True)]:
        ran.clear()
        rec = ComputeLedger()
        rec.new_step()
        encode_step(mel[lo:hi], state, w, cfg, rec=rec, final=final)
        runs.append((sum(ran), rec))
    ran.clear()
    rec = ComputeLedger()
    rec.new_step()
    encode_full(mel, w, cfg, rec=rec)
    runs.append((sum(ran), rec))
    booked = [sum(rec.category_total(c) for c in ("attention", "ffn", "downsampler"))
              for _, rec in runs]
    assert [macs for macs, _ in runs] == booked
    assert runs[-1][1].duplicate_macs == 0


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
        out = attend(cfg, lw, ain, qpos, ain, 0, groups)

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
            out = attend(cfg, lw, ain[t - n_q :], qpos, ain, 0, groups)
            want = attend_per_head(cfg, lw, ain[t - n_q :], qpos, ain, 0, groups)
            assert np.array_equal(out, want)

    @settings(max_examples=150, deadline=None)
    @given(ctx=CONTEXTS, d_head=st.integers(1, 16), n_heads=st.integers(1, 3),
           t=st.integers(1, 40), data=st.data())
    def test_batched_groups_equal_per_head_oracle(self, ctx, d_head, n_heads, t, data):
        # a whole window (n_q == t) in the zero and regular regimes, or any
        # chunk-regime window over several chunks, has many groups of one
        # (rows, keys) shape, which _attend runs through one call per product
        n_q = data.draw(st.just(t) | st.integers(1, t), label="n_q")
        cfg = tiny_encoder_config(ctx, n_layers=1, d_model=d_head * n_heads, n_heads=n_heads)
        lw = init_encoder_weights(cfg, seed=data.draw(st.integers(0, 99), label="seed")).layer(0)
        ain = np.random.default_rng(t).standard_normal((t, cfg.d_model)).astype(np.float32)
        qpos = np.arange(t - n_q, t)
        groups = query_groups(ctx, qpos, t - 1)
        base = min(lo for _, _, lo, _ in groups)  # the keys start where the queries' reach does
        q_ain = ain[t - n_q :]
        out = attend(cfg, lw, q_ain, qpos, ain[base:], base, groups)
        assert np.array_equal(out, attend_per_head(cfg, lw, q_ain, qpos, ain[base:], base, groups))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_infinite_key_that_softmax_hides_raises(self):
        # every query's first component is -1 and one key's is +inf: that key
        # scores -inf, gets weight 0, and the output would stay finite. Q|K|V
        # rows are projected, and checked, once, when a token reaches the layer.
        ctx = AttentionContext.chunked(12, 0)
        cfg = tiny_encoder_config(ctx)
        tensors = init_tensors(encoder_weight_spec(cfg), Rng(23))
        tensors["layers.0.ffn1.w2"][:] = 0.0  # FFN1 adds 0: the attention input is LN(x)
        tensors["layers.0.attn.wq"][:, 0] = 0.0
        tensors["layers.0.attn.bq"][0] = -1.0
        tensors["layers.0.attn.wk"][:, 0] = 0.0
        tensors["layers.0.attn.wk"][0, 0] = 3e38
        lw = EncoderWeights(tensors).layer(0)
        x = np.random.default_rng(24).standard_normal((12, cfg.d_model)).astype(np.float32)
        x[:, 0] = 0.0
        x[4, 0] = 8.0  # token 4's normalized first component is > 2: its key overflows
        rows = _layer_arrival(cfg, lw, np.delete(x, 4, axis=0))
        assert np.isfinite(rows[:, 2 * cfg.d_model :]).all()  # the other K|V rows stay finite
        with pytest.raises(NumericsError):
            _layer_arrival(cfg, lw, x)

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
        full_out = attend(cfg, lw, ain, qpos, ain, 0, query_groups(ctx, qpos, t - 1))
        q0 = 8  # third chunk; cache holds the previous left_chunks * c inputs
        cache_lo = q0 - ctx.left_chunks * c
        chunk_q = qpos[q0 : q0 + c]
        part_out = attend(
            cfg, lw, ain[q0 : q0 + c], chunk_q, ain[cache_lo : q0 + c], cache_lo,
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
        state_b.tokens_in += 5 * ctx.chunk
        nxt = mel[24 : 24 + step]
        out_a, _ = encode_step(nxt, state_a, w, cfg)
        out_b, _ = encode_step(nxt, state_b, w, cfg)
        assert np.array_equal(out_a, out_b)


class TestEncodeStepContracts:
    def test_initial_caches(self):
        cfg = tiny_encoder_config(AttentionContext.chunked(2, 1), conv_kernel=5)
        tensors = init_state(cfg).tensors
        layers = range(cfg.n_layers)
        assert all(tensors[f"layers.{i}.rows"].shape == (0, 4 * cfg.d_model) for i in layers)
        assert all(tensors[f"layers.{i}.conv"].shape[0] == 4 for i in layers)
        assert all(np.all(tensors[f"layers.{i}.conv"] == 0.0) for i in layers)

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

    def test_regular_stream_books_the_offline_ledger(self):
        # a step runs only the rows it settles: no row runs twice, and the
        # one-token steps book encode_full's MACs in every category
        ctx = AttentionContext.regular(2, 4)
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=30)
        mel = random_mel(40, cfg.n_mels, seed=31)
        rec, off = ComputeLedger(), ComputeLedger()
        out, _ = stream_encode(mel, w, cfg, rec=rec)
        assert np.array_equal(out, encode_full(mel, w, cfg, rec=off))
        assert rec.duplicate_macs == 0 and len(rec.steps) > 4
        assert {c: rec.category_total(c) for c in CATEGORIES} == \
            {c: off.category_total(c) for c in CATEGORIES}

    @pytest.mark.parametrize("mel", [[[0.0] * 8] * 3 + [[0.0] * 7], np.full((4, 8), "0.5")],
                             ids=["ragged", "strings"])
    def test_frames_that_are_not_numbers_are_shape_error(self, mel):
        cfg = tiny_encoder_config(AttentionContext.zero())
        w = init_encoder_weights(cfg, seed=29)
        with pytest.raises(ShapeError):
            encode_step(mel, init_state(cfg), w, cfg, final=True)
        with pytest.raises(ShapeError):
            encode_full(mel, w, cfg)


# per layer, the tensors EncoderWeights copies to float64 under their own
# names; it also mirrors wq, wk and wv as attn.wqkv and the bias table as
# attn.bias64, and all the downsampler's tensors but ds.proj.b
COPIED = ("ffn1.w1", "ffn1.w2", "ffn2.w1", "ffn2.w2", "attn.wo", "conv.pw1", "conv.pw2", "conv.dw")


def prepared_float64(w: EncoderWeights, cfg) -> list[np.ndarray]:
    """Every float64 array w prepares: each layer's and the downsampler's."""
    arrays = [a for i in range(cfg.n_layers) for a in w.layer(i).values()]
    return [a for a in arrays + list(w.downsampler.values()) if a.dtype == np.float64]


class TestPreparedWeights:
    """EncoderWeights makes the weights its kernels read float64 once, on
    first use, so no encoder kernel call converts a weight."""

    @pytest.mark.parametrize("ctx", [AttentionContext.zero(left_context=3),
                                     AttentionContext.regular(1, 4),
                                     AttentionContext.chunked(2, 1)],
                             ids=["zero", "regular", "chunk"])
    def test_every_weight_a_kernel_reads_is_prepared_float64(self, ctx, monkeypatch):
        # a two-dimensional matmul64 operand `b` is a weight (the attention
        # products are batches over heads), and so are the depthwise taps
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=60)
        prepared = prepared_float64(w, cfg)
        weights = []
        real_matmul, real_depthwise = numerics.matmul64, encoder.depthwise_conv1d_causal

        def matmul(a, b):
            if np.ndim(b) == 2:
                weights.append(b)
            return real_matmul(a, b)

        def depthwise(x, taps, bias, history):
            weights.append(taps)
            return real_depthwise(x, taps, bias, history)

        monkeypatch.setattr(numerics, "matmul64", matmul)
        monkeypatch.setattr(encoder, "matmul64", matmul)
        monkeypatch.setattr(encoder, "depthwise_conv1d_causal", depthwise)
        mel = random_mel(13 * cfg.downsampling_rate + 2, cfg.n_mels, seed=61)
        for mode, run in (("streaming", stream_encode), ("offline", encode_full)):
            weights.clear()
            run(mel, w, cfg)
            assert len(weights) >= cfg.n_stages * 3 + 1 + cfg.n_layers * 9, mode
            for b in weights:
                assert b.dtype == np.float64 and b.flags.c_contiguous, mode
                assert any(np.shares_memory(b, p) for p in prepared), mode

    def test_each_copy_is_its_tensor_bit_for_bit_and_read_only(self):
        cfg = tiny_encoder_config(AttentionContext.regular(1, 4), downsampling_rate=8)
        w = init_encoder_weights(cfg, seed=62)
        t = w.tensors
        pairs = [(w.downsampler[name[len("ds.") :]], v) for name, v in t.items()
                 if name.startswith("ds.") and name != "ds.proj.b"]
        for i in range(cfg.n_layers):
            lw, p = w.layer(i), f"layers.{i}."
            pairs += [(lw[name], t[p + name]) for name in COPIED]
            pairs += [(lw["attn.wqkv"], np.concatenate([t[p + f"attn.w{q}"] for q in "qkv"], 1)),
                      (lw["attn.bias64"], t[p + "attn.bias"])]
            assert lw["attn.bqkv"].dtype == np.float32 and not lw["attn.bqkv"].flags.writeable
        assert w.downsampler["proj.b"] is t["ds.proj.b"]  # linear adds its bias in float32
        for copy, tensor in pairs:
            assert copy.dtype == np.float64 and copy.flags.c_contiguous
            assert not copy.flags.writeable
            assert copy.astype(np.float32).tobytes() == tensor.tobytes()
            assert np.array_equal(copy, tensor)
        assert len(pairs) == len(prepared_float64(w, cfg))

    def test_copies_take_eight_bytes_per_mirrored_element(self):
        # perfbench's model: about 3.3 MB of float64 copies
        cfg = EncoderConfig(n_layers=4, d_model=64, n_heads=4, conv_kernel=9,
                            downsampling_rate=4, attention=AttentionContext.chunked(4, 4))
        w = init_encoder_weights(cfg, seed=7)
        per_layer = COPIED + ("attn.wq", "attn.wk", "attn.wv", "attn.bias")
        mirrored = [v for name, v in w.tensors.items()
                    if name.startswith("ds.") and name != "ds.proj.b"
                    or name.split(".", 2)[-1] in per_layer]
        assert sum(a.nbytes for a in prepared_float64(w, cfg)) == \
            8 * sum(v.size for v in mirrored)

    def test_built_once_per_weights_and_not_at_load(self, tmp_path, monkeypatch):
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=63)
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        built = []
        real = encoder.float64_copy

        def counting(t):
            built.append(t.shape)
            return real(t)

        monkeypatch.setattr(encoder, "float64_copy", counting)
        model = load_model(path)
        assert built == []
        cfg = model.cfg.encoder
        mel = random_mel(10 * cfg.downsampling_rate, cfg.n_mels, seed=64)
        first = encode_full(mel, model.encoder, cfg)
        n_built = len(built)
        assert n_built == cfg.n_layers * 10 + 2 * cfg.n_stages + 1
        assert np.array_equal(encode_full(mel, model.encoder, cfg), first)
        other = model.with_attention(AttentionContext.chunked(1, 1))
        encode_full(mel, other.encoder, other.cfg.encoder)
        run_multi_lookahead(synth_audio(0.3, seed=65), model, vocab, [1, 2], decoder="ctc")
        assert len(built) == n_built

    def test_checked_once_per_weights_and_signature(self, monkeypatch):
        # a 1,000-step stream checks its weights at its first step only
        cfg = tiny_encoder_config(AttentionContext.regular(1, 4), downsampling_rate=1)
        w = init_encoder_weights(cfg, seed=66)
        checked, real = [], encoder.encoder_weight_spec
        monkeypatch.setattr(encoder, "encoder_weight_spec",
                            lambda c: checked.append(c) or real(c))
        mel = random_mel(1000, cfg.n_mels, seed=67)
        state = init_state(cfg)
        for i in range(1000):
            encode_step(mel[i : i + 1], state, w, cfg)
        assert checked == [cfg]
        # another mask keeps the signature; other bias spans of the same
        # table width are another one, which these tensors also fit
        encode_full(mel[:40], w, dataclasses.replace(cfg, attention=AttentionContext.chunked(2, 1)))
        assert checked == [cfg]
        spans = dataclasses.replace(cfg, bias_past=cfg.bias_past + 1,
                                    bias_future=cfg.bias_future - 1)
        encode_full(mel[:40], w, spans)
        encode_full(mel[:40], w, spans)
        assert checked == [cfg, spans]
        # new weights of the same tensors are checked again
        encode_full(mel[:40], EncoderWeights(w.tensors), cfg)
        assert checked == [cfg, spans, cfg]


class TestConfigValidation:
    def test_heads_divide_width(self):
        with pytest.raises(ConfigError):
            tiny_encoder_config(AttentionContext.zero(), d_model=16, n_heads=3)

    def test_downsampling_power_of_two(self):
        with pytest.raises(ConfigError):
            tiny_encoder_config(AttentionContext.zero(), downsampling_rate=3)

    @pytest.mark.parametrize("field, value", [
        ("n_layers", "2"), ("n_layers", 2.0), ("d_model", 8.0), ("n_heads", True),
        ("conv_kernel", 3.5), ("downsampling_rate", 4.0), ("ffn_expansion", False),
        ("n_mels", "80"), ("bias_past", 1.5), ("bias_future", True), ("attention", "chunk"),
    ])
    def test_sizes_must_be_integers(self, field, value):
        fields = dict(n_layers=2, d_model=16, n_heads=2, conv_kernel=3, downsampling_rate=4,
                      attention=AttentionContext.chunked(2, 1))
        with pytest.raises(ConfigError):
            EncoderConfig(**{**fields, field: value})

    def test_sizes_are_stored_as_ints(self):
        cfg = tiny_encoder_config(AttentionContext.chunked(2, 1), n_layers=np.int64(2),
                                  d_model=np.int32(16), bias_future=np.int64(1))
        assert (type(cfg.n_layers), type(cfg.d_model), type(cfg.bias_future)) == (int, int, int)
        assert cfg == tiny_encoder_config(AttentionContext.chunked(2, 1), bias_future=1)

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
            calls = counting_matmul64(monkeypatch)
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

    def test_offline_calls_do_not_grow_with_regular_tokens(self, monkeypatch):
        # every regular-regime query has its own key interval, but away from
        # the sequence ends the intervals share one shape and so one call
        cfg = tiny_encoder_config(AttentionContext.regular(2, 5))
        w = init_encoder_weights(cfg, seed=5)
        counts = []
        for tokens in (40, 80):
            calls = counting_matmul64(monkeypatch)
            encode_full(random_mel(tokens * cfg.downsampling_rate, cfg.n_mels, seed=6), w, cfg)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_offline_calls_grow_per_step_not_per_row(self, monkeypatch):
        # encode_full takes steps of 128 tokens and a partial last one: 300
        # and 360 tokens are three steps each, 129 two and 128 one
        cfg = tiny_encoder_config(AttentionContext.regular(2, 5))
        w = init_encoder_weights(cfg, seed=5)
        counts = {}
        for tokens in (128, 129, 300, 360):
            calls = counting_matmul64(monkeypatch)
            encode_full(random_mel(tokens * cfg.downsampling_rate, cfg.n_mels, seed=6), w, cfg)
            monkeypatch.undo()
            counts[tokens] = len(calls)
        assert counts[300] == counts[360]
        assert counts[129] > counts[128]

    def test_step_calls_do_not_grow_with_its_tokens(self, monkeypatch):
        # a step runs each layer in one pass, however many tokens it brings
        cfg = tiny_encoder_config(AttentionContext.regular(2, 5))
        w = init_encoder_weights(cfg, seed=5)
        counts = []
        for tokens in (40, 300):
            mel = random_mel(tokens * cfg.downsampling_rate, cfg.n_mels, seed=6)
            calls = counting_matmul64(monkeypatch)
            encode_step(mel, init_state(cfg), w, cfg)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("ctx", REGIMES)
    def test_each_token_is_projected_to_qkv_once_per_layer(self, ctx, monkeypatch):
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=5)
        layers = [w.layer(i) for i in range(cfg.n_layers)]
        fused = {id(lw["attn.wqkv"]) for lw in layers}
        apart = {id(lw[f"attn.w{p}"]) for lw in layers for p in "qkv"}
        rows, rows_apart = [], []
        real = encoder.linear

        def counting(x, wt, b=None):
            if id(wt) in fused:
                rows.append(x.shape[0])
            if id(wt) in apart:
                rows_apart.append(x.shape[0])
            return real(x, wt, b)

        monkeypatch.setattr(encoder, "linear", counting)
        out, _ = stream_encode(random_mel(44, cfg.n_mels, seed=6), w, cfg)
        assert out.shape[0] == 44 // cfg.downsampling_rate
        assert sum(rows) == cfg.n_layers * out.shape[0]
        assert rows_apart == []

    @pytest.mark.parametrize("ctx", REGIMES)
    def test_no_step_layer_norms_a_pending_row(self, ctx, monkeypatch):
        # a pending row's query is cached beside it: its attention input is
        # normalized once, when the token reaches the layer
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=5)
        gammas = {id(w.layer(i)["attn.ln_g"]) for i in range(cfg.n_layers)}
        rows = []
        real = encoder.layer_norm

        def counting(x, g, b, *args):
            if id(g) in gammas:
                rows.append(x.shape[0])
            return real(x, g, b, *args)

        monkeypatch.setattr(encoder, "layer_norm", counting)
        out, _ = stream_encode(random_mel(44, cfg.n_mels, seed=6), w, cfg)
        assert sum(rows) == cfg.n_layers * out.shape[0]

    @pytest.mark.parametrize("ctx", REGIMES)
    def test_one_row_cache_append_per_layer_per_step(self, ctx, monkeypatch):
        # each layer's x1|q|k|v rows change by one cache_append a step; the
        # queries and the keys are slices of its one window
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=5)
        step = ctx.step_tokens() * cfg.downsampling_rate
        mel = random_mel(5 * step, cfg.n_mels, seed=6)
        widths = []
        real = encoder.cache_append

        def counting(cache, new_rows, n_keep):
            widths.append(cache.shape[1])
            return real(cache, new_rows, n_keep)

        monkeypatch.setattr(encoder, "cache_append", counting)
        state = init_state(cfg)
        for i in range(4):
            encode_step(mel[i * step : (i + 1) * step], state, w, cfg)
        encode_step(mel[4 * step :], state, w, cfg, final=True)
        assert widths.count(4 * cfg.d_model) == 5 * cfg.n_layers

    @staticmethod
    def _steady_layer_step(ctx, monkeypatch, patch) -> int:
        """What `patch` counts in one steady layer-step: step 20 of a two-layer
        encoder less step 20 of a one-layer encoder."""
        counts = []
        for n_layers in (1, 2):
            cfg = tiny_encoder_config(ctx, n_layers=n_layers)
            w = init_encoder_weights(cfg, seed=5)
            step = ctx.step_tokens() * cfg.downsampling_rate
            mel = random_mel(21 * step, cfg.n_mels, seed=6)
            state = init_state(cfg)
            for i in range(20):
                encode_step(mel[i * step : (i + 1) * step], state, w, cfg)
            calls = patch(monkeypatch)
            encode_step(mel[20 * step :], state, w, cfg)
            monkeypatch.undo()
            counts.append(len(calls))
        return counts[1] - counts[0]

    @pytest.mark.parametrize("ctx,want", [(AttentionContext.chunked(2, 1), 10),
                                          (AttentionContext.regular(1, 4), 10)],
                             ids=["chunk", "regular"])
    def test_steady_layer_step_matmul_calls(self, ctx, want, monkeypatch):
        # FFN1 (2), Q|K|V (1), scores and values (2; a steady step's settled
        # rows share one query shape), O (1), the two pointwise convs (2) and
        # FFN2 (2)
        assert self._steady_layer_step(ctx, monkeypatch, counting_matmul64) == want

    def test_steady_regular_layer_step_layer_norms(self, monkeypatch):
        # FFN1, attention input, conv, conv's second, FFN2 and output
        def counting_layer_norm(mp):
            calls = []
            real = encoder.layer_norm

            def counting(*args):
                calls.append(1)
                return real(*args)

            mp.setattr(encoder, "layer_norm", counting)
            return calls

        ctx = AttentionContext.regular(1, 4)
        assert self._steady_layer_step(ctx, monkeypatch, counting_layer_norm) == 6


class TestStepCalls:
    """The counted law: calls into the package per steady streaming step of
    perfbench's model, features and decoding included
    (helpers.steady_step_calls). Counts are exact and repeat from run to run;
    a change that cuts calls lowers its bound to the new figures."""

    CONTEXTS = {"regular": AttentionContext.regular(1, 16), "chunk": AttentionContext.chunked(4, 4)}
    STEPS = {"regular": 64, "chunk": 16}  # 40 ms and 160 ms steps over 2.56 s
    # per steady step: Python calls of package functions, and C calls made from them
    BOUNDS = {
        ("regular", "ctc"): (343.0, 550.1875),
        ("regular", "both"): (601.203125, 849.765625),
        ("chunk", "ctc"): (373.0, 588.0),
        ("chunk", "both"): (1385.0, 1762.0),
    }

    @pytest.mark.parametrize("regime,decoder", list(BOUNDS), ids="-".join)
    def test_a_steady_step_makes_at_most_its_counted_calls(self, regime, decoder):
        python, c_calls, steps = steady_step_calls(self.CONTEXTS[regime], decoder)
        assert steps == self.STEPS[regime]
        py_bound, c_bound = self.BOUNDS[regime, decoder]
        assert sum(python.values()) / steps <= py_bound
        assert c_calls / steps <= c_bound
        # a stored step builds no query groups, and asks the mask only for
        # each layer's kept rows, before and after the step
        assert python["query_groups"] == python["attention_plan"] == 0
        assert python["AttentionContext.attend_interval"] == python["attn_keep_rows"]
        assert python["attn_keep_rows"] == 2 * 4 * steps
        if decoder == "ctc":  # four encoder categories and the CTC head, once each
            assert python["ComputeLedger.add"] == 5 * steps


class TestAttentionPlans:
    """Laws of the plan store: plans live with the weights, not the stream."""

    @staticmethod
    def recording_plans(monkeypatch) -> list:
        """Per PlanStore.get or put call: its name and the plan it returned or stored."""
        calls, get, put = [], PlanStore.get, PlanStore.put

        def recording_get(store, key):
            plan = get(store, key)
            calls.append(("get", plan))
            return plan

        def recording_put(store, key, plan):
            calls.append(("put", plan))
            put(store, key, plan)

        monkeypatch.setattr(PlanStore, "get", recording_get)
        monkeypatch.setattr(PlanStore, "put", recording_put)
        return calls

    @pytest.mark.parametrize("ctx", [AttentionContext.regular(1, 4),
                                     AttentionContext.chunked(1, 3)], ids=["regular", "chunk"])
    def test_a_long_stream_keeps_one_plan_per_layer(self, ctx, monkeypatch):
        # a 1,000-step stream builds no plan after its warm-up: every steady
        # step of a layer reads that layer's one stored plan
        cfg = tiny_encoder_config(ctx, n_layers=2, downsampling_rate=1)
        w = init_encoder_weights(cfg, seed=5)
        mel = random_mel(1000, cfg.n_mels, seed=6)
        built = count_plans(monkeypatch)
        calls = self.recording_plans(monkeypatch)
        state = init_state(cfg)
        for i in range(1000):  # one token per step
            encode_step(mel[i : i + 1], state, w, cfg)
            if i == 100:
                warm, n_calls = len(built), len(calls)
        assert warm <= 2 * 10 and len(built) == warm
        steady = [plan for _, plan in calls[n_calls:]]
        assert all(name == "get" for name, _ in calls[n_calls:])
        assert {id(p) for p in steady[0::2]} == {id(steady[0])}
        assert {id(p) for p in steady[1::2]} == {id(steady[1])} != {id(steady[0])}
        assert len(w.plans._plans) == warm and 0 < w.plans.nbytes <= PlanStore._BOUND
        # a second stream on the same weights builds none at all
        state = init_state(cfg)
        for i in range(1000):
            encode_step(mel[i : i + 1], state, w, cfg)
        assert len(built) == warm

    def test_changed_geometry_or_table_builds_a_new_plan(self, monkeypatch):
        # chunk(2, 1), one chunk per step: from the second step on every step
        # has one geometry relative to its first key, two keys on per step
        cfg = tiny_encoder_config(AttentionContext.chunked(2, 1), n_layers=1,
                                  downsampling_rate=1)
        w = init_encoder_weights(cfg, seed=5)
        mel = random_mel(20, cfg.n_mels, seed=6)
        calls = self.recording_plans(monkeypatch)

        def stream(weights):
            state, read = init_state(cfg), []
            for i in range(0, 20, 2):
                n = len(calls)
                encode_step(mel[i : i + 2], state, weights, cfg)
                read.append([plan for name, plan in calls[n:] if name == "get"])
            return read

        first = stream(w)
        assert all(len(r) == 1 for r in first)
        hits = [r[0] for r in first]
        assert hits[:2] == [None] * 2  # the first step has fewer keys: its own plan
        plan = hits[2]
        assert plan is not None and all(p is plan for p in hits[2:])  # ten keys on too
        assert len(w.plans._plans) == 2
        # a copied, edited bias table in one store gets plans of its own, gathered from it
        tensors = dict(w.tensors)
        tensors["layers.0.attn.bias"] = w.tensors["layers.0.attn.bias"].copy()
        tensors["layers.0.attn.bias"][0, 0] += 1.0
        other = EncoderWeights(tensors)
        other.plans = w.plans
        read = stream(other)
        assert read[2][0] is not None and read[2][0] is not plan
        copied = other.layer(0)["attn.bias64"]
        assert read[2][0].table is copied and plan.table is w.layer(0)["attn.bias64"]
        assert not np.array_equal(read[2][0].batches[0][2], plan.batches[0][2])
        assert len(w.plans._plans) == 4

    def test_the_store_drops_the_least_recently_used_plans_first(self):
        cfg = tiny_encoder_config(AttentionContext.zero())
        table = init_encoder_weights(cfg, seed=5).layer(0)["attn.bias64"]
        store = PlanStore()

        def plan(q):  # query q over keys 0..q: a geometry no other q has
            found = store.get(("q", q))
            if found is None:
                qpos = np.array([q])
                found = attention_plan(cfg, table, qpos, q + 1, 0,
                                       query_groups(cfg.attention, qpos, q))
                store.put(("q", q), found)
            return found

        plans = [plan(q) for q in range(4)]
        size = store.nbytes // 4
        assert store.nbytes == 4 * size  # one group of one row: the same bytes each
        assert plan(0) is plans[0]  # now the most recently used
        with mock.patch.object(PlanStore, "_BOUND", 4 * size + size // 2):
            plan(4)
            assert len(store._plans) == 4 and store.nbytes <= PlanStore._BOUND
            assert plan(1) is not plans[1]  # dropped, built again
            assert plan(0) is plans[0] and plan(3) is plans[3]
            assert plan(2) is not plans[2]
        with mock.patch.object(PlanStore, "_BOUND", 1000):
            store.put(("too", "large"), plans[0])  # larger than the bound alone
        assert ("too", "large") not in store._plans and len(store._plans) == 4

    def test_stored_plans_are_read_only(self):
        cfg = tiny_encoder_config(AttentionContext.regular(1, 4))
        w = init_encoder_weights(cfg, seed=5)
        encode_step(random_mel(40, cfg.n_mels, seed=6), init_state(cfg), w, cfg)
        arrays = [a for plan, _ in w.plans._plans.values() for batch in plan.batches
                  for a in batch if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)

    def test_final_steps_store_no_plan(self, monkeypatch):
        cfg = tiny_encoder_config(AttentionContext.regular(1, 4))
        w = init_encoder_weights(cfg, seed=5)
        built = count_plans(monkeypatch)
        calls = self.recording_plans(monkeypatch)
        encode_full(random_mel(40, cfg.n_mels, seed=6), w, cfg)  # one final step
        assert len(built) == cfg.n_layers
        assert calls == [] and len(w.plans._plans) == 0  # the store is neither read nor written

    def test_a_second_offline_pass_builds_only_its_final_steps_plans(self, monkeypatch):
        # four blocks: three stored steps and a final one per layer
        cfg = tiny_encoder_config(AttentionContext.regular(1, 4), downsampling_rate=1)
        w = init_encoder_weights(cfg, seed=5)
        mel = random_mel(3 * encoder._BLOCK_TOKENS + 5, cfg.n_mels, seed=6)
        built = count_plans(monkeypatch)
        first = encode_full(mel, w, cfg)
        n_first, stored = len(built), len(w.plans._plans)
        assert stored >= 2 * cfg.n_layers and n_first == stored + cfg.n_layers
        assert np.array_equal(encode_full(mel, w, cfg), first)
        assert len(built) == n_first + cfg.n_layers and len(w.plans._plans) == stored

    @settings(max_examples=30, deadline=None)
    @given(masks=st.lists(CONTEXTS, min_size=2, max_size=2),
           extra_past=st.integers(0, 4), extra_future=st.integers(0, 2),
           steps=st.lists(st.integers(1, 4), min_size=1, max_size=12))
    def test_every_stored_plan_a_step_reads_is_the_plan_it_would_build(
            self, masks, extra_past, extra_future, steps):
        # two masks on one set of weights share one store; every plan a step
        # reads from it equals the plan built from scratch at the step's
        # absolute positions
        future = max(m.future_span() for m in masks) + extra_future
        cfg0 = tiny_encoder_config(masks[0], downsampling_rate=1,
                                   bias_past=max(0, masks[0].past_span() - 2) + extra_past,
                                   bias_future=future)
        w = init_encoder_weights(cfg0, seed=5)
        mel = random_mel(4 * 5 * 12, cfg0.n_mels, seed=6)
        reads = []
        get = PlanStore.get

        def recording_get(store, key):
            plan = get(store, key)
            reads.append(plan)
            return plan

        layer_of = {id(w.layer(i)["attn.bias64"]): i for i in range(cfg0.n_layers)}
        with mock.patch.object(PlanStore, "get", recording_get):
            for ctx in masks + masks:
                cfg = dataclasses.replace(cfg0, attention=ctx)
                state, f0 = init_state(cfg), 0
                for n in steps:
                    before = [state.counts(i)[1] for i in range(cfg.n_layers)]
                    del reads[:]
                    encode_step(mel[f0 : f0 + n * ctx.step_tokens()], state, w, cfg)
                    f0 += n * ctx.step_tokens()
                    for plan in reads:
                        if plan is None:
                            continue
                        i = layer_of[id(plan.table)]
                        q0, (n_in, settle_to) = before[i], state.counts(i)
                        k0 = ctx.attend_interval(q0)[0]
                        qpos = np.arange(q0, settle_to)
                        fresh = attention_plan(cfg, plan.table, qpos, n_in - k0, k0,
                                               query_groups(ctx, qpos, n_in - 1))
                        assert plan.pairs == fresh.pairs
                        assert len(plan.batches) == len(fresh.batches)
                        for got, want in zip(plan.batches, fresh.batches):
                            for a, b in zip(got, want):
                                assert type(a) is type(b)
                                assert a == b if isinstance(a, slice) else np.array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(ctx=st.sampled_from([AttentionContext.zero(), AttentionContext.regular(1, 3),
                                AttentionContext.chunked(2, 1)]),
           steps=st.lists(st.integers(1, 12), min_size=1, max_size=30))
    def test_random_chunk_sizes_never_take_the_store_past_its_bound(self, ctx, steps):
        cfg = tiny_encoder_config(ctx, downsampling_rate=1)
        w = init_encoder_weights(cfg, seed=5)
        mel = random_mel(12 * 30 * 2, cfg.n_mels, seed=6)
        unit = ctx.step_tokens()
        with mock.patch.object(PlanStore, "_BOUND", 40_000):
            for _ in range(2):
                state, f0 = init_state(cfg), 0
                for n in steps:
                    encode_step(mel[f0 : f0 + n * unit], state, w, cfg)
                    f0 += n * unit
                    assert w.plans.nbytes <= 40_000
                    assert w.plans.nbytes == sum(size for _, size in w.plans._plans.values())
