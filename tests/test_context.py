import numpy as np
import pytest

from streamasr import (
    AttentionContext,
    LatencyModel,
    effective_lookahead,
    feasible_regular_latencies,
    latency_ms,
    receptive_field_frames,
    receptive_field_tokens,
)
from streamasr.errors import ArgumentError, ConfigError

from helpers import build_mask


class TestBuildMask:
    def test_zero_is_lower_triangular(self):
        mask = build_mask(AttentionContext.zero(), 3)
        assert np.array_equal(mask, np.tril(np.ones((3, 3), bool)))

    def test_chunk_membership(self):
        mask = build_mask(AttentionContext.chunked(3, 1), 6)
        assert set(np.where(mask[4])[0]) == {0, 1, 2, 3, 4, 5}
        assert set(np.where(mask[2])[0]) == {0, 1, 2}

    def test_regular_interval(self):
        mask = build_mask(AttentionContext.regular(1, 2), 5)
        assert set(np.where(mask[2])[0]) == {0, 1, 2, 3}

    def test_zero_with_left_context_floor(self):
        mask = build_mask(AttentionContext.zero(left_context=1), 4)
        assert set(np.where(mask[3])[0]) == {2, 3}

    @pytest.mark.parametrize(
        "ctx",
        [
            AttentionContext.zero(),
            AttentionContext.zero(left_context=2),
            AttentionContext.regular(2, 3),
            AttentionContext.chunked(3, 1),
            AttentionContext.chunked(4, 0),
        ],
    )
    def test_offset_consistency(self, ctx):
        # per-chunk masks with query_offset equal the whole-utterance rows
        total = 12
        whole = build_mask(ctx, total)
        for off in range(0, total, 4):
            t = min(4, total - off)
            part = build_mask(ctx, t, query_offset=off)
            assert np.array_equal(part, whole[off : off + t, : off + t])

    def test_chunk_never_attends_future_chunks(self):
        for c in (1, 2, 3, 5):
            for lc in (0, 1, 2):
                mask = build_mask(AttentionContext.chunked(c, lc), 64)
                for q in range(64):
                    allowed = np.where(mask[q])[0]
                    assert all(j // c <= q // c for j in allowed)

    def test_chunk_lookahead_spans_full_range(self):
        # per-token look-ahead inside a chunk takes each value 0..C-1 once,
        # so the mean is (C-1)/2
        c = 5
        ctx = AttentionContext.chunked(c, 0)
        mask = build_mask(ctx, 2 * c)
        lookaheads = sorted(
            int(np.where(mask[q])[0].max()) - q for q in range(c, 2 * c)
        )
        assert lookaheads == list(range(c))
        assert sum(lookaheads) / c == (c - 1) / 2


class TestEffectiveLookahead:
    def test_regular_multiplies_by_depth(self):
        assert effective_lookahead(AttentionContext.regular(2, 10), 17) == 34

    def test_zero(self):
        assert effective_lookahead(AttentionContext.zero(), 5) == 0

    def test_chunk_independent_of_depth(self):
        ctx = AttentionContext.chunked(3, 1)
        assert effective_lookahead(ctx, 17) == 2
        assert effective_lookahead(ctx, 1) == 2


class TestLatency:
    def test_regular_1360ms_at_dr4(self):
        lm = LatencyModel(frame_shift_ms=10, downsampling_rate=4, n_layers=17)
        lb = latency_ms(AttentionContext.regular(2, 10), lm)
        assert lb.max_ms == 1360.0

    def test_regular_1360ms_at_dr8(self):
        lm = LatencyModel(frame_shift_ms=10, downsampling_rate=8, n_layers=17)
        lb = latency_ms(AttentionContext.regular(1, 10), lm)
        assert lb.max_ms == 1360.0

    @pytest.mark.parametrize("c,avg", [(2, 40.0), (14, 520.0)])
    def test_chunk_latency_dr8(self, c, avg):
        lm = LatencyModel(frame_shift_ms=10, downsampling_rate=8, n_layers=17)
        lb = latency_ms(AttentionContext.chunked(c, 1), lm)
        assert lb.max_ms == (c - 1) * 80.0
        assert lb.avg_ms == avg

    def test_zero_latency(self):
        lm = LatencyModel(frame_shift_ms=10, downsampling_rate=8, n_layers=17)
        lb = latency_ms(AttentionContext.zero(), lm)
        assert lb.max_ms == 0.0 and lb.avg_ms == 0.0


class TestFeasibleRegularLatencies:
    def test_granularity_gap_at_17_layers(self):
        lm = LatencyModel(frame_shift_ms=10, downsampling_rate=8, n_layers=17)
        assert feasible_regular_latencies(lm, 1) == [0.0, 1360.0]

    def test_single_layer_hits_every_token_multiple(self):
        lm = LatencyModel(frame_shift_ms=10, downsampling_rate=4, n_layers=1)
        assert feasible_regular_latencies(lm, 3) == [0.0, 40.0, 80.0, 120.0]

    def test_240ms_not_feasible(self):
        lm = LatencyModel(frame_shift_ms=10, downsampling_rate=8, n_layers=17)
        assert 240.0 not in feasible_regular_latencies(lm, 8)


def test_context_validation():
    with pytest.raises(ConfigError):
        AttentionContext.chunked(0, 1)
    with pytest.raises(ConfigError):
        AttentionContext.regular(-1, 4)
    with pytest.raises(ConfigError):
        AttentionContext.regular(1, -2)
    with pytest.raises(ConfigError):
        AttentionContext("sliding")
    with pytest.raises(ConfigError):
        LatencyModel(frame_shift_ms=0, downsampling_rate=4, n_layers=2)


@pytest.mark.parametrize("shift", [float("nan"), float("inf"), -float("inf")])
def test_latency_model_frame_shift_must_be_finite(shift):
    with pytest.raises(ConfigError):
        LatencyModel(frame_shift_ms=shift, downsampling_rate=4, n_layers=2)


@pytest.mark.parametrize("make", [
    lambda: AttentionContext.chunked(1.5, 1),
    lambda: AttentionContext.chunked(4, 1.0),
    lambda: AttentionContext.chunked(True, 1),
    lambda: AttentionContext.regular(True, 2),
    lambda: AttentionContext.regular(1, 4.0),
    lambda: AttentionContext.zero(left_context=False),
    lambda: AttentionContext("chunk", chunk="4"),
    lambda: AttentionContext("regular", m=None, left_context=4),
], ids=["chunk-float", "left_chunks-float", "chunk-bool", "m-bool", "left_context-float",
        "zero-left_context-bool", "chunk-str", "m-none"])
def test_context_sizes_must_be_integers(make):
    with pytest.raises(ConfigError):
        make()


def test_context_sizes_are_stored_as_ints():
    ctx = AttentionContext.chunked(np.int64(4), np.int32(2))
    assert (type(ctx.chunk), type(ctx.left_chunks)) == (int, int)
    assert ctx == AttentionContext.chunked(4, 2)


class TestLatencyArguments:
    """The latency arithmetic refuses what it cannot mean with ArgumentError
    (ConfigError where a count below one was one before): integer counts of
    at least one, 0 <= pos < total, a context and a LatencyModel."""

    CTX = AttentionContext.regular(1, 16)
    LM = LatencyModel(frame_shift_ms=10, downsampling_rate=4, n_layers=4)

    @pytest.mark.parametrize("args", [
        (-1, 9, 5, 100), (0, 9, 5, 100), (4, 0, 5, 100), (4, 9, 500, 100), (4, 9, 100, 100),
        (4, 9, -1, 100), (4, 9, 0, 0), (None, 9, 5, 100), (2.5, 9, 5, 100),
        (True, 9, 5, 100), (4, None, 5, 100), (4, 9, None, 100), (4, 9, "5", 100),
        (4, 9, 5, None), (4, 9, 5.0, 100),
    ], ids=["layers-minus-one", "layers-zero", "kernel-zero", "pos-past-end", "pos-at-end",
            "pos-negative", "total-zero", "layers-none", "layers-float", "layers-bool",
            "kernel-none", "pos-none", "pos-str", "total-none", "pos-float"])
    def test_receptive_field_tokens(self, args):
        with pytest.raises(ArgumentError):
            receptive_field_tokens(self.CTX, *args)

    @pytest.mark.parametrize("args", [
        (4, 9, 0, 5, 100, 400), (4, 9, -4, 5, 100, 400), (4, 9, None, 5, 100, 400),
        (4, 9, 4.0, 5, 100, 400), (4, 9, 4, 5, 100, 0), (4, 9, 4, 5, 100, None),
        (4, 9, 4, 100, 100, 400), (None, 9, 4, 5, 100, 400),
    ], ids=["rate-zero", "rate-negative", "rate-none", "rate-float", "frames-zero",
            "frames-none", "pos-at-end", "layers-none"])
    def test_receptive_field_frames(self, args):
        with pytest.raises(ArgumentError):
            receptive_field_frames(self.CTX, *args)

    @pytest.mark.parametrize("ctx, n_layers", [
        (CTX, 2.5), (CTX, True), (CTX, None), (CTX, "4"), (None, 4), ("regular", 4),
    ], ids=["float", "bool", "none", "str", "ctx-none", "ctx-str"])
    def test_effective_lookahead(self, ctx, n_layers):
        with pytest.raises(ArgumentError):
            effective_lookahead(ctx, n_layers)

    @pytest.mark.parametrize("lm, m_max", [(LM, None), (LM, 2.0), (LM, False), (None, 3)],
                             ids=["none", "float", "bool", "lm-none"])
    def test_feasible_regular_latencies(self, lm, m_max):
        with pytest.raises(ArgumentError):
            feasible_regular_latencies(lm, m_max)

    @pytest.mark.parametrize("ctx, lm", [(CTX, None), (CTX, 4), (None, LM)],
                             ids=["lm-none", "lm-int", "ctx-none"])
    def test_latency_ms(self, ctx, lm):
        with pytest.raises(ArgumentError):
            latency_ms(ctx, lm)

    def test_counts_below_one_stay_config_error(self):
        with pytest.raises(ConfigError):
            effective_lookahead(self.CTX, 0)
        with pytest.raises(ConfigError):
            feasible_regular_latencies(self.LM, -1)

    def test_numpy_integers_equal_python_ones(self):
        assert receptive_field_tokens(self.CTX, np.int64(4), np.int32(9), np.int64(5),
                                      np.int64(100)) == receptive_field_tokens(self.CTX, 4, 9,
                                                                               5, 100)
        assert effective_lookahead(self.CTX, np.int64(4)) == effective_lookahead(self.CTX, 4)
