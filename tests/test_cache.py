import json
import struct

import numpy as np
import pytest

from streamasr import (
    AttentionContext,
    StreamState,
    attn_keep_rows,
    cache_append,
    depthwise_conv1d_causal,
    encode_step,
    init_state,
    rnnt_greedy_decode,
    rnnt_init_state,
)
from streamasr.container import load_container, save_container
from streamasr.errors import FormatError, StateError

from helpers import init_encoder_weights, random_head, random_mel, tiny_encoder_config


class TestConvCache:
    def test_fig_walkthrough(self):
        # cache [g_{k-2}, g_{k-1}], chunk [g_k, g_{k+1}, g_{k+2}] -> new cache is
        # the last two entries of the joined window
        cache = np.array([[-2.0], [-1.0]], np.float32)
        chunk = np.array([[0.0], [1.0], [2.0]], np.float32)
        window, new_cache = cache_append(cache, chunk, 2)
        assert np.array_equal(window.ravel(), [-2, -1, 0, 1, 2])
        assert np.array_equal(new_cache.ravel(), [1, 2])

    def test_short_chunk_retains_old_entries(self):
        cache = np.array([[1.0], [2.0], [3.0]], np.float32)
        chunk = np.array([[4.0]], np.float32)
        _, new_cache = cache_append(cache, chunk, 3)
        assert np.array_equal(new_cache.ravel(), [2, 3, 4])

    def test_cached_conv_equals_full_history(self):
        rng = np.random.default_rng(0)
        d, k, t = 4, 3, 20
        x = rng.standard_normal((t, d)).astype(np.float32)
        w = rng.standard_normal((d, k)).astype(np.float32)
        full = depthwise_conv1d_causal(x, w)
        cache = np.zeros((k - 1, d), np.float32)
        outs = []
        for lo in range(0, t, 5):
            window, cache = cache_append(cache, x[lo : lo + 5], k - 1)
            outs.append(depthwise_conv1d_causal(x[lo : lo + 5], w, history=window[: k - 1]))
        assert np.array_equal(np.concatenate(outs), full)

    def test_width_guard(self):
        # a conv cache that is not kernel-1 rows wide never reaches cache_append
        cfg = tiny_encoder_config(AttentionContext.chunked(2, 1), conv_kernel=4)
        w = init_encoder_weights(cfg, seed=3)
        state = init_state(cfg)
        state.layers[1].conv = state.layers[1].conv[1:]
        with pytest.raises(StateError):
            encode_step(random_mel(8, cfg.n_mels, seed=4), state, w, cfg)


class TestAttnCache:
    def test_fig_walkthrough_drop_two_oldest(self):
        cache = np.array([[-3.0], [-2.0], [-1.0]], np.float32)
        new = np.array([[0.0], [1.0], [2.0]], np.float32)
        n_keep = attn_keep_rows(AttentionContext.zero(left_context=4), n_in=6, n_out=6)
        window, out = cache_append(cache, new, n_keep)
        assert np.array_equal(window.ravel(), [-3, -2, -1, 0, 1, 2])
        assert np.array_equal(out.ravel(), [-1, 0, 1, 2])

    def test_first_step_from_empty(self):
        n_keep = attn_keep_rows(AttentionContext.zero(left_context=4), n_in=2, n_out=2)
        _, out = cache_append(np.zeros((0, 1), np.float32),
                              np.array([[5.0], [6.0]], np.float32), n_keep)
        assert np.array_equal(out.ravel(), [5, 6])

    def test_zero_left_context_stays_empty(self):
        n_keep = attn_keep_rows(AttentionContext.zero(left_context=0), n_in=1, n_out=1)
        _, out = cache_append(np.zeros((0, 1), np.float32),
                              np.array([[5.0]], np.float32), n_keep)
        assert out.shape[0] == 0

    def test_unlimited_grows(self):
        ctx = AttentionContext.zero()
        cache = np.zeros((0, 1), np.float32)
        for i in range(5):
            n_keep = attn_keep_rows(ctx, n_in=2 * (i + 1), n_out=2 * (i + 1))
            _, cache = cache_append(cache, np.full((2, 1), i, np.float32), n_keep)
        assert cache.shape[0] == 10

    def test_width_guard(self):
        with pytest.raises(StateError):
            cache_append(np.zeros((1, 2), np.float32), np.zeros((1, 2), np.float32), 3)

    def test_kept_rows_do_not_pin_the_window(self):
        window, kept = cache_append(np.ones((3, 2), np.float32), np.ones((5, 2), np.float32), 2)
        assert kept.base is None and not np.shares_memory(window, kept)


def _layer_widths(state: StreamState) -> list[tuple[int, int, int]]:
    return [(lc.attn.shape[0], lc.pending.shape[0], lc.conv.shape[0]) for lc in state.layers]


class TestCacheWidthLaws:
    @pytest.mark.parametrize("chunk,left_chunks,kernel", [(2, 1, 3), (3, 2, 5), (4, 0, 3)])
    def test_thousand_step_simulation(self, chunk, left_chunks, kernel):
        ctx = AttentionContext.chunked(chunk, left_chunks)
        lc_bound = left_chunks * chunk
        attn = np.zeros((0, 2), np.float32)
        conv = np.zeros((kernel - 1, 2), np.float32)
        for i in range(1, 1001):
            step = np.ones((chunk, 2), np.float32)
            n = i * chunk  # a chunk step settles every input it brings
            _, attn = cache_append(attn, step, attn_keep_rows(ctx, n, n))
            _, conv = cache_append(conv, step, kernel - 1)
            assert conv.shape[0] == kernel - 1
            assert attn.shape[0] == min(lc_bound, i * chunk)

    def test_stream_state_memory_matches_closed_form(self):
        ctx = AttentionContext.chunked(3, 2)
        cfg = tiny_encoder_config(ctx, n_layers=3, conv_kernel=5, downsampling_rate=2)
        w = init_encoder_weights(cfg, seed=1)
        state = init_state(cfg)
        mel = random_mel(120, cfg.n_mels, seed=2)
        step = ctx.chunk * cfg.downsampling_rate
        for i in range(0, 120, step):
            encode_step(mel[i : i + step], state, w, cfg)
            n_chunks = (i + step) // step
            l_c = min(ctx.left_chunks * ctx.chunk, n_chunks * ctx.chunk)
            d, k, n = cfg.d_model, cfg.conv_kernel, cfg.n_layers
            expected = (
                n * d * (k - 1)
                + n * l_c * 2 * d  # projected K|V rows
                + sum(cfg.ds_carry_widths)  # one carried row per downsampler stage
            )
            assert state.float_count() == expected
            assert _layer_widths(state) == [(l_c, 0, k - 1)] * n

        # regular look-ahead: each layer also keeps its unsettled (speculative)
        # rows, each post-FFN1 row beside its query
        ctx = AttentionContext.regular(2, 3)
        cfg = tiny_encoder_config(ctx, n_layers=3, conv_kernel=5, downsampling_rate=2)
        w = init_encoder_weights(cfg, seed=1)
        state = init_state(cfg)
        step = cfg.downsampling_rate  # one token per step
        d, k, lcx = cfg.d_model, cfg.conv_kernel, ctx.left_context
        for t in range(1, 120 // step + 1):
            encode_step(mel[(t - 1) * step : t * step], state, w, cfg)
            # layer l has seen t - l*m inputs and settled m fewer
            n_in = [max(0, t - layer * ctx.m) for layer in range(cfg.n_layers)]
            n_out = [max(0, n - ctx.m) for n in n_in]
            assert [(lc.n_in, lc.n_out) for lc in state.layers] == list(zip(n_in, n_out))
            widths = [(min(lcx, o) + i - o, i - o, k - 1) for i, o in zip(n_in, n_out)]
            assert _layer_widths(state) == widths
            assert state.float_count() == (
                d * sum(2 * a + 2 * p + c for a, p, c in widths) + sum(cfg.ds_carry_widths)
            )
        encode_step(mel[:0], state, w, cfg, final=True)
        assert _layer_widths(state) == [(lcx, 0, k - 1)] * cfg.n_layers


ROUNDTRIP_CASES = {
    "chunk": (AttentionContext.chunked(2, 1), False),
    "regular_pending": (AttentionContext.regular(1, 3), False),
    "rnnt_states": (AttentionContext.chunked(2, 1), True),
}


class TestStreamStateSerialization:
    @pytest.mark.parametrize("case", list(ROUNDTRIP_CASES))
    def test_bit_exact_roundtrip_and_resume(self, case, tmp_path):
        ctx, with_rnnt = ROUNDTRIP_CASES[case]
        cfg = tiny_encoder_config(ctx)
        w = init_encoder_weights(cfg, seed=3)
        _, head = random_head(seed=5, d_model=cfg.d_model)
        mel = random_mel(64, cfg.n_mels, seed=4)
        step = ctx.step_tokens() * cfg.downsampling_rate

        def run(state, lo, hi):
            outs, toks = [], []
            for i in range(lo, hi, step):
                o, _ = encode_step(mel[i : i + step], state, w, cfg)
                outs.append(o)
                if with_rnnt:
                    t, state.rnnt_states = rnnt_greedy_decode(o, head, state.rnnt_states)
                    toks += t
            return np.concatenate(outs), toks

        state = init_state(cfg)
        if with_rnnt:
            state.rnnt_states = rnnt_init_state(head)
        run(state, 0, 32)
        if ctx.settle_delay() > 0:
            assert all(lc.pending.shape[0] > 0 for lc in state.layers)
        if with_rnnt:
            assert any(np.any(h != 0) for h in state.rnnt_states)
        path = str(tmp_path / "state.bin")
        state.save(path)
        resumed = StreamState.load(path)

        # saved state re-serializes to identical bytes
        path2 = str(tmp_path / "state2.bin")
        resumed.save(path2)
        assert open(path, "rb").read() == open(path2, "rb").read()

        ref_out, ref_toks = run(state, 32, 64)
        got_out, got_toks = run(resumed, 32, 64)
        assert np.array_equal(got_out, ref_out)
        assert got_toks == ref_toks
        for a, b in zip(resumed.rnnt_states, state.rnnt_states, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mutate", [
        lambda h, t: h.pop("n_layers"),
        lambda h, t: h.pop("counters"),
        lambda h, t: h.pop("mel_seen"),
        lambda h, t: h.pop("finished"),
        lambda h, t: h.pop("n_rnnt"),
        lambda h, t: h.pop("n_ds_carry"),
        lambda h, t: h.update(n_layers="2"),
        lambda h, t: h.update(n_layers=-1),
        lambda h, t: h.update(tokens_in=1.5),
        lambda h, t: h.update(tokens_emitted=True),
        lambda h, t: h.update(finished=0),
        lambda h, t: h.update(counters=5),
        lambda h, t: h.update(counters=[4, 4]),
        lambda h, t: h.update(counters=[[4, 4, 4], [4, 4]]),
        lambda h, t: h.update(counters=[[4, 4]]),
        lambda h, t: h.update(counters=[["4", 4], [4, 4]]),
        lambda h, t: h.update(counters=[[4, None], [4, 4]]),
        lambda h, t: t.pop("layer0.attn"),
        lambda h, t: t.pop("layer1.pending"),
        lambda h, t: t.pop("ds_carry1"),
        lambda h, t: t.pop("rnnt0"),
    ], ids=["no-n_layers", "no-counters", "no-mel_seen", "no-finished", "no-n_rnnt",
            "no-n_ds_carry",
            "str-n_layers", "negative-n_layers", "float-tokens_in", "bool-tokens_emitted",
            "int-finished", "int-counters", "flat-counters", "triple-counter",
            "short-counters", "str-counter", "null-counter", "no-layer0.attn",
            "no-layer1.pending", "no-ds_carry1", "no-rnnt0"])
    def test_malformed_file_is_state_error(self, mutate, tmp_path):
        cfg = tiny_encoder_config(AttentionContext.chunked(2, 1))
        _, head = random_head(seed=5, d_model=cfg.d_model)
        state = init_state(cfg)
        state.rnnt_states = rnnt_init_state(head)
        path = str(tmp_path / "state.bin")
        state.save(path)
        # a well-formed container whose header or tensors the state cannot use
        header, tensors = load_container(path)
        mutate(header, tensors)
        save_container(path, header, list(tensors.items()))
        with pytest.raises(StateError):
            StreamState.load(path)

    @pytest.mark.parametrize("mutate", [
        lambda st: setattr(st.layers[0], "attn", np.zeros((st.layers[0].attn.shape[0], 5),
                                                          np.float32)),
        lambda st: setattr(st.layers[1], "pending", np.zeros((2, 17), np.float32)),
        lambda st: setattr(st.layers[1], "pending", np.zeros(16, np.float32)),
        lambda st: setattr(st.layers[1], "pending", st.layers[1].pending[:, :16].copy()),
        lambda st: setattr(st.layers[0], "conv", np.zeros((3, 16), np.float32)),
        lambda st: setattr(st.layers[1], "conv", np.zeros((2, 8), np.float32)),
        lambda st: st.ds_carry.__setitem__(0, np.zeros((1, 9), np.float32)),
        lambda st: st.ds_carry.__setitem__(1, np.zeros((2, 16), np.float32)),
        lambda st: st.ds_carry.__setitem__(1, np.zeros((0, 16), np.float32)),
        lambda st: st.ds_carry.pop(),
        lambda st: st.layers.pop(),
        lambda st: setattr(st.layers[0], "attn", st.layers[0].attn.astype(np.int64)),
        lambda st: setattr(st.layers[1], "pending", st.layers[1].pending.astype(np.float64)),
    ], ids=["attn-columns", "pending-columns", "pending-1d", "pending-without-query",
            "conv-rows", "conv-columns", "ds_carry0-columns", "ds_carry1-two-rows",
            "ds_carry1-no-row", "ds_carry-one-stage-short", "layer-count", "attn-int64",
            "pending-float64"])
    def test_tensors_that_do_not_fit_the_encoder_are_state_error(self, mutate, tmp_path):
        cfg = tiny_encoder_config(AttentionContext.regular(1, 3))
        w = init_encoder_weights(cfg, seed=3)
        mel = random_mel(32, cfg.n_mels, seed=4)
        state = init_state(cfg)
        for i in range(0, 16, 4):
            encode_step(mel[i : i + 4], state, w, cfg)
        mutate(state)
        path = str(tmp_path / "state.bin")
        tensors = [*state.ds_carry, *(a for lc in state.layers for a in (lc.attn, lc.conv,
                                                                         lc.pending))]
        if all(a.dtype == np.float32 for a in tensors):
            state.save(path)
            state = StreamState.load(path)
        else:  # attn-int64, pending-float64: files hold float32 only
            with pytest.raises(FormatError):
                state.save(path)
        with pytest.raises(StateError):
            encode_step(mel[16:20], state, w, cfg)


def _rewrite_header(path: str, mutate) -> None:
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    mutate(header)
    hjson = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(raw[:8] + struct.pack("<I", len(hjson)) + hjson + raw[12 + hlen :])


def test_version_one_state_file_is_state_error(tmp_path):
    # version 1 cached attention inputs, d wide; version 2 caches K|V rows, 2d wide
    cfg = tiny_encoder_config(AttentionContext.chunked(2, 1))
    state = init_state(cfg)
    state.layers[0].attn = np.zeros((0, cfg.d_model), np.float32)
    path = str(tmp_path / "state.bin")
    state.save(path)
    _rewrite_header(path, lambda h: h.update(version=1))
    with pytest.raises(StateError, match="version 1"):
        StreamState.load(path)


def test_version_two_state_file_is_state_error(tmp_path):
    # version 2 cached d-wide pending rows without their queries, and
    # 2*log2(rate)+1 mel frames for the downsampler
    cfg = tiny_encoder_config(AttentionContext.regular(1, 3))
    w = init_encoder_weights(cfg, seed=3)
    state = init_state(cfg)
    encode_step(random_mel(8, cfg.n_mels, seed=4), state, w, cfg)
    for lc in state.layers:
        lc.pending = lc.pending[:, : cfg.d_model].copy()
    path = str(tmp_path / "state.bin")
    state.save(path)
    _rewrite_header(path, lambda h: h.update(version=2))
    with pytest.raises(StateError, match="version 2"):
        StreamState.load(path)


@pytest.mark.parametrize("pick", [
    lambda st: st.layers[0].attn, lambda st: st.layers[1].conv, lambda st: st.ds_carry[0],
], ids=["layer0.attn", "layer1.conv", "ds_carry0"])
def test_non_finite_state_tensor_is_state_error(pick, tmp_path):
    cfg = tiny_encoder_config(AttentionContext.chunked(2, 1))
    w = init_encoder_weights(cfg, seed=3)
    state = init_state(cfg)
    encode_step(random_mel(8, cfg.n_mels, seed=4), state, w, cfg)
    pick(state)[0, 0] = -np.inf
    path = str(tmp_path / "state.bin")
    state.save(path)
    with pytest.raises(StateError, match="NaN or infinity"):
        StreamState.load(path)


def _bump(field: str, by: int, layer: int | None = None):
    def mutate(st):
        owner = st if layer is None else st.layers[layer]
        setattr(owner, field, getattr(owner, field) + by)
    return mutate


def _extra_row(field: str, layer: int):
    def mutate(st):
        arr = getattr(st.layers[layer], field)
        setattr(st.layers[layer], field,
                np.concatenate([arr, np.zeros((1, arr.shape[1]), np.float32)]))
    return mutate


COUNTER_MUTATIONS = {
    "n_in+5": _bump("n_in", 5, layer=0),
    "last-n_in+5": _bump("n_in", 5, layer=-1),
    "n_out+1": _bump("n_out", 1, layer=0),
    "n_out-past-n_in": lambda st: setattr(st.layers[1], "n_out", st.layers[1].n_in + 1),
    "mel_seen+1": _bump("mel_seen", 1),
    "tokens_in+1": _bump("tokens_in", 1),
    "tokens_emitted+2": _bump("tokens_emitted", 2),
    "attn-extra-row": _extra_row("attn", 1),
    "pending-extra-row": _extra_row("pending", 0),
}


@pytest.mark.parametrize("mutation", list(COUNTER_MUTATIONS))
@pytest.mark.parametrize("ctx", [AttentionContext.chunked(2, 1), AttentionContext.regular(1, 3)],
                         ids=["chunk", "regular"])
def test_counters_that_disagree_are_state_error(ctx, mutation, tmp_path):
    # each mutation leaves every tensor shape plausible on its own; only the
    # counters, read against each other and the cached rows, expose it
    cfg = tiny_encoder_config(ctx)
    w = init_encoder_weights(cfg, seed=3)
    mel = random_mel(32, cfg.n_mels, seed=4)
    step = ctx.step_tokens() * cfg.downsampling_rate
    state = init_state(cfg)
    for i in range(0, 16, step):
        encode_step(mel[i : i + step], state, w, cfg)
    path = str(tmp_path / "state.bin")
    state.save(path)
    encode_step(mel[16 : 16 + step], StreamState.load(path), w, cfg)  # the saved state resumes
    COUNTER_MUTATIONS[mutation](state)
    state.save(path)
    with pytest.raises(StateError):
        encode_step(mel[16 : 16 + step], StreamState.load(path), w, cfg)
