import collections
import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamasr import (
    AttentionContext,
    ComputeLedger,
    EncoderWeights,
    StreamState,
    attn_keep_rows,
    cache_append,
    encode_step,
    init_state,
)
from streamasr.encoder import state_spec
from streamasr.errors import StateError
from streamasr.numerics import depthwise_conv1d_causal

from helpers import init_encoder_weights, random_mel, tiny_encoder_config


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
        bias = np.zeros(d, np.float32)
        full = depthwise_conv1d_causal(x, w, bias, np.zeros((k - 1, d), np.float32))
        cache = np.zeros((k - 1, d), np.float32)
        outs = []
        for lo in range(0, t, 5):
            window, cache = cache_append(cache, x[lo : lo + 5], k - 1)
            outs.append(depthwise_conv1d_causal(x[lo : lo + 5], w, bias, window[: k - 1]))
        assert np.array_equal(np.concatenate(outs), full)

    def test_width_guard(self):
        # a conv cache that is not kernel-1 rows wide never reaches cache_append
        cfg = tiny_encoder_config(AttentionContext.chunked(2, 1), conv_kernel=4)
        w = init_encoder_weights(cfg, seed=3)
        state = init_state(cfg)
        state.tensors["layers.1.conv"] = state.tensors["layers.1.conv"][1:]
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

    @pytest.mark.parametrize("n_keep", [0, 2, 5])
    def test_an_empty_cache_windows_the_new_rows_themselves(self, n_keep):
        # no concatenate on a first step; the kept rows are still a copy
        new = np.arange(10, dtype=np.float32).reshape(5, 2)
        window, kept = cache_append(np.zeros((0, 2), np.float32), new, n_keep)
        assert window is new
        assert np.array_equal(kept, new[5 - n_keep :]) and not np.shares_memory(kept, new)


def _layer_widths(state: StreamState) -> list[tuple[int, int]]:
    n_layers = sum(name.endswith(".rows") for name in state.tensors)
    return [(state.tensors[f"layers.{i}.rows"].shape[0], state.tensors[f"layers.{i}.conv"].shape[0])
            for i in range(n_layers)]


def _carry_widths(cfg) -> int:
    """The floats of the carried downsampler rows: a mel frame, then stage outputs."""
    return cfg.n_mels + cfg.d_model * (cfg.n_stages - 1) if cfg.n_stages else 0


class TestCacheWidthLaws:
    @pytest.mark.parametrize("chunk,left_chunks,kernel", [(2, 1, 3), (3, 2, 5), (4, 0, 3)])
    def test_thousand_step_simulation(self, chunk, left_chunks, kernel):
        ctx = AttentionContext.chunked(chunk, left_chunks)
        lc_bound = left_chunks * chunk
        rows = np.zeros((0, 2), np.float32)
        conv = np.zeros((kernel - 1, 2), np.float32)
        for i in range(1, 1001):
            step = np.ones((chunk, 2), np.float32)
            n = i * chunk  # a chunk step settles every input it brings
            _, rows = cache_append(rows, step, attn_keep_rows(ctx, n, n))
            _, conv = cache_append(conv, step, kernel - 1)
            assert conv.shape[0] == kernel - 1
            assert rows.shape[0] == min(lc_bound, i * chunk)

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
                + n * l_c * 4 * d  # x1|q|k|v rows
                + _carry_widths(cfg)  # one carried row per downsampler stage
            )
            assert state.float_count() == expected
            assert _layer_widths(state) == [(l_c, k - 1)] * n

        # regular look-ahead: each layer also keeps the rows of its unsettled
        # outputs
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
            assert state.tokens_in == t
            assert [state.counts(i) for i in range(cfg.n_layers)] == list(zip(n_in, n_out))
            widths = [(min(lcx, o) + i - o, k - 1) for i, o in zip(n_in, n_out)]
            assert _layer_widths(state) == widths
            assert state.float_count() == (
                d * sum(4 * r + c for r, c in widths) + _carry_widths(cfg)
            )
        encode_step(mel[:0], state, w, cfg, final=True)
        assert _layer_widths(state) == [(lcx, k - 1)] * cfg.n_layers


def _set(name: str, edit):
    """Replace the state's tensor `name` by edit(tensor)."""
    return lambda st: st.tensors.__setitem__(name, edit(st.tensors[name]))


def _drop(prefix: str):
    """Remove every state tensor whose name starts with `prefix`."""
    def mutate(st):
        for name in [n for n in st.tensors if n.startswith(prefix)]:
            del st.tensors[name]
    return mutate


@pytest.mark.parametrize("mutate", [
    _set("layers.0.rows", lambda a: np.zeros((a.shape[0], 5), np.float32)),
    _set("layers.1.rows", lambda a: np.zeros((2, 17), np.float32)),
    _set("layers.1.rows", lambda a: np.zeros(64, np.float32)),
    _set("layers.1.rows", lambda a: a[:, 32:].copy()),
    _set("layers.0.conv", lambda a: np.zeros((3, 16), np.float32)),
    _set("layers.1.conv", lambda a: np.zeros((2, 8), np.float32)),
    _set("ds.carry0", lambda a: np.zeros((1, 9), np.float32)),
    _set("ds.carry1", lambda a: np.zeros((2, 16), np.float32)),
    _set("ds.carry1", lambda a: np.zeros((0, 16), np.float32)),
    _drop("ds.carry1"),
    _drop("layers.1."),
    _set("layers.0.rows", lambda a: a.astype(np.int64)),
    _set("layers.1.rows", lambda a: a.astype(np.float64)),
    _drop("layers."),
    lambda st: st.tensors.update({f"layers.2.{f}": st.tensors[f"layers.1.{f}"].copy()
                                  for f in ("rows", "conv")}),
    _drop("ds."),
    _set("layers.0.conv", lambda a: a.astype(np.float64)),
    _set("ds.carry1", lambda a: a.astype(np.int32)),
], ids=["rows-columns", "rows-shape", "rows-1d", "rows-kv-only",
        "conv-rows", "conv-columns", "ds_carry0-columns", "ds_carry1-two-rows",
        "ds_carry1-no-row", "ds_carry-one-stage-short", "layer-count", "rows-int64",
        "rows-float64", "no-layers", "extra-layer", "no-ds_carry", "conv-float64",
        "ds_carry1-int32"])
def test_tensors_that_do_not_fit_the_encoder_are_state_error(mutate):
    cfg = tiny_encoder_config(AttentionContext.regular(1, 3))
    w = init_encoder_weights(cfg, seed=3)
    mel = random_mel(32, cfg.n_mels, seed=4)
    state = init_state(cfg)
    for i in range(0, 16, 4):
        encode_step(mel[i : i + 4], state, w, cfg)
    mutate(state)
    with pytest.raises(StateError):
        encode_step(mel[16:20], state, w, cfg)


@pytest.mark.parametrize("mutate", [
    lambda st: st.tensors.__setitem__("layers.0.junk", np.zeros((1, 4), np.float32)),
    lambda st: st.tensors.__setitem__("ds.carry2", np.zeros((1, 16), np.float32)),
    lambda st: setattr(st, "tensors", list(st.tensors.values())),
    lambda st: setattr(st, "tensors", None),
    lambda st: setattr(st, "tensors", tuple(st.tensors.items())),
], ids=["layers.0.junk", "ds.carry2-past-the-stages", "list", "none", "tuple-of-items"])
def test_a_tensor_the_spec_does_not_name_or_no_dict_is_state_error(mutate):
    # the state holds exactly the spec's names, in a dict
    cfg = tiny_encoder_config(AttentionContext.regular(1, 3))
    w = init_encoder_weights(cfg, seed=3)
    mel = random_mel(20, cfg.n_mels, seed=4)
    state = init_state(cfg)
    for i in range(0, 16, 4):
        encode_step(mel[i : i + 4], state, w, cfg)
    encode_step(mel[16:20], copy.deepcopy(state), w, cfg)  # an unedited copy resumes
    mutate(state)
    with pytest.raises(StateError):
        encode_step(mel[16:20], state, w, cfg)


def test_stream_state_holds_each_fact_once():
    # per layer its rows and conv inputs, and no derived attention plan (the
    # model's weights keep those); one stream counter, no layer counter, and
    # no decoder state
    assert [f.name for f in dataclasses.fields(StreamState)] == [
        "tensors", "settle_delay", "tokens_in", "finished"]
    cfg = tiny_encoder_config(AttentionContext.regular(1, 3))
    w = init_encoder_weights(cfg, seed=3)
    state = init_state(cfg)
    encode_step(random_mel(16, cfg.n_mels, seed=4), state, w, cfg)
    assert list(state.tensors) == [f"ds.carry{s}" for s in range(cfg.n_stages)] + [
        f"layers.{i}.{f}" for i in range(cfg.n_layers) for f in ("rows", "conv")]
    assert state.tensors["layers.0.rows"].shape[1] == 4 * cfg.d_model
    assert (state.tokens_in, state.settle_delay) == (4, 1)


def _rebuilt(state: StreamState) -> StreamState:
    """A state made from copies of the stored arrays and counters alone."""
    return StreamState(
        tensors={name: t.copy() for name, t in state.tensors.items()},
        settle_delay=state.settle_delay, tokens_in=state.tokens_in, finished=state.finished)


REBUILD_CONTEXTS = {
    "zero": AttentionContext.zero(),
    "zero_left": AttentionContext.zero(left_context=3),
    "chunk": AttentionContext.chunked(2, 1),
    "regular": AttentionContext.regular(1, 3),
    "regular_m2": AttentionContext.regular(2, 3),
}


@pytest.mark.parametrize("cut", [4, 16], ids=["unsaturated", "saturated"])
@pytest.mark.parametrize("regime", list(REBUILD_CONTEXTS))
def test_state_rebuilt_from_its_arrays_resumes_bit_exact(regime, cut):
    # a stream resumed on copies of the stored arrays and counters alone, on
    # weights whose plan store is empty, steps to the same tokens and MACs
    ctx = REBUILD_CONTEXTS[regime]
    cfg = tiny_encoder_config(ctx)
    w = init_encoder_weights(cfg, seed=3)
    mel = random_mel(4 * (cut + 12) + 3, cfg.n_mels, seed=4)
    step = ctx.step_tokens() * cfg.downsampling_rate
    state = init_state(cfg)
    for i in range(0, 4 * cut, step):
        encode_step(mel[i : i + step], state, w, cfg)
    if ctx.settle_delay() > 0:
        assert all(n_in > n_out for n_in, n_out in map(state.counts, range(cfg.n_layers)))
    rebuilt = _rebuilt(state)

    def run(st, weights):
        rec = ComputeLedger()
        outs = [encode_step(mel[i : i + step], st, weights, cfg, rec)[0]
                for i in range(4 * cut, 4 * (cut + 12), step)]
        outs.append(encode_step(mel[4 * (cut + 12) :], st, weights, cfg, rec, final=True)[0])
        return np.concatenate(outs), rec.steps

    fresh = EncoderWeights(w.tensors)
    (out, macs), (out_rebuilt, macs_rebuilt) = run(state, w), run(rebuilt, fresh)
    assert out.shape[0] > 0 and np.array_equal(out_rebuilt, out)
    assert macs_rebuilt == macs
    # both streams end in equal states
    assert (rebuilt.tokens_in, rebuilt.finished) == (state.tokens_in, state.finished)
    assert list(rebuilt.tensors) == list(state.tensors)
    for name, t in state.tensors.items():
        assert np.array_equal(rebuilt.tensors[name], t)


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 5), d_rows=st.integers(-2, 2), d_cols=st.integers(-2, 2),
       dtype=st.sampled_from([np.float32, np.float64, np.float16, np.int32]))
@pytest.mark.parametrize("ctx", [AttentionContext.chunked(2, 1), AttentionContext.regular(1, 3)],
                         ids=["chunk", "regular"])
def test_a_reshaped_or_retyped_state_tensor_steps_only_if_unchanged(ctx, which, d_rows, d_cols,
                                                                    dtype):
    # every cached tensor is checked: any change of its row count, column
    # count or dtype is a StateError at the next step, and no other error
    cfg = tiny_encoder_config(ctx)
    w = init_encoder_weights(cfg, seed=3)
    mel = random_mel(24, cfg.n_mels, seed=4)
    step = ctx.step_tokens() * cfg.downsampling_rate
    state = init_state(cfg)
    for i in range(0, 16, step):
        encode_step(mel[i : i + step], state, w, cfg)
    slots = [f"layers.{i}.{f}" for i in range(cfg.n_layers) for f in ("rows", "conv")]
    slots += [f"ds.carry{s}" for s in range(cfg.n_stages)]
    arr = state.tensors[slots[which]]
    rows, cols = max(0, arr.shape[0] + d_rows), max(0, arr.shape[1] + d_cols)
    edited = np.resize(arr, (rows, cols)).astype(dtype)
    state.tensors[slots[which]] = edited
    if edited.shape == arr.shape and edited.dtype == np.float32:
        encode_step(mel[16 : 16 + step], state, w, cfg)
    else:
        with pytest.raises(StateError):
            encode_step(mel[16 : 16 + step], state, w, cfg)


def test_tokens_emitted_reads_the_top_layer():
    cfg = tiny_encoder_config(AttentionContext.regular(1, 3))
    w = init_encoder_weights(cfg, seed=3)
    state = init_state(cfg)
    out, _ = encode_step(random_mel(24, cfg.n_mels, seed=4), state, w, cfg)
    assert state.tokens_emitted == state.counts(cfg.n_layers - 1)[1] == out.shape[0] == 4
    with pytest.raises(AttributeError):
        state.tokens_emitted = 0


def _extra_row(field: str, layer: int):
    return _set(f"layers.{layer}.{field}",
                lambda a: np.concatenate([a, np.zeros((1, a.shape[1]), np.float32)]))


def _add(field: str, by: int):
    return lambda st: setattr(st, field, getattr(st, field) + by)


STATE_EDITS = {
    "tokens_in+1": _add("tokens_in", 1),
    "tokens_in-1": _add("tokens_in", -1),
    "tokens_in+5": _add("tokens_in", 5),
    "tokens_in-4": _add("tokens_in", -4),  # back to a fresh stream's count
    "tokens_in-8": _add("tokens_in", -8),  # below zero
    "settle_delay+1": _add("settle_delay", 1),
    "settle_delay-1": _add("settle_delay", -1),
    "layer0-rows-extra-row": _extra_row("rows", 0),
    "layer1-rows-extra-row": _extra_row("rows", 1),
}


@pytest.mark.parametrize("edit", list(STATE_EDITS))
@pytest.mark.parametrize("ctx", [AttentionContext.chunked(2, 1), AttentionContext.regular(1, 3)],
                         ids=["chunk", "regular"])
def test_state_edits_are_state_error(ctx, edit):
    # 4 tokens read: the chunk stream's edits leave a chunk edge, and the
    # regular stream's top layer has settled 2 outputs, under its left context
    # of 3; each edit leaves every tensor shape plausible on its own, and only
    # the cached rows, read against the counts, expose it
    cfg = tiny_encoder_config(ctx)
    w = init_encoder_weights(cfg, seed=3)
    mel = random_mel(32, cfg.n_mels, seed=4)
    step = ctx.step_tokens() * cfg.downsampling_rate
    state = init_state(cfg)
    for i in range(0, 16, step):
        encode_step(mel[i : i + step], state, w, cfg)
    encode_step(mel[16 : 16 + step], copy.deepcopy(state), w, cfg)  # an unedited copy resumes
    STATE_EDITS[edit](state)
    with pytest.raises(StateError):
        encode_step(mel[16 : 16 + step], state, w, cfg)


def test_no_tokens_in_edit_keeps_the_rows_under_the_left_context():
    # regular regime: while the top layer has settled fewer outputs than its
    # left context, every other tokens_in gives some layer another row count
    for n_layers, m, left in itertools.product(range(1, 5), range(4), range(6)):
        ctx = AttentionContext.regular(m, left)
        state = StreamState(tensors={f"layers.{i}.rows": None for i in range(n_layers)},
                            settle_delay=m)

        def rows(t):
            state.tokens_in = t
            return tuple(attn_keep_rows(ctx, *state.counts(i)) for i in range(n_layers))

        # past 40 + n_layers * m + left tokens every layer is saturated
        seen = collections.Counter(map(rows, range(41 + n_layers * m + left)))
        for t in range(40):
            key = rows(t)
            if state.tokens_emitted < left:
                assert seen[key] == 1, (n_layers, m, left, t)


def test_state_from_another_lookahead_is_state_error():
    # bias_future=2 makes one set of weights fit both contexts, so only the
    # state's stored settle delay tells them apart
    cfg = tiny_encoder_config(AttentionContext.regular(1, 3), bias_future=2)
    w = init_encoder_weights(cfg, seed=3)
    mel = random_mel(48, cfg.n_mels, seed=4)
    state = init_state(cfg)
    for i in range(0, 32, 4):
        encode_step(mel[i : i + 4], state, w, cfg)
    other = dataclasses.replace(cfg, attention=AttentionContext.regular(2, 3))
    with pytest.raises(StateError, match="settle delay 1"):
        encode_step(mel[32:36], copy.deepcopy(state), w, other)
    encode_step(mel[32:36], state, w, cfg)


DERIVATION_CONTEXTS = st.one_of(
    st.builds(AttentionContext.zero, st.one_of(st.none(), st.integers(0, 4))),
    st.builds(AttentionContext.regular, st.integers(0, 3), st.integers(0, 4)),
    st.builds(AttentionContext.chunked, st.integers(1, 3), st.integers(0, 2)),
)


@settings(max_examples=200, deadline=None)
@given(ctx=DERIVATION_CONTEXTS, rate=st.sampled_from([1, 2, 4, 8]),
       n_layers=st.integers(1, 3), steps=st.lists(st.integers(0, 3), max_size=6),
       tail=st.one_of(st.none(), st.integers(0, 9)))
def test_counts_follow_the_layer_recurrence(ctx, rate, n_layers, steps, tail):
    # each layer reads what the layer below settles and settles all but the
    # last settle_delay() of its inputs, or all of them in a final step
    cfg = tiny_encoder_config(ctx, n_layers=n_layers, downsampling_rate=rate)
    w = init_encoder_weights(cfg, seed=5)
    pieces = [(k * ctx.step_tokens() * rate, False) for k in steps]
    pieces += [] if tail is None else [(tail, True)]
    mel = random_mel(sum(n for n, _ in pieces), cfg.n_mels, seed=6)
    state = init_state(cfg)
    n_in, n_out = [0] * n_layers, [0] * n_layers
    lo = emitted = 0
    for n_frames, final in pieces:
        out, _ = encode_step(mel[lo : lo + n_frames], state, w, cfg, final=final)
        lo += n_frames
        emitted += out.shape[0]
        new = n_frames // rate
        for i in range(n_layers):
            n_in[i] += new
            settle_to = n_in[i] if final else max(n_out[i], n_in[i] - ctx.settle_delay())
            new, n_out[i] = settle_to - n_out[i], settle_to
        assert [state.counts(i) for i in range(n_layers)] == list(zip(n_in, n_out))
        assert state.tokens_emitted == emitted == n_out[-1]


def _fits_spec(state: StreamState, spec) -> bool:
    """The state's tensors are the spec's names in its order, each float32 of its shape."""
    return [(n, t.shape, t.dtype) for n, t in state.tensors.items()] == [
        (n, shape, np.float32) for n, shape, _ in spec]


@settings(max_examples=150, deadline=None)
@given(ctx=DERIVATION_CONTEXTS, rate=st.sampled_from([1, 2, 4, 8]),
       n_layers=st.integers(1, 3), kernel=st.integers(1, 4),
       steps=st.lists(st.integers(0, 3), max_size=6),
       tail=st.one_of(st.none(), st.integers(0, 9)))
def test_the_state_is_its_spec_after_every_step(ctx, rate, n_layers, kernel, steps, tail):
    # init_state is the spec's zeros at counts 0, and after every step,
    # final or not, the state holds exactly state_spec at its counts
    cfg = tiny_encoder_config(ctx, n_layers=n_layers, conv_kernel=kernel, downsampling_rate=rate)
    w = init_encoder_weights(cfg, seed=5)
    state = init_state(cfg)
    spec = state_spec(cfg, [(0, 0)] * n_layers)
    assert _fits_spec(state, spec) and all(not t.any() for t in state.tensors.values())
    assert state.float_count() == sum(math.prod(shape) for _, shape, _ in spec)
    pieces = [(k * ctx.step_tokens() * rate, False) for k in steps]
    pieces += [] if tail is None else [(tail, True)]
    mel = random_mel(sum(n for n, _ in pieces), cfg.n_mels, seed=6)
    lo = 0
    for n_frames, final in pieces:
        encode_step(mel[lo : lo + n_frames], state, w, cfg, final=final)
        lo += n_frames
        spec = state_spec(cfg, [state.counts(i) for i in range(n_layers)])
        assert _fits_spec(state, spec)
        assert state.float_count() == sum(math.prod(shape) for _, shape, _ in spec)
