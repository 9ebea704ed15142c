import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamasr import (
    AttentionContext,
    BufferedConfig,
    CtcIncrementalDecoder,
    Vocab,
    ctc_logprobs,
    load_model,
    numerics,
    rnnt_greedy_decode,
    rnnt_joint_log_probs,
    run_buffered,
    run_offline,
    run_streaming,
    save_model,
    streaming,
)
from streamasr import decoders
from streamasr.decoders import RnntState, rnnt_init_state, rnnt_pred_advance
from streamasr.errors import ArgumentError, FormatError, InputFileError, NumericsError, ShapeError
from streamasr.numerics import log_softmax, logsumexp

from helpers import (
    random_head,
    reference_joint_logits,
    reference_rnnt_greedy,
    synth_audio,
    tiny_model,
    varied_rnnt_model,
    vary_rnnt_emission,
)


class TestVocab:
    def test_file_roundtrip(self, tmp_path):
        v = Vocab.chars("ab c")
        path = str(tmp_path / "vocab.txt")
        v.save(path)
        back = Vocab.load(path)
        assert back.tokens == v.tokens
        assert back.blank_id == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\n\r"), min_size=1),
                    unique=True).filter(lambda t: "<blank>" not in t))
    def test_any_valid_vocab_survives_a_file_roundtrip(self, tmp_path_factory, labels):
        v = Vocab(["<blank>"] + labels)
        path = str(tmp_path_factory.mktemp("vocab") / "vocab.txt")
        v.save(path)
        assert Vocab.load(path).tokens == v.tokens

    @pytest.mark.parametrize("tokens", [
        ["<blank>", 1], ["<blank>", None], ["<blank>", "", "a"], ["<blank>", "a\nb"],
        ["<blank>", "a\r"], ["<blank>", "\r\n"], ["<blank>", "\ud800"], ("<blank>", "a"),
        "<blank>",
    ], ids=["int", "None", "empty", "newline", "carriage-return", "crlf", "surrogate", "tuple",
            "str"])
    def test_a_token_the_file_cannot_hold_is_format_error(self, tokens):
        with pytest.raises(FormatError):
            Vocab(tokens)

    def test_missing_file_is_file_error(self, tmp_path):
        with pytest.raises(InputFileError):
            Vocab.load(str(tmp_path / "missing.txt"))

    def test_non_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"<blank>\na\n\xff\n")
        with pytest.raises(FormatError):
            Vocab.load(str(path))

    def test_blank_must_lead(self):
        with pytest.raises(FormatError):
            Vocab(["a", "<blank>"])

    def test_duplicates_rejected(self):
        with pytest.raises(FormatError):
            Vocab(["<blank>", "a", "a"])

    def test_blank_id_is_line_zero_and_read_only(self):
        # line 0 is <blank>, so any other blank_id would make decoders drop a label
        with pytest.raises(TypeError):
            Vocab(["<blank>", "a", "b"], blank_id=2)
        v = Vocab.chars("ab")
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.blank_id = 2
        assert v.blank_id == Vocab.blank_id == 0


@pytest.mark.parametrize("enc", [np.float32(1.0), np.ones(16, np.float32),
                                 np.ones((3, 15), np.float32), [[1.0] * 16, [1.0] * 15]],
                         ids=["0-d", "1-d", "width", "ragged"])
def test_encoder_output_not_rows_of_d_model_is_shape_error(enc):
    ctc, rnnt = random_head(seed=4)  # d_model 16
    with pytest.raises(ShapeError):
        ctc_logprobs(enc, ctc)
    with pytest.raises(ShapeError):
        rnnt_greedy_decode(enc, rnnt)
    with pytest.raises(ShapeError):
        rnnt_joint_log_probs(enc, [1], rnnt)


class TestCtc:
    def test_zero_weights_give_uniform_rows(self):
        ctc, _ = random_head(seed=1)
        ctc.w = np.zeros_like(ctc.w)
        ctc.b = np.zeros_like(ctc.b)
        grid = ctc_logprobs(np.ones((4, 16), np.float32), ctc)
        assert np.allclose(grid, np.log(1.0 / ctc.hc.vocab_size))

    def test_rows_normalized(self):
        ctc, _ = random_head(seed=2)
        enc = np.random.default_rng(0).standard_normal((9, 16)).astype(np.float32)
        grid = ctc_logprobs(enc, ctc)
        assert np.abs(logsumexp(grid, axis=1)).max() < 1e-6

    def test_matches_two_step_oracle(self):
        ctc, _ = random_head(seed=3)
        enc = np.random.default_rng(1).standard_normal((5, 16)).astype(np.float32)
        grid = ctc_logprobs(enc, ctc)
        logits = enc.astype(np.float64) @ ctc.w.astype(np.float64) + ctc.b
        ref = logits - np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1, keepdims=True)) - logits.max(1, keepdims=True)
        assert np.abs(grid - ref).max() < 1e-4

    def test_collapse_rule(self):
        # argmax sequence a a <blank> b -> "ab"
        grid = np.full((4, 3), -10.0)
        grid[0, 1] = grid[1, 1] = 0.0
        grid[2, 0] = 0.0
        grid[3, 2] = 0.0
        assert [k for k, _ in CtcIncrementalDecoder().push(grid)] == [1, 2]

    def test_all_blank_empty(self):
        grid = np.zeros((6, 4))
        grid[:, 0] = 5.0
        assert CtcIncrementalDecoder().push(grid) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_best_path(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((6, 4))
        # oracle: literal best path then collapse
        path = [int(np.argmax(row)) for row in grid]
        collapsed, prev = [], None
        for p in path:
            if p != prev and p != 0:
                collapsed.append(p)
            prev = p
        assert [k for k, _ in CtcIncrementalDecoder().push(grid)] == collapsed

    def test_ties_go_to_the_lowest_id(self):
        grid = np.array([[0.0, 1.0, 1.0], [2.0, 2.0, 0.0], [0.0, 3.0, 3.0]])
        assert CtcIncrementalDecoder().push(grid, frame_offset=4) == [(1, 4), (1, 6)]

    @pytest.mark.parametrize("logprobs", [np.array([0.1, 0.9, 0.0]), np.zeros((2, 3, 4)),
                                          np.zeros((3, 0)), [[0.0, 1.0], [2.0]], "ab"],
                             ids=["1-d", "3-d", "no-labels", "ragged", "string"])
    def test_input_that_is_not_frames_by_labels_is_shape_error(self, logprobs):
        # read as frames of one value, a 1-D row would decode silently to []
        with pytest.raises(ShapeError):
            CtcIncrementalDecoder().push(logprobs)

    def test_incremental_equals_whole(self):
        rng = np.random.default_rng(7)
        grid = rng.standard_normal((20, 5))
        whole = CtcIncrementalDecoder().push(grid)
        dec = CtcIncrementalDecoder()
        parts = []
        for lo in (0, 3, 11, 16):
            hi = {0: 3, 3: 11, 11: 16, 16: 20}[lo]
            parts += dec.push(grid[lo:hi], frame_offset=lo)
        assert parts == whole


class TestRnntGreedy:
    def test_blank_dominant_emits_nothing(self):
        _, head = random_head(seed=4)
        head.tensors["rnnt.joint_out.b"] = np.array(
            [50.0] + [0.0] * (head.hc.vocab_size - 1), np.float32
        )
        enc = np.random.default_rng(2).standard_normal((6, 16)).astype(np.float32)
        before = rnnt_init_state(head)
        toks, after = rnnt_greedy_decode(enc, head, before)
        assert toks == []
        assert after is before

    def test_hand_forced_sequence(self):
        # joint ignores inputs; bias forces "a b" then blanks via state feedback
        _, head = random_head(seed=5, vocab_size=3)
        head.tensors["rnnt.joint_enc.w"] = np.zeros_like(head.tensors["rnnt.joint_enc.w"])
        head.tensors["rnnt.joint_enc.b"] = np.zeros_like(head.tensors["rnnt.joint_enc.b"])
        head.tensors["rnnt.joint_out.w"] = np.zeros_like(head.tensors["rnnt.joint_out.w"])
        # state starts at zeros -> tanh(0)=0 -> logits = bias -> argmax "a"(1)
        head.tensors["rnnt.joint_out.b"] = np.array([0.0, 1.0, 0.5], np.float32)
        # after first advance, make the joint see the prediction state strongly
        head.tensors["rnnt.joint_pred.w"] = np.full_like(
            head.tensors["rnnt.joint_pred.w"], 5.0
        )
        head.tensors["rnnt.joint_pred.b"] = np.zeros_like(head.tensors["rnnt.joint_pred.b"])
        head.tensors["rnnt.embed"] = np.full_like(head.tensors["rnnt.embed"], -2.0)
        w_out = np.zeros_like(head.tensors["rnnt.joint_out.w"])
        w_out[:, 0] = -1.0  # saturated negative tanh pushes blank up
        head.tensors["rnnt.joint_out.w"] = w_out
        enc = np.zeros((2, 16), np.float32)
        toks, _ = rnnt_greedy_decode(enc, head, max_symbols_per_frame=3)
        # first joint: logits = bias -> emit 1; then tanh(-) flips sign on blank
        assert [t for t, _ in toks][:1] == [1]
        assert all(f in (0, 1) for _, f in toks)

    def test_max_symbols_terminates(self):
        _, head = random_head(seed=6)
        head.tensors["rnnt.joint_out.b"] = np.array(
            [-50.0] + [50.0] + [0.0] * (head.hc.vocab_size - 2), np.float32
        )
        head.tensors["rnnt.joint_out.w"] = np.zeros_like(head.tensors["rnnt.joint_out.w"])
        head.tensors["rnnt.joint_pred.w"] = np.zeros_like(head.tensors["rnnt.joint_pred.w"])
        head.tensors["rnnt.joint_enc.w"] = np.zeros_like(head.tensors["rnnt.joint_enc.w"])
        enc = np.zeros((3, 16), np.float32)
        toks, _ = rnnt_greedy_decode(enc, head, max_symbols_per_frame=10)
        assert len(toks) == 30  # capped at 10 per frame

    @pytest.mark.parametrize("splits", [2, 3, 5])
    def test_split_decoding_equals_single_shot(self, splits):
        _, head = random_head(seed=7)
        rng = np.random.default_rng(8)
        enc = rng.standard_normal((20, 16)).astype(np.float32)
        whole, _ = rnnt_greedy_decode(enc, head)
        bounds = np.linspace(0, 20, splits + 1).astype(int)
        state = None
        parts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            toks, state = rnnt_greedy_decode(enc[lo:hi], head, state, frame_offset=int(lo))
            parts += toks
        assert parts == whole

    def test_state_length_checked(self):
        # a state of the wrong depth, or bare hidden rows without their projection
        _, head = random_head(seed=9)
        zero = rnnt_init_state(head)
        for state in (RnntState(zero.hidden * 3, zero.joint_pred), zero.hidden):
            with pytest.raises(ArgumentError):
                rnnt_greedy_decode(np.zeros((1, 16), np.float32), head, state)


class TestRnntGreedyReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), d_model=st.integers(1, 16), vocab_size=st.integers(3, 6),
           pred_layers=st.integers(1, 2), d_pred=st.integers(1, 8), d_joint=st.integers(1, 8),
           gain=st.floats(2.0, 8.0), blank_shift=st.floats(-0.5, 1.0),
           t_len=st.integers(0, 12), cap=st.integers(1, 4),
           cuts=st.lists(st.integers(0, 12), max_size=3))
    def test_whole_and_split_decoding_equal_the_reference(
        self, seed, d_model, vocab_size, pred_layers, d_pred, d_joint, gain, blank_shift,
        t_len, cap, cuts,
    ):
        _, head = random_head(seed=seed, d_model=d_model, vocab_size=vocab_size, d_pred=d_pred,
                              d_joint=d_joint, pred_layers=pred_layers)
        vary_rnnt_emission(head, gain, blank_shift)
        enc = np.random.default_rng(seed).standard_normal((t_len, d_model)).astype(np.float32)
        ref = reference_rnnt_greedy(enc, head, max_symbols=cap)
        whole, _ = rnnt_greedy_decode(enc, head, max_symbols_per_frame=cap)
        assert whole == ref
        bounds = sorted({0, t_len, *(min(c, t_len) for c in cuts)})
        states, parts = None, []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            toks, states = rnnt_greedy_decode(enc[lo:hi], head, states,
                                              max_symbols_per_frame=cap, frame_offset=lo)
            parts += toks
        assert parts == ref

    def test_the_drawn_heads_reach_every_kind_of_frame(self):
        # frames that emit nothing, a few tokens, and the cap: the property's
        # draws exercise each way a frame's loop ends
        kinds = set()
        for seed in range(4):
            for blank_shift in (-0.5, 0.25, 1.0):
                _, head = random_head(seed=seed, d_model=8, d_pred=6, d_joint=6,
                                      pred_layers=1 + seed % 2)
                vary_rnnt_emission(head, 4.0, blank_shift)
                enc = np.random.default_rng(seed).standard_normal((10, 8)).astype(np.float32)
                per_frame = np.bincount([f for _, f in reference_rnnt_greedy(enc, head, 4)],
                                        minlength=10)
                kinds |= {"none" if n == 0 else "cap" if n == 4 else "few" for n in per_frame}
        assert kinds == {"none", "few", "cap"}


class TestJointGrid:
    def test_grid_shape_and_normalization(self):
        _, head = random_head(seed=10)
        enc = np.random.default_rng(3).standard_normal((4, 16)).astype(np.float32)
        grid = rnnt_joint_log_probs(enc, [1, 2], head)
        assert grid.shape == (4, 3, head.hc.vocab_size)
        assert np.abs(logsumexp(grid, axis=2)).max() < 1e-6

    def test_grid_rows_match_manual_states(self):
        # every cell is the log-softmax of the joint evaluated from scratch on
        # the float32 tensors, bit for bit
        _, head = random_head(seed=11, pred_layers=2)
        enc = np.random.default_rng(4).standard_normal((3, 16)).astype(np.float32)
        target = [2, 1, 3]
        grid = rnnt_joint_log_probs(enc, target, head)
        for t in range(3):
            for u in range(len(target) + 1):
                assert np.array_equal(
                    grid[t, u], log_softmax(reference_joint_logits(head, enc[t], target[:u])))

    def test_blank_in_target_rejected(self):
        # target ids are labels, 1 .. V-1: blank and ids outside the vocabulary
        _, head = random_head(seed=12)
        for target in ([0], [-1], [head.hc.vocab_size], [99], [1, 0, 2]):
            with pytest.raises(ArgumentError):
                rnnt_joint_log_probs(np.zeros((2, 16), np.float32), target, head)

    @pytest.mark.parametrize("bad", [1.5, "a", True, None, np.float64(2.0), np.True_])
    def test_an_id_that_is_not_an_integer_is_argument_error(self, bad):
        _, head = random_head(seed=12)
        with pytest.raises(ArgumentError):
            rnnt_joint_log_probs(np.zeros((2, 16), np.float32), [1, bad], head)

    def test_numpy_integer_ids_equal_python_ones(self):
        _, head = random_head(seed=12)
        enc = np.random.default_rng(5).standard_normal((2, 16)).astype(np.float32)
        want = rnnt_joint_log_probs(enc, [2, 1], head)
        for ids in ([np.int64(2), np.int64(1)], np.array([2, 1], dtype=np.int32)):
            assert np.array_equal(rnnt_joint_log_probs(enc, ids, head), want)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestRnntNonFinite:
    # tanh maps an infinite cell or joint input to +-1, so its input is checked
    @staticmethod
    def _huge_signs(rng, shape):
        return np.where(rng.random(shape) < 0.5, np.float32(-3e37), np.float32(3e37))

    def test_prediction_cell(self):
        _, head = random_head(d_pred=64)
        rng = np.random.default_rng(0)
        head.tensors["rnnt.embed"] = np.where(
            rng.random(head.tensors["rnnt.embed"].shape) < 0.5, -1.0, 1.0
        ).astype(np.float32)
        head.tensors["rnnt.cell0.w_in"] = self._huge_signs(rng, (64, 64))
        with pytest.raises(NumericsError):
            rnnt_pred_advance(head, rnnt_init_state(head), 1)

    def test_joint(self):
        # the encoder rows' projection is checked where it is made, before any joint
        _, head = random_head(d_model=64)
        rng = np.random.default_rng(0)
        head.tensors["rnnt.joint_enc.w"] = self._huge_signs(rng, (64, 8))
        enc = np.where(rng.random((1, 64)) < 0.5, -1.0, 1.0).astype(np.float32)
        with pytest.raises(NumericsError, match="joint enc projection"):
            rnnt_greedy_decode(enc, head)

    def test_joint_prediction_projection(self):
        # a state's projection is checked when the state is made
        _, head = random_head(d_pred=64)
        rng = np.random.default_rng(0)
        head.tensors["rnnt.cell0.w_in"] = np.full((64, 64), 100.0, np.float32)  # tanh at +-1
        head.tensors["rnnt.joint_pred.w"] = self._huge_signs(rng, (64, 8))
        head.tensors["rnnt.embed"] = np.ones_like(head.tensors["rnnt.embed"])
        with pytest.raises(NumericsError, match="joint pred projection"):
            rnnt_pred_advance(head, rnnt_init_state(head), 1)

    def test_joint_logits(self):
        _, head = random_head(vocab_size=40, d_joint=64)
        rng = np.random.default_rng(0)
        head.tensors["rnnt.joint_enc.w"] = np.full((16, 64), 100.0, np.float32)  # tanh at +-1
        head.tensors["rnnt.joint_out.w"] = self._huge_signs(rng, (64, 40))
        with pytest.raises(NumericsError, match="joint logits"):
            rnnt_greedy_decode(np.ones((1, 16), np.float32), head)


def prepared_heads(model) -> list[np.ndarray]:
    """Every float64 copy the model's heads prepare."""
    return [model.ctc.w64, *model.rnnt.w64.values()]


RUNS = {
    "streaming": run_streaming,
    "offline": run_offline,
    "buffered": lambda audio, model, vocab, decoder: run_buffered(
        audio, model, vocab, BufferedConfig(0.4, 0.8), decoder=decoder),
}
HEAD_AUDIO = synth_audio(1.2, seed=55)


class TestPreparedHeads:
    """The CTC and RNNT heads make the weights their products read float64
    once, on first use, so no decoder product converts a weight."""

    @pytest.mark.parametrize("mode", sorted(RUNS))
    def test_every_weight_a_head_product_reads_is_prepared_float64(self, mode, monkeypatch):
        # every matmul64 inside a decoder call is a head product; its `b` the weight
        model, vocab = varied_rnnt_model()
        weights, inside = [], []
        real_matmul = numerics.matmul64

        def matmul(a, b):
            if inside:
                weights.append(b)
            return real_matmul(a, b)

        def entered(fn):
            def call(*args, **kwargs):
                inside.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return call

        monkeypatch.setattr(numerics, "matmul64", matmul)
        for name in ("ctc_logprobs", "rnnt_greedy_decode"):
            monkeypatch.setattr(streaming, name, entered(getattr(streaming, name)))
        res = RUNS[mode](HEAD_AUDIO, model, vocab, decoder="both")
        assert res.transcripts["rnnt"].tokens
        prepared = prepared_heads(model)
        hit = set()
        for b in weights:
            assert np.ndim(b) == 2 and b.dtype == np.float64 and b.flags.c_contiguous
            hit |= {i for i, p in enumerate(prepared) if np.shares_memory(b, p)}
        assert hit == set(range(len(prepared)))

    def test_each_copy_is_its_tensor_bit_for_bit_and_read_only(self):
        _, head = random_head(seed=20, pred_layers=2)
        ctc, _ = random_head(seed=20)
        pairs = [(ctc.w64, ctc.w)] + [(head.w64[n], head.tensors[n]) for n in (
            "rnnt.cell0.w_in", "rnnt.cell0.w_h", "rnnt.cell1.w_in", "rnnt.cell1.w_h",
            "rnnt.joint_enc.w", "rnnt.joint_pred.w", "rnnt.joint_out.w")]
        assert len(head.w64) == len(pairs) - 1
        for copy, tensor in pairs:
            assert copy.dtype == np.float64 and copy.flags.c_contiguous
            assert not copy.flags.writeable
            assert copy.astype(np.float32).tobytes() == tensor.tobytes()

    def test_built_once_per_head_and_not_at_load(self, tmp_path, monkeypatch):
        model, vocab = tiny_model(AttentionContext.chunked(2, 1), seed=21)
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        built = []
        real = decoders.float64_copy

        def counting(t):
            built.append(t.shape)
            return real(t)

        monkeypatch.setattr(decoders, "float64_copy", counting)
        model = load_model(path)
        assert built == []
        first = run_offline(HEAD_AUDIO, model, vocab, "both").transcripts
        assert len(built) == 1 + 2 * model.cfg.pred_layers + 3
        other = model.with_attention(AttentionContext.chunked(1, 1))
        for run in RUNS.values():
            run(HEAD_AUDIO, other, vocab, decoder="both")
        again = run_offline(HEAD_AUDIO, model, vocab, "both").transcripts
        assert len(built) == 1 + 2 * model.cfg.pred_layers + 3
        assert {k: t.to_json() for k, t in again.items()} == \
            {k: t.to_json() for k, t in first.items()}

    def test_a_bias_written_after_first_use_reaches_the_next_decode(self):
        # perfbench calibrates the blank bias by writing into it between decodes
        model, _ = varied_rnnt_model()
        enc = np.random.default_rng(22).standard_normal((8, model.cfg.encoder.d_model))
        enc = enc.astype(np.float32)
        bias = model.rnnt.tensors["rnnt.joint_out.b"]
        base = bias[0]
        for shift in (0.0, 60.0, -60.0):
            bias[0] = np.float32(base + shift)
            toks, _ = rnnt_greedy_decode(enc, model.rnnt, max_symbols_per_frame=3)
            assert toks == reference_rnnt_greedy(enc, model.rnnt, max_symbols=3)
            if shift > 0:
                assert toks == []
            if shift < 0:
                assert len(toks) == 3 * enc.shape[0]
