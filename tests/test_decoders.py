import dataclasses

import numpy as np
import pytest

from streamasr import (
    CtcIncrementalDecoder,
    Vocab,
    ctc_logprobs,
    rnnt_greedy_decode,
    rnnt_init_state,
    rnnt_joint_log_probs,
)
from streamasr.decoders import rnnt_joint_logits, rnnt_pred_advance
from streamasr.errors import ArgumentError, FormatError, InputFileError, NumericsError
from streamasr.numerics import logsumexp

from helpers import random_head


class TestVocab:
    def test_file_roundtrip(self, tmp_path):
        v = Vocab.chars("ab c")
        path = str(tmp_path / "vocab.txt")
        v.save(path)
        back = Vocab.load(path)
        assert back.tokens == v.tokens
        assert back.blank_id == 0

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
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

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
        _, head = random_head(seed=9)
        with pytest.raises(ArgumentError):
            rnnt_greedy_decode(np.zeros((1, 16), np.float32), head,
                               [np.zeros(8, np.float32)] * 3)


class TestJointGrid:
    def test_grid_shape_and_normalization(self):
        _, head = random_head(seed=10)
        enc = np.random.default_rng(3).standard_normal((4, 16)).astype(np.float32)
        grid = rnnt_joint_log_probs(enc, [1, 2], head)
        assert grid.shape == (4, 3, head.hc.vocab_size)
        assert np.abs(logsumexp(grid, axis=2)).max() < 1e-6

    def test_grid_rows_match_manual_states(self):
        _, head = random_head(seed=11)
        enc = np.random.default_rng(4).standard_normal((2, 16)).astype(np.float32)
        grid = rnnt_joint_log_probs(enc, [2], head)
        states = rnnt_init_state(head)
        logits00 = rnnt_joint_logits(head, enc[0], states[-1])
        ref = logits00 - logsumexp(logits00.astype(np.float64))
        assert np.abs(grid[0, 0] - ref).max() < 1e-6
        states = rnnt_pred_advance(head, states, 2)
        logits01 = rnnt_joint_logits(head, enc[0], states[-1])
        ref = logits01 - logsumexp(logits01.astype(np.float64))
        assert np.abs(grid[0, 1] - ref).max() < 1e-6

    def test_blank_in_target_rejected(self):
        _, head = random_head(seed=12)
        with pytest.raises(ArgumentError):
            rnnt_joint_log_probs(np.zeros((2, 16), np.float32), [0], head)


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
        _, head = random_head(d_model=64)
        rng = np.random.default_rng(0)
        head.tensors["rnnt.joint_enc.w"] = self._huge_signs(rng, (64, 8))
        enc_t = np.where(rng.random(64) < 0.5, -1.0, 1.0).astype(np.float32)
        with pytest.raises(NumericsError):
            rnnt_joint_logits(head, enc_t, rnnt_init_state(head)[-1])

    def test_joint_logits(self):
        _, head = random_head(vocab_size=40, d_joint=64)
        rng = np.random.default_rng(0)
        head.tensors["rnnt.joint_enc.w"] = np.full((16, 64), 100.0, np.float32)  # tanh at +-1
        head.tensors["rnnt.joint_out.w"] = self._huge_signs(rng, (64, 40))
        enc_t = np.ones(16, np.float32)
        with pytest.raises(NumericsError):
            rnnt_joint_logits(head, enc_t, rnnt_init_state(head)[-1])
