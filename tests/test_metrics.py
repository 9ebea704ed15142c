import numpy as np
import pytest

from streamasr import LatencyModel, eil, wer
from streamasr.errors import ArgumentError

from helpers import wer_enumeration


class TestWer:
    def test_identity(self):
        b = wer("a b c", "a b c")
        assert b.errors == 0 and b.wer_percent == 0.0

    def test_single_deletion(self):
        b = wer("a b c", "a c")
        assert (b.substitutions, b.deletions, b.insertions) == (0, 1, 0)
        assert abs(b.wer_percent - 100.0 / 3.0) < 1e-9

    def test_substitution_preferred_over_del_plus_ins(self):
        b = wer("a b c", "a x c")
        assert (b.substitutions, b.deletions, b.insertions) == (1, 0, 0)

    def test_insertion(self):
        b = wer("a b", "a x b")
        assert (b.substitutions, b.deletions, b.insertions) == (0, 0, 1)
        assert b.wer_percent == 50.0

    def test_wer_can_exceed_100(self):
        b = wer("a", "x y z")
        assert b.wer_percent == 300.0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_alignment(self, seed):
        rng = np.random.default_rng(seed)
        words = ["aa", "bb", "cc", "dd"]
        ref = [words[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))]
        hyp = [words[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
        b = wer(" ".join(ref), " ".join(hyp))
        s, d, i = wer_enumeration(ref, hyp)
        assert (b.substitutions, b.deletions, b.insertions) == (s, d, i)

    def test_empty_reference_rejected(self):
        with pytest.raises(ArgumentError):
            wer("", "a b")

    @pytest.mark.parametrize("ref, hyp", [(None, "a"), ("a", None), ("a", ["a"]), (b"a", "a")])
    def test_two_strings_or_argument_error(self, ref, hyp):
        with pytest.raises(ArgumentError):
            wer(ref, hyp)

    def test_case_sensitive(self):
        assert wer("A", "a").errors == 1


class TestEil:
    def lm(self, dr=8):
        return LatencyModel(frame_shift_ms=10, downsampling_rate=dr, n_layers=17)

    def test_zero_lookahead_is_zero(self):
        assert eil([3, 7, 9], [3, 7, 9], self.lm()) == 0.0

    def test_chunk_uniform_positions_average(self):
        # tokens at every position of a chunk of size c wait (c-1)/2 on average
        c = 4
        ready = list(range(c))
        emit = [c - 1] * c
        ms = eil(emit, ready, self.lm())
        assert ms == (c - 1) / 2 * 80.0

    def test_token_at_chunk_end_waits_nothing(self):
        assert eil([7], [7], self.lm()) == 0.0

    def test_empty_is_zero(self):
        assert eil([], [], self.lm()) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            eil([1, 2], [1], self.lm())
