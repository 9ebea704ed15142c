"""Word error rate and encoder-induced latency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import LatencyModel, check_instance, check_integers
from .errors import ArgumentError


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer_percent(self) -> float:
        return 100.0 * self.errors / self.ref_words


def wer(reference: str, hypothesis: str) -> WerBreakdown:
    """Levenshtein alignment on whitespace tokens, case-sensitive.

    Minimizes S+D+I; among minimal alignments prefers more substitutions,
    then more deletions (tracked as a lexicographic (cost, -S, -D) objective).
    """
    if not (isinstance(reference, str) and isinstance(hypothesis, str)):
        raise ArgumentError(f"wer compares two strings, got {type(reference).__name__} and "
                            f"{type(hypothesis).__name__}")
    ref = reference.split()
    hyp = hypothesis.split()
    if not ref:
        raise ArgumentError("reference must contain at least one word")
    n, m = len(ref), len(hyp)
    # dp[i][j] = (cost, -subs, -dels) aligning ref[:i] with hyp[:j]
    dp = [[(0, 0, 0)] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        c, s, d = dp[i - 1][0]
        dp[i][0] = (c + 1, s, d - 1)
    for j in range(1, m + 1):
        c, s, d = dp[0][j - 1]
        dp[0][j] = (c + 1, s, d)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            c, s, d = dp[i - 1][j - 1]
            diag = (c, s, d) if ref[i - 1] == hyp[j - 1] else (c + 1, s - 1, d)
            c, s, d = dp[i - 1][j]
            up = (c + 1, s, d - 1)
            c, s, d = dp[i][j - 1]
            left = (c + 1, s, d)
            dp[i][j] = min(diag, up, left)
    cost, neg_s, neg_d = dp[n][m]
    subs, dels = -neg_s, -neg_d
    ins = cost - subs - dels
    return WerBreakdown(substitutions=subs, deletions=dels, insertions=ins, ref_words=n)


def eil(
    token_emit_frames: list[int], token_ready_frames: list[int], lm: LatencyModel
) -> float:
    """Mean encoder-induced latency in ms.

    For each emitted token: the encoder frame at which its needed look-ahead
    is complete, minus the frame where its audio ends, converted at
    frame_shift * downsampling ms per encoder frame. Inference time is not
    part of this measure. ArgumentError unless both are sequences of
    integer frames (numpy ones too, a bool not; an array of an integer
    dtype) of one length, and lm is a LatencyModel.
    """
    emit, ready = _frames(token_emit_frames, "emit"), _frames(token_ready_frames, "ready")
    check_instance(lm, LatencyModel, "lm")
    if len(emit) != len(ready):
        raise ArgumentError("emit/ready frame lists differ in length")
    if not emit:
        return 0.0
    waits = [e - r for e, r in zip(emit, ready)]
    return sum(waits) / len(waits) * lm.token_ms


def _frames(frames, what: str) -> list[int]:
    """`frames` as a list of Python ints, or ArgumentError."""
    try:
        out = list(frames)
    except TypeError:
        raise ArgumentError(f"{what} frames must be a sequence, got {frames!r}") from None
    if isinstance(frames, np.ndarray) and frames.dtype.kind not in "iu":
        raise ArgumentError(f"{what} frames must be integers, got a {frames.dtype} array")
    check_integers(**{f"{what} frame {i}": f for i, f in enumerate(out)})
    return [int(f) for f in out]
