"""Correctness checks run on every pass.

Each check rests on a property the method must have or on a computation made
apart from the program; none compares against stored copies of earlier
output. A check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import numpy as np

# A float64 recomputation of the CTC logits differs from the program's
# float32-rounded logits by about 1e-6 at these magnitudes; frames whose two
# best logits are closer than this are not decided by either and are skipped.
CTC_MARGIN_TOL = 1e-4


def _pairs(transcript) -> list[tuple[int, int]]:
    return [(t.token_id, t.first_frame) for t in transcript.tokens]


def streamed_equals_offline(streamed, offline) -> list[str]:
    bad = []
    for name, tr in streamed.transcripts.items():
        if _pairs(tr) != _pairs(offline.transcripts[name]):
            bad.append(f"{name}: streamed transcript differs from run_offline")
    return bad


def encode_step_equals_full(step_outputs: list[np.ndarray], enc_full: np.ndarray) -> list[str]:
    cat = np.concatenate(step_outputs, axis=0) if step_outputs else enc_full[:0]
    if cat.shape != enc_full.shape or cat.dtype != enc_full.dtype:
        return [f"encode_step outputs {cat.shape} {cat.dtype} vs encode_full "
                f"{enc_full.shape} {enc_full.dtype}"]
    if cat.tobytes() != enc_full.tobytes():
        return ["encode_step outputs are not bit-identical to encode_full"]
    return []


def ledger_laws(regime: str, stream_ledger, offline_ledger, buffered_ledger) -> list[str]:
    bad = []
    total, dup = stream_ledger.total, stream_ledger.duplicate_macs
    if regime == "chunk":
        if total != offline_ledger.total:
            bad.append(f"chunk streaming MACs {total} != offline {offline_ledger.total}")
        if dup != 0:
            bad.append(f"chunk streaming has {dup} duplicate MACs")
    elif total - dup != offline_ledger.total:
        bad.append(f"streaming total - duplicate {total - dup} != offline {offline_ledger.total}")
    if buffered_ledger.duplicate_macs <= 0:
        bad.append("buffered run reports no duplicate MACs")
    buffered_enc = buffered_ledger.total - buffered_ledger.category_total("decoder")
    stream_enc = total - dup - stream_ledger.category_total("decoder")
    if buffered_enc <= stream_enc:
        bad.append(f"buffered encoder MACs {buffered_enc} do not exceed streaming "
                   f"encoder MACs {stream_enc}")
    return bad


def packet_invariance(first, second) -> list[str]:
    bad = []
    for name, tr in first.transcripts.items():
        a = [(t.token_id, t.first_frame, t.emit_frame) for t in tr.tokens]
        b = [(t.token_id, t.first_frame, t.emit_frame) for t in second.transcripts[name].tokens]
        if a != b:
            bad.append(f"{name}: transcript depends on packet sizes")
    if first.ledger.steps != second.ledger.steps:
        bad.append("ledger depends on packet sizes")
    return bad


def frame_end_sample(frame: int, downsampling: int, shift: int, window: int) -> int:
    """Samples needed before encoder frame `frame` is fully covered."""
    return shift * (downsampling * (frame + 1) - 1) + window


def no_token_before_audio(result, feed_log, downsampling, shift, window) -> list[str]:
    """feed_log: (samples fed so far, session.state.tokens_emitted) after each call.

    A token at first_frame f is decoded in the call that settles frame f; the
    audio fed by then must cover its emit_frame.
    """
    bad = []
    for name, tr in result.transcripts.items():
        i = 0
        for tok in tr.tokens:
            while i < len(feed_log) and feed_log[i][1] <= tok.first_frame:
                i += 1
            if i == len(feed_log):
                bad.append(f"{name}: token at frame {tok.first_frame} was never settled")
                break
            need = frame_end_sample(tok.emit_frame, downsampling, shift, window)
            if feed_log[i][0] < need:
                bad.append(f"{name}: token at frame {tok.first_frame} decoded after "
                           f"{feed_log[i][0]} samples, emit_frame needs {need}")
                break
    return bad


def ctc_path_recomputed(transcript, enc_full: np.ndarray, w: np.ndarray, b: np.ndarray,
                        blank: int) -> tuple[list[str], int]:
    """Greedy CTC from float64 logits, matched against the transcript.

    Frames with a top-two margin under CTC_MARGIN_TOL may take either label;
    the match tracks every collapse state those choices allow. Returns the
    failures and the number of such frames.
    """
    logits = enc_full.astype(np.float64) @ w.astype(np.float64) + b.astype(np.float64)
    order = np.argsort(-logits, axis=1, kind="stable")
    top = logits[np.arange(len(logits)), order[:, 0]]
    second = logits[np.arange(len(logits)), order[:, 1]]
    ambiguous = (top - second) < CTC_MARGIN_TOL
    expected = {f: k for k, f in _pairs(transcript)}
    if len(expected) != len(transcript.tokens) or max(expected, default=0) >= len(logits):
        return ["ctc transcript frames are repeated or out of range"], int(ambiguous.sum())
    prev_states = {blank}
    for t in range(len(logits)):
        labels = {int(order[t, 0])} | ({int(order[t, 1])} if ambiguous[t] else set())
        nxt = set()
        for prev in prev_states:
            for k in labels:
                emits = k != blank and k != prev
                if emits == (t in expected) and (not emits or expected[t] == k):
                    nxt.add(k)
        if not nxt:
            return [f"ctc transcript disagrees with float64 greedy path at frame {t}"], \
                int(ambiguous.sum())
        prev_states = nxt
    return [], int(ambiguous.sum())
