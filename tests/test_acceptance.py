"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from streamasr import (
    AttentionContext,
    BufferedConfig,
    CtcIncrementalDecoder,
    LatencyModel,
    ModelConfig,
    attn_keep_rows,
    cache_append,
    ctc_logprobs,
    ctc_loss,
    encode_full,
    encode_step,
    hybrid_loss,
    init_model,
    init_state,
    latency_ms,
    log_mel,
    receptive_field_frames,
    rnnt_greedy_decode,
    rnnt_loss,
    rnnt_loss_fastemit,
    run_buffered,
    run_offline,
    run_streaming,
)
from streamasr.ledger import ComputeLedger
from streamasr.numerics import log_softmax

from helpers import (
    ctc_loss_enumeration,
    init_encoder_weights,
    rnnt_loss_enumeration,
    synth_audio,
    tiny_encoder_config,
    write_wav,
)


def _sample_config(i: int) -> tuple[ModelConfig, float]:
    rng = np.random.default_rng(1000 + i)
    d = int(rng.choice([16, 32]))
    enc = tiny_encoder_config(
        AttentionContext.chunked(int(rng.integers(1, 9)), int(rng.integers(0, 4))),
        n_layers=int(rng.integers(1, 5)),
        d_model=d,
        n_heads=int(rng.choice([2, 4])),
        conv_kernel=int(rng.choice([3, 5])),
        downsampling_rate=int(rng.choice([2, 4, 8])),
        n_mels=80,
    )
    cfg = ModelConfig(encoder=enc, vocab_size=5, d_pred=8, d_joint=8)
    return cfg, float(rng.uniform(1.0, 4.0))


def _stream_encode_and_decode(mel, model, rec):
    """Chunked encode with per-chunk incremental decoding (state carried)."""
    cfg = model.cfg.encoder
    ctx = cfg.attention
    step = ctx.chunk * cfg.downsampling_rate
    state = init_state(cfg)
    ctc_dec = CtcIncrementalDecoder()
    rnnt_states = None
    outs, ctc_toks, rnnt_toks = [], [], []
    emitted = 0

    def consume(enc_new):
        nonlocal rnnt_states, emitted
        if enc_new.shape[0] == 0:
            return
        ctc_toks.extend(ctc_dec.push(ctc_logprobs(enc_new, model.ctc, rec), emitted))
        toks, states = rnnt_greedy_decode(
            enc_new, model.rnnt, rnnt_states, frame_offset=emitted, rec=rec
        )
        rnnt_states = states
        rnnt_toks.extend(toks)
        emitted += enc_new.shape[0]

    pos = 0
    while pos + step <= mel.shape[0]:
        rec.new_step()
        o, state = encode_step(mel[pos : pos + step], state, model.encoder, cfg, rec=rec)
        outs.append(o)
        consume(o)
        pos += step
    rec.new_step()
    o, state = encode_step(mel[pos:], state, model.encoder, cfg, rec=rec, final=True)
    outs.append(o)
    consume(o)
    return np.concatenate(outs, axis=0), ctc_toks, rnnt_toks


N_SWEEP_CONFIGS = 50


@pytest.fixture(scope="module")
def equivalence_sweep():
    """Runs the 50-config sweep once; criteria 1 and 2 both consume it."""
    start = time.time()
    runs = []
    for i in range(N_SWEEP_CONFIGS):
        cfg, seconds = _sample_config(i)
        model = init_model(cfg, seed=2000 + i)
        audio = synth_audio(seconds, seed=3000 + i)
        mel = log_mel(audio)

        led_off = ComputeLedger()
        led_off.new_step()
        full = encode_full(mel, model.encoder, cfg.encoder, rec=led_off)
        led_str = ComputeLedger()
        got, str_ctc, str_rnnt = _stream_encode_and_decode(mel, model, led_str)

        off_ctc = CtcIncrementalDecoder().push(ctc_logprobs(full, model.ctc, led_off))
        off_rnnt, _ = rnnt_greedy_decode(full, model.rnnt, rec=led_off)
        runs.append({
            "i": i, "full": full, "got": got,
            "led_off": led_off, "led_str": led_str,
            "off_ctc": off_ctc, "str_ctc": str_ctc,
            "off_rnnt": off_rnnt, "str_rnnt": str_rnnt,
        })
    return runs, time.time() - start


class TestCriterion1StreamingOfflineEquivalence:
    def test_sweep(self, equivalence_sweep):
        runs, elapsed = equivalence_sweep
        for r in runs:
            i, full, got = r["i"], r["full"], r["got"]
            assert got.shape == full.shape, f"config {i}: shape mismatch"
            assert np.array_equal(got, full), (
                f"config {i}: encoder max delta {np.abs(got - full).max()}"
            )
            assert r["off_ctc"] == r["str_ctc"], f"config {i}: ctc transcripts differ"
            assert r["off_rnnt"] == r["str_rnnt"], f"config {i}: rnnt transcripts differ"
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
        print(
            f"\n[criterion 1] PASS: {len(runs)} random configs, chunked encoder outputs "
            f"and both transcripts equal full pass exactly (max |delta| = 0) "
            f"in {elapsed:.1f}s"
        )


class TestCriterion2ZeroDuplication:
    def test_chunk_macs_equal_offline_and_buffered_duplicates(self, equivalence_sweep):
        runs, _ = equivalence_sweep
        for r in runs:
            i, led_off, led_str = r["i"], r["led_off"], r["led_str"]
            assert led_str.duplicate_macs == 0, f"config {i}: duplicates in chunk streaming"
            assert led_str.total == led_off.total, (
                f"config {i}: streaming {led_str.total} != offline {led_off.total}"
            )
        checked = 0
        for i in range(0, N_SWEEP_CONFIGS, 10):
            cfg, seconds = _sample_config(i)
            model = init_model(cfg, seed=2000 + i)
            audio = synth_audio(max(seconds, 1.5), seed=3000 + i)
            from streamasr import Vocab

            vocab = Vocab.chars("abc ")
            off = run_offline(audio, model, vocab, decoder="ctc")
            buf = run_buffered(
                audio, model, vocab, BufferedConfig(0.4, 1.6), decoder="ctc"
            )
            assert buf.ledger.duplicate_macs > 0, f"config {i}: buffered shows no duplicates"
            assert buf.ledger.total > off.ledger.total, f"config {i}: buffered not costlier"
            checked += 1
        print(
            f"\n[criterion 2] PASS: chunk streaming total MACs == offline and duplicate "
            f"counter == 0 on all {len(runs)} configs; buffered (buffer = 4 x chunk) "
            f"shows duplicates > 0 and strictly greater totals on {checked} configs"
        )


class TestCriterion3LatencyArithmetic:
    def test_values(self):
        lm4 = LatencyModel(frame_shift_ms=10, downsampling_rate=4, n_layers=17)
        assert latency_ms(AttentionContext.regular(2, 16), lm4).max_ms == 1360.0
        lm8 = LatencyModel(frame_shift_ms=10, downsampling_rate=8, n_layers=17)
        assert latency_ms(AttentionContext.regular(1, 16), lm8).max_ms == 1360.0
        expected = {2: 40.0, 7: 240.0, 14: 520.0, 18: 680.0}
        for c, want in expected.items():
            got = latency_ms(AttentionContext.chunked(c, 1), lm8).avg_ms
            assert got == want, f"chunk {c}: {got} != {want}"
        print(
            "\n[criterion 3] PASS: 1360 ms reproduced for (M=2, N=17, 10 ms, D_r=4) and "
            "(M=1, N=17, 10 ms, D_r=8); chunk averages {40, 240, 520, 680} ms for "
            "C in {2, 7, 14, 18} at D_r=8, all exact"
        )


class TestCriterion4CacheShapeLaws:
    def test_width_laws_and_memory(self):
        for kernel, chunk, left_chunks in ((3, 2, 1), (5, 3, 2), (3, 4, 0)):
            ctx = AttentionContext.chunked(chunk, left_chunks)
            bound = left_chunks * chunk
            rows = np.zeros((0, 4), np.float32)
            conv = np.zeros((kernel - 1, 4), np.float32)
            for i in range(1, 1001):
                block = np.ones((chunk, 4), np.float32)
                # the engine's update: each chunk step settles all inputs so far
                _, rows = cache_append(rows, block, attn_keep_rows(ctx, i * chunk, i * chunk))
                _, conv = cache_append(conv, block, kernel - 1)
                assert conv.shape[0] == kernel - 1
                assert rows.shape[0] == min(bound, i * chunk)

        ctx = AttentionContext.chunked(3, 2)
        cfg = tiny_encoder_config(ctx, n_layers=3, conv_kernel=5, downsampling_rate=2)
        w = init_encoder_weights(cfg, seed=4)
        state = init_state(cfg)
        rng = np.random.default_rng(5)
        step = ctx.chunk * cfg.downsampling_rate
        for i in range(1, 41):
            encode_step(
                rng.standard_normal((step, cfg.n_mels)).astype(np.float32),
                state, w, cfg,
            )
            l_c = min(ctx.left_chunks * ctx.chunk, i * ctx.chunk)
            d, k, n = cfg.d_model, cfg.conv_kernel, cfg.n_layers
            # the row cache holds each key's x1|q|k|v row, 4 * d wide, and
            # each downsampler stage carries one input row: n_mels wide, then d
            expected = (n * d * (k - 1) + n * l_c * 4 * d
                        + cfg.n_mels + d * (cfg.n_stages - 1))
            assert state.float_count() == expected
        print(
            "\n[criterion 4] PASS: 1000-step simulations keep conv cache width == K-1 and "
            "row cache width == min(L_c, i*C); live-session memory matches "
            "L*D*(K-1) + 4*L*C_mha*D + one carried row per downsampler stage exactly"
        )


class TestCriterion5LossOracles:
    def test_enumeration_sweep(self):
        draws = 100
        checked = 0
        for t in range(1, 6):
            for u in range(0, 4):
                for v in (2, 3, 4):
                    for j in range(draws):
                        rng = np.random.default_rng(hash((t, u, v, j)) % 2**32)
                        target = list(rng.integers(1, v, size=u))
                        grid = log_softmax(rng.standard_normal((t, v)))
                        loss, _ = ctc_loss(grid, target)
                        expect = ctc_loss_enumeration(grid, target)
                        if math.isinf(expect):
                            assert math.isinf(loss)
                        else:
                            assert abs(loss - expect) < 1e-8
                        lattice = log_softmax(rng.standard_normal((t, u + 1, v)))
                        rloss, _ = rnnt_loss(lattice, target)
                        rexpect = rnnt_loss_enumeration(lattice, target)
                        assert abs(rloss - rexpect) < 1e-8
                        checked += 1
        print(
            f"\n[criterion 5a] PASS: CTC and RNNT losses match exhaustive path "
            f"enumeration within 1e-8 on {checked} lattices (all T<=5, U<=3, V<=4, "
            f"{draws} draws each)"
        )

    def test_gradients_and_identities(self):
        h = 1e-4
        for seed in range(10):
            rng = np.random.default_rng(7000 + seed)
            t, v = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            u = int(rng.integers(1, 4))
            target = list(rng.integers(1, v, size=u))

            z = rng.standard_normal((t, v))
            loss, grad = ctc_loss(log_softmax(z), target)
            if not math.isinf(loss):
                for i in range(t):
                    for j in range(v):
                        zp, zm = z.copy(), z.copy()
                        zp[i, j] += h
                        zm[i, j] -= h
                        fd = (ctc_loss(log_softmax(zp), target)[0]
                              - ctc_loss(log_softmax(zm), target)[0]) / (2 * h)
                        assert abs(grad[i, j] - fd) <= 1e-3 * max(abs(fd), 1e-3)

            z3 = rng.standard_normal((t, u + 1, v))
            _, rgrad = rnnt_loss(log_softmax(z3), target)
            for _ in range(25):
                i = int(rng.integers(t))
                j = int(rng.integers(u + 1))
                k = int(rng.integers(v))
                zp, zm = z3.copy(), z3.copy()
                zp[i, j, k] += h
                zm[i, j, k] -= h
                fd = (rnnt_loss(log_softmax(zp), target)[0]
                      - rnnt_loss(log_softmax(zm), target)[0]) / (2 * h)
                assert abs(rgrad[i, j, k] - fd) <= 1e-3 * max(abs(fd), 1e-3)

            l0, g0 = rnnt_loss(log_softmax(z3), target)
            l1, g1 = rnnt_loss_fastemit(log_softmax(z3), target, lam=0.0)
            assert l0 == l1 and np.array_equal(g0, g1)
        assert hybrid_loss(2.0, 1.0, 0.3) == 1.6
        print(
            "\n[criterion 5b] PASS: analytic logit gradients match central finite "
            "differences (1e-3 relative); FastEmit at lambda=0 is bit-identical; "
            "hybrid_loss(2.0, 1.0, 0.3) == 1.6"
        )


class TestCriterion6ReceptiveFieldExactness:
    @pytest.mark.parametrize(
        "ctx",
        [
            AttentionContext.zero(left_context=2),
            AttentionContext.regular(1, 2),
            AttentionContext.chunked(3, 1),
        ],
        ids=["zero", "regular", "chunk"],
    )
    def test_exact_fields(self, ctx):
        cfg = tiny_encoder_config(ctx, n_layers=2, downsampling_rate=2, n_mels=8)
        w = init_encoder_weights(cfg, seed=8)
        total_frames, dr = 32, cfg.downsampling_rate
        total_tokens = total_frames // dr  # 16 tokens, exhaustive
        rng = np.random.default_rng(9)
        mel = rng.standard_normal((total_frames, cfg.n_mels)).astype(np.float32)
        base = encode_full(mel, w, cfg)
        fields = [
            receptive_field_frames(ctx, cfg.n_layers, cfg.conv_kernel, dr, t, total_tokens,
                                   total_frames)
            for t in range(total_tokens)
        ]
        for f in range(total_frames):
            bumped = mel.copy()
            bumped[f, 0] += 0.5
            out = encode_full(bumped, w, cfg)
            changed = [t for t in range(total_tokens) if not np.array_equal(out[t], base[t])]
            predicted = [t for t in range(total_tokens) if fields[t][0] <= f <= fields[t][1]]
            assert changed == predicted, f"{ctx.regime} frame {f}: {changed} != {predicted}"
        print(
            f"\n[criterion 6/{ctx.regime}] PASS: perturbing each of {total_frames} mel "
            f"frames changes exactly the tokens inside the predicted "
            f"look-ahead/past-reach bounds ({total_tokens} tokens, exhaustive)"
        )


class TestCriterion7RnntStateCarry:
    def test_split_decoding(self):
        from helpers import random_head

        for seed in range(20):
            _, head = random_head(seed=9000 + seed)
            rng = np.random.default_rng(seed)
            enc = rng.standard_normal((20, 16)).astype(np.float32)
            whole, _ = rnnt_greedy_decode(enc, head)
            for k in (2, 3, 5):
                bounds = np.linspace(0, 20, k + 1).astype(int)
                state, parts = None, []
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    toks, state = rnnt_greedy_decode(
                        enc[lo:hi], head, state, frame_offset=int(lo)
                    )
                    parts += toks
                assert parts == whole, f"seed {seed}, k={k}"
        print(
            "\n[criterion 7] PASS: 20 random decoders, splits into {2,3,5} steps with "
            "saved/restored prediction-net state reproduce single-shot token sequences"
        )


class TestCriterion8DeskScaleStatement:
    def test_smoke_fixture_determinism(self, tmp_path):
        # Benchmark-grade WER numbers need trained weights and thousands of
        # hours of speech, which is NOT reproducible at desk scale. This suite
        # substitutes the property/oracle criteria above plus this determinism
        # smoke test on a randomly initialized model.
        from streamasr import Vocab, read_wav

        wav_path = str(tmp_path / "fixture_2s.wav")
        write_wav(wav_path, synth_audio(2.0, seed=77).samples)
        audio = read_wav(wav_path)
        cfg, _ = _sample_config(7)
        model = init_model(cfg, seed=123)
        vocab = Vocab.chars("abc ")

        stream_a = run_streaming(audio, model, vocab)
        stream_b = run_streaming(audio, model, vocab)
        buf_a = run_buffered(audio, model, vocab, BufferedConfig(0.5, 2.0))
        buf_b = run_buffered(audio, model, vocab, BufferedConfig(0.5, 2.0))
        for dec in ("ctc", "rnnt"):
            assert stream_a.transcripts[dec].to_json() == stream_b.transcripts[dec].to_json()
            assert buf_a.transcripts[dec].to_json() == buf_b.transcripts[dec].to_json()
        print(
            "\n[criterion 8] PASS: benchmark WER figures are out of desk-scale reach "
            "(stated explicitly); randomly initialized model produces byte-identical "
            "cache-aware and buffered transcripts on the bundled 2 s fixture"
        )
