"""Passes, timing and figures for one workload run (see run.py)."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
from streamasr import (BufferedConfig, FeatureConfig, StreamingSession, Vocab, encode_full,
                       load_model, log_mel, run_buffered, run_offline, streaming)
from streamasr.ledger import CATEGORIES

import checks
from reftime import PROBE_NOMINAL_S, SpeedSampler
from tracer import ELEMENTWISE, Tracer, summarize
from workload import PACKET_SAMPLES, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
# Tails are this fixed percentile, so their meaning does not change with the
# number of passes a faster program fits into a run; every sample holds at
# least MIN_SAMPLES values, which leaves at least 10 beyond it.
TAIL_PCT = 90
MIN_SAMPLES = 100
# run_offline and run_buffered are single calls of a few hundred ms; each
# pass repeats them so their medians rest on as many samples as the stream's.
REPEATS = 3


class Call(NamedTuple):
    """One feed() or finish() call of a stream."""
    raw_s: float  # wall time less the speed probes that ran inside it
    s: float  # at reference speed
    stepped: bool  # len(session.ledger.steps) grew
    fed: int  # samples fed so far
    emitted: int  # session.state.tokens_emitted afterwards


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


def setup_times(inputs, decoder: str, probes: int) -> list[dict]:
    """Run the set-up probe in `probes` fresh processes, one after another."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), inputs.model_path,
             inputs.vocab_path, decoder],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["factor"] = PROBE_NOMINAL_S / statistics.median(rec["ref_before_s"] + rec["ref_after_s"])
        out.append(rec)
    return out


class Bench:
    """Inputs, loaded program objects and the per-pass work of one workload."""

    def __init__(self, workload, seed: int, audio_seconds: float):
        self.wl = workload
        self.seed = seed
        self.inputs = make_inputs(workload, seed, audio_seconds, str(OUT))
        self.audio = self.inputs.audio
        self.audio_s = self.audio.duration_s
        self.model = load_model(self.inputs.model_path)
        self.vocab = Vocab.load(self.inputs.vocab_path)
        cfg = self.model.cfg
        self.fcfg = FeatureConfig(n_mels=cfg.encoder.n_mels, frame_shift_ms=cfg.frame_shift_ms)
        self.enc_full = encode_full(log_mel(self.audio, self.fcfg), self.model.encoder,
                                    cfg.encoder)
        rng = np.random.default_rng([seed, 2])
        sizes = rng.integers(1, 4001, size=len(self.audio.samples) // 1000 + 2)
        self.irregular_cuts = np.cumsum(sizes)
        self.ambiguous_frames = 0

    # -- timed units -----------------------------------------------------

    def stream(self) -> tuple[object, list[tuple]]:
        """Feed fixed packets back to back, then finish(). Returns the result
        and, per call, (start, end, stepped, samples fed, tokens_emitted)."""
        sess = StreamingSession(self.model, self.vocab, decoder=self.wl.decoder)
        samples = self.audio.samples
        log = []
        clock = time.perf_counter
        result = None
        for i in [*range(0, len(samples), PACKET_SAMPLES), None]:
            n0 = len(sess.ledger.steps)
            if i is None:
                t0 = clock()
                result = sess.finish()
                t1 = clock()
                fed = len(samples)
            else:
                fed = min(i + PACKET_SAMPLES, len(samples))
                packet = samples[i:fed]
                t0 = clock()
                sess.feed(packet)
                t1 = clock()
            log.append((t0, t1, len(sess.ledger.steps) > n0, fed, sess.state.tokens_emitted))
        return result, log

    def offline(self):
        return run_offline(self.audio, self.model, self.vocab, decoder=self.wl.decoder)

    def buffered(self):
        # The buffered baseline decodes with CTC in every workload: its RNNT
        # prediction net restarts in each buffer, and on the random head that
        # makes RNNT emission a property of the seed (20 to 117 tokens per 6 s
        # on seeds 1-5), which the baseline's time would inherit.
        return run_buffered(self.audio, self.model, self.vocab, BufferedConfig(),
                            decoder="ctc")

    # -- checks ----------------------------------------------------------

    def second_session(self):
        """Irregular packets; captures every encode_step output of the session."""
        outputs = []
        original = streaming.encode_step

        def capture(*args, **kwargs):
            enc_new, state = original(*args, **kwargs)
            outputs.append(enc_new.copy())
            return enc_new, state

        streaming.encode_step = capture
        try:
            sess = StreamingSession(self.model, self.vocab, decoder=self.wl.decoder)
            for piece in np.split(self.audio.samples, self.irregular_cuts):
                if len(piece):
                    sess.feed(piece)
            result = sess.finish()
        finally:
            streaming.encode_step = original
        return result, outputs

    def check(self, streamed, feed_log, offline, buffered) -> list[str]:
        """feed_log: (samples fed, tokens_emitted) after each call of the stream."""
        second, step_outputs = self.second_session()
        enc_cfg = self.model.cfg.encoder
        bad = checks.streamed_equals_offline(streamed, offline)
        bad += checks.encode_step_equals_full(step_outputs, self.enc_full)
        bad += checks.ledger_laws(self.wl.regime, streamed.ledger, offline.ledger,
                                  buffered.ledger)
        bad += checks.packet_invariance(streamed, second)
        bad += checks.no_token_before_audio(
            streamed, feed_log, enc_cfg.downsampling_rate,
            self.fcfg.shift_samples, self.fcfg.window_samples)
        ctc_bad, self.ambiguous_frames = checks.ctc_path_recomputed(
            streamed.transcripts["ctc"], self.enc_full, self.model.ctc.w, self.model.ctc.b,
            self.vocab.blank_id)
        return bad + ctc_bad

    # -- open-loop token latency ----------------------------------------

    def token_latencies(self, result, calls: list[Call]) -> tuple[list[float], list[float]]:
        """Replay the calls on a real-time schedule; returns token latencies
        and how late each call started, both in ms.

        Each packet is due when its audio ends; a call starts at the later of
        that instant and the end of the previous call. A token at first_frame
        f is emitted at the end of the first call after which more than f
        frames are settled, and waits from the instant frame f's audio is in.
        """
        sr = self.audio.sample_rate
        shift, window = self.fcfg.shift_samples, self.fcfg.window_samples
        dr = self.model.cfg.encoder.downsampling_rate
        ends, late = [], []
        prev_end = 0.0
        for c in calls:
            due = c.fed / sr
            start = max(due, prev_end)
            prev_end = start + c.s
            ends.append(prev_end)
            late.append(1e3 * (start - due))
        lat = []
        for tr in result.transcripts.values():
            i = 0
            for tok in tr.tokens:
                while calls[i].emitted <= tok.first_frame:
                    i += 1
                arrived = checks.frame_end_sample(tok.first_frame, dr, shift, window) / sr
                lat.append(1e3 * (ends[i] - arrived))
        return lat, late


def same_result(a, b) -> bool:
    return (a.ledger.to_dict() == b.ledger.to_dict()
            and all(a.transcripts[k].to_json() == b.transcripts[k].to_json()
                    for k in a.transcripts))


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, t0, time.perf_counter()


def calls_of(log, sampler: SpeedSampler) -> list[Call]:
    return [Call(*sampler.normalize(t0, t1), stepped, fed, emitted)
            for t0, t1, stepped, fed, emitted in log]


def run_untraced(bench: Bench, seconds: float, probes: int, min_samples: int) -> dict:
    setups = setup_times(bench.inputs, bench.wl.decoder, probes)
    passes, failures = [], []
    t_start = None
    while True:
        gc.collect()
        with SpeedSampler() as sampler:
            streamed, log = bench.stream()
            offlines = [timed(bench.offline) for _ in range(REPEATS)]
            buffereds = [timed(bench.buffered) for _ in range(REPEATS)]
        offline, buffered = offlines[0][0], buffereds[0][0]
        bad = bench.check(streamed, [(f, e) for *_, f, e in log], offline, buffered)
        if any(not same_result(offline, o[0]) for o in offlines[1:]):
            bad.append("run_offline gave different results on the same input")
        if any(not same_result(buffered, b[0]) for b in buffereds[1:]):
            bad.append("run_buffered gave different results on the same input")
        failures.append(bad)
        if t_start is None:  # warm-up pass: checked, not timed into the figures
            t_start = time.perf_counter()
            continue
        calls = calls_of(log, sampler)
        lat, late = bench.token_latencies(streamed, calls)
        passes.append({
            "raw_stream_s": sum(c.raw_s for c in calls), "stream_s": sum(c.s for c in calls),
            "offline": [sampler.normalize(t0, t1) for _, t0, t1 in offlines],
            "buffered": [sampler.normalize(t0, t1, "large") for _, t0, t1 in buffereds],
            "steps_ms": [1e3 * c.s for c in calls if c.stepped],
            "raw_steps_ms": [1e3 * c.raw_s for c in calls if c.stepped],
            "token_ms": lat, "late_ms": late,
        })
        n_steps = sum(len(p["steps_ms"]) for p in passes)
        n_tokens = sum(len(p["token_ms"]) for p in passes)
        if (time.perf_counter() - t_start >= seconds and n_steps >= min_samples
                and n_tokens >= min_samples):
            break
    a = bench.audio_s
    steps = [x for p in passes for x in p["steps_ms"]]
    raw_steps = [x for p in passes for x in p["raw_steps_ms"]]
    tokens = [x for p in passes for x in p["token_ms"]]
    late = [x for p in passes for x in p["late_ms"]]

    def med(key):
        return statistics.median(p[key] for p in passes)

    def med_rep(key, i):  # i = 0: raw work seconds, 1: at reference speed
        return statistics.median(r[i] for p in passes for r in p[key])

    metrics = {
        "setup_s": (statistics.median(s["total_s"] * s["factor"] for s in setups), "s",
                    statistics.median(s["total_s"] for s in setups)),
        "stream_rtf": (med("stream_s") / a, "s/s", med("raw_stream_s") / a),
        "step_p50_ms": (statistics.median(steps), "ms", statistics.median(raw_steps)),
        "step_tail_ms": (percentile(steps, TAIL_PCT), "ms", percentile(raw_steps, TAIL_PCT)),
        "token_mean_ms": (statistics.fmean(tokens), "ms", None),
        "token_tail_ms": (percentile(tokens, TAIL_PCT), "ms", None),
        "offline_rtf": (med_rep("offline", 1) / a, "s/s", med_rep("offline", 0) / a),
        "buffered_rtf": (med_rep("buffered", 1) / a, "s/s", med_rep("buffered", 0) / a),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB", None),
    }
    notes = {
        "passes_timed": len(passes), "step_samples": len(steps), "token_samples": len(tokens),
        "token_p50_ms": statistics.median(tokens),
        "schedule_late_ms": {"p50": statistics.median(late), "max": max(late)},
        "ctc_ambiguous_frames": bench.ambiguous_frames,
    }
    return {"metrics": metrics, "failures": failures, "notes": notes}


def run_traced(bench: Bench, seconds: float, probes: int) -> dict:
    setups = setup_times(bench.inputs, bench.wl.decoder, probes)
    bench.stream()  # warm-up
    rounds, failures = [], []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        tracer = Tracer()
        with SpeedSampler() as sampler:
            # the untraced stream goes first in even rounds, last in odd ones
            if len(rounds) % 2 == 0:
                plain, plain_log = bench.stream()
            tracer.install()
            try:
                tracer.stream = "stream"
                traced, traced_log = bench.stream()
                tracer.stream = "offline"
                _, *off_t = timed(bench.offline)
                tracer.stream = "buffered"
                buffered, *buf_t = timed(bench.buffered)
            finally:
                tracer.uninstall()
            if len(rounds) % 2 == 1:
                plain, plain_log = bench.stream()
        plain_calls, traced_calls = calls_of(plain_log, sampler), calls_of(traced_log, sampler)
        st = summarize(tracer.spans, "stream", sampler)
        bad = []
        expect = plain.ledger.to_dict()
        got = dict(st["macs"], total=sum(st["macs"][c] for c in CATEGORIES),
                   steps=st["calls"].get("encoder.encode_step", 0))
        if got != expect:
            bad.append(f"trace ledger sums {got} != untraced ledger {expect}")
        if checks.packet_invariance(plain, traced):
            bad.append("tracing changed the transcripts or the ledger")
        failures.append(bad)
        traced_s = sum(c.s for c in traced_calls)
        off_raw, off_s = sampler.normalize(*off_t)
        buf_raw, buf_s = sampler.normalize(*buf_t, "large")
        rounds.append({"st": st, "f": traced_s / sum(c.raw_s for c in traced_calls),
                       "plain_s": sum(c.s for c in plain_calls), "traced_s": traced_s,
                       "off": summarize(tracer.spans, "offline", sampler), "f_off": off_s / off_raw,
                       "buf": summarize(tracer.spans, "buffered", sampler), "f_buf": buf_s / buf_raw,
                       "ledger": expect, "buffered_dup": buffered.ledger.duplicate_macs})
        if time.perf_counter() - t_start >= seconds:
            break
    os.makedirs(OUT, exist_ok=True)
    trace_path = OUT / f"trace-{bench.wl.name}-{bench.seed}.jsonl"
    tracer.write(str(trace_path))  # the last round's spans

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def ms(key, *names):
        return med(lambda r: sum(r["st"][key].get(n, 0.0) for n in names) * r["f"])

    def calls(name):
        return rounds[0]["st"]["calls"].get(name, 0)

    def setup_ms(key):
        return statistics.median(1e3 * s[key] * s["factor"] for s in setups)

    led = rounds[0]["ledger"]
    frames = bench.enc_full.shape[0]
    n_tok = {d: len(traced.transcripts[d].tokens) if d in traced.transcripts else 0
             for d in ("ctc", "rnnt")}
    kernel_ms = ms("total_ms", "numerics.matmul", *ELEMENTWISE)
    m = {
        "model.load_ms": (setup_ms("load_model_s"), "ms"),
        "streaming.session_init_ms": (setup_ms("session_s"), "ms"),
        "features.ms": (med(lambda r: r["st"]["layer_ms"].get("features", 0.0) * r["f"]), "ms"),
        "features.calls": (calls("features.push"), "count"),
        "encoder.ms": (ms("total_ms", "encoder.encode_step"), "ms"),
        "encoder.self_ms": (ms("self_ms", "encoder.encode_step", "encoder.downsample_segment"),
                            "ms"),
        "encoder.downsampler_ms": (ms("total_ms", "encoder.downsample_segment"), "ms"),
        "encoder.steps": (calls("encoder.encode_step"), "count"),
        "encoder.offline_ms": (med(lambda r: r["off"]["total_ms"]["encoder.encode_full"]
                                   * r["f_off"]), "ms"),
        "encoder.buffered_ms": (med(lambda r: r["buf"]["total_ms"]["encoder.encode_full"]
                                    * r["f_buf"]), "ms"),
        "numerics.matmul_ms": (ms("total_ms", "numerics.matmul"), "ms"),
        "numerics.matmul_calls": (calls("numerics.matmul"), "count"),
        "numerics.elementwise_ms": (ms("total_ms", *ELEMENTWISE), "ms"),
        "numerics.macs_per_s": (led["total"] / (kernel_ms / 1e3), "MAC/s"),
        "decoders.ms": (med(lambda r: r["st"]["layer_ms"].get("decoders", 0.0) * r["f"]), "ms"),
        "decoders.ctc_ms": (ms("total_ms", "decoders.ctc_logprobs", "decoders.ctc_push"), "ms"),
        "decoders.joint_calls": (calls("decoders.rnnt_joint_logits"), "count"),
        "decoders.pred_calls": (calls("decoders.rnnt_pred_advance"), "count"),
        "decoders.rnnt_tokens_per_frame": (n_tok["rnnt"] / frames, "1/frame"),
        "decoders.ctc_tokens_per_frame": (n_tok["ctc"] / frames, "1/frame"),
        "streaming.self_ms": (ms("self_ms", "streaming.feed", "streaming.finish"), "ms"),
        "cache.state_bytes_max": (rounds[0]["st"]["state_bytes_max"], "bytes"),
        "ledger.macs_total": (led["total"], "MAC"),
        "ledger.macs_attention": (led["attention"], "MAC"),
        "ledger.macs_conv": (led["conv"], "MAC"),
        "ledger.macs_ffn": (led["ffn"], "MAC"),
        "ledger.macs_downsampler": (led["downsampler"], "MAC"),
        "ledger.macs_decoder": (led["decoder"], "MAC"),
        "ledger.macs_duplicate": (led["duplicate"], "MAC"),
        "ledger.useful_share": (1.0 - led["duplicate"] / led["total"], "ratio"),
        "ledger.buffered_macs_duplicate": (rounds[0]["buffered_dup"], "MAC"),
        "trace.overhead_ms": (med(lambda r: 1e3 * (r["traced_s"] - r["plain_s"])), "ms"),
    }
    metrics = {k: (v, unit, None) for k, (v, unit) in m.items()}
    notes = {"rounds": len(rounds), "trace_file": str(trace_path.relative_to(ROOT)),
             "stream_ms_untraced": med(lambda r: 1e3 * r["plain_s"])}
    return {"metrics": metrics, "failures": failures, "notes": notes}


def run_one(name: str, seed: int, seconds: float, trace: bool, audio_seconds: float,
            probes: int, min_samples: int) -> dict:
    bench = Bench(WORKLOADS[name], seed, audio_seconds)
    try:
        if trace:
            out = run_traced(bench, seconds, probes)
        else:
            out = run_untraced(bench, seconds, probes, min_samples)
    finally:
        for path in (bench.inputs.model_path, bench.inputs.vocab_path):
            os.remove(path)
    out.update(workload=name, seed=seed, trace=int(trace), attempted=len(out["failures"]),
               failed=sum(1 for f in out["failures"] if f), audio_s=bench.audio_s,
               calibration=bench.inputs.calibration)
    return out


def report(out: dict) -> None:
    print(f"# {out['workload']} seed={out['seed']} trace={out['trace']} "
          f"audio={out['audio_s']:.1f}s attempted={out['attempted']} failed={out['failed']}")
    for name, (value, unit, raw) in out["metrics"].items():
        extra = f"   (raw {raw:.6g} {unit})" if raw is not None else ""
        print(f"  {name:32s} {value:.6g} {unit}{extra}")
    for key, value in out["notes"].items():
        print(f"  [{key}] {json.dumps(value)}")
    if out["calibration"]:
        print(f"  [rnnt_calibration] {json.dumps(out['calibration'])}")
    for i, bad in enumerate(out["failures"]):
        for msg in bad:
            print(f"  FAILED pass {i}: {msg}")
