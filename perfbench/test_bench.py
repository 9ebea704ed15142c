"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from harness import Bench  # noqa: E402
from workload import SMOKE_AUDIO_SECONDS, WORKLOADS  # noqa: E402


def test_smoke_runs_every_workload_with_all_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    # three workloads, each with a warm-up pass, a timed pass and a traced round
    assert last == {"correct": True, "attempted": 9, "failed": 0, "metrics": {}}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "chunk_ctc", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_reject_altered_outputs():
    bench = Bench(WORKLOADS["chunk_ctc"], 3, SMOKE_AUDIO_SECONDS)
    try:
        check_altered_outputs(bench)
    finally:
        os.remove(bench.inputs.model_path)
        os.remove(bench.inputs.vocab_path)


def check_altered_outputs(bench):
    streamed, log = bench.stream()
    offline, buffered = bench.offline(), bench.buffered()
    feed_log = [(fed, emitted) for *_, fed, emitted in log]
    assert bench.check(streamed, feed_log, offline, buffered) == []

    moved = copy.deepcopy(streamed)
    tok = moved.transcripts["ctc"].tokens[0]
    tok.token_id = tok.token_id % 28 + 1
    assert checks.streamed_equals_offline(moved, offline)
    assert checks.packet_invariance(streamed, moved)
    assert checks.ctc_path_recomputed(moved.transcripts["ctc"], bench.enc_full,
                                      bench.model.ctc.w, bench.model.ctc.b, 0)[0]

    early = [(fed - 400, emitted) for fed, emitted in feed_log]
    cfg = bench.model.cfg.encoder
    assert checks.no_token_before_audio(streamed, early, cfg.downsampling_rate,
                                        bench.fcfg.shift_samples, bench.fcfg.window_samples)

    steps = bench.second_session()[1]
    steps[-1] = steps[-1].copy()
    steps[-1][0, 0] = -steps[-1][0, 0]
    assert checks.encode_step_equals_full(steps, bench.enc_full)

    dup = copy.deepcopy(streamed.ledger)
    dup.steps[1].duplicate += 1
    assert checks.ledger_laws("chunk", dup, offline.ledger, buffered.ledger)
    assert checks.ledger_laws("chunk", streamed.ledger, offline.ledger, offline.ledger)
