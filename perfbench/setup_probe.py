"""Set-up time of a fresh process: import, load_model, Vocab.load, first session.

Run as ``python3 setup_probe.py SRC MODEL VOCAB DECODER``; prints one JSON
object with raw seconds per stage and the reference-loop times taken just
before and after.
numpy is imported before the clock starts: its import is not the program's.
"""

import json
import os
import sys
import time

import numpy  # noqa: F401

src, model_path, vocab_path, decoder = sys.argv[1:5]
sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

from reftime import reference_loop  # noqa: E402

ref_before = [reference_loop() for _ in range(3)]
t0 = time.perf_counter()
import streamasr  # noqa: E402

t1 = time.perf_counter()
model = streamasr.load_model(model_path)
t2 = time.perf_counter()
vocab = streamasr.Vocab.load(vocab_path)
t3 = time.perf_counter()
streamasr.StreamingSession(model, vocab, decoder=decoder)
t4 = time.perf_counter()
ref_after = [reference_loop() for _ in range(3)]
print(json.dumps({
    "import_s": t1 - t0, "load_model_s": t2 - t1, "vocab_s": t3 - t2,
    "session_s": t4 - t3, "total_s": t4 - t0,
    "ref_before_s": ref_before, "ref_after_s": ref_after,
}))
