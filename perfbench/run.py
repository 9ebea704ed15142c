#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of cache-aware streaming.

    python3 perfbench/run.py --workload chunk_ctc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One pass streams the workload's audio through a StreamingSession in 20 ms
packets fed back to back, runs run_offline and run_buffered on the same
audio, feeds a second session in irregular packets and checks the results.
Each pass is one operation; a failed check fails the pass. The first pass
warms up and is not timed into the figures. With --trace 1 the passes
instead pair an untraced stream with a traced one and report per-layer
figures. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread of load: set before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("chunk_ctc", "chunk_hybrid", "regular_ctc")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, traced and untraced, on a few seconds of audio")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    src = ROOT / "src"
    if not (src / "streamasr" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from harness import MIN_SAMPLES, OUT, SETUP_PROBES, report, run_one
    from workload import AUDIO_SECONDS, SMOKE_AUDIO_SECONDS

    if args.smoke:
        outs = [run_one(name, args.seed, 0.0, trace, SMOKE_AUDIO_SECONDS, 1, 0)
                for name in WORKLOAD_NAMES for trace in (False, True)]
        metrics = {}
    else:
        outs = [run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                        AUDIO_SECONDS, SETUP_PROBES, MIN_SAMPLES)]
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in outs[0]["metrics"].items()}
    for out in outs:
        report(out)
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    tails_ok = all(o["metrics"]["step_tail_ms"][0] >= o["metrics"]["step_p50_ms"][0]
                   and o["metrics"]["token_tail_ms"][0] >= o["metrics"]["token_mean_ms"][0]
                   for o in outs if not o["trace"])
    if not tails_ok:
        print("  FAILED: a tail reads below its median or mean", file=sys.stderr)
    correct = failed == 0 and tails_ok
    os.makedirs(OUT, exist_ok=True)
    tag = "smoke" if args.smoke else f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump(outs, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
