#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and report, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --workload chunk_ctc --seeds 1-10 --seconds 20

Runs are made one after another in fresh processes. Prints one line per
metric, with raw seconds where they exist, and a JSON summary as the last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    runs = []
    for seed in seeds_from(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=str(HERE.parent), capture_output=True, text=True, timeout=600,
        )
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = HERE / "out" / f"result-{args.workload}-{seed}-trace0.json"
        raw = {k: v[2] for k, v in json.loads(detail.read_text())[0]["metrics"].items()}
        runs.append((seed, last, raw))
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']} wall={time.perf_counter() - t0:.1f}s", flush=True)
    summary = {}
    for name in runs[0][1]["metrics"]:
        values = [r[1]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        raws = [r[2][name] for r in runs if r[2][name] is not None]
        summary[name] = {"median": med, "spread": (q3 - q1) / med,
                         "raw_median": statistics.median(raws) if raws else None}
        raw_txt = f"  raw median {summary[name]['raw_median']:.6g}" if raws else ""
        print(f"{name:16s} median {med:.6g}  spread {100 * (q3 - q1) / med:5.1f}%{raw_txt}")
    fails = sorted({r[1]["failed"] / r[1]["attempted"] for r in runs})
    print(json.dumps({"workload": args.workload, "failed_shares": fails, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
