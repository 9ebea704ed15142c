"""Spans around the program's public functions, recorded from the benchmark.

``Tracer.install()`` replaces each traced function, in every ``streamasr``
module that refers to it, with a wrapper that records a span: name, start,
end, parent span and the id of the stream it belongs to. Wrappers of the
functions that take a ledger also record the MACs the call added, so the
per-category sums over spans can be held against the ledger itself.
Spans stay in memory until ``write()``. ``uninstall()`` restores every
original.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

from streamasr import decoders, encoder, features, numerics, streaming
from streamasr.ledger import CATEGORIES

# (span name, owner, attribute). The span name is the layer (module) name,
# a dot, and the function; owners are modules or classes.
TRACED = [
    ("streaming.feed", streaming.StreamingSession, "feed"),
    ("streaming.finish", streaming.StreamingSession, "finish"),
    ("features.push", features.StreamingFeatureExtractor, "push"),
    ("features.log_mel", features, "log_mel"),
    ("encoder.encode_step", encoder, "encode_step"),
    ("encoder.encode_full", encoder, "encode_full"),
    ("encoder.downsample_segment", encoder, "downsample_segment"),
    ("decoders.ctc_logprobs", decoders, "ctc_logprobs"),
    ("decoders.ctc_push", decoders.CtcIncrementalDecoder, "push"),
    ("decoders.rnnt_greedy_decode", decoders, "rnnt_greedy_decode"),
    ("decoders.rnnt_joint_logits", decoders, "rnnt_joint_logits"),
    ("decoders.rnnt_pred_advance", decoders, "rnnt_pred_advance"),
    ("numerics.matmul", numerics, "matmul"),
    ("numerics.layer_norm", numerics, "layer_norm"),
    ("numerics.depthwise_conv1d_causal", numerics, "depthwise_conv1d_causal"),
    ("numerics.swish", numerics, "swish"),
    ("numerics.glu", numerics, "glu"),
    ("numerics.log_softmax", numerics, "log_softmax"),
]
ELEMENTWISE = {
    "numerics.layer_norm", "numerics.depthwise_conv1d_causal", "numerics.swish",
    "numerics.glu", "numerics.log_softmax",
}
# Calls that add to a ComputeLedger passed as `rec`.
LEDGER_FIELDS = CATEGORIES + ("duplicate",)
WITH_LEDGER = {"encoder.encode_step", "decoders.ctc_logprobs", "decoders.rnnt_greedy_decode"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "stream", "macs", "state_bytes")

    def __init__(self, name, start, parent, stream):
        self.name, self.start, self.end = name, start, start
        self.parent, self.stream = parent, stream
        self.macs = None
        self.state_bytes = None

    def to_dict(self, index: int) -> dict:
        d = {"id": index, "name": self.name, "start_ns": self.start, "end_ns": self.end,
             "parent": self.parent, "stream": self.stream}
        if self.macs is not None:
            d["macs"] = self.macs
        if self.state_bytes is not None:
            d["state_bytes"] = self.state_bytes
        return d


def _ledger_mark(rec) -> tuple[int, tuple[int, ...]]:
    """(steps so far, fields of the open step): enough to take a delta later."""
    if rec is None or not rec.steps:
        return 0, (0,) * len(LEDGER_FIELDS)
    step = rec.steps[-1]
    return len(rec.steps), tuple(getattr(step, f) for f in LEDGER_FIELDS)


def _ledger_delta(rec, mark) -> dict[str, int]:
    """MACs added since `mark`; the ledger only appends steps and adds to the last."""
    n0, last0 = mark
    tail = rec.steps[max(n0 - 1, 0):] if rec is not None else []
    return {f: sum(getattr(s, f) for s in tail) - b for f, b in zip(LEDGER_FIELDS, last0)}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stream = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        sig = inspect.signature(fn) if name in WITH_LEDGER else None

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0, stack[-1] if stack else -1, self.stream)
            spans.append(span)
            stack.append(idx)
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            rec = bound.arguments.get("rec") if bound is not None else None
            mark = _ledger_mark(rec) if sig is not None else None
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if sig is not None:
                    span.macs = _ledger_delta(rec, mark)
                    if name == "encoder.encode_step":
                        span.state_bytes = 4 * bound.arguments["state"].float_count()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "streamasr" or n.startswith("streamasr.")]
        for name, owner, attr in TRACED:
            original = inspect.getattr_static(owner, attr)
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                f.write(json.dumps(span.to_dict(i), sort_keys=True) + "\n")


def summarize(spans: list[Span], stream, sampler) -> dict:
    """Per-layer figures for the spans of one stream id, in work ms: span
    durations less the speed probes `sampler` ran inside them."""
    own = [i for i, s in enumerate(spans) if s.stream == stream]
    work = {i: spans[i].end - spans[i].start
            - 1e9 * sampler.probe_time(spans[i].start / 1e9, spans[i].end / 1e9) for i in own}
    child_ns: dict[int, float] = {}
    for i in own:
        p = spans[i].parent
        if p >= 0:
            child_ns[p] = child_ns.get(p, 0) + work[i]
    total: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    top: dict[str, float] = {}  # time of spans whose parent is another layer
    for i in own:
        s = spans[i]
        dur = work[i] / 1e6
        total[s.name] = total.get(s.name, 0.0) + dur
        self_ms[s.name] = self_ms.get(s.name, 0.0) + dur - child_ns.get(i, 0) / 1e6
        calls[s.name] = calls.get(s.name, 0) + 1
        layer = s.name.split(".")[0]
        if s.parent < 0 or spans[s.parent].name.split(".")[0] != layer:
            top[layer] = top.get(layer, 0.0) + dur
    macs = {f: 0 for f in LEDGER_FIELDS}
    state_bytes = [spans[i].state_bytes for i in own if spans[i].state_bytes is not None]
    for i in own:
        if spans[i].macs is not None:
            for f in LEDGER_FIELDS:
                macs[f] += spans[i].macs[f]
    return {"total_ms": total, "self_ms": self_ms, "calls": calls, "layer_ms": top,
            "macs": macs, "state_bytes_max": max(state_bytes, default=0)}
