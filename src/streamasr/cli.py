"""Command line: initialize models, transcribe, compare inference modes.

Every failure exits nonzero after printing a single line `error:<code>: ...`
on stderr. Given the same seed and inputs, outputs are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

from .context import AttentionContext, feasible_regular_latencies
from .decoders import Vocab
from .encoder import EncoderConfig
from .errors import (
    ConfigError,
    FeasibilityError,
    InputFileError,
    StreamAsrError,
)
from .features import read_wav
from .metrics import wer
from .model import HybridModel, ModelConfig, init_model, load_model, save_model
from .streaming import (
    BufferedConfig,
    run_buffered,
    run_offline,
    run_streaming,
)


@dataclass
class RunManifest:
    """Validated file inputs for a run."""

    model_path: str
    vocab_path: str
    wav_path: str | None = None

    def __post_init__(self):
        for p in (self.model_path, self.vocab_path, self.wav_path):
            if p is not None and not os.path.exists(p):
                raise InputFileError(f"missing file: {p}")

    def load(self) -> tuple[HybridModel, Vocab]:
        model = load_model(self.model_path)
        vocab = Vocab.load(self.vocab_path)
        if vocab.size != model.cfg.vocab_size:
            raise ConfigError(
                f"vocab has {vocab.size} tokens, model expects {model.cfg.vocab_size}"
            )
        return model, vocab


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise InputFileError(f"missing config: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as ex:
            raise ConfigError(f"config {path} is not valid JSON: {ex}") from ex


def _attention_from_args(args, base: dict | None) -> dict:
    a = dict(base or {"regime": "chunk", "chunk": 4, "left_chunks": 1})
    if args.regime:
        a["regime"] = args.regime
    if args.chunk_tokens is not None:
        a["chunk"] = args.chunk_tokens
    if args.left_chunks is not None:
        a["left_chunks"] = args.left_chunks
    if args.lookahead_m is not None:
        a["m"] = args.lookahead_m
    if args.left_context is not None:
        a["left_context"] = args.left_context
    return a


def cmd_init_model(args) -> int:
    raw = _load_config(args.config)
    enc = dict(raw.get("encoder", {}))
    for flag, key in (
        ("n_layers", "n_layers"),
        ("d_model", "d_model"),
        ("n_heads", "n_heads"),
        ("conv_kernel", "conv_kernel"),
        ("downsampling_rate", "downsampling_rate"),
    ):
        v = getattr(args, flag)
        if v is not None:
            enc[key] = v
    enc.setdefault("n_layers", 2)
    enc.setdefault("d_model", 32)
    enc.setdefault("n_heads", 4)
    enc.setdefault("conv_kernel", 3)
    enc.setdefault("downsampling_rate", 4)
    enc["attention"] = _attention_from_args(args, enc.get("attention"))
    if args.vocab:
        vocab_size = Vocab.load(args.vocab).size
    elif args.vocab_size:
        vocab_size = args.vocab_size
    elif "vocab_size" in raw:
        vocab_size = raw["vocab_size"]
    else:
        raise ConfigError("provide --vocab, --vocab-size or a vocab_size config field")
    cfg = ModelConfig(
        encoder=EncoderConfig.from_dict(enc),
        vocab_size=vocab_size,
        d_pred=args.d_pred or raw.get("d_pred", 64),
        pred_layers=raw.get("pred_layers", 1),
        d_joint=raw.get("d_joint", 64),
        hybrid_alpha=args.alpha if args.alpha is not None else raw.get("hybrid_alpha", 0.3),
        fastemit_lambda=(
            args.fastemit_lambda
            if args.fastemit_lambda is not None
            else raw.get("fastemit_lambda", 0.005)
        ),
        frame_shift_ms=raw.get("frame_shift_ms", 10.0),
    )
    model = init_model(cfg, args.seed)
    save_model(model, args.out)
    print(args.out)
    return 0


def _resolve_context(args, model: HybridModel) -> HybridModel:
    cfg = model.cfg.encoder
    override = any(
        v is not None
        for v in (args.regime, args.chunk_tokens, args.left_chunks, args.lookahead_m,
                  args.left_context, args.chunk_ms)
    )
    if not override:
        return model
    a = cfg.attention
    base = {
        "regime": a.regime, "m": a.m, "left_context": a.left_context,
        "chunk": a.chunk, "left_chunks": a.left_chunks,
    }
    a_dict = _attention_from_args(args, base)
    if args.chunk_ms is not None:
        lm = model.cfg.latency_model()
        if a_dict["regime"] == "regular":
            per_m = lm.n_layers * lm.token_ms
            if args.chunk_ms % per_m != 0:
                feasible = feasible_regular_latencies(lm, m_max=8)
                raise FeasibilityError(
                    f"{args.chunk_ms} ms is not reachable with regular look-ahead; "
                    f"feasible: {[int(v) for v in feasible]}"
                )
            a_dict["m"] = int(args.chunk_ms // per_m)
            if a_dict.get("left_context") is None:
                a_dict["left_context"] = 16
        elif a_dict["regime"] == "chunk":
            if args.chunk_ms % lm.token_ms != 0:
                raise FeasibilityError(
                    f"{args.chunk_ms} ms is not a multiple of the {lm.token_ms} ms token"
                )
            a_dict["chunk"] = int(args.chunk_ms // lm.token_ms)
        else:
            raise FeasibilityError("--chunk-ms applies to the regular and chunk regimes")
    ctx = AttentionContext(
        regime=a_dict["regime"], m=a_dict.get("m", 0),
        left_context=a_dict.get("left_context"),
        chunk=a_dict.get("chunk", 1), left_chunks=a_dict.get("left_chunks", 0),
    )
    return model.with_attention(ctx)


def _run_mode(mode: str, audio, model, vocab, decoder: str, args):
    if mode == "offline":
        return run_offline(audio, model, vocab, decoder=decoder)
    if mode == "buffered":
        bcfg = BufferedConfig(
            chunk_seconds=args.chunk_seconds, buffer_seconds=args.buffer_seconds
        )
        return run_buffered(audio, model, vocab, bcfg, decoder=decoder)
    if mode == "streaming":
        return run_streaming(audio, model, vocab, decoder=decoder)
    raise ConfigError(f"unknown mode {mode!r}")


def cmd_transcribe(args) -> int:
    manifest = RunManifest(args.model, args.vocab, args.wav)
    model, vocab = manifest.load()
    model = _resolve_context(args, model)
    audio = read_wav(args.wav)
    result = _run_mode(args.mode, audio, model, vocab, args.decoder, args)
    payload = result.transcripts[args.decoder].to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(payload + "\n")
    else:
        print(payload)
    return 0


_COMPARE_COLUMNS = ("mode", "decoder", "wer_percent", "avg_latency_ms",
                    "macs_total", "macs_duplicate")


def cmd_compare(args) -> int:
    manifest = RunManifest(args.model, args.vocab, args.wav)
    model, vocab = manifest.load()
    audio = read_wav(args.wav)
    reference = args.reference
    if args.reference_file:
        with open(args.reference_file, "r", encoding="utf-8") as f:
            reference = f.read().strip()
    decoders = ["ctc", "rnnt"] if args.decoder == "both" else [args.decoder]
    rows = []
    for mode in args.modes.split(","):
        mode = mode.strip()
        if mode in ("zero", "regular", "chunk"):
            ns = argparse.Namespace(
                regime=mode, chunk_tokens=args.chunk_tokens, left_chunks=args.left_chunks,
                lookahead_m=args.lookahead_m, left_context=args.left_context,
                chunk_ms=args.chunk_ms,
            )
            run_model = _resolve_context(ns, model)
            result = run_streaming(audio, run_model, vocab, decoder=args.decoder)
        else:
            result = _run_mode(mode, audio, model, vocab, args.decoder, args)
        for dec in decoders:
            tr = result.transcripts[dec]
            wer_cell = "NA"
            if reference:
                wer_cell = f"{wer(reference, tr.text).wer_percent:.2f}"
            lat = "NA" if tr.avg_latency_ms is None else f"{tr.avg_latency_ms:.1f}"
            rows.append(
                (tr.mode, dec, wer_cell, lat, str(result.ledger.total),
                 str(result.ledger.duplicate_macs))
            )
    print("\t".join(_COMPARE_COLUMNS))
    for row in rows:
        print("\t".join(row))
    return 0


def _add_context_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--regime", choices=["zero", "regular", "chunk"])
    p.add_argument("--chunk-tokens", type=int, dest="chunk_tokens")
    p.add_argument("--left-chunks", type=int, dest="left_chunks")
    p.add_argument("--lookahead-m", type=int, dest="lookahead_m")
    p.add_argument("--left-context", type=int, dest="left_context")
    p.add_argument("--chunk-ms", type=int, dest="chunk_ms")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamasr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-model", help="write deterministically initialized weights")
    p.add_argument("--config", help="model config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab", help="vocab file (sets vocab size)")
    p.add_argument("--vocab-size", type=int, dest="vocab_size")
    p.add_argument("--n-layers", type=int, dest="n_layers")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--n-heads", type=int, dest="n_heads")
    p.add_argument("--conv-kernel", type=int, dest="conv_kernel")
    p.add_argument("--downsampling-rate", type=int, dest="downsampling_rate")
    p.add_argument("--d-pred", type=int, dest="d_pred")
    p.add_argument("--alpha", type=float)
    p.add_argument("--fastemit-lambda", type=float, dest="fastemit_lambda")
    _add_context_flags(p)
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser("transcribe", help="transcribe a wav file")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--mode", choices=["offline", "streaming", "buffered"], default="streaming")
    p.add_argument("--decoder", choices=["ctc", "rnnt"], default="ctc")
    p.add_argument("--chunk-seconds", type=float, default=2.0, dest="chunk_seconds")
    p.add_argument("--buffer-seconds", type=float, default=4.0, dest="buffer_seconds")
    p.add_argument("--out")
    _add_context_flags(p)
    p.set_defaults(func=cmd_transcribe)

    p = sub.add_parser("compare", help="run several modes, print a TSV report")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--modes", default="offline,chunk,buffered")
    p.add_argument("--decoder", choices=["ctc", "rnnt", "both"], default="both")
    p.add_argument("--reference")
    p.add_argument("--reference-file", dest="reference_file")
    p.add_argument("--chunk-seconds", type=float, default=2.0, dest="chunk_seconds")
    p.add_argument("--buffer-seconds", type=float, default=4.0, dest="buffer_seconds")
    _add_context_flags(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("STREAMASR_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StreamAsrError as ex:
        print(f"error:{ex.code}: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
