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
from dataclasses import replace

from .context import CHUNK, REGULAR, ZERO, feasible_regular_latencies
from .decoders import Vocab
from .errors import (
    ArgumentError,
    ConfigError,
    FeasibilityError,
    FormatError,
    InputFileError,
    StreamAsrError,
)
from .features import read_wav
from .metrics import wer
from .model import HybridModel, ModelConfig, config_from_dict, init_model, load_model, save_model
from .streaming import (
    BufferedConfig,
    run_buffered,
    run_offline,
    run_streaming,
)


def _load_config(path: str | None) -> object:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as ex:
        raise InputFileError(f"cannot read config {path}: {ex}") from ex
    except (UnicodeDecodeError, json.JSONDecodeError) as ex:
        raise ConfigError(f"config {path} is not valid JSON: {ex}") from ex


def _overlay(what: str, raw, flags: dict, defaults: dict | None = None) -> dict:
    """The given flags over the config object `raw`, over `defaults`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"the {what} config must be a JSON object, got {raw!r}")
    return {**(defaults or {}), **raw, **{k: v for k, v in flags.items() if v is not None}}


def _context_flags(args) -> dict:
    """The attention flags that were given, keyed by AttentionContext field."""
    flags = {"regime": args.regime, "chunk": args.chunk_tokens, "left_chunks": args.left_chunks,
             "m": args.lookahead_m, "left_context": args.left_context}
    return {k: v for k, v in flags.items() if v is not None}


# init-model's defaults for the fields EncoderConfig requires, and for attention.
_INIT_ENCODER = {"n_layers": 2, "d_model": 32, "n_heads": 4, "conv_kernel": 3,
                 "downsampling_rate": 4}
_INIT_ATTENTION = {"regime": CHUNK, "chunk": 4, "left_chunks": 1}


def cmd_init_model(args) -> int:
    vocab_size = Vocab.load(args.vocab).size if args.vocab else args.vocab_size
    raw = _overlay("model", _load_config(args.config), {
        "vocab_size": vocab_size, "d_pred": args.d_pred, "hybrid_alpha": args.alpha,
        "fastemit_lambda": args.fastemit_lambda})
    enc = raw["encoder"] = _overlay("encoder", raw.get("encoder", {}),
                                    {k: getattr(args, k) for k in _INIT_ENCODER}, _INIT_ENCODER)
    enc["attention"] = _overlay("attention", enc.get("attention", _INIT_ATTENTION),
                                _context_flags(args))
    model = init_model(config_from_dict(ModelConfig, raw), args.seed)
    save_model(model, args.out)
    print(args.out)
    return 0


def _resolve_context(model: HybridModel, flags: dict, chunk_ms: int | None) -> HybridModel:
    """The model under its own attention context with the given fields replaced.

    `chunk_ms` sets the regular look-ahead m or the chunk size, and a regular
    context without a left_context gets 16.
    """
    if not flags and chunk_ms is None:
        return model
    ctx = model.cfg.encoder.attention
    flags = dict(flags)
    regime = flags.get("regime", ctx.regime)
    if chunk_ms is not None:
        lm = model.cfg.latency_model()
        if regime == REGULAR:
            per_m = lm.n_layers * lm.token_ms
            if chunk_ms % per_m != 0:
                feasible = feasible_regular_latencies(lm, m_max=8)
                raise FeasibilityError(
                    f"{chunk_ms} ms is not reachable with regular look-ahead; "
                    f"feasible: {[int(v) for v in feasible]}"
                )
            flags["m"] = int(chunk_ms // per_m)
        elif regime == CHUNK:
            if chunk_ms % lm.token_ms != 0:
                raise FeasibilityError(
                    f"{chunk_ms} ms is not a multiple of the {lm.token_ms} ms token"
                )
            flags["chunk"] = int(chunk_ms // lm.token_ms)
        else:
            raise FeasibilityError("--chunk-ms applies to the regular and chunk regimes")
    if regime == REGULAR and flags.get("left_context", ctx.left_context) is None:
        flags["left_context"] = 16
    return model.with_attention(replace(ctx, **flags))


def _run_mode(mode: str, audio, model, vocab, decoder: str, args):
    if mode == "offline":
        return run_offline(audio, model, vocab, decoder=decoder)
    if mode == "buffered":
        bcfg = BufferedConfig(chunk_seconds=args.chunk_seconds, buffer_seconds=args.buffer_seconds)
        return run_buffered(audio, model, vocab, bcfg, decoder=decoder)
    return run_streaming(audio, model, vocab, decoder=decoder)


def cmd_transcribe(args) -> int:
    model, vocab = load_model(args.model), Vocab.load(args.vocab)
    model = _resolve_context(model, _context_flags(args), args.chunk_ms)
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
_MODES = ("offline", "streaming", "buffered")
_REGIMES = (ZERO, REGULAR, CHUNK)  # compare's streaming rows under each regime


def cmd_compare(args) -> int:
    modes = [mode.strip() for mode in args.modes.split(",")]
    for mode in modes:
        if mode not in _MODES + _REGIMES:
            raise ConfigError(f"unknown mode {mode!r}")
    model, vocab = load_model(args.model), Vocab.load(args.vocab)
    audio = read_wav(args.wav)
    reference = args.reference
    if args.reference_file:
        try:
            with open(args.reference_file, "r", encoding="utf-8") as f:
                reference = f.read().strip()
        except UnicodeDecodeError as ex:
            raise FormatError(f"{args.reference_file}: reference is not UTF-8: {ex}") from ex
    decoders = ["ctc", "rnnt"] if args.decoder == "both" else [args.decoder]
    flags = _context_flags(args)
    resolved = None  # the model under the flags, for the offline/buffered/streaming rows
    rows = []
    for mode in modes:
        if mode in _REGIMES:
            run_model = _resolve_context(model, {**flags, "regime": mode}, args.chunk_ms)
            result = run_streaming(audio, run_model, vocab, decoder=args.decoder)
        else:
            if resolved is None:
                resolved = _resolve_context(model, flags, args.chunk_ms)
            result = _run_mode(mode, audio, resolved, vocab, args.decoder, args)
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
    p.add_argument("--regime", choices=_REGIMES)
    p.add_argument("--chunk-tokens", type=int, dest="chunk_tokens")
    p.add_argument("--left-chunks", type=int, dest="left_chunks")
    p.add_argument("--lookahead-m", type=int, dest="lookahead_m")
    p.add_argument("--left-context", type=int, dest="left_context")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that run a model: inputs, buffered windows, context."""
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--chunk-seconds", type=float, default=2.0, dest="chunk_seconds")
    p.add_argument("--buffer-seconds", type=float, default=4.0, dest="buffer_seconds")
    _add_context_flags(p)
    p.add_argument("--chunk-ms", type=int, dest="chunk_ms")


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError where argparse would print its usage and exit 2;
    subcommand parsers are made of the same class."""

    def error(self, message: str):
        raise ArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamasr")
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
    _add_run_flags(p)
    p.add_argument("--mode", choices=_MODES, default="streaming")
    p.add_argument("--decoder", choices=["ctc", "rnnt"], default="ctc")
    p.add_argument("--out")
    p.set_defaults(func=cmd_transcribe)

    p = sub.add_parser("compare", help="run several modes, print a TSV report")
    _add_run_flags(p)
    p.add_argument("--modes", default="offline,chunk,buffered")
    p.add_argument("--decoder", choices=["ctc", "rnnt", "both"], default="both")
    p.add_argument("--reference")
    p.add_argument("--reference-file", dest="reference_file")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("STREAMASR_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except StreamAsrError as ex:
        print(f"error:{ex.code}: {ex}", file=sys.stderr)
        return 1
    except OSError as ex:  # a file the command reads or writes
        print(f"error:{InputFileError.code}: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
