"""Hybrid model bundle: one encoder, a CTC head and an RNNT head, one file.

The weights file is a single container whose header carries the full model
config and whose payload is the concatenated float32 tensors in declaration
order; the same seed always produces a byte-identical file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .container import load_container, save_container
from .context import AttentionContext, LatencyModel
from .decoders import (
    CtcHead,
    HeadConfig,
    RnntHead,
    ctc_weight_spec,
    rnnt_weight_spec,
)
from .encoder import EncoderConfig, EncoderWeights, encoder_weight_spec, init_tensors
from .errors import ConfigError, FormatError
from .numerics import Rng

MODEL_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    vocab_size: int
    d_pred: int = 64
    pred_layers: int = 1
    d_joint: int = 64
    hybrid_alpha: float = 0.3
    fastemit_lambda: float = 0.005
    frame_shift_ms: float = 10.0

    def head_config(self) -> HeadConfig:
        return HeadConfig(
            d_model=self.encoder.d_model,
            vocab_size=self.vocab_size,
            d_pred=self.d_pred,
            pred_layers=self.pred_layers,
            d_joint=self.d_joint,
        )

    def latency_model(self) -> LatencyModel:
        return LatencyModel(
            frame_shift_ms=self.frame_shift_ms,
            downsampling_rate=self.encoder.downsampling_rate,
            n_layers=self.encoder.n_layers,
        )

    def to_dict(self) -> dict:
        return {
            "encoder": self.encoder.to_dict(),
            "vocab_size": self.vocab_size,
            "d_pred": self.d_pred,
            "pred_layers": self.pred_layers,
            "d_joint": self.d_joint,
            "hybrid_alpha": self.hybrid_alpha,
            "fastemit_lambda": self.fastemit_lambda,
            "frame_shift_ms": self.frame_shift_ms,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            encoder=EncoderConfig.from_dict(d["encoder"]),
            vocab_size=d["vocab_size"],
            d_pred=d.get("d_pred", 64),
            pred_layers=d.get("pred_layers", 1),
            d_joint=d.get("d_joint", 64),
            hybrid_alpha=d.get("hybrid_alpha", 0.3),
            fastemit_lambda=d.get("fastemit_lambda", 0.005),
            frame_shift_ms=d.get("frame_shift_ms", 10.0),
        )


@dataclass
class HybridModel:
    cfg: ModelConfig
    encoder: EncoderWeights
    ctc: CtcHead
    rnnt: RnntHead
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def with_attention(self, ctx: AttentionContext) -> "HybridModel":
        """The same weights under another attention mask (bias spans kept)."""
        enc_cfg = self.cfg.encoder.with_attention(ctx)
        return replace(
            self,
            cfg=replace(self.cfg, encoder=enc_cfg),
            encoder=EncoderWeights(enc_cfg, self.encoder.tensors),
        )


def _full_spec(cfg: ModelConfig):
    hc = cfg.head_config()
    return (
        [("enc." + n, s, i) for n, s, i in encoder_weight_spec(cfg.encoder)]
        + ctc_weight_spec(hc)
        + rnnt_weight_spec(hc)
    )


def _assemble(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> HybridModel:
    hc = cfg.head_config()
    enc_tensors = {n[len("enc.") :]: v for n, v in tensors.items() if n.startswith("enc.")}
    rnnt_tensors = {n: v for n, v in tensors.items() if n.startswith("rnnt.")}
    return HybridModel(
        cfg=cfg,
        encoder=EncoderWeights(cfg.encoder, enc_tensors),
        ctc=CtcHead(hc, tensors["ctc.w"], tensors["ctc.b"]),
        rnnt=RnntHead(hc, rnnt_tensors),
        tensors=tensors,
    )


def init_model(cfg: ModelConfig, seed: int) -> HybridModel:
    """Deterministic random initialization: one PRNG stream over all tensors."""
    return _assemble(cfg, init_tensors(_full_spec(cfg), Rng(seed)))


def save_model(model: HybridModel, path: str) -> None:
    header = {"kind": "hybrid_model", "version": MODEL_VERSION, "config": model.cfg.to_dict()}
    save_container(path, header, [(n, model.tensors[n]) for n, _, _ in _full_spec(model.cfg)])


def load_model(path: str) -> HybridModel:
    header, tensors = load_container(path)
    if header.get("kind") != "hybrid_model":
        raise FormatError(f"{path} is not a model file")
    if header.get("version") != MODEL_VERSION:
        raise ConfigError(f"unsupported model version {header.get('version')}")
    cfg = ModelConfig.from_dict(header["config"])
    return _assemble(cfg, tensors)
