"""Hybrid model bundle: one encoder, a CTC head and an RNNT head, one file.

The weights file is a single container whose header carries the full model
config and whose payload is the concatenated float32 tensors in declaration
order; the same seed always produces a byte-identical file.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .container import load_container, save_container
from .context import AttentionContext, LatencyModel, check_fields, field_types
from .decoders import (
    CtcHead,
    HeadConfig,
    RnntHead,
    ctc_weight_spec,
    rnnt_weight_spec,
)
from .encoder import EncoderConfig, EncoderWeights, encoder_weight_spec, init_tensors
from .errors import ConfigError, FormatError
from .features import FeatureConfig
from .numerics import Rng, check_tensors

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

    def __post_init__(self):
        check_fields(self)
        if not all(map(math.isfinite, (self.hybrid_alpha, self.fastemit_lambda))):
            raise ConfigError(f"loss weights must be finite, got hybrid_alpha "
                              f"{self.hybrid_alpha} and fastemit_lambda {self.fastemit_lambda}")
        # a frame shift or size the features, the latency or the heads cannot use fails here
        self.feature_config()
        self.latency_model()
        self.head_config()

    def head_config(self) -> HeadConfig:
        return HeadConfig(
            d_model=self.encoder.d_model,
            vocab_size=self.vocab_size,
            d_pred=self.d_pred,
            pred_layers=self.pred_layers,
            d_joint=self.d_joint,
        )

    def feature_config(self) -> FeatureConfig:
        """The log-mel features this model's encoder reads."""
        return FeatureConfig(n_mels=self.encoder.n_mels, frame_shift_ms=self.frame_shift_ms)

    def latency_model(self) -> LatencyModel:
        return LatencyModel(
            frame_shift_ms=self.frame_shift_ms,
            downsampling_rate=self.encoder.downsampling_rate,
            n_layers=self.encoder.n_layers,
        )


@dataclass
class HybridModel:
    cfg: ModelConfig
    encoder: EncoderWeights
    ctc: CtcHead
    rnnt: RnntHead
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def with_attention(self, ctx: AttentionContext) -> "HybridModel":
        """The same weights under another attention mask (bias spans kept).

        The bias table must reach the mask's furthest future offset; past
        offsets beyond `bias_past` share the table's last past entry.
        """
        bias_future = self.cfg.encoder.bias_future
        if ctx.future_span() > bias_future:
            raise ConfigError(
                f"the bias table reaches {bias_future} future tokens, the mask "
                f"{ctx} needs {ctx.future_span()}"
            )
        encoder = replace(self.cfg.encoder, attention=ctx)
        return replace(self, cfg=replace(self.cfg, encoder=encoder))


def config_from_dict(cls, d):
    """Decode the JSON object `d` into the config dataclass `cls`.

    Nested config objects decode recursively, and an absent field takes its
    dataclass default. Raises ConfigError on a non-object, an unknown key or
    a missing required key; the dataclass checks the values, so a file and a
    direct construction meet one rule.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} config must be a JSON object, got {d!r}")
    accepted = field_types(cls)
    unknown = sorted(set(d) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} config key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.default_factory is MISSING and f.name not in d]
    if missing:
        raise ConfigError(f"{cls.__name__} config is missing {', '.join(missing)}")
    kwargs = dict(d)
    for name, v in d.items():
        if isinstance(v, dict) and is_dataclass(nested := accepted[name][0]):
            kwargs[name] = config_from_dict(nested, v)
    return cls(**kwargs)


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
        encoder=EncoderWeights(enc_tensors),
        ctc=CtcHead(hc, tensors["ctc.w"], tensors["ctc.b"]),
        rnnt=RnntHead(hc, rnnt_tensors),
        tensors=tensors,
    )


def init_model(cfg: ModelConfig, seed: int) -> HybridModel:
    """Deterministic random initialization: one PRNG stream over all tensors."""
    return _assemble(cfg, init_tensors(_full_spec(cfg), Rng(seed)))


def save_model(model: HybridModel, path: str) -> None:
    header = {"kind": "hybrid_model", "version": MODEL_VERSION, "config": asdict(model.cfg)}
    save_container(path, header, [(n, model.tensors[n]) for n, _, _ in _full_spec(model.cfg)])


def load_model(path: str) -> HybridModel:
    header, tensors = load_container(path)
    if header.get("kind") != "hybrid_model":
        raise FormatError(f"{path} is not a model file")
    if header.get("version") != MODEL_VERSION:
        raise ConfigError(f"unsupported model version {header.get('version')}")
    cfg = config_from_dict(ModelConfig, header.get("config"))
    # every layer has a tensor: refuse a header that claims more before building the spec
    n_layers = cfg.encoder.n_layers + cfg.pred_layers
    if n_layers > len(tensors):
        raise FormatError(f"{path}: the config has {n_layers} layers, the file "
                          f"{len(tensors)} tensors")
    check_tensors(tensors, _full_spec(cfg), f"{path}:", FormatError)
    for name, t in tensors.items():
        if not np.isfinite(t).all():
            raise FormatError(f"{path}: tensor {name} holds NaN or infinite values")
    return _assemble(cfg, tensors)
