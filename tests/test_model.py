import json
import os
from dataclasses import asdict, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamasr import (
    AttentionContext,
    BufferedConfig,
    EncoderConfig,
    FeatureConfig,
    LatencyModel,
    ModelConfig,
    config_from_dict,
    init_model,
    load_model,
    save_model,
)
from streamasr.decoders import CtcHead, HeadConfig, RnntHead, RnntState, rnnt_greedy_decode
from streamasr.encoder import EncoderWeights, encode_full
from streamasr.errors import ConfigError, FormatError, ShapeError

from helpers import (
    init_encoder_weights,
    random_head,
    random_mel,
    tiny_encoder_config,
    tiny_model,
    traced_peak,
)

contexts = st.one_of(
    st.builds(AttentionContext.zero, st.none() | st.integers(0, 12)),
    st.builds(AttentionContext.regular, st.integers(0, 3), st.integers(0, 12)),
    st.builds(AttentionContext.chunked, st.integers(1, 6), st.integers(0, 3)),
)


@st.composite
def model_configs(draw):
    n_heads = draw(st.integers(1, 3))
    encoder = EncoderConfig(
        n_layers=draw(st.integers(1, 2)),
        d_model=n_heads * draw(st.integers(1, 4)),
        n_heads=n_heads,
        conv_kernel=draw(st.integers(1, 5)),
        downsampling_rate=draw(st.sampled_from([1, 2, 4, 8])),
        attention=draw(contexts),
        ffn_expansion=draw(st.integers(1, 4)),
        n_mels=draw(st.integers(1, 8)),
        bias_past=draw(st.none() | st.integers(0, 16)),
        bias_future=draw(st.none() | st.integers(0, 8)),
    )
    number = st.floats(0.0, 100.0, allow_nan=False) | st.integers(0, 100)
    return ModelConfig(
        encoder=encoder,
        vocab_size=draw(st.integers(2, 6)),
        d_pred=draw(st.integers(1, 6)),
        pred_layers=draw(st.integers(1, 2)),
        d_joint=draw(st.integers(1, 6)),
        hybrid_alpha=draw(number),
        fastemit_lambda=draw(number),
        # the features need a shift of one sample (1/16 ms) up to their 25 ms window
        frame_shift_ms=draw(st.floats(0.0625, 25.0) | st.integers(1, 25)),
    )


class TestConfigRoundTrip:
    @given(model_configs())
    def test_json_roundtrip(self, cfg):
        assert config_from_dict(ModelConfig, json.loads(json.dumps(asdict(cfg)))) == cfg

    @settings(max_examples=25, deadline=None)
    @given(model_configs(), st.integers(0, 2**31 - 1))
    def test_save_load_save_byte_identical(self, tmp_path_factory, cfg, seed):
        d = tmp_path_factory.mktemp("model")
        a, b = str(d / "a.bin"), str(d / "b.bin")
        save_model(init_model(cfg, seed), a)
        model = load_model(a)
        assert model.cfg == cfg
        save_model(model, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestConfigFromDict:
    def test_absent_fields_take_dataclass_defaults(self):
        ctx = config_from_dict(AttentionContext, {"regime": "chunk", "chunk": 4})
        assert ctx == AttentionContext.chunked(4, 0)

    @pytest.mark.parametrize("d", [
        None,
        {},
        {"regime": "chunk", "chunk": True},
        {"regime": "chunk", "chunk": 2.0},
        {"regime": 0},
        {"regime": "zero", "left_context": "4"},
        {"regime": "chunk", "left_chunk": 1},
    ], ids=["null", "missing-regime", "bool-chunk", "float-chunk", "int-regime",
            "str-left_context", "unknown-key"])
    def test_rejects(self, d):
        with pytest.raises(ConfigError):
            config_from_dict(AttentionContext, d)


ENCODER = EncoderConfig(n_layers=2, d_model=16, n_heads=2, conv_kernel=3, downsampling_rate=4,
                        attention=AttentionContext.chunked(2, 1))
# a valid construction of every config class
VALID = {
    AttentionContext: {"regime": "chunk", "chunk": 2, "left_chunks": 1},
    EncoderConfig: {f.name: getattr(ENCODER, f.name) for f in fields(ENCODER)},
    ModelConfig: {"encoder": ENCODER, "vocab_size": 5},
    HeadConfig: {"d_model": 16, "vocab_size": 5},
    FeatureConfig: {},
    LatencyModel: {"frame_shift_ms": 10.0, "downsampling_rate": 4, "n_layers": 2},
    BufferedConfig: {},
}
# the config classes a model file's header holds
DECODED = (AttentionContext, EncoderConfig, ModelConfig)


def _wrong_values(cls):
    """(field, value) pairs the field's annotation does not allow: a bool, a
    dict, a str where no str belongs, a float where an int belongs and None
    where the annotation has no None."""
    for f in fields(cls):
        annotation = f.type  # the source text, as the modules use postponed annotations
        yield f, True
        yield f, {}
        if annotation != "str":
            yield f, "x"
        if "int" in annotation.split(" | "):
            yield f, 2.5
        if "None" not in annotation:
            yield f, None


WRONG = [(cls, f.name, v) for cls in VALID for f, v in _wrong_values(cls)]


@pytest.mark.parametrize("cls, name, value", WRONG,
                         ids=[f"{c.__name__}.{n}-{type(v).__name__}" for c, n, v in WRONG])
def test_a_field_of_the_wrong_type_is_config_error(cls, name, value):
    with pytest.raises(ConfigError, match=rf"^{cls.__name__}\.{name} must be .+, got ") as direct:
        cls(**{**VALID[cls], name: value})
    if cls not in DECODED or (isinstance(value, dict) and is_dataclass(VALID[cls].get(name))):
        return  # a JSON object decodes into a nested config
    d = {k: asdict(v) if is_dataclass(v) else v for k, v in VALID[cls].items()}
    with pytest.raises(ConfigError) as decoded:
        config_from_dict(cls, json.loads(json.dumps({**d, name: value})))
    assert str(decoded.value) == str(direct.value)


def test_integers_are_stored_as_ints_and_numbers_as_given():
    lm = LatencyModel(10.5, np.int64(4), np.int32(2))
    assert (type(lm.frame_shift_ms), type(lm.downsampling_rate), type(lm.n_layers)) == (
        float, int, int)
    assert type(ModelConfig(ENCODER, 5, frame_shift_ms=10).frame_shift_ms) is int
    assert type(FeatureConfig(sample_rate=np.int16(8000)).sample_rate) is int


FLOAT_FIELDS = [(cls, f.name) for cls in VALID for f in fields(cls) if f.type == "float"]


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
@pytest.mark.parametrize("convert", [np.float32, lambda v: np.int64(round(v)),
                                     lambda v: Fraction(v).limit_denominator(8)],
                         ids=["float32", "int64", "Fraction"])
def test_a_number_field_stores_other_real_types_as_floats(tmp_path, cls, name, convert):
    # a numpy scalar or a Fraction is stored as a float, so a model file's
    # JSON header can hold it and reads back equal
    value = convert(getattr(cls(**VALID[cls]), name))
    cfg = cls(**{**VALID[cls], name: value})
    assert type(getattr(cfg, name)) is float and getattr(cfg, name) == float(value)
    if cls is ModelConfig:
        path = str(tmp_path / "m.bin")
        save_model(init_model(cfg, 0), path)
        assert load_model(path).cfg == cfg


@pytest.mark.parametrize("kw", [{"vocab_size": 1}, {"d_pred": 0}, {"pred_layers": 0},
                                {"d_joint": 0}], ids=lambda kw: next(iter(kw)))
def test_head_sizes_fail_at_model_config_construction(kw):
    with pytest.raises(ConfigError):
        ModelConfig(ENCODER, **{"vocab_size": 5, **kw})


def test_head_width_must_be_positive():
    with pytest.raises(ConfigError):
        HeadConfig(0, 5)


@pytest.mark.parametrize("shift", [0, 0.01, -1.0, float("nan"), float("inf"), 26.0])
def test_frame_shift_the_features_cannot_use_is_config_error(shift):
    enc = {"n_layers": 1, "d_model": 4, "n_heads": 1, "conv_kernel": 1, "downsampling_rate": 1,
           "attention": {"regime": "zero"}}
    with pytest.raises(ConfigError):
        config_from_dict(ModelConfig, {"encoder": enc, "vocab_size": 3, "frame_shift_ms": shift})


@pytest.mark.parametrize("field", ["hybrid_alpha", "fastemit_lambda"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_loss_weight_is_config_error(field, value):
    enc = {"n_layers": 1, "d_model": 4, "n_heads": 1, "conv_kernel": 1, "downsampling_rate": 1,
           "attention": {"regime": "zero"}}
    with pytest.raises(ConfigError, match=field):
        config_from_dict(ModelConfig, {"encoder": enc, "vocab_size": 3, field: value})


class TestNonFiniteWeights:
    @pytest.mark.parametrize("name", ["enc.layers.1.attn.wv", "ctc.b", "rnnt.joint_out.w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_load_rejects(self, tmp_path, name, bad):
        model, _ = tiny_model()
        t = model.tensors[name].copy()
        t.flat[t.size // 2] = bad
        model.tensors[name] = t
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        with pytest.raises(FormatError, match=name):
            load_model(path)


def test_load_model_peak_is_the_file_and_its_tensors(tmp_path):
    # the file's bytes plus one copy of its tensors; slicing the payload out
    # of the file would add a third
    cfg = ModelConfig(
        encoder=EncoderConfig(n_layers=4, d_model=64, n_heads=4, conv_kernel=9,
                              downsampling_rate=4, attention=AttentionContext.chunked(4, 4)),
        vocab_size=29,
    )
    path = str(tmp_path / "m.bin")
    save_model(init_model(cfg, 7), path)
    load_model(path)  # first-call allocations are not the loader's
    model, peak = traced_peak(lambda: load_model(path))
    assert all(t.base is None and t.flags.writeable for t in model.tensors.values())
    assert peak <= 2.2 * os.path.getsize(path)


def _encode_edited(name, value):
    """encode_full on the tiny encoder's weights with tensor `name` replaced
    by `value`, or removed when it is None."""
    cfg = tiny_encoder_config()
    tensors = dict(init_encoder_weights(cfg, seed=1).tensors)
    tensors[name] = value
    if value is None:
        del tensors[name]
    encode_full(random_mel(16, cfg.n_mels, seed=2), EncoderWeights(tensors), cfg)


def _decode_from(hidden, joint_pred):
    _, rnnt = random_head()
    rnnt_greedy_decode(np.ones((2, rnnt.hc.d_model)), rnnt, RnntState([hidden], joint_pred))


def _rnnt_head_with(name, value):
    _, rnnt = random_head()
    RnntHead(rnnt.hc, {**rnnt.tensors, name: value})


# Model objects the program did not build from one spec: each is checked
# where it enters (the encoder's weights at their first step, the heads when
# built, an RNNT state when passed), before a kernel reads it.
MALFORMED_MODEL_OBJECTS = {
    "weights-for-d_model-16-under-d_model-32": lambda: encode_full(
        random_mel(16, 8, seed=2), init_encoder_weights(tiny_encoder_config(), seed=1),
        tiny_encoder_config(d_model=32)),
    "missing-conv-dw": lambda: _encode_edited("layers.0.conv.dw", None),
    "tensor-the-spec-does-not-name": lambda: _encode_edited("layers.2.conv.dw",
                                                            np.zeros((16, 3), np.float32)),
    "product-weight": lambda: _encode_edited("layers.0.ffn1.w1", np.zeros((16, 63), np.float32)),
    "norm-gain": lambda: _encode_edited("layers.1.attn.ln_g", np.ones(15, np.float32)),
    "depthwise-weight": lambda: _encode_edited("layers.0.conv.dw", np.zeros((16, 2), np.float32)),
    "float64-weight": lambda: _encode_edited("ds.proj.w", np.zeros((16, 16))),
    "ctc-w": lambda: CtcHead(random_head()[0].hc, np.zeros((16, 4), np.float32),
                             random_head()[0].b),
    "ctc-b": lambda: CtcHead(random_head()[0].hc, random_head()[0].w, np.zeros(6, np.float32)),
    "rnnt-joint-out-w": lambda: _rnnt_head_with("rnnt.joint_out.w", np.zeros((8, 4), np.float32)),
    "rnnt-state-hidden-row": lambda: _decode_from(np.zeros(7, np.float32), np.zeros(8)),
    "rnnt-state-joint-pred": lambda: _decode_from(np.zeros(8, np.float32), np.zeros(9)),
}


@pytest.mark.parametrize("build", MALFORMED_MODEL_OBJECTS.values(),
                         ids=MALFORMED_MODEL_OBJECTS.keys())
def test_a_malformed_model_object_is_shape_error(build):
    with pytest.raises(ShapeError):
        build()
