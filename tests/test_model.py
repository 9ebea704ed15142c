import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamasr import (
    AttentionContext,
    EncoderConfig,
    ModelConfig,
    config_from_dict,
    init_model,
    load_model,
    save_model,
)
from streamasr.errors import ConfigError, FormatError

from helpers import tiny_model

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
        frame_shift_ms=draw(number.filter(lambda v: v > 0)),
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
        assert open(a, "rb").read() == open(b, "rb").read()


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
