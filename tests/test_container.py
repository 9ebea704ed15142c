import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamasr
from streamasr import Vocab
from streamasr.container import MAGIC, load_container, save_container
from streamasr.errors import FormatError, InputFileError

from helpers import tiny_model

SHAPES = st.lists(st.integers(0, 4), min_size=0, max_size=3)
TENSORS = st.lists(
    st.tuples(st.text(min_size=1, max_size=6), SHAPES, st.integers(0, 2**32 - 1)),
    max_size=5, unique_by=lambda t: t[0],
)


@settings(max_examples=40, deadline=None)
@given(tensors=TENSORS)
def test_float32_tensors_round_trip(tensors, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("c") / "c.bin")
    arrays = [(name, np.random.default_rng(seed).standard_normal(shape).astype(np.float32))
              for name, shape, seed in tensors]
    save_container(path, {"kind": "test"}, arrays)
    header, got = load_container(path)
    assert header == {"kind": "test"}
    assert list(got) == [name for name, _ in arrays]
    for name, arr in arrays:
        assert got[name].dtype == np.float32 and got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()
    # what was read writes the same bytes
    path2 = path + ".2"
    save_container(path2, header, list(got.items()))
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def _write(path, header, body: bytes) -> None:
    hjson = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", len(hjson)) + hjson + body)


def _entry(name, shape, offset, dtype="f4"):
    return {"name": name, "shape": shape, "dtype": dtype, "offset": offset}


TWO = np.arange(6, dtype=np.float32).tobytes()  # two (3,) float32 tensors


@pytest.mark.parametrize("tensors,body", [
    ([_entry("a", [1], 0, "f8")], np.zeros(1).tobytes()),
    ([_entry("a", [1], 0, "i8")], np.zeros(1, np.int64).tobytes()),
    ([_entry("a", [3], 0), _entry("b", [3], -12)], TWO),
    ([_entry("a", [3], 0), _entry("b", [3], 14)], TWO),
    ([_entry("a", [3], 0), _entry("b", [3], 8)], TWO),
    ([_entry("a", [3], 4)], TWO[:16]),
    ([_entry("a", [4], 0), _entry("b", [3], 16)], TWO),
    ([_entry("a", [3], 0), _entry("b", [-1, -3], 12)], TWO),
    ([_entry("a", [3], 0), _entry("b", [3.0], 12)], TWO),
    ([_entry("a", [3], 0)], TWO),
    ([_entry("a", [3], 0), _entry("b", [3], 12)], TWO + b"\0"),
    ([_entry("a", [3], 0), {"name": "b", "shape": [3], "dtype": "f4"}], TWO),
    ([_entry("a", [3], False), _entry("b", [3], 12)], TWO),
    ([_entry("a", [3], 0), _entry("b", [3], 12.0)], TWO),
    ([_entry("a", [3], 0), _entry("a", [3], 12)], TWO),
    ([_entry("a", [3], 0), 7], TWO),
], ids=["f8", "i8", "negative-offset", "misaligned-offset", "overlapping-offset",
        "first-offset-not-zero", "shape-past-payload", "negative-shape", "float-shape",
        "trailing-tensor-bytes", "trailing-byte", "no-offset", "bool-offset", "float-offset",
        "name-twice", "entry-not-object"])
def test_index_that_save_never_writes_is_format_error(tensors, body, tmp_path):
    path = str(tmp_path / "c.bin")
    _write(path, {"tensors": tensors}, body)
    with pytest.raises(FormatError):
        load_container(path)


def test_valid_handwritten_index_loads(tmp_path):
    # the negative cases above differ from this file in one field
    path = str(tmp_path / "c.bin")
    _write(path, {"tensors": [_entry("a", [3], 0), _entry("b", [3], 12)]}, TWO)
    _, got = load_container(path)
    assert got["b"].tolist() == [3.0, 4.0, 5.0]


@pytest.mark.parametrize("raw", [
    b"SASR0002" + struct.pack("<I", 2) + b"{}",
    MAGIC[:6],
    MAGIC + struct.pack("<I", 100) + b'{"tensors":[]}',
    MAGIC + struct.pack("<I", 2) + b"[]",
    MAGIC + struct.pack("<I", 2) + b"{}",
    MAGIC + struct.pack("<I", 15) + b'{"tensors":{}} ',
    MAGIC + struct.pack("<I", 3) + b"\xff{}",
], ids=["bad-magic", "short-file", "header-past-eof", "non-object-header", "no-tensor-list",
        "tensors-not-a-list", "header-not-utf8"])
def test_bad_framing_is_format_error(raw, tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        load_container(str(path))


def test_saving_a_name_twice_is_format_error(tmp_path):
    path = tmp_path / "c.bin"
    with pytest.raises(FormatError):
        save_container(str(path), {}, [("a", np.zeros(2, np.float32))] * 2)
    assert not path.exists()


@pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int64, np.int32, np.bool_])
def test_saving_a_non_float32_tensor_is_format_error(dtype, tmp_path):
    path = tmp_path / "c.bin"
    with pytest.raises(FormatError):
        save_container(str(path), {}, [("a", np.zeros(2, np.float32)), ("b", np.zeros(2, dtype))])
    assert not path.exists()


@pytest.mark.parametrize("path", [-1, 1, True, False, 2.5, None, b"model.bin"])
def test_a_path_argument_that_is_not_a_path_is_input_file_error(path, monkeypatch):
    # open() would take an int or a bool as a file descriptor: nothing may reach it
    def no_open(*args, **kwargs):
        raise AssertionError(f"open{args} reached")

    monkeypatch.setattr("builtins.open", no_open)
    model, vocab = tiny_model()
    for call in (lambda: streamasr.read_wav(path), lambda: streamasr.load_model(path),
                 lambda: streamasr.save_model(model, path), lambda: Vocab.load(path),
                 lambda: vocab.save(path)):
        with pytest.raises(InputFileError):
            call()
