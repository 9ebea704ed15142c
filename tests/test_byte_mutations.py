"""Byte-level damage to every file the package reads.

Each property flips a bit of, truncates, extends or splices the bytes of a
valid file. The public reader then either succeeds or raises a
StreamAsrError; no other exception gets out. The CLI turns each such error
into one `error:<code>:` line and exit status 1.
"""

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamasr import AttentionContext, Vocab, load_model, read_wav, save_model
from streamasr.cli import main
from streamasr.errors import StreamAsrError

from helpers import synth_audio, tiny_model, write_wav

MUTATION_SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def mutations(draw, raw: bytes) -> bytes:
    """raw with one bit flipped, cut short, extended, or a span replaced.

    Positions lean towards the first 512 bytes, where the headers are, but
    reach the whole file.
    """
    n = len(raw)
    pos = st.one_of(st.integers(0, min(n, 512)), st.integers(0, n))
    kind = draw(st.sampled_from(["flip", "truncate", "extend", "splice"]))
    if kind == "flip":
        i, bit = min(draw(pos), n - 1), draw(st.integers(0, 7))
        return raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1 :]
    if kind == "truncate":
        return raw[: min(draw(pos), n - 1)]
    if kind == "extend":
        return raw + draw(st.binary(min_size=1, max_size=64))
    lo = draw(pos)
    hi = draw(st.integers(lo, min(n, lo + 64)))
    return raw[:lo] + draw(st.binary(max_size=64)) + raw[hi:]


def _mutated_file(tmp_path_factory, data, raw: bytes, name: str) -> str:
    path = str(tmp_path_factory.mktemp("m") / name)
    with open(path, "wb") as f:
        f.write(data.draw(mutations(raw)))
    return path


def _read_or_stream_asr_error(read, path: str) -> None:
    try:
        read(path)
    except StreamAsrError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("valid")
    model, vocab = tiny_model(AttentionContext.regular(1, 3), seed=12)
    paths = {"model": str(tmp / "model.bin"), "vocab": str(tmp / "vocab.txt"),
             "wav": str(tmp / "audio.wav")}
    save_model(model, paths["model"])
    vocab.save(paths["vocab"])
    write_wav(paths["wav"], synth_audio(0.3, seed=70).samples)
    raw = {k: Path(p).read_bytes() for k, p in paths.items()}
    return paths, raw


@pytest.mark.parametrize("kind,read", [("model", load_model), ("vocab", Vocab.load),
                                       ("wav", read_wav)])
@MUTATION_SETTINGS
@given(data=st.data())
def test_damaged_file_reads_or_is_stream_asr_error(files, kind, read, data, tmp_path_factory):
    _, raw = files
    _read_or_stream_asr_error(read, _mutated_file(tmp_path_factory, data, raw[kind], kind))


# capsys is shared by the examples; each one drains it before it runs
@settings(MUTATION_SETTINGS, max_examples=10,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_transcribe_on_a_damaged_model_prints_one_error_line(files, data, tmp_path_factory,
                                                             capsys):
    paths, raw = files
    model_path = _mutated_file(tmp_path_factory, data, raw["model"], "model.bin")
    capsys.readouterr()
    rc = main(["transcribe", "--model", model_path, "--vocab", paths["vocab"],
               "--wav", paths["wav"]])
    err = capsys.readouterr().err
    try:
        load_model(model_path)
    except StreamAsrError:
        assert rc == 1  # a model the reader refuses never transcribes
    assert (rc, err) == (0, "") or (rc == 1 and re.fullmatch(r"error:[a-z]+: [^\n]*\n", err))


def test_transcribe_on_a_truncated_model_prints_one_error_line(files, tmp_path, capsys):
    paths, raw = files
    model_path = str(tmp_path / "model.bin")
    with open(model_path, "wb") as f:
        f.write(raw["model"][: len(raw["model"]) // 2])
    assert main(["transcribe", "--model", model_path, "--vocab", paths["vocab"],
                 "--wav", paths["wav"]]) == 1
    assert re.fullmatch(r"error:format: [^\n]*\n", capsys.readouterr().err)
