import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

import streamasr
from streamasr import StreamingSession, Vocab, load_model, read_wav
from streamasr.cli import main
from streamasr.errors import FormatError

from helpers import synth_audio, write_wav


@pytest.fixture
def workspace(tmp_path):
    vocab_path = str(tmp_path / "vocab.txt")
    Vocab.chars("abc ").save(vocab_path)
    wav_path = str(tmp_path / "audio.wav")
    write_wav(wav_path, synth_audio(0.8, seed=70).samples)
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as f:
        json.dump(
            {
                "encoder": {
                    "n_layers": 2, "d_model": 16, "n_heads": 2, "conv_kernel": 3,
                    "downsampling_rate": 4,
                    "attention": {"regime": "chunk", "chunk": 3, "left_chunks": 1},
                },
                "d_pred": 12, "d_joint": 12,
            },
            f,
        )
    return tmp_path, config_path, vocab_path, wav_path


def init_model_file(tmp_path, config_path, vocab_path, seed=42, name="model.bin",
                    capsys=None):
    out = str(tmp_path / name)
    rc = main(["init-model", "--config", config_path, "--vocab", vocab_path,
               "--seed", str(seed), "--out", out])
    assert rc == 0
    if capsys is not None:
        capsys.readouterr()  # drop the printed path
    return out


class TestInitModel:
    def test_same_seed_same_sha256(self, workspace):
        tmp_path, config_path, vocab_path, _ = workspace
        a = init_model_file(tmp_path, config_path, vocab_path, name="a.bin")
        b = init_model_file(tmp_path, config_path, vocab_path, name="b.bin")
        ha = hashlib.sha256(Path(a).read_bytes()).hexdigest()
        hb = hashlib.sha256(Path(b).read_bytes()).hexdigest()
        assert ha == hb

    def test_different_seed_differs(self, workspace):
        tmp_path, config_path, vocab_path, _ = workspace
        a = init_model_file(tmp_path, config_path, vocab_path, seed=1, name="a.bin")
        b = init_model_file(tmp_path, config_path, vocab_path, seed=2, name="b.bin")
        assert Path(a).read_bytes() != Path(b).read_bytes()

    def test_invalid_downsampling_rate(self, workspace, capsys):
        tmp_path, config_path, vocab_path, _ = workspace
        rc = main(["init-model", "--config", config_path, "--vocab", vocab_path,
                   "--downsampling-rate", "3", "--out", str(tmp_path / "x.bin")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:config:")

    def test_chunk_ms_is_not_a_flag(self, workspace, capsys):
        # init-model sets the chunk size with --chunk-tokens
        tmp_path, _, vocab_path, _ = workspace
        rc = main(["init-model", "--vocab", vocab_path, "--seed", "1", "--chunk-ms", "80",
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:argument:") and err.count("\n") == 1
        assert "--chunk-ms" in err

    def test_file_size_matches_tensor_arithmetic(self, workspace):
        tmp_path, config_path, vocab_path, _ = workspace
        path = init_model_file(tmp_path, config_path, vocab_path)
        model = load_model(path)
        n_floats = sum(v.size for v in model.tensors.values())
        raw = Path(path).read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        assert len(raw) == 12 + hlen + 4 * n_floats

    def test_weights_roundtrip_bit_exact(self, workspace):
        tmp_path, config_path, vocab_path, _ = workspace
        path = init_model_file(tmp_path, config_path, vocab_path)
        model = load_model(path)
        from streamasr import save_model

        path2 = str(tmp_path / "resaved.bin")
        save_model(model, path2)
        assert Path(path).read_bytes() == Path(path2).read_bytes()


class TestTranscribe:
    def test_offline_vs_streaming_identical_tokens(self, workspace, capsys):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path, "--mode", "streaming", "--decoder", "ctc"])
        assert rc == 0
        stream_payload = json.loads(capsys.readouterr().out)
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path, "--mode", "offline", "--decoder", "ctc"])
        assert rc == 0
        offline_payload = json.loads(capsys.readouterr().out)
        assert [t["text"] for t in stream_payload["tokens"]] == [
            t["text"] for t in offline_payload["tokens"]
        ]
        assert [t["first_frame"] for t in stream_payload["tokens"]] == [
            t["first_frame"] for t in offline_payload["tokens"]
        ]

    def test_buffered_mode_runs(self, workspace, capsys):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path, "--mode", "buffered", "--decoder", "rnnt",
                   "--chunk-seconds", "0.2", "--buffer-seconds", "0.4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "buffered"
        assert payload["macs"]["duplicate"] > 0

    @pytest.mark.parametrize("argv", [
        ["compare", "--chunk-seconds", "nan"],
        ["transcribe", "--mode", "buffered", "--buffer-seconds", "inf"],
    ], ids=["compare-nan-chunk", "transcribe-inf-buffer"])
    def test_non_finite_buffer_seconds_are_config_error(self, workspace, capsys, argv):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        rc = main([*argv, "--model", model_path, "--vocab", vocab_path, "--wav", wav_path])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:config:")

    def test_debug_log_has_one_line_per_step(self, workspace, capsys):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        argv = [sys.executable, "-m", "streamasr.cli", "transcribe", "--model", model_path,
                "--vocab", vocab_path, "--wav", wav_path]
        src = os.path.dirname(os.path.dirname(streamasr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("STREAMASR_LOG", None)
        quiet = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        debug = subprocess.run(argv, env={**env, "STREAMASR_LOG": "debug"},
                               capture_output=True, text=True, check=True)
        assert debug.stdout == quiet.stdout and quiet.stderr == ""
        session = StreamingSession(load_model(model_path), Vocab.load(vocab_path), decoder="ctc")
        session.feed(read_wav(wav_path).samples)
        steps = session.finish().ledger.steps
        lines = debug.stderr.splitlines()
        assert len(lines) == len(steps)
        settled = 0
        for i, (line, step) in enumerate(zip(lines, steps)):
            m = re.fullmatch(r"DEBUG:streamasr\.streaming:step (\d+): (\d+) tokens settled, "
                             r"(\d+) MACs", line)
            assert m and int(m[1]) == i and int(m[3]) == step.total
            settled += int(m[2])
        assert settled == session.state.tokens_emitted > 0

    def test_buffered_defaults_two_and_four_seconds(self):
        from streamasr.cli import build_parser

        args = build_parser().parse_args(
            ["transcribe", "--model", "m", "--vocab", "v", "--wav", "w",
             "--mode", "buffered"]
        )
        assert args.chunk_seconds == 2.0
        assert args.buffer_seconds == 4.0

    def test_vocab_that_does_not_fit_the_model_is_config_error(self, workspace, capsys):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        Vocab.chars("ab").save(str(tmp_path / "short.txt"))
        rc = main(["transcribe", "--model", model_path, "--vocab", str(tmp_path / "short.txt"),
                   "--wav", wav_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and err.count("\n") == 1

    def test_missing_wav_is_file_error(self, workspace, capsys):
        tmp_path, config_path, vocab_path, _ = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", str(tmp_path / "missing.wav")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:file:")

    def test_infeasible_regular_chunk_ms(self, workspace, capsys):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path, "--regime", "regular", "--left-context", "8",
                   "--chunk-ms", "100"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:feasibility:")
        assert "80" in err  # cites the feasible grid

    def test_feasible_regular_chunk_ms(self, workspace, capsys):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        # 2 layers * 40 ms tokens -> 80 ms per unit of look-ahead
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path, "--regime", "regular", "--left-context", "8",
                   "--chunk-ms", "160", "--decoder", "ctc"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "streaming"

    @pytest.mark.parametrize("lookahead", [["--chunk-ms", "80"], ["--lookahead-m", "1"]],
                             ids=["chunk-ms", "lookahead-m"])
    def test_regular_chunk_ms_defaults_left_context(self, workspace, capsys, lookahead):
        # a default model is chunk-regime, so it carries no left_context to reuse
        tmp_path, _, vocab_path, wav_path = workspace
        model_path = str(tmp_path / "default.bin")
        assert main(["init-model", "--vocab", vocab_path, "--seed", "3",
                     "--out", model_path]) == 0
        capsys.readouterr()
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path, "--regime", "regular", *lookahead])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "streaming"

    def test_context_beyond_the_bias_table_is_config_error(self, workspace, capsys):
        # a zero-regime model has no future bias entries for a chunk mask to use
        tmp_path, _, vocab_path, wav_path = workspace
        model_path = str(tmp_path / "zero.bin")
        assert main(["init-model", "--vocab", vocab_path, "--seed", "3",
                     "--regime", "zero", "--out", model_path]) == 0
        capsys.readouterr()
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path, "--regime", "chunk"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:config:")

    def test_output_file_byte_stable(self, workspace):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path)
        out1, out2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
        for out in (out1, out2):
            rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                       "--wav", wav_path, "--decoder", "ctc", "--out", out])
            assert rc == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestSampleRate:
    @pytest.mark.parametrize("argv", [
        ["transcribe", "--mode", "streaming"],
        ["transcribe", "--mode", "offline"],
        ["transcribe", "--mode", "buffered"],
        ["compare", "--modes", "zero"],
        ["compare", "--modes", "regular"],
        ["compare", "--modes", "chunk"],
    ], ids=["streaming", "offline", "buffered", "compare-zero", "compare-regular",
            "compare-chunk"])
    def test_wav_at_another_rate_is_config_error(self, workspace, capsys, argv):
        tmp_path, config_path, vocab_path, _ = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        wav_path = str(tmp_path / "8k.wav")
        write_wav(wav_path, synth_audio(0.8, seed=70, sample_rate=8000).samples,
                  sample_rate=8000)
        rc = main([argv[0], "--model", model_path, "--vocab", vocab_path, "--wav", wav_path,
                   *argv[1:]])
        assert rc == 1
        assert capsys.readouterr().err == "error:config: audio sample rate 8000 != configured 16000\n"


class TestCompare:
    def test_tsv_structure_and_duplication_columns(self, workspace, capsys):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        rc = main(["compare", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path, "--modes", "offline,chunk,buffered",
                   "--decoder", "ctc", "--reference", "a b c",
                   "--chunk-seconds", "0.2", "--buffer-seconds", "0.8"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        header = lines[0].split("\t")
        assert header == ["mode", "decoder", "wer_percent", "avg_latency_ms",
                          "macs_total", "macs_duplicate"]
        rows = {r.split("\t")[0]: r.split("\t") for r in lines[1:]}
        assert rows["streaming"][5] == "0"
        assert int(rows["buffered"][5]) > 0
        for r in lines[1:]:
            assert r.split("\t")[2] != "NA"  # reference given, wer computed
        out.encode("utf-8")  # valid utf-8


    @pytest.mark.parametrize("flags", [["--chunk-ms", "40"], ["--chunk-tokens", "1"]],
                             ids=["chunk-ms", "chunk-tokens"])
    def test_offline_row_runs_the_context_flags(self, workspace, capsys, flags):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        run = ["--model", model_path, "--vocab", vocab_path, "--wav", wav_path,
               "--decoder", "ctc"]
        macs = {}
        for given in ([], flags):
            assert main(["transcribe", *run, "--mode", "offline", *given]) == 0
            transcribed = json.loads(capsys.readouterr().out)["macs"]["total"]
            assert main(["compare", *run, "--modes", "offline", *given]) == 0
            row = capsys.readouterr().out.strip().split("\n")[1].split("\t")
            assert int(row[4]) == transcribed
            macs[len(given)] = transcribed
        assert macs[0] != macs[2]  # the flags change the mask


    def test_reference_file_that_is_not_utf8_is_format_error(self, workspace, capsys):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        ref_path = tmp_path / "reference.txt"
        ref_path.write_bytes(b"a b \xff\xfe c\n")
        rc = main(["compare", "--model", model_path, "--vocab", vocab_path, "--wav", wav_path,
                   "--modes", "offline", "--reference-file", str(ref_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and err.count("\n") == 1

    def test_unknown_mode_fails_before_any_mode_runs(self, workspace, capsys, monkeypatch):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)

        def run_offline(*args, **kwargs):
            pytest.fail("the offline pass ran before the modes were checked")

        monkeypatch.setattr(streamasr.cli, "run_offline", run_offline)
        rc = main(["compare", "--model", model_path, "--vocab", vocab_path, "--wav", wav_path,
                   "--modes", "offline,bogus"])
        assert rc == 1
        assert capsys.readouterr().err == "error:config: unknown mode 'bogus'\n"


def _rewrite_header(path, mutate):
    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    mutate(header)
    hjson = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(raw[:8] + struct.pack("<I", len(hjson)) + hjson + raw[12 + hlen :])


def _set(keys, value):
    def mutate(d):
        for k in keys[:-1]:
            d = d[k]
        d[keys[-1]] = value
    return mutate


def _delete(keys):
    def mutate(d):
        for k in keys[:-1]:
            d = d[k]
        del d[keys[-1]]
    return mutate


class TestMalformedInputs:
    """Every malformed model header or --config exits 1 with one error line."""

    @pytest.mark.parametrize("mutate", [
        _delete(["config"]),
        _delete(["config", "encoder", "n_heads"]),
        _set(["config", "encoder", "d_model"], "16"),
        _set(["config", "encoder", "n_layers"], True),
        _set(["config", "encoder", "attention"], "chunk"),
        _set(["config", "encoder", "attention", "left_chunk"], 1),
        _set(["config", "encoder", "n_heads"], 0),
        _set(["tensors", 0, "dtype"], "f2"),
        _delete(["tensors", -1]),
        _set(["tensors"], 5),
        _set(["config", "frame_shift_ms"], 0),
        _set(["config", "frame_shift_ms"], 0.01),
        _set(["config", "frame_shift_ms"], float("nan")),
    ], ids=["no-config", "no-n_heads", "str-d_model", "bool-n_layers", "str-attention",
            "typo-left_chunk", "zero-n_heads", "dtype-f2", "missing-tensor", "int-tensors",
            "zero-frame_shift_ms", "sub-sample-frame_shift_ms", "nan-frame_shift_ms"])
    def test_model_header(self, workspace, capsys, mutate):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        _rewrite_header(model_path, mutate)
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path])
        assert rc == 1
        assert capsys.readouterr().err.startswith(("error:config:", "error:format:"))

    @pytest.mark.parametrize("keys", [["config", "encoder", "n_layers"], ["config", "pred_layers"]],
                             ids=["n_layers", "pred_layers"])
    def test_header_claiming_a_billion_layers_is_format_error_at_once(self, workspace, capsys,
                                                                        keys):
        # the loader refuses the header before it lists a billion layers' tensors
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        _rewrite_header(model_path, _set(keys, 10**9))
        t0 = time.perf_counter()
        with pytest.raises(FormatError):
            load_model(model_path)
        assert time.perf_counter() - t0 < 1.0
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path])
        err = capsys.readouterr().err
        assert rc == 1 and re.fullmatch(r"error:format: [^\n]*\n", err)

    @pytest.mark.parametrize("old, new", [
        ('"n_layers":2', '"n_layers":' + "9" * 5000),
        ('"hybrid_alpha":0.3', '"hybrid_alpha":' + "[" * 100_000 + "]" * 100_000),
    ], ids=["5000-digit-integer", "arrays-nested-100000-deep"])
    def test_header_json_the_parser_refuses_is_format_error(self, workspace, capsys, old, new):
        # json.loads raises ValueError and RecursionError on these, not a
        # JSONDecodeError; json.dumps cannot write them, so the text is edited
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        raw = Path(model_path).read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        text = raw[12 : 12 + hlen].decode("utf-8")
        assert text.count(old) == 1
        hjson = text.replace(old, new).encode("utf-8")
        with open(model_path, "wb") as f:
            f.write(raw[:8] + struct.pack("<I", len(hjson)) + hjson + raw[12 + hlen :])
        with pytest.raises(FormatError, match="corrupt header"):
            load_model(model_path)
        rc = main(["transcribe", "--model", model_path, "--vocab", vocab_path,
                   "--wav", wav_path])
        err = capsys.readouterr().err
        assert rc == 1 and re.fullmatch(r"error:format: [^\n]*\n", err)

    @pytest.mark.parametrize("keys", [["config", "encoder", "n_layers"], ["config", "pred_layers"]],
                             ids=["n_layers", "pred_layers"])
    def test_header_claiming_one_more_layer_names_the_missing_tensor(self, workspace, capsys,
                                                                     keys):
        # a count the file's tensors could hold passes the up-front check, and
        # the per-tensor check still finds the layer that is not there
        tmp_path, config_path, vocab_path, _ = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        layers = 0

        def one_more(header):
            nonlocal layers
            d = header
            for k in keys[:-1]:
                d = d[k]
            layers = d[keys[-1]]
            d[keys[-1]] = layers + 1

        _rewrite_header(model_path, one_more)
        with pytest.raises(FormatError, match=rf"tensor \S*\D{layers}\.\S+ missing"):
            load_model(model_path)

    @pytest.mark.parametrize("mutate", [
        lambda cfg: [cfg],
        _set(["encoder", "d_model"], "16"),
        _set(["encoder", "attention"], "chunk"),
        _set(["encoder", "attention", "left_chunk"], 1),
        _set(["d_joint"], 12.0),
        _set(["encoder", "bias_past"], -1),
        _set(["frame_shift_ms"], 0),
        _set(["frame_shift_ms"], 0.01),
        _set(["frame_shift_ms"], float("nan")),
        _set(["frame_shift_ms"], float("inf")),
    ], ids=["list", "str-d_model", "str-attention", "typo-left_chunk",
            "float-d_joint", "negative-bias_past", "zero-frame_shift_ms",
            "sub-sample-frame_shift_ms", "nan-frame_shift_ms", "inf-frame_shift_ms"])
    def test_init_model_config(self, workspace, capsys, mutate):
        tmp_path, config_path, vocab_path, _ = workspace
        with open(config_path) as f:
            cfg = json.load(f)
        cfg = mutate(cfg) or cfg
        with open(config_path, "w") as f:
            json.dump(cfg, f)
        rc = main(["init-model", "--config", config_path, "--vocab", vocab_path,
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:config:")


    @pytest.mark.parametrize("flag,value", [("--fastemit-lambda", "inf"), ("--alpha", "nan")])
    def test_non_finite_loss_weight_flag(self, workspace, capsys, flag, value):
        tmp_path, config_path, vocab_path, _ = workspace
        out = tmp_path / "x.bin"
        rc = main(["init-model", "--config", config_path, "--vocab", vocab_path,
                   "--out", str(out), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and err.count("\n") == 1
        assert not out.exists()


class TestArgumentErrors:
    """argparse's own errors are one error:argument: line too, not a usage block."""

    @pytest.mark.parametrize("argv", [
        ["init-model", "--out", "x.bin", "--alpha", "-inf"],
        ["init-model", "--out", "x.bin", "--no-such-flag"],
        ["transcribe", "--model", "m.bin", "--vocab", "v.txt"],
        ["transcribe", "--model", "m.bin", "--vocab", "v.txt", "--wav", "a.wav",
         "--mode", "live"],
        [],
    ], ids=["alpha-minus-inf", "unknown-flag", "missing-wav", "bad-mode", "no-command"])
    def test_one_error_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:argument:") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["transcribe", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == 0
        assert capsys.readouterr().out.startswith("usage: streamasr")


class TestFileErrors:
    @pytest.mark.parametrize("command", ["compare", "transcribe", "init-model"])
    def test_unusable_path_is_file_error(self, workspace, capsys, command):
        tmp_path, config_path, vocab_path, wav_path = workspace
        model_path = init_model_file(tmp_path, config_path, vocab_path, capsys=capsys)
        missing = str(tmp_path / "no-such-dir" / "x")
        run = ["--model", model_path, "--vocab", vocab_path, "--wav", wav_path]
        argv = {
            "compare": ["compare", *run, "--reference-file", missing],
            "transcribe": ["transcribe", *run, "--out", missing],
            "init-model": ["init-model", "--config", config_path, "--vocab", vocab_path,
                           "--out", missing],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:file:")
        assert err.count("\n") == 1
