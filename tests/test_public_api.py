"""The public surface holds only what the library, the benchmark or the README uses.

A name in ``streamasr.__all__`` that only tests read belongs in
``tests/helpers.py`` (an oracle or fixture) or nowhere. The paper-facing APIs
are the exception: they state the paper's losses, latency arithmetic and
one-model-many-latencies claim, and the acceptance criteria exercise them.
"""

import inspect
import re
from pathlib import Path

import streamasr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "streamasr"

PAPER_APIS = {
    "ctc_loss", "rnnt_loss", "hybrid_loss", "rnnt_joint_log_probs",
    "latency_ms", "receptive_field_frames", "run_multi_lookahead",
}


def _words(path: Path) -> set[str]:
    """Every word in a file. Strings count: perfbench's tracer patches functions by name."""
    return set(re.findall(r"\w+", path.read_text(encoding="utf-8")))


def _defining_module(obj) -> str:
    return obj.__name__ if inspect.ismodule(obj) else obj.__module__


def _readers() -> dict[str, set[str]]:
    """Per reader (a src module, a perfbench script or the README), the names it reads."""
    readers = {f"streamasr.{p.stem}": _words(p) for p in SRC.glob("*.py")}
    readers.update({f"perfbench/{p.name}": _words(p) for p in (ROOT / "perfbench").glob("*.py")})
    readers["README.md"] = _words(ROOT / "README.md")
    return readers


def test_every_public_name_has_a_reader_outside_tests():
    readers = _readers()
    unread = set()
    for name in streamasr.__all__:
        skip = {_defining_module(getattr(streamasr, name)), "streamasr.__init__"}
        if not any(name in names for who, names in readers.items() if who not in skip):
            unread.add(name)
    assert unread <= PAPER_APIS, sorted(unread - PAPER_APIS)
    assert PAPER_APIS <= set(streamasr.__all__)


def test_oracles_and_fixtures_are_not_exported():
    for name in ("build_mask", "init_encoder_weights", "MelFrames", "DegenerateMaskError"):
        assert name not in streamasr.__all__
        assert not hasattr(streamasr, name)


def test_decoder_state_helpers_stay_in_decoders():
    # the run's decoders start the RNNT prediction net; no other module reads this
    assert "rnnt_init_state" not in streamasr.__all__
    assert not hasattr(streamasr, "rnnt_init_state")


def test_kernels_are_not_exported():
    # the kernels trust their operands, so only the program calls them;
    # perfbench reads them as module attributes
    for name in ("matmul", "layer_norm", "depthwise_conv1d_causal", "downsample_segment"):
        assert name not in streamasr.__all__
        assert not hasattr(streamasr, name)
