"""The names perfbench patches at run time still resolve.

perfbench's tracer (perfbench/tracer.py, `--trace 1`) wraps functions by
(owner, attribute), and its second-session check replaces
`streaming.encode_step`. A refactor that renames or moves one of them would
otherwise break traced benchmark runs without failing a test here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from streamasr import StreamingSession, encoder, streaming

from helpers import synth_audio, tiny_model

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer().TRACED


@pytest.mark.parametrize("name, owner, attr", TRACED, ids=[t[0] for t in TRACED])
def test_every_traced_name_resolves_to_a_function(name, owner, attr):
    assert inspect.isfunction(inspect.getattr_static(owner, attr))
    # the span name is the owner's module, a dot, and the function
    module = owner.__module__ if inspect.isclass(owner) else owner.__name__
    assert name.split(".")[0] == module.split(".")[-1]


def test_a_session_steps_through_streaming_encode_step(monkeypatch):
    # perfbench's second session captures every step by replacing this name
    assert streaming.encode_step is encoder.encode_step
    calls = []

    def capture(*args, **kwargs):
        calls.append(1)
        return encoder.encode_step(*args, **kwargs)

    monkeypatch.setattr(streaming, "encode_step", capture)
    model, vocab = tiny_model(seed=40)
    session = StreamingSession(model, vocab, decoder="ctc")
    session.feed(synth_audio(0.5, seed=41).samples)
    session.finish()
    assert len(calls) > 1
