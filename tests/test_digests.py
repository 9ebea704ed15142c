"""Fixed-seed SHA-256 digests of the program's outputs.

Every other exactness test compares two paths of the same program. These
digests pin the bytes themselves, so a change that moves any bit of the
features, the encoder, the transcripts (with their MAC ledgers) or the model
file fails here, even when every path moves together. A change that
alters bits on purpose updates the digests it moves and says which and why.
"""

import hashlib

import pytest

from streamasr import (
    AttentionContext,
    BufferedConfig,
    FeatureConfig,
    encode_full,
    log_mel,
    run_buffered,
    run_offline,
    run_streaming,
    save_model,
)

from helpers import init_encoder_weights, random_mel, synth_audio, tiny_encoder_config, tiny_model

REGIMES = {
    "zero": AttentionContext.zero(left_context=5),
    "regular": AttentionContext.regular(1, 4),
    "chunk": AttentionContext.chunked(2, 1),
}
AUDIO = synth_audio(0.9, seed=31)
BUFFERED = BufferedConfig(chunk_seconds=0.16, buffer_seconds=0.48)

EXPECTED = {
    "log_mel/80": "fe54eb9cef0cc96a3aaf7289de88b640bd1e980bd97bc354e5e4f3e628c97686",
    "log_mel/8": "a7c19a3dc2c69606dcc192c0a3949355b5595ed418b08c256a42d80f0e991f88",
    "encode_full/zero/rate1": "b6c446a91d665c363594d72b9051ebda284db0bcfb2612527f75fdc288aeb320",
    "encode_full/zero/rate2": "167d712904f4b5fb03d1b428855f1180ddd39e90383b3548f84d418e8b4142ba",
    "encode_full/zero/rate4": "a55ef196bce8c847d69819c6d37e7374e4a0b1b1cc33ac9987b8591f0c06973d",
    "encode_full/zero/rate8": "b523495ea2bcd4eb35c2238fa258da2f9ddebb955b063a6fc2c8b4dbfed47e1f",
    "encode_full/regular/rate1": "6dcdc11ac49103def0d1ba6c91e672ae861b5513550b98f288a0aeb9bda592c3",
    "encode_full/regular/rate2": "02a8b9e7d74b32aea4476afc7aeb55cca7dc8b5a83c548c4d76236df2bb4b9b8",
    "encode_full/regular/rate4": "3835987577a7ef3cbe0f824ff5bfc28ffe75ff05c434a2aca94542d22869ee6b",
    "encode_full/regular/rate8": "72a0c7edd952e37354de9b80184c734347bcbefcc2f549ea665f73c3b8ea9bf6",
    "encode_full/chunk/rate1": "d529bced9e29dece01c076406ba53bc6e7691f5fd6e31084a0b1e746491fc548",
    "encode_full/chunk/rate2": "01ce6c8797c21cf7ead57a118ced6867fb10bc3bcef46ee56836ba2ce9f11bd9",
    "encode_full/chunk/rate4": "9c1b3adfce39448c4483f27052deeb6e595e675734a619f55409a673e84f97b1",
    "encode_full/chunk/rate8": "2f33ec7f4282a2d97bcdca37b1b006a551a3ee4f18ca3b0de7a0689ba80ba639",
    "transcripts/streaming/zero/ctc": "cbc0ba27774987baad359811a83c77f28425a5b4a0fc5a6d9cfd727e9c90e36e",
    "transcripts/streaming/zero/rnnt": "2cd6aba9218eb570625e1e4144fef6644589be22db112ff1ee886f7f977b7318",
    "transcripts/streaming/zero/both": "cf172b960460f969d4b98f3f84e1c51b9d964993d408cfb78f6c88133b9787f1",
    # a step runs only the rows it settles: the streamed ledger is the offline one
    "transcripts/streaming/regular/ctc": "e7445708237a31a98311f2aa6a7115ca9b65fb6c8bd0c4c002396f32df30f1e2",
    "transcripts/streaming/regular/rnnt": "d36670c00a372fc8cd4b9269b43f5ab69373f714204b5993ee75cd6ad0df49f6",
    "transcripts/streaming/regular/both": "a99847be85df6bb06ecbdd4f49cfb5aace5a0c05ccdba4e75b545d0a558ba174",
    "transcripts/streaming/chunk/ctc": "e48c9356240572d7b92c9113cb6a54dc219a041eb9b3e2eaa8a3105db3744661",
    "transcripts/streaming/chunk/rnnt": "d01893052a55e7097c21dab57c3bbb9d3805383ea9e8948ec8ab12c459fbf0c2",
    "transcripts/streaming/chunk/both": "7d5acb35d132bd0be0da5ad2797e3780fcdd0a631528d9f8469b1fffa81e87ee",
    "transcripts/offline/zero/ctc": "d5b251fa1c3c29fef7bee8a215cb8b764784c5e6a74d2d9c2817047fb916aee4",
    "transcripts/offline/zero/rnnt": "41ff6e3b60552ea3f64682664163d2b88b086db1ea27d2ede4b5c0203080451a",
    "transcripts/offline/zero/both": "939d7635a5f129c5fd2a5b5105340723cea5dfbda99a8c96bed3647cdd6401cf",
    "transcripts/offline/regular/ctc": "8d76a4c0df79060e4fe8f9aba2e4a517a2ab90bc6e0af1a8cd4b39fd72906926",
    "transcripts/offline/regular/rnnt": "bf184bccdd57b800ada2acb3910ce6c2cc25271f8042a990451e96e680873035",
    "transcripts/offline/regular/both": "008cc360b9372c6b947ae467762b1ce2ea8b67b14a9f1dbf63a08446f032f36e",
    "transcripts/offline/chunk/ctc": "18c1e775d88f66e3094423187c53224f92dcfcadf2eeb7518d1e871275ef608a",
    "transcripts/offline/chunk/rnnt": "74fa665275ce877e9c44a09ad886e840d33d0c85090d62c7f8c608f173396218",
    "transcripts/offline/chunk/both": "938a6b133d6c793852a7537024f6b105f4574a855d548a8d1f1b90cd43452772",
    "transcripts/buffered/zero/ctc": "a0305442203cccfb7a88a2eb5308d3215272456d6f14ffd2a91c7088488e7862",
    "transcripts/buffered/zero/rnnt": "004460778c3938845c275d2e11183771c932d78050eb5cde62b30a0f82722e57",
    "transcripts/buffered/zero/both": "15094e3fc9c3ff4922b60cfd2d5fd3b9a7d2f9a5ca05c1bf549a817b19c71d63",
    "transcripts/buffered/regular/ctc": "a0305442203cccfb7a88a2eb5308d3215272456d6f14ffd2a91c7088488e7862",
    "transcripts/buffered/regular/rnnt": "004460778c3938845c275d2e11183771c932d78050eb5cde62b30a0f82722e57",
    "transcripts/buffered/regular/both": "15094e3fc9c3ff4922b60cfd2d5fd3b9a7d2f9a5ca05c1bf549a817b19c71d63",
    "transcripts/buffered/chunk/ctc": "6280ef8d178edfb9283688f3cc936cf86760a5d94a38f84606f6e3d4ab047b5f",
    "transcripts/buffered/chunk/rnnt": "113f45973eecdf134bfbbf8dc53676dd1d4634d766b2f2040934d8bf0f482bb9",
    "transcripts/buffered/chunk/both": "e94e08265cb3002d1657a6a954a9f7f5addf940fb5cb98a0b27c1875f062d21c",
    "model_file": "6bedb37ff2a77169e9356ce4613c89d0fe601bef5d0cb655b01c141a494d321e",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _log_mel(n_mels: int) -> bytes:
    return log_mel(AUDIO, FeatureConfig(n_mels=n_mels)).tobytes()


def _encode_full(regime: str, rate: int) -> bytes:
    cfg = tiny_encoder_config(REGIMES[regime], downsampling_rate=rate)
    mel = random_mel(11 * rate + rate // 2, cfg.n_mels, seed=rate)  # a partial last group
    return encode_full(mel, init_encoder_weights(cfg, seed=9), cfg).tobytes()


def _transcripts(mode: str, regime: str, decoder: str) -> bytes:
    model, vocab = tiny_model(REGIMES[regime], seed=12)
    if mode == "streaming":
        result = run_streaming(AUDIO, model, vocab, decoder=decoder)
    elif mode == "offline":
        result = run_offline(AUDIO, model, vocab, decoder=decoder)
    else:
        result = run_buffered(AUDIO, model, vocab, BUFFERED, decoder=decoder)
    return "\n".join(tr.to_json() for _, tr in sorted(result.transcripts.items())).encode()


def _model_file(tmp_path) -> bytes:
    model, _ = tiny_model(REGIMES["chunk"], seed=12)
    save_model(model, str(tmp_path / "model.bin"))
    return (tmp_path / "model.bin").read_bytes()


CASES = (
    [(f"log_mel/{n}", lambda tmp, n=n: _log_mel(n)) for n in (80, 8)]
    + [(f"encode_full/{r}/rate{k}", lambda tmp, r=r, k=k: _encode_full(r, k))
       for r in REGIMES for k in (1, 2, 4, 8)]
    + [(f"transcripts/{m}/{r}/{d}", lambda tmp, m=m, r=r, d=d: _transcripts(m, r, d))
       for m in ("streaming", "offline", "buffered") for r in REGIMES
       for d in ("ctc", "rnnt", "both")]
    + [("model_file", _model_file)]
)


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_digest(name, make, tmp_path):
    assert _sha(make(tmp_path)) == EXPECTED[name]


def test_every_case_has_one_digest():
    assert sorted(EXPECTED) == sorted(name for name, _ in CASES)
