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
    "transcripts/streaming/zero/rnnt": "71e790045c34d6d303e74b624e7feffebef679430631f4aa431460340f30a897",
    "transcripts/streaming/zero/both": "328dbb457fa3632189b687ac6a1d5c2c1f713f4aed5688959fcb301563fc163e",
    # a step runs only the rows it settles: the streamed ledger is the offline one
    "transcripts/streaming/regular/ctc": "e7445708237a31a98311f2aa6a7115ca9b65fb6c8bd0c4c002396f32df30f1e2",
    "transcripts/streaming/regular/rnnt": "ee6ed9449fd38e6af3b1d94f6484d8aeb3652ebb1be08341e66487d52ffbe825",
    "transcripts/streaming/regular/both": "0dc5b63d547e08f50e0f23e0a60322eafacce52d6ae676878982ab3facbed4f3",
    "transcripts/streaming/chunk/ctc": "e48c9356240572d7b92c9113cb6a54dc219a041eb9b3e2eaa8a3105db3744661",
    "transcripts/streaming/chunk/rnnt": "6160eb0e13d8a062860b9a96cd1616d26623add6e8ed894cf6c20d41f98ebd4b",
    "transcripts/streaming/chunk/both": "852fe3df44a097dccef11307aef094f4deeedd141aa19e5e81e35e13efec76c7",
    "transcripts/offline/zero/ctc": "d5b251fa1c3c29fef7bee8a215cb8b764784c5e6a74d2d9c2817047fb916aee4",
    "transcripts/offline/zero/rnnt": "cc28d68af17e743792ca7e2037771bd215e2878fedfe0e26d343724008c0149b",
    "transcripts/offline/zero/both": "3ff8715c534a4d4cbb587b33f31b1ea9a5be5310ff0568af1ef0c760249257dd",
    "transcripts/offline/regular/ctc": "8d76a4c0df79060e4fe8f9aba2e4a517a2ab90bc6e0af1a8cd4b39fd72906926",
    "transcripts/offline/regular/rnnt": "a014842783cb2a1adc1dc43ae7ee3e93cf48d53ffcb351e3bed3e36e0ae8cdc0",
    "transcripts/offline/regular/both": "2f98522c435a3cc95b9f6353b2050b281fdceebb1e2f24197ed13b7c5e486136",
    "transcripts/offline/chunk/ctc": "18c1e775d88f66e3094423187c53224f92dcfcadf2eeb7518d1e871275ef608a",
    "transcripts/offline/chunk/rnnt": "38f33d6c6f4512f319c12154e46b44bffd3652b7a8a7c19f510ab9c599441034",
    "transcripts/offline/chunk/both": "38daec6efa446b29887e0a6991cf4413eec408cf9f2ee0f04d321b316c9008eb",
    "transcripts/buffered/zero/ctc": "a0305442203cccfb7a88a2eb5308d3215272456d6f14ffd2a91c7088488e7862",
    "transcripts/buffered/zero/rnnt": "7c14b4c87d9c1845b82fd9816251ddb4ac5e8f6e57dea63e556989926132a812",
    "transcripts/buffered/zero/both": "cde3705a55202c754ed902c2b795eecbff6f34ab2157d99474ea9efd0295ebec",
    "transcripts/buffered/regular/ctc": "a0305442203cccfb7a88a2eb5308d3215272456d6f14ffd2a91c7088488e7862",
    "transcripts/buffered/regular/rnnt": "7c14b4c87d9c1845b82fd9816251ddb4ac5e8f6e57dea63e556989926132a812",
    "transcripts/buffered/regular/both": "cde3705a55202c754ed902c2b795eecbff6f34ab2157d99474ea9efd0295ebec",
    "transcripts/buffered/chunk/ctc": "6280ef8d178edfb9283688f3cc936cf86760a5d94a38f84606f6e3d4ab047b5f",
    "transcripts/buffered/chunk/rnnt": "992e09ce904612519cff22914ffc9d4dd7225cd6f6c9c1d60398c70131381138",
    "transcripts/buffered/chunk/both": "a6cc388d7d7411101d7f8cc42f8d5d2c41ece5604c5bcae031113641904bde49",
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
