"""Cache-aware streaming ASR: a limited-context encoder whose chunked
inference reproduces its single-pass output exactly, with CTC/RNNT decoding,
alignment losses, and compute/latency accounting."""

from .cache import LayerCache, StreamState, attn_keep_rows, cache_append
from .context import (
    AttentionContext,
    LatencyBounds,
    LatencyModel,
    effective_lookahead,
    feasible_regular_latencies,
    latency_ms,
    receptive_field_frames,
    receptive_field_tokens,
)
from .decoders import (
    CtcHead,
    CtcIncrementalDecoder,
    HeadConfig,
    RnntHead,
    Vocab,
    ctc_logprobs,
    rnnt_greedy_decode,
    rnnt_joint_log_probs,
)
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    encode_full,
    encode_step,
    init_state,
)
from .features import (
    AudioBuffer,
    FeatureConfig,
    StreamingFeatureExtractor,
    log_mel,
    read_wav,
)
from .ledger import ComputeLedger, StepMacs
from .losses import ctc_loss, hybrid_loss, rnnt_loss, rnnt_loss_fastemit
from .metrics import WerBreakdown, eil, wer
from .model import HybridModel, ModelConfig, config_from_dict, init_model, load_model, save_model
from .numerics import Rng
from .streaming import (
    BufferedConfig,
    StreamingSession,
    StreamResult,
    Transcript,
    TranscriptToken,
    run_buffered,
    run_multi_lookahead,
    run_offline,
    run_streaming,
)

__all__ = [name for name in dir() if not name.startswith("_")]
