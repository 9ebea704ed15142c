"""Dense numeric kernels with deterministic, platform-independent results.

All activations are stored as float32. Reductions (matmul, convolution dot
products, normalization statistics, softmax sums) accumulate in float64 in a
fixed sequential order, then round once to float32. Because each output
element depends only on its own operand sequence, a computation produces
bit-identical results whether it runs over a whole sequence or over chunks of
it, which is what the streaming equivalence tests rely on.

Every float64 contraction in the package goes through `matmul64`, one
`np.einsum("ik,kj->ij")` call, or `np.einsum("hik,hkj->hij")` for a batch of
matrices (the attention heads). einsum sums each output element in ascending
k with one accumulator only under conditions the kernel enforces itself:
both operands C-contiguous float64 (einsum picks its loop order from the
operands' strides, so a transposed or strided view can change the sum), no
`optimize` argument and no BLAS (`@`, `np.dot` and `optimize=True` block and
vectorize the k-sum), and at least two output columns (a one-column output
makes einsum reduce k with several SIMD accumulators). A batch axis only
adds an outer loop: each matrix of a batch sums exactly as it would alone.
The tests hold the kernel to a k-loop oracle bit for bit over random shapes,
batch sizes and layouts, and fail if another module calls a numpy
contraction or uses `@`.

The kernels do not check their outputs for NaN or inf. Callers check once
per encoder layer output and at each decoder's logits, with `check_finite`,
and also wherever a saturating function (a sigmoid gate, a softmax, a tanh)
would turn a non-finite input into a finite output.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

# Log-domain zero. Large negative sentinel instead of -inf so that lattice
# recursions never produce NaN via inf - inf; exp() of it underflows to 0.0.
LOG_ZERO = -1.0e30


def check_finite(arr: np.ndarray, where: str) -> None:
    """Raise NumericsError if `arr` holds a NaN or an infinity."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by {where}")


def matmul64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product, float64 accumulation over k in ascending order.

    `a` (m, k) and `b` (k, n) give (m, n); a batch `a` (h, m, k) and `b`
    (h, k, n) gives (h, m, n), matrix by matrix. The result stays in
    float64, for sums of several products. Output rows depend only on the
    corresponding rows of `a`. Each element equals the sequential sum
    a[i, 0] * b[0, j] + a[i, 1] * b[1, j] + ..., each product rounded to
    float64 before it is added, whatever the operands' dtype, layout, batch
    size or number of rows. That needs:

    - C-contiguous float64 copies of both operands: einsum orders its loops
      by the operands' strides, and an F-order or transposed `b` makes it
      sum in another order. `a` is copied the same way so that no operand's
      layout is left to choose the order.
    - no `optimize` argument and no float64 BLAS, which reorder the k-sum.
    - a second column when `b` has one: with a one-column output einsum
      reduces k with several SIMD accumulators (errors near 1e-13 on
      unit-scale operands), so `b` gets a zero column and the result is
      sliced back.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul expects two 2-D or two 3-D operands, got {a.shape} and "
                         f"{b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul dims disagree: {a.shape} x {b.shape}")
    a64 = np.ascontiguousarray(a, dtype=np.float64)
    n = b.shape[-1]
    if n == 1:
        b = np.concatenate([b, np.zeros_like(b)], axis=-1)
    b64 = np.ascontiguousarray(b, dtype=np.float64)
    return np.einsum("ik,kj->ij" if a.ndim == 2 else "hik,hkj->hij", a64, b64)[..., :n]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul64 rounded once to float32; matches a naive triple loop bit for bit."""
    return matmul64(a, b).astype(np.float32)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """matmul plus optional bias row."""
    out = matmul(x, w)
    if b is not None:
        b = np.asarray(b, dtype=np.float32)
        if b.shape != (w.shape[1],):
            raise ShapeError(f"bias shape {b.shape} does not match output dim {w.shape[1]}")
        out = out + b
    return out


def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Normalize each row of `x` to zero mean, unit variance, then affine.

    Statistics are taken over the last axis only, so each time step is
    normalized independently of every other step.
    """
    x = np.asarray(x)
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"gamma/beta must have shape ({d},)")
    if eps <= 0:
        raise ConfigError("layer_norm eps must be positive")
    x64 = x.astype(np.float64)
    # sum / d is what np.mean computes, without its per-call overhead
    mu = x64.sum(axis=-1, keepdims=True) / d
    var = ((x64 - mu) ** 2).sum(axis=-1, keepdims=True) / d
    y = (x64 - mu) / np.sqrt(var + eps)
    return (y * gamma.astype(np.float64) + beta.astype(np.float64)).astype(np.float32)


def depthwise_conv1d_causal(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    history: np.ndarray | None = None,
) -> np.ndarray:
    """Per-channel causal 1-D convolution.

    x: (T, D) inputs, weights: (D, K). Output step t sees x[t-K+1 .. t].
    `history` supplies the K-1 steps preceding x (used when x is a chunk of a
    longer stream); if None, zeros are used, which equals left zero-padding.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ShapeError(f"depthwise weights must be (D, K), got {weights.shape}")
    d, k = weights.shape
    if k < 1:
        raise ConfigError(f"kernel size must be >= 1, got {k}")
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"input {x.shape} does not match {d} channels")
    if history is None:
        history = np.zeros((k - 1, d), dtype=np.float32)
    if history.shape != (k - 1, d):
        raise ShapeError(f"history must be ({k - 1}, {d}), got {history.shape}")
    t = x.shape[0]
    xp = np.concatenate([history, x], axis=0).astype(np.float64)
    w64 = weights.astype(np.float64)
    acc = np.zeros((t, d), dtype=np.float64)
    for i in range(k):
        acc += xp[i : i + t, :] * w64[None, :, i]
    if bias is not None:
        acc += np.asarray(bias, dtype=np.float64)[None, :]
    return acc.astype(np.float32)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere, so exp
    never overflows."""
    x64 = np.asarray(x, dtype=np.float64)
    pos = x64 >= 0
    e = np.exp(np.where(pos, -x64, x64))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d).astype(np.float32)


def swish(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x), smooth everywhere (no dead regions)."""
    x64 = np.asarray(x, dtype=np.float64)
    return (x64 * sigmoid(x).astype(np.float64)).astype(np.float32)


def glu(x: np.ndarray) -> np.ndarray:
    """Gated linear unit over the last axis: first half gated by sigmoid of second."""
    x = np.asarray(x)
    d2 = x.shape[-1]
    if d2 % 2 != 0:
        raise ShapeError(f"glu needs an even last axis, got {d2}")
    h = d2 // 2
    a = x[..., :h].astype(np.float64)
    g = sigmoid(x[..., h:]).astype(np.float64)
    return (a * g).astype(np.float32)


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Max-shifted log-sum-exp in float64, LOG_ZERO aware."""
    a64 = np.asarray(a, dtype=np.float64)
    m = np.max(a64, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.squeeze(m, axis=axis) if axis is not None else m.reshape(())
    s = np.log(np.sum(np.exp(a64 - m), axis=axis))
    res = out + s
    return float(res) if res.ndim == 0 else res


def log_softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    a64 = np.asarray(a, dtype=np.float64)
    m = np.max(a64, axis=axis, keepdims=True)
    shifted = a64 - m
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


class Rng:
    """Counter-based shift-xor PRNG (splitmix64 mixing).

    Stateless per index, so arbitrary spans can be generated vectorized while
    remaining reproducible across platforms for a given seed.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _mix(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        z = self._seed + idx * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniform(self, shape: tuple[int, ...] | int, bound: float) -> np.ndarray:
        """float32 samples uniform in [-bound, bound)."""
        if isinstance(shape, int):
            shape = (shape,)
        n = int(np.prod(shape)) if shape else 1
        z = self._mix(n)
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return ((2.0 * u - 1.0) * bound).astype(np.float32).reshape(shape)

