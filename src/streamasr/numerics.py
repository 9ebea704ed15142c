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

The elementwise kernels select nothing by data (no `np.where`, `np.select`,
`np.choose` or `np.piecewise`): a select on each element's sign branches per
element, and on real activations about every second branch is mispredicted,
which costs more than the `exp` beside it. Each kernel works in place on its
own float64 copy of its input, with the operations of the plain expression
in the same order, so every output bit is the expression's. No kernel writes
into an argument: `np.asarray(x, dtype=np.float64)` is `x` itself when `x`
is float64.

The kernels trust their operands: they check no rank, shape or dtype, and
only the program calls them. Inputs are checked once where they enter it
(`operand` for arrays, the weights at their first step or when a head is
built), so a malformed input raises a StreamAsrError before it reaches a
kernel. Nor do the kernels check their outputs for NaN or inf. Callers
check once per encoder layer output and at each decoder's logits, with
`check_finite`, and also wherever a saturating function (a sigmoid gate, a
softmax, a tanh) would turn a non-finite input into a finite output.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError, ShapeError

# Log-domain zero. Large negative sentinel instead of -inf so that lattice
# recursions never produce NaN via inf - inf; exp() of it underflows to 0.0.
LOG_ZERO = -1.0e30

LAYER_NORM_EPS = 1e-5  # added to each row's variance


def check_finite(arr: np.ndarray, where: str) -> None:
    """Raise NumericsError if `arr` holds a NaN or an infinity."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by {where}")


def operand(x, what: str) -> np.ndarray:
    """`x` as an array of numbers (bool, integer or float). ShapeError for
    what numpy cannot make one of: ragged nesting, None, strings, objects."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError) as ex:  # ragged nesting
        raise ShapeError(f"{what} is not an array: {ex}") from ex
    if a.dtype.kind not in "biuf":
        raise ShapeError(f"{what} must hold numbers, got dtype {a.dtype}")
    return a


def float64_copy(t: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous float64 copy of `t`, exact for float32: a
    prepared weight that `matmul64` reads without copying it again."""
    out = np.array(t, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


def check_tensors(tensors: dict[str, np.ndarray], spec, what: str) -> None:
    """Raise ShapeError unless every tensor that `spec`, a list of (name,
    shape, init), names is in `tensors`, float32 and of exactly its shape."""
    for name, shape, _ in spec:
        t = tensors.get(name)
        if isinstance(t, np.ndarray) and t.dtype == np.float32 and t.shape == shape:
            continue
        got = "missing" if t is None else (
            f"{t.dtype} {t.shape}" if isinstance(t, np.ndarray) else f"a {type(t).__name__}")
        raise ShapeError(f"{what} tensor {name} is {got}, the config needs float32 {shape}")


def matmul64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product, float64 accumulation over k in ascending order.

    `a` (m, k) and `b` (k, n) give (m, n); a batch `a` (h, m, k) and `b`
    (h, k, n) gives (h, m, n), matrix by matrix. The result stays in
    float64, for sums of several products. Output rows depend only on the
    corresponding rows of `a`. Each element equals the sequential sum
    a[i, 0] * b[0, j] + a[i, 1] * b[1, j] + ..., each product rounded to
    float64 before it is added, whatever the operands' dtype, layout, batch
    size or number of rows. That needs:

    - both operands C-contiguous float64, copied unless they are already:
      einsum orders its loops by the operands' strides, and an F-order or
      transposed `b` makes it sum in another order. `a` is taken the same
      way so that no operand's layout is left to choose the order. The
      encoder's and the decoding heads' weights are prepared so
      (`float64_copy`), and only activations are copied.
    - no `optimize` argument and no float64 BLAS, which reorder the k-sum.
    - a second column when `b` has one: with a one-column output einsum
      reduces k with several SIMD accumulators (errors near 1e-13 on
      unit-scale operands), so `b` gets a zero column and the result is
      sliced back.
    """
    a64 = np.ascontiguousarray(a, dtype=np.float64)
    n = b.shape[-1]
    if n == 1:
        b = np.concatenate([b, np.zeros_like(b)], axis=-1)
    b64 = np.ascontiguousarray(b, dtype=np.float64)
    return np.einsum("ik,kj->ij" if a64.ndim == 2 else "hik,hkj->hij", a64, b64)[..., :n]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul64 rounded once to float32; matches a naive triple loop bit for bit."""
    return matmul64(a, b).astype(np.float32)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """matmul plus optional bias row."""
    out = matmul(x, w)
    if b is not None:
        out += b  # matmul's output is a fresh array; every bias is float32
    return out


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize each row of `x` to zero mean, unit variance, then affine.

    Statistics are taken over the last axis only, so each time step is
    normalized independently of every other step.
    """
    d = x.shape[-1]
    xc = x.astype(np.float64)  # a copy: centered, scaled and shifted in place
    # sum / d is what np.mean computes, and np.add.reduce the ufunc that
    # ndarray.sum calls: the same sums, without the wrappers' per-call overhead
    xc -= np.add.reduce(xc, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    xc /= np.sqrt(var + LAYER_NORM_EPS)
    # float32 gamma and beta promote exactly to float64
    xc *= gamma
    xc += beta
    return xc.astype(np.float32)


def depthwise_conv1d_causal(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    history: np.ndarray,
) -> np.ndarray:
    """Per-channel causal 1-D convolution plus a per-channel bias (D,).

    x: (T, D) inputs, weights: (D, K). Output step t sees x[t-K+1 .. t].
    `history` supplies the K-1 steps preceding x (zeros at the start of a
    stream, which equals left zero-padding).
    """
    d, k = weights.shape
    t = x.shape[0]
    xp = np.concatenate([history, x], axis=0).astype(np.float64)
    w64 = np.asarray(weights, dtype=np.float64)  # weights itself when float64
    acc = np.zeros((t, d), dtype=np.float64)
    for i in range(k):
        acc += xp[i : i + t, :] * w64[None, :, i]
    acc += np.asarray(bias, dtype=np.float64)[None, :]
    return acc.astype(np.float32)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere, so exp
    never overflows.

    No select: e = exp(min(x, -x)) is exp(-x) or exp(x) as each formula needs,
    and max(e, x >= 0) is its numerator, exactly 1.0 or e because e <= 1.
    np.minimum returns its first operand when both are NaN, so a NaN keeps
    its sign (-|x| would drop it).
    """
    x64 = np.asarray(x, dtype=np.float64)  # x itself when x is float64: read only
    e = np.negative(x64, out=np.empty_like(x64))  # out=: a 0-d x stays an array
    np.exp(np.minimum(x64, e, out=e), out=e)
    num = np.maximum(e, x64 >= 0)
    e += 1.0
    num /= e
    return num.astype(np.float32)


def swish(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x), smooth everywhere (no dead regions)."""
    x64 = np.array(x, dtype=np.float64)  # a copy even of a float64 x
    # the float32 sigmoid promotes exactly to float64
    x64 *= sigmoid(x64)
    return x64.astype(np.float32)


def glu(x: np.ndarray) -> np.ndarray:
    """Gated linear unit over the last axis: first half gated by sigmoid of second."""
    h = x.shape[-1] // 2
    out = x[..., :h].astype(np.float64)
    out *= sigmoid(x[..., h:])
    return out.astype(np.float32)


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
    """Max-shifted log-softmax in float64, computed in place on one copy of `a`."""
    out = np.array(a, dtype=np.float64)
    out -= np.max(out, axis=axis, keepdims=True)
    out -= np.log(np.sum(np.exp(out), axis=axis, keepdims=True))
    return out


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

