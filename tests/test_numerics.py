import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamasr import (
    AttentionContext,
    CtcIncrementalDecoder,
    Rng,
    cache_append,
    ctc_logprobs,
    ctc_loss,
    encode_step,
    init_state,
    numerics,
    rnnt_greedy_decode,
    rnnt_loss,
)
from streamasr.decoders import RnntState
from streamasr.errors import StreamAsrError
from streamasr.numerics import (
    depthwise_conv1d_causal,
    glu,
    layer_norm,
    linear,
    log_softmax,
    logsumexp,
    matmul,
    matmul64,
    sigmoid,
    swish,
)

from helpers import (
    DegenerateMaskError,
    glu_expr,
    init_encoder_weights,
    layer_norm_expr,
    masked_softmax,
    matmul64_kloop,
    matmul_triple_loop,
    random_head,
    random_mel,
    sigmoid_mask,
    softmax_rational,
    swish_expr,
    tiny_encoder_config,
    traced_peak,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "streamasr"


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(0).standard_normal((3, 3)).astype(np.float32)
        assert np.array_equal(matmul(np.eye(3, dtype=np.float32), a), a)

    def test_hand_case(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.float32)
        b = np.array([[1], [1]], dtype=np.float32)
        assert np.array_equal(matmul(a, b), np.array([[3], [7]], dtype=np.float32))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_triple_loop_exactly(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(1, 9, size=3)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        assert np.array_equal(matmul(a, b), matmul_triple_loop(a, b))

    def test_oracle_case_5x7_7x3(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        assert np.array_equal(matmul(a, b), matmul_triple_loop(a, b))

    def test_associativity_tolerance(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.standard_normal((6, 6)).astype(np.float32) for _ in range(3))
        lhs = matmul(matmul(a, b), c)
        rhs = matmul(a, matmul(b, c))
        assert np.abs(lhs - rhs).max() < 1e-5

    def test_row_subset_bitwise_stable(self):
        # chunked evaluation must reproduce full-batch rows exactly
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40, 16)).astype(np.float32)
        b = rng.standard_normal((16, 24)).astype(np.float32)
        full = matmul(a, b)
        assert np.array_equal(full[10:23], matmul(a[10:23], b))


# The kernels trust their operands: arrays are checked where they enter the
# program. Each public function that takes arrays, with well-formed ones; the
# test below swaps some out.
_ENC_CFG = tiny_encoder_config(AttentionContext.chunked(1, 1))
_ENC_W = init_encoder_weights(_ENC_CFG, seed=5)
_CTC, _RNNT = random_head(d_model=_ENC_CFG.d_model)
WELL_FORMED = {
    "cache_append": (lambda cache, rows: cache_append(cache, rows, 1),
                     lambda: [np.zeros((1, 2)), np.ones((2, 2))]),
    "encode_step": (lambda mel: encode_step(mel, init_state(_ENC_CFG), _ENC_W, _ENC_CFG),
                    lambda: [random_mel(8, _ENC_CFG.n_mels, seed=1)]),
    "ctc_logprobs": (lambda enc: ctc_logprobs(enc, _CTC), lambda: [np.ones((3, 16))]),
    "ctc_push": (lambda lp: CtcIncrementalDecoder().push(lp), lambda: [np.zeros((3, 5))]),
    "rnnt_greedy_decode": (lambda enc, state: rnnt_greedy_decode(enc, _RNNT, state),
                           lambda: [np.ones((2, 16)), None]),
    "rnnt_state": (lambda hidden, joint: rnnt_greedy_decode(
                       np.ones((2, 16)), _RNNT, RnntState([hidden], joint)),
                   lambda: [np.zeros(8, np.float32), np.zeros(8)]),
    "ctc_loss": (ctc_loss, lambda: [log_softmax(np.ones((3, 5))), [1, 2]]),
    "rnnt_loss": (rnnt_loss, lambda: [log_softmax(np.ones((3, 3, 5))), [1, 2]]),
}


@st.composite
def malformed_operand(draw):
    """What a caller might pass by mistake: a nested list (ragged or not), a
    0-d value, None, a string, or an array of another shape or dtype."""
    kind = draw(st.sampled_from(["list", "ragged", "0-d", "none", "text", "array"]))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    if kind == "list":
        return np.ones(shape).tolist()
    if kind == "ragged":
        return draw(st.sampled_from([[[1.0, 2.0], [3.0]], [1.0, [2.0]], [[1, None]]]))
    if kind == "0-d":
        return draw(st.sampled_from([np.float32(1.0), 1.0, np.int64(3), np.zeros(())]))
    if kind == "none":
        return None
    if kind == "text":
        return draw(st.sampled_from(["ab", np.array(["a", "b"])]))
    return np.ones(shape, dtype=draw(st.sampled_from([np.float32, np.float64, np.int16, bool])))


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(WELL_FORMED)), data=st.data())
def test_malformed_operands_raise_only_streamasr_errors(name, data):
    kernel, make = WELL_FORMED[name]
    args = make()
    for i in data.draw(st.sets(st.integers(0, len(args) - 1), min_size=1)):
        args[i] = data.draw(malformed_operand())
    try:
        kernel(*args)
    except StreamAsrError:
        pass


LAYOUTS = ("C", "F", "transposed", "strided", "reversed")


def _operand(rng: np.random.Generator, shape: tuple[int, ...], layout: str, dtype) -> np.ndarray:
    """A (rows, cols) or (batch, rows, cols) operand in the given memory layout,
    values spread over 2**±10."""
    def values(*dims):
        x = rng.standard_normal(dims) * 2.0 ** rng.integers(-10, 11, size=dims)
        return x.astype(dtype)

    *batch, r, c = shape
    if layout == "F":
        return np.asfortranarray(values(*shape))
    if layout == "transposed":
        return np.swapaxes(values(*batch, c, r), -1, -2)
    if layout == "strided":
        big = values(*(2 * n for n in batch), 2 * r + 1, 3 * c + 2)
        return big[(slice(None, None, 2),) * len(batch) + (slice(1, None, 2), slice(2, None, 3))]
    if layout == "reversed":
        return values(*shape)[(slice(None, None, -1),) * len(shape)]
    return values(*shape)


class TestMatmul64:
    """matmul64 is one einsum whose summation order depends on its operands'
    layout and on the output width; these tests pin it to the k-loop oracle."""

    @settings(max_examples=250, deadline=None)
    @given(
        batch=st.none() | st.integers(1, 8),
        m=st.integers(1, 8) | st.integers(9, 48),
        k=st.integers(1, 8) | st.integers(513, 2048),
        n=st.integers(1, 8) | st.integers(9, 48),
        layout_a=st.sampled_from(LAYOUTS),
        layout_b=st.sampled_from(LAYOUTS),
        dtype_a=st.sampled_from([np.float32, np.float64]),
        dtype_b=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_kloop_bit_for_bit(self, batch, m, k, n, layout_a, layout_b, dtype_a,
                                       dtype_b, seed):
        # batch None: (m, k) x (k, n); otherwise (batch, m, k) x (batch, k, n)
        rng = np.random.default_rng(seed)
        lead = () if batch is None else (batch,)
        a = _operand(rng, lead + (m, k), layout_a, dtype_a)
        b = _operand(rng, lead + (k, n), layout_b, dtype_b)
        got = matmul64(a, b)
        assert got.dtype == np.float64
        assert got.shape == lead + (m, n)
        assert np.array_equal(got, matmul64_kloop(a, b))

    def test_one_column_long_k(self):
        # unpadded, einsum reduces a one-column output with several accumulators
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 2048))
        b = rng.standard_normal((2048, 1))
        assert np.array_equal(matmul64(a, b), matmul64_kloop(a, b))

    def test_transposed_b(self):
        # the attention scores: a head's query columns times its keys transposed
        rng = np.random.default_rng(1)
        q = rng.standard_normal((12, 32)).astype(np.float32)
        keys = rng.standard_normal((40, 32)).astype(np.float32)
        a, b = q[:, 8:16], keys[:, 8:16].T
        assert np.array_equal(matmul64(a, b), matmul64_kloop(a, b))

    def test_batched_one_column_long_k(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 5, 2048))
        b = rng.standard_normal((3, 2048, 1))
        assert np.array_equal(matmul64(a, b), matmul64_kloop(a, b))


# Contractions that pick their own summation order (BLAS or einsum).
CONTRACTIONS = {"einsum", "dot", "matmul", "tensordot", "inner"}


def _contractions(path: Path) -> list[str]:
    """Every use of a numpy contraction or of the @ operator in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.name}:{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in CONTRACTIONS and (
            node.attr == "dot"  # ndarray.dot as well as np.dot
            or isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        ):
            found.append(f"{path.name}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
            alias.name in CONTRACTIONS for alias in node.names
        ):
            found.append(f"{path.name}:{node.lineno}: from numpy import")
    return found


def _fft_uses(path: Path) -> list[str]:
    """Every use of numpy's FFT module in a module: np.fft, or an import of it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = []
        if isinstance(node, ast.Attribute) and node.attr == "fft" and \
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.append(f"{path.name}:{node.lineno}: np.fft")
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        if any(n == "numpy.fft" or n.startswith("numpy.fft.") for n in names):
            found.append(f"{path.name}:{node.lineno}: import")
    return found


class TestOneKernel:
    def test_only_numerics_contracts(self):
        # every float64 contraction goes through numerics.matmul64
        found = [u for p in sorted(SRC.glob("*.py")) if p.name != "numerics.py"
                 for u in _contractions(p)]
        assert found == []

    def test_scanner_sees_every_form(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text("import numpy as np\nfrom numpy import einsum\nc = a @ b\nc @= b\n"
                          "np.tensordot(a, b)\nnumpy.inner(a, b)\na.dot(b)\n")
        assert len(_contractions(module)) == 6
        assert any(u.endswith(".einsum") for u in _contractions(SRC / "numerics.py"))

    def test_only_features_uses_fft(self):
        # the spectrum is rfft's, row by row (tests/test_features.py TestRfftRows)
        found = [u for p in sorted(SRC.glob("*.py")) if p.name != "features.py"
                 for u in _fft_uses(p)]
        assert found == []
        assert any(u.endswith("np.fft") for u in _fft_uses(SRC / "features.py"))

    def test_fft_scanner_sees_every_form(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text("import numpy as np\nimport numpy.fft\nfrom numpy import fft\n"
                          "from numpy.fft import rfft\nnp.fft.rfft(a)\nnumpy.fft.fft(a)\n"
                          "np.abs(a)\n")
        assert len(_fft_uses(module)) == 5


SIGMOID_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, -1e-310, 709.0, -709.0, 709.78, -709.78, 745.0,
                    -745.0, 745.2, -745.2, 746.0, -746.0, 1e300, -1e300]


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.floats(-750.0, 750.0) | st.sampled_from(SIGMOID_SPECIALS),
        min_size=0, max_size=40,
    ), st.sampled_from([np.float64, np.float32]))
    def test_matches_mask_oracle_bit_for_bit(self, xs, dtype):
        with np.errstate(over="ignore"):  # values past float32's range become inf
            x = np.array(xs, dtype=np.float64).astype(dtype)
        got = sigmoid(x)
        want = sigmoid_mask(x)
        assert got.dtype == np.float32 and got.shape == x.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_specials(self):
        x = np.array(SIGMOID_SPECIALS, dtype=np.float64)
        assert np.array_equal(sigmoid(x).view(np.uint32), sigmoid_mask(x).view(np.uint32))
        with np.errstate(over="raise"):  # neither branch overflows exp
            sigmoid(np.array([-1e300, 1e300, 745.2, -745.2]))

    def test_two_dimensional(self):
        x = np.random.default_rng(4).standard_normal((6, 7)) * 40
        assert np.array_equal(sigmoid(x), sigmoid_mask(x))


# Any float, the sigmoid's exp range, or one of the specials.
ELEMENTS = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.floats(-750.0, 750.0) | st.sampled_from(SIGMOID_SPECIALS))


@st.composite
def elementwise_input(draw, even_last: bool = False) -> np.ndarray:
    """A 1-D to 3-D float32 or float64 array of ELEMENTS."""
    shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    if even_last:
        shape[-1] *= 2
    values = draw(st.lists(ELEMENTS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    with np.errstate(over="ignore"):  # values past float32's range become inf
        return np.array(values, dtype=np.float64).astype(dtype).reshape(shape)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestElementwiseOracles:
    """The in-place kernels against expressions that build a new array per
    operation (tests/helpers.py), bit for bit, NaN signs included."""

    @settings(max_examples=300, deadline=None)
    @given(elementwise_input())
    def test_swish(self, x):
        with np.errstate(all="ignore"):
            assert_same_bits(swish(x), swish_expr(x))

    @settings(max_examples=300, deadline=None)
    @given(elementwise_input(even_last=True))
    def test_glu(self, x):
        with np.errstate(all="ignore"):
            assert_same_bits(glu(x), glu_expr(x))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), elementwise_input())
    def test_layer_norm(self, data, x):
        d = x.shape[-1]
        with np.errstate(all="ignore"):
            gamma, beta = (np.array(data.draw(st.lists(ELEMENTS, min_size=d, max_size=d)),
                                    dtype=np.float64).astype(np.float32) for _ in range(2))
            assert_same_bits(layer_norm(x, gamma, beta), layer_norm_expr(x, gamma, beta))

    def test_specials(self):
        x = np.array(SIGMOID_SPECIALS, dtype=np.float64)
        with np.errstate(all="ignore"):
            assert_same_bits(swish(x), swish_expr(x))
            assert_same_bits(glu(x), glu_expr(x))
            ones, zeros = np.ones(x.size, np.float32), np.zeros(x.size, np.float32)
            assert_same_bits(layer_norm(x, ones, zeros), layer_norm_expr(x, ones, zeros))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data())
    def test_linear_adds_the_bias_to_the_rounded_product(self, m, k, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal((m, k)).astype(np.float32)
        w = rng.standard_normal((k, n)).astype(np.float32)
        with np.errstate(all="ignore"):
            b = np.array(data.draw(st.lists(ELEMENTS, min_size=n, max_size=n)),
                         dtype=np.float64).astype(np.float32)
            assert_same_bits(linear(x, w, b), matmul64_kloop(x, w).astype(np.float32) + b)


def _kernel_calls(dtype) -> dict[str, tuple]:
    """Each kernel with read-only operands of `dtype` (the input rows are
    (8, 6)): a kernel that writes into an argument raises."""
    rng = np.random.default_rng(11)

    def arg(*shape):
        a = (rng.standard_normal(shape) * 4).astype(dtype)
        a.flags.writeable = False
        return a

    x = arg(8, 6)
    return {
        "matmul64": (matmul64, (x, arg(6, 4))),
        "matmul": (matmul, (x, arg(6, 4))),
        "linear": (linear, (x, arg(6, 4), arg(4))),
        "layer_norm": (layer_norm, (x, arg(6), arg(6))),
        "depthwise_conv1d_causal": (depthwise_conv1d_causal, (x, arg(6, 3), arg(6), arg(2, 6))),
        "sigmoid": (sigmoid, (x,)),
        "swish": (swish, (x,)),
        "glu": (glu, (x,)),
        "log_softmax": (log_softmax, (x,)),
        "logsumexp": (logsumexp, (x,)),
    }


# Peak traced bytes on a 128 x 256 float32 and float64 input, in float64
# copies of that input.
PEAK_COPIES = {
    # x in float64 (a float32 x only), exp(min(x, -x)), the numerator, the result
    "sigmoid": (3.5, 2.5),
    # the float64 copy multiplied in place, and sigmoid's peak beside it
    "swish": (3.5, 3.5),
    # half-width: the float64 first half, and sigmoid's peak on the second
    "glu": (2.5, 2.0),
    "layer_norm": (2.0, 2.0),  # the copy normalized in place, and its squares
    "log_softmax": (2.0, 2.0),  # the copy shifted in place, and its exp
    # history|x in float64, the accumulator, one tap's products
    "depthwise_conv1d_causal": (3.5, 3.5),
}


class TestKernelsInPlace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(_kernel_calls(np.float32)))
    def test_arguments_are_read_only(self, name, dtype):
        fn, args = _kernel_calls(dtype)[name]
        before = [a.copy() for a in args]
        out = fn(*args)
        for a, b in zip(args, before):
            assert np.array_equal(a, b)
            assert not np.shares_memory(out, a)  # a later in-place step cannot reach it

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(PEAK_COPIES))
    def test_peak_on_a_128_by_256_input(self, name, dtype):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal((128, 256)) * 4).astype(dtype)
        row = rng.standard_normal(256).astype(np.float32)
        operands = {
            "layer_norm": (row, row),
            "depthwise_conv1d_causal": (rng.standard_normal((256, 9)).astype(np.float32), row,
                                        np.zeros((8, 256), np.float32)),
        }.get(name, ())
        _, peak = traced_peak(lambda: getattr(numerics, name)(x, *operands))
        copies = PEAK_COPIES[name][dtype == np.float64]
        assert peak <= copies * x.size * 8 + 2**14

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_peaks_at_its_product(self, dtype):
        # the bias goes into matmul's fresh output, so the peak is the product's
        rng = np.random.default_rng(4)
        x = rng.standard_normal((128, 256)).astype(dtype)
        w = rng.standard_normal((256, 256)).astype(np.float32)
        b = rng.standard_normal(256).astype(np.float32)
        _, product = traced_peak(lambda: matmul(x, w))
        _, peak = traced_peak(lambda: linear(x, w, b))
        assert peak <= product + 2**12


# Data-dependent selects: each element takes one of two values by a mask,
# which on mixed-sign activations mispredicts a branch per element.
SELECTS = {"where", "select", "choose", "piecewise"}
BRANCH_FREE = ("sigmoid", "swish", "glu", "layer_norm", "depthwise_conv1d_causal", "log_softmax")


def _selects(path: Path, functions) -> dict[str, list[str]]:
    """Each named top-level function of a module, and every select it uses:
    an attribute (np.where, numpy.select, x.choose) or a bare name."""
    found = {}
    for fn in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in functions:
            found[fn.name] = [
                f"{path.name}:{node.lineno}: {getattr(node, 'attr', getattr(node, 'id', ''))}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute) and node.attr in SELECTS
                or isinstance(node, ast.Name) and node.id in SELECTS]
    return found


class TestBranchFree:
    def test_elementwise_kernels_select_nothing(self):
        found = _selects(SRC / "numerics.py", BRANCH_FREE)
        assert sorted(found) == sorted(BRANCH_FREE)  # each one is still there to scan
        assert [u for uses in found.values() for u in uses] == []

    def test_scanner_sees_every_form(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text("import numpy as np\nfrom numpy import where\n"
                          "def sigmoid(x):\n    return np.where(x > 0, x, 0)\n"
                          "def glu(x):\n    return numpy.select([x], [x]) + x.choose([1, 2])\n"
                          "def swish(x):\n    return where(x, np.piecewise(x, [x], [1]), 0)\n"
                          "def logsumexp(x):\n    return np.where(x, x, 0)\n")
        found = _selects(module, BRANCH_FREE)
        assert {name: len(uses) for name, uses in found.items()} == {
            "sigmoid": 1, "glu": 2, "swish": 2}


class TestMaskedSoftmax:
    def test_uniform(self):
        out = masked_softmax(np.zeros((1, 3), np.float32), np.ones((1, 3), bool))
        assert np.allclose(out, 1.0 / 3.0)

    def test_single_survivor(self):
        out = masked_softmax(
            np.array([[5.0, -2.0]], np.float32), np.array([[True, False]])
        )
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_against_rational_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-3, 3, size=7).astype(np.float32)
        mask = rng.random(7) > 0.3
        mask[0] = True
        expect = softmax_rational(scores.tolist(), mask.tolist())
        got = masked_softmax(scores[None, :], mask[None, :])[0]
        assert np.abs(got - np.array(expect)).max() < 1e-6

    def test_masked_entries_exactly_zero_and_rows_stochastic(self):
        rng = np.random.default_rng(9)
        scores = rng.standard_normal((20, 11)).astype(np.float32)
        mask = rng.random((20, 11)) > 0.4
        mask[:, 0] = True
        out = masked_softmax(scores, mask)
        assert np.all(out[~mask] == 0.0)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_fully_masked_row_rejected(self):
        with pytest.raises(DegenerateMaskError):
            masked_softmax(np.zeros((2, 3), np.float32), np.zeros((2, 3), bool))


class TestLayerNorm:
    @pytest.mark.parametrize("d", [1, 2, 7, 16, 64, 80, 257])
    def test_statistics_are_np_mean_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((500, d)) * 2.0 ** rng.integers(-8, 9, size=(500, d))
        x = x.astype(np.float32)
        gamma = rng.standard_normal(d).astype(np.float32)
        beta = rng.standard_normal(d).astype(np.float32)
        x64 = x.astype(np.float64)
        mu = x64.mean(axis=-1, keepdims=True)
        y = (x64 - mu) / np.sqrt(((x64 - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        want = (y * gamma.astype(np.float64) + beta.astype(np.float64)).astype(np.float32)
        assert np.array_equal(layer_norm(x, gamma, beta), want)

    def test_constant_vector_zeroed_by_eps(self):
        out = layer_norm(np.full(8, 3.5, np.float32), np.ones(8, np.float32),
                         np.zeros(8, np.float32))
        assert np.allclose(out, 0.0)

    def test_unit_variance_preserved(self):
        out = layer_norm(np.array([1.0, -1.0], np.float32), np.ones(2, np.float32),
                         np.zeros(2, np.float32))
        # closed form: mean 0, var 1, shrunk slightly by eps
        assert np.allclose(out, [1.0, -1.0], atol=1e-4)

    def test_takes_three_positional_arguments_and_no_eps(self):
        # the perfbench tracer wraps layer_norm by name with (x, gamma, beta)
        params = inspect.signature(layer_norm).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            (n, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
            for n in ("x", "gamma", "beta")]
        with pytest.raises(TypeError):
            layer_norm(np.zeros(3, np.float32), np.ones(3, np.float32),
                       np.zeros(3, np.float32), eps=1e-3)

    def test_beta_shift_law(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10).astype(np.float32)
        ones, zeros = np.ones(10, np.float32), np.zeros(10, np.float32)
        base = layer_norm(x, ones, zeros)
        shifted = layer_norm(x, ones, np.full(10, 2.5, np.float32))
        assert np.allclose(shifted, base + 2.5, atol=1e-6)

    def test_rows_independent(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 6)).astype(np.float32)
        g, b = np.ones(6, np.float32), np.zeros(6, np.float32)
        full = layer_norm(x, g, b)
        assert np.array_equal(full[4:7], layer_norm(x[4:7], g, b))


def _conv(x, w, history=None):
    """The convolution with a zero bias, after zero history unless one is given."""
    d, k = w.shape
    history = np.zeros((k - 1, d), np.float32) if history is None else history
    return depthwise_conv1d_causal(x, w, np.zeros(d, np.float32), history)


class TestCausalDepthwiseConv:
    def test_kernel_one_is_pointwise(self):
        x = np.arange(6, dtype=np.float32).reshape(3, 2)
        w = np.array([[2.0], [3.0]], np.float32)
        out = _conv(x, w)
        assert np.array_equal(out, x * np.array([2.0, 3.0], np.float32))

    def test_hand_convolution(self):
        # impulse at t=0 replays the kernel reversed
        x = np.array([[1.0], [0.0], [0.0]], np.float32)
        w = np.array([[2.0, 3.0, 5.0]], np.float32)  # [a, b, c]
        out = _conv(x, w)
        assert np.array_equal(out.ravel(), np.array([5.0, 3.0, 2.0], np.float32))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_causality_exhaustive(self, k):
        rng = np.random.default_rng(k)
        t, d = 16, 3
        x = rng.standard_normal((t, d)).astype(np.float32)
        w = rng.standard_normal((d, k)).astype(np.float32)
        base = _conv(x, w)
        for t0 in range(t):
            for later in range(t0 + 1, t):
                xp = x.copy()
                xp[later] += 1.0
                out = _conv(xp, w)
                assert np.array_equal(out[: t0 + 1], base[: t0 + 1])

    def test_history_equals_left_padding_of_full_signal(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 4)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        full = _conv(x, w)
        part = _conv(x[5:], w, history=x[3:5])
        assert np.array_equal(part, full[5:])


class TestRng:
    def test_deterministic(self):
        a = Rng(42).uniform((100,), 0.5)
        b = Rng(42).uniform((100,), 0.5)
        assert np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        assert not np.array_equal(Rng(1).uniform((64,), 1.0), Rng(2).uniform((64,), 1.0))

    def test_bound_respected_and_spread(self):
        x = Rng(7).uniform((10000,), 0.25)
        assert x.min() >= -0.25 and x.max() < 0.25
        assert abs(float(x.mean())) < 0.01

    def test_sequential_consumption(self):
        r = Rng(5)
        first = r.uniform((10,), 1.0)
        second = r.uniform((10,), 1.0)
        both = Rng(5).uniform((20,), 1.0)
        assert np.array_equal(np.concatenate([first, second]), both)


def test_log_softmax_normalized():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 7))
    out = log_softmax(x)
    assert np.abs(logsumexp(out, axis=1)).max() < 1e-12


def test_swish_and_glu_shapes():
    x = np.random.default_rng(1).standard_normal((4, 6)).astype(np.float32)
    assert swish(x).shape == (4, 6)
    assert glu(x).shape == (4, 3)
    assert np.allclose(swish(np.zeros(3, np.float32)), 0.0)
