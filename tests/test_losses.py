import math

import numpy as np
import pytest

from streamasr import ctc_loss, hybrid_loss, rnnt_loss, rnnt_loss_fastemit
from streamasr.errors import ArgumentError
from streamasr.numerics import log_softmax

from helpers import (
    ctc_loss_enumeration,
    rnnt_loss_enumeration,
    rnnt_path_count,
)


def random_ctc_grid(t, v, seed):
    z = np.random.default_rng(seed).standard_normal((t, v))
    return log_softmax(z), z


def random_rnnt_grid(t, u, v, seed):
    z = np.random.default_rng(seed).standard_normal((t, u + 1, v))
    return log_softmax(z), z


class TestCtcLoss:
    def test_single_frame_single_label(self):
        grid, _ = random_ctc_grid(1, 4, 0)
        loss, _ = ctc_loss(grid, [2])
        assert math.isclose(loss, -grid[0, 2], rel_tol=1e-12)

    def test_two_frames_one_label_three_paths(self):
        grid, _ = random_ctc_grid(2, 3, 1)
        loss, _ = ctc_loss(grid, [1])
        p = np.exp(grid)
        manual = p[0, 1] * p[1, 0] + p[0, 0] * p[1, 1] + p[0, 1] * p[1, 1]
        assert math.isclose(loss, -math.log(manual), rel_tol=1e-10)

    def test_two_frames_two_labels_single_path(self):
        grid, _ = random_ctc_grid(2, 3, 2)
        loss, _ = ctc_loss(grid, [1, 2])
        assert math.isclose(loss, -(grid[0, 1] + grid[1, 2]), rel_tol=1e-10)

    def test_infeasible_target_is_infinite(self):
        grid, _ = random_ctc_grid(1, 3, 3)
        loss, grad = ctc_loss(grid, [1, 2])
        assert loss == float("inf")
        assert np.all(grad == 0.0)

    def test_repeated_label_needs_separating_blank(self):
        grid, _ = random_ctc_grid(2, 3, 4)
        loss, _ = ctc_loss(grid, [1, 1])  # needs >= 3 frames
        assert loss == float("inf")

    def test_blank_in_target_rejected(self):
        grid, _ = random_ctc_grid(3, 3, 5)
        with pytest.raises(ArgumentError):
            ctc_loss(grid, [0, 1])

    @pytest.mark.parametrize("t,u,v", [(2, 1, 2), (3, 2, 3), (4, 2, 4), (5, 3, 4)])
    def test_matches_enumeration(self, t, u, v):
        for seed in range(5):
            grid, _ = random_ctc_grid(t, v, 100 + seed)
            target = list(np.random.default_rng(seed).integers(1, v, size=u))
            loss, _ = ctc_loss(grid, target)
            expect = ctc_loss_enumeration(grid, target)
            if math.isinf(expect):
                assert math.isinf(loss)
            else:
                assert abs(loss - expect) < 1e-8

    def test_empty_target(self):
        grid, _ = random_ctc_grid(3, 3, 6)
        loss, _ = ctc_loss(grid, [])
        assert math.isclose(loss, -(grid[0, 0] + grid[1, 0] + grid[2, 0]), rel_tol=1e-10)

    def test_monotone_in_impossible_extension(self):
        grid, _ = random_ctc_grid(3, 4, 7)
        base, _ = ctc_loss(grid, [1, 2])
        extended, _ = ctc_loss(grid, [1, 2, 3, 1])
        assert extended >= base


class TestTargetIds:
    """Both losses take integer label ids only, numpy's included, in [1, V)."""

    LOSSES = {"ctc": lambda target: ctc_loss(random_ctc_grid(3, 4, 8)[0], target),
              "rnnt": lambda target: rnnt_loss(random_rnnt_grid(3, 1, 4, 9)[0], target)}

    @pytest.mark.parametrize("bad", [1.5, "a", True, None, np.float64(2.0), np.True_])
    @pytest.mark.parametrize("loss", sorted(LOSSES))
    def test_an_id_that_is_not_an_integer_is_argument_error(self, loss, bad):
        with pytest.raises(ArgumentError):
            self.LOSSES[loss]([bad])

    @pytest.mark.parametrize("loss", sorted(LOSSES))
    def test_a_target_that_is_not_a_sequence_is_argument_error(self, loss):
        with pytest.raises(ArgumentError):
            self.LOSSES[loss](2)

    @pytest.mark.parametrize("loss", sorted(LOSSES))
    def test_numpy_integer_ids_equal_python_ones(self, loss):
        for ids in ([np.int64(2)], [np.int32(2)], np.array([2], dtype=np.uint8)):
            assert self.LOSSES[loss](ids)[0] == self.LOSSES[loss]([2])[0]


# Malformed grids and weights; the loss entry points check them before the
# lattice reads them.
BAD_LOSS_CALLS = {
    "ctc-one-axis": lambda: ctc_loss(np.zeros(5), [1]),
    "ctc-text": lambda: ctc_loss("ab", [1]),
    "ctc-ragged": lambda: ctc_loss([[0.0], [0.0, 0.0]], []),
    "ctc-no-frames": lambda: ctc_loss(np.zeros((0, 5)), []),
    "ctc-no-labels": lambda: ctc_loss(np.zeros((3, 0)), []),
    "ctc-nan": lambda: ctc_loss(np.full((3, 4), np.nan), [1]),
    "ctc-minus-inf": lambda: ctc_loss(np.where(np.eye(3, 4) > 0, 0.0, -np.inf), [1]),
    "ctc-unnormalized": lambda: ctc_loss(random_ctc_grid(3, 4, 0)[0] + 0.01, [1]),
    "ctc-blank-out-of-range": lambda: ctc_loss(random_ctc_grid(3, 4, 0)[0], [1], blank=4),
    "rnnt-no-frames": lambda: rnnt_loss(np.zeros((0, 2, 4)), [1]),
    "rnnt-two-axes": lambda: rnnt_loss(random_ctc_grid(3, 4, 0)[0], [1]),
    "rnnt-inf": lambda: rnnt_loss(np.full((2, 2, 3), np.inf), [1]),
    "fastemit-nan-lambda": lambda: rnnt_loss_fastemit(random_rnnt_grid(2, 1, 3, 0)[0], [1],
                                                      lam=float("nan")),
    "fastemit-inf-lambda": lambda: rnnt_loss_fastemit(random_rnnt_grid(2, 1, 3, 0)[0], [1],
                                                      lam=float("inf")),
    "fastemit-text-lambda": lambda: rnnt_loss_fastemit(random_rnnt_grid(2, 1, 3, 0)[0], [1],
                                                       lam="0.1"),
}


@pytest.mark.parametrize("call", BAD_LOSS_CALLS.values(), ids=BAD_LOSS_CALLS.keys())
def test_a_malformed_loss_input_is_argument_error(call):
    with pytest.raises(ArgumentError):
        call()


class TestCtcGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t, v = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        u = int(rng.integers(1, min(t, 3) + 1))
        target = list(rng.integers(1, v, size=u))
        _, z = random_ctc_grid(t, v, 200 + seed)
        loss, grad = ctc_loss(log_softmax(z), target)
        if math.isinf(loss):
            return
        h = 1e-4
        for _ in range(8):
            i, j = int(rng.integers(t)), int(rng.integers(v))
            zp, zm = z.copy(), z.copy()
            zp[i, j] += h
            zm[i, j] -= h
            lp, _ = ctc_loss(log_softmax(zp), target)
            lm, _ = ctc_loss(log_softmax(zm), target)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), 1e-4)
            assert abs(grad[i, j] - fd) / denom < 1e-3


class TestRnntLoss:
    def test_single_cell(self):
        grid, _ = random_rnnt_grid(1, 1, 3, 0)
        loss, _ = rnnt_loss(grid, [2])
        assert math.isclose(loss, -(grid[0, 0, 2] + grid[0, 1, 0]), rel_tol=1e-12)

    def test_t2_u1_three_paths(self):
        grid, _ = random_rnnt_grid(2, 1, 3, 1)
        loss, _ = rnnt_loss(grid, [1])
        assert abs(loss - rnnt_loss_enumeration(grid, [1])) < 1e-10

    def test_uniform_grid_counts_paths(self):
        t, u, v = 4, 2, 3
        grid = np.full((t, u + 1, v), math.log(1.0 / v))
        loss, _ = rnnt_loss(grid, [1, 2])
        expect = -math.log(rnnt_path_count(t, u) * (1.0 / v) ** (t + u))
        assert abs(loss - expect) < 1e-10
        assert abs(loss - rnnt_loss_enumeration(grid, [1, 2])) < 1e-10

    @pytest.mark.parametrize("t,u,v", [(1, 1, 2), (2, 2, 3), (3, 1, 4), (5, 3, 4)])
    def test_matches_enumeration(self, t, u, v):
        for seed in range(5):
            grid, _ = random_rnnt_grid(t, u, v, 300 + seed)
            target = list(np.random.default_rng(seed).integers(1, v, size=u))
            loss, _ = rnnt_loss(grid, target)
            assert abs(loss - rnnt_loss_enumeration(grid, target)) < 1e-8

    def test_unnormalized_grid_rejected(self):
        grid, _ = random_rnnt_grid(2, 1, 3, 2)
        with pytest.raises(ArgumentError):
            rnnt_loss(grid + 0.01, [1])

    def test_blank_in_target_rejected(self):
        grid, _ = random_rnnt_grid(2, 1, 3, 3)
        with pytest.raises(ArgumentError):
            rnnt_loss(grid, [0])

    def test_target_length_must_match_grid(self):
        grid, _ = random_rnnt_grid(2, 1, 3, 4)
        with pytest.raises(ArgumentError):
            rnnt_loss(grid, [1, 2])


class TestRnntGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t, v = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        u = int(rng.integers(0, 3))
        target = list(rng.integers(1, v, size=u))
        _, z = random_rnnt_grid(t, u, v, 400 + seed)
        _, grad = rnnt_loss(log_softmax(z), target)
        h = 1e-4
        for _ in range(8):
            i = int(rng.integers(t))
            j = int(rng.integers(u + 1))
            k = int(rng.integers(v))
            zp, zm = z.copy(), z.copy()
            zp[i, j, k] += h
            zm[i, j, k] -= h
            lp, _ = rnnt_loss(log_softmax(zp), target)
            lm, _ = rnnt_loss(log_softmax(zm), target)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), 1e-4)
            assert abs(grad[i, j, k] - fd) / denom < 1e-3


class TestFastEmit:
    def test_lambda_zero_bit_identical(self):
        grid, _ = random_rnnt_grid(3, 2, 4, 0)
        target = [1, 3]
        l0, g0 = rnnt_loss(grid, target)
        l1, g1 = rnnt_loss_fastemit(grid, target, lam=0.0)
        assert l0 == l1
        assert np.array_equal(g0, g1)

    def test_negative_lambda_rejected(self):
        grid, _ = random_rnnt_grid(2, 1, 3, 1)
        with pytest.raises(ArgumentError):
            rnnt_loss_fastemit(grid, [1], lam=-0.1)

    def test_single_path_lattice_value_and_gradient(self):
        # T=1, U=1: one path, posterior weight 1; the modified objective is
        # -(1+lam) log p(label) - log p(blank), so finite differences apply
        lam = 0.25
        _, z = random_rnnt_grid(1, 1, 3, 2)
        grid = log_softmax(z)
        target = [2]
        loss, grad = rnnt_loss_fastemit(grid, target, lam=lam)
        expect = -(1 + lam) * grid[0, 0, 2] - grid[0, 1, 0]
        assert abs(loss - expect) < 1e-12
        h = 1e-4
        rng = np.random.default_rng(3)
        for _ in range(10):
            j, k = int(rng.integers(2)), int(rng.integers(3))
            zp, zm = z.copy(), z.copy()
            zp[0, j, k] += h
            zm[0, j, k] -= h
            lp = -(1 + lam) * log_softmax(zp)[0, 0, 2] - log_softmax(zp)[0, 1, 0]
            lm = -(1 + lam) * log_softmax(zm)[0, 0, 2] - log_softmax(zm)[0, 1, 0]
            fd = (lp - lm) / (2 * h)
            assert abs(grad[0, j, k] - fd) < 1e-3 * max(abs(fd), 1e-2)

    def test_label_gradients_scale_up(self):
        _, z = random_rnnt_grid(1, 1, 3, 4)
        grid = log_softmax(z)
        _, g0 = rnnt_loss_fastemit(grid, [1], lam=0.0)
        _, g1 = rnnt_loss_fastemit(grid, [1], lam=0.5)
        # label logit pulled harder, blank of the emitting cell pushed harder
        assert g1[0, 0, 1] < g0[0, 0, 1]
        assert g1[0, 0, 0] > g0[0, 0, 0]

    def test_default_lambda_documented_value(self):
        from streamasr.model import ModelConfig  # default carried on the config
        import dataclasses

        field = {f.name: f for f in dataclasses.fields(ModelConfig)}["fastemit_lambda"]
        assert field.default == 0.005


class TestHybridLoss:
    def test_weighted_sum(self):
        assert hybrid_loss(2.0, 1.0, 0.3) == 1.6

    def test_alpha_zero(self):
        assert hybrid_loss(5.0, 1.25, 0.0) == 1.25

    def test_alpha_one_doubles_equal_losses(self):
        assert hybrid_loss(0.75, 0.75, 1.0) == 1.5

    def test_invalid_inputs(self):
        with pytest.raises(ArgumentError):
            hybrid_loss(1.0, 2.0, -0.1)
        with pytest.raises(ArgumentError):
            hybrid_loss(float("inf"), 2.0, 0.3)
