"""Alignment losses in the log domain, with analytic gradients w.r.t. logits.

Both losses take already log-softmax-normalized grids; the returned gradient
is with respect to the logits underneath that normalization (the usual
"grad wrt logits" convention: occupancy * softmax minus transition
posteriors). Log-zero is the LOG_ZERO sentinel from numerics, never -inf, so
lattice recursions cannot produce NaN.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ArgumentError, NumericsError
from .numerics import LOG_ZERO, logsumexp

_INFEASIBLE = LOG_ZERO / 2.0


def target_ids(target, v: int, blank: int) -> list[int]:
    """The target's label ids as Python ints; ArgumentError unless each is an
    integer (a numpy one too, a bool not) in [0, v) and not blank."""
    try:
        ids = list(target)
    except TypeError:
        raise ArgumentError(f"target must be a sequence of ids, got {target!r}") from None
    for y in ids:
        if isinstance(y, bool) or not isinstance(y, (int, np.integer)):
            raise ArgumentError(f"target id {y!r} is not an integer")
        if y == blank:
            raise ArgumentError("target must not contain blank")
        if not 0 <= y < v:
            raise ArgumentError(f"target id {y} out of vocabulary range [0, {v})")
    return [int(y) for y in ids]


def _log_prob_grid(grid, ndim: int, blank) -> np.ndarray:
    """`grid` in float64; ArgumentError unless it is a finite array of numbers
    with `ndim` axes, each at least 1 long, whose rows over the last axis are
    log-softmax normalized, and `blank` is one of their ids."""
    try:
        g = np.asarray(grid)
    except (TypeError, ValueError):  # ragged nesting
        g = np.asarray(None)
    if g.dtype.kind not in "biuf" or g.ndim != ndim or 0 in g.shape:
        raise ArgumentError(f"log-prob grid must be an array of numbers with {ndim} axes, "
                            f"each at least 1 long, got {g.dtype} {g.shape}")
    g = g.astype(np.float64, copy=False)
    if not np.isfinite(g).all():
        raise ArgumentError("log-prob grid holds NaN or infinite values")
    if np.max(np.abs(logsumexp(g, axis=-1))) > 1e-4:
        raise ArgumentError("log-prob grid rows are not log-softmax normalized")
    if isinstance(blank, bool) or not isinstance(blank, (int, np.integer)) \
            or not 0 <= blank < g.shape[-1]:
        raise ArgumentError(f"blank {blank!r} is not an id of the grid's {g.shape[-1]}")
    return g


def ctc_loss(
    grid: np.ndarray, target: list[int], blank: int = 0
) -> tuple[float, np.ndarray]:
    """Negative log-probability of all blank-augmented paths collapsing to target.

    grid: (T, V) log-softmax rows, T >= 1, all finite (ArgumentError
    otherwise). Returns (loss, dloss/dlogits). If no valid alignment exists
    (too few frames for the target), loss is +inf and the gradient is zeros.
    """
    grid = _log_prob_grid(grid, 2, blank)
    t_len, v = grid.shape
    target = target_ids(target, v, blank)
    ext = [blank]
    for y in target:
        ext += [y, blank]
    s_len = len(ext)

    alpha = np.full((t_len, s_len), LOG_ZERO)
    alpha[0, 0] = grid[0, blank]
    if s_len > 1:
        alpha[0, 1] = grid[0, ext[1]]
    for t in range(1, t_len):
        for s in range(s_len):
            best = alpha[t - 1, s]
            if s >= 1:
                best = np.logaddexp(best, alpha[t - 1, s - 1])
            if s >= 2 and ext[s] != blank and ext[s] != ext[s - 2]:
                best = np.logaddexp(best, alpha[t - 1, s - 2])
            alpha[t, s] = best + grid[t, ext[s]]
    log_z = alpha[t_len - 1, s_len - 1]
    if s_len > 1:
        log_z = np.logaddexp(log_z, alpha[t_len - 1, s_len - 2])
    if log_z < _INFEASIBLE:
        return float("inf"), np.zeros_like(grid)

    beta = np.full((t_len, s_len), LOG_ZERO)
    beta[t_len - 1, s_len - 1] = grid[t_len - 1, ext[s_len - 1]]
    if s_len > 1:
        beta[t_len - 1, s_len - 2] = grid[t_len - 1, ext[s_len - 2]]
    for t in range(t_len - 2, -1, -1):
        for s in range(s_len):
            best = beta[t + 1, s]
            if s + 1 < s_len:
                best = np.logaddexp(best, beta[t + 1, s + 1])
            if s + 2 < s_len and ext[s + 2] != blank and ext[s + 2] != ext[s]:
                best = np.logaddexp(best, beta[t + 1, s + 2])
            beta[t, s] = best + grid[t, ext[s]]
    back_z = beta[0, 0]
    if s_len > 1:
        back_z = np.logaddexp(back_z, beta[0, 1])
    if abs(back_z - log_z) > 1e-8 * max(1.0, abs(log_z)):
        raise NumericsError(f"forward/backward totals disagree: {log_z} vs {back_z}")

    # occupancy per (t, vocab id): alpha + beta double-count the emission
    occ = np.full((t_len, v), LOG_ZERO)
    for t in range(t_len):
        for s in range(s_len):
            c = ext[s]
            occ[t, c] = np.logaddexp(occ[t, c], alpha[t, s] + beta[t, s] - grid[t, c])
    gamma = np.exp(occ - log_z)
    grad = np.exp(grid) - gamma
    return float(-log_z), grad


def _rnnt_lattice(
    lp: np.ndarray, target: list[int], blank: int
) -> tuple[np.ndarray, np.ndarray, float]:
    t_len, u_len, _ = lp.shape
    alpha = np.full((t_len, u_len), LOG_ZERO)
    alpha[0, 0] = 0.0
    for t in range(t_len):
        for u in range(u_len):
            if t == 0 and u == 0:
                continue
            stay = alpha[t - 1, u] + lp[t - 1, u, blank] if t > 0 else LOG_ZERO
            emit = alpha[t, u - 1] + lp[t, u - 1, target[u - 1]] if u > 0 else LOG_ZERO
            alpha[t, u] = np.logaddexp(stay, emit)
    log_z = alpha[t_len - 1, u_len - 1] + lp[t_len - 1, u_len - 1, blank]

    # beta[t, u]: log-prob of completing from node (t, u), emissions included
    beta = np.full((t_len, u_len), LOG_ZERO)
    beta[t_len - 1, u_len - 1] = lp[t_len - 1, u_len - 1, blank]
    for t in range(t_len - 1, -1, -1):
        for u in range(u_len - 1, -1, -1):
            if t == t_len - 1 and u == u_len - 1:
                continue
            stay = lp[t, u, blank] + beta[t + 1, u] if t + 1 < t_len else LOG_ZERO
            emit = lp[t, u, target[u]] + beta[t, u + 1] if u + 1 < u_len else LOG_ZERO
            beta[t, u] = np.logaddexp(stay, emit)
    return alpha, beta, float(log_z)


def rnnt_loss_fastemit(
    lp: np.ndarray, target: list[int], blank: int = 0, lam: float = 0.0
) -> tuple[float, np.ndarray]:
    """Transducer loss with emission-encouraging regularization of weight lam.

    The loss value adds lam times the posterior-weighted negative log-prob of
    the label emissions; the gradient scales every label-transition
    contribution by (1 + lam), which is the usual practical formulation of
    the regularizer. lam=0 is exactly the plain transducer loss. `lp` is
    the (T, U+1, V) grid of log-softmax rows, T >= 1, all finite, and lam a
    finite number >= 0 (ArgumentError otherwise).
    """
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not 0 <= lam < math.inf:
        raise ArgumentError(f"lambda must be a finite number >= 0, got {lam!r}")
    lp = _log_prob_grid(lp, 3, blank)
    t_len, u_len, v = lp.shape
    target = target_ids(target, v, blank)
    if len(target) != u_len - 1:
        raise ArgumentError(f"grid U+1={u_len} does not match target length {len(target)}")

    alpha, beta, log_z = _rnnt_lattice(lp, target, blank)
    if log_z < _INFEASIBLE:
        return float("inf"), np.zeros_like(lp)

    # transition posteriors through each node
    xi_blank = np.zeros((t_len, u_len))
    xi_label = np.zeros((t_len, u_len))
    emission_term = 0.0
    for t in range(t_len):
        for u in range(u_len):
            cont = beta[t + 1, u] if t + 1 < t_len else (0.0 if u == u_len - 1 else LOG_ZERO)
            xi_blank[t, u] = np.exp(alpha[t, u] + lp[t, u, blank] + cont - log_z)
            if u + 1 < u_len:
                w = np.exp(alpha[t, u] + lp[t, u, target[u]] + beta[t, u + 1] - log_z)
                xi_label[t, u] = w
                emission_term += w * (-lp[t, u, target[u]])

    occupancy = xi_blank + (1.0 + lam) * xi_label
    grad = np.exp(lp) * occupancy[:, :, None]
    for t in range(t_len):
        for u in range(u_len):
            grad[t, u, blank] -= xi_blank[t, u]
            if u + 1 < u_len:
                grad[t, u, target[u]] -= (1.0 + lam) * xi_label[t, u]
    loss = -log_z + lam * emission_term
    return float(loss), grad


def rnnt_loss(lp: np.ndarray, target: list[int], blank: int = 0) -> tuple[float, np.ndarray]:
    """Standard transducer loss over the (T, U+1, V) log-prob lattice."""
    return rnnt_loss_fastemit(lp, target, blank, lam=0.0)


def hybrid_loss(l_ctc: float, l_rnnt: float, alpha: float) -> float:
    """Weighted sum alpha * ctc + rnnt used to train the two heads jointly:
    finite real losses and a finite real alpha >= 0 (ArgumentError otherwise)."""
    for name, v in (("alpha", alpha), ("CTC loss", l_ctc), ("RNNT loss", l_rnnt)):
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ArgumentError(f"{name} must be a finite number, got {v!r}")
    if alpha < 0:
        raise ArgumentError(f"alpha must be >= 0, got {alpha!r}")
    return alpha * l_ctc + l_rnnt
