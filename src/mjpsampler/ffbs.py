"""Forward filtering-backward sampling on a fixed candidate-time grid.

Given candidate jump times ``T'_1 < ... < T'_N``, the skeleton
``S'_0, ..., S'_N`` is a discrete hidden Markov chain: prior transitions come
from the uniformized kernel, and each observation contributes a likelihood
factor at the grid index whose segment contains its time. The forward pass
produces the filtered distributions plus the log normalizing constant
``log p(Y | T')``; the backward pass draws an exact joint sample from a table
of the draw for every successor state.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleEvidence, LambdaTooSmall, TooLarge
from .model import Evidence, RateMatrix, UniformizedKernel


def build_kernel(q: RateMatrix, lam: float) -> UniformizedKernel:
    """Uniformized skeleton kernel: off-diagonal ``q/lam``, diagonal ``1 - leave/lam``.

    Requires ``lam > q_max`` strictly so every diagonal entry is positive.
    """
    if not lam > q.q_max:
        raise LambdaTooSmall(f"lambda={lam} must strictly exceed q_max={q.q_max}")
    p = q.q / lam
    np.fill_diagonal(p, 1.0 - q.leave / lam)
    return UniformizedKernel(p=p, lam=float(lam))


def attach_emissions(grid_times, ev: Evidence) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood factors of the grid indices that observations attach to.

    Returns ``(indices, factors)``: ``indices`` increase strictly, and
    ``factors[m]`` is the product, in observation order, of the likelihood
    vectors of all observations attached to ``indices[m]``. An observation at
    time ``t`` attaches to the largest index whose candidate time is <= ``t``
    (index 0, i.e. the initial state, when no candidate time is).
    """
    idx = np.searchsorted(grid_times, ev.times, side="right")
    new = idx[1:] != idx[:-1]  # observation times are sorted
    if new.all():
        return idx, ev.liks
    heads = np.flatnonzero(np.concatenate(([True], new)))
    return idx[heads], np.multiply.reduceat(ev.liks, heads, axis=0)


# Steps per block of the backward pass's predecessor table: bounds its
# block x S x S float transient on long grids.
BACKWARD_BLOCK = 256

# Longest grid, in kernel steps, that forward_filter accepts. At the cap the
# step loop holds (N + 1) x S floats of rows (40 MB at S = 20) and the blocked
# path an N x S x S table (128 MB at S = 8).
GRID_CAP = 250_000

# Grids of at least BLOCKED_MIN_STEPS steps on at most BLOCKED_MAX_STATES
# states take the blocked filter, in blocks of BLOCK_STEPS steps. It makes
# about BLOCK_STEPS array passes over an (N / BLOCK_STEPS) x S x S table and
# one dot product per block; the step loop makes one dot product per step,
# whose cost is nearly all call overhead when S is small. Measured in us,
# step loop / blocked, with every second index attached (2-core x86-64 Xeon,
# numpy 2.4, one BLAS thread):
#
#   S \ N      64        80        96       128       400      1000
#   3       64 / 70   80 / 74   94 / 75  125 / 82  386 / 135  955 / 250
#   8       67 / 79   82 / 81   98 / 87  128 / 99  395 / 181  989 / 364
#   12      68 / 93   85 / 99  100 / 103 132 / 123 408 / 256 1016 / 573
#   20      72 / 136  88 / 145 106 / 159 140 / 201 430 / 514 1067 / 1260
#
# Up to S = 8 the blocked filter is ahead from N = 80 on; at S = 12 only from
# about N = 128, and at S = 20 never.
BLOCK_STEPS = 12
BLOCKED_MIN_STEPS = 80
BLOCKED_MAX_STATES = 8

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FilterState:
    """Forward filter distributions and accumulated log normalizer.

    ``alphas[i]`` is proportional to ``p(S'_i | Y attached at indices <= i)``.
    On the step loop, rows at index 0 and at every index where a factor
    attaches are normalized exactly; the kernel is row-stochastic, so every
    other row sums to 1 to within rounding. On the blocked path every row is
    normalized exactly. See :func:`forward_filter`.
    """

    alphas: np.ndarray  # (n_steps + 1, n_states)
    log_norm: float


def forward_filter(kernel: UniformizedKernel, nu, factors: tuple[np.ndarray, np.ndarray],
                   n_steps: int) -> FilterState:
    """Run the scaled forward recursion for ``n_steps`` kernel transitions.

    ``factors`` is the ``(indices, factors)`` pair that
    :func:`attach_emissions` returns.

    ``alphas[i]`` is ``p(S'_i | Y attached at indices <= i)``. ``log_norm``
    sums the logs of the normalizers and equals ``log p(Y | T')``.

    Two paths compute the same recursion. Grids of at least
    ``BLOCKED_MIN_STEPS`` steps on at most ``BLOCKED_MAX_STATES`` states take
    the blocked path, which normalizes every row; there one ``np.dot`` per
    step would cost more than a few array passes over all blocks. Other grids
    take the step loop, which normalizes at index 0 and wherever a factor
    attaches and carries rows through the row-stochastic kernel elsewhere,
    where their sums stay 1 to within rounding. The two agree to rounding.

    Raises :class:`ImpossibleEvidence` when a normalizer of the step loop
    vanishes; mass can only vanish at index 0 or where a factor attaches.
    The blocked path hands any grid with a vanishing or subnormal normalizer
    to the step loop, so the error is raised where the step loop raises it.
    Raises :class:`TooLarge` when ``n_steps`` exceeds ``GRID_CAP``, before
    anything is allocated.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if n_steps > GRID_CAP:
        raise TooLarge(f"grid of {n_steps} steps exceeds GRID_CAP={GRID_CAP}")
    p = kernel.p
    nu = np.asarray(nu, dtype=float)
    indices, liks = factors
    if n_steps >= BLOCKED_MIN_STEPS and kernel.n_states <= BLOCKED_MAX_STATES:
        filt = _forward_blocked(p, nu, indices, liks, n_steps)
        if filt is not None:
            return filt

    # the step loop
    attached = dict(zip(indices.tolist(), liks))
    alphas = np.empty((n_steps + 1, kernel.n_states))
    rows = list(alphas)  # row views, made once
    norms = []
    for i, row in enumerate(rows):
        if i:
            np.dot(rows[i - 1], p, out=row)
        else:
            row[:] = nu
        f = attached.get(i)
        if f is not None:
            row *= f
        elif i:
            continue  # P is row-stochastic: the mass stays 1 to within rounding
        c = sum(row.tolist())  # plain floats: cheaper than ndarray.sum on short rows
        if not c > 0.0:
            raise ImpossibleEvidence(f"zero normalizer at grid index {i}")
        row /= c
        norms.append(c)
    return FilterState(alphas=alphas, log_norm=float(np.log(norms).sum()))


def _forward_blocked(p: np.ndarray, nu: np.ndarray, indices: np.ndarray, liks: np.ndarray,
                     n_steps: int) -> FilterState | None:
    """Two-level blocked scan of the forward recursion; ``None`` on underflow.

    With ``M[i] = P diag(f_i)`` and blocks of ``L = BLOCK_STEPS`` steps,
    ``prod[k, b]`` is ``M[bL + 1] ... M[bL + k + 1]`` rescaled by its sum,
    built for all blocks at once with one matrix product and one factor
    multiply per offset ``k``. The normalized start of each block is then
    carried across the blocks, one dot product each, and every row expanded
    as ``start[b] @ prod[k, b]`` in one ``matmul`` and normalized. Returns
    ``None`` when a normalizer is below the smallest normal float, so that
    the step loop decides.
    """
    n_states = p.shape[0]
    n_blocks = -(-n_steps // BLOCK_STEPS)
    f = np.ones((n_blocks * BLOCK_STEPS + 1, n_states))
    f[indices] = liks
    first = nu * f[0]
    c0 = sum(first.tolist())
    if not c0 >= _TINY:
        return None
    f = f[1:].reshape(n_blocks, BLOCK_STEPS, 1, n_states).transpose(1, 0, 2, 3)

    prod = np.empty((BLOCK_STEPS, n_blocks, n_states, n_states))
    flat = prod.reshape(BLOCK_STEPS, n_blocks * n_states, n_states)  # one 2-D product per offset
    scales = np.empty((BLOCK_STEPS, n_blocks))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(prod[0], p)
        for k, out in enumerate(prod):
            if k:
                np.dot(flat[k - 1], p, out=flat[k])
            out *= f[k]
            s = out.sum(axis=(1, 2))
            out /= s[:, None, None]
            scales[k] = s
    scales = scales.T.ravel()[:n_steps]  # block-major: entry bL + k is offset k of block b
    if not (scales >= _TINY).all():
        return None

    start = np.empty((n_blocks, n_states))
    start[0] = first / c0
    norms = [c0]
    for b, end in enumerate(prod[-1, :-1]):
        nxt = start[b + 1]
        np.dot(start[b], end, out=nxt)
        c = sum(nxt.tolist())
        if not c >= _TINY:
            return None
        nxt /= c
        norms.append(c)

    alphas = np.empty((n_blocks * BLOCK_STEPS + 1, n_states))
    alphas[0] = start[0]
    alphas[1:].reshape(n_blocks, BLOCK_STEPS, n_states)[:] = (
        np.matmul(start[:, None, :], prod)[:, :, 0].transpose(1, 0, 2))
    alphas = alphas[:n_steps + 1]
    sums = alphas[1:] @ np.ones(n_states)
    if not (sums >= _TINY).all():
        return None
    alphas[1:] /= sums[:, None]
    norms.append(sums[-1])
    return FilterState(alphas=alphas, log_norm=float(np.log(norms).sum() + np.log(scales).sum()))


def backward_sample(filt: FilterState, kernel: UniformizedKernel,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw one skeleton from the exact conditional ``p(S' | T', Y)``.

    ``S'_i`` is the inverse-CDF draw from ``alphas[i, s] * p[s, S'_{i+1}]``
    with uniform ``u[i]``. Since ``u[i]`` does not depend on ``S'_{i+1}``,
    the draw is tabulated for every successor first: ``pred[i, s']`` counts
    the cumulative weights ``<= u[i] * total[i, s']``. The cumulative sums
    run over ``s`` in the same order as ``np.cumsum``, one array operation
    per state over a block of ``BACKWARD_BLOCK`` steps, so the walk back
    through the table draws the same skeleton as a step-by-step pass.
    """
    alphas = filt.alphas
    p = kernel.p
    n = alphas.shape[0] - 1
    top = kernel.n_states - 1
    u = rng.random(n + 1)

    pred = np.empty((n, top + 1), dtype=np.int64)
    for lo in range(0, n, BACKWARD_BLOCK):
        hi = min(lo + BACKWARD_BLOCK, n)
        # cums[s][i - lo, s'] = sum over r <= s of alphas[i, r] * p[r, s']
        cums = list(itertools.accumulate(
            a[:, None] * pr for a, pr in zip(alphas[lo:hi].T, p)))
        cut = u[lo:hi, None] * cums[-1]
        pred[lo:hi] = sum(cum <= cut for cum in cums)
    np.minimum(pred, top, out=pred)  # S when total is 0 or u * total rounds up to it

    cum = list(itertools.accumulate(alphas[n].tolist()))
    s = min(bisect.bisect_right(cum, float(u[n]) * cum[-1]), top)
    out = [s] * (n + 1)
    table = pred.tolist()
    for i in range(n - 1, -1, -1):
        s = table[i][s]
        out[i] = s
    return np.array(out, dtype=np.int64)


def skeleton_sample_log_probability(filt: FilterState, kernel: UniformizedKernel,
                                    skeleton) -> float:
    """Log probability that the backward pass emits a given skeleton.

    Multiplies the exact backward conditionals, so it equals the posterior
    skeleton probability whenever the filter is exact.
    """
    skeleton = np.asarray(skeleton, dtype=np.int64)
    alphas = filt.alphas
    p = kernel.p
    n = alphas.shape[0] - 1
    if skeleton.shape != (n + 1,):
        raise ValueError("skeleton length must match the filter")
    with np.errstate(divide="ignore"):
        log_prob = np.log(alphas[n][skeleton[n]])
        for i in range(n, 0, -1):
            if log_prob == -np.inf:
                break  # impossible already; a later conditional may be 0/0
            w = alphas[i - 1] * p[:, skeleton[i]]
            log_prob += np.log(w[skeleton[i - 1]]) - np.log(w.sum())
    return float(log_prob)
