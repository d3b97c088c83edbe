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

from .errors import ImpossibleEvidence, LambdaTooSmall
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


def attach_emissions(grid_times, ev: Evidence) -> dict[int, np.ndarray]:
    """Per-grid-index likelihood factors, keyed by skeleton index.

    Entry ``i`` is the pointwise product of the likelihood vectors of all
    observations attached to index ``i``. An observation at time ``t``
    attaches to the largest index whose candidate time is <= ``t`` (index 0,
    i.e. the initial state, when no candidate time is).
    """
    grid_times = np.asarray(grid_times, dtype=float)
    idx = np.searchsorted(grid_times, ev.times, side="right")
    factors: dict[int, np.ndarray] = {}
    for j in range(ev.n_obs):
        i = int(idx[j])
        if i in factors:
            factors[i] = factors[i] * ev.liks[j]
        else:
            factors[i] = ev.liks[j]
    return factors


# Steps per block of the backward pass's predecessor table: bounds its
# block x S x S float transient on long grids.
BACKWARD_BLOCK = 256


@dataclass(frozen=True)
class FilterState:
    """Forward filter distributions and accumulated log normalizer.

    ``alphas[i]`` is proportional to ``p(S'_i | Y attached at indices <= i)``.
    Rows at index 0 and at every index where a factor attaches are normalized
    exactly; the kernel is row-stochastic, so every other row sums to 1 to
    within rounding.
    """

    alphas: np.ndarray  # (n_steps + 1, n_states)
    log_norm: float


def forward_filter(kernel: UniformizedKernel, nu, factors: dict[int, np.ndarray],
                   n_steps: int) -> FilterState:
    """Run the scaled forward recursion for ``n_steps`` kernel transitions.

    ``factors`` maps grid indices to likelihood factors, as
    :func:`attach_emissions` returns them.

    ``alphas[i]`` is ``p(S'_i | Y attached at indices <= i)``: normalized at
    index 0 and wherever a factor attaches, and carried through the
    row-stochastic kernel elsewhere, where its sum stays 1 to within rounding.
    ``log_norm`` sums the logs of the normalizers and equals ``log p(Y | T')``.

    Raises :class:`ImpossibleEvidence` when a normalizer vanishes; mass can
    only vanish at index 0 or where a factor attaches.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    p = kernel.p
    nu = np.asarray(nu, dtype=float)

    alphas = np.empty((n_steps + 1, kernel.n_states))
    rows = list(alphas)  # row views, made once
    norms = []
    for i, row in enumerate(rows):
        if i:
            np.dot(rows[i - 1], p, out=row)
        else:
            row[:] = nu
        f = factors.get(i)
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


def backward_sample_many(filt: FilterState, kernel: UniformizedKernel,
                         n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n_draws`` independent skeletons at once (same law as repeated
    :func:`backward_sample`, vectorized across draws)."""
    alphas = filt.alphas
    p = kernel.p
    n = alphas.shape[0] - 1
    n_states = kernel.n_states

    # cums[i][s_next] = cumulative distribution of S_i given S_{i+1} = s_next
    cums = np.empty((n, n_states, n_states))
    for i in range(n):
        w = alphas[i][:, None] * p  # (s, s_next)
        total = w.sum(axis=0)
        total[total == 0] = 1.0  # unreachable s_next; row never indexed
        cums[i] = np.cumsum(w / total, axis=0).T

    u = rng.random((n_draws, n + 1))
    out = np.empty((n_draws, n + 1), dtype=np.int64)
    cum_last = np.cumsum(alphas[n])
    s = np.minimum(
        np.searchsorted(cum_last, u[:, n] * cum_last[-1], side="right"), n_states - 1
    )
    out[:, n] = s
    for i in range(n - 1, -1, -1):
        rows = cums[i][s]  # (n_draws, n_states)
        s = np.minimum((u[:, i][:, None] >= rows).sum(axis=1), n_states - 1)
        out[:, i] = s
    return out


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
