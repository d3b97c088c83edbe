"""Forward filtering-backward sampling on a fixed candidate-time grid.

Given candidate jump times ``T'_1 < ... < T'_N``, the skeleton
``S'_0, ..., S'_N`` is a discrete hidden Markov chain: prior transitions come
from the uniformized kernel, and each observation contributes a likelihood
factor at the grid index whose segment contains its time. The forward pass
produces the filtered distributions plus the log normalizing constant
``log p(Y | T')``; the backward pass draws an exact joint sample from one
table of the draw for every successor state (grid axis innermost, in blocks
of ``BACKWARD_BYTES``), which the lockstep engine of ``raoteh`` shares.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleEvidence, LambdaTooSmall, TooLarge
from .model import Evidence, RateMatrix, UniformizedKernel, _trusted


def build_kernel(q: RateMatrix, lam: float) -> UniformizedKernel:
    """Uniformized skeleton kernel: off-diagonal ``q/lam``, diagonal ``1 - leave/lam``.

    Requires ``lam > q_max`` strictly so every diagonal entry is positive.
    ``q`` is validated and ``lam`` checked here, so the kernel is valid by
    construction and skips the public constructor's checks.
    """
    if not lam > q.q_max:
        raise LambdaTooSmall(f"lambda={lam} must strictly exceed q_max={q.q_max}")
    p = q.q / lam
    np.fill_diagonal(p, 1.0 - q.leave / lam)
    return _trusted(UniformizedKernel, p=p, lam=float(lam))


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


# Bytes per block of the backward predecessor table, at 9 S^2 a row (one step of
# one chain: float sums and comparison bytes); at least one row, 7 at S = 256.
BACKWARD_BYTES = 1 << 22

# Longest grid, in kernel steps, that forward_filter accepts. At the cap the
# segment loop holds (N + 1) x S floats of rows (40 MB at S = 20) and the
# blocked path an N x S x S table (128 MB at S = 8).
GRID_CAP = 250_000

# Two paths run the forward filter. The segment loop makes one dot product
# with the kernel's power table per attached index and per POWER_STEPS steps
# without evidence: about 1.9 us per attached index and 0.06 us per step at
# S <= 8. The blocked filter, in blocks of BLOCK_STEPS steps, makes about
# BLOCK_STEPS array passes over an (N / BLOCK_STEPS) x S x S table and one
# dot product per block, whatever the evidence: about 60 us plus 0.2 (S = 3)
# to 0.3 (S = 8) us per step. Measured in us, segment loop / blocked, with
# one index in every `spacing` attached (2-core x86-64 Xeon, numpy 2.4, one
# BLAS thread; * marks the path the rule below takes):
#
#   S    N   spacing 2    3           4           6           8          12
#   3   80    84 / 73*    57* / 73    44* / 72    31* / 72    25* / 72   18* / 72
#   3  128   130 / 82*    88* / 82    68* / 82    47* / 82    37* / 82   26* / 81
#   3  400   399 / 136*  268 / 136*  202 / 136*  137* / 136  105* / 136  73* / 135
#   3 1000   998 / 253*  666 / 252*  501 / 252*  338 / 250*  254* / 250 174* / 250
#   8   80    88 / 81*    60* / 82    47* / 81    34* / 82    26* / 81   19* / 82
#   8  128   137 / 99*    93* / 99    72* / 98    50* / 98    39* / 98   28* / 98
#   8  400   418 / 183*  283 / 182*  215 / 182*  146* / 182  113* / 180  79* / 181
#   8 1000  1041 / 361*  703 / 359*  531 / 360*  359 / 359*  274* / 358 188* / 359
#
# So grids of at least BLOCKED_MIN_STEPS steps on at most BLOCKED_MAX_STATES
# states take the blocked filter when (attached indices - BLOCKED_MIN_ATTACHED)
# * BLOCKED_STEPS_PER_ATTACHED >= N: the blocked path's fixed cost is about 32
# attached indices of the segment loop, and each attached index costs about
# as much as 10 of its steps. At S = 12 the blocked filter is ahead only with
# about every second index attached (259 / 432 at N = 400), at S = 20 never
# (519 / 456).
BLOCK_STEPS = 12
BLOCKED_MIN_STEPS = 80
BLOCKED_MAX_STATES = 8
BLOCKED_MIN_ATTACHED = 32
BLOCKED_STEPS_PER_ATTACHED = 10

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FilterState:
    """Forward filter distributions and accumulated log normalizer.

    ``alphas[i]`` is proportional to ``p(S'_i | Y attached at indices <= i)``.
    On the segment loop, rows at index 0 and at every index where a factor
    attaches are normalized exactly; the kernel's powers are row-stochastic,
    so every other row sums to 1 to within rounding. On the blocked path
    every row is normalized exactly. See :func:`forward_filter`.
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

    Two paths compute the same recursion. The segment loop normalizes at
    index 0 and wherever a factor attaches; in between, row ``a + j`` is
    ``alphas[a] @ P^j``, and one dot product with the kernel's table of
    powers (:attr:`UniformizedKernel.powers`) fills up to ``K`` rows, whose
    sums stay 1 to within rounding. Grids of at least ``BLOCKED_MIN_STEPS``
    steps on at most ``BLOCKED_MAX_STATES`` states with evidence at enough
    indices (see the constants) take the blocked path, which normalizes
    every row. The two agree to rounding.

    Raises :class:`ImpossibleEvidence` when a normalizer of the segment loop
    vanishes; mass can only vanish at index 0 or where a factor attaches.
    The blocked path hands any grid with a vanishing or subnormal normalizer
    to the segment loop, so the error is raised where the segment loop
    raises it. Raises :class:`TooLarge` when ``n_steps`` exceeds
    ``GRID_CAP``, before anything is allocated.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if n_steps > GRID_CAP:
        raise TooLarge(f"grid of {n_steps} steps exceeds GRID_CAP={GRID_CAP}")
    nu = np.asarray(nu, dtype=float)
    indices, liks = factors
    if (n_steps >= BLOCKED_MIN_STEPS and kernel.n_states <= BLOCKED_MAX_STATES
            and (indices.size - BLOCKED_MIN_ATTACHED) * BLOCKED_STEPS_PER_ATTACHED >= n_steps):
        filt = _forward_blocked(kernel.p, nu, indices, liks, n_steps)
        if filt is not None:
            return filt

    # the segment loop: between normalized rows, row a + j is alphas[a] @ P^j,
    # up to K rows filled by one dot product
    n_states = kernel.n_states
    powers = kernel.powers
    k_max = powers.shape[0] // n_states
    alphas = np.empty((n_steps + 1, n_states))
    flat = alphas.reshape(-1)
    alphas[0] = nu
    norms = [] if indices.size and indices[0] == 0 else [_normalize(alphas[0], 0)]
    a = 0
    for i, f in zip(indices.tolist() + [n_steps], [*liks, None]):
        while a < i:
            k = min(k_max, i - a)
            np.dot(powers[:k * n_states], alphas[a],
                   out=flat[(a + 1) * n_states:(a + k + 1) * n_states])
            a += k
        if f is None:
            break
        row = alphas[i]
        row *= f
        norms.append(_normalize(row, i))
    return FilterState(alphas=alphas, log_norm=float(np.log(norms).sum()))


def _normalize(row: np.ndarray, i: int) -> float:
    """Divide ``row`` (grid index ``i``) by its sum and return the sum."""
    c = sum(row.tolist())  # plain floats: cheaper than ndarray.sum on short rows
    if not c > 0.0:
        raise ImpossibleEvidence(f"zero normalizer at grid index {i}")
    row /= c
    return c


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
    the segment loop decides.
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


def categorical(cum: list[float], u: float) -> int:
    """Inverse-CDF draw from the running sums ``cum`` of unnormalized weights.

    Returns the number of entries ``<= u * cum[-1]``, capped at the last
    index. ``cum`` is summed left to right, as ``np.cumsum`` does; plain
    floats make the search cheaper than ``np.searchsorted`` on short rows.
    """
    return min(bisect.bisect_right(cum, u * cum[-1]), len(cum) - 1)


def _predecessors(alphas: np.ndarray, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of the M rows of ``alphas`` (steps, or steps times
    chains) with uniforms ``u``, for every successor state; ``(S, M)``.

    ``pred[t, m]`` counts the running sums ``sum_{s' <= s} alphas[m, s'] p[s', t]``
    over ``s < S - 1`` that are ``<= u[m]`` times the total. They are added in
    ``np.cumsum``'s order and never decrease, so this is the per-row draw
    capped at ``S - 1``, bit for bit. Blocks of rows hold ``BACKWARD_BYTES``.
    """
    rows, n_states = alphas.shape
    dtype = np.uint8 if n_states <= 256 else np.uint16  # counts up to S - 1
    block = max(1, BACKWARD_BYTES // (9 * n_states * n_states))
    out = np.empty((n_states, rows), dtype)
    for lo in range(0, rows, block):
        cums = np.einsum("st,sm->stm", p, alphas[lo:lo + block].T.copy())
        for s in range(1, n_states):
            np.add(cums[s - 1], cums[s], out=cums[s])
        passed = cums[:-1] <= u[lo:lo + block] * cums[-1]
        del cums  # before the next block is filled
        passed.view(np.uint8).sum(axis=0, dtype=dtype, out=out[:, lo:lo + block])
    return out


def backward_sample(filt: FilterState, kernel: UniformizedKernel,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw one skeleton from the exact conditional ``p(S' | T', Y)``.

    ``S'_i`` is the inverse-CDF draw from ``alphas[i, s] * p[s, S'_{i+1}]``
    with uniform ``u[i]``. Since ``u[i]`` does not depend on ``S'_{i+1}``,
    the draw is tabulated for every successor first (:func:`_predecessors`,
    grid axis innermost), and the walk back reads one count per step, so it
    draws the same skeleton as a step-by-step pass.
    """
    alphas = filt.alphas
    n = alphas.shape[0] - 1
    u = rng.random(n + 1)
    table = memoryview(_predecessors(alphas[:n], kernel.p, u[:n]).reshape(-1))
    s = categorical(list(itertools.accumulate(alphas[n].tolist())), float(u[n]))
    out = [s] * (n + 1)
    for i in range(n - 1, -1, -1):
        out[i] = s = table[s * n + i]
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
