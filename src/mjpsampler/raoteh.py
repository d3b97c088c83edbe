"""The Rao-Teh Gibbs kernel and the sweep loop.

One sweep from trajectory ``X``: (V) draw virtual candidate times from the
piecewise-homogeneous Poisson process with rate ``lambda - leave(X(t))``,
(S) merge them with the true jumps of ``X`` and redraw the whole skeleton on
the merged grid by FFBS under the evidence, then discard the new virtual
jumps. The result is one exact Gibbs transition targeting the posterior over
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import ImpossibleEvidence, InitFailed, LambdaTooSmall, TimeOutOfWindow
from .ffbs import attach_emissions, backward_sample, build_kernel, forward_filter
from .model import (
    Evidence,
    Grid,
    RateMatrix,
    SamplerConfig,
    Trajectory,
    UniformizedKernel,
    _trusted,
    as_distribution,
    collapse_grid,
    trajectory_log_likelihood,
)
from .simulate import gillespie_simulate

PRIOR_REJECTION_CAP = 10_000


def sample_virtual_jumps(x: Trajectory, q: RateMatrix, lam: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw the virtual candidate times given the current trajectory.

    On each constant segment in state ``s`` the process is homogeneous
    Poisson with rate ``lam - leave(s)``; counts are Poisson draws and
    placements uniform. Returns the sorted times, strictly inside the window.
    """
    if not lam > q.q_max:
        raise LambdaTooSmall(f"lambda={lam} must strictly exceed q_max={q.q_max}")
    starts = np.concatenate(([x.t_min], x.jump_times))
    ends = np.concatenate((x.jump_times, [x.t_max]))
    seg_states = np.concatenate(([x.s0], x.jump_states))
    lengths = ends - starts
    rates = lam - q.leave[seg_states]

    counts = rng.poisson(rates * lengths)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    u = rng.random(total)
    v = np.repeat(starts, counts) + u * np.repeat(lengths, counts)
    v = v[(v > x.t_min) & (v < x.t_max)]  # drop measure-zero endpoint hits
    v.sort()
    return v


def _merge_candidate_times(x: Trajectory, virtual: np.ndarray) -> np.ndarray:
    """Merge true jumps with virtual times; on exact ties keep the true jump."""
    times = np.concatenate((x.jump_times, virtual))
    tags = np.concatenate(
        (np.zeros(x.n_jumps, dtype=np.int8), np.ones(virtual.size, dtype=np.int8))
    )
    order = np.lexsort((tags, times))
    times = times[order]
    if times.size > 1:
        keep = np.concatenate(([True], times[1:] != times[:-1]))
        times = times[keep]
    return times


def rao_teh_step(x: Trajectory, nu, q: RateMatrix, ev: Evidence,
                 cfg: SamplerConfig, rng: np.random.Generator,
                 kernel: UniformizedKernel | None = None) -> tuple[Trajectory, float]:
    """One Gibbs sweep; returns the new trajectory and ``log p(Y | T')``.

    ``log p(Y | T')`` is the evidence on the merged grid of this sweep.
    ``kernel`` may be precomputed by the caller; it must match
    ``lambda_factor * q_max``.
    """
    lam = cfg.lambda_factor * q.q_max
    if kernel is None:
        kernel = build_kernel(q, lam)
    if ev.n_obs and (ev.times[0] < x.t_min or ev.times[-1] > x.t_max):
        raise TimeOutOfWindow("evidence times outside the trajectory window")

    virtual = sample_virtual_jumps(x, q, lam, rng)
    times = _merge_candidate_times(x, virtual)
    factors = attach_emissions(times, ev)
    filt = forward_filter(kernel, nu, factors, times.size)
    skeleton = backward_sample(filt, kernel, rng)
    grid = _trusted(Grid, t_min=x.t_min, t_max=x.t_max, times=times, states=skeleton)
    return collapse_grid(grid), filt.log_norm


def pad_paths(xs: Sequence[Trajectory]) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories of one window as padded per-chain arrays ``(times, states)``.

    ``times[r]`` holds chain ``r``'s jump times, then ``t_max``;
    ``states[r]`` its initial state and the states it enters, then its last
    state again. Padded segments are empty and keep the last state, so the
    state of chain ``r`` at any ``t`` in the window is
    ``states[r, (times[r] <= t).sum()]``.
    """
    width = max(x.n_jumps for x in xs)
    times = np.full((len(xs), width), xs[0].t_max)
    states = np.empty((len(xs), width + 1), dtype=np.int64)
    for r, x in enumerate(xs):
        n = x.n_jumps
        times[r, :n] = x.jump_times
        states[r, 0] = x.s0
        states[r, 1:n + 1] = x.jump_states
        states[r, n + 1:] = states[r, n]
    return times, states


def _normalizers(w: np.ndarray) -> np.ndarray:
    """Row sums in ``forward_filter``'s order; raises when one vanishes."""
    c = np.cumsum(w, axis=1)[:, -1]
    if not (c > 0.0).all():
        raise ImpossibleEvidence("zero normalizer in a lockstep forward filter")
    return c


def rao_teh_step_many(times: np.ndarray, states: np.ndarray, window: tuple[float, float],
                      nu, q: RateMatrix, ev: Evidence, kernel: UniformizedKernel,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One Gibbs sweep of every chain of a batch, each step once for all chains.

    ``times`` and ``states`` hold R trajectories of ``window`` in the form of
    :func:`pad_paths`, and the new trajectories come back in that form.
    ``kernel`` must be ``build_kernel(q, lam)``; ``ev`` must lie in the
    window. Grids of different lengths share one array of the longest
    length; rows past a chain's own grid add no evidence. With
    one chain the generator is used in :func:`rao_teh_step`'s order (Poisson
    counts, placements, then ``N + 1`` backward uniforms), so the same
    trajectory is drawn.
    """
    t_min, t_max = window
    n_chains = states.shape[0]
    chain = np.arange(n_chains)
    p = kernel.p
    n_states = kernel.n_states

    # (V) virtual times: padded segments are empty, so they draw none
    starts = np.concatenate((np.full((n_chains, 1), t_min), times), axis=1)
    lengths = np.concatenate((times, np.full((n_chains, 1), t_max)), axis=1) - starts
    counts = rng.poisson((kernel.lam - q.leave[states]) * lengths)
    per_segment = counts.ravel()
    virtual = (np.repeat(starts.ravel(), per_segment)
               + rng.random(int(per_segment.sum())) * np.repeat(lengths.ravel(), per_segment))
    v_chain = np.repeat(chain, counts.sum(axis=1))
    inside = (virtual > t_min) & (virtual < t_max)  # drop measure-zero endpoint hits

    # merge, per chain: sorted by (chain, time); an exact tie of two
    # candidates leaves one grid time, as in _merge_candidate_times
    real = times < t_max
    t = np.concatenate((times[real], virtual[inside]))
    c = np.concatenate((np.nonzero(real)[0], v_chain[inside]))
    order = np.lexsort((t, c))
    t, c = t[order], c[order]
    keep = np.ones(t.size, dtype=bool)
    keep[1:] = (t[1:] != t[:-1]) | (c[1:] != c[:-1])
    t, c = t[keep], c[keep]
    n = np.bincount(c, minlength=n_chains)  # grid size of each chain
    first = np.cumsum(n) - n  # chain r's grid is t[first[r]:first[r] + n[r]]
    width = int(n.max())

    # attach: at[r * n_obs + j] counts chain r's grid times <= ev.times[j]; a
    # grid time is <= times[j] exactly when at most j observation times lie below it
    n_obs = ev.n_obs
    below = np.searchsorted(ev.times, t, side="left")
    hist = np.bincount(c * (n_obs + 1) + below, minlength=n_chains * (n_obs + 1))
    at = np.cumsum(hist.reshape(n_chains, n_obs + 1), axis=1)[:, :n_obs].ravel()
    who = np.repeat(chain, n_obs)
    # one factor per attached (index, chain), multiplied in observation order
    # as attach_emissions does; a chain's indices never decrease with j
    head = np.ones(at.size, dtype=bool)
    head[1:] = (at[1:] != at[:-1]) | (who[1:] != who[:-1])
    heads = np.flatnonzero(head)
    factors = np.multiply.reduceat(np.tile(ev.liks, (n_chains, 1)), heads, axis=0)
    by_index = np.argsort(at[heads])
    heads, factors = heads[by_index], factors[by_index]
    rows = who[heads]  # factors[bounds[i]:bounds[i + 1]] attach at index i of these chains
    bounds = np.searchsorted(at[heads], np.arange(width + 2)).tolist()

    # forward filter over the longest grid, normalised where forward_filter
    # normalises: index 0 and the attached indices
    alphas = np.empty((width + 1, n_chains, n_states))
    a = alphas[0]
    a[:] = nu
    a[rows[:bounds[1]]] *= factors[:bounds[1]]
    a /= _normalizers(a)[:, None]
    for i in range(1, width + 1):
        np.dot(alphas[i - 1], p, out=alphas[i])
        lo, hi = bounds[i], bounds[i + 1]
        if lo < hi:
            sel = rows[lo:hi]
            w = alphas[i, sel] * factors[lo:hi]
            alphas[i, sel] = w / _normalizers(w)[:, None]

    # backward draw, inverse CDF with backward_sample's cumulative sums. A
    # shorter chain draws through its padding rows first: they extend its
    # grid by kernel steps without evidence, which leaves the law of its own
    # skeleton unchanged.
    u = rng.random((width + 1, n_chains))
    succ = np.vstack((p.T, np.ones(n_states)))  # succ[s, r] = p[r, s]; ones to start
    skeleton = np.empty((width + 1, n_chains), dtype=np.int64)
    s = np.full(n_chains, n_states)
    for i in range(width, -1, -1):
        cum = np.cumsum(alphas[i] * succ[s], axis=1)
        s = np.minimum((cum <= u[i, :, None] * cum[:, -1:]).sum(axis=1), n_states - 1)
        skeleton[i] = s

    # collapse: keep the state changes inside each chain's grid
    jump = ((skeleton[1:] != skeleton[:-1]) & (np.arange(1, width + 1)[:, None] <= n)).T
    k = jump.sum(axis=1)
    r, col = np.nonzero(jump)
    pos = np.arange(r.size) - (np.cumsum(k) - k)[r]
    new_times = np.full((n_chains, int(k.max())), t_max)
    new_times[r, pos] = t[first[r] + col]
    new_states = np.repeat(skeleton[n, chain][:, None], new_times.shape[1] + 1, axis=1)
    new_states[:, 0] = skeleton[0]
    new_states[r, pos + 1] = skeleton[col + 1, r]
    return new_times, new_states


def _shortest_path_table(q: RateMatrix) -> np.ndarray:
    """Predecessor table of unweighted shortest paths in the positive-rate digraph."""
    adj = csr_matrix((q.q > 0).astype(np.int8))
    _, predecessors = shortest_path(
        adj, method="D", unweighted=True, return_predecessors=True
    )
    return predecessors


def _connect(predecessors: np.ndarray, a: int, b: int) -> list[int]:
    """Intermediate-plus-target state sequence of a shortest path ``a -> b``."""
    if a == b:
        return []
    path = [b]
    cur = b
    while True:
        cur = int(predecessors[a, cur])
        if cur == a:
            break
        path.append(cur)
    return path[::-1]


def initial_trajectory(nu, q: RateMatrix, ev: Evidence, window: tuple[float, float],
                       cfg: SamplerConfig, rng: np.random.Generator) -> Trajectory:
    """Produce an evidence-consistent starting trajectory.

    ``prior-rejection`` draws from the prior until the evidence likelihood is
    positive (capped). ``max-likelihood-path`` deterministically visits the
    per-observation argmax states, connecting them through shortest
    positive-rate paths with jumps spread over each gap.
    """
    t_min, t_max = float(window[0]), float(window[1])
    nu = as_distribution(nu, q.n_states)

    if cfg.init_strategy == "prior-rejection":
        for _ in range(PRIOR_REJECTION_CAP):
            x = gillespie_simulate(nu, q, (t_min, t_max), rng)
            if trajectory_log_likelihood(x, ev) > -np.inf:
                return x
        raise InitFailed(
            f"no evidence-consistent prior draw in {PRIOR_REJECTION_CAP} attempts; "
            "try init_strategy='max-likelihood-path'"
        )

    # max-likelihood-path
    if ev.n_obs and (ev.times[0] < t_min or ev.times[-1] > t_max):
        raise TimeOutOfWindow("evidence times outside the window")

    # Group coincident observation times and multiply their likelihoods.
    required: list[tuple[float, int]] = []
    j = 0
    while j < ev.n_obs:
        t = ev.times[j]
        lik = ev.liks[j].copy()
        j += 1
        while j < ev.n_obs and ev.times[j] == t:
            lik = lik * ev.liks[j]
            j += 1
        if t == t_min:
            masked = np.where(nu > 0, lik, 0.0)
            if masked.max() <= 0:
                raise InitFailed("observations at t_min conflict with the prior support")
            required.append((float(t), int(np.argmax(masked))))
        else:
            if lik.max() <= 0:
                raise InitFailed(f"coincident observations at t={t} are jointly unsatisfiable")
            required.append((float(t), int(np.argmax(lik))))

    if not required:
        return Trajectory(t_min, t_max, int(np.argmax(nu)))

    first_t, first_s = required[0]
    s0 = first_s if nu[first_s] > 0 else int(np.argmax(nu))
    predecessors = _shortest_path_table(q)

    jump_times: list[float] = []
    jump_states: list[int] = []
    prev_t, prev_s = t_min, s0
    for t, s in required:
        path = _connect(predecessors, prev_s, s)
        if path:
            gap = t - prev_t
            for i, state in enumerate(path, start=1):
                jump_times.append(prev_t + (i - 0.5) * gap / len(path))
                jump_states.append(state)
        prev_t, prev_s = t, s
    x = Trajectory(t_min, t_max, s0, np.array(jump_times),
                   np.array(jump_states, dtype=np.int64))
    if trajectory_log_likelihood(x, ev) == -np.inf:
        raise InitFailed("constructed path is inconsistent with the evidence")
    return x


@dataclass
class ChainTrace:
    """Per-sweep record of a Rao-Teh run.

    Stores every sweep including burn-in; reporting helpers drop the first
    ``burn_in`` rows. ``probe_states[m, k]`` is the state at probe time ``k``
    after sweep ``m + 1``.
    """

    probes: np.ndarray
    n_jumps: np.ndarray
    log_evidence: np.ndarray
    probe_states: np.ndarray
    burn_in: int
    n_states: int
    trajectories: list[Trajectory] | None = None

    @property
    def n_sweeps_total(self) -> int:
        return int(self.n_jumps.size)

    def kept(self) -> slice:
        return slice(self.burn_in, None)

    def probe_frequencies(self) -> np.ndarray:
        """Empirical state distribution at each probe over the kept sweeps."""
        rows = self.probe_states[self.kept()]
        freqs = np.empty((self.probes.size, self.n_states))
        for k in range(self.probes.size):
            freqs[k] = np.bincount(rows[:, k], minlength=self.n_states) / rows.shape[0]
        return freqs


def run_chain(nu, q: RateMatrix, ev: Evidence, window: tuple[float, float],
              cfg: SamplerConfig, rng: np.random.Generator | None = None,
              probes=(), x0: Trajectory | None = None,
              store_trajectories: bool = False) -> ChainTrace:
    """Run ``burn_in + n_sweeps`` Gibbs sweeps and record summary statistics.

    The RNG defaults to a fresh generator seeded from ``cfg.seed``, so a
    fixed ``(inputs, seed)`` pair reproduces the trace bit for bit. Probes
    are times at which the state of every sweep's trajectory is recorded.
    """
    t_min, t_max = float(window[0]), float(window[1])
    nu = as_distribution(nu, q.n_states)
    probes = np.asarray(probes, dtype=float)
    if probes.size and ((probes < t_min).any() or (probes > t_max).any()):
        raise TimeOutOfWindow("probe times outside the window")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    lam = cfg.lambda_factor * q.q_max
    kernel = build_kernel(q, lam)
    x = x0 if x0 is not None else initial_trajectory(nu, q, ev, window, cfg, rng)

    total = cfg.burn_in + cfg.n_sweeps
    n_jumps = np.empty(total, dtype=np.int64)
    log_evidence = np.empty(total)
    probe_states = np.empty((total, probes.size), dtype=np.int64)
    trajectories: list[Trajectory] | None = [] if store_trajectories else None

    for m in range(total):
        x, log_ev = rao_teh_step(x, nu, q, ev, cfg, rng, kernel=kernel)
        n_jumps[m] = x.n_jumps
        log_evidence[m] = log_ev
        if probes.size:
            ext = np.concatenate(([x.s0], x.jump_states))
            probe_states[m] = ext[np.searchsorted(x.jump_times, probes, side="right")]
        if trajectories is not None:
            trajectories.append(x)

    return ChainTrace(
        probes=probes,
        n_jumps=n_jumps,
        log_evidence=log_evidence,
        probe_states=probe_states,
        burn_in=cfg.burn_in,
        n_states=q.n_states,
        trajectories=trajectories,
    )
