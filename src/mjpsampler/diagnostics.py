"""Empirical checks of the sampler's ergodicity behaviour.

The drift estimate conditions single sweeps on trajectories with a forced
number of jumps and fits the one-step contraction line; the TV curve runs
replicate chains from a fixed start and tracks the distance of a probe-time
state summary to the exact posterior marginal; the trace summary provides
standard MCMC output statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import (
    DimensionMismatch,
    SeedTrajectoryInfeasible,
    TimeOutOfWindow,
    TraceTooShort,
)
from .ffbs import build_kernel
from .model import (
    Evidence,
    RateMatrix,
    SamplerConfig,
    Trajectory,
    as_distribution,
    trajectory_log_likelihood,
)
from .oracle import exact_posterior_marginals
from .raoteh import (
    ChainTrace,
    _connect,
    _shortest_path_table,
    pad_paths,
    rao_teh_step,
    rao_teh_step_many,
)


def tv_distance(p, r) -> float:
    """Total variation distance, half the L1 distance between distributions."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if p.ndim != 1 or p.shape != r.shape:
        raise DimensionMismatch(f"supports differ: {p.shape} vs {r.shape}")
    for name, d in (("p", p), ("r", r)):
        if abs(d.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {d.sum()}, expected 1")
    return 0.5 * float(np.abs(p - r).sum())


def _find_cycle(q: RateMatrix) -> list[int]:
    """Shortest directed cycle through state 0 in the positive-rate digraph.

    Over the successors ``f`` of 0, takes the shortest ``[0, f, ...]`` that
    returns to 0 by a shortest path; on equal lengths the lowest ``f`` wins.
    Irreducibility guarantees the path back.
    """
    predecessors = _shortest_path_table(q)
    return min(([0, f] + _connect(predecessors, f, 0)[:-1]
                for f in np.nonzero(q.q[0] > 0)[0].tolist()), key=len)


def seed_trajectory(q: RateMatrix, window: tuple[float, float], n_jumps: int) -> Trajectory:
    """Deterministic trajectory with exactly ``n_jumps`` equispaced jumps.

    States rotate through a fixed cycle of the positive-rate digraph, so the
    trajectory has positive prior density for any ``n_jumps``.
    """
    t_min, t_max = float(window[0]), float(window[1])
    cycle = _find_cycle(q)
    times = t_min + np.arange(1, n_jumps + 1) * (t_max - t_min) / (n_jumps + 1)
    states = np.array([cycle[i % len(cycle)] for i in range(1, n_jumps + 1)],
                      dtype=np.int64)
    return Trajectory(t_min, t_max, cycle[0], times, states)


@dataclass(frozen=True)
class DriftEstimate:
    """Fitted one-step contraction of the jump count."""

    ns: np.ndarray
    mean_jumps: np.ndarray
    std_errors: np.ndarray
    q_hat: float
    c_hat: float
    ci_slope: tuple[float, float]

    @property
    def points(self) -> list[tuple[int, float, float]]:
        return list(zip(self.ns.tolist(), self.mean_jumps.tolist(),
                        self.std_errors.tolist()))


def estimate_drift(nu, q: RateMatrix, ev: Evidence, cfg: SamplerConfig,
                   window: tuple[float, float], ns, replicates: int,
                   rng: np.random.Generator | None = None,
                   n_jobs: int = 1) -> DriftEstimate:
    """Monte Carlo estimate of ``E(|J(X')| | |J(X)| = n)`` over seeded ``n``.

    For each ``n`` the chain is conditioned on the deterministic seed
    trajectory and stepped once per replicate, all sweeps drawing from
    ``rng`` in turn. A least-squares line through the per-``n`` means gives
    the contraction slope ``q_hat`` with a 95% confidence interval.
    ``n_jobs`` must be 1; it is kept only for the benchmark, which passes
    ``n_jobs=1``, and goes when drift moves onto the lockstep engine
    (ROADMAP item 1).
    """
    if n_jobs != 1:
        raise ValueError(f"n_jobs must be 1, got {n_jobs}")
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size < 2 or (np.diff(ns) <= 0).any():
        raise ValueError("ns must be increasing with at least two entries")
    if ns[0] < 0:
        raise ValueError(f"ns must hold nonnegative jump counts, got {ns.tolist()}")
    if replicates < 100:
        raise ValueError("need at least 100 replicates per point")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    nu = as_distribution(nu, q.n_states)

    starts = [seed_trajectory(q, window, int(n)) for n in ns]
    for n, x_seed in zip(ns, starts):
        if trajectory_log_likelihood(x_seed, ev) == -np.inf:
            raise SeedTrajectoryInfeasible(
                f"evidence inconsistent with the {n}-jump seed trajectory"
            )

    kernel = build_kernel(q, cfg.lambda_factor * q.q_max)
    means = np.empty(ns.size)
    ses = np.empty(ns.size)
    for i, x_seed in enumerate(starts):
        counts = np.array([rao_teh_step(x_seed, nu, q, ev, kernel, rng)[0].n_jumps
                           for _ in range(replicates)])
        means[i] = counts.mean()
        ses[i] = counts.std(ddof=1) / np.sqrt(replicates)

    x = ns.astype(float)
    slope, intercept = np.polyfit(x, means, 1)
    resid = means - (slope * x + intercept)
    df = ns.size - 2
    if df > 0:
        sxx = ((x - x.mean()) ** 2).sum()
        se_slope = np.sqrt((resid**2).sum() / df / sxx)
        half = stats.t.ppf(0.975, df) * se_slope
        ci = (float(slope - half), float(slope + half))
    else:
        ci = (-np.inf, np.inf)
    return DriftEstimate(ns=ns, mean_jumps=means, std_errors=ses,
                         q_hat=float(slope), c_hat=float(intercept), ci_slope=ci)


@dataclass(frozen=True)
class TvDecayCurve:
    """Estimated TV distance of the probe-state summary to the posterior."""

    ms: np.ndarray
    tv: np.ndarray
    tv_se: np.ndarray
    n_replicates: int


# Chains per lockstep batch of estimate_tv_decay: bounds its
# (grid + 1) x CHAIN_BLOCK x n_states forward-filter transient.
CHAIN_BLOCK = 1000


def estimate_tv_decay(nu, q: RateMatrix, ev: Evidence, cfg: SamplerConfig,
                      x0: Trajectory, ms, n_replicates: int, probe: float,
                      rng: np.random.Generator | None = None,
                      n_jobs: int = 1) -> TvDecayCurve:
    """TV distance of the ``m``-sweep probe-state law to the exact posterior.

    Runs ``n_replicates`` independent chains from the fixed ``x0``, in
    lockstep blocks of ``CHAIN_BLOCK`` chains, one block after another, all
    drawing from ``rng``; each block is advanced to ``max(ms)`` sweeps with
    the probe state recorded at every requested ``m``. ``n_jobs`` must be 1,
    as for :func:`estimate_drift`.
    """
    if n_jobs != 1:
        raise ValueError(f"n_jobs must be 1, got {n_jobs}")
    ms = [int(m) for m in ms]
    if not ms:
        raise ValueError("ms must name at least one sweep count")
    if len(set(ms)) != len(ms):
        raise ValueError(f"ms must not repeat a sweep count, got {ms}")
    if min(ms) < 0:
        raise ValueError(f"ms must hold nonnegative sweep counts, got {ms}")
    if n_replicates < 1:
        raise ValueError(f"n_replicates must be at least 1, got {n_replicates}")
    ms = np.array(sorted(ms), dtype=np.int64)
    if probe < x0.t_min or probe > x0.t_max:
        raise TimeOutOfWindow("probe outside the trajectory window")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    nu = as_distribution(nu, q.n_states)
    window = (x0.t_min, x0.t_max)
    target = exact_posterior_marginals(nu, q, ev, [probe], window)[0]

    kernel = build_kernel(q, cfg.lambda_factor * q.q_max)
    start = pad_paths([x0])
    counts = np.zeros((ms.size, q.n_states), dtype=np.int64)
    for lo in range(0, n_replicates, CHAIN_BLOCK):
        n_chains = min(CHAIN_BLOCK, n_replicates - lo)
        times, states = (np.repeat(a, n_chains, axis=0) for a in start)
        done = 0
        for k, m in enumerate(ms):
            for _ in range(done, m):
                times, states = rao_teh_step_many(times, states, window, nu, q, ev,
                                                  kernel, rng)
            done = m
            at_probe = states[np.arange(n_chains), (times <= probe).sum(axis=1)]
            counts[k] += np.bincount(at_probe, minlength=q.n_states)

    tvs = np.empty(ms.size)
    ses = np.empty(ms.size)
    for i in range(ms.size):
        freq = counts[i] / n_replicates
        tvs[i] = tv_distance(freq, target)
        # delta-method scale of the plug-in TV estimator
        ses[i] = 0.5 * np.sqrt((freq * (1 - freq)).sum() / n_replicates)
    return TvDecayCurve(ms=ms, tv=tvs, tv_se=ses, n_replicates=n_replicates)


def integrated_autocorrelation_time(x) -> float:
    """Initial-positive-sequence estimate of the autocorrelation time.

    Returns ``inf`` for a constant series.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("series too short")
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var == 0.0:
        return np.inf
    # autocovariance via FFT, biased normalization
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real / n
    rho = acov / acov[0]

    # Geyer: sum pairs rho_{2k} + rho_{2k+1} while they stay positive
    tau = -1.0
    k = 0
    while 2 * k + 1 < n:
        gamma = rho[2 * k] + rho[2 * k + 1]
        if gamma <= 0.0:
            break
        tau += 2.0 * gamma
        k += 1
    return max(tau, 1.0)


@dataclass(frozen=True)
class SeriesSummary:
    mean: float
    tau: float
    ess: float
    degenerate: bool


@dataclass(frozen=True)
class TraceSummary:
    """Per-series MCMC output statistics plus the jump-count histogram."""

    n_kept: int
    series: dict[str, SeriesSummary]
    jump_histogram: np.ndarray


def _summarize_series(x: np.ndarray) -> SeriesSummary:
    tau = integrated_autocorrelation_time(x)
    if np.isinf(tau):
        return SeriesSummary(mean=float(x.mean()), tau=np.inf, ess=0.0, degenerate=True)
    return SeriesSummary(mean=float(x.mean()), tau=float(tau),
                         ess=float(x.size / tau), degenerate=False)


def trace_summary(trace: ChainTrace, burn_in: int) -> TraceSummary:
    """Means, autocorrelation times and ESS for the kept part of a trace."""
    total = trace.n_sweeps_total
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    if burn_in >= total:
        raise TraceTooShort(f"burn_in {burn_in} >= trace length {total}")
    kept = slice(burn_in, None)
    series = {"n_jumps": _summarize_series(trace.n_jumps[kept].astype(float))}
    for k in range(trace.probes.size):
        series[f"probe_{k}"] = _summarize_series(
            trace.probe_states[kept, k].astype(float)
        )
    histogram = np.bincount(trace.n_jumps[kept])
    return TraceSummary(n_kept=total - burn_in, series=series, jump_histogram=histogram)
