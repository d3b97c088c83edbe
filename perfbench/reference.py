"""Reference computations the benchmark checks the program against.

Both are written apart from ``mjpsampler``: posterior marginals by
forward-backward with ``scipy.linalg.expm`` propagation, and the effective
sample size by Geyer's initial positive sequence.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def posterior_marginals(nu, q, obs_times, obs_liks, probes, t_min: float) -> np.ndarray:
    """``p(X(t) = s | Y)`` for each probe time ``t``, one row per probe.

    The path is right continuous, so an observation at a probe time counts
    as seen at that time.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    events = sorted(set(float(t) for t in obs_times) | set(float(t) for t in probes))
    lik = {t: np.ones(n) for t in events}
    for t, row in zip(obs_times, obs_liks):
        lik[float(t)] = lik[float(t)] * np.asarray(row, dtype=float)

    cache: dict[float, np.ndarray] = {}

    def trans(dt: float) -> np.ndarray:
        if dt not in cache:
            cache[dt] = expm(q * dt)
        return cache[dt]

    alpha = []
    a = np.asarray(nu, dtype=float)
    prev = float(t_min)
    for t in events:
        a = (a @ trans(t - prev)) * lik[t]
        a = a / a.sum()
        alpha.append(a)
        prev = t
    beta = [np.ones(n)]
    for t, t_next in zip(events[-2::-1], events[:0:-1]):
        b = trans(t_next - t) @ (lik[t_next] * beta[-1])
        beta.append(b / b.max())
    beta.reverse()

    index = {t: k for k, t in enumerate(events)}
    out = np.empty((len(probes), n))
    for i, t in enumerate(probes):
        k = index[float(t)]
        post = alpha[k] * beta[k]
        out[i] = post / post.sum()
    return out


def autocorrelation(x) -> np.ndarray:
    """Sample autocorrelation at lags ``0 .. n-1`` (biased, zero-padded FFT).

    All ``nan`` for a constant series.
    """
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    n = x.size
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n]
    if not acov[0] > 0.0:
        return np.full(n, np.nan)
    return acov / acov[0]


def ips_time(rho) -> float:
    """Geyer's initial positive sequence ``tau`` from an autocorrelation.

    Sums the pairs ``rho[2k] + rho[2k+1]`` up to the first that is not
    positive. Averaging the autocorrelations of independent chains of one
    length before this step gives a steadier ``tau`` than averaging each
    chain's ``tau``.
    """
    rho = np.asarray(rho, dtype=float)
    m = rho.size // 2
    pairs = rho[0:2 * m:2] + rho[1:2 * m:2]
    stop = np.flatnonzero(~(pairs > 0.0))
    k = stop[0] if stop.size else m
    return float(-1.0 + 2.0 * pairs[:k].sum())


def effective_sample_size(x) -> float:
    """``n / tau`` for one series; 0 for a constant series."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two values")
    rho = autocorrelation(x)
    return 0.0 if np.isnan(rho[0]) else x.size / ips_time(rho)
