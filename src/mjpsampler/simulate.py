"""Forward simulation of the prior jump process and synthetic observations.

Two independent simulators are provided on purpose: the classical
event-driven one (exponential holding times) and the uniformized one
(Poisson candidate times plus a skeleton chain). They sample the same law,
which the test suite cross-validates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ffbs import build_kernel, categorical
from .model import (
    ROW_SUM_TOL,
    Evidence,
    RateMatrix,
    Trajectory,
    UniformizedKernel,
    as_distribution,
    collapse_grid,
    trajectory_eval_many,
)


@dataclass(frozen=True)
class EmissionModel:
    """Row-stochastic matrix ``e[s, y]``: probability of symbol ``y`` in state ``s``."""

    e: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float)
        object.__setattr__(self, "e", e)
        if e.ndim != 2:
            raise ValueError("emission matrix must be 2-d")
        if (e < 0).any() or not np.isfinite(e).all():
            raise ValueError("emission entries must be finite and nonnegative")
        if np.abs(e.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("emission rows must sum to 1")
        e.setflags(write=False)

    @property
    def n_states(self) -> int:
        return int(self.e.shape[0])

    @property
    def n_symbols(self) -> int:
        return int(self.e.shape[1])


def gillespie_simulate(nu, q: RateMatrix, window: tuple[float, float],
                       rng: np.random.Generator) -> Trajectory:
    """Event-driven simulation: exponential holding times, embedded jump chain."""
    t_min, t_max = float(window[0]), float(window[1])
    nu = as_distribution(nu, q.n_states)
    nu_cum = np.cumsum(nu).tolist()

    off = q.q.copy()
    np.fill_diagonal(off, 0.0)
    jump_cum = np.cumsum(off, axis=1).tolist()

    s = categorical(nu_cum, rng.random())
    s0 = s
    times: list[float] = []
    states: list[int] = []
    t = t_min
    while True:
        rate = q.leave[s]
        if rate <= 0.0:
            break
        dt = rng.exponential(1.0 / rate)
        while dt == 0.0:  # measure-zero; keep jump times strictly increasing
            dt = rng.exponential(1.0 / rate)
        t = t + dt
        if t >= t_max:
            break
        s = categorical(jump_cum[s], rng.random())
        times.append(t)
        states.append(s)
    return Trajectory(t_min, t_max, s0, np.array(times), np.array(states, dtype=np.int64))


def sample_skeleton(nu, kernel: UniformizedKernel, n_steps: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Sample ``S_0, ..., S_n`` from the prior skeleton chain ``(nu, P)``."""
    nu_cum = np.cumsum(np.asarray(nu, dtype=float)).tolist()
    p_cum = np.cumsum(kernel.p, axis=1).tolist()
    u = rng.random(n_steps + 1).tolist()
    out = np.empty(n_steps + 1, dtype=np.int64)
    s = categorical(nu_cum, u[0])
    out[0] = s
    for i in range(1, n_steps + 1):
        s = categorical(p_cum[s], u[i])
        out[i] = s
    return out


def uniformized_simulate(nu, q: RateMatrix, lam: float, window: tuple[float, float],
                         rng: np.random.Generator) -> Trajectory:
    """Uniformized simulation: Poisson candidate times, skeleton chain, collapse.

    Raises :class:`LambdaTooSmall` (from :func:`build_kernel`) unless
    ``lam > q_max``.
    """
    t_min, t_max = float(window[0]), float(window[1])
    if not t_min < t_max:
        raise ValueError("window must have positive length")
    nu = as_distribution(nu, q.n_states)
    kernel = build_kernel(q, lam)

    n = int(rng.poisson(lam * (t_max - t_min)))
    times = rng.uniform(t_min, t_max, size=n)
    times = np.unique(times)  # sorts; exact collisions are measure-zero
    times = times[(times > t_min) & (times < t_max)]
    states = sample_skeleton(nu, kernel, times.size, rng)
    return collapse_grid(t_min, t_max, times, states)


def generate_observations(x: Trajectory, times, em: EmissionModel,
                          rng: np.random.Generator) -> Evidence:
    """Observe ``x`` through the emission model at fixed times.

    Each record's likelihood vector is the emission column of the drawn
    symbol; its bound is the column maximum.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (np.diff(times) < 0).any():
        raise ValueError("observation times must be nondecreasing")
    hidden = trajectory_eval_many(x, times)
    e_cum = np.cumsum(em.e, axis=1).tolist()
    liks = np.empty((times.size, em.n_states))
    for j, s in enumerate(hidden):
        y = categorical(e_cum[s], rng.random())
        liks[j] = em.e[:, y]
    return Evidence(times, liks)
