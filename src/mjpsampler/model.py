"""Core domain types for hidden Markov jump processes.

A Markov jump process on a finite state space is specified by an initial
distribution ``nu`` and a rate matrix ``Q``. Its trajectories are right
continuous and piecewise constant on a fixed window ``[t_min, t_max]``.
A trajectory is stored minimally as the initial state plus the ordered
true jumps ``(time, new state)``. The redundant uniformized representation
(a grid of candidate jump times plus a state skeleton, where consecutive
equal states mark virtual jumps) is a pair of arrays that collapses back
to a :class:`Trajectory` via :func:`collapse_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    BadRowSum,
    NegativeOffDiagonal,
    NotIrreducible,
    TimeOutOfWindow,
)

# Relative row-sum tolerance for rate matrices and row-stochastic matrices.
ROW_SUM_TOL = 1e-12

# Kernel powers P^1 ... P^K that a kernel tabulates for the forward filter:
# K = POWER_STEPS, or fewer (at least 1) where the K*S x S table would pass
# POWER_TABLE_BYTES: K is 16 up to S = 90 (51 kB at S = 20) and 1 past S = 256.
POWER_STEPS = 16
POWER_TABLE_BYTES = 1 << 20

InitStrategy = Literal["prior-rejection", "max-likelihood-path"]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _trusted(cls, **fields):
    """Build the frozen dataclass ``cls`` from fields the package made valid.

    Skips ``__post_init__``, so use it only for values built inside the
    package that already satisfy every check; array fields are frozen as
    the public constructor would freeze them.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            _freeze(value)
        object.__setattr__(obj, name, value)
    return obj


def as_distribution(nu, n_states: int) -> np.ndarray:
    """Coerce ``nu`` to a validated probability vector of length ``n_states``."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (n_states,):
        raise ValueError(f"distribution has shape {nu.shape}, expected ({n_states},)")
    if (nu < 0).any() or not np.isfinite(nu).all():
        raise ValueError("distribution entries must be finite and nonnegative")
    total = nu.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total}, expected 1")
    return nu / total


@dataclass(frozen=True)
class RateMatrix:
    """Validated rate matrix with derived leaving intensities.

    ``q`` is dense with diagonal entries equal to minus the leaving
    intensity, ``leave[s]`` is the total rate of exiting state ``s`` and
    ``q_max`` is its maximum. Construct through :func:`validate_rate_matrix`.
    """

    q: np.ndarray
    leave: np.ndarray
    q_max: float

    @property
    def n_states(self) -> int:
        return self.q.shape[0]


def validate_rate_matrix(q_raw) -> RateMatrix:
    """Validate a raw square matrix and return a :class:`RateMatrix`.

    Checks, in order: nonnegative off-diagonal entries, zero row sums
    (relative tolerance ``ROW_SUM_TOL``), and strong connectivity of the
    positive-rate digraph.

    Raises
    ------
    NegativeOffDiagonal, BadRowSum, NotIrreducible
    """
    q = np.array(q_raw, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"rate matrix must be square, got shape {q.shape}")
    n = q.shape[0]
    if n < 2:
        raise ValueError("rate matrix needs at least 2 states")
    if not np.isfinite(q).all():
        raise ValueError("rate matrix entries must be finite")

    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if (off < 0).any():
        s, t = np.argwhere(off < 0)[0]
        raise NegativeOffDiagonal(f"q[{s}][{t}] = {q[s, t]} < 0")

    leave = off.sum(axis=1)
    scale = max(1.0, float(np.abs(q).max()))
    row_sums = q.sum(axis=1)
    bad = np.abs(row_sums) > ROW_SUM_TOL * scale
    if bad.any():
        s = int(np.argmax(bad))
        raise BadRowSum(f"row {s} sums to {row_sums[s]}, expected 0", row=s)

    graph = csr_matrix((off > 0).astype(np.int8))
    n_components, _ = connected_components(graph, directed=True, connection="strong")
    if n_components != 1:
        raise NotIrreducible(
            f"positive-rate digraph has {n_components} strongly connected components"
        )

    q_clean = off
    np.fill_diagonal(q_clean, -leave)
    return RateMatrix(q=_freeze(q_clean), leave=_freeze(leave), q_max=float(leave.max()))


@dataclass(frozen=True)
class Trajectory:
    """Right-continuous piecewise-constant path on ``[t_min, t_max]``.

    ``jump_times`` are the true jump times, strictly increasing and strictly
    inside the open window; ``jump_states`` are the states entered at those
    times. Consecutive states always differ (minimal representation).
    """

    t_min: float
    t_max: float
    s0: int
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_states: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        states = np.asarray(self.jump_states, dtype=np.int64)
        object.__setattr__(self, "jump_times", _freeze(times))
        object.__setattr__(self, "jump_states", _freeze(states))
        if not self.t_min < self.t_max:
            raise ValueError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if times.ndim != 1 or states.shape != times.shape:
            raise ValueError("jump_times and jump_states must be 1-d and equal length")
        if times.size:
            if times[0] <= self.t_min or times[-1] >= self.t_max:
                raise ValueError("jump times must lie strictly inside (t_min, t_max)")
            if (np.diff(times) <= 0).any():
                raise ValueError("jump times must be strictly increasing")
            full = np.concatenate(([self.s0], states))
            if (full[1:] == full[:-1]).any():
                raise ValueError("consecutive states must differ")
        if self.s0 < 0 or (states < 0).any():
            raise ValueError("states must be nonnegative indices")

    @classmethod
    def from_pairs(cls, t_min: float, t_max: float, s0: int,
                   jumps: Sequence[tuple[float, int]] = ()) -> "Trajectory":
        times = np.array([t for t, _ in jumps], dtype=float)
        states = np.array([s for _, s in jumps], dtype=np.int64)
        return cls(t_min, t_max, int(s0), times, states)

    @property
    def jumps(self) -> list[tuple[float, int]]:
        return list(zip(self.jump_times.tolist(), self.jump_states.tolist()))

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)


def trajectory_eval(x: Trajectory, t: float) -> int:
    """State of ``x`` at time ``t`` (right continuous at jumps)."""
    if t < x.t_min or t > x.t_max:
        raise TimeOutOfWindow(f"t={t} outside [{x.t_min}, {x.t_max}]")
    i = int(np.searchsorted(x.jump_times, t, side="right"))
    return int(x.s0) if i == 0 else int(x.jump_states[i - 1])


def trajectory_eval_many(x: Trajectory, ts) -> np.ndarray:
    """Vectorized :func:`trajectory_eval` over an array of times."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and ((ts < x.t_min).any() or (ts > x.t_max).any()):
        raise TimeOutOfWindow("query times outside the trajectory window")
    ext = np.concatenate(([x.s0], x.jump_states))
    return ext[np.searchsorted(x.jump_times, ts, side="right")]


def collapse_grid(t_min: float, t_max: float, times: np.ndarray,
                  states: np.ndarray) -> Trajectory:
    """Discard virtual jumps of a uniformized grid, keeping the state changes.

    ``times`` are ``N`` candidate jump times, strictly increasing and strictly
    inside the window; ``states`` is the ``int64`` skeleton ``S_0, ..., S_N``
    of nonnegative states (``S_0`` holds from ``t_min``). The package builds
    both arrays valid, so the result skips the public constructor's checks.
    """
    changed = states[1:] != states[:-1]
    return _trusted(
        Trajectory, t_min=t_min, t_max=t_max, s0=int(states[0]),
        jump_times=times[changed], jump_states=states[1:][changed],
    )


@dataclass(frozen=True)
class Evidence:
    """Noisy observations: times plus per-observation likelihood vectors.

    ``liks[j, s]`` is the likelihood of observation ``j`` given hidden state
    ``s``; entries may be zero (hard constraints) but each row needs at least
    one positive entry. ``lik_max[j]`` is any upper bound on row ``j``, used
    by the rejection oracle's acceptance ratio.
    """

    times: np.ndarray
    liks: np.ndarray
    lik_max: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        liks = np.asarray(self.liks, dtype=float)
        if liks.ndim != 2:
            raise ValueError("liks must be a (n_obs, n_states) matrix")
        if times.shape != (liks.shape[0],):
            raise ValueError("times and liks first dimension must agree")
        if times.size and (np.diff(times) < 0).any():
            raise ValueError("observation times must be nondecreasing")
        if not np.isfinite(liks).all() or (liks < 0).any():
            raise ValueError("likelihood entries must be finite and nonnegative")
        row_max = liks.max(axis=1) if liks.shape[0] else np.empty(0)
        if (row_max <= 0).any():
            j = int(np.argmax(row_max <= 0))
            raise ValueError(f"observation {j} has an all-zero likelihood vector")
        if self.lik_max is None:
            lik_max = row_max.copy()
        else:
            lik_max = np.asarray(self.lik_max, dtype=float)
            if lik_max.shape != times.shape:
                raise ValueError("lik_max must have one entry per observation")
            if not (np.isfinite(lik_max) & (lik_max >= row_max) & (lik_max > 0)).all():
                raise ValueError("lik_max must be finite, positive and >= max likelihood")
        object.__setattr__(self, "times", _freeze(times))
        object.__setattr__(self, "liks", _freeze(liks))
        object.__setattr__(self, "lik_max", _freeze(lik_max))

    @classmethod
    def empty(cls, n_states: int) -> "Evidence":
        return cls(np.empty(0), np.empty((0, n_states)))

    @classmethod
    def from_records(cls, records: Sequence[tuple], n_states: int | None = None) -> "Evidence":
        """Build from ``(t, lik)`` or ``(t, lik, lik_max)`` records."""
        if not records:
            if n_states is None:
                raise ValueError("n_states required for empty evidence")
            return cls.empty(n_states)
        times = np.array([r[0] for r in records], dtype=float)
        liks = np.array([r[1] for r in records], dtype=float)
        lik_max = None
        if any(len(r) > 2 for r in records):
            lik_max = np.array(
                [r[2] if len(r) > 2 else max(r[1]) for r in records], dtype=float
            )
        return cls(times, liks, lik_max)

    @property
    def n_obs(self) -> int:
        return int(self.times.size)

    @property
    def n_states(self) -> int:
        return int(self.liks.shape[1])


def trajectory_log_likelihood(x: Trajectory, ev: Evidence) -> float:
    """``log L(Y|X)``: sum of log likelihoods at the observation times.

    Returns ``-inf`` when the trajectory is inconsistent with the evidence.
    """
    if ev.n_obs == 0:
        return 0.0
    states = trajectory_eval_many(x, ev.times)
    vals = ev.liks[np.arange(ev.n_obs), states]
    with np.errstate(divide="ignore"):
        return float(np.log(vals).sum())


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration of a Rao-Teh sampler run.

    ``lambda_factor`` multiplies ``q_max`` to give the uniformization
    intensity; it must exceed 1 strictly. ``n_sweeps`` counts the sweeps
    kept after ``burn_in`` initial ones.
    """

    n_sweeps: int
    burn_in: int = 0
    lambda_factor: float = 2.0
    seed: int = 0
    init_strategy: InitStrategy = "prior-rejection"

    def __post_init__(self):
        if self.n_sweeps < 1:
            raise ValueError("n_sweeps must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if not self.lambda_factor > 1.0:
            raise ValueError("lambda_factor must be > 1 strictly")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.init_strategy not in ("prior-rejection", "max-likelihood-path"):
            raise ValueError(f"unknown init_strategy {self.init_strategy!r}")


@dataclass(frozen=True)
class UniformizedKernel:
    """Row-stochastic skeleton kernel of the uniformized chain at rate ``lam``."""

    p: np.ndarray
    lam: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", _freeze(p))
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("kernel must be square")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if (p < 0).any():
            raise ValueError("kernel entries must be nonnegative")
        if np.abs(p.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("kernel rows must sum to 1")
        if (np.diag(p) <= 0).any():
            raise ValueError("kernel diagonal must be strictly positive")

    @property
    def n_states(self) -> int:
        return int(self.p.shape[0])

    @cached_property
    def powers(self) -> np.ndarray:
        """Read-only ``K*S x S`` table of the transposed powers, built on first use.

        Rows ``(j-1)*S`` to ``j*S`` hold ``(P^j)^T`` with ``P^j = P^(j-1) @ P``,
        so ``powers[:k*S] @ alpha`` is ``alpha @ P^1, ..., alpha @ P^k`` end to
        end, from one contiguous slice. ``K`` is ``POWER_STEPS``, or fewer
        where the table would pass ``POWER_TABLE_BYTES``.
        """
        s = self.n_states
        k = max(1, min(POWER_STEPS, POWER_TABLE_BYTES // (8 * s * s)))
        stack = np.empty((k, s, s))
        stack[0] = self.p
        for j in range(1, k):
            np.dot(stack[j - 1], self.p, out=stack[j])
        return _freeze(stack.transpose(0, 2, 1).reshape(k * s, s))
