"""Inputs of the sampler benchmark, made from a fixed data seed.

Each workload's model and evidence come from the numpy code below, never
from ``mjpsampler.simulate``, so a change to the program's simulators cannot
change a workload. Files use the program's own JSON formats and are read back
through ``io.load_model`` and ``io.load_evidence``. The data seed is fixed;
the sampler seed given on the command line only drives the chains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_SEED = 2013

# The 3-state model and four observations of the acceptance suite.
Q3 = [[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]]
NU3 = [0.5, 0.3, 0.2]
EV3_TIMES = [0.8, 1.6, 2.4, 3.2]
EV3_LIKS = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
SYM2 = [[-1.0, 1.0], [1.0, -1.0]]

DENSE_STATES = 20
DENSE_OBS = 20
HARD_SET = 3  # states a hard observation leaves with positive likelihood

@dataclass(frozen=True)
class ChainSpec:
    """A chain workload: inputs plus the shape of one timed round."""

    window: tuple[float, float]
    probes: tuple[float, ...] | None  # None: probe at every observation time
    init: str
    sweeps: int  # kept sweeps per round
    burn_in: int  # sweeps dropped at the start of each round


@dataclass(frozen=True)
class ReplicateSpec:
    """The diagnostics workload: one TV-decay call and one drift call per round."""

    tv_window: tuple[float, float]
    tv_seed_jumps: int
    tv_ms: tuple[int, ...]
    tv_probe: float
    tv_replicates: int
    drift_window: tuple[float, float]
    drift_ns: tuple[int, ...]
    drift_replicates: int


SPECS = {
    "short_window": ChainSpec((0.0, 4.0), (0.5, 2.0, 3.5), "prior-rejection", 4500, 500),
    "long_window": ChainSpec((0.0, 200.0), (50.0, 100.0, 150.0), "prior-rejection", 270, 30),
    "dense_states": ChainSpec((0.0, 10.0), None, "max-likelihood-path", 450, 50),
    "replicates": ReplicateSpec((0.0, 4.0), 40, (0, 1, 2, 4, 8, 16, 32), 2.0, 100,
                                (0.0, 2.0), (5, 10, 20, 40), 100),
}
NAMES = tuple(SPECS)


def _simulate_path(rng: np.random.Generator, nu, q: np.ndarray, window):
    """Event-driven prior path: initial state, jump times, entered states."""
    n = q.shape[0]
    s = int(rng.choice(n, p=nu))
    t = window[0]
    s0, times, states = s, [], []
    while True:
        rate = -q[s, s]
        t += rng.exponential(1.0 / rate)
        if t >= window[1]:
            return s0, np.array(times), np.array(states, dtype=np.int64)
        p = np.clip(q[s], 0.0, None)
        p[s] = 0.0
        s = int(rng.choice(n, p=p / p.sum()))
        times.append(t)
        states.append(s)


def _state_at(path, t: float) -> int:
    s0, times, states = path
    i = int(np.searchsorted(times, t, side="right"))
    return s0 if i == 0 else int(states[i - 1])


def _long_window(rng: np.random.Generator) -> tuple[list, list, list, list]:
    """Q3 on [0, 200]: 200 equispaced observations through a 0.8/0.1 channel."""
    q = np.array(Q3)
    path = _simulate_path(rng, NU3, q, (0.0, 200.0))
    e = np.full((3, 3), 0.1)
    np.fill_diagonal(e, 0.8)
    times = (np.arange(200) + 0.5).tolist()
    liks = []
    for t in times:
        symbol = int(rng.choice(3, p=e[_state_at(path, t)]))
        liks.append(e[:, symbol].tolist())
    return Q3, NU3, times, liks


def _dense_states(rng: np.random.Generator) -> tuple[list, list, list, list]:
    """A dense 20-state Q on [0, 10]; every other observation is hard.

    A hard observation gives likelihood 1 to the hidden state and two other
    states and 0 to the rest; a soft one gives 0.8 to the hidden state and
    0.1 elsewhere.
    """
    n = DENSE_STATES
    q = rng.uniform(0.1, 0.9, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    nu = np.full(n, 1.0 / n)
    path = _simulate_path(rng, nu, q, (0.0, 10.0))
    step = 10.0 / DENSE_OBS
    times = ((np.arange(DENSE_OBS) + rng.uniform(0.1, 0.9, DENSE_OBS)) * step).tolist()
    liks = []
    for j, t in enumerate(times):
        s = _state_at(path, t)
        if j % 2 == 0:
            others = rng.choice(np.delete(np.arange(n), s), size=HARD_SET - 1, replace=False)
            lik = np.zeros(n)
            lik[[s, *others]] = 1.0
        else:
            lik = np.full(n, 0.1)
            lik[s] = 0.8
        liks.append(lik.tolist())
    return q.tolist(), nu.tolist(), times, liks


def _model_doc(q, nu) -> dict:
    return {"states": len(q), "Q": q, "nu": nu}


def _evidence_doc(window, times, liks) -> dict:
    return {"t_min": window[0], "t_max": window[1],
            "obs": [{"t": t, "lik": lik} for t, lik in zip(times, liks)]}


def make_inputs(name: str, data_seed: int = DATA_SEED) -> dict[str, dict]:
    """File name -> JSON document for every input file of a workload."""
    rng = np.random.default_rng(data_seed)
    if name == "replicates":
        spec = SPECS[name]
        return {
            "model.json": _model_doc(Q3, NU3),
            "evidence.json": _evidence_doc(spec.tv_window, EV3_TIMES, EV3_LIKS),
            "drift_model.json": _model_doc(SYM2, [0.5, 0.5]),
        }
    if name == "short_window":
        q, nu, times, liks = Q3, NU3, EV3_TIMES, EV3_LIKS
    elif name == "long_window":
        q, nu, times, liks = _long_window(rng)
    elif name == "dense_states":
        q, nu, times, liks = _dense_states(rng)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return {
        "model.json": _model_doc(q, nu),
        "evidence.json": _evidence_doc(SPECS[name].window, times, liks),
    }


def write_inputs(docs: dict[str, dict], out_dir: Path) -> dict[str, Path]:
    """Write the documents of :func:`make_inputs` into ``out_dir``; returns
    file name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for file_name, doc in docs.items():
        path = out_dir / file_name
        path.write_text(json.dumps(doc, indent=1) + "\n")
        paths[file_name] = path
    return paths
