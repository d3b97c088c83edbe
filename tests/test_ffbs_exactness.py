"""Randomized exactness gate for the forward filter and the backward sampler.

The step-by-step loops below are the straightforward FFBS recursions; the
library's table-driven passes must reproduce them: equal skeletons bit for
bit from equal generator states, filtered distributions to 1e-12 and the
log evidence to 1e-10. The sampling probability is also checked against
brute-force skeleton enumeration wherever that fits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpsampler.errors import ImpossibleEvidence
from mjpsampler.ffbs import (
    BACKWARD_BLOCK,
    attach_emissions,
    backward_sample,
    build_kernel,
    forward_filter,
    skeleton_sample_log_probability,
)
from mjpsampler.model import Evidence, validate_rate_matrix
from mjpsampler.oracle import enumerate_skeleton_posterior

ENUMERATION_LIMIT = 4096  # skeletons; keeps each example fast


def reference_forward_filter(kernel, nu, factors, n_steps):
    """Scaled forward recursion normalized at every step."""
    p = kernel.p
    alphas = np.empty((n_steps + 1, kernel.n_states))
    log_norm = 0.0
    a = nu * factors[0] if 0 in factors else nu
    for i in range(n_steps + 1):
        if i > 0:
            a = a @ p
            f = factors.get(i)
            if f is not None:
                a = a * f
        c = a.sum()
        if not c > 0.0:
            raise ImpossibleEvidence(f"zero normalizer at grid index {i}")
        a = a / c
        log_norm += np.log(c)
        alphas[i] = a
    return alphas, float(log_norm)


def reference_backward_sample(alphas, kernel, rng):
    """One inverse-CDF draw per step, conditioned on the state drawn after it."""
    p = kernel.p
    n = alphas.shape[0] - 1
    n_states = kernel.n_states
    u = rng.random(n + 1)
    out = np.empty(n + 1, dtype=np.int64)
    cum = np.cumsum(alphas[n])
    s = min(int(np.searchsorted(cum, u[n] * cum[-1], side="right")), n_states - 1)
    out[n] = s
    for i in range(n, 0, -1):
        w = alphas[i - 1] * p[:, s]
        cum = np.cumsum(w)
        s = min(int(np.searchsorted(cum, u[i - 1] * cum[-1], side="right")), n_states - 1)
        out[i - 1] = s
    return out


@st.composite
def cases(draw):
    """Irreducible Q on 2-4 states, a grid, and evidence with hard zeros."""
    n_states = draw(st.integers(2, 4))
    rate = st.sampled_from([0.0, 0.3, 1.0, 2.5])
    q = np.array([[draw(rate) for _ in range(n_states)] for _ in range(n_states)])
    for s in range(n_states):  # a positive cycle keeps Q irreducible
        q[s, (s + 1) % n_states] += 0.5
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))

    weight = st.sampled_from([0.0, 0.2, 1.0])
    nu = np.array([draw(weight) for _ in range(n_states)])
    nu[draw(st.integers(0, n_states - 1))] += 1.0
    nu /= nu.sum()

    n_steps = draw(st.sampled_from(
        [0, 1, 2, 3, 5, BACKWARD_BLOCK + 1, BACKWARD_BLOCK + 3]))
    grid = np.sort(draw(st.lists(st.integers(1, 10**6), min_size=n_steps,
                                 max_size=n_steps, unique=True))).astype(float) / 10**6

    # observation times: some on grid times, some between, some at t_min
    candidates = [0.0, 0.5, 1.0] + grid[:8].tolist() + grid[-3:].tolist()
    times = sorted(draw(st.lists(st.sampled_from(candidates), max_size=6)))
    lik_entry = st.sampled_from([0.0, 0.0, 0.1, 0.6, 1.0])
    liks = []
    for _ in times:
        row = [draw(lik_entry) for _ in range(n_states)]
        row[draw(st.integers(0, n_states - 1))] = 1.0
        liks.append(row)
    ev = Evidence(times, np.array(liks).reshape(len(times), n_states))
    lambda_factor = draw(st.sampled_from([1.1, 2.0, 5.0]))
    return validate_rate_matrix(q), nu, grid, ev, lambda_factor


def _filter_pair(q, nu, grid, ev, lambda_factor):
    kernel = build_kernel(q, lambda_factor * q.q_max)
    attach = attach_emissions(grid, ev)
    try:
        ref = reference_forward_filter(kernel, nu, attach, grid.size)
    except ImpossibleEvidence:
        ref = None
    try:
        filt = forward_filter(kernel, nu, attach, grid.size)
    except ImpossibleEvidence:
        filt = None
    assert (ref is None) == (filt is None)
    return kernel, ref, filt


def _assert_filters_agree(ref, filt):
    ref_alphas, ref_log_norm = ref
    rows = filt.alphas / filt.alphas.sum(axis=1, keepdims=True)
    assert np.abs(rows - ref_alphas).max() <= 1e-12
    assert abs(filt.log_norm - ref_log_norm) <= 1e-10


@given(cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_table_passes_match_step_loops(case, seed):
    kernel, ref, filt = _filter_pair(*case)
    if filt is None:
        return
    _assert_filters_agree(ref, filt)
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        expected = reference_backward_sample(filt.alphas, kernel, rng_ref)
        skeleton = backward_sample(filt, kernel, rng)
        assert skeleton.dtype == np.int64
        assert np.array_equal(skeleton, expected)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@given(cases())
@settings(max_examples=200, deadline=None)
def test_sampling_probability_matches_enumeration(case):
    q, nu, grid, ev, _ = case
    if q.n_states ** (grid.size + 1) > ENUMERATION_LIMIT:
        return
    kernel, _, filt = _filter_pair(*case)
    if filt is None:
        with pytest.raises(ImpossibleEvidence):
            enumerate_skeleton_posterior(grid, nu, kernel, ev)
        return
    posterior = enumerate_skeleton_posterior(grid, nu, kernel, ev)
    for skeleton, prob in posterior.items():
        p_ffbs = np.exp(skeleton_sample_log_probability(filt, kernel, skeleton))
        assert abs(p_ffbs - prob) <= 1e-10


def test_twenty_states_past_one_block():
    rng = np.random.default_rng(20)
    q = rng.uniform(0.1, 0.9, (20, 20))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    q = validate_rate_matrix(q)
    grid = np.sort(rng.uniform(0.0, 10.0, BACKWARD_BLOCK + 2))
    obs_times = np.concatenate(([0.0], grid[::40], [5.0]))
    obs_times.sort()
    liks = rng.uniform(0.05, 1.0, (obs_times.size, 20))
    liks[::2, 5:] = 0.0  # hard zeros on every other observation
    ev = Evidence(obs_times, liks)
    nu = np.full(20, 1.0 / 20)
    kernel, ref, filt = _filter_pair(q, nu, grid, ev, 2.0)
    _assert_filters_agree(ref, filt)
    for seed in range(5):
        expected = reference_backward_sample(filt.alphas, kernel, np.random.default_rng(seed))
        skeleton = backward_sample(filt, kernel, np.random.default_rng(seed))
        assert np.array_equal(skeleton, expected)
