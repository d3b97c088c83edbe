"""Randomized exactness gate for the forward filter and the backward sampler.

The step-by-step loops below are the straightforward FFBS recursions; the
library's table-driven passes must reproduce them: equal skeletons bit for
bit from equal generator states, filtered distributions to 1e-12 and the
log evidence to 1e-10. The sampling probability is also checked against
brute-force skeleton enumeration wherever that fits. Grids of 2-4 states
with at least ``BLOCKED_MIN_STEPS`` steps and evidence at most grid times
exercise the blocked filter; every other grid, and gaps around the length
of the kernel-power table, exercise the segment loop.
"""

import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mjpsampler import ffbs
from mjpsampler.errors import ImpossibleEvidence
from mjpsampler.ffbs import (
    BACKWARD_BYTES,
    BLOCK_STEPS,
    BLOCKED_MAX_STATES,
    BLOCKED_MIN_ATTACHED,
    BLOCKED_MIN_STEPS,
    BLOCKED_STEPS_PER_ATTACHED,
    _predecessors,
    attach_emissions,
    backward_sample,
    build_kernel,
    forward_filter,
    skeleton_sample_log_probability,
)
from mjpsampler.model import POWER_STEPS, Evidence, validate_rate_matrix
from mjpsampler.oracle import enumerate_skeleton_posterior

ENUMERATION_LIMIT = 4096  # skeletons; keeps each example fast
BACKWARD_ROWS = 256  # rows per backward block in the hypothesis test, by a patched budget
Q2 = validate_rate_matrix([[-1.0, 1.0], [0.5, -0.5]])


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


def reference_predecessors(rows, p, u):
    """The step loop's draw of every row for every successor: one ``np.cumsum`` each."""
    n_states = p.shape[0]
    pred = np.empty((n_states, rows.shape[0]), dtype=np.int64)
    for m, (a, cut) in enumerate(zip(rows, u)):
        for t in range(n_states):
            cum = np.cumsum(a * p[:, t])
            pred[t, m] = min(int(np.searchsorted(cum, cut * cum[-1], side="right")), n_states - 1)
    return pred


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
        [0, 1, 2, 3, 5, POWER_STEPS - 1, POWER_STEPS, POWER_STEPS + 1, 2 * POWER_STEPS + 1,
         BLOCKED_MIN_STEPS - 1, BLOCKED_MIN_STEPS, BLOCKED_MIN_STEPS + 1,
         7 * BLOCK_STEPS + 5, BACKWARD_ROWS + 1, BACKWARD_ROWS + 3]))
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
    liks = np.array(liks).reshape(len(times), n_states)
    if draw(st.booleans()):  # dense evidence as well: one soft observation per grid time
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        times = np.concatenate((times, grid))
        liks = np.concatenate((liks, rng.choice([1e-3, 0.1, 0.6, 1.0], (grid.size, n_states))))
        order = np.argsort(times, kind="stable")
        times, liks = times[order], liks[order]
    ev = Evidence(times, liks)
    lambda_factor = draw(st.sampled_from([1.1, 2.0, 5.0]))
    return validate_rate_matrix(q), nu, grid, ev, lambda_factor


def _filter_pair(q, nu, grid, ev, lambda_factor):
    kernel = build_kernel(q, lambda_factor * q.q_max)
    attach = attach_emissions(grid, ev)
    try:
        ref = reference_forward_filter(kernel, nu, dict(zip(attach[0].tolist(), attach[1])),
                                       grid.size)
    except ImpossibleEvidence:
        ref = None
    try:
        filt = forward_filter(kernel, nu, attach, grid.size)
    except ImpossibleEvidence:
        filt = None
    assert (ref is None) == (filt is None)
    return kernel, ref, filt


def _blocked(n_steps, kernel, n_attached):
    return (n_steps >= BLOCKED_MIN_STEPS and kernel.n_states <= BLOCKED_MAX_STATES
            and (n_attached - BLOCKED_MIN_ATTACHED) * BLOCKED_STEPS_PER_ATTACHED >= n_steps)


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
    n_attached = attach_emissions(case[2], case[3])[0].size
    event("blocked filter" if _blocked(case[2].size, kernel, n_attached) else "segment loop")
    _assert_filters_agree(ref, filt)
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:  # long grids cross a block boundary
        patch.setattr(ffbs, "BACKWARD_BYTES", 9 * kernel.n_states**2 * BACKWARD_ROWS)
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
    grid = np.sort(rng.uniform(0.0, 10.0, BACKWARD_BYTES // (9 * 20 * 20) + 2))
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


def lockstep_rows(n_states, n_chains, width, seed):
    """Filter rows of a lockstep batch, ``(width + 1, R, S)``, a sparse kernel
    and uniforms ``(width + 1, R)``: chains end at different steps and are
    padded by kernel steps without normalisation; rows have hard zeros, one
    row is all zeros and some uniforms are 0 or 1 (a cut equal to the total)."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 0.9, (n_states, n_states)) * (rng.random((n_states, n_states)) < 0.6)
    q[np.arange(n_states), (np.arange(n_states) + 1) % n_states] += 0.5
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    q = validate_rate_matrix(q)
    p = build_kernel(q, 1.5 * q.q_max).p
    shape = (width + 1, n_chains, n_states)
    alphas = rng.random(shape) * (rng.random(shape) < 0.5)
    alphas[:, :, 0] += 1e-3 * (alphas.sum(axis=2) == 0)
    ends = rng.integers(0, width + 1, n_chains)
    for i in range(1, width + 1):
        pad = i > ends
        alphas[i, pad] = alphas[i - 1, pad] @ p
    alphas[width // 2, 0] = 0.0
    u = rng.random((width + 1, n_chains))
    u[rng.random(u.shape) < 0.05] = 1.0
    u[rng.random(u.shape) < 0.05] = 0.0
    return alphas, p, u


@pytest.mark.parametrize("n_states", [2, 3, 20])
@pytest.mark.parametrize("n_chains,width", [(1, 40), (7, 12), (1000, 3)])
@pytest.mark.parametrize("rows_per_block", [None, 5])
def test_predecessor_table_matches_per_row_draws(monkeypatch, n_states, n_chains, width,
                                                 rows_per_block):
    if rows_per_block is not None:  # blocks that end inside a step of the batch
        monkeypatch.setattr(ffbs, "BACKWARD_BYTES", 9 * n_states**2 * rows_per_block)
    alphas, p, u = lockstep_rows(n_states, n_chains, width, seed=n_states * n_chains)
    rows, cuts = alphas[:-1].reshape(-1, n_states), u[:-1].ravel()
    pred = _predecessors(rows, p, cuts)
    assert pred.dtype == np.uint8
    assert np.array_equal(pred, reference_predecessors(rows, p, cuts))


@pytest.mark.parametrize("n_states", [255, 256, 257])
def test_backward_sample_where_the_count_dtype_widens(n_states):
    # counts reach S - 1: uint8 up to S = 256, uint16 from 257
    rng = np.random.default_rng(n_states)
    q = rng.uniform(0.1, 0.9, (n_states, n_states))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    q = validate_rate_matrix(q)
    grid = np.sort(rng.uniform(0.0, 1.0, 20))
    liks = rng.uniform(0.05, 1.0, (4, n_states)) * (rng.random((4, n_states)) < 0.3)
    liks[:, 0] = 1.0
    ev = Evidence([0.0, grid[3], grid[3], grid[-1]], liks)
    kernel, ref, filt = _filter_pair(q, np.full(n_states, 1.0 / n_states), grid, ev, 2.0)
    _assert_filters_agree(ref, filt)
    for seed in range(3):
        expected = reference_backward_sample(filt.alphas, kernel, np.random.default_rng(seed))
        assert np.array_equal(backward_sample(filt, kernel, np.random.default_rng(seed)), expected)
    alphas, p, u = lockstep_rows(n_states, 1, 6, seed=n_states)
    pred = _predecessors(alphas[:-1, 0], p, u[:-1, 0])
    assert pred.dtype == (np.uint8 if n_states <= 256 else np.uint16)
    assert np.array_equal(pred, reference_predecessors(alphas[:-1, 0], p, u[:-1, 0]))


@pytest.fixture
def blocked_runs(monkeypatch):
    """Results of the blocked filter's calls: a filter, or None where it handed over."""
    runs = []
    blocked = ffbs._forward_blocked

    def spy(*args):
        runs.append(blocked(*args))
        return runs[-1]

    monkeypatch.setattr(ffbs, "_forward_blocked", spy)
    return runs


def test_blocked_filter_on_extreme_evidence(blocked_runs):
    rng = np.random.default_rng(7)
    q = validate_rate_matrix([[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]])
    grid = np.sort(rng.uniform(0.0, 100.0, 3 * BLOCKED_MIN_STEPS + 5))
    # one observation per grid segment, one at t_min, and hard zeros on the
    # two indices either side of the first block boundary
    times = np.concatenate(([0.0], grid + 1e-9))
    liks = rng.choice([1.0, 0.3, 1e-30, 1e-200], size=(times.size, 3))
    liks[np.arange(times.size), rng.integers(0, 3, times.size)] = 1.0
    liks[BLOCK_STEPS, :2] = 0.0
    liks[BLOCK_STEPS + 1, 1:] = 0.0
    liks[BLOCK_STEPS + 1, 0] = 1e-200
    ev = Evidence(times, liks)
    _, ref, filt = _filter_pair(q, np.array([0.2, 0.5, 0.3]), grid, ev, 2.0)
    assert len(blocked_runs) == 1 and blocked_runs[0] is not None
    _assert_filters_agree(ref, filt)


@pytest.mark.parametrize("lambda_factor", [1.1, 3.0])
def test_blocked_filter_agrees_past_the_threshold(blocked_runs, lambda_factor):
    rng = np.random.default_rng(11)
    for n_steps in (BLOCKED_MIN_STEPS, BLOCKED_MIN_STEPS + 1, 10 * BLOCK_STEPS + 1, 1000):
        grid = np.sort(rng.uniform(0.0, n_steps / 4.0, n_steps))
        times = np.sort(rng.uniform(0.0, n_steps / 4.0, 2 * n_steps))
        ev = Evidence(times, rng.uniform(1e-30, 1.0, (times.size, 2)))
        _, ref, filt = _filter_pair(Q2, np.array([0.5, 0.5]), grid, ev, lambda_factor)
        _assert_filters_agree(ref, filt)
    assert len(blocked_runs) == 4 and all(run is not None for run in blocked_runs)


def test_path_follows_attachment_density(blocked_runs):
    q = validate_rate_matrix([[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]])
    n_steps = 400
    grid = np.arange(1.0, n_steps + 1.0)  # an observation at time t attaches to index floor(t)
    rng = np.random.default_rng(3)
    least = BLOCKED_MIN_ATTACHED + n_steps // BLOCKED_STEPS_PER_ATTACHED  # fewest taking it
    for n_attached, blocked in ((n_steps // 2, True), (least, True), (least - 1, False),
                                (n_steps // 12, False)):
        blocked_runs.clear()
        times = np.sort(rng.choice(n_steps + 1, n_attached, replace=False)) + 0.5
        ev = Evidence(times, rng.uniform(0.05, 1.0, (n_attached, 3)))
        _, ref, filt = _filter_pair(q, np.full(3, 1.0 / 3), grid, ev, 2.0)
        assert len(blocked_runs) == blocked
        _assert_filters_agree(ref, filt)


def test_impossible_evidence_in_a_middle_block_raises(blocked_runs):
    grid = np.linspace(0.1, 30.0, 2 * BLOCKED_MIN_STEPS + 3)
    t = grid[BLOCKED_MIN_STEPS + 2]  # both attach to index BLOCKED_MIN_STEPS + 3
    # and soft evidence at every grid time, so that the blocked filter runs
    times = np.concatenate(([0.0, t, t], grid))
    liks = np.concatenate(([[0.4, 0.6], [1.0, 0.0], [0.0, 1.0]], np.full((grid.size, 2), 0.5)))
    order = np.argsort(times, kind="stable")
    ev = Evidence(times[order], liks[order])
    kernel = build_kernel(Q2, 2.0 * Q2.q_max)
    factors = attach_emissions(grid, ev)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImpossibleEvidence) as blocked_error:
            forward_filter(kernel, np.array([0.5, 0.5]), factors, grid.size)
        with pytest.raises(ImpossibleEvidence) as reference_error:
            reference_forward_filter(kernel, np.array([0.5, 0.5]),
                                     dict(zip(factors[0].tolist(), factors[1])), grid.size)
    assert blocked_runs == [None]  # handed to the segment loop, which raised
    assert str(blocked_error.value) == str(reference_error.value)
    assert str(BLOCKED_MIN_STEPS + 3) in str(blocked_error.value)


def test_underflowing_block_hands_over_to_segment_loop(blocked_runs):
    # 6-state cycle from state 0; evidence at indices 1 and 2 favours state 3,
    # three jumps away, so paths from state 0 keep about 1e-316 of the first
    # block's mass: possible evidence, but below the smallest normal float.
    # Flat evidence at every later grid time makes the blocked filter run.
    q = np.zeros((6, 6))
    q[np.arange(6), (np.arange(6) + 1) % 6] = 1.0
    np.fill_diagonal(q, -1.0)
    grid = np.linspace(0.1, 20.0, BLOCKED_MIN_STEPS + 20)
    lik = np.full(6, 1e-158)
    lik[3] = 1.0
    ev = Evidence(np.concatenate(([0.0], grid)),
                  np.vstack((np.eye(6)[0], lik, lik, np.ones((grid.size - 2, 6)))))
    nu = np.full(6, 1.0 / 6)
    _, ref, filt = _filter_pair(validate_rate_matrix(q), nu, grid, ev, 2.0)
    assert blocked_runs == [None]
    _assert_filters_agree(ref, filt)


@pytest.fixture(params=[3, 20])
def power_kernel(request):
    """A random dense kernel on 3 or 20 states and its number of tabulated powers."""
    rng = np.random.default_rng(request.param)
    q = rng.uniform(0.1, 0.9, (request.param, request.param))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    q = validate_rate_matrix(q)
    kernel = build_kernel(q, 2.0 * q.q_max)
    return q, kernel.powers.shape[0] // kernel.n_states


K = POWER_STEPS


@pytest.mark.parametrize("attached,n_steps", [
    ([], 3 * K + 2),  # no evidence at all
    # gaps K - 1, K, K + 1, 2K + 1 after an attachment at index 0
    ([0, K - 1, 2 * K - 1, 3 * K, 5 * K + 1], 5 * K + 4),
    # gaps 2K + 1, K - 1, K + 1, K, up to an attachment at index N
    ([1, 2 * K + 2, 3 * K + 1, 4 * K + 2, 5 * K + 2], 5 * K + 2),
])
def test_segment_loop_across_gaps(blocked_runs, power_kernel, attached, n_steps):
    q, k_max = power_kernel
    assert k_max == K
    rng = np.random.default_rng(n_steps)
    grid = np.arange(1.0, n_steps + 1.0)  # an observation at time t attaches to index floor(t)
    ev = Evidence(np.array(attached, dtype=float),
                  rng.uniform(0.0, 1.0, (len(attached), q.n_states)) ** 4)
    nu = rng.dirichlet(np.ones(q.n_states))
    kernel, ref, filt = _filter_pair(q, nu, grid, ev, 2.0)
    assert blocked_runs == []
    assert attach_emissions(grid, ev)[0].tolist() == attached
    _assert_filters_agree(ref, filt)
    for seed in range(3):
        expected = reference_backward_sample(filt.alphas, kernel, np.random.default_rng(seed))
        assert np.array_equal(backward_sample(filt, kernel, np.random.default_rng(seed)), expected)


def test_impossible_evidence_after_a_long_gap_raises(blocked_runs):
    n_steps = 3 * POWER_STEPS + 5
    grid = np.arange(1.0, n_steps + 1.0)
    late = 2 * POWER_STEPS + 3  # after one gap of two full segments and more
    ev = Evidence([0.0, late + 0.5, late + 0.5], [[0.4, 0.6], [1.0, 0.0], [0.0, 1.0]])
    kernel = build_kernel(Q2, 2.0 * Q2.q_max)
    factors = attach_emissions(grid, ev)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImpossibleEvidence) as segment_error:
            forward_filter(kernel, np.array([0.5, 0.5]), factors, n_steps)
        with pytest.raises(ImpossibleEvidence) as reference_error:
            reference_forward_filter(kernel, np.array([0.5, 0.5]),
                                     dict(zip(factors[0].tolist(), factors[1])), n_steps)
    assert blocked_runs == []
    assert str(segment_error.value) == str(reference_error.value)
    assert str(late) in str(segment_error.value)
