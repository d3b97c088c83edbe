import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpsampler.errors import ImpossibleEvidence, LambdaTooSmall, TooLarge
from mjpsampler.ffbs import (
    BACKWARD_BYTES,
    GRID_CAP,
    FilterState,
    attach_emissions,
    backward_sample,
    build_kernel,
    categorical,
    forward_filter,
    skeleton_sample_log_probability,
)
from mjpsampler import model
from mjpsampler.model import POWER_STEPS, Evidence, validate_rate_matrix
from mjpsampler.oracle import enumerate_skeleton_posterior

SYM2 = validate_rate_matrix([[-1.0, 1.0], [1.0, -1.0]])
Q3 = validate_rate_matrix([[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]])


class TestBuildKernel:
    def test_symmetric_two_state(self):
        kernel = build_kernel(SYM2, 2.0)
        assert np.allclose(kernel.p, 0.5)

    def test_strict_inequality_required(self):
        with pytest.raises(LambdaTooSmall):
            build_kernel(SYM2, 1.0)
        with pytest.raises(LambdaTooSmall):
            build_kernel(SYM2, 0.5)

    def test_large_lambda_is_near_identity(self):
        kernel = build_kernel(SYM2, 1000.0 * SYM2.q_max)
        assert (np.diag(kernel.p) >= 0.999).all()


def _random_rates(n_states, seed):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 0.9, (n_states, n_states))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return validate_rate_matrix(q)


class TestKernelPowers:
    def test_table_holds_transposed_powers(self):
        kernel = build_kernel(Q3, 2.0 * Q3.q_max)
        blocks = kernel.powers.reshape(POWER_STEPS, 3, 3)
        for j, block in enumerate(blocks, start=1):
            assert np.abs(block.T - np.linalg.matrix_power(kernel.p, j)).max() <= 1e-15

    def test_read_only_and_built_once_on_first_use(self):
        kernel = build_kernel(Q3, 2.0 * Q3.q_max)
        assert "powers" not in vars(kernel)  # nothing built with the kernel
        ev = Evidence([0.3, 1.1], [[0.8, 0.1, 0.1], [0.2, 0.5, 0.3]])
        first = forward_filter(kernel, np.full(3, 1.0 / 3), attach_emissions([0.2, 1.0], ev), 2)
        table = kernel.powers
        again = forward_filter(kernel, np.full(3, 1.0 / 3), attach_emissions([0.2, 1.0], ev), 2)
        assert kernel.powers is table
        assert np.array_equal(first.alphas, again.alphas)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5

    def test_byte_budget_caps_the_table(self):
        # K = 1 once one more power would pass the budget: the table is P^T itself
        n_states = int(np.sqrt(model.POWER_TABLE_BYTES / 16)) + 1  # 8 bytes a float
        q = _random_rates(n_states, 1)
        kernel = build_kernel(q, 2.0 * q.q_max)
        assert kernel.powers.shape == (n_states, n_states)
        assert np.array_equal(kernel.powers, kernel.p.T)
        q = _random_rates(n_states - 1, 1)
        assert build_kernel(q, 2.0 * q.q_max).powers.shape == (2 * (n_states - 1), n_states - 1)

    def test_filter_with_one_power_matches_full_table(self, monkeypatch):
        q = _random_rates(4, 2)
        grid = np.arange(1.0, 41.0)
        ev = Evidence([0.0, 7.5, 30.5, 40.0], np.random.default_rng(2).uniform(0.1, 1.0, (4, 4)))
        full = forward_filter(build_kernel(q, 2.0 * q.q_max), np.full(4, 0.25),
                              attach_emissions(grid, ev), 40)
        monkeypatch.setattr(model, "POWER_TABLE_BYTES", 8 * 4 * 4)
        kernel = build_kernel(q, 2.0 * q.q_max)
        one = forward_filter(kernel, np.full(4, 0.25), attach_emissions(grid, ev), 40)
        assert kernel.powers.shape == (4, 4)
        assert np.abs(one.alphas - full.alphas).max() <= 1e-13
        assert one.log_norm == pytest.approx(full.log_norm, abs=1e-12)


class TestCategorical:
    def test_counts_running_sums_at_or_below_the_cut(self):
        assert categorical([0.25, 0.5, 1.0], 0.25) == 1  # a tie counts
        assert categorical([0.25, 0.5, 1.0], 0.2) == 0
        assert categorical([0.25, 0.5, 1.0], 0.9) == 2

    def test_zero_weights_are_never_drawn(self):
        assert categorical([0.0, 0.0, 2.0, 2.0, 4.0], 0.0) == 2
        assert categorical([0.0, 0.0, 2.0, 2.0, 4.0], 0.5) == 4

    def test_cut_that_rounds_up_to_the_total_draws_the_last_index(self):
        assert categorical([0.5, 1.0], 1.0) == 1


class TestAttachEmissions:
    def test_max_rule(self):
        ev = Evidence([2.0], [[0.9, 0.1]])
        indices, factors = attach_emissions([1.0, 3.0], ev)
        assert indices.tolist() == [1]
        assert factors.tolist() == [[0.9, 0.1]]

    def test_before_first_grid_time_goes_to_index_zero(self):
        ev = Evidence([0.5], [[0.9, 0.1]])
        indices, _ = attach_emissions([1.0, 3.0], ev)
        assert indices.tolist() == [0]

    def test_shared_index_multiplies(self):
        ev = Evidence([0.2, 0.5], [[0.9, 0.1], [0.5, 0.5]])
        indices, factors = attach_emissions([1.0, 3.0], ev)
        assert indices.tolist() == [0]
        assert np.allclose(factors, [[0.45, 0.05]])

    def test_observation_at_grid_time_attaches_right(self):
        ev = Evidence([1.0], [[0.9, 0.1]])
        indices, _ = attach_emissions([1.0, 3.0], ev)
        assert indices.tolist() == [1]

    def test_factors_multiply_in_observation_order(self):
        # one observation at a time, as a loop over observations multiplies them
        rng = np.random.default_rng(4)
        grid = np.sort(rng.uniform(0.0, 10.0, 30))
        times = np.sort(np.concatenate((rng.uniform(0.0, 10.0, 60), grid[[3, 3, 17]], [0.0])))
        ev = Evidence(times, rng.uniform(1e-3, 2.0, (times.size, 3)))
        expected: dict[int, np.ndarray] = {}
        for i, lik in zip(np.searchsorted(grid, times, side="right").tolist(), ev.liks):
            expected[i] = expected[i] * lik if i in expected else lik
        indices, factors = attach_emissions(grid, ev)
        assert indices.tolist() == sorted(expected)
        assert np.array_equal(factors, np.array([expected[i] for i in sorted(expected)]))


class TestForwardFilter:
    def test_no_observations_gives_prior_marginals(self):
        kernel = build_kernel(Q3, 2.0 * Q3.q_max)
        nu = np.array([0.2, 0.5, 0.3])
        filt = forward_filter(kernel, nu, attach_emissions([], Evidence.empty(3)), 6)
        marginal = nu.copy()
        for i in range(7):
            assert np.allclose(filt.alphas[i], marginal, atol=1e-12)
            marginal = marginal @ kernel.p
        assert filt.log_norm == pytest.approx(0.0, abs=1e-12)

    def test_indicator_at_index_zero(self):
        kernel = build_kernel(SYM2, 2.0)
        ev = Evidence([0.0], [[0.0, 1.0]])
        filt = forward_filter(kernel, np.array([0.5, 0.5]), attach_emissions([1.0], ev), 1)
        assert np.allclose(filt.alphas[0], [0.0, 1.0])

    def test_log_norm_indicator_at_last_index(self):
        # uniform kernel and prior: any indicator observation halves the mass
        kernel = build_kernel(SYM2, 2.0)
        ev = Evidence([1.25], [[1.0, 0.0]])
        att = attach_emissions([0.25, 0.5, 0.75, 1.0, 1.25], ev)
        filt = forward_filter(kernel, np.array([0.5, 0.5]), att, 5)
        assert filt.log_norm == pytest.approx(np.log(0.5), abs=1e-12)

    def test_impossible_evidence_raises(self):
        kernel = build_kernel(SYM2, 2.0)
        ev = Evidence([0.1, 0.2], [[1.0, 0.0], [0.0, 1.0]])  # both attach to index 0
        with pytest.raises(ImpossibleEvidence):
            forward_filter(kernel, np.array([0.5, 0.5]), attach_emissions([1.0], ev), 1)

    def test_log_norm_ignores_evidence_free_suffix(self):
        kernel = build_kernel(SYM2, 2.0)
        nu = np.array([0.5, 0.5])
        ev = Evidence([0.3], [[0.7, 0.2]])
        short = forward_filter(kernel, nu, attach_emissions([0.25, 0.5], ev), 2)
        long = forward_filter(kernel, nu, attach_emissions([0.25, 0.5, 0.75, 1.0], ev), 4)
        assert long.log_norm == pytest.approx(short.log_norm, abs=1e-12)

    def test_grid_past_cap_raises_before_allocating(self):
        kernel = build_kernel(Q3, 2.0 * Q3.q_max)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                forward_filter(kernel, np.full(3, 1.0 / 3),
                               attach_emissions([], Evidence.empty(3)), GRID_CAP + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # bytes; the rows alone would take 24 * GRID_CAP


def _enumeration_case(q, nu, grid_times, ev):
    kernel = build_kernel(q, 2.0 * q.q_max)
    att = attach_emissions(grid_times, ev)
    filt = forward_filter(kernel, np.asarray(nu), att, len(grid_times))
    posterior = enumerate_skeleton_posterior(grid_times, nu, kernel, ev)
    return kernel, filt, posterior


class TestExactness:
    @pytest.mark.parametrize(
        "q,nu,ev",
        [
            (SYM2, [0.5, 0.5], Evidence([0.8], [[0.9, 0.1]])),
            (SYM2, [0.3, 0.7], Evidence([0.2, 0.8], [[1.0, 0.0], [0.4, 0.6]])),
            (Q3, [0.2, 0.5, 0.3], Evidence([0.5, 0.5, 1.1], [[0.8, 0.1, 0.1], [0.2, 0.5, 0.3], [0.0, 1.0, 0.0]])),
        ],
    )
    def test_sampling_probability_matches_enumeration(self, q, nu, ev):
        grid_times = [0.25, 0.5, 0.75, 1.0, 1.25]
        kernel, filt, posterior = _enumeration_case(q, nu, grid_times, ev)
        for skeleton, prob in posterior.items():
            p_ffbs = np.exp(skeleton_sample_log_probability(filt, kernel, skeleton))
            assert p_ffbs == pytest.approx(prob, abs=1e-10)

    def test_log_norm_matches_enumeration_total(self):
        # independent brute-force evidence probability
        grid_times = [0.25, 0.5, 0.75]
        nu = np.array([0.5, 0.5])
        ev = Evidence([0.6], [[0.9, 0.1]])
        kernel = build_kernel(SYM2, 2.0)
        total = 0.0
        for skel in itertools.product(range(2), repeat=4):
            mass = nu[skel[0]]
            for i in range(1, 4):
                mass *= kernel.p[skel[i - 1], skel[i]]
            i_obs = sum(1 for t in grid_times if t <= 0.6)
            mass *= ev.liks[0][skel[i_obs]]
            total += mass
        filt = forward_filter(kernel, nu, attach_emissions(grid_times, ev), 3)
        assert filt.log_norm == pytest.approx(np.log(total), abs=1e-12)


class TestBackwardSample:
    def test_single_point_no_evidence_follows_prior(self):
        kernel = build_kernel(SYM2, 2.0)
        filt = forward_filter(
            kernel, np.array([1.0, 0.0]), attach_emissions([], Evidence.empty(2)), 0
        )
        rng = np.random.default_rng(0)
        draws = [backward_sample(filt, kernel, rng)[0] for _ in range(50)]
        assert set(draws) == {0}

    def test_near_identity_kernel_gives_constant_skeletons(self):
        kernel = build_kernel(SYM2, 1000.0 * SYM2.q_max)
        filt = forward_filter(
            kernel, np.array([0.5, 0.5]), attach_emissions([], Evidence.empty(2)), 5
        )
        rng = np.random.default_rng(1)
        constant = sum(
            (lambda s: (s == s[0]).all())(backward_sample(filt, kernel, rng))
            for _ in range(1000)
        )
        assert constant / 1000 >= 0.98

    def test_table_memory_is_bounded_by_bytes(self):
        # at S = 256 one step of the predecessor table takes 9 * 256^2 bytes;
        # a table of all 100 steps would take 59 MB
        n_states, n_steps = 256, 100
        rng = np.random.default_rng(256)
        q = rng.uniform(0.1, 0.9, (n_states, n_states))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        q = validate_rate_matrix(q)
        kernel = build_kernel(q, 2.0 * q.q_max)
        filt = FilterState(alphas=rng.random((n_steps + 1, n_states)), log_norm=0.0)
        tracemalloc.start()
        try:
            backward_sample(filt, kernel, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block and its temporaries, a few S^2 floats
        assert peak < BACKWARD_BYTES + 16 * n_states**2

    def test_empirical_law_close_to_enumeration(self):
        grid_times = [0.25, 0.5, 0.75, 1.0, 1.25]
        ev = Evidence([0.8], [[0.9, 0.1]])
        kernel, filt, posterior = _enumeration_case(SYM2, [0.5, 0.5], grid_times, ev)
        rng = np.random.default_rng(2)
        counts: dict[tuple, int] = {}
        n = 20_000
        for _ in range(n):
            key = tuple(backward_sample(filt, kernel, rng).tolist())
            counts[key] = counts.get(key, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(s, 0) / n - p) for s, p in posterior.items()
        )
        assert tv < 0.05


@given(
    st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=2, max_size=2).filter(
        lambda v: max(v) > 0
    ),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100)
def test_zero_likelihood_never_produces_nan(lik, obs_index, seed):
    # evidence with zeros either filters cleanly or raises ImpossibleEvidence
    kernel = build_kernel(SYM2, 2.0)
    grid_times = [0.2, 0.4, 0.6, 0.8]
    t_obs = [0.1, 0.3, 0.5, 0.7, 0.9][obs_index]
    ev = Evidence([t_obs], [lik])
    try:
        filt = forward_filter(
            kernel, np.array([1.0, 0.0]), attach_emissions(grid_times, ev), 4
        )
    except ImpossibleEvidence:
        return
    assert np.isfinite(filt.alphas).all()
    skeleton = backward_sample(filt, kernel, np.random.default_rng(seed))
    assert np.isfinite(filt.log_norm)
    assert ((skeleton == 0) | (skeleton == 1)).all()
