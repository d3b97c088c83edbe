import copy

import numpy as np
import pytest
import scipy.linalg

from mjpsampler.diagnostics import seed_trajectory
from mjpsampler.errors import InitFailed, LambdaTooSmall
from mjpsampler.ffbs import build_kernel
from mjpsampler.model import (
    Evidence,
    Grid,
    SamplerConfig,
    Trajectory,
    trajectory_eval,
    trajectory_log_likelihood,
    validate_rate_matrix,
)
from mjpsampler.oracle import exact_posterior_marginals
from mjpsampler.raoteh import (
    _merge_candidate_times,
    initial_trajectory,
    pad_paths,
    rao_teh_step,
    rao_teh_step_many,
    run_chain,
    sample_virtual_jumps,
)
from mjpsampler.simulate import gillespie_simulate

SYM2 = validate_rate_matrix([[-1.0, 1.0], [1.0, -1.0]])
ASYM2 = validate_rate_matrix([[-1.0, 1.0], [2.0, -2.0]])
Q3 = validate_rate_matrix([[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]])
_DENSE = np.random.default_rng(20).uniform(0.1, 0.9, size=(20, 20))
np.fill_diagonal(_DENSE, 0.0)
np.fill_diagonal(_DENSE, -_DENSE.sum(axis=1))
Q20 = validate_rate_matrix(_DENSE)


class TestSampleVirtualJumps:
    def test_mean_count_per_segment(self):
        # constant trajectory: homogeneous Poisson at rate lambda - leave
        x = Trajectory.from_pairs(0.0, 2.0, 0)
        rng = np.random.default_rng(0)
        lam = 3.0
        counts = [sample_virtual_jumps(x, ASYM2, lam, rng).size for _ in range(40_000)]
        expected = (lam - ASYM2.leave[0]) * 2.0
        assert np.mean(counts) == pytest.approx(expected, rel=0.01)

    def test_count_bounded_by_total_rate(self):
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(0.5, 1), (1.2, 0)])
        rng = np.random.default_rng(1)
        lam = 2.0 * ASYM2.q_max
        counts = [sample_virtual_jumps(x, ASYM2, lam, rng).size for _ in range(5000)]
        assert np.mean(counts) <= lam * 2.0

    def test_times_inside_window_and_sorted(self):
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(0.5, 1), (1.2, 0)])
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = sample_virtual_jumps(x, ASYM2, 4.0, rng)
            assert (v > 0.0).all() and (v < 2.0).all()
            assert (np.diff(v) >= 0).all()

    def test_lambda_too_small(self):
        x = Trajectory.from_pairs(0.0, 2.0, 0)
        with pytest.raises(LambdaTooSmall):
            sample_virtual_jumps(x, ASYM2, ASYM2.q_max, np.random.default_rng(0))


class TestMerge:
    def test_true_jumps_preserved(self):
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(0.5, 1), (1.2, 0)])
        merged = _merge_candidate_times(x, np.array([0.1, 0.9, 1.9]))
        assert set(x.jump_times.tolist()) <= set(merged.tolist())
        assert (np.diff(merged) > 0).all()

    def test_exact_tie_collapses_to_true_jump(self):
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(0.5, 1)])
        merged = _merge_candidate_times(x, np.array([0.5, 0.5, 0.7]))
        assert merged.tolist() == [0.5, 0.7]


class TestRaoTehStep:
    def test_no_evidence_preserves_prior_law(self):
        # long-run endpoint frequencies against the matrix exponential
        q = ASYM2
        target = scipy.linalg.expm(np.asarray(q.q))[0]
        cfg = SamplerConfig(n_sweeps=5000, seed=0)
        x0 = Trajectory.from_pairs(0.0, 1.0, 0)
        trace = run_chain([1.0, 0.0], q, Evidence.empty(2), (0.0, 1.0), cfg,
                          probes=[1.0], x0=x0)
        freq = trace.probe_frequencies()[0]
        assert 0.5 * np.abs(freq - target).sum() < 0.02

    def test_hard_evidence_is_always_respected(self):
        ev = Evidence([0.3, 0.7], [[0.0, 1.0], [1.0, 0.0]])
        cfg = SamplerConfig(n_sweeps=1, seed=3, init_strategy="max-likelihood-path")
        rng = np.random.default_rng(3)
        x = initial_trajectory([0.5, 0.5], SYM2, ev, (0.0, 1.0), cfg, rng)
        for _ in range(200):
            x, _ = rao_teh_step(x, [0.5, 0.5], SYM2, ev, cfg, rng)
            assert trajectory_eval(x, 0.3) == 1
            assert trajectory_eval(x, 0.7) == 0

    def test_contracts_overloaded_trajectory(self):
        # 200 seeded jumps on a unit window must shrink in one sweep
        times = np.arange(1, 201) / 201.0
        states = np.array([(i % 2) for i in range(1, 201)], dtype=np.int64)
        x = Trajectory(0.0, 1.0, 0, times, states)
        cfg = SamplerConfig(n_sweeps=1, seed=4)
        rng = np.random.default_rng(4)
        new_counts = [
            rao_teh_step(x, [0.5, 0.5], SYM2, Evidence.empty(2), cfg, rng)[0].n_jumps
            for _ in range(300)
        ]
        mean = np.mean(new_counts)
        # uniform kernel flips half of E|T'| = 201 candidates
        assert mean == pytest.approx(100.5, abs=2.0)
        assert mean < 200


class TestInitialTrajectory:
    def test_prior_rejection_with_flat_evidence_is_first_draw(self):
        ev = Evidence([0.5], [[0.4, 0.4]])
        cfg = SamplerConfig(n_sweeps=1, seed=5)
        x = initial_trajectory([0.5, 0.5], SYM2, ev, (0.0, 1.0), cfg,
                               np.random.default_rng(9))
        direct = gillespie_simulate([0.5, 0.5], SYM2, (0.0, 1.0),
                                    np.random.default_rng(9))
        assert x.jumps == direct.jumps and x.s0 == direct.s0

    def test_ml_path_hits_observed_states(self):
        ev = Evidence(
            [0.5, 1.0, 1.5],
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        )
        cfg = SamplerConfig(n_sweeps=1, init_strategy="max-likelihood-path")
        x = initial_trajectory([1 / 3, 1 / 3, 1 / 3], Q3, ev, (0.0, 2.0), cfg,
                               np.random.default_rng(0))
        assert trajectory_eval(x, 0.5) == 1
        assert trajectory_eval(x, 1.0) == 2
        assert trajectory_eval(x, 1.5) == 0

    def test_rare_observation_defeats_rejection_but_not_ml_path(self):
        # state 2 reachable only through a vanishing rate
        q = validate_rate_matrix(
            [[-1.0, 1.0 - 1e-8, 1e-8], [1.0, -1.0, 0.0], [0.5, 0.5, -1.0]]
        )
        ev = Evidence([0.5], [[0.0, 0.0, 1.0]])
        rng = np.random.default_rng(6)
        cfg = SamplerConfig(n_sweeps=1, init_strategy="prior-rejection")
        with pytest.raises(InitFailed):
            initial_trajectory([1.0, 0.0, 0.0], q, ev, (0.0, 1.0), cfg, rng)
        cfg_ml = SamplerConfig(n_sweeps=1, init_strategy="max-likelihood-path")
        x = initial_trajectory([1.0, 0.0, 0.0], q, ev, (0.0, 1.0), cfg_ml, rng)
        assert trajectory_eval(x, 0.5) == 2

    def test_ml_path_respects_prior_support(self):
        ev = Evidence([0.4], [[0.0, 1.0]])
        cfg = SamplerConfig(n_sweeps=1, init_strategy="max-likelihood-path")
        x = initial_trajectory([1.0, 0.0], SYM2, ev, (0.0, 1.0), cfg,
                               np.random.default_rng(0))
        assert x.s0 == 0  # prior forbids starting in the observed state
        assert trajectory_eval(x, 0.4) == 1

    def test_no_observations(self):
        cfg = SamplerConfig(n_sweeps=1, init_strategy="max-likelihood-path")
        x = initial_trajectory([0.5, 0.5], SYM2, Evidence.empty(2), (0.0, 1.0), cfg,
                               np.random.default_rng(0))
        assert x.n_jumps == 0


class TestRunChain:
    def _run(self, seed, n_sweeps=50):
        ev = Evidence([0.8], [[0.9, 0.1]])
        cfg = SamplerConfig(n_sweeps=n_sweeps, burn_in=10, seed=seed)
        return run_chain([0.5, 0.5], SYM2, ev, (0.0, 1.5), cfg, probes=[0.4, 1.0])

    def test_seed_determinism(self):
        a = self._run(123)
        b = self._run(123)
        assert (a.n_jumps == b.n_jumps).all()
        assert (a.log_evidence == b.log_evidence).all()
        assert (a.probe_states == b.probe_states).all()

    def test_different_seeds_differ(self):
        a = self._run(123)
        b = self._run(124)
        assert (a.n_jumps != b.n_jumps).any() or (a.probe_states != b.probe_states).any()

    def test_trace_shapes_include_burn_in(self):
        trace = self._run(1, n_sweeps=40)
        assert trace.n_sweeps_total == 50
        assert trace.probe_states.shape == (50, 2)
        assert trace.probe_frequencies().shape == (2, 2)
        kept = trace.probe_states[trace.kept()]
        assert kept.shape[0] == 40

    def test_store_trajectories(self):
        ev = Evidence([0.8], [[0.9, 0.1]])
        cfg = SamplerConfig(n_sweeps=5, seed=2)
        trace = run_chain([0.5, 0.5], SYM2, ev, (0.0, 1.5), cfg,
                          store_trajectories=True)
        assert trace.trajectories is not None and len(trace.trajectories) == 5
        assert all(x.n_jumps == n for x, n in zip(trace.trajectories, trace.n_jumps))

    def test_sweeps_skip_checks_but_emit_valid_trajectories(self, monkeypatch):
        ev = Evidence([0.5, 1.0, 1.5],
                      [[0.0, 1.0, 0.2], [1.0, 0.0, 0.0], [0.3, 0.3, 0.0]])
        nu = [1 / 3, 1 / 3, 1 / 3]
        cfg = SamplerConfig(n_sweeps=200, seed=8, init_strategy="max-likelihood-path")
        x0 = initial_trajectory(nu, Q3, ev, (0.0, 2.0), cfg, np.random.default_rng(8))
        calls = {Grid: 0, Trajectory: 0}
        for cls in calls:
            def counted(self, _check=cls.__post_init__, _cls=cls):
                calls[_cls] += 1
                _check(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        trace = run_chain(nu, Q3, ev, (0.0, 2.0), cfg, x0=x0, store_trajectories=True)
        assert calls == {Grid: 0, Trajectory: 0}
        for x in trace.trajectories:
            Trajectory(x.t_min, x.t_max, x.s0, x.jump_times, x.jump_states)
            assert not x.jump_times.flags.writeable
            assert not x.jump_states.flags.writeable
            assert trajectory_log_likelihood(x, ev) > -np.inf

    def test_lambda_insensitivity_smoke(self):
        ev = Evidence([0.8], [[0.9, 0.1]])
        freqs = []
        for lf in (1.5, 3.0):
            cfg = SamplerConfig(n_sweeps=4000, burn_in=500, seed=7, lambda_factor=lf)
            trace = run_chain([0.5, 0.5], SYM2, ev, (0.0, 1.5), cfg, probes=[0.75])
            freqs.append(trace.probe_frequencies()[0])
        assert np.abs(freqs[0] - freqs[1]).max() < 0.05


def _unpad(times, states, t_max):
    """Per-chain ``(s0, jump_times, jump_states)`` of padded arrays, checking the padding."""
    out = []
    for t, s in zip(times, states):
        n = int((t < t_max).sum())
        assert (t[n:] == t_max).all() and (s[n + 1:] == s[n]).all()
        out.append((int(s[0]), t[:n], s[1:n + 1]))
    return out


class TestLockstepSweep:
    WINDOW = (0.0, 2.0)

    def _evidence(self, kind, q, x, rng, seed):
        """Evidence for one sweep from ``x``; ``on_grid`` puts observations on
        a true jump time and on the first virtual time the sweep will draw."""
        n_states = q.n_states
        lik_rng = np.random.default_rng(seed)
        if kind == "none":
            return Evidence.empty(n_states)
        if kind == "on_grid":
            lam = 2.0 * q.q_max
            virtual = sample_virtual_jumps(x, q, lam, copy.deepcopy(rng))
            times = sorted(x.jump_times[:1].tolist() + virtual[:1].tolist() + [0.0])
            return Evidence(times, lik_rng.uniform(0.1, 1.0, size=(len(times), n_states)))
        times = [0.0, 0.7, 0.7, 1.3, 2.0]
        liks = lik_rng.uniform(0.1, 1.0, size=(len(times), n_states))
        if kind == "hard":
            liks[lik_rng.random(liks.shape) < 0.5] = 0.0
            # keep the states of x, so the chain stays consistent with the evidence
            liks[np.arange(len(times)), [trajectory_eval(x, t) for t in times]] = 1.0
        return Evidence(times, liks)

    @pytest.mark.parametrize("q", [SYM2, Q3, Q20], ids=["S2", "S3", "S20"])
    @pytest.mark.parametrize("kind", ["none", "soft", "hard", "on_grid"])
    def test_one_chain_matches_rao_teh_step(self, q, kind):
        nu = np.full(q.n_states, 1.0 / q.n_states)
        cfg = SamplerConfig(n_sweeps=1)
        kernel = build_kernel(q, cfg.lambda_factor * q.q_max)
        x = seed_trajectory(q, self.WINDOW, 6)
        hits = 0
        for sweep in range(25):
            rng_a = np.random.default_rng([sweep, q.n_states])
            rng_b = np.random.default_rng([sweep, q.n_states])
            ev = self._evidence(kind, q, x, rng_a, sweep)
            hits += ev.n_obs and bool(np.isin(ev.times, x.jump_times).any())
            y, _ = rao_teh_step(x, nu, q, ev, cfg, rng_a, kernel=kernel)
            times, states = rao_teh_step_many(*pad_paths([x]), self.WINDOW, nu, q, ev,
                                              kernel, rng_b)
            [(s0, jump_times, jump_states)] = _unpad(times, states, self.WINDOW[1])
            assert times.shape == (1, y.n_jumps)
            assert s0 == y.s0
            assert jump_times.tolist() == y.jump_times.tolist()
            assert jump_states.tolist() == y.jump_states.tolist()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            x = y
        if kind == "on_grid":
            assert hits > 0

    @pytest.mark.parametrize("n", [0, 10, 40])
    def test_one_sweep_jump_count_law(self, n):
        # symmetric 2 states at lambda = 2, no evidence: the grid has n + V
        # points, V ~ Poisson((lambda - 1) T), and every skeleton step is a
        # fair coin, so the new jump count is Binomial(n + V, 1/2)
        r, horizon = 20_000, self.WINDOW[1] - self.WINDOW[0]
        x = seed_trajectory(SYM2, self.WINDOW, n)
        times, states = (np.repeat(a, r, axis=0) for a in pad_paths([x]))
        times, _ = rao_teh_step_many(times, states, self.WINDOW, [0.5, 0.5], SYM2,
                                     Evidence.empty(2), build_kernel(SYM2, 2.0),
                                     np.random.default_rng(n))
        self._assert_binomial_law((times < self.WINDOW[1]).sum(axis=1), n, horizon)

    @staticmethod
    def _assert_binomial_law(jumps, n, horizon):
        r = jumps.size
        mean, var = (n + horizon) / 2.0, (n + 2.0 * horizon) / 4.0
        assert abs(jumps.mean() - mean) <= 5.0 * np.sqrt(var / r)
        fourth = ((jumps - jumps.mean()) ** 4).mean()
        assert abs(jumps.var(ddof=1) - var) <= 5.0 * np.sqrt((fourth - var**2) / r)

    def test_uneven_batch_keeps_each_chains_law(self):
        # chains from 0 and from 40 jumps alternate in one batch; from 0 jumps
        # many grids are empty, and P(no jump) = E[2^-V] = exp(-(lambda - 1) T / 2)
        horizon = self.WINDOW[1] - self.WINDOW[0]
        paths = [seed_trajectory(SYM2, self.WINDOW, n) for n in (0, 40)] * 10_000
        times, _ = rao_teh_step_many(*pad_paths(paths), self.WINDOW, [0.5, 0.5], SYM2,
                                     Evidence.empty(2), build_kernel(SYM2, 2.0),
                                     np.random.default_rng(3))
        jumps = (times < self.WINDOW[1]).sum(axis=1)
        self._assert_binomial_law(jumps[0::2], 0, horizon)
        self._assert_binomial_law(jumps[1::2], 40, horizon)
        p0 = np.exp(-horizon / 2.0)
        assert abs((jumps[0::2] == 0).mean() - p0) <= 5.0 * np.sqrt(p0 * (1 - p0) / 10_000)

    def test_uneven_batch_of_empty_and_one_point_grids(self):
        # at lambda_factor 1.0001 virtual times are rare (rate 1e-4): a chain
        # from 0 jumps has an empty grid, one from a jump at 1.0 keeps that
        # single grid time, which neighbouring chains share exactly
        empty = Trajectory.from_pairs(*self.WINDOW, 0)
        one = Trajectory.from_pairs(*self.WINDOW, 0, [(1.0, 1)])
        times, _ = rao_teh_step_many(*pad_paths([empty, one, one] * 1000), self.WINDOW,
                                     [0.5, 0.5], SYM2, Evidence.empty(2),
                                     build_kernel(SYM2, 1.0001), np.random.default_rng(5))
        jumps = (times < self.WINDOW[1]).sum(axis=1)
        assert (jumps[0::3] == 0).mean() > 0.99
        from_one = np.concatenate((np.arange(1, 3000, 3), np.arange(2, 3000, 3)))
        assert ((jumps[from_one] == 1) & (times[from_one, 0] == 1.0)).mean() > 0.99

    def test_one_sweep_keeps_the_posterior(self):
        # chains start from exact posterior draws (prior draws accepted with
        # probability L(Y | X) / max L), so their grids are uneven; one
        # sweep must leave the probe marginals at the exact posterior
        nu = np.array([0.5, 0.3, 0.2])
        ev = Evidence([0.0, 0.5, 0.5, 1.4],
                      [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 1.0, 0.2], [0.1, 0.1, 0.8]])
        rng = np.random.default_rng(6)
        prior = [gillespie_simulate(nu, Q3, self.WINDOW, rng) for _ in range(40_000)]
        times, states = pad_paths(prior)
        chain = np.arange(len(prior))
        lik = np.ones(len(prior))
        for t, row, top in zip(ev.times, ev.liks, ev.lik_max):
            lik *= row[states[chain, (times <= t).sum(axis=1)]] / top
        accept = rng.random(len(prior)) < lik
        times, states = times[accept], states[accept]
        assert (times < self.WINDOW[1]).sum(axis=1).max() >= 6

        times, states = rao_teh_step_many(times, states, self.WINDOW, nu, Q3, ev,
                                          build_kernel(Q3, 2.0 * Q3.q_max), rng)
        probes = [0.0, 0.5, 1.0, 1.4, 2.0]
        exact = exact_posterior_marginals(nu, Q3, ev, probes, self.WINDOW)
        chain = np.arange(times.shape[0])
        for t, target in zip(probes, exact):
            freq = np.bincount(states[chain, (times <= t).sum(axis=1)], minlength=3) / chain.size
            se = np.sqrt(target * (1 - target) / chain.size)
            assert (np.abs(freq - target) <= 5.0 * se).all()

    def test_uneven_batch_with_hard_evidence_stays_valid(self):
        t_max = self.WINDOW[1]
        long = seed_trajectory(Q3, self.WINDOW, 60)
        short = Trajectory.from_pairs(*self.WINDOW, 0)
        obs = [0.0, 0.5, 0.5, 1.25, 2.0]
        liks = np.zeros((len(obs), 3))
        for x in (long, short):
            liks[np.arange(len(obs)), [trajectory_eval(x, t) for t in obs]] = 1.0
        ev = Evidence(obs, liks)
        nu = [1 / 3, 1 / 3, 1 / 3]
        times, states = pad_paths([short, long, short] * 20)
        rng = np.random.default_rng(4)
        kernel = build_kernel(Q3, 2.0 * Q3.q_max)
        for _ in range(10):
            times, states = rao_teh_step_many(times, states, self.WINDOW, nu, Q3, ev,
                                              kernel, rng)
            for s0, jump_times, jump_states in _unpad(times, states, t_max):
                x = Trajectory(*self.WINDOW, s0, jump_times, jump_states)
                assert trajectory_log_likelihood(x, ev) > -np.inf
            assert (times < t_max).sum(axis=1).min() < (times < t_max).sum(axis=1).max()
