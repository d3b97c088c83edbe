import numpy as np
import pytest
import scipy.linalg

from mjpsampler.errors import InitFailed, LambdaTooSmall
from mjpsampler.model import (
    Evidence,
    Grid,
    SamplerConfig,
    Trajectory,
    trajectory_eval,
    trajectory_log_likelihood,
    validate_rate_matrix,
)
from mjpsampler.raoteh import (
    _merge_candidate_times,
    initial_trajectory,
    rao_teh_step,
    run_chain,
    sample_virtual_jumps,
)
from mjpsampler.simulate import gillespie_simulate

SYM2 = validate_rate_matrix([[-1.0, 1.0], [1.0, -1.0]])
ASYM2 = validate_rate_matrix([[-1.0, 1.0], [2.0, -2.0]])
Q3 = validate_rate_matrix([[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]])


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
