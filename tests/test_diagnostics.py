import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from mjpsampler import diagnostics
from mjpsampler.diagnostics import (
    _find_cycle,
    estimate_drift,
    estimate_tv_decay,
    integrated_autocorrelation_time,
    seed_trajectory,
    trace_summary,
    tv_distance,
)
from mjpsampler.errors import (
    DimensionMismatch,
    SeedTrajectoryInfeasible,
    TraceTooShort,
)
from mjpsampler.model import Evidence, SamplerConfig, validate_rate_matrix
from mjpsampler.oracle import exact_posterior_marginals
from mjpsampler.raoteh import ChainTrace

SYM2 = validate_rate_matrix([[-1.0, 1.0], [1.0, -1.0]])
Q3 = validate_rate_matrix([[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]])
RING3 = validate_rate_matrix([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
# 0->1->2->3->0 and the shortcut 0->4->3: the second successor of 0 closes
# the shorter cycle
SHORTCUT5 = validate_rate_matrix([
    [-2.0, 1.0, 0.0, 0.0, 1.0],
    [0.0, -1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, -1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, -1.0],
])


class TestTvDistance:
    def test_equal_is_zero(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_formula(self):
        assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            tv_distance([0.5, 0.6], [0.5, 0.5])


@st.composite
def distributions(draw, n=4):
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return w / w.sum()


@given(distributions(), distributions(), distributions())
@settings(max_examples=200)
def test_tv_is_a_metric(p, q, r):
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
    assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
    assert 0.0 <= tv_distance(p, q) <= 1.0


class TestSeedTrajectory:
    @pytest.mark.parametrize("q", [SYM2, Q3, RING3, SHORTCUT5])
    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_jump_count_and_validity(self, q, n):
        x = seed_trajectory(q, (0.0, 2.0), n)
        assert x.n_jumps == n
        states = np.concatenate(([x.s0], x.jump_states))
        for a, b in zip(states[:-1], states[1:]):
            assert q.q[a, b] > 0  # every transition has positive rate

    def test_deterministic(self):
        a = seed_trajectory(Q3, (0.0, 1.0), 13)
        b = seed_trajectory(Q3, (0.0, 1.0), 13)
        assert a.jumps == b.jumps and a.s0 == b.s0

    def test_ring_uses_full_cycle(self):
        assert _find_cycle(RING3) == [0, 1, 2]
        assert _find_cycle(SYM2) == [0, 1]
        assert _find_cycle(SHORTCUT5) == [0, 4, 3]


class TestEstimateDrift:
    def _estimate(self, seed=0):
        cfg = SamplerConfig(n_sweeps=1, seed=seed)
        return estimate_drift(
            [0.5, 0.5], SYM2, Evidence.empty(2), cfg, (0.0, 1.0),
            ns=[10, 20, 40], replicates=150,
        )

    def test_contraction(self):
        est = self._estimate()
        for n, mean, _ in est.points:
            assert mean < n
        assert est.q_hat < 1.0
        assert (est.std_errors > 0).all()

    def test_reproducible(self):
        a = self._estimate(seed=3)
        b = self._estimate(seed=3)
        assert (a.mean_jumps == b.mean_jumps).all()
        assert a.q_hat == b.q_hat and a.ci_slope == b.ci_slope

    def test_infeasible_evidence(self):
        # the 0-jump seed stays in state 0, contradicting this observation
        ev = Evidence([0.5], [[0.0, 1.0]])
        cfg = SamplerConfig(n_sweeps=1, seed=0)
        with pytest.raises(SeedTrajectoryInfeasible):
            estimate_drift([0.5, 0.5], SYM2, ev, cfg, (0.0, 1.0),
                           ns=[0, 10], replicates=100)

    def test_input_validation(self):
        cfg = SamplerConfig(n_sweeps=1)
        with pytest.raises(ValueError):
            estimate_drift([0.5, 0.5], SYM2, Evidence.empty(2), cfg, (0.0, 1.0),
                           ns=[10], replicates=100)
        with pytest.raises(ValueError):
            estimate_drift([0.5, 0.5], SYM2, Evidence.empty(2), cfg, (0.0, 1.0),
                           ns=[10, 20], replicates=50)
        with pytest.raises(ValueError, match="^ns "):
            estimate_drift([0.5, 0.5], SYM2, Evidence.empty(2), cfg, (0.0, 1.0),
                           ns=[-5, 10], replicates=100)


class TestEstimateTvDecay:
    def _curve(self, n_replicates=1500):
        ev = Evidence([0.6], [[0.7, 0.2, 0.1]])
        cfg = SamplerConfig(n_sweeps=1, seed=11)
        x0 = seed_trajectory(Q3, (0.0, 1.5), 0)  # constant in state 0
        return estimate_tv_decay(
            [1 / 3, 1 / 3, 1 / 3], Q3, ev, cfg, x0,
            ms=[0, 1, 2, 4, 8], n_replicates=n_replicates, probe=0.75,
        )

    def test_m_zero_is_deterministic_distance(self):
        curve = self._curve(n_replicates=200)
        target = exact_posterior_marginals(
            [1 / 3, 1 / 3, 1 / 3], Q3, Evidence([0.6], [[0.7, 0.2, 0.1]]),
            [0.75], (0.0, 1.5),
        )[0]
        assert curve.tv[0] == pytest.approx(1.0 - target[0], abs=1e-12)

    def test_decays_to_noise_floor(self):
        curve = self._curve()
        assert curve.tv[-1] < 0.06
        # monotone within twice the Monte Carlo scale
        for a, b, se in zip(curve.tv[:-1], curve.tv[1:], curve.tv_se[1:]):
            assert b <= a + 2.0 * max(se, 0.02)

    def test_blocks_count_every_chain_once(self, monkeypatch):
        # three blocks of 600, 600 and 300 chains
        monkeypatch.setattr(diagnostics, "CHAIN_BLOCK", 600)
        widths = []
        step_many = diagnostics.rao_teh_step_many

        def spy(times, *args):
            widths.append(times.shape[0])
            return step_many(times, *args)

        monkeypatch.setattr(diagnostics, "rao_teh_step_many", spy)
        curve = self._curve()
        assert widths == [600] * 8 + [600] * 8 + [300] * 8
        target = exact_posterior_marginals(
            [1 / 3, 1 / 3, 1 / 3], Q3, Evidence([0.6], [[0.7, 0.2, 0.1]]),
            [0.75], (0.0, 1.5),
        )[0]
        assert curve.tv[0] == pytest.approx(1.0 - target[0], abs=1e-12)
        assert curve.tv[-1] < 0.06

    @pytest.mark.parametrize("ms, n_replicates, name", [
        ([1, 1, 2], 10, "ms"),
        ([], 10, "ms"),
        ([-1, 2], 10, "ms"),
        ([1, 2], 0, "n_replicates"),
    ])
    def test_bad_arguments_are_named(self, ms, n_replicates, name):
        cfg = SamplerConfig(n_sweeps=1)
        x0 = seed_trajectory(Q3, (0.0, 1.5), 0)
        with pytest.raises(ValueError, match=f"^{name} "):
            estimate_tv_decay([1 / 3, 1 / 3, 1 / 3], Q3, Evidence.empty(3), cfg, x0,
                              ms=ms, n_replicates=n_replicates, probe=0.75)


@pytest.mark.parametrize("estimate", [
    lambda cfg: estimate_drift([0.5, 0.5], SYM2, Evidence.empty(2), cfg, (0.0, 1.0),
                               ns=[10, 20], replicates=100, n_jobs=2),
    lambda cfg: estimate_tv_decay([0.5, 0.5], SYM2, Evidence.empty(2), cfg,
                                  seed_trajectory(SYM2, (0.0, 1.0), 0), ms=[0, 1],
                                  n_replicates=10, probe=0.5, n_jobs=2),
], ids=["drift", "tv"])
def test_more_than_one_job_is_refused(estimate):
    with pytest.raises(ValueError, match="^n_jobs "):
        estimate(SamplerConfig(n_sweeps=1))


class TestIntegratedAutocorrelationTime:
    def test_iid_is_one(self):
        x = np.random.default_rng(0).normal(size=100_000)
        assert integrated_autocorrelation_time(x) == pytest.approx(1.0, abs=0.1)

    def test_ar1_closed_form(self):
        # AR(1) with coefficient 0.5 has tau = (1 + 0.5) / (1 - 0.5) = 3
        rng = np.random.default_rng(1)
        eps = rng.normal(size=200_000)
        x = signal.lfilter([1.0], [1.0, -0.5], eps)
        assert integrated_autocorrelation_time(x) == pytest.approx(3.0, rel=0.1)

    def test_constant_series_diverges(self):
        assert integrated_autocorrelation_time(np.ones(100)) == np.inf


def _toy_trace(probe_states, n_jumps=None):
    n = probe_states.shape[0]
    return ChainTrace(
        probes=np.array([0.5]),
        n_jumps=n_jumps if n_jumps is not None else np.ones(n, dtype=np.int64),
        log_evidence=np.zeros(n),
        probe_states=probe_states,
        burn_in=0,
        n_states=2,
    )


class TestTraceSummary:
    def test_iid_trace(self):
        rng = np.random.default_rng(2)
        states = rng.integers(0, 2, size=(20_000, 1))
        summary = trace_summary(_toy_trace(states), burn_in=100)
        s = summary.series["probe_0"]
        assert s.tau == pytest.approx(1.0, abs=0.15)
        assert s.ess == pytest.approx(summary.n_kept, rel=0.15)
        assert not s.degenerate

    def test_constant_trace_flagged(self):
        states = np.zeros((500, 1), dtype=np.int64)
        summary = trace_summary(_toy_trace(states), burn_in=0)
        s = summary.series["probe_0"]
        assert s.degenerate and s.ess == 0.0 and np.isinf(s.tau)

    def test_burn_in_too_large(self):
        states = np.zeros((10, 1), dtype=np.int64)
        with pytest.raises(TraceTooShort):
            trace_summary(_toy_trace(states), burn_in=10)

    def test_negative_burn_in_rejected(self):
        states = np.zeros((10, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="burn_in"):
            trace_summary(_toy_trace(states), burn_in=-5)

    def test_jump_histogram(self):
        states = np.zeros((6, 1), dtype=np.int64)
        n_jumps = np.array([0, 1, 1, 2, 2, 2], dtype=np.int64)
        summary = trace_summary(_toy_trace(states, n_jumps), burn_in=0)
        assert summary.jump_histogram.tolist() == [1, 2, 3]
