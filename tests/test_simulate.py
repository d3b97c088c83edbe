import numpy as np
import pytest
from scipy import stats

from mjpsampler.errors import LambdaTooSmall
from mjpsampler.ffbs import build_kernel
from mjpsampler.model import Trajectory, validate_rate_matrix
from mjpsampler.simulate import (
    EmissionModel,
    generate_observations,
    gillespie_simulate,
    uniformized_simulate,
)

SYM2 = [[-1.0, 1.0], [1.0, -1.0]]
Q3 = [[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]]


def _endpoint_counts(simulate, n_runs, n_states, rng):
    counts = np.zeros(n_states, dtype=np.int64)
    for _ in range(n_runs):
        x = simulate(rng)
        s = x.s0 if x.n_jumps == 0 else int(x.jump_states[-1])
        counts[s] += 1
    return counts


def test_gillespie_mean_jump_count():
    # symmetric chain: leaving rate 1 everywhere, so E|jumps| = window length
    q = validate_rate_matrix(SYM2)
    rng = np.random.default_rng(42)
    total = sum(
        gillespie_simulate([0.5, 0.5], q, (0.0, 10.0), rng).n_jumps
        for _ in range(100_000)
    )
    assert total / 100_000 == pytest.approx(10.0, abs=0.1)


def test_gillespie_point_mass_start():
    q = validate_rate_matrix(Q3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert gillespie_simulate([0.0, 1.0, 0.0], q, (0.0, 1.0), rng).s0 == 1


def test_gillespie_zero_length_window_rejected():
    q = validate_rate_matrix(SYM2)
    with pytest.raises(ValueError):
        gillespie_simulate([0.5, 0.5], q, (0.0, 0.0), np.random.default_rng(0))


def test_gillespie_holding_times_exponential():
    # Completed later holds are length-biased by the window cutoff, so test
    # the first hold of each run; censoring it has probability exp(-16).
    q = validate_rate_matrix([[-2.0, 2.0], [0.5, -0.5]])
    rng = np.random.default_rng(7)
    holds: list[float] = []
    for _ in range(3000):
        x = gillespie_simulate([1.0, 0.0], q, (0.0, 8.0), rng)
        if x.n_jumps:
            holds.append(x.jump_times[0] - x.t_min)
    res = stats.kstest(holds, stats.expon(scale=1.0 / 2.0).cdf)
    assert res.pvalue > 0.001


def test_uniformized_two_state_marginal():
    q = validate_rate_matrix(SYM2)
    rng = np.random.default_rng(3)
    n = 40_000
    counts = _endpoint_counts(
        lambda r: uniformized_simulate([1.0, 0.0], q, 2.0, (0.0, 1.0), r), n, 2, rng
    )
    exact = (1.0 + np.exp(-2.0)) / 2.0
    assert counts[0] / n == pytest.approx(exact, abs=0.01)


def test_uniformized_requires_lambda_above_qmax():
    q = validate_rate_matrix(SYM2)
    with pytest.raises(LambdaTooSmall):
        uniformized_simulate([0.5, 0.5], q, 1.0, (0.0, 1.0), np.random.default_rng(0))


@pytest.mark.parametrize("window", [(0.0, 0.05), (0.0, 1.5), (2.0, 60.0)])
def test_uniformized_draws_pass_the_trajectory_checks(window):
    # the simulator builds its output without the public constructor's checks
    q = validate_rate_matrix(Q3)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = uniformized_simulate([0.2, 0.5, 0.3], q, 2.0 * q.q_max, window, rng)
        checked = Trajectory(x.t_min, x.t_max, x.s0, x.jump_times, x.jump_states)
        assert checked.jumps == x.jumps and (x.t_min, x.t_max) == window
        assert not x.jump_times.flags.writeable and not x.jump_states.flags.writeable


def test_kernel_limit_every_candidate_is_a_transition():
    # lambda barely above q_max: diagonal mass vanishes, off-diagonals -> q/q_max
    q = validate_rate_matrix(SYM2)
    lam = q.q_max * (1.0 + 1e-12)
    kernel = build_kernel(q, lam)
    assert np.diag(kernel.p) == pytest.approx([0.0, 0.0], abs=1e-9)
    assert kernel.p[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_simulators_agree_on_endpoint_law():
    q = validate_rate_matrix(Q3)
    nu = [0.2, 0.5, 0.3]
    rng = np.random.default_rng(11)
    n = 20_000
    cg = _endpoint_counts(lambda r: gillespie_simulate(nu, q, (0.0, 1.5), r), n, 3, rng)
    cu = _endpoint_counts(
        lambda r: uniformized_simulate(nu, q, 2.0 * q.q_max, (0.0, 1.5), r), n, 3, rng
    )
    res = stats.chi2_contingency(np.vstack([cg, cu]))
    assert res.pvalue > 0.001


def test_uniformized_law_invariant_in_lambda():
    q = validate_rate_matrix(Q3)
    nu = [0.2, 0.5, 0.3]
    rng = np.random.default_rng(13)
    n = 20_000
    c15 = _endpoint_counts(
        lambda r: uniformized_simulate(nu, q, 1.5 * q.q_max, (0.0, 1.5), r), n, 3, rng
    )
    c30 = _endpoint_counts(
        lambda r: uniformized_simulate(nu, q, 3.0 * q.q_max, (0.0, 1.5), r), n, 3, rng
    )
    res = stats.chi2_contingency(np.vstack([c15, c30]))
    assert res.pvalue > 0.001


class TestEmissionModel:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            EmissionModel(np.array([[0.9, 0.2], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            EmissionModel(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_identity_emission_gives_indicators(self):
        em = EmissionModel(np.eye(2))
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 1)])
        ev = generate_observations(x, [0.5, 1.5], em, np.random.default_rng(0))
        assert ev.liks[0].tolist() == [1.0, 0.0]
        assert ev.liks[1].tolist() == [0.0, 1.0]

    def test_uniform_emission_gives_flat_likelihoods(self):
        em = EmissionModel(np.full((2, 4), 0.25))
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 1)])
        ev = generate_observations(x, [0.5, 1.5], em, np.random.default_rng(0))
        assert np.allclose(ev.liks, 0.25)

    def test_symbol_frequencies(self):
        # constant trajectory in state 0 observed through a 0.9/0.1 channel
        em = EmissionModel(np.array([[0.9, 0.1], [0.1, 0.9]]))
        x = Trajectory.from_pairs(0.0, 1.0, 0)
        rng = np.random.default_rng(5)
        hits = 0
        n_rep = 10_000
        for _ in range(n_rep):
            ev = generate_observations(x, [0.2, 0.5, 0.8], em, rng)
            hits += int((ev.liks[:, 0] == 0.9).sum())
        assert hits / (3 * n_rep) == pytest.approx(0.9, abs=0.01)

    def test_times_must_be_nondecreasing(self):
        em = EmissionModel(np.eye(2))
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 1)])
        with pytest.raises(ValueError):
            generate_observations(x, [1.5, 0.5], em, np.random.default_rng(0))
