import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpsampler.errors import (
    BadRowSum,
    NegativeOffDiagonal,
    NotIrreducible,
    TimeOutOfWindow,
)
from mjpsampler.ffbs import build_kernel
from mjpsampler.model import (
    Evidence,
    SamplerConfig,
    Trajectory,
    UniformizedKernel,
    collapse_grid,
    trajectory_eval,
    trajectory_eval_many,
    trajectory_log_likelihood,
    validate_rate_matrix,
)


def test_validate_symmetric_two_state():
    q = validate_rate_matrix([[-1, 1], [1, -1]])
    assert q.q_max == 1.0
    assert np.allclose(q.leave, [1.0, 1.0])


def test_validate_absorbing_state_rejected():
    with pytest.raises(NotIrreducible):
        validate_rate_matrix([[-1, 1], [0, 0]])


def test_validate_bad_row_sum():
    with pytest.raises(BadRowSum) as exc:
        validate_rate_matrix([[-1, 0.5], [1, -1]])
    assert exc.value.row == 0


def test_validate_negative_off_diagonal():
    with pytest.raises(NegativeOffDiagonal):
        validate_rate_matrix([[1, -1], [1, -1]])


def test_validate_rejects_non_square_and_small():
    with pytest.raises(ValueError):
        validate_rate_matrix([[-1, 1]])
    with pytest.raises(ValueError):
        validate_rate_matrix([[0.0]])


def test_diagonal_is_recomputed_exactly():
    q = validate_rate_matrix([[-0.3, 0.1, 0.2], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]])
    assert (np.diag(q.q) == -q.leave).all()


class TestTrajectory:
    def test_eval_basic(self):
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 1)])
        assert trajectory_eval(x, 0.5) == 0
        assert trajectory_eval(x, 1.0) == 1  # right continuity at the jump
        assert trajectory_eval(x, 2.0) == 1

    def test_eval_out_of_window(self):
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 1)])
        with pytest.raises(TimeOutOfWindow):
            trajectory_eval(x, -0.1)
        with pytest.raises(TimeOutOfWindow):
            trajectory_eval(x, 2.1)

    def test_zero_length_window_rejected(self):
        with pytest.raises(ValueError):
            Trajectory.from_pairs(1.0, 1.0, 0)

    def test_jump_at_boundary_rejected(self):
        with pytest.raises(ValueError):
            Trajectory.from_pairs(0.0, 2.0, 0, [(0.0, 1)])
        with pytest.raises(ValueError):
            Trajectory.from_pairs(0.0, 2.0, 0, [(2.0, 1)])

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 1), (1.0, 0)])
        with pytest.raises(ValueError):
            Trajectory.from_pairs(0.0, 2.0, 0, [(1.5, 1), (1.0, 0)])

    def test_repeated_state_rejected(self):
        with pytest.raises(ValueError):
            Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 0)])
        with pytest.raises(ValueError):
            Trajectory.from_pairs(0.0, 2.0, 0, [(0.5, 1), (1.0, 1)])

    def test_arrays_frozen(self):
        x = Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 1)])
        with pytest.raises(ValueError):
            x.jump_times[0] = 0.5


class TestGridCollapse:
    def test_virtual_jump_dropped(self):
        x = collapse_grid(0.0, 3.0, np.array([1.0, 2.0]), np.array([0, 0, 1]))
        assert x.s0 == 0
        assert x.jumps == [(2.0, 1)]

    def test_all_virtual(self):
        x = collapse_grid(0.0, 3.0, np.array([1.0]), np.array([0, 0]))
        assert x.n_jumps == 0

    def test_mixed(self):
        x = collapse_grid(0.0, 4.0, np.array([1.0, 2.0, 3.0]), np.array([0, 1, 1, 0]))
        assert x.jumps == [(1.0, 1), (3.0, 0)]


@st.composite
def grids(draw):
    """``(times, states)`` of a valid grid on [0, 1]."""
    n = draw(st.integers(min_value=0, max_value=8))
    times = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=n, max_size=n, unique=True,
        )
    )
    states = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
    return np.sort(np.array(times, dtype=float)), np.array(states, dtype=np.int64)


@given(grids())
@settings(max_examples=200)
def test_collapse_preserves_path(grid):
    times, states = grid
    x = collapse_grid(0.0, 1.0, times, states)
    ts = np.random.default_rng(0).uniform(0.0, 1.0, size=1000)
    # independent grid evaluation: state after the last grid time <= t
    expected = states[np.searchsorted(times, ts, side="right")]
    assert (trajectory_eval_many(x, ts) == expected).all()
    assert x.n_jumps <= times.size
    # the unchecked result equals what the validating constructor builds
    changed = states[1:] != states[:-1]
    checked = Trajectory(0.0, 1.0, int(states[0]), times[changed], states[1:][changed])
    assert (x.t_min, x.t_max, x.s0) == (checked.t_min, checked.t_max, checked.s0)
    assert x.jump_times.tolist() == checked.jump_times.tolist()
    assert x.jump_states.tolist() == checked.jump_states.tolist()
    assert x.jump_times.dtype == np.float64 and x.jump_states.dtype == np.int64
    assert not x.jump_times.flags.writeable and not x.jump_states.flags.writeable


@st.composite
def rate_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    entries = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=5.0),
            min_size=n * n, max_size=n * n,
        )
    )
    q = np.array(entries).reshape(n, n)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return validate_rate_matrix(q)


@given(rate_matrices(), st.floats(min_value=1.01, max_value=100.0))
@settings(max_examples=100)
def test_kernel_diagonal_lower_bound(q, factor):
    lam = factor * q.q_max
    kernel = build_kernel(q, lam)
    assert (np.diag(kernel.p) >= 1.0 - q.q_max / lam - 1e-12).all()
    assert np.allclose(kernel.p.sum(axis=1), 1.0, atol=1e-12)
    # built without the public constructor's checks, yet it passes every one,
    # also at the smallest rate above q_max
    for k in (kernel, build_kernel(q, np.nextafter(q.q_max, np.inf))):
        checked = UniformizedKernel(p=k.p, lam=k.lam)
        assert (checked.p == k.p).all() and checked.lam == k.lam
        assert not k.p.flags.writeable


class TestEvidence:
    def test_basic(self):
        ev = Evidence([0.5, 1.0], [[0.9, 0.1], [0.1, 0.9]])
        assert ev.n_obs == 2
        assert np.allclose(ev.lik_max, [0.9, 0.9])

    def test_coincident_times_allowed(self):
        ev = Evidence([1.0, 1.0], [[1.0, 0.0], [0.5, 0.5]])
        assert ev.n_obs == 2

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            Evidence([1.0, 0.5], [[1.0, 0.0], [0.5, 0.5]])

    def test_all_zero_lik_rejected(self):
        with pytest.raises(ValueError):
            Evidence([1.0], [[0.0, 0.0]])

    def test_lik_max_below_max_rejected(self):
        with pytest.raises(ValueError):
            Evidence([1.0], [[0.9, 0.1]], lik_max=[0.5])

    @pytest.mark.parametrize("lik_max", [np.nan, np.inf])
    def test_non_finite_lik_max_rejected(self, lik_max):
        with pytest.raises(ValueError, match="finite"):
            Evidence([1.0], [[0.9, 0.1]], lik_max=[lik_max])

    def test_empty(self):
        ev = Evidence.empty(3)
        assert ev.n_obs == 0
        assert ev.n_states == 3


def test_trajectory_log_likelihood():
    x = Trajectory.from_pairs(0.0, 2.0, 0, [(1.0, 1)])
    ev = Evidence([0.5, 1.5], [[0.9, 0.1], [0.2, 0.8]])
    assert trajectory_log_likelihood(x, ev) == pytest.approx(np.log(0.9) + np.log(0.8))
    hard = Evidence([0.5], [[0.0, 1.0]])
    assert trajectory_log_likelihood(x, hard) == -np.inf


class TestSamplerConfig:
    def test_lambda_factor_strictly_above_one(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_sweeps=1, lambda_factor=1.0)
        SamplerConfig(n_sweeps=1, lambda_factor=1.0001)

    def test_bad_values(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_sweeps=0)
        with pytest.raises(ValueError):
            SamplerConfig(n_sweeps=1, burn_in=-1)
        with pytest.raises(ValueError):
            SamplerConfig(n_sweeps=1, seed=2**64)
        with pytest.raises(ValueError):
            SamplerConfig(n_sweeps=1, init_strategy="bogus")
