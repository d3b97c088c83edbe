"""Tests of the benchmark's own reference code and input generator.

    python3 -m pytest perfbench -q
"""

import numpy as np
import pytest
from scipy.signal import lfilter

import reference
import workloads

SYM2 = [[-1.0, 1.0], [1.0, -1.0]]


def test_forward_backward_matches_the_closed_form_two_state_marginal():
    ts = [0.1, 0.5, 1.0, 2.5]
    post = reference.posterior_marginals([1.0, 0.0], SYM2, [], [], ts, 0.0)
    assert np.allclose(post[:, 0], (1.0 + np.exp(-2.0 * np.array(ts))) / 2.0, atol=1e-12)


def test_forward_backward_conditions_on_an_observation():
    # stationary start, one observation at t = 1 with likelihood (0.9, 0.1)
    p = (1.0 + np.exp(-2.0)) / 2.0  # P(X(1) = X(0))
    post = reference.posterior_marginals([0.5, 0.5], SYM2, [1.0], [[0.9, 0.1]], [0.0, 1.0], 0.0)
    at_zero = 0.9 * p + 0.1 * (1.0 - p)
    assert post[0, 0] == pytest.approx(at_zero / (at_zero + 0.9 * (1 - p) + 0.1 * p), abs=1e-12)
    assert post[1, 0] == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("phi", [0.5, 0.8])
def test_ips_recovers_the_ar1_autocorrelation_time(phi):
    n = 1 << 20
    x = lfilter([1.0], [1.0, -phi], np.random.default_rng(7).standard_normal(n))
    tau = (1.0 + phi) / (1.0 - phi)
    assert reference.ips_time(reference.autocorrelation(x)) == pytest.approx(tau, rel=0.05)
    assert reference.effective_sample_size(x) == pytest.approx(n / tau, rel=0.05)


def test_ess_of_a_constant_series_is_zero():
    assert reference.effective_sample_size(np.ones(100)) == 0.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_gives_identical_bytes_for_one_data_seed(name, tmp_path):
    first = workloads.write_inputs(workloads.make_inputs(name), tmp_path / "a")
    second = workloads.write_inputs(workloads.make_inputs(name), tmp_path / "b")
    assert first.keys() == second.keys()
    for file_name in first:
        assert first[file_name].read_bytes() == second[file_name].read_bytes()


def test_generator_depends_on_the_data_seed():
    for name in ("long_window", "dense_states"):
        assert workloads.make_inputs(name, 1) != workloads.make_inputs(name, 2)


def test_dense_evidence_has_hard_zeros_that_the_hidden_path_satisfies():
    docs = workloads.make_inputs("dense_states")
    liks = np.array([o["lik"] for o in docs["evidence.json"]["obs"]])
    assert liks.shape == (workloads.DENSE_OBS, workloads.DENSE_STATES)
    assert ((liks > 0).sum(axis=1)[::2] == workloads.HARD_SET).all()
    assert (liks > 0).all(axis=1)[1::2].all()
