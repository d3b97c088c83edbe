import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpsampler import io
from mjpsampler.cli import parse_and_dispatch
from mjpsampler.errors import ParseError, ValidationError
from mjpsampler.model import Evidence, Trajectory, validate_rate_matrix
from mjpsampler.raoteh import ChainTrace
from mjpsampler.oracle import exact_posterior_marginals

Q3_ROWS = [[-1.0, 0.7, 0.3], [0.4, -0.9, 0.5], [0.6, 0.4, -1.0]]


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"states": 3, "Q": Q3_ROWS, "nu": [0.5, 0.3, 0.2]}))
    return str(path)


@pytest.fixture
def emission_file(tmp_path):
    path = tmp_path / "emission.json"
    e = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
    path.write_text(json.dumps({"E": e}))
    return str(path)


@pytest.fixture
def evidence_file(tmp_path):
    path = tmp_path / "evidence.json"
    doc = {
        "t_min": 0.0,
        "t_max": 3.0,
        "obs": [
            {"t": 1.0, "lik": [0.8, 0.1, 0.1]},
            {"t": 2.0, "lik": [0.1, 0.8, 0.1]},
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulateCommand:
    def test_writes_trajectory_and_evidence(self, tmp_path, model_file, emission_file):
        prefix = str(tmp_path / "run1")
        rc = parse_and_dispatch([
            "simulate", "--model", model_file, "--emission", emission_file,
            "--obs-times", "1,2,3", "--seed", "7", "--out-prefix", prefix,
        ])
        assert rc == 0
        x = io.load_trajectory(f"{prefix}.trajectory.json")
        assert (x.t_min, x.t_max) == (0.0, 3.0)
        ev, window = io.load_evidence(f"{prefix}.evidence.json")
        assert window == (0.0, 3.0)
        assert ev.n_obs == 3

    def test_requires_t_max_without_observations(self, tmp_path, model_file, emission_file):
        rc = parse_and_dispatch([
            "simulate", "--model", model_file, "--emission", emission_file,
            "--out-prefix", str(tmp_path / "x"),
        ])
        assert rc == 1

    def test_echoes_resolved_config(self, tmp_path, model_file, emission_file, capsys):
        rc = parse_and_dispatch([
            "simulate", "--model", model_file, "--emission", emission_file,
            "--obs-times", "1", "--seed", "3", "--out-prefix", str(tmp_path / "r"),
        ])
        assert rc == 0
        config = json.loads(capsys.readouterr().out.splitlines()[0])
        assert config["command"] == "simulate"
        assert config["seed"] == 3
        assert config["t_min"] == 0.0  # defaulted field is echoed


class TestSampleCommand:
    def _sample(self, tmp_path, model_file, evidence_file, out_name, seed="7"):
        out = str(tmp_path / out_name)
        rc = parse_and_dispatch([
            "sample", "--model", model_file, "--evidence", evidence_file,
            "--sweeps", "60", "--burn-in", "10", "--probes", "1.5",
            "--seed", seed, "--out", out,
        ])
        return rc, out

    def test_trace_csv_contract(self, tmp_path, model_file, evidence_file):
        rc, out = self._sample(tmp_path, model_file, evidence_file, "trace.csv")
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "sweep,n_jumps,log_evidence,probe_0"
        assert len(lines) == 1 + 70  # burn-in rows are stored too
        assert lines[1].split(",")[0] == "1"

    def test_byte_identical_reruns(self, tmp_path, model_file, evidence_file):
        _, out1 = self._sample(tmp_path, model_file, evidence_file, "a.csv")
        _, out2 = self._sample(tmp_path, model_file, evidence_file, "b.csv")
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_seed_changes_output(self, tmp_path, model_file, evidence_file):
        _, out1 = self._sample(tmp_path, model_file, evidence_file, "a.csv", seed="1")
        _, out2 = self._sample(tmp_path, model_file, evidence_file, "b.csv", seed="2")
        assert open(out1, "rb").read() != open(out2, "rb").read()

    def test_missing_model_flag(self, tmp_path, evidence_file, capsys):
        rc = parse_and_dispatch([
            "sample", "--evidence", evidence_file, "--sweeps", "5",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert rc == 1
        assert "--model" in capsys.readouterr().err


    def test_prior_rejection_falls_back_to_ml_path(self, tmp_path, capsys):
        # 39 alternating hard observations, 0.05 apart: a prior draw would need
        # an odd jump count in every gap, which no prior draw delivers
        model = tmp_path / "sym2.json"
        model.write_text(json.dumps({"states": 2, "Q": [[-1.0, 1.0], [1.0, -1.0]]}))
        evidence = tmp_path / "alternating.json"
        obs = [{"t": k / 20, "lik": [1.0, 0.0] if k % 2 else [0.0, 1.0]}
               for k in range(1, 40)]
        evidence.write_text(json.dumps({"t_min": 0.0, "t_max": 2.0, "obs": obs}))
        outs = {}
        for init in ("prior-rejection", "ml-path"):
            outs[init] = tmp_path / f"{init}.csv"
            rc = parse_and_dispatch([
                "sample", "--model", str(model), "--evidence", str(evidence),
                "--sweeps", "20", "--probes", "0.5", "--seed", "5",
                "--init", init, "--out", str(outs[init]),
            ])
            assert rc == 0
            err = capsys.readouterr().err.splitlines()
            if init == "prior-rejection":
                assert len(err) == 1 and "max-likelihood path" in err[0]
        assert outs["prior-rejection"].read_bytes() == outs["ml-path"].read_bytes()
        trace = io.read_trace_csv(outs["prior-rejection"])
        assert (trace.probe_states[:, 0] == 1).all()  # observed state at t = 0.5


class TestOracleCommand:
    def test_matches_library(self, tmp_path, model_file, evidence_file, capsys):
        out = str(tmp_path / "marginals.json")
        rc = parse_and_dispatch([
            "oracle", "--model", model_file, "--evidence", evidence_file,
            "--probes", "0.5,1.5,2.5", "--out", out,
        ])
        assert rc == 0
        doc = json.loads(open(out).read())
        nu, q = io.load_model(model_file)
        ev, window = io.load_evidence(evidence_file)
        expected = exact_posterior_marginals(nu, q, ev, [0.5, 1.5, 2.5], window)
        assert np.allclose(doc["marginals"], expected)


class TestDiagnoseCommand:
    def test_drift_csv(self, tmp_path, model_file):
        out = str(tmp_path / "drift.csv")
        rc = parse_and_dispatch([
            "diagnose", "--mode", "drift", "--model", model_file,
            "--t-min", "0", "--t-max", "1", "--ns", "5,10",
            "--replicates", "100", "--seed", "1", "--out", out,
        ])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "n,mean_j,se"
        assert len(lines) == 3

    def test_tv_csv(self, tmp_path, model_file, evidence_file, capsys):
        out = str(tmp_path / "tv.csv")
        rc = parse_and_dispatch([
            "diagnose", "--mode", "tv", "--model", model_file,
            "--evidence", evidence_file, "--ms", "0,1,2", "--replicates", "50",
            "--probe", "1.5", "--seed", "1", "--out", out,
        ])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "m,tv"
        assert len(lines) == 4
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(summary) == {"ms", "tv", "tv_se", "n_replicates", "wall_s",
                                "chain_sweeps_per_s"}
        assert summary["ms"] == [0, 1, 2] and summary["n_replicates"] == 50
        assert [float(row.split(",")[1]) for row in lines[1:]] == summary["tv"]
        assert len(summary["tv_se"]) == 3 and summary["wall_s"] > 0
        assert summary["chain_sweeps_per_s"] == pytest.approx(50 * 2 / summary["wall_s"])

    @pytest.mark.parametrize("ms", ["1,1,2", ""])
    def test_tv_bad_ms_is_usage_error(self, tmp_path, model_file, evidence_file, ms, capsys):
        rc = parse_and_dispatch([
            "diagnose", "--mode", "tv", "--model", model_file,
            "--evidence", evidence_file, "--ms", ms, "--replicates", "50",
            "--out", str(tmp_path / "tv.csv"),
        ])
        assert rc == 1
        assert "error: ms " in capsys.readouterr().err

    def test_trace_summary_csv(self, tmp_path, model_file, evidence_file):
        trace_path = str(tmp_path / "trace.csv")
        parse_and_dispatch([
            "sample", "--model", model_file, "--evidence", evidence_file,
            "--sweeps", "80", "--probes", "1.5", "--seed", "5", "--out", trace_path,
        ])
        out = str(tmp_path / "summary.csv")
        rc = parse_and_dispatch([
            "diagnose", "--mode", "trace", "--trace", trace_path,
            "--burn-in", "10", "--out", out,
        ])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "series,mean,tau,ess,degenerate"
        assert any(row.startswith("n_jumps") for row in lines[1:])

    def test_trace_negative_burn_in_fails(self, tmp_path, model_file, evidence_file, capsys):
        trace_path = str(tmp_path / "trace.csv")
        assert parse_and_dispatch([
            "sample", "--model", model_file, "--evidence", evidence_file,
            "--sweeps", "20", "--seed", "5", "--out", trace_path,
        ]) == 0
        rc = parse_and_dispatch(["diagnose", "--mode", "trace", "--trace", trace_path,
                                 "--burn-in", "-5", "--out", str(tmp_path / "summary.csv")])
        assert rc != 0
        assert "burn_in" in capsys.readouterr().err

    def test_trace_burn_in_defaults_to_the_traces(self, tmp_path, model_file,
                                                  evidence_file, capsys):
        trace_path = str(tmp_path / "trace.csv")
        assert parse_and_dispatch([
            "sample", "--model", model_file, "--evidence", evidence_file,
            "--sweeps", "100", "--burn-in", "50", "--probes", "1.5", "--seed", "5",
            "--out", trace_path,
        ]) == 0

        def summarise(name, *flags):
            out = str(tmp_path / name)
            capsys.readouterr()
            assert parse_and_dispatch(["diagnose", "--mode", "trace", "--trace", trace_path,
                                       *flags, "--out", out]) == 0
            config = json.loads(capsys.readouterr().out.splitlines()[0])
            return config["burn_in"], open(out).read()

        default = summarise("default.csv")
        assert default == summarise("explicit.csv", "--burn-in", "50")
        assert default[0] == 50
        # an explicit 0 still counts all 150 rows, burn-in included
        burn_in, text = summarise("zero.csv", "--burn-in", "0")
        assert burn_in == 0
        n_jumps = np.loadtxt(trace_path, delimiter=",", skiprows=1, usecols=1)
        assert n_jumps.size == 150
        row = next(r for r in text.splitlines() if r.startswith("n_jumps,"))
        assert float(row.split(",")[1]) == pytest.approx(n_jumps.mean(), rel=1e-12)


class TestSeedResolution:
    def test_env_seed_used(self, tmp_path, model_file, evidence_file, monkeypatch, capsys):
        monkeypatch.setenv("MJP_SEED", "99")
        rc = parse_and_dispatch([
            "sample", "--model", model_file, "--evidence", evidence_file,
            "--sweeps", "5", "--out", str(tmp_path / "t.csv"),
        ])
        assert rc == 0
        config = json.loads(capsys.readouterr().out.splitlines()[0])
        assert config["seed"] == 99

    def test_flag_wins_over_env(self, tmp_path, model_file, evidence_file, monkeypatch, capsys):
        monkeypatch.setenv("MJP_SEED", "99")
        rc = parse_and_dispatch([
            "sample", "--model", model_file, "--evidence", evidence_file,
            "--sweeps", "5", "--seed", "7", "--out", str(tmp_path / "t.csv"),
        ])
        assert rc == 0
        config = json.loads(capsys.readouterr().out.splitlines()[0])
        assert config["seed"] == 7


class TestValidationPointers:
    def test_bad_row_sum_pointer(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"states": 2, "Q": [[-1.0, 0.9], [1.0, -1.0]]}))
        with pytest.raises(ValidationError) as exc:
            io.load_model(str(path))
        assert exc.value.pointer == "/Q/0"

    def test_all_zero_lik_pointer(self, tmp_path):
        path = tmp_path / "ev.json"
        doc = {"t_min": 0.0, "t_max": 1.0,
               "obs": [{"t": 0.5, "lik": [0.0, 0.0]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            io.load_evidence(str(path))
        assert exc.value.pointer == "/obs/0/lik"

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            io.load_model(str(path))

    def test_cli_maps_validation_to_exit_1(self, tmp_path, evidence_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": 2, "Q": [[-1.0, 0.9], [1.0, -1.0]]}))
        rc = parse_and_dispatch([
            "sample", "--model", str(bad), "--evidence", evidence_file,
            "--sweeps", "5", "--out", str(tmp_path / "t.csv"),
        ])
        assert rc == 1
        assert "/Q/0" in capsys.readouterr().err

    def test_state_count_mismatch(self, tmp_path, model_file, capsys):
        ev2 = tmp_path / "ev2.json"
        ev2.write_text(json.dumps({
            "t_min": 0.0, "t_max": 1.0,
            "obs": [{"t": 0.5, "lik": [0.5, 0.5]}],
        }))
        rc = parse_and_dispatch([
            "sample", "--model", model_file, "--evidence", str(ev2),
            "--sweeps", "5", "--out", str(tmp_path / "t.csv"),
        ])
        assert rc == 1


class TestRoundTrip:
    def test_model_round_trip(self, tmp_path):
        q = validate_rate_matrix(Q3_ROWS)
        nu = np.array([0.123456789012345, 0.5, 0.376543210987655])
        path = tmp_path / "m.json"
        io.save_model(path, q, nu=nu, labels=["a", "b", "c"])
        nu2, q2 = io.load_model(path)
        assert (nu2 == nu).all()
        assert (q2.q == q.q).all()

    def test_evidence_round_trip(self, tmp_path):
        ev = Evidence([0.1, 0.9], [[0.9, 0.1], [1 / 3, 2 / 3]], lik_max=[1.0, 0.7])
        path = tmp_path / "e.json"
        io.save_evidence(path, ev, (0.0, 1.0))
        ev2, window = io.load_evidence(path)
        assert window == (0.0, 1.0)
        assert (ev2.times == ev.times).all()
        assert (ev2.liks == ev.liks).all()
        assert (ev2.lik_max == ev.lik_max).all()

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=6, unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_trajectory_round_trip_exact_times(self, tmp_path_factory, times):
        times = sorted(times)
        states = [(i + 1) % 2 for i in range(len(times))]
        x = Trajectory(0.0, 1.0, 0, np.array(times), np.array(states, dtype=np.int64))
        path = tmp_path_factory.mktemp("rt") / "x.json"
        io.save_trajectory(path, x)
        x2 = io.load_trajectory(path)
        assert (x2.jump_times == x.jump_times).all()
        assert (x2.jump_states == x.jump_states).all()

    def test_trace_round_trip_keeps_metadata(self, tmp_path):
        # the only probe never leaves state 0 of 3: n_states cannot be guessed
        trace = ChainTrace(
            probes=np.array([1.25]),
            n_jumps=np.array([0, 2, 1], dtype=np.int64),
            log_evidence=np.array([-1.5, -0.25, -2.0]),
            probe_states=np.zeros((3, 1), dtype=np.int64),
            burn_in=1,
            n_states=3,
        )
        path = tmp_path / "trace.csv"
        io.write_trace_csv(path, trace)
        assert len(path.read_text().splitlines()) == 1 + 3
        back = io.read_trace_csv(path)
        assert back.n_states == 3
        assert back.probes.tolist() == [1.25]
        assert back.burn_in == 1
        assert (back.n_jumps == trace.n_jumps).all()
        assert (back.log_evidence == trace.log_evidence).all()
        assert (back.probe_states == trace.probe_states).all()

    def test_trace_without_sidecar_still_reads(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("sweep,n_jumps,log_evidence,probe_0\n1,3,-1.0,1\n")
        back = io.read_trace_csv(path)
        assert back.n_states == 2 and np.isnan(back.probes).all() and back.burn_in == 0
