"""scripts/bench_pairs.py on synthetic result lines, with no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"sweeps_per_s": "higher"}


def result(value, correct=True, failed=0, names=tuple(METRICS)):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""} for name in names}}


def run(side, pair, value, **flags):
    return {"side": side, "workload": "w", "seed": 100 + pair, "pair": pair,
            "result": result(value, **flags)}


@pytest.mark.parametrize("flags, expected", [
    ({}, False),
    ({"correct": False}, True),
    ({"failed": 1}, True),
])
def test_failed_reads_both_fields(flags, expected):
    assert bench_pairs.failed(result(1.0, **flags)) is expected


def test_summary_leaves_out_failed_runs():
    runs = [run("parent", p, v) for p, v in ((1, 10.0), (2, 12.0), (3, 14.0))]
    runs += [run("change", 1, 20.0), run("change", 2, 22.0),
             run("change", 3, 1e6, correct=False)]
    line = bench_pairs.summary(runs, METRICS)
    # the change's median is over pairs 1 and 2 only, and pair 3 counts for neither
    assert "21 [20.5, 21.5]" in line
    assert "12 [11, 13]" in line
    assert "2/2 better" in line


def test_summary_skips_a_side_with_fewer_than_two_good_runs():
    runs = [run("parent", 1, 10.0), run("parent", 2, 12.0),
            run("change", 1, 20.0), run("change", 2, 22.0, failed=3)]
    assert bench_pairs.summary(runs, METRICS) == ""


def test_main_writes_the_file_then_exits_1_on_a_failed_run(tmp_path, monkeypatch, capsys):
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]

    def fake_run(tree, command, workload, seed, seconds, trace):
        bad = tree == bench_pairs.ROOT and workload == "replicates" and seed == 7
        return result(float(seed), correct=not bad, names=names)

    monkeypatch.setattr(bench_pairs, "export_tree", lambda rev, dest: "abc1234")
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    rc = bench_pairs.main(["--out", str(out), "--pairs", "2", "--first-seed", "7",
                           "--traced-seed", "9", "--description", "d", "--machine", "m",
                           "--workdir", str(tmp_path)])
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["parent"] == "abc1234"
    assert sum(bench_pairs.failed(r["result"]) for r in doc["runs"]) == 1
    err = capsys.readouterr().err
    assert "failed run: replicates change seed 7" in err
