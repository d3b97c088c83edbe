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


def test_pair_ratios_are_taken_within_each_pair():
    # the sides overlap, yet the change is 10% above its own pair's parent in
    # three pairs and 20% below in one
    parent = {1: 10.0, 2: 40.0, 3: 20.0, 4: 30.0}
    ratio = {1: 1.1, 2: 1.1, 3: 0.8, 4: 1.1}
    runs = [run("parent", p, v) for p, v in parent.items()]
    runs += [run("change", p, parent[p] * ratio[p]) for p in parent]
    [row] = bench_pairs.compare(runs, METRICS)
    assert (row["workload"], row["metric"], row["pairs"], row["wins"]) == \
        ("w", "sweeps_per_s", 4, 3)
    assert row["parent"] == pytest.approx({"q1": 17.5, "median": 25.0, "q3": 32.5})
    assert row["ratio"]["median"] == pytest.approx(1.1)
    assert row["ratio"]["q1"] == pytest.approx(1.025)
    assert row["ratio"]["q3"] == pytest.approx(1.1)
    assert row["ratio"]["above_1"] == 3
    assert "pair ratio x1.100 [1.025, 1.100], 3/4 above 1" in \
        bench_pairs.summary(runs, METRICS)


def test_pair_ratios_leave_out_a_pair_with_a_failed_run():
    runs = [run("parent", p, 10.0) for p in (1, 2, 3)]
    runs += [run("change", 1, 5.0), run("change", 2, 15.0),
             run("change", 3, 1e6, failed=1)]
    [row] = bench_pairs.compare(runs, METRICS)
    assert row["pairs"] == 2 and row["ratio"]["above_1"] == 1
    assert row["ratio"]["median"] == pytest.approx(1.0)


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
    # the file holds the printed table's numbers, pair ratios included; the
    # replicates change side keeps one good run, too few for quartiles
    rows = {(row["workload"], row["metric"]): row for row in doc["summary"]}
    assert set(rows) == {(w["name"], n) for w in bench["workloads"] for n in names
                         if w["name"] != "replicates"}
    assert all(row["ratio"] == {"q1": 1.0, "median": 1.0, "q3": 1.0, "above_1": 0}
               for row in rows.values())
    err = capsys.readouterr().err
    assert "failed run: replicates change seed 7" in err
