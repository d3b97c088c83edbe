"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_8.json \\
        --first-seed 1001 --traced-seed 1101 --description "..." --machine "..."

Exports the parent commit with ``git archive`` into a temporary directory and
runs the benchmark command of ``BENCHMARK.json`` there and in this checkout
(the change, as its files stand): for every workload, ``--pairs`` pairs of
untraced runs of the benchmark's ``run_seconds`` with sampler seeds
``first-seed, first-seed + 1, ...``, odd pairs running the parent first and
even pairs the change first; then one ``TRACED_SECONDS`` run with
``--trace 1`` per side and workload. Each run's JSON result line
is kept as printed. The output file has the fields of ``BENCH_7.json`` plus a
``summary``: per workload and metric, the medians, quartiles and pair wins of
each side, and the change/parent ratio within each pair (median, quartiles
and the pairs above 1). The same table is printed to stdout. Runs whose
checks failed are left out of it and listed on stderr, and the script then
exits 1, after writing the file.

``--parent HEAD`` on a clean checkout is the A/A run: the same revision on
both sides, so its pair ratios measure the bias between an exported tree and
the checkout, and the noise of the host.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_SECONDS = 10.0


def export_tree(rev: str, dest: Path) -> str:
    """Extract the files of commit ``rev`` into ``dest``; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return short


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run in ``tree``; returns its parsed result line."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def spread(values) -> dict[str, float]:
    """Median and quartiles of ``values``, by name."""
    return dict(zip(("q1", "median", "q3"), quartiles(list(values))))


def failed(result: dict) -> bool:
    """Whether a run's result line reports a failed check or failed operations."""
    return not result["correct"] or result["failed"] > 0


def compare(runs: list[dict], metrics: dict[str, str]) -> list[dict]:
    """Per workload and metric: parent and change median [quartiles], the
    pairs the change won (ties count for neither) and the change/parent ratio
    within each pair, as median [quartiles] and the pairs above 1. Failed runs
    are left out, and a pair with a failed run counts for neither side."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for name, better in metrics.items():
            sides = {side: {r["pair"]: r["result"]["metrics"][name]["value"] for r in runs
                            if r["workload"] == workload and r["side"] == side
                            and not failed(r["result"])}
                     for side in ("parent", "change")}
            pairs = sorted(sides["parent"].keys() & sides["change"].keys())
            if len(pairs) < 2 or min(len(v) for v in sides.values()) < 2:
                continue  # quartiles need two runs a side and two pairs
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (sides["change"][p] - sides["parent"][p]) > 0 for p in pairs)
            ratios = [sides["change"][p] / sides["parent"][p] for p in pairs]
            rows.append({"workload": workload, "metric": name, "better": better,
                         "parent": spread(sides["parent"].values()),
                         "change": spread(sides["change"].values()),
                         "pairs": len(pairs), "wins": wins,
                         "ratio": {**spread(ratios),
                                   "above_1": sum(r > 1.0 for r in ratios)}})
    return rows


def summary(runs: list[dict], metrics: dict[str, str]) -> str:
    """The rows of :func:`compare`, one line each."""
    lines = []
    for row in compare(runs, metrics):
        p, c, r = row["parent"], row["change"], row["ratio"]
        lines.append(f"{row['workload']:13s} {row['metric']:12s} "
                     f"{p['median']:10.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                     f"{c['median']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                     f"x{c['median'] / p['median']:.3f}  {row['wins']}/{row['pairs']} better; gap "
                     f"{abs(c['median'] - p['median']):.4g}, parent spread "
                     f"{p['q3'] - p['q1']:.4g}; pair ratio x{r['median']:.3f} "
                     f"[{r['q1']:.3f}, {r['q3']:.3f}], {r['above_1']}/{row['pairs']} above 1")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_8.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="sampler seed of the first pair; pair k uses first-seed + k - 1")
    parser.add_argument("--traced-seed", type=int, required=True)
    parser.add_argument("--description", required=True)
    parser.add_argument("--machine", required=True, help="hardware and software of the runs")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the parent tree is exported")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        parent_tree = Path(tmp)
        parent = export_tree(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs, traced = [], []
        for workload in (w["name"] for w in bench["workloads"]):
            for pair in range(1, args.pairs + 1):
                seed = args.first_seed + pair - 1
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], command, workload, seed, seconds, 0)
                    runs.append({"side": side, "workload": workload, "seed": seed,
                                 "pair": pair, "result": result})
                    print(f"{workload} pair {pair} {side}: "
                          f"{ {k: round(v['value'], 4) for k, v in result['metrics'].items()} }",
                          file=sys.stderr, flush=True)
            for side in ("parent", "change"):
                result = run_once(trees[side], command, workload, args.traced_seed,
                                  TRACED_SECONDS, 1)
                traced.append({"side": side, "workload": workload, "seed": args.traced_seed,
                               "result": result})

    shell = " ".join(command)
    doc = {
        "description": args.description,
        "parent": parent,
        "command": f"{shell} --workload <w> --seed <seed> --seconds {seconds:g} --trace 0",
        "traced_command": (f"{shell} --workload <w> --seed {args.traced_seed} "
                           f"--seconds {TRACED_SECONDS:g} --trace 1"),
        "machine": args.machine,
        "order": "odd pairs run the parent first, even pairs the change first",
        "runs": runs,
        "traced_runs": traced,
        "summary": compare(runs, metrics),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    bad = [r for r in runs + traced if failed(r["result"])]
    for r in bad:
        print(f"failed run: {r['workload']} {r['side']} seed {r['seed']}: "
              f"correct {r['result']['correct']}, {r['result']['failed']} failed",
              file=sys.stderr)
    print(summary(runs, metrics))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
