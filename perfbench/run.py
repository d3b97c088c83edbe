"""Sampler benchmark: one workload, in one process with one thread.

    python3 perfbench/run.py --workload short_window --seed 1 --seconds 25 --trace 0

Runs whole rounds of public library calls for about ``--seconds`` seconds,
checks the outputs against the reference code in ``reference.py``, and
prints one JSON result line last. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every other round runs with the program's
step functions wrapped in timers and the metrics are the per-layer ones.
See README.md for the workloads and the meaning of each metric.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started, to one clock tick; 0 without /proc."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    except (OSError, IndexError, ValueError):
        return 0.0
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


_AGE_AT_START = _process_age()
_CLOCK_AT_START = time.perf_counter()

# One BLAS thread; must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Recorder, patched  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 2
Z = 5.0  # checks allow this many standard errors
TV_FLOOR_MULTIPLE = 3.0
LAMBDA_FACTOR = 2.0  # SamplerConfig's default

END_TO_END_UNITS = {"sweeps_per_s": "sweeps/s", "ess_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _size(args, out):
    return len(out), -1


def _grid(args, out):
    return len(out), args[0].n_jumps  # grid size, true jumps merged into it


# module attribute -> (span name, measure) for the traced rounds
RAOTEH_TARGETS = {
    "rao_teh_step": ("raoteh.step", None),
    "sample_virtual_jumps": ("raoteh.virtual", _size),
    "_merge_candidate_times": ("raoteh.merge", _grid),
    "attach_emissions": ("ffbs.attach", None),
    "forward_filter": ("ffbs.forward", None),
    "backward_sample": ("ffbs.backward", None),
    "collapse_grid": ("model.collapse", None),
    "build_kernel": ("ffbs.build_kernel", None),
}
DIAGNOSTICS_TARGETS = {
    "rao_teh_step": ("raoteh.step", None),
    "exact_posterior_marginals": ("oracle.marginals", None),
    "build_kernel": ("ffbs.build_kernel", None),
    "seed_trajectory": ("diagnostics.seed_trajectory", None),
}


def import_program():
    """Import mjpsampler from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mjpsampler
    from mjpsampler import diagnostics, io, raoteh

    if Path(mjpsampler.__file__).resolve().parent != (src / "mjpsampler").resolve():
        raise ImportError(f"mjpsampler was found at {mjpsampler.__file__}, not under {src}")
    return mjpsampler, io, raoteh, diagnostics


class Bench:
    """State of one run: counters, per-round figures and failed checks."""

    def __init__(self, args, program):
        self.args = args
        self.mjpsampler, self.io, self.raoteh, self.diagnostics = program
        self.trace = bool(args.trace)
        self.rec = Recorder() if self.trace else None
        self.attempted = 0
        self.failed = 0
        self.ready = 0.0  # clock when set-up ended and the first sweep may start
        self.rounds: list[dict] = []  # sweeps, wall, traced
        self.ess = 0.0  # of the jump count, over all rounds
        self.problems: list[str] = []
        self.setup_layer: dict[str, tuple[float, str]] = {}  # init and load times
        self.trace_bytes: list[int] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def span(self, name: str, traced: bool):
        return self.rec.span(name) if traced else nullcontext()

    def run_rounds(self, ops_per_round: int, one_round) -> None:
        """Whole rounds until ``--seconds`` have passed (at least MIN_ROUNDS)."""
        deadline = time.perf_counter() + self.args.seconds
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() < deadline:
            traced = self.trace and r % 2 == 1
            self.attempted += ops_per_round
            try:
                if traced:
                    with patched(self.rec, self.raoteh, RAOTEH_TARGETS), \
                            patched(self.rec, self.diagnostics, DIAGNOSTICS_TARGETS):
                        figures = one_round(r, traced)
                else:
                    figures = one_round(r, traced)
            except self.mjpsampler.MJPError as e:
                self.failed += ops_per_round
                print(f"perfbench: round {r} failed: {e!r}", file=sys.stderr)
            else:
                self.rounds.append(dict(figures, traced=traced))
            r += 1

    def sweep_rate(self, traced: bool) -> float:
        return statistics.median(
            d["sweeps"] / d["wall"] for d in self.rounds if d["traced"] == traced
        )

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        sweeps_per_s = self.sweep_rate(False)
        ess_per_sweep = self.ess / sum(d["sweeps"] for d in self.rounds)
        return {
            "sweeps_per_s": sweeps_per_s,
            "ess_per_s": ess_per_sweep * sweeps_per_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, n_states: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the traced rounds' spans."""
        tot = self.rec.totals()
        missing = self.rec.missing
        traced = [d for d in self.rounds if d["traced"]]
        sweeps = sum(d["sweeps"] for d in traced)
        empty = {"calls": 0, "total": 0.0, "self": 0.0, "size": 0.0}

        def get(name, field="total"):
            return None if name in missing else tot.get(name, empty)[field]

        def scaled(value, denominator, factor):
            if value is None or denominator is None:
                return None
            return value / denominator * factor if denominator else 0.0

        def per_call(name, factor):
            return scaled(get(name), get(name, "calls"), factor)

        grid = get("raoteh.merge", "size")
        s = n_states
        flops = None if grid is None else (
            # computed, not counted: forward 2S^2 per step and 2S per point to
            # normalise, backward 2S per step
            2 * s * s * grid + 2 * s * (grid + sweeps) + 2 * s * grid)
        estimators = get("diagnostics.estimate_tv_decay") + get("diagnostics.estimate_drift")
        inner = [get("raoteh.step"), get("oracle.marginals")]
        if not estimators:
            diag_self = 0.0  # the chain workloads do not enter the estimators
        else:
            diag_self = None if None in inner else estimators - sum(inner)
        out = {
            "raoteh.virtual_us": (scaled(get("raoteh.virtual"), sweeps, 1e6), "us"),
            "raoteh.merge_us": (scaled(get("raoteh.merge"), sweeps, 1e6), "us"),
            "raoteh.step_self_us": (scaled(get("raoteh.step", "self"), sweeps, 1e6), "us"),
            "raoteh.loop_self_us": (scaled(get("raoteh.run_chain", "self"), sweeps, 1e6), "us"),
            "ffbs.attach_us": (scaled(get("ffbs.attach"), sweeps, 1e6), "us"),
            "model.collapse_us": (scaled(get("model.collapse"), sweeps, 1e6), "us"),
            "ffbs.forward_us": (scaled(get("ffbs.forward"), sweeps, 1e6), "us"),
            "ffbs.backward_us": (scaled(get("ffbs.backward"), sweeps, 1e6), "us"),
            "ffbs.forward_ns_per_point": (scaled(get("ffbs.forward"), grid, 1e9), "ns"),
            "ffbs.backward_ns_per_point": (scaled(get("ffbs.backward"), grid, 1e9), "ns"),
            "raoteh.step_us": (scaled(get("raoteh.step"), sweeps, 1e6), "us"),
            "raoteh.ns_per_grid_point": (scaled(get("raoteh.step"), grid, 1e9), "ns"),
            "diagnostics.tv_decay_s": (per_call("diagnostics.estimate_tv_decay", 1.0), "s"),
            "diagnostics.drift_s": (per_call("diagnostics.estimate_drift", 1.0), "s"),
            "diagnostics.self_us_per_sweep": (scaled(diag_self, sweeps, 1e6), "us"),
            "oracle.marginals_ms": (per_call("oracle.marginals", 1e3), "ms"),
            "io.trace_write_ms": (per_call("io.write_trace_csv", 1e3), "ms"),
            "io.trace_bytes": (statistics.fmean(self.trace_bytes) if self.trace_bytes else 0.0,
                               "B"),
            "diagnostics.trace_summary_ms": (per_call("diagnostics.trace_summary", 1e3), "ms"),
            "raoteh.grid_points": (scaled(grid, sweeps, 1.0), "count"),
            "raoteh.virtual_points": (scaled(get("raoteh.virtual", "size"), sweeps, 1.0), "count"),
            "ffbs.computed_flops": (scaled(flops, sweeps, 1.0), "flop"),
            "tracing.overhead_pct": (
                100.0 * (1.0 - self.sweep_rate(True) / self.sweep_rate(False)), "%"),
        }
        out.update(self.setup_layer)
        for name, attr in sorted(missing.items()):
            print(f"perfbench: {attr} is missing; metrics from span {name} are not reported",
                  file=sys.stderr)
        return {k: v for k, v in out.items() if v[0] is not None}


def run_chain_workload(bench: Bench, name: str, docs: dict, paths: dict) -> int:
    """short_window, long_window, dense_states: rounds of run_chain, trace CSV
    write and trace summary, each from the same start with its own seed."""
    io, raoteh, diagnostics = bench.io, bench.raoteh, bench.diagnostics
    spec = workloads.SPECS[name]
    seed = bench.args.seed

    t = time.perf_counter()
    nu, q = io.load_model(paths["model.json"])
    ev, window = io.load_evidence(paths["evidence.json"])
    load_s = time.perf_counter() - t
    cfg = bench.mjpsampler.SamplerConfig(n_sweeps=spec.sweeps, burn_in=spec.burn_in,
                                         init_strategy=spec.init)
    t = time.perf_counter()
    x0 = raoteh.initial_trajectory(nu, q, ev, window, cfg, np.random.default_rng([seed, 0]))
    init_s = time.perf_counter() - t
    bench.attempted += 3
    bench.ready = time.perf_counter()
    bench.setup_layer = {"raoteh.init_ms": (init_s * 1e3, "ms"), "io.load_ms": (load_s * 1e3, "ms")}

    # imported once set-up is over: it loads scipy.linalg, which the program
    # need not load
    import reference

    obs = docs["evidence.json"]["obs"]
    obs_times = [o["t"] for o in obs]
    obs_liks = np.array([o["lik"] for o in obs])
    probes = list(spec.probes) if spec.probes is not None else obs_times
    n_states = docs["model.json"]["states"]
    # observations that fall on a probe time: the probe state must be possible
    on_probe = [(k, j) for k, t in enumerate(probes) for j, u in enumerate(obs_times) if u == t]
    counts = np.zeros((len(probes), n_states), dtype=np.int64)
    # autocorrelations summed over rounds: of the jump count, and of each
    # probe-state indicator over the rounds in which it varies
    jump_rho = np.zeros(cfg.n_sweeps)
    ind_rho = np.zeros((len(probes), n_states, cfg.n_sweeps))
    ind_rounds = np.zeros((len(probes), n_states), dtype=np.int64)
    csv_path = OUT / name / "trace.csv"

    def one_round(r: int, traced: bool) -> dict:
        rng = np.random.default_rng([seed, r + 1])
        t0 = time.perf_counter()
        with bench.span("raoteh.run_chain", traced):
            trace = raoteh.run_chain(nu, q, ev, window, cfg, rng=rng, probes=probes, x0=x0)
        with bench.span("io.write_trace_csv", traced):
            io.write_trace_csv(csv_path, trace)
        with bench.span("diagnostics.trace_summary", traced):
            summary = diagnostics.trace_summary(trace, cfg.burn_in)
        wall = time.perf_counter() - t0

        total = cfg.burn_in + cfg.n_sweeps
        kept_jumps = trace.n_jumps[cfg.burn_in:]
        kept = trace.probe_states[cfg.burn_in:]
        data = csv_path.read_bytes()
        lines = data.count(b"\n")
        if traced:
            bench.trace_bytes.append(len(data))
        bench.check(lines == total + 1,
                    f"round {r}: trace CSV has {lines} lines, expected {total + 1}")
        mean = kept_jumps.mean()
        bench.check(summary.n_kept == cfg.n_sweeps
                    and abs(summary.series["n_jumps"].mean - mean) <= 1e-9 * (1.0 + mean),
                    f"round {r}: trace summary disagrees with the trace")
        for k, j in on_probe:
            bad = int((obs_liks[j][kept[:, k]] == 0).sum())
            bench.check(bad == 0, f"round {r}: {bad} probe states at t={probes[k]} "
                        "have zero likelihood")
        jump_rho[:] += reference.autocorrelation(kept_jumps)
        for k in range(len(probes)):
            counts[k] += np.bincount(kept[:, k], minlength=n_states)
            visited = np.unique(kept[:, k])
            if visited.size > 1:
                for s in visited:
                    ind_rho[k, s] += reference.autocorrelation(kept[:, k] == s)
                    ind_rounds[k, s] += 1
        return {"sweeps": total, "wall": wall}

    bench.run_rounds(3, one_round)

    n = cfg.n_sweeps * len(bench.rounds)
    if n:
        bench.ess = n / reference.ips_time(jump_rho / len(bench.rounds))

    # probe marginals against the expm forward-backward, within Z Monte Carlo
    # standard errors; tau is the largest indicator autocorrelation time seen
    exact = reference.posterior_marginals(docs["model.json"]["nu"], docs["model.json"]["Q"],
                                          obs_times, obs_liks, probes, window[0])
    if n and probes:
        freq = counts / n
        taus = [reference.ips_time(ind_rho[k, s] / ind_rounds[k, s])
                for k, s in zip(*np.nonzero(ind_rounds))]
        tau = max([1.0, *taus])
        var = np.maximum(exact * (1 - exact), 1.0 / n)
        err = np.abs(freq - exact) / np.sqrt(var * tau / n)
        k, s = np.unravel_index(np.argmax(err), err.shape)
        bench.check(err.max() <= Z, f"probe {probes[k]} state {s}: chain {freq[k, s]:.5f} vs "
                    f"exact {exact[k, s]:.5f} is {err.max():.1f} standard errors apart")
    return n_states


def run_replicates_workload(bench: Bench, name: str, docs: dict, paths: dict) -> int:
    """replicates: rounds of one TV-decay call and one drift call, n_jobs=1."""
    mjpsampler, io, diagnostics = bench.mjpsampler, bench.io, bench.diagnostics
    spec = workloads.SPECS[name]
    seed = bench.args.seed

    t = time.perf_counter()
    nu3, q3 = io.load_model(paths["model.json"])
    ev3, window3 = io.load_evidence(paths["evidence.json"])
    nu2, q2 = io.load_model(paths["drift_model.json"])
    load_s = time.perf_counter() - t
    ev2 = mjpsampler.Evidence.empty(q2.n_states)
    cfg = mjpsampler.SamplerConfig(n_sweeps=1)
    t = time.perf_counter()
    x0 = diagnostics.seed_trajectory(q3, window3, spec.tv_seed_jumps)
    init_s = time.perf_counter() - t
    bench.attempted += 4
    bench.ready = time.perf_counter()
    bench.setup_layer = {"raoteh.init_ms": (init_s * 1e3, "ms"), "io.load_ms": (load_s * 1e3, "ms")}

    import reference

    m_max = max(spec.tv_ms)
    sweeps = spec.tv_replicates * m_max + len(spec.drift_ns) * spec.drift_replicates
    chains = spec.tv_replicates + len(spec.drift_ns) * spec.drift_replicates
    tv_first, tv_last, drift_means, drift_spans = [], [], [], []

    def one_round(r: int, traced: bool) -> dict:
        rng = np.random.default_rng([seed, r + 1])
        t0 = time.perf_counter()
        with bench.span("diagnostics.estimate_tv_decay", traced):
            curve = diagnostics.estimate_tv_decay(nu3, q3, ev3, cfg, x0, spec.tv_ms,
                                                  spec.tv_replicates, spec.tv_probe,
                                                  rng=rng, n_jobs=1)
        first = len(bench.rec.start) if traced else 0
        with bench.span("diagnostics.estimate_drift", traced):
            drift = diagnostics.estimate_drift(nu2, q2, ev2, cfg, spec.drift_window,
                                               spec.drift_ns, spec.drift_replicates,
                                               rng=rng, n_jobs=1)
        wall = time.perf_counter() - t0
        if traced:
            drift_spans.append((first, len(bench.rec.start)))
        tv_first.append(float(curve.tv[0]))
        tv_last.append(float(curve.tv[-1]))
        drift_means.append(np.asarray(drift.mean_jumps, dtype=float))
        return {"sweeps": sweeps, "wall": wall}

    bench.run_rounds(2, one_round)
    bench.ess = chains * len(bench.rounds)  # independent chains

    # TV at m = 0 is exact: every chain sits at x0, so TV = 1 - pi(x0(probe))
    doc = docs["evidence.json"]
    pi = reference.posterior_marginals(
        docs["model.json"]["nu"], docs["model.json"]["Q"], [o["t"] for o in doc["obs"]],
        [o["lik"] for o in doc["obs"]], [spec.tv_probe], window3[0])[0]
    s0 = int(np.concatenate(([x0.s0], x0.jump_states))[
        np.searchsorted(x0.jump_times, spec.tv_probe, side="right")])
    floor = 0.5 * np.sqrt(q3.n_states / spec.tv_replicates)
    for r, (tv0, tv_m) in enumerate(zip(tv_first, tv_last)):
        bench.check(abs(tv0 - (1.0 - pi[s0])) <= 1e-9,
                    f"round {r}: TV at m=0 is {tv0!r}, exact {1.0 - pi[s0]!r}")
        bench.check(tv_m < TV_FLOOR_MULTIPLE * floor,
                    f"round {r}: TV at m={m_max} is {tv_m:.4f}, noise floor {floor:.4f}")

    # symmetric 2-state model at lambda = 2 with no evidence: N = n + V grid
    # points with V ~ Poisson((lambda - 1) T), and every skeleton step is a fair
    # coin, so the new jump count is Binomial(N, 1/2)
    ns = np.array(spec.drift_ns, dtype=float)
    horizon = spec.drift_window[1] - spec.drift_window[0]
    virtual_mean = (LAMBDA_FACTOR * q2.q_max - 1.0) * horizon
    expected = (ns + virtual_mean) / 2.0
    se = np.sqrt((ns + 2.0 * virtual_mean) / 4.0 / spec.drift_replicates)
    for r, means in enumerate(drift_means):
        worst = float(np.max(np.abs(means - expected) / se))
        bench.check(worst <= Z, f"round {r}: a drift mean is {worst:.1f} standard errors "
                    "from (n + T)/2")
    if drift_spans and "raoteh.merge" not in bench.rec.missing:
        a = bench.rec.arrays()
        idx = np.concatenate([np.arange(i, j) for i, j in drift_spans])
        idx = idx[np.array(bench.rec.names)[a["name_id"][idx]] == "raoteh.merge"]
        for n in spec.drift_ns:
            grid = a["size"][idx[a["aux"][idx] == n]]
            bench.check(grid.size > 0, f"no traced drift sweep from n={n}")
            if grid.size:
                z = abs(grid.mean() - (n + virtual_mean)) / np.sqrt(virtual_mean / grid.size)
                bench.check(z <= Z, f"drift grid from n={n}: mean {grid.mean():.3f} is "
                            f"{z:.1f} standard errors from n + (lambda - 1) T")
    return q3.n_states


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True, help="sampler seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t = time.perf_counter()
    docs = workloads.make_inputs(args.workload)
    paths = workloads.write_inputs(docs, OUT / args.workload)
    own_prep_s = time.perf_counter() - t  # the benchmark's own work, not set-up

    try:
        program = import_program()
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    bench = Bench(args, program)
    runner = run_replicates_workload if args.workload == "replicates" else run_chain_workload
    n_states = runner(bench, args.workload, docs, paths)
    setup_s = _AGE_AT_START + (bench.ready - _CLOCK_AT_START) - own_prep_s

    if bench.trace:
        metrics = {k: {"value": v, "unit": unit}
                   for k, (v, unit) in bench.per_layer(n_states).items()}
        bench.rec.save(OUT / args.workload / "spans.npz")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in bench.end_to_end(setup_s).items()}
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / args.workload / f"result-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
