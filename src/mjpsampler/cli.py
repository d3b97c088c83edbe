"""Command-line entry point: simulate, sample, oracle, diagnose.

Every run echoes its fully resolved configuration (defaults filled in,
seed resolved) as one JSON line before doing any work, so outputs can be
reproduced from the log alone. Exit codes: 0 success, 1 bad usage or input
validation, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import io
from .diagnostics import estimate_drift, estimate_tv_decay, trace_summary
from .errors import InitFailed, MJPError, ParseError, TimeOutOfWindow, ValidationError
from .model import Evidence, SamplerConfig
from .oracle import exact_posterior_marginals
from .raoteh import initial_trajectory, run_chain
from .simulate import EmissionModel, generate_observations, gillespie_simulate

INIT_CHOICES = {"prior-rejection": "prior-rejection", "ml-path": "max-likelihood-path"}


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {e}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {e}")


def _resolve_seed(seed_flag: int | None) -> int:
    if seed_flag is not None:
        return seed_flag
    env = os.environ.get("MJP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"MJP_SEED={env!r} is not an integer")
    return 0


def _echo_config(command: str, args: argparse.Namespace, seed: int,
                 extra: dict | None = None) -> None:
    resolved = {"command": command, "seed": seed}
    for key, value in sorted(vars(args).items()):
        if key in ("command", "seed", "func"):
            continue
        resolved[key] = value
    if extra:
        resolved.update(extra)
    print(json.dumps(resolved))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mjp",
        description="Posterior sampling and diagnostics for hidden Markov jump processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a prior trajectory and observations")
    p_sim.add_argument("--model", required=True, help="model JSON file")
    p_sim.add_argument("--emission", required=True, help="emission JSON file ({'E': [[...]]})")
    p_sim.add_argument("--obs-times", type=_float_list, default=[],
                       help="comma-separated observation times")
    p_sim.add_argument("--t-min", type=float, default=0.0)
    p_sim.add_argument("--t-max", type=float, default=None,
                       help="defaults to the last observation time")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out-prefix", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_sample = sub.add_parser("sample", help="run the Rao-Teh Gibbs sampler")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--evidence", required=True)
    p_sample.add_argument("--sweeps", type=int, required=True)
    p_sample.add_argument("--burn-in", type=int, default=0)
    p_sample.add_argument("--lambda-factor", type=float, default=2.0)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--probes", type=_float_list, default=[])
    p_sample.add_argument("--init", choices=sorted(INIT_CHOICES), default="prior-rejection",
                          help="start-trajectory strategy; prior-rejection falls back "
                               "to ml-path when no prior draw meets the evidence")
    p_sample.add_argument("--out", required=True, help="trace CSV path")
    p_sample.set_defaults(func=cmd_sample)

    p_oracle = sub.add_parser("oracle", help="exact posterior marginals at probe times")
    p_oracle.add_argument("--model", required=True)
    p_oracle.add_argument("--evidence", required=True)
    p_oracle.add_argument("--probes", type=_float_list, required=True)
    p_oracle.add_argument("--out", default=None, help="output JSON (stdout if omitted)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_diag = sub.add_parser("diagnose", help="drift, TV-decay, or trace diagnostics")
    p_diag.add_argument("--mode", choices=["drift", "tv", "trace"], required=True)
    p_diag.add_argument("--model")
    p_diag.add_argument("--evidence", default=None)
    p_diag.add_argument("--t-min", type=float, default=None,
                        help="drift and tv modes without --evidence: window start, default 0")
    p_diag.add_argument("--t-max", type=float, default=None,
                        help="drift and tv modes without --evidence: window end, default 1")
    p_diag.add_argument("--lambda-factor", type=float, default=2.0)
    p_diag.add_argument("--seed", type=int, default=None)
    p_diag.add_argument("--ns", type=_int_list, default=[50, 100, 200],
                        help="drift mode: seeded jump counts")
    p_diag.add_argument("--replicates", type=int, default=500)
    p_diag.add_argument("--ms", type=_int_list, default=[1, 2, 4, 8, 16, 32],
                        help="tv mode: sweep counts")
    p_diag.add_argument("--probe", type=float, default=None, help="tv mode: probe time")
    p_diag.add_argument("--init", choices=sorted(INIT_CHOICES), default="ml-path",
                        help="tv mode: start-trajectory strategy")
    p_diag.add_argument("--trace", default=None, help="trace mode: input trace CSV")
    p_diag.add_argument("--burn-in", type=int, default=None,
                        help="trace mode: sweeps to drop; defaults to the trace's own")
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    nu, q = io.load_model(args.model)
    em = EmissionModel(io.load_emission(args.emission))
    if em.n_states != q.n_states:
        raise ValidationError(
            f"emission has {em.n_states} states, model has {q.n_states}", pointer="/E"
        )
    obs_times = sorted(args.obs_times)
    t_max = args.t_max
    if t_max is None:
        if not obs_times:
            raise ValidationError("--t-max required when --obs-times is empty")
        t_max = obs_times[-1]
    window = (args.t_min, t_max)
    _echo_config("simulate", args, seed, {"t_max_resolved": t_max})

    rng = np.random.default_rng(seed)
    x = gillespie_simulate(nu, q, window, rng)
    ev = generate_observations(x, obs_times, em, rng) if obs_times else None
    io.save_trajectory(f"{args.out_prefix}.trajectory.json", x)
    if ev is not None:
        io.save_evidence(f"{args.out_prefix}.evidence.json", ev, window)
    return 0


def cmd_sample(args) -> int:
    seed = _resolve_seed(args.seed)
    nu, q = io.load_model(args.model)
    ev, window = io.load_evidence(args.evidence)
    if ev.n_states != q.n_states:
        raise ValidationError(
            f"evidence has {ev.n_states} states, model has {q.n_states}", pointer="/obs"
        )
    cfg = SamplerConfig(
        n_sweeps=args.sweeps,
        burn_in=args.burn_in,
        lambda_factor=args.lambda_factor,
        seed=seed,
        init_strategy=INIT_CHOICES[args.init],
    )
    _echo_config("sample", args, seed, {"window": list(window)})
    try:
        trace = run_chain(nu, q, ev, window, cfg, probes=args.probes)
    except InitFailed as e:
        if cfg.init_strategy != "prior-rejection":
            raise
        print(f"warning: {e}; starting from the max-likelihood path instead",
              file=sys.stderr)
        cfg = replace(cfg, init_strategy="max-likelihood-path")
        trace = run_chain(nu, q, ev, window, cfg, probes=args.probes)
    io.write_trace_csv(args.out, trace)
    return 0


def cmd_oracle(args) -> int:
    nu, q = io.load_model(args.model)
    ev, window = io.load_evidence(args.evidence)
    if ev.n_states != q.n_states:
        raise ValidationError(
            f"evidence has {ev.n_states} states, model has {q.n_states}", pointer="/obs"
        )
    _echo_config("oracle", args, _resolve_seed(None), {"window": list(window)})
    marginals = exact_posterior_marginals(nu, q, ev, args.probes, window)
    doc = {
        "probes": list(args.probes),
        "marginals": [row.tolist() for row in marginals],
    }
    if args.out is None:
        print(json.dumps(doc, indent=2))
    else:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    return 0


def cmd_diagnose(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.mode == "trace":
        if args.trace is None:
            raise ValidationError("--trace is required in trace mode")
        trace = io.read_trace_csv(args.trace)
        if args.burn_in is None:
            args.burn_in = trace.burn_in
        _echo_config("diagnose", args, seed)
        summary = trace_summary(trace, args.burn_in)
        io.write_summary_csv(args.out, summary)
        return 0

    if args.model is None:
        raise ValidationError("--model is required in drift and tv modes")
    nu, q = io.load_model(args.model)
    if args.evidence is not None:
        if args.t_min is not None or args.t_max is not None:
            raise ValidationError("--t-min and --t-max conflict with --evidence, "
                                  "whose file sets the window")
        ev, window = io.load_evidence(args.evidence)
        if ev.n_states != q.n_states:
            raise ValidationError(
                f"evidence has {ev.n_states} states, model has {q.n_states}", pointer="/obs"
            )
    else:
        args.t_min = 0.0 if args.t_min is None else args.t_min
        args.t_max = 1.0 if args.t_max is None else args.t_max
        ev, window = Evidence.empty(q.n_states), (args.t_min, args.t_max)
    cfg = SamplerConfig(
        n_sweeps=1,
        lambda_factor=args.lambda_factor,
        seed=seed,
        init_strategy=INIT_CHOICES[args.init],
    )
    _echo_config("diagnose", args, seed, {"window": list(window)})

    if args.mode == "drift":
        est = estimate_drift(nu, q, ev, cfg, window, args.ns, args.replicates)
        io.write_drift_csv(args.out, est)
        print(json.dumps({"q_hat": est.q_hat, "c_hat": est.c_hat,
                          "ci_slope": list(est.ci_slope)}))
        return 0

    # tv mode
    probe = args.probe if args.probe is not None else 0.5 * (window[0] + window[1])
    rng = np.random.default_rng(seed)
    x0 = initial_trajectory(nu, q, ev, window, cfg, rng)
    start = time.perf_counter()
    curve = estimate_tv_decay(nu, q, ev, cfg, x0, args.ms, args.replicates, probe, rng=rng)
    wall = time.perf_counter() - start
    io.write_tv_csv(args.out, curve)
    chain_sweeps = curve.n_replicates * int(curve.ms.max())
    print(json.dumps({"ms": curve.ms.tolist(), "tv": curve.tv.tolist(),
                      "tv_se": curve.tv_se.tolist(), "n_replicates": curve.n_replicates,
                      "wall_s": wall,
                      "chain_sweeps_per_s": chain_sweeps / wall}))
    return 0


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (ParseError, ValidationError, TimeOutOfWindow) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MJPError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
