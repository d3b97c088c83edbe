"""JSON/CSV persistence with schema validation.

Model files: ``{"states": int, "Q": [[...]], "labels": [...], "nu": [...]}``
(labels and nu optional; nu defaults to uniform). Trajectory files:
``{"t_min": float, "t_max": float, "s0": int, "jumps": [[t, s], ...]}``.
Evidence files: ``{"t_min": float, "t_max": float,
"obs": [{"t": float, "lik": [...], "lik_max": float?}, ...]}`` -- the window
travels with the evidence because the posterior is defined on it.
Validation failures carry a JSON-pointer path to the offending field.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import BadRowSum, MJPError, ParseError, ValidationError
from .model import Evidence, RateMatrix, Trajectory, validate_rate_matrix
from .raoteh import ChainTrace


def _load_json(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError("top-level JSON value must be an object", pointer="")
    return doc


def _require(doc: dict, key: str, pointer: str = ""):
    if key not in doc:
        raise ValidationError(f"missing required field '{key}'", pointer=f"{pointer}/{key}")
    return doc[key]


def _numeric(value, pointer: str, array: bool = False):
    """``value`` as a float, or as a float array when ``array``; JSON that is
    not numeric there (``null``, a string) raises :class:`ValidationError`
    at ``pointer`` instead of a raw Python error."""
    try:
        return np.asarray(value, dtype=float) if array else float(value)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"expected numbers, got {json.dumps(value)[:80]}",
                              pointer=pointer) from e


def load_model(path) -> tuple[np.ndarray, RateMatrix]:
    """Load and validate a model file; returns ``(nu, rate_matrix)``."""
    doc = _load_json(path)
    states = _require(doc, "states")
    if not isinstance(states, int) or states < 2:
        raise ValidationError("'states' must be an integer >= 2", pointer="/states")
    q_arr = _numeric(_require(doc, "Q"), "/Q", array=True)
    if q_arr.shape != (states, states):
        raise ValidationError(
            f"'Q' has shape {q_arr.shape}, expected ({states}, {states})", pointer="/Q"
        )
    try:
        q = validate_rate_matrix(q_arr)
    except BadRowSum as e:
        raise ValidationError(str(e), pointer=f"/Q/{e.row}") from e
    except MJPError as e:
        raise ValidationError(str(e), pointer="/Q") from e

    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != states
        or not all(isinstance(x, str) for x in labels)
    ):
        raise ValidationError(
            f"'labels' must be a list of {states} strings", pointer="/labels"
        )

    nu_raw = doc.get("nu")
    if nu_raw is None:
        nu = np.full(states, 1.0 / states)
    else:
        nu = _numeric(nu_raw, "/nu", array=True)
        if nu.shape != (states,):
            raise ValidationError(f"'nu' must have {states} entries", pointer="/nu")
        if not np.isfinite(nu).all() or (nu < 0).any() or abs(nu.sum() - 1.0) > 1e-9:
            raise ValidationError(
                "'nu' must be finite, nonnegative and sum to 1", pointer="/nu"
            )
        nu = nu / nu.sum()
    return nu, q


def save_model(path, q: RateMatrix, nu=None, labels=None) -> None:
    doc: dict = {"states": q.n_states, "Q": q.q.tolist()}
    if labels is not None:
        doc["labels"] = list(labels)
    if nu is not None:
        doc["nu"] = np.asarray(nu, dtype=float).tolist()
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_trajectory(path) -> Trajectory:
    doc = _load_json(path)
    t_min = _numeric(_require(doc, "t_min"), "/t_min")
    t_max = _numeric(_require(doc, "t_max"), "/t_max")
    s0 = _require(doc, "s0")
    jumps = _require(doc, "jumps")
    if not isinstance(jumps, list):
        raise ValidationError("'jumps' must be a list of [t, s] pairs", pointer="/jumps")
    for i, pair in enumerate(jumps):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValidationError("expected a [t, s] pair", pointer=f"/jumps/{i}")
    try:
        return Trajectory.from_pairs(
            t_min, t_max, int(s0),
            [(float(t), int(s)) for t, s in jumps],
        )
    except (TypeError, ValueError) as e:
        raise ValidationError(str(e), pointer="/jumps") from e


def save_trajectory(path, x: Trajectory) -> None:
    doc = {
        "t_min": x.t_min,
        "t_max": x.t_max,
        "s0": int(x.s0),
        "jumps": [[t, int(s)] for t, s in x.jumps],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_evidence(path) -> tuple[Evidence, tuple[float, float]]:
    """Load an evidence file; returns ``(evidence, (t_min, t_max))``."""
    doc = _load_json(path)
    t_min = _numeric(_require(doc, "t_min"), "/t_min")
    t_max = _numeric(_require(doc, "t_max"), "/t_max")
    if not t_min < t_max:
        raise ValidationError("need t_min < t_max", pointer="/t_max")
    obs = _require(doc, "obs")
    if not isinstance(obs, list):
        raise ValidationError("'obs' must be a list", pointer="/obs")

    n_states = None
    records = []
    for j, rec in enumerate(obs):
        if not isinstance(rec, dict):
            raise ValidationError("observation must be an object", pointer=f"/obs/{j}")
        t = _numeric(_require(rec, "t", pointer=f"/obs/{j}"), f"/obs/{j}/t")
        lik = _require(rec, "lik", pointer=f"/obs/{j}")
        if not isinstance(lik, list) or not lik:
            raise ValidationError("'lik' must be a nonempty list", pointer=f"/obs/{j}/lik")
        vals = _numeric(lik, f"/obs/{j}/lik", array=True)
        if n_states is None:
            n_states = vals.size
        elif vals.size != n_states:
            raise ValidationError(
                "'lik' length differs between observations", pointer=f"/obs/{j}/lik"
            )
        if (vals < 0).any() or not np.isfinite(vals).all():
            raise ValidationError(
                "'lik' entries must be finite and nonnegative", pointer=f"/obs/{j}/lik"
            )
        if vals.max() <= 0:
            raise ValidationError(
                "'lik' must have at least one positive entry", pointer=f"/obs/{j}/lik"
            )
        if not t_min <= t <= t_max:
            raise ValidationError(
                f"observation time {t} outside [{t_min}, {t_max}]", pointer=f"/obs/{j}/t"
            )
        if "lik_max" in rec:
            records.append((t, vals, _numeric(rec["lik_max"], f"/obs/{j}/lik_max")))
        else:
            records.append((t, vals))
    try:
        ev = Evidence.from_records(records, n_states=n_states or 0)
    except ValueError as e:
        raise ValidationError(str(e), pointer="/obs") from e
    if ev.n_obs == 0:
        raise ValidationError(
            "empty evidence needs at least one observation to fix the state count; "
            "omit --evidence instead", pointer="/obs",
        )
    return ev, (t_min, t_max)


def save_evidence(path, ev: Evidence, window: tuple[float, float]) -> None:
    doc = {
        "t_min": float(window[0]),
        "t_max": float(window[1]),
        "obs": [
            {"t": float(ev.times[j]), "lik": ev.liks[j].tolist(),
             "lik_max": float(ev.lik_max[j])}
            for j in range(ev.n_obs)
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_emission(path) -> np.ndarray:
    doc = _load_json(path)
    e = _numeric(_require(doc, "E"), "/E", array=True)
    if e.ndim != 2:
        raise ValidationError("'E' must be a matrix", pointer="/E")
    return e


def _trace_meta_path(path) -> str:
    return f"{os.fspath(path)}.meta.json"


def write_trace_csv(path, trace: ChainTrace) -> None:
    """Trace CSV: columns ``sweep, n_jumps, log_evidence, probe_0, ...``.

    The probe times, ``n_states`` and ``burn_in`` go to a JSON sidecar,
    ``<path>.meta.json``, so the CSV stays one header line plus one line per
    sweep and :func:`read_trace_csv` can restore the whole trace.
    """
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        header = ["sweep", "n_jumps", "log_evidence"]
        header += [f"probe_{k}" for k in range(trace.probes.size)]
        writer.writerow(header)
        for m in range(trace.n_sweeps_total):
            row = [m + 1, int(trace.n_jumps[m]), repr(float(trace.log_evidence[m]))]
            row += [int(s) for s in trace.probe_states[m]]
            writer.writerow(row)
    meta = {"probes": trace.probes.tolist(), "n_states": int(trace.n_states),
            "burn_in": int(trace.burn_in)}
    with open(_trace_meta_path(path), "w") as f:
        json.dump(meta, f)
        f.write("\n")


def read_trace_csv(path) -> ChainTrace:
    """Read a trace CSV, with its sidecar when there is one.

    Without the sidecar the probe times are NaN, ``burn_in`` is 0 and
    ``n_states`` is guessed as the largest state seen plus one.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path} is empty") from None
        if header[:3] != ["sweep", "n_jumps", "log_evidence"]:
            raise ParseError(f"{path} does not look like a trace CSV")
        n_probes = len(header) - 3
        n_jumps, log_ev, probe_states = [], [], []
        for row in reader:
            n_jumps.append(int(row[1]))
            log_ev.append(float(row[2]))
            probe_states.append([int(v) for v in row[3:]])
    n_jumps_arr = np.array(n_jumps, dtype=np.int64)
    probe_arr = np.array(probe_states, dtype=np.int64).reshape(len(n_jumps), n_probes)
    meta_path = _trace_meta_path(path)
    if not os.path.exists(meta_path):
        n_states = int(probe_arr.max()) + 1 if probe_arr.size else int(n_jumps_arr.max()) + 1
        probes, burn_in = np.full(n_probes, np.nan), 0
    else:
        meta = _load_json(meta_path)
        probes = np.asarray(_require(meta, "probes"), dtype=float)
        if probes.shape != (n_probes,):
            raise ValidationError(f"sidecar lists {probes.size} probes, the CSV has {n_probes}",
                                  pointer="/probes")
        n_states = _require(meta, "n_states")
        if not isinstance(n_states, int) or n_states <= int(probe_arr.max(initial=0)):
            raise ValidationError("'n_states' must exceed every recorded state",
                                  pointer="/n_states")
        burn_in = _require(meta, "burn_in")
        if not isinstance(burn_in, int) or burn_in < 0:
            raise ValidationError("'burn_in' must be a nonnegative integer", pointer="/burn_in")
    return ChainTrace(
        probes=probes,
        n_jumps=n_jumps_arr,
        log_evidence=np.array(log_ev),
        probe_states=probe_arr,
        burn_in=burn_in,
        n_states=n_states,
    )


def write_drift_csv(path, estimate) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "mean_j", "se"])
        for n, mean, se in estimate.points:
            writer.writerow([n, repr(mean), repr(se)])


def write_tv_csv(path, curve) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["m", "tv"])
        for m, tv in zip(curve.ms.tolist(), curve.tv.tolist()):
            writer.writerow([m, repr(tv)])


def write_summary_csv(path, summary) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["series", "mean", "tau", "ess", "degenerate"])
        for name, s in summary.series.items():
            writer.writerow([name, repr(s.mean), repr(s.tau), repr(s.ess), int(s.degenerate)])
