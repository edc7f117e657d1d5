"""Batch front-end: validated JSON configs in, deterministic data files out.

Usage:

    qndsim <experiment> --config <file> [--set key=value]... [--jobs n]

with experiment one of:

    moments      closed-form field moments vs the matrix cross-check path
    sample       Monte Carlo measurement record plus the N/T estimate
    wigner       phase-space grid, Im-axis marginal, reconstructed P(n)
    validate-jj  three-level squeezing run vs the effective decay law

The config is a JSON object. Common keys: "seed" (required integer; all
randomness flows from it), "params" (ProtocolParams fields for the first
three experiments, ThreeLevelParams fields for validate-jj), "output_dir"
(falls back to $QNDSIM_OUTPUT_DIR), "nu_unit" ("rad_per_s" default, or
"hz", applied to params.nu), and optional "sweep": a list of params
overrides fanned out as independent points, each with a seed derived from
the root seed (order-stable, so --jobs parallelism cannot change any
byte). Protocol params accept "e2r" in place of "r".

Each experiment is one entry of _EXPERIMENTS: its keys, with type, bound
and default (the params keys come from the dataclass fields), the builder
that turns a params point into the library's inputs, and its runner.
Unknown keys anywhere are rejected, and every point (including each sweep
point) is built before any computation starts, so an invalid config never
leaves partial output files. Once every point has computed, each CSV is
rendered by the module that owns its data, chunk by chunk into its file and
hashed from the same chunks, then manifest.json (config echo in canonical
form, package version, wall time, CPU time, sha256 of every artifact). The
echoed config block is itself a valid config, and --config accepts a
manifest file directly, so any output can be regenerated from its
manifest alone.

Exit codes: 0 success, 2 on a validation error, a precondition a library
module refuses during the run or an array numpy cannot allocate (nothing
is written), 3 when a computed result misses the configured numerical
tolerance (files are still written so the failure can be inspected).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

# OpenBLAS reads it once, on load: its idle workers spin, a cost our small BLAS calls never repay
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, fock, protocol, sampler, threelevel, wigner

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3

_REQUIRED = object()  # a missing key is an error
_OPTIONAL = object()  # a missing or null key is left out of the canonical config


class ConfigError(ValueError):
    pass


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


# ---------------------------------------------------------------------------
# parsers: (value, path) -> canonical value, or ConfigError naming the path

def _number(above=None):
    def parse(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            _fail(path, "integer out of float range")
        if not math.isfinite(value):
            _fail(path, "must be finite")
        if above is not None and not value > above:
            _fail(path, f"must be > {above:g}")
        return value
    return parse


def _integer(least=None, below=None):
    def parse(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"expected an integer, got {value!r}")
        if least is not None and value < least:
            _fail(path, f"must be >= {least}")
        if below is not None and value >= below:
            _fail(path, f"must be < {below}")
        return value
    return parse


def _one_of(*choices):
    def parse(value, path):
        if not isinstance(value, str) or value not in choices:
            _fail(path, f"expected one of {list(choices)}, got {value!r}")
        return value
    return parse


def _or_null(parse):
    return lambda value, path: None if value is None else parse(value, path)


def _output_dir(value, path):
    if value in (None, ""):
        _fail(path, "missing (set it or $QNDSIM_OUTPUT_DIR)")
    if not isinstance(value, str):
        _fail(path, f"expected a non-empty string, got {value!r}")
    target = Path(value).absolute()
    found = next(p for p in (target, *target.parents) if p.exists())
    if not found.is_dir():
        _fail(path, f"{found} exists and is not a directory")
    return value


def _check(table, obj, path, partial=False):
    """Parse a JSON object against the table {key: (parser, default)}.

    The default is _REQUIRED, _OPTIONAL (absent or null leaves the key out)
    or the value an absent key takes. A partial object (a sweep override)
    may leave out any key. The result follows the table's order.
    """
    if not isinstance(obj, dict):
        _fail(path, "expected a JSON object")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        _fail(path, "unknown key(s) " + ", ".join(repr(k) for k in unknown))
    out = {}
    for key, (parse, default) in table.items():
        if key in obj:
            value = parse(obj[key], f"{path}.{key}")
        elif default is _REQUIRED and not partial:
            _fail(path, f"missing required key {key!r}")
        elif partial or default is _OPTIONAL:
            continue
        else:
            value = default
        if value is not None or default is not _OPTIONAL:
            out[key] = value
    return out


def _fields_table(cls):
    """The table of a params dataclass: each field parsed by its type, and
    _REQUIRED unless the dataclass supplies a default."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in dataclasses.fields(cls):
        kind = next(t for t in typing.get_args(hints[f.name]) or (hints[f.name],)
                    if t is not type(None))
        parse = {int: _integer(), float: _number()}[kind]
        required = f.default is dataclasses.MISSING
        table[f.name] = (parse, _REQUIRED) if required else (_or_null(parse), _OPTIONAL)
    return table


_PROTOCOL = _fields_table(protocol.ProtocolParams)
_PROTOCOL = {"r": _PROTOCOL.pop("r"), **_PROTOCOL}  # canonical order leads with r
_THREELEVEL = _fields_table(threelevel.ThreeLevelParams)
_GRID = dict(sorted(_fields_table(wigner.GridSpec).items()))  # echoed in key order
_POSITIVE = _number(above=0.0)
_EXP_RANGE = -math.log(sys.float_info.min)  # |x| up to which exp(x) is a normal double


def _protocol_params(value, path, partial=False):
    """ProtocolParams fields, with "e2r" accepted in place of "r"."""
    if isinstance(value, dict) and ("e2r" in value or not partial):
        if ("r" in value) == ("e2r" in value):
            _fail(path, "exactly one of 'r' and 'e2r' is required")
        if "e2r" in value:
            value = dict(value)
            value["r"] = 0.5 * math.log(_POSITIVE(value.pop("e2r"), f"{path}.e2r"))
    return _check(_PROTOCOL, value, path, partial)


def _sweep(params):
    def parse(value, path):
        if not isinstance(value, list) or not value:
            _fail(path, "expected a non-empty list of params overrides")
        return [params(entry, f"{path}[{k}]", partial=True)
                for k, entry in enumerate(value)]
    return parse


def _schema(params, **keys):
    return {
        "seed": (_integer(0, 2**64), _REQUIRED),
        "output_dir": (_output_dir, _REQUIRED),
        "nu_unit": (_one_of("rad_per_s", "hz"), "rad_per_s"),
        "params": (params, _REQUIRED),
        "sweep": (_sweep(params), _OPTIONAL),
        **keys,
    }


def _point_seeds(seed, n_points):
    if n_points == 1:
        return [seed]
    state = np.random.SeedSequence(seed).generate_state(n_points, np.uint64)
    return [int(s) for s in state]


# ---------------------------------------------------------------------------
# per-point builders: a merged params point to the library's inputs, or
# ConfigError naming the point's path

def _protocol_point(cfg, point, path):
    """ProtocolParams of a point whose thermal law has a truncation."""
    try:
        p = protocol.ProtocolParams(**point)
        p.law  # built here, once per point: TruncationError if it has no truncation
    except ValueError as exc:
        _fail(path, str(exc))
    return p


def _sample_point(cfg, point, path):
    """ProtocolParams of a point whose outcomes 2Am, up to the thermal law's
    level count m, and their squares are doubles: the record and its
    statistics cannot overflow short of a sum over shots."""
    p = _protocol_point(cfg, point, path)
    dim = p.law.dim
    top = 2.0 * p.A * dim
    if not math.isfinite(top * top):
        _fail(path, f"the outcome 2Am = {top:g} at m = {dim}, the thermal law's level count, "
              "or its square is past float range")
    return p


def _wigner_point(cfg, point, path):
    """ProtocolParams and GridSpec of a point whose grid holds its map and
    whose histogram bins hold its thermal law to the tail budget."""
    p = _protocol_point(cfg, point, path)
    try:
        spec = wigner.GridSpec(**cfg["grid"])
    except ValueError as exc:
        _fail("config.grid", str(exc))
    try:
        wigner.check_grid(p, spec, _MAPS[cfg["convention"]][0])
        p.law.check_tail(wigner.histogram_bins(spec.im_max, p.A, spec.im_count), "bins")
    except wigner.GridError as exc:
        _fail(f"config.grid.{exc.field}", f"{exc.reason} for {path}")
    except fock.TruncationError as exc:
        _fail("config.grid.im_max", f"too low for the thermal law of {path}: {exc}")
    return p, spec


def _jj_point(cfg, point, path):
    """ThreeLevelParams of a point and its run length t_final (by default
    0.5 / gamma_eff), over which exp(-2 gamma_eff t) stays a normal double."""
    try:
        q = threelevel.ThreeLevelParams(**point)
    except ValueError as exc:
        _fail(path, str(exc))
    t_final = cfg["t_final"]
    if t_final is None:
        if q.gamma_eff_predicted <= 0.0:
            _fail(path, "t_final is required when the predicted rate "
                  f"gamma_eff = {q.gamma_eff_predicted:.4g} is not positive")
        t_final = 0.5 / q.gamma_eff_predicted
    decay = 2.0 * q.gamma_eff_predicted * t_final
    if abs(decay) > _EXP_RANGE:
        _fail("config.t_final", f"exp(-2 gamma_eff t_final) = exp({-decay:.4g}) "
              f"is out of the normal double range for {path}")
    return q, t_final


def _built_points(experiment, cfg):
    """(params point, library inputs) of every point, by the experiment's builder."""
    build = _EXPERIMENTS[experiment][1]
    points = [{**cfg["params"], **override} for override in cfg.get("sweep", [{}])]
    return [(point, build(cfg, point, f"config.sweep[{k}]" if "sweep" in cfg else "config.params"))
            for k, point in enumerate(points)]


# ---------------------------------------------------------------------------
# per-point execution (top level so --jobs workers can import it)

def _render_json(payload):
    return (json.dumps(payload, indent=2, allow_nan=False, default=np.ndarray.tolist)
            + "\n").encode()


def _rel_or_abs(measured, target):
    """Relative error, except absolute against zero targets (the natural
    scale of every gated moment is the vacuum unit)."""
    if target == 0.0:
        return abs(measured)
    return abs(measured - target) / abs(target)


def _run_moments(cfg, point, p, point_seed):
    state = protocol.evolve_pulse(p)
    m, law = protocol.composite_field_moments(state), protocol.truncated_law_moments(state)
    closed_y, closed_x, closed_vy = protocol.mean_Y(p), protocol.mean_X(p), protocol.var_Y(p)
    err = float(max(
        _rel_or_abs(m.mean_x, closed_x),
        _rel_or_abs(m.mean_y, closed_y),
        _rel_or_abs(m.var_y, closed_vy),
    ))
    # against the law the blocks sum: the thermal tail is not in this gap
    gap = float(max(_rel_or_abs(getattr(m, k), getattr(law, k))
                    for k in ("mean_x", "mean_y", "var_x", "var_y")))
    ok = bool(err <= cfg["tolerance"])
    payload = {
        "params": point,
        "mean_x": closed_x,
        "mean_y": closed_y,
        "var_y": closed_vy,
        "matrix_mean_x": float(m.mean_x),
        "matrix_mean_y": float(m.mean_y),
        "matrix_var_x": float(m.var_x),
        "matrix_var_y": float(m.var_y),
        "max_rel_error": err,
        "truncated_law_gap": gap,
        "tolerance": cfg["tolerance"],
        "tolerance_ok": ok,
    }
    results = {k: payload[k] for k in ("mean_y", "var_y", "max_rel_error", "tolerance_ok")}
    return {"moments.json": _render_json(payload)}, results


def _run_sample(cfg, point, p, point_seed):
    record = sampler.sample_record(p, cfg["shots"], point_seed)
    report = sampler.estimate(record)
    payload = {"params": point, **dataclasses.asdict(report),
               "misassign_predicted": sampler.misassignment_probability(p)}
    artifacts = {
        "samples.csv": functools.partial(sampler.write_record_csv, record),
        "estimate.json": _render_json(payload),
    }
    results = {k: payload[k] for k in
               ("n_hat", "n_stderr", "misassign_rate", "misassign_predicted", "seed")}
    return artifacts, results


def _run_wigner(cfg, point, inputs, point_seed):
    p, spec = inputs
    grid = _MAPS[cfg["convention"]][1](p, spec)
    marg = wigner.marginal_P(grid)
    hist = wigner.reconstruct_pn(marg, p)
    tv = wigner.total_variation(hist.probabilities, p.law.pn)

    meta = {"convention": grid.convention, "seed": point_seed, "params": point}
    artifacts = {
        "wigner_grid.csv": functools.partial(wigner.write_grid_csv, grid),
        "wigner_grid.meta.json": _render_json({"artifact": "wigner_grid.csv", **meta}),
        "marginal.csv": functools.partial(wigner.write_marginal_csv, marg),
        "marginal.meta.json": _render_json(
            {"artifact": "marginal.csv", "raw_integral": float(marg.raw_integral), **meta}),
        "histogram.csv": functools.partial(wigner.write_histogram_csv, hist),
        "histogram.meta.json": _render_json(
            {"artifact": "histogram.csv", "method": hist.method,
             "leakage": hist.leakage, **meta}),
    }
    ok = None if cfg["tolerance"] is None else bool(tv <= cfg["tolerance"])
    results = {"tv_to_thermal": tv, "leakage": hist.leakage,
               "overlap_warning": not protocol.is_distinguishable(p), "tolerance_ok": ok}
    return artifacts, results


def _run_validate_jj(cfg, point, inputs, point_seed):
    q, t_final = inputs
    report = threelevel.validate_effective_gamma(q, t_final, steps=cfg["steps"])
    if cfg["reference"] == "predicted":
        ref_err = report.max_rel_error
    else:
        ref = np.exp(-2.0 * report.gamma_eff_fit * report.times)
        ref_err = float(np.max(np.abs(report.varY_full - ref) / ref))
    ok = bool(ref_err <= cfg["tolerance"] and report.leakage_ok)
    payload = dataclasses.asdict(report)
    payload["params"].update(pump_detuning=q.pump, delta_small=q.delta_small)  # as resolved
    payload.update(reference=cfg["reference"], reference_rel_error=ref_err,
                   tolerance=cfg["tolerance"], tolerance_ok=ok)
    artifacts = {
        "validate_report.json": _render_json(payload),
        "validate_curve.csv": functools.partial(threelevel.write_report_csv, report),
    }
    results = {k: payload[k] for k in (
        "gamma_eff_predicted", "gamma_eff_fit", "max_rel_error", "reference_rel_error",
        "population_leakage", "leakage_ok", "tolerance_ok")}
    return artifacts, results


# each Wigner convention's name: its convention constant and its map
_MAPS = {"paper": (wigner.PAPER, wigner.wigner_paper),
         "standard": (wigner.STANDARD, wigner.wigner_numeric_protocol)}

# each experiment: its config schema, its point builder and its runner
_EXPERIMENTS = {
    "moments": (_schema(_protocol_params, tolerance=(_POSITIVE, 1e-6)),
                _protocol_point, _run_moments),
    "sample": (_schema(_protocol_params, shots=(_integer(2), _REQUIRED)),
               _sample_point, _run_sample),
    "wigner": (_schema(_protocol_params,
                       grid=(functools.partial(_check, _GRID), _REQUIRED),
                       convention=(_one_of(*_MAPS), "paper"),
                       tolerance=(_or_null(_POSITIVE), None)),
               _wigner_point, _run_wigner),
    "validate-jj": (_schema(functools.partial(_check, _THREELEVEL),
                            t_final=(_or_null(_POSITIVE), None),
                            steps=(_integer(1), 100),
                            tolerance=(_POSITIVE, 0.05),
                            reference=(_one_of("fit", "predicted"), "fit")),
                    _jj_point, _run_validate_jj),
}


def resolve_config(experiment, raw):
    """Validate and canonicalize; the result is itself a valid config."""
    if isinstance(raw, dict) and "output_dir" not in raw:
        raw = {**raw, "output_dir": os.environ.get("QNDSIM_OUTPUT_DIR")}
    cfg = {"experiment": experiment, **_check(_EXPERIMENTS[experiment][0], raw, "config")}
    if cfg["nu_unit"] == "hz":
        for point in (cfg["params"], *cfg.get("sweep", ())):
            if "nu" in point:
                point["nu"] = 2.0 * math.pi * point["nu"]
        cfg["nu_unit"] = "rad_per_s"
    _built_points(experiment, cfg)  # every point builds before any computation
    return cfg


def _suffixed(name, index, sweep):
    if not sweep:
        return name
    stem, ext = name.split(".", 1)
    return f"{stem}_{index:03d}.{ext}"


def _rendered(runner, *call):
    """A --jobs worker's point, its CSV artifacts rendered to bytes in the worker."""
    files, results = runner(*call)
    for name, artifact in files.items():
        if callable(artifact):
            files[name] = buf = bytearray()
            artifact(buf.extend)
    return files, results


def _write(path, artifact):
    """Stream an artifact (bytes, or a CSV writer bound to its data) into the
    file at path; its manifest entry, from the bytes as they were written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def sink(chunk):
            digest.update(chunk)
            fh.write(chunk)
        artifact(sink) if callable(artifact) else sink(artifact)
        return {"sha256": digest.hexdigest(), "bytes": fh.tell()}


def _cpu_time():
    """User + system seconds of this process and of its reaped children
    (the --jobs pool joins its workers); os.times() counts only in clock
    ticks, so the process's own share is read at ns resolution."""
    return time.process_time() + sum(os.times()[2:4])


def run(experiment, cfg, jobs=1):
    """Execute a resolved config; returns (exit_code, manifest dict)."""
    t0, c0 = time.perf_counter(), _cpu_time()
    runner = _EXPERIMENTS[experiment][2]
    points = _built_points(experiment, cfg)
    calls = [(cfg, point, inputs, seed) for (point, inputs), seed
             in zip(points, _point_seeds(cfg["seed"], len(points)))]
    sweep = "sweep" in cfg

    if jobs > 1 and len(points) > 1:
        # imported here: a one-process run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            futures = [pool.submit(_rendered, runner, *call) for call in calls]
            outcomes = [f.result() for f in futures]
    else:
        outcomes = [runner(*call) for call in calls]

    results = [res for _, res in outcomes]
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}  # each file's manifest entry, in the order written
    for k, (files, _) in enumerate(outcomes):
        for name, artifact in files.items():
            path = out_dir / _suffixed(name, k, sweep)
            artifacts[path.name] = _write(path, artifact)

    failures = [k for k, res in enumerate(results)
                if res.get("tolerance_ok") is False]
    manifest = {
        "experiment": experiment,
        "package_version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "cpu_time_s": _cpu_time() - c0,
        "config": cfg,
        "results": results if sweep else results[0],
        "tolerance_ok": not failures,
        "artifacts": artifacts,
    }
    (out_dir / "manifest.json").write_bytes(_render_json(manifest))
    return (EXIT_TOLERANCE if failures else EXIT_OK), manifest


# ---------------------------------------------------------------------------
# argument handling

def _load_config(path, experiment):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and integers past the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if "config" in raw and "artifacts" in raw:
        inner = raw["config"]  # a manifest was passed; rerun its config
        if not isinstance(inner, dict):
            raise ConfigError(f"manifest {path} carries no config object")
        inner = dict(inner)
        if inner.pop("experiment", experiment) != experiment:
            raise ConfigError(
                f"manifest {path} was produced by a different experiment")
        raw = inner
    return raw


def _apply_sets(raw, assignments):
    for item in assignments:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        node, path = raw, "config"
        parts = key.split(".")
        for part in parts[:-1]:
            node, path = node.setdefault(part, {}), f"{path}.{part}"
            if not isinstance(node, dict):
                raise ConfigError(f"--set {item}: {path} is not an object")
        node[parts[-1]] = value
    return raw


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Deterministic batch runs of the readout-protocol experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config (or a manifest)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweep points")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        raw = _apply_sets(_load_config(args.config, args.experiment), args.set)
        code, _ = run(args.experiment, resolve_config(args.experiment, raw), jobs=args.jobs)
    except (ValueError, MemoryError) as exc:  # nothing is written; see "Exit codes"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if code == EXIT_TOLERANCE:
        print("tolerance failure; see manifest results", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
