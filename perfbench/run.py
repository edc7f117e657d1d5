"""Benchmark of the four qndsim CLI experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from the root of a qndsim checkout; it imports the package from
./src and writes only under perfbench/out/.

--trace 0 runs at least MIN_ROUNDS rounds, and more while the next one,
at the average round length so far, would end within S seconds. A round
is SETUP_PROBES set-up probes (each a fresh interpreter that imports
qndsim.cli and validates the workload's config) followed by one real
`python -m qndsim.cli` invocation, whose outputs are then checked. It
reports the median of each end-to-end metric over the rounds. Every
process is started through launch.py, which measures it.

--trace 1 runs pairs of one untraced and one traced invocation (see
tracer.py) by the same rule, at least one pair, and reports the per-layer
metrics, medians over the pairs.

--self-check runs every workload once at reduced size, traced and untraced,
and asserts that the moments sweep writes the same bytes at one and two
jobs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Progress goes to standard error.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

MIN_ROUNDS = 2
SETUP_PROBES = 3  # set-up probes per round; the round's setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s; children still running then are killed
STARTED = time.monotonic()

SETUP_PROBE = ("import json, sys\nimport qndsim.cli as cli\n"
               "with open(sys.argv[2], encoding='utf-8') as fh:\n"
               "    cli.resolve_config(sys.argv[1], json.load(fh))\n")
IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport qndsim.cli\n"
                "print(time.perf_counter() - t)\n")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.run_self_s": "s", "cli.artifact_bytes": "bytes",
    "fock.expm_calls": "count", "fock.expm_s": "s", "fock.expm_max_dim": "levels",
    "protocol.chain_s": "s", "protocol.chain_blocks": "count",
    "protocol.seeds_per_point": "count",
    "sampler.draw_s": "s", "sampler.render_s": "s", "sampler.render_mb_per_s": "MB/s",
    "wigner.walk_s": "s", "wigner.walk_matvecs": "count",
    "wigner.reconstruct_s": "s", "wigner.render_s": "s",
    "threelevel.evolve_s": "s", "threelevel.observables_s": "s",
    "threelevel.render_s": "s", "threelevel.steps": "count",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no program to measure, or a probe failed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QNDSIM_OUTPUT_DIR", None)
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, log_path):
    """Run argv to completion under launch.py: wall time from spawn to
    reaping, and the rusage of the process and every descendant it reaped
    (pool workers). A process killed at the run's deadline reports code -9."""
    result = Path(log_path).with_suffix(".rusage.json")
    result.unlink(missing_ok=True)
    with open(log_path, "wb") as log_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(LAUNCHER), str(result), *argv],
                                env=child_env(), cwd=ROOT, stdout=log_fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        limit = max(1.0, DEADLINE_S - (time.monotonic() - STARTED))
        timer = threading.Timer(limit, _kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
    if proc.returncode != 0 or not result.is_file():
        return {"code": -9, "wall_s": time.perf_counter() - t0, "start": t0,
                "cpu_s": 0.0, "peak_rss_mb": 0.0}
    return json.loads(result.read_text())


def probe(argv, log_path):
    res = spawn(argv, log_path)
    if res["code"] != 0:
        raise BenchError(f"probe {argv[1:3]} exited {res['code']}: "
                         + Path(log_path).read_text(errors="replace")[-400:])
    return res


class Case:
    """One workload's config written to disk, ready to invoke."""

    def __init__(self, wl, seed, small=False, jobs=None, tag="run"):
        self.wl = wl
        self.jobs = wl.jobs if jobs is None else jobs
        self.dir = OUT / wl.name / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out_dir = self.dir / "artifacts"
        self.cfg = wl.make_config(workloads.cli_seed(seed), small)
        self.cfg["output_dir"] = str(self.out_dir)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=1))

    def cli_args(self):
        return [self.wl.experiment, "--config", str(self.cfg_path), "--jobs", str(self.jobs)]

    def setup(self):
        """The median wall time of SETUP_PROBES set-up probes."""
        return statistics.median(
            probe([sys.executable, "-c", SETUP_PROBE, self.wl.experiment,
                   str(self.cfg_path)], self.dir / "probe.log")["wall_s"]
            for _ in range(SETUP_PROBES))

    def invoke(self, traced=False):
        """One CLI invocation and the checks on its outputs."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        spans = self.dir / "spans.json"
        prefix = [str(TRACER), str(spans)] if traced else ["-m", "qndsim.cli"]
        res = spawn([sys.executable, *prefix, *self.cli_args()], self.dir / "cli.log")
        failures = []
        if res["code"] != 0:
            tail = (self.dir / "cli.log").read_text(errors="replace")[-400:]
            failures.append(f"exit {res['code']}: {tail}")
        # The CLI writes its artifacts and manifest before exiting 3 on a
        # tolerance miss, so the checks run whatever the exit code.
        try:
            failures += self.wl.check(self.out_dir, self.cfg)
            if traced:
                res["spans"] = json.loads(spans.read_text())["spans"]
                res["manifest"] = workloads.read_json(self.out_dir / "manifest.json")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"output unreadable: {exc!r}")
        res["failures"] = failures
        return res


def _more(t0, seconds, done, least):
    """Start another operation while fewer than `least` are done, or while
    it would end within `seconds` at the average length so far; never past
    the run's deadline."""
    now = time.monotonic()
    if now - STARTED >= DEADLINE_S:
        return False
    return done < least or (now - t0) * (done + 1) / done <= seconds


def measure(case, seconds):
    t0 = time.monotonic()
    rows = []
    while _more(t0, seconds, len(rows), MIN_ROUNDS):
        setup = case.setup()
        res = case.invoke()
        res["setup_s"] = setup
        rows.append(res)
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log(f"{case.wl.name} round {len(rows)}: wall {res['wall_s']:.3f} s, cpu "
            f"{res['cpu_s']:.3f} s, rss {res['peak_rss_mb']:.1f} MB (run.py's own peak "
            f"{own_rss:.1f} MB), setup {setup:.3f} s, failures {res['failures']}")
    ok = [r for r in rows if not r["failures"]] or rows
    metrics = {name: {"value": statistics.median(r[name] for r in ok), "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return rows, metrics


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def layer_metrics(spans, manifest, setup_s, wall_traced, wall_plain):
    """The per-layer metrics of one traced invocation (see README)."""
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s[3] is not None:
            covered[s[3]] += dur[k]
    self_t = [d - c for d, c in zip(dur, covered)]

    def total(*names, own=False):
        times = self_t if own else dur
        return sum(t for s, t in zip(spans, times) if s[0] in names)

    def under(k, name):
        while spans[k][3] is not None:
            k = spans[k][3]
            if spans[k][0] == name:
                return True
        return False

    expm = [s for s in spans if s[0] in ("fock.squeeze", "fock.displacement")]
    pulses = [s for s in spans if s[0] == "protocol.evolve_pulse"]
    pulse_seeds = sum(1 for k, s in enumerate(spans)
                      if s[0] == "fock.squeeze" and under(k, "protocol.evolve_pulse"))
    artifacts = manifest["artifacts"]
    sample_bytes = sum(a["bytes"] for n, a in artifacts.items() if n.startswith("samples"))
    render_s = total("sampler.write_record_csv")

    return {
        "cli.run_self_s": total("cli.run", own=True),
        "cli.artifact_bytes": sum(a["bytes"] for a in artifacts.values()),
        "fock.expm_calls": len(expm),
        "fock.expm_s": total("fock.squeeze", "fock.displacement"),
        "fock.expm_max_dim": max((s[4]["dim"] for s in expm), default=0),
        "protocol.chain_s": total("protocol.evolve_pulse", own=True),
        "protocol.chain_blocks": sum(s[4]["blocks"] for s in pulses),
        "protocol.seeds_per_point": pulse_seeds / len(pulses) if pulses else 0.0,
        "sampler.draw_s": total("sampler.sample_record", "sampler.estimate"),
        "sampler.render_s": render_s,
        "sampler.render_mb_per_s": sample_bytes / 1e6 / render_s if render_s else 0.0,
        "wigner.walk_s": total("wigner.wigner_numeric_protocol", own=True),
        "wigner.walk_matvecs": sum(s[4]["matvecs"] for s in spans
                                   if s[0] == "wigner.wigner_numeric_protocol"),
        "wigner.reconstruct_s": total("wigner.marginal_P", "wigner.reconstruct_pn"),
        "wigner.render_s": total("wigner.write_grid_csv", "wigner.write_marginal_csv",
                                 "wigner.write_histogram_csv"),
        "threelevel.evolve_s": total("threelevel.evolve_full"),
        "threelevel.observables_s": (total("threelevel.field_var_y")
                                     + total("threelevel.validate_effective_gamma", own=True)),
        "threelevel.render_s": total("threelevel.write_report_csv"),
        "threelevel.steps": sum(s[4]["steps"] for s in spans if s[0] == "threelevel.evolve_full"),
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.unaccounted_s": wall_traced - setup_s - sum(self_t),
    }


def trace(case, seconds):
    """Pairs of untraced and traced invocations, one job each."""
    t0 = time.monotonic()
    rows, pairs = [], []
    while _more(t0, seconds, len(rows) // 2, 1):
        probe([sys.executable, "-c", IMPORT_PROBE], case.dir / "import.log")
        import_s = float((case.dir / "import.log").read_text().split()[-1])
        setup = case.setup()
        plain = case.invoke()
        traced = case.invoke(traced=True)
        rows += [plain, traced]
        if plain["failures"] or traced["failures"]:
            continue
        values = layer_metrics(traced["spans"], traced["manifest"], setup,
                               traced["wall_s"], plain["wall_s"])
        values["cli.import_s"] = import_s
        pairs.append(values)
        spans = traced["spans"]
        before = spans[0][1] - traced["start"]
        after = traced["start"] + traced["wall_s"] - max(sp[2] for sp in spans)
        log(f"{case.wl.name} traced pair {len(pairs)}: plain {plain['wall_s']:.3f} s, "
            f"traced {traced['wall_s']:.3f} s, import {import_s:.3f} s, "
            f"setup {setup:.3f} s, before the first span {before:.3f} s, after the last {after:.3f} s")
    metrics = {name: {"value": statistics.median(p[name] for p in pairs) if pairs else 0.0,
                      "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    return rows, metrics


# ---------------------------------------------------------------------------

def preflight():
    if not (SRC / "qndsim" / "cli.py").is_file():
        raise BenchError(f"no qndsim source under {SRC}; run from the root of a checkout")


def self_check():
    failures = []
    for wl in workloads.WORKLOADS.values():
        case = Case(wl, seed=1, small=True, jobs=1, tag="self-check")
        plain = case.invoke()
        traced = case.invoke(traced=True)
        failures += [f"{wl.name}: {f}" for f in plain["failures"] + traced["failures"]]
        if not failures:
            values = layer_metrics(traced["spans"], traced["manifest"], 0.0,
                                   traced["wall_s"], plain["wall_s"])
            log(f"{wl.name}: plain {plain['wall_s']:.2f} s, traced {traced['wall_s']:.2f} s, "
                + ", ".join(f"{k} {v:.4g}" for k, v in values.items() if v))
    wl = workloads.WORKLOADS["moments-sweep"]
    blobs = []
    for jobs in (1, 2):
        case = Case(wl, seed=1, small=True, jobs=jobs, tag=f"jobs-{jobs}")
        res = case.invoke()
        failures += [f"moments-sweep --jobs {jobs}: {f}" for f in res["failures"]]
        blobs.append({p.name: p.read_bytes() for p in case.out_dir.iterdir()
                      if p.name != "manifest.json"})
    if blobs[0] != blobs[1]:
        failures.append("moments-sweep artifacts differ between --jobs 1 and --jobs 2")
    for f in failures:
        log(f"FAIL {f}")
    log("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")

    try:
        preflight()
        if args.self_check:
            return self_check()
        wl = workloads.WORKLOADS[args.workload]
        if args.trace:
            rows, metrics = trace(Case(wl, args.seed, jobs=1, tag="trace"), args.seconds)
        else:
            rows, metrics = measure(Case(wl, args.seed), args.seconds)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    failed = sum(1 for r in rows if r["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": len(rows), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
