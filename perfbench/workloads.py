"""Workload configs for the four qndsim experiments and the checks on their outputs.

Every check recomputes its reference here, from the closed forms of the
physics, and never compares against a stored copy of earlier output.
A check returns a list of failure messages; an empty list means the
invocation's outputs are correct.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.constants import hbar, k as k_B

NU = 6.283185307179586e9  # rad/s, the README demo point
DEMO = {"A": 1.0, "e2r": 50.0, "N": 1.0, "nu": NU}

# Statistical checks accept z = 5 two-sided (false alarm 5.7e-7 per seed).
# At 3 sigma a correct sampler would fail one seed in 370, and two sets of
# benchmark runs meet dozens of seeds; see README "Checks".
Z_BAND = 5.0

JJ_LADDER = [(20.0, 1.6), (50.0, 10.0), (100.0, 40.0)]
JJ_COUPLING = {"g1": 1.0, "g2": 1.0, "G3": 1.0}

WIGNER_GRID = {"re_min": -12.0, "re_max": 12.0, "re_count": 49,
               "im_min": -0.75, "im_max": 34.05, "im_count": 2089}
SMALL_WIGNER_GRID = {"re_min": -6.0, "re_max": 6.0, "re_count": 13,
                     "im_min": -0.75, "im_max": 34.05, "im_count": 2089}


@dataclass(frozen=True)
class Workload:
    """One CLI experiment with its config, jobs count and output checks."""

    name: str
    experiment: str
    jobs: int
    make_config: Callable  # (cli_seed, small) -> config dict
    check: Callable  # (out_dir, config) -> list of failure messages


def cli_seed(seed):
    """The config's root seed, derived from the benchmark seed."""
    return random.Random(seed).getrandbits(63)


# ---------------------------------------------------------------------------
# configs

def sample_config(seed, small=False):
    return {"seed": seed, "shots": 10_000 if small else 1_000_000,
            "params": dict(DEMO)}


def moments_config(seed, small=False):
    base = dict(DEMO, e2r=10.0) if small else dict(DEMO)
    sweep = [{"N": 0.5}, {"N": 1.0}, {"N": 2.0},
             {"A": 2.0, "N": 3.0}, {"A": 0.5, "e2r": 10.0, "N": 3.0}]
    if small:
        sweep = [{"N": 0.5}, {"N": 1.0}, {"A": 0.5, "e2r": 4.0, "N": 2.0}]
    return {"seed": seed, "params": base, "sweep": sweep}


def wigner_config(seed, small=False):
    return {"seed": seed, "convention": "standard",
            "params": dict(DEMO, e2r=10.0) if small else dict(DEMO),
            "grid": dict(SMALL_WIGNER_GRID if small else WIGNER_GRID)}


def jj_config(seed, small=False):
    return {"seed": seed, "params": dict(JJ_COUPLING, Delta=20.0, beta=1.6, d_a=36),
            "sweep": [{"Delta": d, "beta": b} for d, b in JJ_LADDER],
            "t_final": 31.25, "steps": 500 if small else 5000}


# ---------------------------------------------------------------------------
# shared reference formulas

def params_r(point):
    return point["r"] if "r" in point else 0.5 * math.log(point["e2r"])


def var_y(A, N, r):
    """Var Y = 4 A^2 N (N+1) + e^{-2r}."""
    return 4.0 * A * A * N * (N + 1.0) + math.exp(-2.0 * r)


def thermal_p(N, n):
    return N ** n / (N + 1.0) ** (n + 1)


def read_json(path):
    return json.loads(Path(path).read_text())


def check_manifest(out_dir):
    """Every artifact on disk hashes to its manifest entry, and no tolerance failed."""
    manifest = read_json(Path(out_dir) / "manifest.json")
    failures = []
    for name, entry in manifest["artifacts"].items():
        blob = (Path(out_dir) / name).read_bytes()
        if hashlib.sha256(blob).hexdigest() != entry["sha256"] or len(blob) != entry["bytes"]:
            failures.append(f"{name}: sha256 or size differs from the manifest")
    if not manifest["tolerance_ok"]:
        failures.append("manifest reports a tolerance failure")
    return failures


# ---------------------------------------------------------------------------
# checks

def _mixture_moments(A, N, r):
    """Variance and fourth central moment of y = 2 A m + e^{-r} z with
    m ~ thermal(N) and z standard normal, from the cumulants of both parts."""
    k2 = N * (N + 1.0)  # cumulants of the geometric law on {0, 1, ...} with mean N
    k4 = k2 * (1.0 + 6.0 * k2)
    s = 2.0 * A
    var = s * s * k2 + math.exp(-2.0 * r)
    kappa4 = s ** 4 * k4  # the Gaussian part has no fourth cumulant
    return var, kappa4 + 3.0 * var * var


def check_sample(out_dir, cfg):
    failures = check_manifest(out_dir)
    p = cfg["params"]
    A, N, r, shots = p["A"], p["N"], params_r(p), cfg["shots"]
    est = read_json(Path(out_dir) / "estimate.json")

    vy = var_y(A, N, r)
    se = math.sqrt(vy / shots) / (2.0 * A)
    if abs(est["n_hat"] - N) > Z_BAND * se:
        failures.append(f"n_hat {est['n_hat']} is {abs(est['n_hat'] - N) / se:.2f} se from N = {N}")
    t_ref = hbar * p["nu"] / (k_B * math.log(1.0 + 1.0 / est["n_hat"]))
    if not math.isclose(est["t_hat_kelvin"], t_ref, rel_tol=1e-12):
        failures.append(f"t_hat_kelvin {est['t_hat_kelvin']} != hbar nu / (k_B ln(1 + 1/n_hat)) = {t_ref}")

    y = np.loadtxt(Path(out_dir) / "samples.csv", delimiter=",", skiprows=1, usecols=1)
    if y.size != shots:
        failures.append(f"samples.csv has {y.size} rows, expected {shots}")
    # The sample variance of a non-Gaussian law has variance
    # (mu4 - sigma^4 (n-3)/(n-1)) / n; the chi-square band would take mu4 = 3 sigma^4.
    var, mu4 = _mixture_moments(A, N, r)
    sd_s2 = math.sqrt((mu4 - var * var * (shots - 3.0) / (shots - 1.0)) / shots)
    s2 = float(np.var(y, ddof=1))
    if abs(s2 - var) > Z_BAND * sd_s2:
        failures.append(f"sample variance {s2} is {abs(s2 - var) / sd_s2:.2f} sd from Var Y = {var}")
    return failures


def check_moments(out_dir, cfg):
    failures = check_manifest(out_dir)
    points = [dict(cfg["params"], **over) for over in cfg["sweep"]]
    for k, point in enumerate(points):
        got = read_json(Path(out_dir) / f"moments_{k:03d}.json")
        A, N, r = point["A"], point["N"], params_r(point)
        refs = {"matrix_mean_y": 2.0 * A * N, "matrix_var_y": var_y(A, N, r),
                "matrix_mean_x": 0.0}
        for key, ref in refs.items():
            # relative, as the CLI's own tolerance; absolute against a zero target
            if not abs(got[key] - ref) <= 1e-6 * (abs(ref) or 1.0):
                failures.append(f"point {k}: {key} = {got[key]!r}, expected {ref!r}")
    return failures


def check_wigner(out_dir, cfg):
    failures = check_manifest(out_dir)
    p, g = cfg["params"], cfg["grid"]
    out = Path(out_dir)

    hist = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1, ndmin=2)
    ref = np.array([thermal_p(p["N"], int(n)) for n in hist[:, 0]])
    tv = 0.5 * float(np.abs(hist[:, 1] - ref).sum() + max(0.0, 1.0 - ref.sum()))
    if not tv < 0.02:
        failures.append(f"histogram total variation from the thermal law is {tv}")

    raw = read_json(out / "marginal.meta.json")["raw_integral"]
    if not abs(raw - 1.0) < 2e-3:
        failures.append(f"marginal raw_integral {raw} is not close to 1")

    grid = np.loadtxt(out / "wigner_grid.csv", delimiter=",", skiprows=1)
    if grid.shape != (g["re_count"] * g["im_count"], 3):
        failures.append(f"wigner_grid.csv has shape {grid.shape}")
        return failures
    h_im = (g["im_max"] - g["im_min"]) / (g["im_count"] - 1)
    h_re = (g["re_max"] - g["re_min"]) / (g["re_count"] - 1)
    j0 = round(-g["re_min"] / h_re)
    for n in (0, 1):
        i = round((n * p["A"] - g["im_min"]) / h_im)
        re, im, w = grid[i * g["re_count"] + j0]
        expect = thermal_p(p["N"], n) * 2.0 / math.pi
        if abs(re) > 1e-9 or abs(im - n * p["A"]) > 1e-9 or not abs(w - expect) < 1e-3 * expect:
            failures.append(f"W({re}, {im}) = {w}, expected P({n}) 2/pi = {expect}")
    return failures


def check_jj(out_dir, cfg):
    failures = check_manifest(out_dir)
    errors = []
    for k, (delta, beta) in enumerate(JJ_LADDER):
        rep = read_json(Path(out_dir) / f"validate_report_{k:03d}.json")
        g1, g2, g3 = (JJ_COUPLING[key] for key in ("g1", "g2", "G3"))
        x = g3 * beta / delta
        gamma = 2.0 * (g1 * g2 * g3 * beta / delta ** 2) / (1.0 - x * x)
        t = np.asarray(rep["times"])
        v = np.asarray(rep["varY_full"])
        if not abs(v[0] - 1.0) < 1e-12:
            failures.append(f"rung {k}: Var Y(0) = {v[0]}")
        ref = np.exp(-2.0 * gamma * t)
        errors.append(float(np.max(np.abs(v - ref) / ref)))
        if not rep["leakage_ok"]:
            failures.append(f"rung {k}: leakage_ok is false")
    if not errors[1] <= 0.05:
        failures.append(f"Delta = 50 rung misses exp(-2 gamma t) by {errors[1]}")
    if not errors[0] > errors[1] > errors[2]:
        failures.append(f"errors do not shrink along the ladder: {errors}")
    return failures


WORKLOADS = {w.name: w for w in (
    Workload("sample-1e6", "sample", 1, sample_config, check_sample),
    Workload("moments-sweep", "moments", 2, moments_config, check_moments),
    Workload("wigner-standard", "wigner", 1, wigner_config, check_wigner),
    Workload("jj-ladder", "validate-jj", 1, jj_config, check_jj),
)}

