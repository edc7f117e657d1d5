"""Acceptance gates: one test per criterion, one printed pass/fail line each.

Criterion 7 gates the three-level Var(Y) against exp(-2 gamma t) with the
reference gamma = 2 kappa / (1 - x^2): one third-order path and the g-e
pump doublet treated exactly, driven at the dressed two-photon resonance
(see the threelevel module docstring). The ladder holds kappa fixed while
x = G3 beta / Delta grows, so the error must shrink as Delta grows; the
test prints the measured error and the fitted rate next to the reference.
"""

import dataclasses
import itertools
import json
import math
import statistics
import time

import numpy as np
import pytest

import oracles
from qndsim import cli, fock, protocol, sampler, threelevel, wigner

NU = 2 * math.pi * 1e9
R50 = 0.5 * math.log(50.0)

GRID_A = (0.25, 0.5, 1.0, 2.0)
GRID_N = (0.0, 0.5, 1.0, 3.0)
GRID_E2R = (1.0, 10.0, 50.0)

DEMO_SPEC = wigner.GridSpec(re_min=-36.0, re_max=36.0, re_count=145,
                            im_min=-0.75, im_max=34.05, im_count=2089)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _moment_grid():
    for A, N, e2r in itertools.product(GRID_A, GRID_N, GRID_E2R):
        yield protocol.ProtocolParams(A=A, r=0.5 * math.log(e2r), N=N, nu=NU)


@pytest.fixture(scope="module")
def grid_pass():
    """One pulse per grid point, shared by criteria 1 and 5: each point's
    field moments, the closed forms of the truncated law its blocks sum and
    its phonon marginal (the block vectors are dropped), and the seconds
    the pass took."""
    t0 = time.perf_counter()
    points = []
    for p in _moment_grid():
        state = protocol.evolve_pulse(p)
        points.append((p, protocol.composite_field_moments(state),
                       protocol.truncated_law_moments(state), oracles.phonon_marginal(state)))
    return points, time.perf_counter() - t0


def _closed_form_error(p, m):
    """Largest gap of the moments m to the untruncated thermal law's closed
    forms: relative, absolute against a zero target. It holds the thermal
    tail the truncated law drops."""
    my, vy = protocol.mean_Y(p), protocol.var_Y(p)
    return max(abs(m.mean_y - my) / (abs(my) if my else 1.0), abs(m.var_y - vy) / vy)


def _truncated_law_gap(m, law):
    """Largest gap of the moments m to the closed forms of the law the
    blocks are weighted by, in the same measure: rounding alone."""
    return max(abs(getattr(m, k) - getattr(law, k)) / (abs(getattr(law, k)) or 1.0)
               for k in ("mean_y", "var_x", "var_y"))


def test_criterion_1_moment_grid_matches_closed_forms(grid_pass):
    points, pass_s = grid_pass
    t0 = time.perf_counter()
    worst = max(_closed_form_error(p, m) for p, m, _, _ in points)
    gap = max(_truncated_law_gap(m, law) for _, m, law, _ in points)
    elapsed = pass_s + time.perf_counter() - t0
    ok = worst <= 1e-6 and gap <= 1e-12 and elapsed < 60.0
    _report(1, ok, f"48-point grid worst rel error {worst:.2e} (gate 1e-6), "
                   f"truncated-law gap {gap:.2e} (gate 1e-12), {elapsed:.1f}s (gate 60s)")


def test_criterion_1_gap_sees_one_block_off_by_1e_9():
    """One block scaled by 1 + 1e-9 passes the closed-form gate, which the
    thermal tail fills to about 1e-8, and fails the truncated-law gate."""
    p = protocol.ProtocolParams(A=1.0, r=R50, N=1.0, nu=NU)
    state = protocol.evolve_pulse(p)
    blocks = list(state.blocks)
    blocks[1] = blocks[1] * (1.0 + 1e-9)
    off = dataclasses.replace(state, blocks=tuple(blocks))
    m = protocol.composite_field_moments(off)
    assert _closed_form_error(p, m) <= 1e-6
    assert _truncated_law_gap(m, protocol.truncated_law_moments(off)) > 1e-12


def test_criterion_2_demo_histogram_total_variation():
    t0 = time.perf_counter()
    p = protocol.ProtocolParams(A=1.0, r=R50, N=1.0, nu=NU)
    grid = wigner.wigner_paper(p, DEMO_SPEC)
    hist = wigner.reconstruct_pn(wigner.marginal_P(grid), p)
    tv = wigner.total_variation(
        hist.probabilities, oracles.thermal_pn(1.0, len(hist.probabilities)))
    elapsed = time.perf_counter() - t0
    ok = tv < 0.02 and elapsed < 30.0
    _report(2, ok, f"TV to geometric {tv:.2e} (gate 0.02), "
                   f"{elapsed:.1f}s (gate 30s)")


def _mixture_moments(p):
    """Var y and the fourth central moment of y = 2 A m + e^{-r} z, m
    thermal(N), z standard normal, from the cumulants of both parts."""
    k2 = p.N * (p.N + 1.0)  # geometric cumulants: k4 = k2 (1 + 6 k2)
    var = 4.0 * p.A ** 2 * k2 + math.exp(-2.0 * p.r)
    kappa4 = 16.0 * p.A ** 4 * k2 * (1.0 + 6.0 * k2)  # the Gaussian adds none
    return var, kappa4 + 3.0 * var * var


def test_criterion_3_estimator_within_bands():
    t0 = time.perf_counter()
    p = protocol.ProtocolParams(A=1.0, r=R50, N=1.0, nu=NU)
    record = sampler.sample_record(p, 100000, 42)
    estimate = sampler.estimate(record)
    _, y = oracles.record_arrays(record)
    stderr = math.sqrt(8.02) / (2.0 * math.sqrt(record.shots))
    mean_ok = abs(estimate.n_hat - 1.0) <= 3.0 * stderr
    # 99 % band of the sample variance from the fourth moment of y, the
    # thermal-plus-Gaussian mixture (kurtosis 9.47, not a Gaussian's 3)
    var, mu4 = _mixture_moments(p)
    n = record.shots
    half = (statistics.NormalDist().inv_cdf(0.995)
            * math.sqrt((mu4 - var * var * (n - 3.0) / (n - 1.0)) / n) / var)
    lo, hi = 1.0 - half, 1.0 + half
    ratio = float(np.var(y, ddof=1)) / var
    var_ok = lo <= ratio <= hi
    elapsed = time.perf_counter() - t0
    ok = mean_ok and var_ok and elapsed < 10.0
    _report(3, ok, f"N_hat {estimate.n_hat:.4f} (3 stderr = {3*stderr:.4f}), "
                   f"var ratio {ratio:.4f} in [{lo:.4f}, {hi:.4f}], "
                   f"{elapsed:.1f}s (gate 10s)")


def test_criterion_4_squeezed_vacuum_variance():
    # S(r)|0>, the pulse output's block 0 on its window: it spans the
    # ~18 e^{2r} levels of the antisqueezed tail
    (off,), (d,) = fock.displaced_squeezed([0.0], R50)
    psi = oracles.phased(off, d)
    dim = len(psi)
    y = oracles.quadrature_y(dim)
    ypsi = y @ psi
    var = float(np.vdot(ypsi, ypsi).real - np.vdot(psi, ypsi).real ** 2)
    err = abs(var - 0.02) / 0.02
    ok = err <= 1e-6
    _report(4, ok, f"Var(Y) = {var!r} vs 0.02, rel error {err:.2e} (gate 1e-6)")


def test_criterion_5_qnd_phonon_marginal_invariance(grid_pass):
    worst = 0.0
    for p, _, _, marginal in grid_pass[0]:
        pn = p.law.pn
        worst = max(worst, float(np.abs(marginal - pn).max()))
    ok = worst <= 1e-12
    _report(5, ok, f"max phonon-marginal change {worst:.2e} (gate 1e-12)")


def test_criterion_6_misassignment_statistics():
    p = protocol.ProtocolParams(A=1.0, r=0.9, N=1.0, nu=NU)
    predicted = sampler.misassignment_probability(p)
    record = sampler.sample_record(p, 100000, 2026)
    m_true, y = oracles.record_arrays(record)
    empirical = float((sampler.assign_m(y, p) != m_true).mean())
    band = 3.0 * math.sqrt(predicted * (1.0 - predicted) / record.shots)
    ok = abs(empirical - predicted) <= band
    _report(6, ok, f"predicted {predicted:.5f}, empirical {empirical:.5f}, "
                   f"|diff| {abs(empirical - predicted):.2e} (band {band:.2e})")


def test_criterion_7_three_level_tracks_reference_exponent():
    t0 = time.perf_counter()
    errors = []
    fits = []
    reports = []
    for Delta, beta in ((20.0, 1.6), (50.0, 10.0), (100.0, 40.0)):
        q = threelevel.ThreeLevelParams(g1=1.0, g2=1.0, G3=1.0,
                                        Delta=Delta, beta=beta, d_a=36)
        report = threelevel.validate_effective_gamma(q, 31.25, steps=100)
        errors.append(report.max_rel_error)
        fits.append(report.gamma_eff_fit)
        reports.append(report)
    elapsed = time.perf_counter() - t0
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    ok = errors[1] <= 0.05 and monotone and elapsed < 300.0
    _report(7, ok,
            f"rel error vs exp(-2*{reports[1].gamma_eff_predicted:.5f}*t) at Delta=50: "
            f"{errors[1]:.3f} (gate 0.05); fitted rate {fits[1]:.5f} = "
            f"{fits[1]/reports[1].params.kappa:.2f}*kappa; "
            f"ladder errors {[round(e, 3) for e in errors]} "
            f"(monotone: {monotone}); {elapsed:.1f}s (gate 300s)")


def test_criterion_8_temperature_round_trip_and_spot_value():
    worst = 0.0
    for N in (0.1, 0.5, 1.0, 3.0, 25.0):
        for nu in (5e7, NU, 2 * math.pi * 6e9):
            T = protocol.temperature_from_N(N, nu)
            worst = max(worst, abs(oracles.N_from_temperature(T, nu) - N) / N)
    spot = protocol.temperature_from_N(1.0, NU)
    spot_ok = abs(spot - 0.0692384) <= 5e-8
    ok = worst <= 1e-12 and spot_ok
    _report(8, ok, f"round-trip worst rel error {worst:.2e} (gate 1e-12), "
                   f"spot T = {spot*1e3:.4f} mK (frozen 69.2384)")


def test_criterion_9_artifact_determinism(tmp_path):
    config = {
        "seed": 11, "shots": 5000, "output_dir": str(tmp_path / "a"),
        "params": {"A": 1.0, "e2r": 50.0, "N": 1.0, "nu": NU},
        "sweep": [{"N": 0.5}, {"N": 1.0}],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["sample", "--config", str(cfg_path)]) == 0
    assert cli.main(["sample", "--config", str(tmp_path / "a" / "manifest.json"),
                     "--set", f"output_dir={tmp_path / 'b'}", "--jobs", "2"]) == 0

    names = sorted(p.name for p in (tmp_path / "a").iterdir() if p.name != "manifest.json")
    same = all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
               for n in names)
    ok = bool(names) and same
    _report(9, ok, f"{len(names)} artifacts byte-identical across rerun "
                   f"from manifest with --jobs 2: {same}")
