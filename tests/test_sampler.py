"""Sampler checks: exact draw laws, erfc analytics, estimator statistics."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfcinv
from scipy.stats import chi2, chisquare

from qndsim import fock, protocol, sampler

R50 = 0.5 * math.log(50.0)
NU = 2 * math.pi * 1e9

ERFC_5 = 1.5374597944280347e-12
ERFC_HALF = 0.4795001221869535


def params(A=1.0, r=R50, N=1.0):
    return protocol.ProtocolParams(A=A, r=r, N=N, nu=NU)


def test_draw_refuses_a_law_past_int64():
    """numpy's int64 geometric draw saturates at N = 1e19 (n_hat read 6e18);
    such a law is refused before any draw, and N = 1e12 keeps the draw as
    it was, with no randomness taken by the bound."""
    with pytest.raises(fock.TruncationError, match="N = 1e\\+19"):
        sampler.sample_record(params(N=1e19), 10, 1)
    p = params(N=1e12)
    rec = sampler.sample_record(p, 1000, 5)
    rng = np.random.default_rng(5)
    m = rng.geometric(1.0 / (p.N + 1.0), size=1000) - 1
    np.testing.assert_array_equal(rec.m_true, m)
    np.testing.assert_array_equal(rec.y, 2.0 * p.A * m + math.exp(-p.r) * rng.standard_normal(1000))


def test_record_determinism():
    p = params()
    a = sampler.sample_record(p, 5000, 42)
    b = sampler.sample_record(p, 5000, 42)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.m_true, b.m_true)
    c = sampler.sample_record(p, 5000, 43)
    assert not np.array_equal(a.y, c.y)


def test_thermal_draw_matches_geometric_law():
    rec = sampler.sample_record(params(N=1.0), 200000, 11)
    edges = np.arange(15)
    counts = np.array([(rec.m_true == n).sum() for n in edges])
    counts = np.append(counts, (rec.m_true >= 15).sum())
    pn = 0.5 ** (edges + 1.0)
    pn = np.append(pn, 1.0 - pn.sum())
    res = chisquare(counts, pn * rec.shots)
    assert res.pvalue > 1e-3


def test_vacuum_shots_standard_normal():
    rec = sampler.sample_record(params(A=1.0, r=0.0, N=0.0), 100000, 7)
    assert (rec.m_true == 0).all()
    assert abs(rec.y.mean()) <= 4.0 / math.sqrt(rec.shots)
    lo, hi = chi2.ppf([0.005, 0.995], rec.shots - 1) / (rec.shots - 1)
    assert lo <= rec.y.var(ddof=1) <= hi


def test_demo_point_mean_and_variance_bands():
    p = params()
    rec = sampler.sample_record(p, 100000, 42)
    stderr = math.sqrt(8.02 / rec.shots)
    assert abs(rec.y.mean() - 2.0) <= 3.0 * stderr
    lo, hi = chi2.ppf([0.005, 0.995], rec.shots - 1) / (rec.shots - 1)
    assert lo <= rec.y.var(ddof=1) / 8.02 <= hi


def test_assign_m_examples():
    # negative y clamps to 0, and ties (y = 1, 3, 5) land on even m
    got = sampler.assign_m(np.array([2.1, -0.4, 1.0, 3.0, 5.0]), params(A=1.0))
    assert np.array_equal(got, [1, 0, 0, 2, 2])


def test_misassignment_closed_form():
    p = params(A=1.0, r=R50, N=1.0)
    assert sampler.interior_misassignment(1.0, R50) == \
        pytest.approx(ERFC_5, rel=1e-12)
    assert sampler.misassignment_probability(p) == \
        pytest.approx(0.75 * ERFC_5, rel=1e-12)
    # at the bare visibility threshold the per-pair tail is erfc(1/2): the
    # threshold separates peaks, it does not make assignment error-free
    thr = protocol.distinguishability_threshold(1.0)
    assert sampler.interior_misassignment(1.0, thr) == \
        pytest.approx(ERFC_HALF, rel=1e-12)
    assert sampler.misassignment_probability(params(A=1.0, r=20.0)) == 0.0


def test_empirical_misassignment_band():
    # r tuned so the rate is ~1e-2 and measurable at 1e5 shots
    r = math.log(math.sqrt(2.0) * erfcinv(0.01 / 0.75))
    p = params(A=1.0, r=r, N=1.0)
    pred = sampler.misassignment_probability(p)
    assert pred == pytest.approx(0.01, abs=1e-12)
    rec = sampler.sample_record(p, 100000, 42)
    rep = sampler.estimate(rec)
    band = 3.0 * math.sqrt(pred * (1 - pred) / rec.shots)
    assert abs(rep.misassign_rate - pred) <= band


def test_estimate_formulas():
    p = params()
    rec = sampler.sample_record(p, 20000, 3)
    rep = sampler.estimate(rec)
    assert rep.n_hat == rec.y.mean() / 2.0
    assert rep.n_stderr == rec.y.std(ddof=1) / (2.0 * math.sqrt(rec.shots))
    # delta method against a finite difference of the temperature map
    h = 1e-6 * rep.n_hat
    d = (protocol.temperature_from_N(rep.n_hat + h, NU)
         - protocol.temperature_from_N(rep.n_hat - h, NU)) / (2 * h)
    assert rep.t_stderr_kelvin == pytest.approx(d * rep.n_stderr, rel=1e-6)
    assert rep.t_hat_kelvin == pytest.approx(
        protocol.temperature_from_N(rep.n_hat, NU), rel=1e-12)
    assert rep.shots == 20000 and rep.seed == 3


def test_estimate_flags_undefined_temperature():
    p = params(A=1.0, r=0.0, N=0.0)
    rec = sampler.MeasurementRecord(y=np.zeros(100), m_true=np.zeros(100, int),
                                    params=p, seed=0)
    rep = sampler.estimate(rec)
    assert rep.n_hat == 0.0
    assert rep.t_hat_kelvin is None and rep.t_stderr_kelvin is None
    with pytest.raises(ValueError):
        sampler.estimate(sampler.MeasurementRecord(
            y=np.zeros(1), m_true=np.zeros(1, int), params=p, seed=0))


@pytest.mark.parametrize("A", [1e308, 1e200])
def test_estimate_refuses_a_record_whose_statistics_overflow(A):
    # at 1e308 y = 2Am is inf or nan; at 1e200 only the spread overflows
    with np.errstate(over="ignore", invalid="ignore"):
        rec = sampler.sample_record(params(A=A), 100, 1)
        with pytest.raises(fock.TruncationError, match=re.escape("estimate at A = %g is" % A)):
            sampler.estimate(rec)
    rep = sampler.estimate(sampler.sample_record(params(A=1e150), 100, 1))
    assert math.isfinite(rep.n_hat) and math.isfinite(rep.n_stderr)


def test_stderr_shrinks_with_sqrt_shots():
    p = params()
    r1 = sampler.estimate(sampler.sample_record(p, 40000, 8))
    r2 = sampler.estimate(sampler.sample_record(p, 80000, 9))
    assert r1.n_stderr / r2.n_stderr == pytest.approx(math.sqrt(2.0), rel=0.05)


def test_estimator_replication_consistency():
    # empirical spread of N_hat over 200 replications vs the CLT prediction
    p = params()
    seeds = np.random.SeedSequence(2027).generate_state(200)
    hats = [sampler.estimate(sampler.sample_record(p, 2000, int(s))).n_hat
            for s in seeds]
    predicted = math.sqrt(protocol.var_Y(p)) / (2.0 * math.sqrt(2000))
    assert np.std(hats, ddof=1) == pytest.approx(predicted, rel=0.15)
    assert np.mean(hats) == pytest.approx(1.0, abs=4 * predicted / math.sqrt(200))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(A=st.floats(0.25, 2.0), log_e2r=st.floats(0.0, math.log(50.0)), N=st.floats(0.05, 5.0))
def test_estimate_covers_N_at_the_normal_rate(A, log_e2r, N):
    """|N_hat - N| <= 2 N_stderr holds for a share 0.9545 of seeds; over
    400 seeds of 2000 shots that share lies within 4 binomial standard
    deviations, [0.913, 0.996]."""
    p = params(A=A, r=0.5 * log_e2r, N=N)
    reports = [sampler.estimate(sampler.sample_record(p, 2000, seed)) for seed in range(400)]
    covered = np.mean([abs(rep.n_hat - N) <= 2.0 * rep.n_stderr for rep in reports])
    assert 0.913 <= covered <= 0.996


def test_record_csv_format():
    p = params()
    rec = sampler.MeasurementRecord(y=np.array([0.25, -1.5]),
                                    m_true=np.array([0, 1]), params=p, seed=5)
    buf = bytearray()
    sampler.write_record_csv(rec, buf.extend)
    assert buf == b"shot,y,m_true\n0,0.25,0\n1,-1.5,1\n"


def test_report_json_keys():
    p = params()
    rep = sampler.estimate(sampler.sample_record(p, 100, 1))
    d = dataclasses.asdict(rep)
    assert list(d) == ["n_hat", "n_stderr", "t_hat_kelvin", "t_stderr_kelvin",
                       "misassign_rate", "shots", "seed"]
