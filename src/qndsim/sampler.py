"""Monte Carlo pulsed-measurement records and the N/T estimator.

Each shot draws a latent phonon number m from the thermal law, then a
quadrature outcome y from the conditional Gaussian Normal(2mA, e^{-2r}).
Assignment rounds y to the nearest outcome center (ties to even, clamped at
zero); estimation inverts the ensemble mean, <Y> = 2AN.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock, protocol
from .protocol import hbar, k_B


@dataclass(frozen=True)
class MeasurementRecord:
    y: np.ndarray
    m_true: np.ndarray
    params: protocol.ProtocolParams
    seed: int

    @property
    def shots(self):
        return len(self.y)


@dataclass(frozen=True)
class EstimateReport:
    n_hat: float
    n_stderr: float
    t_hat_kelvin: float | None
    t_stderr_kelvin: float | None
    misassign_rate: float
    shots: int
    seed: int


def sample_record(p, shots, seed):
    """Draw a reproducible record of (y, m_true) pairs: m from p.law.draw,
    then y from the conditional Gaussian, on one generator seeded by seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    m = p.law.draw(rng, shots)
    y = 2.0 * p.A * m + math.exp(-p.r) * rng.standard_normal(shots)
    return MeasurementRecord(y=y, m_true=m, params=p, seed=seed)


def assign_m(y, p):
    """Nearest outcome center of each y: round(y / 2A), half to even, clamped at 0."""
    return np.maximum(np.rint(y / (2.0 * p.A)).astype(int), 0)


def interior_misassignment(A, r):
    """Two-sided tail past half the center spacing: erfc(A e^r / sqrt 2)."""
    # math.erfc: within 2.1 ulp of a 50-digit reference on [0.5, 20],
    # where scipy.special.erfc is up to 250 ulp off
    return math.erfc(A * math.exp(r) / math.sqrt(2.0))


def misassignment_probability(p):
    """P(n)-averaged misassignment; the m = 0 bin is one-sided.

    Interior m lose to |noise| > A on either side; m = 0 only to noise > A
    (the clamp absorbs the negative side), so its tail carries half weight:
    total = (1 - P(0)/2) erfc(A e^r / sqrt 2).
    """
    return (1.0 - 0.5 * p.law.p0) * interior_misassignment(p.A, p.r)


def _dT_dN(N, nu):
    lg = math.log1p(1.0 / N)
    return hbar * nu / k_B / (lg * lg * N * (N + 1.0))


def estimate(record):
    """Invert <Y> = 2AN; propagate the standard error to T by delta method.

    A nonpositive N estimate leaves the temperature undefined; the T fields
    are then None (serialized as JSON null).
    """
    if record.shots < 2:
        raise ValueError("estimation needs at least 2 shots")
    p = record.params
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below, if not finite
        n_hat = float(np.mean(record.y)) / (2.0 * p.A)
        n_stderr = float(np.std(record.y, ddof=1)) / (2.0 * p.A * math.sqrt(record.shots))
    if not (math.isfinite(n_hat) and math.isfinite(n_stderr)):
        raise fock.TruncationError("the N estimate at A = %g is not finite: the record's "
                                   "mean or spread overflows" % p.A)
    if n_hat > 0:
        t_hat = protocol.temperature_from_N(n_hat, p.nu)
        t_stderr = _dT_dN(n_hat, p.nu) * n_stderr
    else:
        t_hat = None
        t_stderr = None
    mis = float(np.mean(assign_m(record.y, p) != record.m_true))
    return EstimateReport(n_hat=n_hat, n_stderr=n_stderr, t_hat_kelvin=t_hat,
                          t_stderr_kelvin=t_stderr, misassign_rate=mis,
                          shots=record.shots, seed=record.seed)


def write_record_csv(record, write):
    """Hand write the CSV rows `shot,y,m_true`, floats in shortest round-trip form."""
    fock.write_csv(write, "shot,y,m_true", range(record.shots), record.y, record.m_true)
