"""Monte Carlo pulsed-measurement records and the N/T estimator.

Each shot draws a phonon number m from the thermal law, then an outcome y
from Normal(2mA, e^{-2r}); each reader of a record draws it again in chunks.
Assignment rounds y to the nearest outcome center (ties to even, clamped at
zero); estimation inverts the ensemble mean, <Y> = 2AN.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock, protocol
from .protocol import hbar, k_B

# shots per chunk of a record, at most 2^26 (_exact_sum's bins): of 4096 to
# 16384, 8192 ran fastest at 1e6 shots; 2^16 lifts the render's peak to 2.6 MB
DRAW_CHUNK = 2 * fock.CSV_CHUNK


@dataclass(frozen=True)
class MeasurementRecord:
    """shots (m, y) pairs, kept as their seed and the state past their m draws."""
    params: protocol.ProtocolParams
    shots: int
    seed: int
    normals: dict

    def chunks(self):
        """(m, y) of DRAW_CHUNK shots at a time, the bits of one whole draw: m
        from p.law.draw on seed's generator, y = 2Am + e^{-r} z, z from normals."""
        p, ms, zs = self.params, np.random.default_rng(self.seed), np.random.default_rng()
        zs.bit_generator.state = self.normals
        for start in range(0, self.shots, DRAW_CHUNK):
            m = p.law.draw(ms, min(DRAW_CHUNK, self.shots - start))
            yield m, 2.0 * p.A * m + math.exp(-p.r) * zs.standard_normal(len(m))


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
    """A record of (m, y) pairs from seed, its normals' state found by one pass of m draws, not
    by bit_generator.advance: below p0 = 1/3 numpy's geometric takes varying words per draw."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    for start in range(0, shots, DRAW_CHUNK):
        p.law.draw(rng, min(DRAW_CHUNK, shots - start))
    return MeasurementRecord(params=p, shots=shots, seed=seed, normals=rng.bit_generator.state)


def assign_m(y, p):
    """Nearest outcome center of each y: round(y / 2A), half to even, clamped to
    [0, 2^62] (the draw's level budget) on y, so no divide overflows or cast wraps."""
    q = np.clip(y, 0.0, 2.0**63 * p.A)
    q /= 2.0 * p.A
    return np.rint(q, out=q).astype(int)


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
    lg = math.log1p(1.0 / N)  # lg * N stays near 1 at large N, where lg * lg underflows
    return hbar * nu / k_B / (lg * N) / (lg * (N + 1.0))


def _exact_sum(y):
    """The exact sum of the finite y in units of 2^-1127: y = q 2^(e - 53), |q| < 2^53,
    e >= -1073, and the q's high and low 26 bits sum exactly in float64 per e."""
    f, e = np.frexp(y)
    q, low = np.ldexp(f, 53).astype(np.int64), int(e.min())
    hi, lo = (np.bincount(e - low, weights=w).tolist() for w in (q >> 26, q & (2**26 - 1)))
    return sum((int(h) << 26) + int(l) << k for k, (h, l) in enumerate(zip(hi, lo))) << low + 1074


def estimate(record):
    """Invert <Y> = 2AN, its mean the exact sum of y, its spread from (count, mean, M2) merges
    (Chan, Golub & LeVeque, Am. Stat. 37, 242 (1983)); the delta method gives T's error.

    A nonpositive N estimate leaves the temperature undefined; the T fields
    are then None (serialized as JSON null).
    """
    if record.shots < 2:
        raise ValueError("estimation needs at least 2 shots")
    p = record.params
    n, total, mean, m2, wrong = 0, 0, 0.0, 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below, if not finite
        for m, y in record.chunks():
            k, mean_k = len(y), float(np.sum(y)) / len(y)
            delta = mean_k - mean
            m2 += float(np.sum((y - mean_k) ** 2)) + delta * delta * (n * k / (n + k))
            n, mean = n + k, mean + delta * k / (n + k)
            total += _exact_sum(y) if math.isfinite(m2) else 0  # m2 is inf or nan once a y is
            wrong += int(np.count_nonzero(assign_m(y, p) != m))
        n_hat = total / (record.shots << 1127) / (2.0 * p.A)
        n_stderr = math.sqrt(m2 / (record.shots - 1)) / (2.0 * p.A * math.sqrt(record.shots))
    if not (math.isfinite(n_hat) and math.isfinite(n_stderr)):
        raise fock.TruncationError("the N estimate at A = %g is not finite: the record's "
                                   "mean or spread overflows" % p.A)
    t_hat = t_stderr = None
    if n_hat > 0:
        t_hat, t_stderr = protocol.temperature_from_N(n_hat, p.nu), _dT_dN(n_hat, p.nu) * n_stderr
        if not (math.isfinite(t_hat) and math.isfinite(t_stderr)):
            raise fock.TruncationError("the T estimate at nu = %g and n_hat = %g is not finite: T "
                                       "or its standard error is past float range" % (p.nu, n_hat))
    return EstimateReport(n_hat=n_hat, n_stderr=n_stderr, t_hat_kelvin=t_hat,
                          t_stderr_kelvin=t_stderr, misassign_rate=wrong / n,
                          shots=record.shots, seed=record.seed)


def write_record_csv(record, write):
    """Hand write the CSV rows `shot,y,m_true`, chunk by chunk, floats in repr's form."""
    for start, (m, y) in zip(range(0, record.shots, DRAW_CHUNK), record.chunks()):
        header = None if start else "shot,y,m_true"
        fock.write_csv(write, header, range(start, start + len(m)), y, m)
