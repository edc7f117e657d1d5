"""Truncated Fock-space engine: ladder operators, the one action kernel for
exponentials of ladder operators, the quadrature stencil, headroom rules,
the thermal law with its tail budget, and the CSV renderer.

Quadrature convention, the single source of truth for the whole package:
X = a + a', Y = i(a' - a), so the vacuum has Var(X) = Var(Y) = 1.

All matrices are plain complex numpy arrays; all functions are pure.
"""

import numpy as np

# truncated thermal tail mass allowed before renormalization
THERMAL_TAIL = 1e-10

# rows rendered per slice by write_csv
CSV_CHUNK = 65536


class TruncationError(ValueError):
    """Construction refused: not enough truncation headroom or tail mass."""


def annihilation(dim):
    """Ladder operator with entries a[n-1, n] = sqrt(n)."""
    if dim < 2:
        raise ValueError("operator dimension must be >= 2, got %r" % dim)
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def number(dim):
    return np.diag(np.arange(dim, dtype=complex))


def quadrature_action(psi, k0=0):
    """(X psi, Y psi) with X and Y truncated to the Fock levels
    [k0, k0 + n) of psi's last axis, n its length: the banded ladder
    stencil behind every quadrature moment."""
    ks = np.sqrt(np.arange(k0 + 1, k0 + psi.shape[-1], dtype=float))
    xpsi = np.zeros_like(psi)
    xpsi[..., 1:] += ks * psi[..., :-1]
    xpsi[..., :-1] += ks * psi[..., 1:]
    ypsi = np.zeros_like(psi)
    ypsi[..., 1:] += 1j * ks * psi[..., :-1]
    ypsi[..., :-1] -= 1j * ks * psi[..., 1:]
    return xpsi, ypsi


def basis(dim):
    """Fock vacuum |0> as a column vector of length dim."""
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    return v


def chebyshev_coefficients(tau):
    """Coefficients of exp(i tau x) = sum_m c_m T_m(x) on [-1, 1]:
    c_0 = J_0(tau), c_m = 2 i^m J_m(tau), kept up to the last m whose tail
    sum of |c_m| is above double precision (at least two terms)."""
    from scipy.special import jv  # on first use, as every scipy import here

    m = np.arange(int(2.0 * tau) + 64)  # J_m(tau) is negligible long before
    bessel = jv(m, tau)
    tail = np.cumsum(np.abs(bessel[::-1]))[::-1]
    count = max(2, int(np.count_nonzero(2.0 * tail > np.finfo(float).eps)))
    coef = 2.0 * np.array([1, 1j, -1, -1j])[m[:count] % 4] * bessel[:count]
    coef[0] *= 0.5
    return coef


def ladder_exp(psi, z, k, k0=0):
    """exp(z a'^k - z* a^k) psi for k in (1, 2): D(alpha) is k = 1 with
    z = alpha, S(r) is k = 2 with z = r/2. psi is a vector or a block of
    column vectors on the Fock levels [k0, k0 + len(psi)), to which the
    generator is truncated.

    The generator is R i|z| X R' with X = a'^k + a^k and the diagonal phase
    R = exp(i (arg z - pi/2) n / k). exp(i|z| X) is the Chebyshev series of
    exp(i tau x) in x = X / (2 L), with L the window's top ladder entry, so
    ||x|| <= 1 (Gershgorin) and tau = 2 |z| L (Tal-Ezer & Kosloff 1984).
    """
    from scipy.linalg.blas import daxpy as axpy
    from scipy.sparse import diags  # on first use: no CLI start-up pays for it

    if k not in (1, 2):
        raise ValueError("ladder power k must be 1 or 2, got %r" % k)
    psi = np.asarray(psi, dtype=complex)
    levels = np.arange(k0, k0 + len(psi), dtype=float)
    ladder = np.sqrt(levels[1:len(psi) - k + 1] if k == 1
                     else levels[1:len(psi) - 1] * levels[2:])
    if z == 0 or not ladder.size:
        return psi.copy()
    shape = (-1,) + (1,) * (psi.ndim - 1)
    phase = np.exp(1j * (np.angle(z) - 0.5 * np.pi) / k * levels).reshape(shape)
    # real and imaginary parts side by side: x is real, so the series is too
    real = np.ascontiguousarray(phase.conj() * psi).view(float).reshape(len(psi), -1)
    lift = ladder / ladder[-1]
    two_x = diags([lift, lift], [-k, k], format="csr")
    coef = chebyshev_coefficients(2.0 * abs(z) * ladder[-1])
    c = coef.real + coef.imag  # i^m is real at even m, imaginary at odd m
    tm1, t0 = real, 0.5 * (two_x @ real)
    sums = [c[0] * tm1, c[1] * t0]
    for m in range(2, len(c)):
        t1 = two_x @ t0
        axpy(tm1.ravel(), t1.ravel(), a=-1.0)  # axpy updates y in place
        axpy(t1.ravel(), sums[m % 2].ravel(), a=c[m])
        tm1, t0 = t0, t1
    out = sums[0].view(complex) + 1j * sums[1].view(complex)
    return phase * out.reshape(psi.shape)


def displacement_dim(alpha):
    """Smallest dimension satisfying the displacement headroom rule."""
    return max(2, int(np.ceil(4.0 * abs(alpha) ** 2)))


def thermal_dim(N):
    """Smallest dimension with truncated thermal tail mass <= THERMAL_TAIL."""
    if N < 0:
        raise ValueError("mean occupation must be >= 0, got %r" % N)
    if N == 0:
        return 2
    d = int(np.ceil(np.log(THERMAL_TAIL) / np.log(N / (N + 1.0))))
    return max(2, d)


def check_thermal_tail(N, dim, name="dim"):
    """Raise TruncationError when the thermal mass beyond the first dim
    levels, (N/(N+1))^dim (all of it when dim < 1), exceeds THERMAL_TAIL;
    name is the truncation's name in the message."""
    if N < 0:
        raise ValueError("mean occupation must be >= 0, got %r" % N)
    tail = (N / (N + 1.0)) ** max(dim, 0)  # 0.0 ** 0 is 1: no level keeps all
    if tail > THERMAL_TAIL:
        raise TruncationError(
            "thermal tail mass %.3g exceeds %.3g at %s %d; need %s >= %d"
            % (tail, THERMAL_TAIL, name, dim, name, thermal_dim(N) if N else 1))


def thermal_pn(N, dim):
    """Occupation probabilities P(n) = N^n/(N+1)^{n+1}, renormalized, under
    check_thermal_tail."""
    check_thermal_tail(N, dim)
    n = np.arange(dim)
    p = np.exp(n * np.log(N / (N + 1.0)) - np.log(N + 1.0)) if N > 0 else \
        np.concatenate(([1.0], np.zeros(dim - 1)))
    return p / p.sum()


def write_csv(fh, header, *columns):
    """CSV rows of equal-length numpy columns, each value as repr of its
    Python scalar (shortest round-trip floats), CSV_CHUNK rows at a time."""
    fh.write(header + "\n")
    for start in range(0, len(columns[0]), CSV_CHUNK):
        cells = [map(repr, c[start:start + CSV_CHUNK].tolist()) for c in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
