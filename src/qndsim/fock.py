"""Truncated Fock-space engine: ladder operators, canonical transforms,
thermal states, and two-mode composite algebra.

Quadrature convention, the single source of truth for the whole package:
X = a + a', Y = i(a' - a), so the vacuum has Var(X) = Var(Y) = 1.

All matrices are plain complex numpy arrays; all functions are pure.
"""

import warnings

import numpy as np
from scipy.linalg import expm

# top-of-ladder levels excluded from unitarity checks
GUARD_BAND = 5

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


def creation(dim):
    return annihilation(dim).conj().T


def number(dim):
    return np.diag(np.arange(dim, dtype=complex))


def quadrature_x(dim):
    """X = a + a'."""
    a = annihilation(dim)
    return a + a.conj().T


def quadrature_y(dim):
    """Y = i(a' - a)."""
    a = annihilation(dim)
    return 1j * (a.conj().T - a)


def basis(dim, n=0):
    """Fock basis column vector |n>."""
    if not 0 <= n < dim:
        raise ValueError("basis index %r outside dimension %r" % (n, dim))
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def _headroom(ok, message, on_headroom):
    if ok:
        return
    if on_headroom == "warn":
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    else:
        raise TruncationError(message)


def displacement(alpha, dim, on_headroom="raise"):
    """D(alpha) = expm(alpha a' - alpha* a).

    Headroom rule |alpha|^2 <= dim/4; a violation raises TruncationError,
    or warns when on_headroom="warn".
    """
    _headroom(abs(alpha) ** 2 <= dim / 4.0,
              "displacement |alpha|^2 = %.3g exceeds dim/4 = %.3g"
              % (abs(alpha) ** 2, dim / 4.0), on_headroom)
    a = annihilation(dim)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeeze(r, dim, on_headroom="raise"):
    """S(r) = expm((r/2)(a'^2 - a^2)).

    Acting on vacuum: Var(Y) = e^{-2r}, Var(X) = e^{+2r}.
    Headroom rule e^{2|r|} <= dim/8.
    """
    _headroom(np.exp(2 * abs(r)) <= dim / 8.0,
              "squeeze e^{2|r|} = %.3g exceeds dim/8 = %.3g"
              % (np.exp(2 * abs(r)), dim / 8.0), on_headroom)
    a = annihilation(dim)
    ad = a.conj().T
    return expm(0.5 * r * (ad @ ad - a @ a))


def displacement_dim(alpha):
    """Smallest dimension satisfying the displacement headroom rule."""
    return max(2, int(np.ceil(4.0 * abs(alpha) ** 2)))


def squeeze_dim(r):
    """Smallest dimension satisfying the squeeze headroom rule."""
    return max(2, int(np.ceil(8.0 * np.exp(2 * abs(r)))))


def thermal_dim(N, tail=THERMAL_TAIL):
    """Smallest dimension with truncated thermal tail mass <= tail."""
    if N < 0:
        raise ValueError("mean occupation must be >= 0, got %r" % N)
    if N == 0:
        return 2
    d = int(np.ceil(np.log(tail) / np.log(N / (N + 1.0))))
    return max(2, d)


def thermal_pn(N, dim):
    """Occupation probabilities P(n) = N^n/(N+1)^{n+1}, renormalized.

    The truncated tail mass (N/(N+1))^dim must not exceed THERMAL_TAIL.
    """
    if N < 0:
        raise ValueError("mean occupation must be >= 0, got %r" % N)
    tail = (N / (N + 1.0)) ** dim if N > 0 else 0.0
    if tail > THERMAL_TAIL:
        raise TruncationError(
            "thermal tail mass %.3g exceeds %.3g at dim %d; need dim >= %d"
            % (tail, THERMAL_TAIL, dim, thermal_dim(N)))
    n = np.arange(dim)
    p = np.exp(n * np.log(N / (N + 1.0)) - np.log(N + 1.0)) if N > 0 else \
        np.concatenate(([1.0], np.zeros(dim - 1)))
    return p / p.sum()


def thermal_state(N, dim):
    """Diagonal thermal density operator with mean occupation N."""
    return np.diag(thermal_pn(N, dim)).astype(complex)


def tensor(a, b):
    return np.kron(a, b)


def partial_trace(rho, dims, keep):
    """Reduced state of subsystem `keep` (0 or 1) of a bipartite matrix.

    dims is the ordered pair of subsystem dimensions.
    """
    d0, d1 = dims
    if rho.shape != (d0 * d1, d0 * d1):
        raise ValueError("state shape %r does not match dims %r"
                         % (rho.shape, dims))
    r = rho.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError("keep must be 0 or 1, got %r" % keep)


def expectation(rho, op):
    """tr(op rho)."""
    if rho.shape != op.shape:
        raise ValueError("dimension mismatch: %r vs %r" % (rho.shape, op.shape))
    return complex(np.einsum("ij,ji->", op, rho))


def unitarity_defect(u, guard_band=GUARD_BAND):
    """max |(U'U - I)[i, j]| over the sub-block below the guard band."""
    k = u.shape[0] - guard_band
    g = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.abs(g[:k, :k]).max())


def write_csv(fh, header, *columns):
    """CSV rows of equal-length numpy columns, each value as repr of its
    Python scalar (shortest round-trip floats), CSV_CHUNK rows at a time."""
    fh.write(header + "\n")
    for start in range(0, len(columns[0]), CSV_CHUNK):
        cells = [map(repr, c[start:start + CSV_CHUNK].tolist()) for c in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
