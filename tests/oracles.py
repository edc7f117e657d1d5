"""Dense test oracles for the ladder exponentials.

The library applies every exponential of a ladder operator as an action,
fock.ladder_exp. These build the operators themselves with scipy's dense
expm of the truncated generator, an independent route to check it against.
"""

import numpy as np
from scipy.linalg import expm

# top-of-ladder levels excluded from unitarity checks
GUARD_BAND = 5


def ladder_generator(z, k, dim, k0=0):
    """z a'^k - z* a^k truncated to the Fock levels [k0, k0 + dim)."""
    a = np.diag(np.sqrt(np.arange(k0 + 1, k0 + dim, dtype=float)), k=1)
    ak = np.linalg.matrix_power(a, k).astype(complex)
    return z * ak.conj().T - np.conj(z) * ak


def displacement(alpha, dim):
    """D(alpha) = expm(alpha a' - alpha* a)."""
    return expm(ladder_generator(alpha, 1, dim))


def squeeze(r, dim):
    """S(r) = expm((r/2)(a'^2 - a^2)); on vacuum Var(Y) = e^{-2r}."""
    return expm(ladder_generator(0.5 * r, 2, dim))


def unitarity_defect(u, guard_band=GUARD_BAND):
    """max |(U'U - I)[i, j]| over the sub-block below the guard band."""
    k = u.shape[0] - guard_band
    g = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.abs(g[:k, :k]).max())
