"""Pulsed-measurement protocol: closed-form moments and the matrix path.

The membrane starts thermal and the field in vacuum. The pulse pair
(squeeze by r, then phonon-conditioned displacement with area A) commutes
with the phonon number, so the pulse output is block-diagonal in phonon
number with a pure field state per block:

    rho = sum_n P(n) |n><n|_b (x) |psi_n><psi_n|_a,   psi_n = D(inA) S(r) |0>.

evolve_pulse(p) builds exactly that, and it is the only state this module
builds: a CompositeState of the thermal weights P(n) plus one windowed
real field vector per block. All blocks come from one forward pass of
fock.displaced_squeezed, the Fock-amplitude recurrence of the annihilation
equation of D(inA) S(r)|0>, each on its own fock.window; no displacement
operator is applied. truncated_law_moments gives the closed forms of the
law the blocks are weighted by, the kept and renormalised P(n), which the
matrix moments meet up to rounding. temperature_from_N is the one N -> T
map; its inverse and a block's conditioned state are test oracles.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock

# reduced Planck and Boltzmann constants, J s and J/K: exact in the 2019 SI
hbar = 6.62607015e-34 / (2 * math.pi)
k_B = 1.380649e-23


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol knobs.

    A:   dimensionless pulse area (conditional displacement per phonon)
    r:   dimensionless squeeze parameter (rate times squeeze duration)
    N:   mean thermal phonon number
    nu:  mechanical angular frequency, rad/s
    """

    A: float
    r: float
    N: float
    nu: float

    def __post_init__(self):
        for name in ("A", "r", "N", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.A <= 0:
            raise ValueError("pulse area A must be > 0")
        if self.r < 0:
            raise ValueError("squeeze parameter r must be >= 0")
        if self.r > 0.5 * math.log(np.finfo(float).max):  # the r of the largest e2r
            raise ValueError("squeeze parameter r = %g is past the range of e^{2r}" % self.r)
        if self.N < 0:
            raise ValueError("thermal occupation N must be >= 0")
        if self.nu <= 0:
            raise ValueError("mechanical frequency nu must be > 0")

    @functools.cached_property
    def law(self):
        """fock.ThermalLaw(N), built once per point and pickled with it."""
        return fock.ThermalLaw(self.N)


@dataclass(frozen=True)
class CompositeState:
    """Phonon-blocked two-mode state: weights plus windowed field vectors.

    blocks[n] is float64 on the Fock levels [offsets[n], offsets[n] + len),
    in the real gauge: <m|psi_n> = i^m blocks[n][m - offsets[n]]. params
    records the ProtocolParams that built the state.
    """

    pn: np.ndarray
    offsets: tuple
    blocks: tuple
    params: ProtocolParams


@dataclass(frozen=True)
class FieldMoments:
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float


# ---------------------------------------------------------------------------
# states

def evolve_pulse(p):
    """The pulse output: p.law's weights, block n holding D(inA) S(r)|0>."""
    offs, vecs = fock.displaced_squeezed(p.A * np.arange(p.law.dim), p.r)
    return CompositeState(pn=p.law.pn, offsets=tuple(offs), blocks=tuple(vecs), params=p)


# ---------------------------------------------------------------------------
# closed-form moments

def mean_Y(p):
    """<Y> = 2AN."""
    return 2.0 * p.A * p.N


def mean_X(p):
    """<X> = 0."""
    return 0.0


def var_Y(p):
    """Var(Y) = 4 A^2 N (N+1) + e^{-2r}."""
    return 4.0 * p.A ** 2 * p.N * (p.N + 1.0) + math.exp(-2.0 * p.r)


def distinguishability_threshold(A):
    """Squeeze parameter beyond which neighbouring outcomes separate."""
    return -0.5 * math.log(2.0 * A)


def is_distinguishable(p):
    return p.r > distinguishability_threshold(p.A)


def temperature_from_N(N, nu):
    """Kelvin from mean occupation at angular frequency nu (rad/s)."""
    if N <= 0 or nu <= 0:
        raise ValueError("temperature_from_N needs N > 0 and nu > 0")
    return hbar * nu / (k_B * math.log1p(1.0 / N))


# ---------------------------------------------------------------------------
# matrix path

def composite_field_moments(state):
    """Quadrature moments of the traced field state, as real sums over each
    block d and its (x, y) = fock.quadrature_action: <Y> = d.y, <X^2> = x.x,
    <Y^2> = y.y. <X> = -i d.x is set to 0.0, not summed: d.x = d.(L - L')d = 0."""
    ey = ex2 = ey2 = 0.0
    for w, off, d in zip(state.pn, state.offsets, state.blocks):
        x, y = fock.quadrature_action(d, off)
        ey += w * np.dot(d, y)
        ex2 += w * np.dot(x, x)
        ey2 += w * np.dot(y, y)
    return FieldMoments(mean_x=0.0, mean_y=ey, var_x=ex2, var_y=ey2 - ey ** 2)


def truncated_law_moments(state):
    """The closed-form moments of the law state's blocks are weighted by,
    its kept and renormalised P(n) rather than the untruncated thermal law:
    <X> = 0, <Y> = 2A sum_n n P(n), Var X = e^{2r} and
    Var Y = 4A^2 Var_P(n) + e^{-2r}."""
    p = state.params
    n = np.arange(len(state.pn))
    mean_n = float(np.dot(n, state.pn))
    var_n = float(np.dot((n - mean_n) ** 2, state.pn))
    return FieldMoments(mean_x=0.0, mean_y=2.0 * p.A * mean_n, var_x=math.exp(2.0 * p.r),
                        var_y=4.0 * p.A ** 2 * var_n + math.exp(-2.0 * p.r))

