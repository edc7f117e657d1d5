"""Pulsed-measurement protocol: closed-form moments and the matrix path.

The membrane starts thermal and the field in vacuum. The pulse pair
(squeeze by r, then phonon-conditioned displacement with area A) commutes
with the phonon number, so the pulse output is block-diagonal in phonon
number with a pure field state per block:

    rho = sum_n P(n) |n><n|_b (x) |psi_n><psi_n|_a,   psi_n = D(inA) S(r) |0>.

evolve_pulse(p) builds exactly that, and it is the only state this module
builds: a CompositeState of the thermal weights P(n) plus one windowed
field vector per block. The squeezed seed S(r)|0> is the closed form
fock.squeezed_vacuum; every displacement is the action fock.ladder_exp,
one step D(iA) per block (purely imaginary displacements compose exactly,
with zero Weyl phase: D(iA)^n = D(inA)), which keeps the cost linear in the
window width instead of quadratic in the full Fock dimension.
"""

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


@dataclass(frozen=True)
class CompositeState:
    """Phonon-blocked two-mode state: weights plus windowed field vectors.

    blocks[n] lives on Fock levels [offsets[n], offsets[n] + len(blocks[n])).
    params records the ProtocolParams that built the state.
    """

    pn: np.ndarray
    offsets: tuple
    blocks: tuple
    params: ProtocolParams


@dataclass(frozen=True)
class ConditionedFieldState:
    """Field state conditioned on a phonon-number outcome m: the normalised
    vector on the Fock levels [offset, offset + len(vector))."""

    m: int
    alpha_m: complex
    r: float
    weight: float
    offset: int
    vector: np.ndarray


@dataclass(frozen=True)
class FieldMoments:
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float


# ---------------------------------------------------------------------------
# states

def evolve_pulse(p):
    """The pulse output: thermal(N) weights, block n holding D(inA) S(r)|0>."""
    pn = fock.thermal_pn(p.N, fock.thermal_dim(p.N))
    offs, vecs = _displacement_chain(p.A, p.r, len(pn) - 1)
    return CompositeState(pn=pn, offsets=tuple(offs), blocks=tuple(vecs), params=p)


def conditioned_state(rho_tau, m):
    """Project on phonon outcome m: the normalised field state on block m's window."""
    if not 0 <= m < len(rho_tau.pn) or rho_tau.pn[m] <= 1e-12:
        raise ValueError("phonon outcome %r out of support" % m)
    p = rho_tau.params
    vec = rho_tau.blocks[m]
    return ConditionedFieldState(m=m, alpha_m=1j * m * p.A, r=p.r,
                                 weight=float(rho_tau.pn[m]),
                                 offset=rho_tau.offsets[m],
                                 vector=vec / np.linalg.norm(vec))


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


def relative_uncertainty(p):
    """sqrt(Var Y)/<Y>; tends to sqrt(1 + 1/N) as r grows."""
    if p.N == 0:
        raise ValueError("relative uncertainty undefined at N = 0")
    return math.sqrt(var_Y(p)) / mean_Y(p)


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


def N_from_temperature(T, nu):
    """Mean occupation from temperature (kelvin) at angular frequency nu."""
    if T <= 0 or nu <= 0:
        raise ValueError("N_from_temperature needs T > 0 and nu > 0")
    return 1.0 / math.expm1(hbar * nu / (k_B * T))


# ---------------------------------------------------------------------------
# matrix path

def field_moments_numeric(p):
    """Quadrature moments of the traced field state, via the block walk."""
    return composite_field_moments(evolve_pulse(p))


def composite_field_moments(state):
    ex = ey = ex2 = ey2 = 0.0
    for w, off, psi in zip(state.pn, state.offsets, state.blocks):
        xpsi, ypsi = fock.quadrature_action(psi, off)
        ex += w * np.vdot(psi, xpsi).real
        ey += w * np.vdot(psi, ypsi).real
        ex2 += w * np.vdot(xpsi, xpsi).real
        ey2 += w * np.vdot(ypsi, ypsi).real
    return FieldMoments(mean_x=ex, mean_y=ey,
                        var_x=ex2 - ex ** 2, var_y=ey2 - ey ** 2)


def _squeezed_seed(r):
    """S(r)|0> on the window of block 0."""
    _, hi = fock.window(0j, r, "the Fock window of block 0")
    return fock.squeezed_vacuum(r, hi)


def _displacement_chain(A, r, n_top):
    """Windowed vectors psi_n = D(inA) S(r) |0> for n = 0..n_top."""
    psi = _squeezed_seed(r)
    k0 = 0
    offs, vecs = [], []
    for n in range(n_top + 1):
        offs.append(k0)
        vecs.append(psi.copy())
        if n == n_top:
            break
        lo1, hi1 = fock.window(complex(0.0, (n + 1) * A), r,
                               "the Fock window of block %d" % (n + 1))
        lo1 = min(lo1, k0)
        grown = np.zeros(hi1 - lo1, dtype=complex)
        grown[k0 - lo1:k0 - lo1 + len(psi)] = psi
        psi, k0 = grown, lo1
        psi = fock.ladder_exp(psi, 1j * A, k0)
        prob = np.abs(psi) ** 2
        fock.check_edge_mass(prob, "the window of block %d" % (n + 1), k0)
        cut = int(np.searchsorted(np.cumsum(prob), 1e-18)) - fock.EDGE_LEVELS
        if cut > 0:
            psi, k0 = psi[cut:], k0 + cut
    return offs, vecs
