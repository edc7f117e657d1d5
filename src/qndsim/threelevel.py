"""Validation of the engineered squeezing against a three-level atom model.

A qutrit with levels (g, i, e) couples to one field mode through both the
g-i and i-e transitions; a classical pump with amplitude beta drives g-e.
The simulation works in the frame where this Hamiltonian is
time-independent:

    H = -Delta (sigma_ee + sigma_gg)
        - (dp/2) (n + sigma_gg - sigma_ee)
        + [g1 a sigma_gi + g2 a sigma_ie + i beta G3 sigma_ge + h.c.]

where dp is the pump detuning parameter (the rate at which the pump phase
would rotate in the untwisted frame). With the atom prepared in |i> and
the field in vacuum, adiabatic elimination of g and e leaves an effective
parametric interaction that squeezes the Y quadrature.

Bookkeeping that matters when comparing against the effective model,
with kappa = g1 g2 G3 beta / Delta^2 and x = G3 beta / Delta:

* Exactly one third-order path takes |i, n> to |i, n-2>: through
  |g, n-1> (g1) and then |e, n-1> (pump), back to |i, n-2> (g2). It gives
  H_eff = i kappa (a^dag^2 - a^2), so Var(Y) = exp(-4 kappa t), i.e.
  gamma = 2 kappa in the report's exp(-2 gamma t) convention.
* The pump couples |g, m> and |e, m> at fixed photon number, so the g-e
  doublet can be treated exactly instead of to leading order in beta.
  Its resolvent carries the factor 1 / (1 - x^2), which dresses both the
  two-photon coefficient, kappa_d = kappa / (1 - x^2), and the per-photon
  Stark shift of |i, n>, delta / (1 - x^2) with
  delta = (g1^2 + g2^2)/Delta. The doublet is singular at G3 |beta| = Delta,
  which ThreeLevelParams rejects.
* gamma_eff_predicted = 2 kappa_d, and the default pump detuning is the
  dressed two-photon resonance dp = 2 delta / (1 - x^2). Block
  diagonalising the dense H onto the |i> manifold (in the tests)
  reproduces the a^dag^2 coefficient kappa_d up to O((g/Delta)^2).

H keeps the parity of n + [atom in {g, e}], and each parity sector is one
tridiagonal chain. H is time-independent and Hermitian, so evolve_full
samples the whole trajectory from |i, 0> by one eigendecomposition of the
chain that holds it (_parity_chain), checked by its eigen-residual and
unitarity defect, and the field moments come from the banded stencil
fock.quadrature_action applied to all samples at once.

Everything is expressed in angular-frequency units of the couplings; the
bare field and level frequencies are absorbed by the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock

LEVELS = {"g": 0, "i": 1, "e": 2}

LEAKAGE_BAND_FACTOR = 10.0

RATIO_MIN = 20.0  # least Delta / max(g) for the adiabatic elimination

PROPAGATOR_TOL = 1e-8  # bound on evolve_full's eigendecomposition defect
FIELD_TOL = 1e-6  # bound on the mass in the top two field levels over a validation run
ROW_BLOCK = 512  # samples per block of states and observables


@dataclass(frozen=True)
class ThreeLevelParams:
    g1: float
    g2: float
    G3: float
    Delta: float
    beta: float
    d_a: int = 32
    pump_detuning: float | None = None

    def __post_init__(self) -> None:
        vals = (self.g1, self.g2, self.G3, self.Delta, self.beta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("couplings, Delta, and beta must be finite")
        if min(self.g1, self.g2, self.G3) < 0.0:
            raise ValueError("coupling magnitudes must be nonnegative")
        if self.Delta <= 0.0:
            raise ValueError("Delta must be positive")
        if self.d_a < 2:
            raise ValueError("d_a must be at least 2")
        g_max = max(self.g1, self.g2, self.G3)
        if g_max > 0.0 and self.Delta < RATIO_MIN * g_max:
            raise ValueError(
                f"Delta = {self.Delta:g} violates Delta >= {RATIO_MIN:g} * max(g) "
                f"= {RATIO_MIN * g_max:g}"
            )
        if self.G3 * abs(self.beta) >= self.Delta:
            raise ValueError(
                f"G3 * |beta| = {self.G3 * abs(self.beta):g} must stay below "
                f"Delta = {self.Delta:g} (the dressed pump doublet is singular there)"
            )
        if self.pump_detuning is not None and not math.isfinite(self.pump_detuning):
            raise ValueError("pump_detuning must be finite when given")
        try:
            rates = (self.delta_small, self.gamma_eff_predicted, self.pump)
            finite = all(map(math.isfinite, rates))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"Delta = {self.Delta:g} overflows the Stark shift, rate or pump")

    @property
    def delta_small(self) -> float:
        return (self.g1**2 + self.g2**2) / self.Delta

    @property
    def kappa(self) -> float:
        return self.g1 * self.g2 * self.G3 * self.beta / self.Delta**2

    @property
    def dressing(self) -> float:
        """1 - x^2 with x = G3 beta / Delta: the exact g-e pump doublet factor."""
        return 1.0 - (self.G3 * self.beta / self.Delta) ** 2

    @property
    def gamma_eff_predicted(self) -> float:
        return 2.0 * self.kappa / self.dressing

    @property
    def pump(self) -> float:
        """Resolved pump detuning; defaults to the dressed two-photon resonance."""
        if self.pump_detuning is not None:
            return self.pump_detuning
        return 2.0 * self.delta_small / self.dressing


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    params: ThreeLevelParams


@dataclass(frozen=True)
class AdiabaticReport:
    times: np.ndarray
    sigma_ig: np.ndarray
    adiabatic_ig: np.ndarray
    sigma_ie: np.ndarray
    adiabatic_ie: np.ndarray
    max_rel_residual_ig: float
    max_rel_residual_ie: float

    @property
    def max_rel_residual(self) -> float:
        return max(self.max_rel_residual_ig, self.max_rel_residual_ie)


@dataclass(frozen=True)
class SqueezeValidationReport:
    """The fields in the order the CLI's validate_report.json exports them."""

    params: ThreeLevelParams
    gamma_eff_predicted: float
    gamma_eff_fit: float
    max_rel_error: float
    population_leakage: float
    leakage_band: float
    leakage_ok: bool
    times: np.ndarray
    varY_full: np.ndarray

    @property
    def varY_effective(self) -> np.ndarray:
        """The effective model's exp(-2 gamma_eff_predicted t) at the samples."""
        return np.exp(-2.0 * self.gamma_eff_predicted * self.times)


def _parity_chain(q: ThreeLevelParams):
    """Indices into the (3, d_a) state layout, diagonal and off-diagonal
    (entry j couples states j and j + 1) of the parity sector of H that
    holds |i, 0>: the chain of triples |i, n>, |e, n + 1>, |g, n + 1> with
    links g2 sqrt(n + 1), -i beta G3 and g1 sqrt(n + 2), for n = 0, 2, ...
    H couples no state of the chain to a state outside it."""
    j = np.arange(3 * q.d_a)
    n = 2 * (j // 3) + (j % 3 > 0)
    pos, n = j[n < q.d_a] % 3, n[n < q.d_a]  # the atom is in i, e, g at pos 0, 1, 2
    level = np.array([LEVELS["i"], LEVELS["e"], LEVELS["g"]])[pos]
    shift = np.array([0.0, -1.0, 1.0])[pos]  # sigma_gg - sigma_ee
    diag = -q.Delta * (pos > 0) - 0.5 * q.pump * (n + shift)
    ladder = np.array([q.g2, 0.0, q.g1])[pos[:-1]] * np.sqrt(n[1:])
    off = np.where(pos[:-1] == 1, -1j * q.beta * q.G3, ladder)
    return level * q.d_a + n, diag, off


def initial_vacuum_i(q: ThreeLevelParams) -> np.ndarray:
    psi = np.zeros(3 * q.d_a, dtype=complex)
    psi[LEVELS["i"] * q.d_a] = 1.0
    return psi


def evolve_full(q: ThreeLevelParams, t_final: float, steps: int) -> Trajectory:
    """Unitary evolution from |i, 0> sampled at steps + 1 equally spaced times.

    H is time-independent and Hermitian, and |i, 0> is the first state of
    one parity chain, so one eigendecomposition H V = V E of that chain
    gives every sample as psi(t) = V exp(-i E t) V' psi(0), with no error
    accumulated over steps (the eigenvector method, well conditioned for
    normal matrices; Moler & Van Loan, SIAM Rev. 45, 3 (2003)). The
    decomposition is checked first: the eigen-residual over the run,
    t_final max|HV - VE|, plus the unitarity defect max|V'V - I| must stay
    below PROPAGATOR_TOL, or ValueError naming t_final is raised.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError("t_final must be positive")
    idx, diag, off = _parity_chain(q)
    h = np.diag(diag) + np.diag(off, 1) + np.diag(off.conj(), -1)
    energies, vecs = np.linalg.eigh(h)
    defect = (t_final * np.max(np.abs(h @ vecs - vecs * energies))
              + np.max(np.abs(vecs.conj().T @ vecs - np.eye(idx.size))))
    if not defect <= PROPAGATOR_TOL:
        raise ValueError(f"t_final = {t_final:g}: eigendecomposition defect "
                         f"{defect:.3g} > {PROPAGATOR_TOL:g}")
    times = np.linspace(0.0, t_final, steps + 1)
    states = np.zeros((steps + 1, 3 * q.d_a), dtype=complex)
    coef = vecs[0].conj()  # V' psi(0)
    for lo in range(1, steps + 1, ROW_BLOCK):
        t = times[lo:lo + ROW_BLOCK, None]
        states[lo:lo + ROW_BLOCK, idx] = (np.exp(-1j * energies * t) * coef) @ vecs.T
    states[0] = initial_vacuum_i(q)  # exactly the initial vector, not V V' psi
    return Trajectory(times, states, q)


def _field_moments(traj: Trajectory) -> list[np.ndarray]:
    """Per-sample atom populations (samples, 3), field <n>, <a> = (<X> + i<Y>)/2
    and Var(Y) from the (samples, 3, d_a) view of the states, in row blocks."""
    view = traj.states.reshape(traj.times.size, 3, traj.params.d_a)
    levels = np.arange(traj.params.d_a, dtype=float)
    parts = []
    for lo in range(0, len(view), ROW_BLOCK):
        b = view[lo:lo + ROW_BLOCK]
        prob = b.real**2 + b.imag**2
        xb, yb = fock.quadrature_action(b)
        ex, ey = (np.einsum("kij,kij->k", b.conj(), v).real for v in (xb, yb))
        parts.append((prob.sum(axis=2), prob.sum(axis=1) @ levels, 0.5 * (ex + 1j * ey),
                      (yb.real**2 + yb.imag**2).sum(axis=(1, 2)) - ey**2))
    return [np.concatenate(column) for column in zip(*parts)]


def check_adiabatic_coherences(
    traj: Trajectory,
    q: ThreeLevelParams,
    smooth_cycles: float = 0.0,
) -> AdiabaticReport:
    """Residuals of the adiabatic formulas for <sigma_ig> and <sigma_ie>.

    The adiabatic solution keeps the leading field term plus the
    pump-mediated correction, with the pump amplitude replaced by the
    classical i*beta. Both sides are evaluated in the same
    time-independent frame, where the frame corrections are O(dp/Delta)
    below the reported residual.

    With smooth_cycles = 0 the raw sampled coherences are compared. The
    evolution is unitary, so an initial state off the adiabatic manifold
    carries an undamped oscillation at frequency ~Delta whose amplitude is
    comparable to the coherence itself; the adiabatic formulas describe
    the coarse-grained motion. Passing smooth_cycles > 0 averages every
    series over a boxcar window of that many fast periods (2*pi/Delta)
    before forming residuals, which requires the trajectory to resolve the
    fast scale.
    """
    n_t = traj.times.size
    b = traj.states.reshape(n_t, 3, q.d_a)
    b_i = b[:, LEVELS["i"]].conj()
    s_ig = np.einsum("kj,kj->k", b_i, b[:, LEVELS["g"]])
    s_ie = np.einsum("kj,kj->k", b_i, b[:, LEVELS["e"]])
    a_mean = _field_moments(traj)[2]
    times = traj.times

    if smooth_cycles > 0.0:
        dt = times[1] - times[0]
        w = round(smooth_cycles * 2.0 * math.pi / (q.Delta * dt))
        if w < 2 or w > n_t:
            raise ValueError(
                "trajectory sampling does not resolve the fast scale for the "
                "requested smoothing window"
            )
        kernel = np.full(w, 1.0 / w)

        def smooth(series):
            return np.convolve(series, kernel, mode="valid")

        s_ig, s_ie, a_mean = smooth(s_ig), smooth(s_ie), smooth(a_mean)
        times = smooth(times)

    pump_amp = 1j * q.beta * q.G3
    adia_ig = (q.g1 / q.Delta) * a_mean + (q.g2 / q.Delta**2) * np.conj(a_mean) * pump_amp
    adia_ie = (q.g2 / q.Delta) * np.conj(a_mean) + (q.g1 / q.Delta**2) * a_mean * np.conj(pump_amp)

    def rel(measured, target):
        scale = max(float(np.max(np.abs(target))), 1e-300)
        return float(np.max(np.abs(measured - target))) / scale

    return AdiabaticReport(
        times, s_ig, adia_ig, s_ie, adia_ie, rel(s_ig, adia_ig), rel(s_ie, adia_ie)
    )


def validate_effective_gamma(
    q: ThreeLevelParams,
    t_final: float,
    steps: int = 100,
) -> SqueezeValidationReport:
    """Compare full-model Var(Y)(t) against exp(-2 gamma_eff_predicted t).

    gamma_eff_predicted = 2 kappa / (1 - x^2): one third-order path
    (i -> g -> e -> i) with the g-e pump doublet treated exactly; see the
    module docstring. The fitted decay rate of the measured Var(Y) is
    reported alongside the prediction; max_rel_error is taken against the
    prediction so a normalization discrepancy shows up as a large value
    instead of being absorbed into the fit. The field's top two levels (one
    of each parity) must hold at most FIELD_TOL of the mass at every sample,
    or fock.TruncationError naming t_final is raised.
    """
    traj = evolve_full(q, t_final, steps)
    top = traj.states.reshape(traj.times.size, 3, q.d_a)[..., -2:]
    top = np.max(np.sum(top.real**2 + top.imag**2, axis=(1, 2)))
    if top > FIELD_TOL:
        raise fock.TruncationError(f"t_final = {t_final:g}: the field holds {top:.3g} of its "
                                   f"mass in its top two levels, above {FIELD_TOL:g}")
    pops, n_mean, _, v_full = _field_moments(traj)
    v_eff = np.exp(-2.0 * q.gamma_eff_predicted * traj.times)
    max_rel = float(np.max(np.abs(v_full - v_eff) / v_eff))
    fit = -0.5 * float(np.polyfit(traj.times, np.log(v_full), 1)[0])

    leakage = float(np.max(pops[:, LEVELS["g"]] + pops[:, LEVELS["e"]]))
    n_max = float(np.max(n_mean))
    band = LEAKAGE_BAND_FACTOR * (q.g1**2 + q.g2**2) * (n_max + 1.0) / q.Delta**2

    return SqueezeValidationReport(
        params=q,
        times=traj.times,
        varY_full=v_full,
        gamma_eff_predicted=q.gamma_eff_predicted,
        gamma_eff_fit=fit,
        max_rel_error=max_rel,
        population_leakage=leakage,
        leakage_band=band,
        leakage_ok=leakage <= band,
    )


def write_report_csv(report: SqueezeValidationReport) -> bytearray:
    return fock.write_csv("t,varY_full,varY_effective",
                          report.times, report.varY_full, report.varY_effective)
