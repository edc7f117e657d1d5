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
  diagonalising build_full_hamiltonian onto the |i> manifold (in the
  tests) reproduces the a^dag^2 coefficient kappa_d up to O((g/Delta)^2).

H is time-independent and Hermitian, so evolve_full samples the whole
trajectory from one eigendecomposition, checked by its eigen-residual and
unitarity defect, and the field moments come from the banded stencil
fock.quadrature_action applied to all samples at once.

Everything is expressed in angular-frequency units of the couplings; the
bare field and level frequencies are absorbed by the frame.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fock

LEVELS = {"g": 0, "i": 1, "e": 2}

LEAKAGE_BAND_FACTOR = 10.0

RATIO_MIN = 20.0  # least Delta / max(g) for the adiabatic elimination

PROPAGATOR_TOL = 1e-8  # bound on evolve_full's eigendecomposition defect
ROW_BLOCK = 512  # samples per block of states and observables


def sigma(row: str, col: str) -> np.ndarray:
    """Qutrit basis operator |row><col| in the fixed (g, i, e) ordering."""
    m = np.zeros((3, 3), dtype=complex)
    m[LEVELS[row], LEVELS[col]] = 1.0
    return m


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
    params: ThreeLevelParams
    times: np.ndarray
    varY_full: np.ndarray
    varY_effective: np.ndarray
    gamma_eff_predicted: float
    gamma_eff_fit: float
    max_rel_error: float
    population_leakage: float
    leakage_band: float
    leakage_ok: bool


def build_full_hamiltonian(q: ThreeLevelParams) -> np.ndarray:
    """Time-independent qutrit (x) field Hamiltonian, qutrit factor first."""
    a = fock.annihilation(q.d_a)
    id_f = np.eye(q.d_a, dtype=complex)
    dp = q.pump
    h = -q.Delta * np.kron(sigma("e", "e") + sigma("g", "g"), id_f)
    h -= 0.5 * dp * (
        np.kron(np.eye(3, dtype=complex), fock.number(q.d_a))
        + np.kron(sigma("g", "g") - sigma("e", "e"), id_f)
    )
    v = (
        q.g1 * np.kron(sigma("g", "i"), a)
        + q.g2 * np.kron(sigma("i", "e"), a)
        + 1j * q.beta * q.G3 * np.kron(sigma("g", "e"), id_f)
    )
    return h + v + v.conj().T


def initial_vacuum_i(q: ThreeLevelParams) -> np.ndarray:
    psi = np.zeros(3 * q.d_a, dtype=complex)
    psi[LEVELS["i"] * q.d_a] = 1.0
    return psi


def evolve_full(
    q: ThreeLevelParams,
    t_final: float,
    steps: int,
    initial: np.ndarray | None = None,
) -> Trajectory:
    """Unitary evolution sampled at steps + 1 equally spaced times.

    H is time-independent and Hermitian, so one eigendecomposition
    H V = V E gives every sample as psi(t) = V exp(-i E t) V' psi(0), with
    no error accumulated over steps (the eigenvector method, well
    conditioned for normal matrices; Moler & Van Loan, SIAM Rev. 45, 3
    (2003)). The decomposition is checked first: the eigen-residual over
    the run, t_final max|HV - VE|, plus the unitarity defect max|V'V - I|
    must stay below PROPAGATOR_TOL, or RuntimeError is raised.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError("t_final must be positive")
    psi = initial_vacuum_i(q) if initial is None else np.asarray(initial, dtype=complex)
    if psi.shape != (3 * q.d_a,):
        raise ValueError(f"initial state must have length {3 * q.d_a}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")

    h = build_full_hamiltonian(q)
    energies, vecs = np.linalg.eigh(h)
    defect = (t_final * np.max(np.abs(h @ vecs - vecs * energies))
              + np.max(np.abs(vecs.conj().T @ vecs - np.eye(psi.size))))
    if not defect <= PROPAGATOR_TOL:
        raise RuntimeError(f"eigendecomposition defect {defect:.3g} > {PROPAGATOR_TOL:g}")

    times = np.linspace(0.0, t_final, steps + 1)
    coef = vecs.conj().T @ psi
    states = np.empty((steps + 1, psi.size), dtype=complex)
    states[0] = psi  # exactly the initial vector, not V V' psi
    for lo in range(1, steps + 1, ROW_BLOCK):
        t = times[lo:lo + ROW_BLOCK, None]
        states[lo:lo + ROW_BLOCK] = (np.exp(-1j * energies * t) * coef) @ vecs.T
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


def field_var_y(traj: Trajectory) -> np.ndarray:
    return _field_moments(traj)[3]


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
    instead of being absorbed into the fit.
    """
    traj = evolve_full(q, t_final, steps)
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
        varY_effective=v_eff,
        gamma_eff_predicted=q.gamma_eff_predicted,
        gamma_eff_fit=fit,
        max_rel_error=max_rel,
        population_leakage=leakage,
        leakage_band=band,
        leakage_ok=leakage <= band,
    )


def report_json_dict(report: SqueezeValidationReport) -> dict:
    q = report.params
    return {
        # field order, with the resolved pump in place of pump_detuning
        "params": {**asdict(q), "pump_detuning": q.pump, "delta_small": q.delta_small},
        "gamma_eff_predicted": report.gamma_eff_predicted,
        "gamma_eff_fit": report.gamma_eff_fit,
        "max_rel_error": report.max_rel_error,
        "population_leakage": report.population_leakage,
        "leakage_band": report.leakage_band,
        "leakage_ok": report.leakage_ok,
        "times": [float(t) for t in report.times],
        "varY_full": [float(v) for v in report.varY_full],
        "varY_effective": [float(v) for v in report.varY_effective],
    }


def write_report_csv(report: SqueezeValidationReport, fh) -> None:
    fock.write_csv(fh, "t,varY_full,varY_effective",
                   report.times, report.varY_full, report.varY_effective)
