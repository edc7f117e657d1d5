"""Three-level model checks: Hamiltonian bookkeeping, squeezing rate, adiabatics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from qndsim import fock, threelevel as tl


def params(Delta=50.0, beta=10.0, d_a=36, **kw):
    return tl.ThreeLevelParams(g1=1.0, g2=1.0, G3=1.0, Delta=Delta, beta=beta, d_a=d_a, **kw)


def coherent_seed(q, alpha=1.0):
    amps = np.zeros(q.d_a)
    amps[0] = math.exp(-0.5 * alpha * alpha)
    for n in range(1, q.d_a):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    psi = np.zeros(3 * q.d_a, dtype=complex)
    psi[tl.LEVELS["i"] * q.d_a:(tl.LEVELS["i"] + 1) * q.d_a] = amps
    return psi / np.linalg.norm(psi)


def rel_error_against_rate(report, gamma):
    ref = np.exp(-2.0 * gamma * report.times)
    return float(np.max(np.abs(report.varY_full - ref) / ref))


def i_manifold_hamiltonian(q):
    """Exact block diagonalisation of the full Hamiltonian onto span{|i, n>}.

    The d_a eigenvectors with the largest |i> weight span the dressed |i>
    manifold. The unitary polar factor of their |i> components maps that
    manifold onto the bare |i, n> basis (canonical Schrieffer-Wolff, see
    James & Jerke, Can. J. Phys. 85, 625 (2007)); H_eff is the full
    Hamiltonian's restriction written in that basis.
    """
    d, i = q.d_a, tl.LEVELS["i"]
    energies, vecs = np.linalg.eigh(oracles.build_full_hamiltonian(q))
    block = vecs[i * d:(i + 1) * d]
    keep = np.argsort(np.sum(np.abs(block) ** 2, axis=0))[-d:]
    assert np.min(np.sum(np.abs(block[:, keep]) ** 2, axis=0)) > 0.9
    u, _, vh = np.linalg.svd(block[:, keep])
    w = u @ vh
    return w @ np.diag(energies[keep]) @ w.conj().T


def two_photon_coefficient(h_eff):
    """Real c in H_eff = i c (a^dag^2 - a^2) + ..., read off <2|H_eff|0>."""
    assert abs(h_eff[2, 0].real) <= 1e-12
    return h_eff[2, 0].imag / math.sqrt(2.0)


def dressed_kappa(q):
    return q.kappa / (1.0 - (q.G3 * q.beta / q.Delta) ** 2)


def test_params_validation():
    with pytest.raises(ValueError, match="Delta >= 20"):
        tl.ThreeLevelParams(g1=1.0, g2=1.0, G3=1.0, Delta=10.0, beta=1.0)
    with pytest.raises(ValueError, match="positive"):
        tl.ThreeLevelParams(g1=0.0, g2=0.0, G3=0.0, Delta=-1.0, beta=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        tl.ThreeLevelParams(g1=-1.0, g2=1.0, G3=1.0, Delta=50.0, beta=1.0)
    with pytest.raises(ValueError, match="d_a"):
        tl.ThreeLevelParams(g1=1.0, g2=1.0, G3=1.0, Delta=50.0, beta=1.0, d_a=1)
    with pytest.raises(ValueError, match="finite"):
        tl.ThreeLevelParams(g1=1.0, g2=1.0, G3=1.0, Delta=50.0, beta=math.nan)
    with pytest.raises(ValueError, match="singular"):
        tl.ThreeLevelParams(g1=1.0, g2=1.0, G3=1.0, Delta=50.0, beta=-50.0)


def test_derived_rates():
    q = params()
    assert q.delta_small == pytest.approx(2.0 / 50.0, rel=1e-15)
    assert q.kappa == pytest.approx(10.0 / 2500.0, rel=1e-15)
    dressing = 1.0 - (10.0 / 50.0) ** 2
    assert q.gamma_eff_predicted == pytest.approx(2.0 * 0.004 / dressing, rel=1e-12)
    assert q.pump == pytest.approx(2.0 * q.delta_small / dressing, rel=1e-12)
    qd = params(pump_detuning=0.123)
    assert qd.pump == 0.123


def test_hamiltonian_hermitian():
    q = tl.ThreeLevelParams(g1=0.7, g2=1.1, G3=0.9, Delta=60.0, beta=3.0, d_a=7)
    h = oracles.build_full_hamiltonian(q)
    assert h.shape == (21, 21)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def test_zero_couplings_leave_bare_splitting():
    q = tl.ThreeLevelParams(g1=0.0, g2=0.0, G3=0.0, Delta=40.0, beta=0.0, d_a=5)
    h = oracles.build_full_hamiltonian(q)
    bare = -40.0 * np.kron(oracles.sigma("e", "e") + oracles.sigma("g", "g"),
                           np.eye(5, dtype=complex))
    np.testing.assert_array_equal(h, bare)


def test_matrix_element_bookkeeping():
    q = tl.ThreeLevelParams(g1=0.7, g2=1.1, G3=0.9, Delta=60.0, beta=3.0, d_a=6)
    h = oracles.build_full_hamiltonian(q)
    d = q.d_a
    g, i, e = tl.LEVELS["g"], tl.LEVELS["i"], tl.LEVELS["e"]
    dp = q.pump

    oracle = np.zeros_like(h)
    for n in range(d):
        oracle[g * d + n, g * d + n] = -q.Delta - 0.5 * dp * (n + 1)
        oracle[i * d + n, i * d + n] = -0.5 * dp * n
        oracle[e * d + n, e * d + n] = -q.Delta - 0.5 * dp * (n - 1)
    for n in range(1, d):
        oracle[g * d + n - 1, i * d + n] = q.g1 * math.sqrt(n)
        oracle[i * d + n, g * d + n - 1] = q.g1 * math.sqrt(n)
        oracle[i * d + n - 1, e * d + n] = q.g2 * math.sqrt(n)
        oracle[e * d + n, i * d + n - 1] = q.g2 * math.sqrt(n)
    for n in range(d):
        oracle[g * d + n, e * d + n] = 1j * q.beta * q.G3
        oracle[e * d + n, g * d + n] = -1j * q.beta * q.G3

    assert np.max(np.abs(h - oracle)) <= 1e-12
    assert h[g * d + 2, i * d + 3] == pytest.approx(0.7 * math.sqrt(3.0), rel=1e-15)
    assert h[i * d + 4, e * d + 5] == pytest.approx(1.1 * math.sqrt(5.0), rel=1e-15)


def test_zero_couplings_vacuum_is_stationary():
    q = tl.ThreeLevelParams(g1=0.0, g2=0.0, G3=0.0, Delta=40.0, beta=0.0, d_a=5)
    amps = tl.evolve_full(q, 2.0, 20)
    assert np.max(np.abs(oracles.chain_states(q, amps) - oracles.vacuum_i(q))) <= 1e-12
    assert np.max(np.abs(tl.validate_effective_gamma(q, 2.0, 20).varY_full - 1.0)) <= 1e-12


def test_evolve_input_validation():
    q = params(d_a=8)
    with pytest.raises(ValueError, match="steps"):
        tl.evolve_full(q, 1.0, 0)
    with pytest.raises(ValueError, match="t_final"):
        tl.evolve_full(q, -1.0, 10)


def test_norm_preserved_and_step_size_converged():
    # every sample comes from one eigendecomposition, so halving the step
    # must reproduce each coarse sample at its own time, and the final state
    # must match one dense propagator over the whole run
    q = params()
    coarse = tl.evolve_full(q, 31.25, 100)
    fine = tl.evolve_full(q, 31.25, 200)
    assert oracles.norm_drift(coarse) <= 1e-8
    assert np.array_equal(tl.validate_effective_gamma(q, 31.25, 100).times,
                          tl.validate_effective_gamma(q, 31.25, 200).times[::2])
    assert np.max(np.abs(coarse - fine[::2])) <= 1e-12
    dense = oracles.threelevel_state_at(q, 31.25)
    assert np.max(np.abs(oracles.chain_states(q, coarse)[-1] - dense)) <= 1e-11


def test_eigen_trajectory_matches_dense_expm_oracle():
    for q in [params(), params(Delta=100.0, beta=40.0), params(d_a=35)]:
        states = oracles.chain_states(q, tl.evolve_full(q, 31.25, 5000))
        dense = oracles.evolve_threelevel(q, 31.25, 5000)
        assert np.array_equal(states[0], dense[0])
        assert np.max(np.abs(states - dense)) <= 1e-11


@pytest.mark.parametrize("corrupt", ["eigenvalue", "eigenvector"])
def test_corrupted_eigenpair_raises(monkeypatch, corrupt):
    eigh = np.linalg.eigh

    def corrupted(h):
        energies, vecs = eigh(h)
        if corrupt == "eigenvalue":
            energies[7] += 1e-6
        else:
            vecs[:, 7] *= 1.0 + 1e-6
        return energies, vecs

    q = params(d_a=8)
    tl.evolve_full(q, 1.0, 10)
    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(ValueError, match="t_final = 1: eigendecomposition defect"):
        tl.evolve_full(q, 1.0, 10)


def test_default_start_diagonalises_only_the_even_chain(monkeypatch):
    eigh = np.linalg.eigh
    shapes = []

    def recorded(h):
        shapes.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    tl.evolve_full(params(d_a=36), 1.0, 10)
    assert shapes == [(54, 54)]


def test_field_truncation_budget_names_t_final():
    # At d_a = 36 the squeezed field reaches its top two levels as the run
    # grows: 1.9e-7 of the mass by t = 100, 5.0e-4 by t = 150, where the
    # written Var Y would be 40 % off a d_a = 120 run.
    q = params()
    tl.validate_effective_gamma(q, 100.0, steps=100)
    with pytest.raises(fock.TruncationError, match="t_final = 150: .* top two levels"):
        tl.validate_effective_gamma(q, 150.0, steps=100)


def test_variance_tracks_fitted_exponent():
    q = params()
    report = tl.validate_effective_gamma(q, 31.25, steps=100)
    assert rel_error_against_rate(report, q.gamma_eff_predicted) < 0.05
    assert abs(report.gamma_eff_fit / q.gamma_eff_predicted - 1.0) < 0.05
    assert 0.0 < report.population_leakage <= report.leakage_band
    assert report.leakage_ok
    assert report.leakage_band < 0.02


def test_predicted_rate_gap_is_recorded():
    q = params()
    report = tl.validate_effective_gamma(q, 31.25, steps=100)
    assert report.gamma_eff_predicted == q.gamma_eff_predicted
    recomputed = rel_error_against_rate(report, report.gamma_eff_predicted)
    assert report.max_rel_error == pytest.approx(recomputed, rel=1e-12)
    assert report.max_rel_error < 0.05


def test_beta_zero_variance_stays_at_vacuum():
    q = tl.ThreeLevelParams(g1=1.0, g2=1.0, G3=1.0, Delta=50.0, beta=0.0, d_a=24)
    report = tl.validate_effective_gamma(q, 30.0, steps=60)
    assert report.gamma_eff_predicted == 0.0
    assert np.max(np.abs(report.varY_full - 1.0)) < 0.01
    assert abs(report.gamma_eff_fit) < 1e-4
    assert report.leakage_ok


def test_detuned_pump_squeezes_less():
    q = params()
    detuned = params(pump_detuning=q.pump + 10.0 * q.gamma_eff_predicted)
    v_base = tl.validate_effective_gamma(q, 31.25, 100).varY_full
    v_det = tl.validate_effective_gamma(detuned, 31.25, 100).varY_full
    assert 1.0 - v_base.min() >= 2.0 * (1.0 - v_det.min())


def test_prediction_error_shrinks_with_detuning_at_fixed_rate():
    errs = []
    for Delta, beta in [(20.0, 1.6), (50.0, 10.0), (100.0, 40.0)]:
        q = params(Delta=Delta, beta=beta)
        assert q.kappa == pytest.approx(0.004, rel=1e-12)
        errs.append(tl.validate_effective_gamma(q, 31.25, steps=80).max_rel_error)
    assert all(later < earlier for earlier, later in zip(errs, errs[1:]))


def test_fit_tracking_improves_with_detuning():
    rels = []
    for Delta in [20.0, 50.0, 100.0]:
        q = params(Delta=Delta)
        report = tl.validate_effective_gamma(q, 0.5 / q.gamma_eff_predicted, steps=100)
        rels.append(rel_error_against_rate(report, q.gamma_eff_predicted))
    assert all(later < earlier for earlier, later in zip(rels, rels[1:]))
    assert rels[-1] < 0.01


def test_block_diagonalised_two_photon_coefficient_is_dressed_kappa():
    # x = G3 beta / Delta held at 0.2, so the next-order correction scales
    # as (g/Delta)^2 alone; bare kappa sits 4% away from the dressed value.
    for g1, g2, G3 in [(1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 0.3, 0.7)]:
        for Delta in [20.0, 50.0, 100.0, 200.0]:
            q = tl.ThreeLevelParams(g1=g1, g2=g2, G3=G3, Delta=Delta,
                                    beta=0.2 * Delta / G3, d_a=8)
            kappa_d = dressed_kappa(q)
            c = two_photon_coefficient(i_manifold_hamiltonian(q))
            bound = 12.0 * (max(g1, g2) / Delta) ** 2
            assert abs(c / kappa_d - 1.0) <= bound
            assert q.gamma_eff_predicted == pytest.approx(2.0 * kappa_d, rel=1e-12)


COUPLING = st.floats(0.05, 1.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(g1=COUPLING, g2=COUPLING, G3=COUPLING, decades=st.floats(0.0, 1.0),
       x=st.floats(-0.6, 0.6))
def test_dressed_kappa_property_over_couplings(g1, g2, G3, decades, x):
    """Over couplings, log-uniform detunings and pumps of either sign up to
    |x| = 0.6, the |i>-manifold a'^2 coefficient is kappa_d = kappa/(1 - x^2)
    within 12 (g/Delta)^2 / (1 - x^2)^2: the next order grows as the pump
    doublet nears its singularity. At x near 0, where kappa_d vanishes, the
    eigendecomposition's backward error, a few eps ||H||, is the floor.

    |x| stops at 0.6 because at g/Delta = 0.05 and |x| above 0.63 the
    dressed |i, 7> keeps less than 0.9 of its weight in |i>, which the
    manifold selection refuses."""
    Delta = 20.0 * 10.0**decades
    q = tl.ThreeLevelParams(g1=g1, g2=g2, G3=G3, Delta=Delta, beta=x * Delta / G3, d_a=8)
    kappa_d = dressed_kappa(q)
    c = two_photon_coefficient(i_manifold_hamiltonian(q))
    bound = 12.0 * (max(g1, g2) / Delta) ** 2 / (1.0 - x * x) ** 2
    floor = 16.0 * np.finfo(float).eps * np.linalg.norm(oracles.build_full_hamiltonian(q), 2)
    assert abs(c - kappa_d) <= bound * abs(kappa_d) + floor


@settings(derandomize=True, max_examples=200, deadline=None)
@given(g1=COUPLING, g2=COUPLING, G3=COUPLING, decades=st.floats(0.0, 1.0),
       x=st.floats(-0.9, 0.9), pump_detuning=st.none() | st.floats(-1.0, 1.0),
       d_a=st.integers(2, 12))
def test_parity_chains_are_the_dense_hamiltonian(g1, g2, G3, decades, x, pump_detuning, d_a):
    """The chain starts at |i, 0>, its tridiagonal matrix is the dense
    Hamiltonian restricted to its states, and the dense Hamiltonian couples
    no state of the chain to a state outside it: so evolving the chain alone
    from |i, 0> is exact."""
    Delta = 20.0 * 10.0**decades
    q = tl.ThreeLevelParams(g1=g1, g2=g2, G3=G3, Delta=Delta, beta=x * Delta / G3,
                            d_a=d_a, pump_detuning=pump_detuning)
    h = oracles.build_full_hamiltonian(q)
    level, n, diag, off = tl._parity_chain(q)
    idx = level * d_a + n
    assert idx[0] == tl.LEVELS["i"] * d_a and np.unique(idx).size == idx.size
    assert np.array_equal(level[3:], level[:-3]) and np.array_equal(n[3:], n[:-3] + 2)
    chain = np.diag(diag) + np.diag(off, 1) + np.diag(off.conj(), -1)
    assert np.max(np.abs(chain - h[np.ix_(idx, idx)])) <= 1e-12 * np.max(np.abs(h))
    assert not h[np.ix_(idx, np.setdiff1d(np.arange(3 * d_a), idx))].any()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(g1=COUPLING, g2=COUPLING, G3=COUPLING, decades=st.floats(0.0, 1.0),
       x=st.floats(-0.9, 0.9), pump_detuning=st.none() | st.floats(-1.0, 1.0),
       d_a=st.integers(2, 12), t_final=st.floats(0.5, 40.0), steps=st.integers(1, 40))
@example(g1=1.0, g2=1.0, G3=1.0, decades=0.0, x=0.08, pump_detuning=None, d_a=36,
         t_final=31.25, steps=100)
@example(g1=1.0, g2=1.0, G3=1.0, decades=math.log10(2.5), x=0.2, pump_detuning=None, d_a=36,
         t_final=31.25, steps=700)
def test_vectorised_observables_match_dense_traces(g1, g2, G3, decades, x, pump_detuning,
                                                   d_a, t_final, steps):
    """The report's Var Y, leakage and <n> (through the leakage band),
    summed over the chain, are the dense traces of the embedded states for
    Y truncated to d_a levels. The field budget is lifted so that every
    draw puts mass on the top level, where a'a + aa' weighs d_a - 1, not
    2 d_a - 1: at Delta = 20, beta = 1.6 the untruncated weight moves
    Var Y by 2.6e-8 of itself even within the budget."""
    Delta = 20.0 * 10.0**decades
    q = tl.ThreeLevelParams(g1=g1, g2=g2, G3=G3, Delta=Delta, beta=x * Delta / G3,
                            d_a=d_a, pump_detuning=pump_detuning)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tl, "FIELD_TOL", math.inf)
        report = tl.validate_effective_gamma(q, t_final, steps)
    pops, n_mean, a_mean, var_y = oracles.threelevel_traces(
        oracles.chain_states(q, tl.evolve_full(q, t_final, steps)), d_a)
    assert report.varY_full[0] == 1.0
    assert np.max(np.abs(report.varY_full - var_y)) <= 1e-12 * max(1.0, np.max(var_y))
    leakage = np.max(pops[:, tl.LEVELS["g"]] + pops[:, tl.LEVELS["e"]])
    assert abs(report.population_leakage - leakage) <= 1e-12
    band = tl.LEAKAGE_BAND_FACTOR * (g1**2 + g2**2) * (np.max(n_mean) + 1.0) / Delta**2
    assert abs(report.leakage_band - band) <= 1e-12 * band
    assert not a_mean.any()


def test_default_pump_sits_on_dressed_two_photon_resonance():
    for Delta, beta in [(50.0, 10.0), (100.0, 40.0)]:
        q = params(Delta=Delta, beta=beta, d_a=8)
        kappa_d = dressed_kappa(q)
        h_eff = i_manifold_hamiltonian(q)
        assert abs((h_eff[2, 2] - h_eff[0, 0]).real) / 2.0 <= 0.05 * kappa_d

        bare = params(Delta=Delta, beta=beta, d_a=8, pump_detuning=2.0 * q.delta_small)
        h_bare = i_manifold_hamiltonian(bare)
        assert abs((h_bare[2, 2] - h_bare[0, 0]).real) / 2.0 >= 0.25 * kappa_d


def test_adiabatic_series_zero_from_vacuum():
    q = params()
    states = oracles.chain_states(q, tl.evolve_full(q, 1.0, 10))
    report = oracles.check_adiabatic_coherences(np.linspace(0.0, 1.0, 11), states, q)
    assert report.sigma_ig[0] == 0.0 and report.adiabatic_ig[0] == 0.0
    assert np.max(np.abs(report.sigma_ig)) <= 1e-12
    assert np.max(np.abs(report.adiabatic_ie)) <= 1e-12


def test_adiabatic_residual_bounded_and_shrinks_with_detuning():
    q50 = params(Delta=50.0)
    rep50 = oracles.check_adiabatic_coherences(
        np.linspace(0.0, 18.75, 3001),
        oracles.evolve_threelevel(q50, 18.75, 3000, initial=coherent_seed(q50)), q50,
        smooth_cycles=8.0)
    assert rep50.max_rel_residual < 0.10

    q100 = params(Delta=100.0)
    rep100 = oracles.check_adiabatic_coherences(
        np.linspace(0.0, 75.0, 16001),
        oracles.evolve_threelevel(q100, 75.0, 16000, initial=coherent_seed(q100)), q100,
        smooth_cycles=8.0)
    assert rep100.max_rel_residual < 0.05
    assert rep100.max_rel_residual < rep50.max_rel_residual


def test_smoothing_rejects_coarse_sampling():
    q = params()
    states = oracles.chain_states(q, tl.evolve_full(q, 18.75, 25))
    with pytest.raises(ValueError, match="resolve"):
        oracles.check_adiabatic_coherences(np.linspace(0.0, 18.75, 26), states, q,
                                           smooth_cycles=8.0)


def test_report_serialization():
    q = tl.ThreeLevelParams(g1=1.0, g2=1.0, G3=1.0, Delta=50.0, beta=0.0, d_a=8)
    report = tl.validate_effective_gamma(q, 1.0, steps=4)

    assert report.gamma_eff_predicted == 0.0
    assert report.leakage_ok is True

    buf = bytearray()
    tl.write_report_csv(report, buf.extend)
    lines = buf.decode().splitlines()
    assert lines[0] == "t,varY_full,varY_effective"
    assert len(lines) == 6
    t, vf, ve = (float(x) for x in lines[-1].split(","))
    assert t == 1.0 and ve == 1.0 and vf == pytest.approx(1.0, abs=0.01)
