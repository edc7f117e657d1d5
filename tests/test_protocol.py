"""Protocol model: closed forms, the block walk, and the dense cross-route."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

import oracles
from qndsim import fock, protocol, sampler, wigner

R50 = 0.5 * math.log(50.0)
NU = 2 * math.pi * 1e9


def params(A=1.0, r=R50, N=1.0):
    return protocol.ProtocolParams(A=A, r=r, N=N, nu=NU)


def dense_pulse_unitary(A, r, d_b, d_a):
    """Literal composite propagator exp(iA n(x)X) (I(x)S(r))."""
    inter = np.kron(oracles.number(d_b), oracles.quadrature_x(d_a))
    return expm(1j * A * inter) @ np.kron(np.eye(d_b), oracles.squeeze(r, d_a))


def dense_y_moments(rho, dim):
    y = oracles.quadrature_y(dim)
    ey = np.trace(y @ rho).real
    return ey, np.trace(y @ y @ rho).real - ey ** 2


# ---------------------------------------------------------------------------
# closed forms

def test_mean_quadratures():
    assert protocol.mean_Y(params(A=1, N=1)) == 2.0
    assert protocol.mean_Y(params(A=1, N=0)) == 0.0
    assert protocol.mean_Y(params(A=0.5, N=2)) == 2.0


def test_var_y():
    assert protocol.var_Y(params(A=1, N=1, r=R50)) == pytest.approx(8.02, abs=1e-12)
    assert protocol.var_Y(params(A=1, N=0, r=0.0)) == 1.0
    assert protocol.var_Y(params(A=2, N=1, r=20.0)) == pytest.approx(32.0, abs=1e-12)


def test_relative_uncertainty():
    assert oracles.relative_uncertainty(params(A=1, N=1, r=20.0)) == \
        pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert oracles.relative_uncertainty(params(A=1, N=1e8, r=20.0)) == \
        pytest.approx(1.0, abs=1e-7)
    assert oracles.relative_uncertainty(params(A=1, N=1, r=R50)) == \
        pytest.approx(1.4159802258506295, abs=1e-12)
    with pytest.raises(ValueError):
        oracles.relative_uncertainty(params(N=0))


def test_distinguishability():
    assert protocol.distinguishability_threshold(1.0) == \
        pytest.approx(-0.34657359027997264, abs=1e-15)
    assert protocol.distinguishability_threshold(0.5) == 0.0
    assert protocol.is_distinguishable(params(A=1, r=R50))
    assert not protocol.is_distinguishable(params(A=0.5, r=0.0))


def test_temperature_round_trip():
    for N in (0.1, 1.0, 3.0, 25.0):
        for nu in (NU, 5e7, 2 * math.pi * 6e9):
            T = protocol.temperature_from_N(N, nu)
            back = oracles.N_from_temperature(T, nu)
            assert abs(back - N) / N <= 1e-12
            T2 = protocol.temperature_from_N(back, nu)
            assert abs(T2 - T) / T <= 1e-12


def test_temperature_spot_value():
    # CODATA hbar and k_B, nu = 2 pi x 1 GHz, N = 1
    assert protocol.temperature_from_N(1.0, NU) == \
        pytest.approx(0.0692384, abs=5e-8)


def test_si_constants_equal_scipy():
    from scipy import constants

    assert protocol.hbar == constants.hbar
    assert protocol.k_B == constants.k
    assert sampler.hbar is protocol.hbar and sampler.k_B is protocol.k_B


def test_temperature_monotone_and_errors():
    temps = [0.01, 0.05, 0.5, 5.0]
    ns = [oracles.N_from_temperature(t, NU) for t in temps]
    assert all(b > a for a, b in zip(ns, ns[1:]))
    with pytest.raises(ValueError):
        protocol.temperature_from_N(0.0, NU)
    with pytest.raises(ValueError):
        oracles.N_from_temperature(-1.0, NU)


def test_params_validation():
    with pytest.raises(ValueError):
        params(A=0.0)
    with pytest.raises(ValueError):
        params(r=-0.1)
    with pytest.raises(ValueError):
        params(N=-1.0)
    with pytest.raises(ValueError):
        protocol.ProtocolParams(A=1, r=0, N=0, nu=0.0)
    with pytest.raises(ValueError):
        params(A=math.inf)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(e2r=st.floats(min_value=1.0, allow_infinity=False))
@example(e2r=np.finfo(float).max)
def test_squeeze_is_refused_past_the_range_of_e2r(e2r):
    """Every finite e^{2r} keeps its r, as the CLI turns e2r into r; the
    first r past the largest one is refused, naming r."""
    assert params(r=0.5 * math.log(e2r)).r >= 0.0
    top = 0.5 * math.log(np.finfo(float).max)
    assert params(r=top).r == top
    for r in (math.nextafter(top, math.inf), 800.0):
        with pytest.raises(ValueError, match="squeeze parameter r = %g is past" % r):
            params(r=r)


# ---------------------------------------------------------------------------
# states

def dense_initial_state(p, d_a):
    """thermal(N) on the phonon mode (x) vacuum on the field mode."""
    vacuum = np.diag(np.eye(d_a)[0])
    return np.kron(np.diag(p.law.pn), vacuum)


def test_initial_state_examples():
    # the pulse output carries the initial thermal weights
    s = protocol.evolve_pulse(params(N=0))
    assert s.pn.tolist() == [1.0]

    s1 = protocol.evolve_pulse(params(N=1))
    assert np.allclose(s1.pn[:8], 0.5 ** (np.arange(8) + 1), rtol=1e-9)

    # the input's field marginal is vacuum for any N (product structure)
    p = params(N=0.02)  # six phonon levels hold the thermal law
    rho_a = oracles.partial_trace(dense_initial_state(p, 8), (6, 8), 1)
    assert rho_a[0, 0].real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho_a - np.diag([1] + [0] * 7)).max() <= 1e-12


def test_evolve_vacuum_block_is_squeezed_vacuum():
    p = params(A=1.0, r=0.7, N=0)
    s = protocol.evolve_pulse(p)
    m = protocol.composite_field_moments(s)
    assert m.mean_y == pytest.approx(0.0, abs=1e-10)
    assert m.var_y == pytest.approx(math.exp(-1.4), rel=1e-9)
    assert m.var_x == pytest.approx(math.exp(+1.4), rel=1e-9)


@pytest.mark.parametrize("A, e2r, N", [(1.0, 50.0, 0.5), (1.0, 50.0, 1.0), (1.0, 50.0, 2.0),
                                       (2.0, 50.0, 3.0), (0.5, 10.0, 3.0)])
def test_mean_x_is_exactly_zero(A, e2r, N):
    """<X> of the pulse output is 0 because every block's amplitudes are
    i^m times a real d_m: composite_field_moments leaves it out on that
    ground, so what is checked here, at the five points of the benchmark's
    moment sweep, is that ground: every block is float64. The dense
    propagator checks <X> itself (test_block_path_agrees_with_dense_propagator)."""
    s = protocol.evolve_pulse(params(A=A, r=0.5 * math.log(e2r), N=N))
    assert all(b.dtype == np.float64 for b in s.blocks)


@pytest.mark.parametrize("A, e2r, N", [(2.0, 50.0, 3.0), (0.5, 10.0, 3.0), (1.0, 1000.0, 1.0),
                                       (0.25, 1.0, 5.0)])
def test_every_block_meets_its_closed_forms(A, e2r, N):
    """Each block n of the pulse output, D(inA) S(r)|0>, through the real
    stencil: <Y>_n = d.y = 2nA, Var X_n = x.x = e^{2r} and Var Y_n = y.y -
    (d.y)^2 = e^{-2r}, up to the highest block (at A = 2, e^{2r} = 50, N =
    3, block 80 starts at level 25238). Var Y_n cancels against <Y>_n^2, so
    it is held on the scale <Y^2>_n = y.y, but not below the vacuum unit:
    below it, in block 0 squeezed by e^{2r} = 1000, y is the difference of
    two vectors of norm about sinh r, and it rounds on that unit (1.9e-14
    of <Y^2>_0 = 1e-3, 9.5e-16 of the unit)."""
    p = params(A=A, r=0.5 * math.log(e2r), N=N)
    s = protocol.evolve_pulse(p)
    for n, (off, d) in enumerate(zip(s.offsets, s.blocks)):
        x, y = fock.quadrature_action(d, off)
        ey, ey2 = np.dot(d, y), np.dot(y, y)
        assert ey == pytest.approx(2.0 * n * A, rel=1e-14, abs=0.0)
        assert np.dot(x, x) == pytest.approx(e2r, rel=1e-13)
        assert abs(ey2 - ey ** 2 - 1.0 / e2r) <= 1e-14 * max(ey2, 1.0)


def test_evolve_block1_r0_is_coherent_i():
    # A=1, r=0: block n=1 must be the coherent state |i>, <Y> = 2
    p = params(A=1.0, r=0.0, N=1.0)
    s = protocol.evolve_pulse(p)
    off, vec = s.offsets[1], s.blocks[1]
    amps = np.zeros(off + len(vec), dtype=complex)
    amps[off:] = oracles.phased(off, vec)
    oracle = np.array([np.exp(-0.5) * 1j ** n / math.sqrt(math.factorial(n))
                       for n in range(len(amps))])
    assert np.abs(amps - oracle).max() <= 1e-10
    rho = oracles.conditioned_dense(s, 1)
    ey, _ = dense_y_moments(rho, rho.shape[0])
    assert ey == pytest.approx(2.0, abs=1e-10)


def test_qnd_phonon_marginal_invariant():
    for A, N, e2r in ((0.25, 0.5, 1.0), (1.0, 1.0, 50.0), (2.0, 3.0, 50.0)):
        p = params(A=A, r=0.5 * math.log(e2r), N=N)
        s1 = protocol.evolve_pulse(p)
        pn = p.law.pn
        assert np.abs(oracles.phonon_marginal(s1) - pn).max() <= 1e-12


def test_block_path_agrees_with_dense_propagator():
    A, r, N = 0.3, 0.5 * math.log(2.0), 0.02
    d_b, d_a = fock.ThermalLaw(N).dim, 144
    p = params(A=A, r=r, N=N)
    s1 = protocol.evolve_pulse(p)
    u = dense_pulse_unitary(A, r, d_b, d_a)
    dense1 = u @ dense_initial_state(p, d_a) @ u.conj().T
    assert np.abs(dense1 - oracles.to_dense(s1, d_a)).max() <= 1e-12
    marg = np.diag(oracles.partial_trace(dense1, (d_b, d_a), 0)).real
    assert np.abs(marg - oracles.phonon_marginal(s1)).max() <= 1e-12
    rho_a = oracles.partial_trace(dense1, (d_b, d_a), 1)
    ey, vy = dense_y_moments(rho_a, d_a)
    # <X> is not computed on the block path; the dense trace checks it
    assert abs(np.trace(oracles.quadrature_x(d_a) @ rho_a)) <= 1e-12
    m = protocol.composite_field_moments(s1)
    assert m.mean_y == pytest.approx(ey, abs=1e-12)
    assert m.var_y == pytest.approx(vy, abs=1e-12)


def test_conditioned_state_examples():
    # after phonon outcome m the field is block m, normalised: <Y> = 2mA
    # and Var Y = e^{-2r}, read from its dense density matrix
    s = protocol.evolve_pulse(params(A=1.0, r=R50, N=1.0))
    for m in (0, 1, 2):
        rho = oracles.conditioned_dense(s, m)
        ey, vy = dense_y_moments(rho, rho.shape[0])
        assert ey == pytest.approx(2.0 * m, abs=1e-8)
        assert vy == pytest.approx(0.02, abs=1e-8)


def test_conditioned_state_stays_on_its_window():
    # m = 80 at A = 2, e^{2r} = 50, N = 3 holds P = 2.5e-11 with its window
    # at levels 25238..26909: a dense state from level 0 would take
    # (26910 levels)^2 x 16 bytes = 11.6 GB
    s = protocol.evolve_pulse(params(A=2.0, N=3.0))
    assert s.pn[80] > 1e-12
    assert s.offsets[80] > 25000
    assert len(s.blocks[80]) < 2000
    assert np.linalg.norm(s.blocks[80]) == pytest.approx(1.0, abs=1e-12)


def test_moment_grid_sample_matches_closed_forms():
    # a light slice of the full acceptance grid
    for A, N, e2r in ((0.25, 0.0, 1.0), (0.5, 0.5, 10.0),
                      (1.0, 1.0, 50.0), (2.0, 3.0, 10.0)):
        p = params(A=A, r=0.5 * math.log(e2r), N=N)
        m = protocol.composite_field_moments(protocol.evolve_pulse(p))
        if N == 0:
            assert abs(m.mean_y) <= 1e-9
        else:
            assert m.mean_y == pytest.approx(protocol.mean_Y(p), rel=1e-6)
        assert m.var_y == pytest.approx(protocol.var_Y(p), rel=1e-6)


def test_mixture_consistency_and_total_variance():
    # 70 phonon levels, far beyond the tail rule, so the truncated mixture
    # reconstructs the exact closed forms at the stated absolute tolerances
    A, r = 0.5, 0.5 * math.log(10.0)
    p = params(A=A, r=r, N=1.0)
    state = protocol.CompositeState(oracles.thermal_pn(1.0, 70),
                                   *fock.displaced_squeezed(A * np.arange(70), r), p)
    m = protocol.composite_field_moments(state)
    assert abs(m.mean_y - protocol.mean_Y(p)) <= 1e-10
    assert abs(m.var_y - protocol.var_Y(p)) <= 1e-8


def test_chain_norm_drift_and_embed_policing():
    p = params(A=2.0, r=R50, N=3.0)
    s = protocol.evolve_pulse(p)
    norms = np.array([np.linalg.norm(b) for b in s.blocks])
    assert np.abs(norms - 1.0).max() <= 1e-12
    with pytest.raises(fock.TruncationError):
        oracles.to_dense(s, 16)


def test_chain_against_sparse_exponential_route():
    # independent route: full-ladder Taylor exp(iAX) steps, no windowing
    A, r, n_top = 1.0, 0.5 * math.log(10.0), 20
    offsets, blocks = fock.displaced_squeezed(A * np.arange(n_top + 1), r)
    dim = 1024
    psi = np.zeros(dim, dtype=complex)
    seed_dim = 320  # four times 8 e^{2r}
    psi[:seed_dim] = oracles.squeeze(r, seed_dim)[:, 0]
    ks = np.sqrt(np.arange(1, dim))
    x = diags([ks, ks], [1, -1], format="csc")
    for n in range(n_top + 1):
        off, vec = offsets[n], blocks[n]
        chain = np.zeros(dim, dtype=complex)
        chain[off:off + len(vec)] = oracles.phased(off, vec)
        assert abs(np.vdot(psi, chain)) == pytest.approx(1.0, abs=1e-9)
        assert np.abs(psi - chain).max() <= 1e-7
        psi = expm_multiply(1j * A * x, psi)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(A=st.floats(0.25, 2.0), e2r=st.floats(1.0, 50.0), n_top=st.integers(0, 30))
def test_window_holds_every_block(A, e2r, n_top):
    """Across the (A, r, n) range no block's window sheds more than
    EDGE_TOL (fock.displaced_squeezed raises TruncationError if one does)
    and every block is normalized."""
    offs, vecs = fock.displaced_squeezed(A * np.arange(n_top + 1), 0.5 * math.log(e2r))
    assert len(vecs) == n_top + 1 and min(offs) >= 0
    norms = np.array([np.linalg.norm(v) for v in vecs])
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_one_edge_budget_holds_the_chain_and_the_walk(monkeypatch):
    """fock.EDGE_TOL is the one edge budget: at zero, both the pulse blocks,
    from block 0 on, and the Wigner walk refuse the demo point."""
    spec = wigner.GridSpec(-2.0, 2.0, 17, -0.75, 34.05, 2089)
    monkeypatch.setattr(fock, "EDGE_TOL", 0.0)
    with pytest.raises(fock.TruncationError, match="window of block 0"):
        protocol.evolve_pulse(params())
    with pytest.raises(fock.TruncationError, match="walked state"):
        wigner.wigner_numeric_protocol(params(), spec)
