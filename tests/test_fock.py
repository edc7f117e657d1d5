"""Fock-engine checks: series and dense oracles for the displacement kernel
and the closed-form squeezed vacuum, ladder algebra, thermal tail policing,
and the CSV renderer's bytes against its repr oracle."""

import builtins
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

import oracles
from qndsim import fock


def coherent_amps(alpha, dim):
    """Series oracle: <n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    out = np.zeros(dim, dtype=complex)
    for n in range(dim):
        out[n] = (np.exp(-0.5 * abs(alpha) ** 2) * alpha ** n
                  / math.sqrt(math.factorial(n)))
    return out


def squeezed_amps(r, dim):
    """Series oracle: <2k|S(r)|0> = (tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r))."""
    out = np.zeros(dim, dtype=complex)
    for k in range((dim + 1) // 2):
        out[2 * k] = (math.tanh(r) ** k * math.sqrt(math.factorial(2 * k))
                      / (2 ** k * math.factorial(k) * math.sqrt(math.cosh(r))))
    return out


def vector_moments(psi):
    """(<a>, <X>, <Y>, Var X, Var Y) of a pure state vector."""
    dim = len(psi)
    a = oracles.annihilation(dim)
    x = oracles.quadrature_x(dim)
    y = oracles.quadrature_y(dim)
    ea = np.vdot(psi, a @ psi)
    ex = np.vdot(psi, x @ psi).real
    ey = np.vdot(psi, y @ psi).real
    vx = np.vdot(x @ psi, x @ psi).real - ex ** 2
    vy = np.vdot(y @ psi, y @ psi).real - ey ** 2
    return ea, ex, ey, vx, vy


def test_ladder_entries():
    a2 = oracles.annihilation(2)
    assert np.array_equal(a2, np.array([[0, 1], [0, 0]], dtype=complex))
    a3 = oracles.annihilation(3)
    assert a3[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)
    a = oracles.annihilation(9)
    nums = np.diag(a.conj().T @ a).real
    assert np.allclose(nums, np.arange(9), atol=1e-14)


def test_ladder_dim_check():
    with pytest.raises(ValueError):
        oracles.annihilation(1)


def test_commutator_identity_below_top_level():
    for dim in (2, 7, 40):
        a = oracles.annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a - np.eye(dim)
        assert np.abs(comm[:dim - 1, :dim - 1]).max() <= 1e-12


BLOCKS = st.tuples(st.integers(2, 24), st.sampled_from([(), (1,), (3,)]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k0=st.integers(0, 30000), shape=BLOCKS, seed=st.integers(0, 2**32 - 1))
@example(k0=0, shape=(12, (3,)), seed=5)
@example(k0=30000, shape=(24, (3,)), seed=5)
def test_quadrature_action_matches_dense_operators(k0, shape, seed):
    """For real d, a vector or a block of rows, on the Fock levels [k0, k0 +
    n): the real stencil's (x, y) give X c = -i G x and Y c = G y for the
    phased c = G d, G = diag(i^k), X and Y the dense oracles on those
    levels. One vector gives the same bits as a row of the batch."""
    n, batch = shape
    d = np.random.default_rng(seed).normal(size=(*batch, n))
    x, y = fock.quadrature_action(d, k0)
    assert x.dtype == y.dtype == np.float64
    c = oracles.phased(k0, d)
    tol = 1e-14 * math.sqrt(k0 + n) * np.abs(d).max()
    assert np.abs(c @ oracles.quadrature_x(n, k0).T + 1j * oracles.phased(k0, x)).max() <= tol
    assert np.abs(c @ oracles.quadrature_y(n, k0).T - oracles.phased(k0, y)).max() <= tol
    single = fock.quadrature_action(d.reshape(-1, n)[-1], k0)
    assert np.array_equal(single[0], x.reshape(-1, n)[-1])
    assert np.array_equal(single[1], y.reshape(-1, n)[-1])


def coherent(alpha, dim):
    """D(alpha)|0> by the action kernel on the levels [0, dim)."""
    return oracles.ladder_exp(np.eye(dim)[0], alpha)


def test_displacement_identity_at_zero():
    d = oracles.ladder_exp(np.eye(12), 0.0)
    assert np.abs(d - np.eye(12)).max() <= 1e-14


def test_displacement_matches_series_oracle():
    alpha = 0.7 + 0.3j
    dim = 40
    psi = coherent(alpha, dim)
    assert np.abs(psi - coherent_amps(alpha, dim)).max() <= 1e-12


def test_displacement_coherent_moments():
    # alpha = i n A with n = A = 1
    dim = 32
    psi = coherent(1j, dim)
    ea, _, ey, _, _ = vector_moments(psi)
    assert ea == pytest.approx(1j, abs=1e-9)
    n_op = oracles.number(dim)
    assert np.vdot(psi, n_op @ psi).real == pytest.approx(1.0, abs=1e-9)
    assert ey == pytest.approx(2.0, abs=1e-9)


def window_formula(n, A, r):
    """The block chain's window rule at alpha = i n A, as it stood before
    fock.window took the Re axis: the oracle the rule keeps bit for bit."""
    al = n * A
    mean = al * al + math.sinh(r) ** 2
    half = (9.0 * (al * max(math.exp(-r), 1e-2) + math.sqrt(al + 1.0))
            + 18.0 * math.exp(2.0 * abs(r)) + 80.0)
    return int(max(0, math.floor(mean - half))), int(math.ceil(mean + half))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(0, 1000), A=st.floats(min_value=5e-324, max_value=1.7e308),
       r=st.floats(min_value=0.0, max_value=400.0))
@example(n=119, A=3.0, r=0.5 * math.log(50.0))
@example(n=1, A=1e300, r=0.0)
def test_window_on_the_im_axis_is_the_chain_formula(n, A, r):
    try:
        expected = window_formula(n, A, r)
    except (OverflowError, ValueError):
        with pytest.raises(fock.TruncationError, match="block %d, displaced by" % n):
            fock.window(complex(0.0, n * A), r, "the Fock window of block %d" % n)
    else:
        assert fock.window(complex(0.0, n * A), r, "block") == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(re=st.floats(0.0, 1.7e308), im=st.floats(0.0, 1.7e308),
       r=st.floats(min_value=0.0, max_value=1.7e308))
def test_window_is_levels_or_refuses(re, im, r):
    """A window is a pair of integer levels, or TruncationError where they
    are past float range: no OverflowError leaks."""
    try:
        lo, hi = fock.window(complex(re, im), r, "the window")
    except fock.TruncationError as exc:
        assert str(exc).startswith("the window, displaced by") and "past float range" in str(exc)
    else:
        assert type(lo) is type(hi) is int and 0 <= lo <= hi


@settings(derandomize=True, max_examples=30, deadline=None)
@given(alpha=st.floats(-36.0, 36.0), e2r=st.floats(1.0, 50.0))
@example(alpha=4.0, e2r=1.0)
@example(alpha=4j, e2r=1.0)
@example(alpha=36.0, e2r=50.0)
def test_window_holds_a_state_displaced_along_re(alpha, e2r):
    """D(alpha) S(r)|0> built on [0, hi) keeps its top levels within the
    edge budget, also along the antisqueezed Re axis that the Wigner walk
    steps over."""
    r = 0.5 * math.log(e2r)
    _, hi = fock.window(complex(alpha), r, "the window")
    psi = oracles.ladder_exp(oracles.squeezed_vacuum(r, hi), alpha)
    fock.check_edge_mass(np.abs(psi) ** 2, "the window at alpha = %r" % alpha)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(A=st.floats(0.25, 2.0), e2r=st.floats(1.0, 50.0), n_top=st.integers(0, 30))
@example(A=2.0, e2r=50.0, n_top=30)
@example(A=0.25, e2r=1.0, n_top=0)
def test_displaced_squeezed_against_the_chebyshev_chain(A, e2r, n_top):
    """Each block of the recurrence is, on its window, the ladder_exp chain
    from a squeezed vacuum at least 200 levels wider than any window."""
    r = 0.5 * math.log(e2r)
    chain = oracles.displacement_chain(A, r, n_top)
    offs, vecs = fock.displaced_squeezed(A * np.arange(n_top + 1), r)
    for off, vec, ref in zip(offs, vecs, chain):
        assert np.abs(oracles.phased(off, vec) - ref[off:off + len(vec)]).max() <= 1e-12


def test_displaced_squeezed_warmup_sheds_the_other_solution():
    """Over the WARMUP levels under each window that starts above them, the
    share of the recurrence's decaying solution falls by over 1e12: the
    product of the ratio of its two roots, real there, at every level."""
    for e2r in np.geomspace(1.0001, 1000.0, 40):
        r = 0.5 * math.log(e2r)
        t = math.tanh(r)
        for beta in np.geomspace(5.0, 1000.0, 80):
            lo, _ = fock.window(complex(0.0, beta), r, "the window")
            if lo > fock.WARMUP:
                m = np.arange(lo - fock.WARMUP, lo, dtype=float)
                a = beta * (1.0 + t) / np.sqrt(m)
                root = np.sqrt(a * a - 4.0 * t)
                assert np.log10((a - root) / (a + root)).sum() < -12.0


def mp_displaced_squeezed(alpha, r, lo, hi):
    """<m|D(alpha) S(r)|0> for m in [lo, hi): the recurrence of
    fock._ladder_chunks, c_m = g / sqrt(m) c_{m-1} + tanh r sqrt((m-1)/m)
    c_{m-2} with g = alpha - alpha* tanh r, from its true start c_0 =
    exp(-|alpha|^2 / 2 + alpha*^2 tanh r / 2) / sqrt(cosh r), in 50-digit
    arithmetic and without rescaling."""
    with mpmath.workdps(50):
        r, a = mpmath.mpf(r), mpmath.mpc(alpha.real, alpha.imag)
        t = mpmath.tanh(r)
        g = a - mpmath.conj(a) * t
        prev = mpmath.mpc(0)
        cur = mpmath.exp(-abs(a) ** 2 / 2 + mpmath.conj(a) ** 2 * t / 2) / mpmath.sqrt(mpmath.cosh(r))
        amps = []
        for m in range(1, hi + 1):
            amps.append(complex(cur))
            prev, cur = cur, (g * cur + t * mpmath.sqrt(m - 1) * prev) / mpmath.sqrt(m)
    return np.array(amps[lo:])


@pytest.mark.parametrize("beta, e2r", [(40.0, 1000.0), (160.0, 50.0), (12.0, 50.0),
                                       (30.0, 1.01), (0.0, 1000.0)])
def test_displaced_squeezed_against_a_50_digit_run(beta, e2r):
    """The float64 pass, with its WARMUP starts below the windows and its
    power-of-two rescaling, against the same recurrence run from its true
    start at 50 digits, up to the top of the window."""
    r = 0.5 * math.log(e2r)
    (off,), (vec,) = fock.displaced_squeezed([beta], r)
    exact = mp_displaced_squeezed(1j * beta, r, off, off + len(vec))
    assert np.abs(oracles.phased(off, vec) - exact).max() <= 2e-14


def recurrence_amplitudes(alpha, r, dim):
    """The amplitudes of D(alpha) S(r)|0> on the levels [0, dim) as
    fock.displaced_squeezed_sums makes them: fock._ladder_chunks from level
    0, each chunk times its power of two, normalised on those levels."""
    t = math.tanh(r)
    chunks = [(block[:, 0].copy(), scale[0]) for block, scale in
              fock._ladder_chunks(np.array([alpha - t * np.conj(alpha)]), t, 0, dim)]
    e = np.repeat([scale for _, scale in chunks], fock.CHUNK)[:dim]
    amps = np.concatenate([block for block, _ in chunks])[:dim] * np.exp2(e - e.max())
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("alpha, e2r", [
    pytest.param(-12.0 - 0.85j, 50.0, id="benchmark-corner"),
    pytest.param(-36.0 - 0.85j, 50.0, id="readme-corner"),
    pytest.param(-3.0 - 0.4j, 1000.0, id="e2r-1000"),
    pytest.param(-7.2 + 0j, 10.0, id="real"),
    pytest.param(-2.5j, 2.0, id="imaginary"),
])
def test_complex_recurrence_against_a_50_digit_run(alpha, e2r):
    """The Wigner walk's float64 recurrence at a complex alpha, forward from
    level 0 with its power-of-two rescaling, against the same recurrence
    from its true start at 50 digits on the levels [0, dim), dim the top of
    the state's fock.window, both normalised there: the amplitudes, up to
    the global phase of the true start, and the parity and top-edge sums of
    fock.displaced_squeezed_sums."""
    r = 0.5 * math.log(e2r)
    _, dim = fock.window(complex(abs(alpha.real), abs(alpha.imag)), r, "the window")
    exact = mp_displaced_squeezed(alpha, r, 0, dim)
    exact /= np.linalg.norm(exact)
    amps = recurrence_amplitudes(alpha, r, dim) * exact[0] / abs(exact[0])
    assert np.abs(amps - exact).max() <= 1e-14
    prob = np.abs(exact) ** 2
    parity, norm, edge = fock.displaced_squeezed_sums([alpha], r, dim)[:, 0]
    assert abs(parity / norm - prob[0::2].sum() + prob[1::2].sum()) <= 2e-15
    want = prob[-fock.EDGE_LEVELS:].sum()
    assert abs(edge / norm - want) <= 1e-11 * want


def test_displacement_group_inverse():
    dim = 48
    alpha = 1.1 - 0.6j
    prod = oracles.ladder_exp(oracles.ladder_exp(np.eye(dim), -alpha), alpha)
    k = dim - oracles.GUARD_BAND
    assert np.abs((prod - np.eye(dim))[:k, :k]).max() <= 1e-10


def squeezed_seed(r, dim):
    """S(r)|0> on the levels [0, dim) as the library builds it: the pulse
    blocks' recurrence at zero displacement, on its fock.window, phased,
    cut or padded to dim levels and normalised there."""
    (off,), (vec,) = fock.displaced_squeezed([0.0], r)
    psi = np.zeros(dim, dtype=complex)
    psi[:min(dim, len(vec))] = oracles.phased(off, vec)[:dim]
    return psi / np.linalg.norm(psi)


def test_squeeze_identity_at_zero():
    assert np.array_equal(squeezed_seed(0.0, 16), np.eye(16)[0])


def test_squeeze_matches_series_oracle():
    # 64 levels hold S(r)|0> to 1e-18 of its mass: every level matches
    r = 0.6
    dim = 64
    assert np.abs(squeezed_seed(r, dim) - squeezed_amps(r, dim)).max() <= 1e-15


def test_squeeze_vacuum_variances_at_e2r_50():
    r = 0.5 * math.log(50.0)
    dim = 512
    psi = squeezed_seed(r, dim)
    _, _, _, vx, vy = vector_moments(psi)
    assert vy == pytest.approx(0.02, abs=1e-6)
    assert vx == pytest.approx(50.0, rel=1e-6)


def test_squeeze_minimum_uncertainty():
    psi = squeezed_seed(0.5, 64)
    _, _, _, vx, vy = vector_moments(psi)
    assert vx * vy == pytest.approx(1.0, abs=1e-8)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(e2r=st.floats(1.0, 10.0))
@example(e2r=1.0)
@example(e2r=10.0)
def test_squeezed_vacuum_equals_the_dense_expm(e2r):
    """On the window of S(r)|0>, the recurrence at zero displacement and the
    closed form oracles.squeezed_vacuum are the dense expm of the a'^2
    generator truncated to twice as many levels, whose truncation bends
    only levels far above the window. Both have zero odd levels and a zero
    imaginary part to the bit."""
    r = 0.5 * math.log(e2r)
    _, dim = fock.window(0j, r, "the window of the seed")
    dense = oracles.squeeze(r, 2 * dim)[:dim, 0]
    for psi in (squeezed_seed(r, dim), oracles.squeezed_vacuum(r, dim)):
        assert np.abs(psi - dense).max() <= 1e-13
        assert np.all(psi[1::2] == 0.0) and np.all(psi.imag == 0.0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(e2r=st.floats(1.0, 1000.0))
@example(e2r=50.0)
def test_squeezed_vacuum_moments_through_the_quadrature_stencil(e2r):
    """Var Y = e^{-2r} and <n> = sinh^2 r of the pulse output's block 0,
    D(0) S(r)|0> from the recurrence on its window, taken through the
    real stencil the block chain's moments use: Var Y = y.y - (d.y)^2."""
    r = 0.5 * math.log(e2r)
    (off,), (d,) = fock.displaced_squeezed([0.0], r)
    assert off == 0
    _, y = fock.quadrature_action(d)
    assert np.dot(y, y) - np.dot(d, y) ** 2 == pytest.approx(1.0 / e2r, rel=1e-12)
    assert np.dot(np.arange(len(d)), d * d) == pytest.approx(
        math.sinh(r) ** 2, rel=1e-12, abs=1e-300)


def test_unitarity_guard_banded():
    eye = np.eye(64)
    for z in (1.5j, 2.0 - 1.0j):
        assert oracles.unitarity_defect(oracles.ladder_exp(eye, z)) <= 1e-10


@settings(derandomize=True, max_examples=60, deadline=None)
@given(re=st.floats(-2.0, 2.0), im=st.floats(-2.0, 2.0),
       k0=st.integers(0, 30), shape=BLOCKS, seed=st.integers(0, 2**32 - 1))
# tau ~ 1e-83: a Bessel recurrence on rescaled values, not ratios, overflows here
@example(re=0.0, im=2.69357048162982e-84, k0=0, shape=(24, (3,)), seed=0)
def test_ladder_exp_property_against_dense_expm(re, im, k0, shape, seed):
    """Any z, window offset and vector or block: the kernel equals the
    dense expm of the same truncated generator and keeps every norm."""
    dim, cols = shape
    z = complex(re, im)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(dim, *cols)) + 1j * rng.normal(size=(dim, *cols))
    got = oracles.ladder_exp(psi, z, k0)
    want = expm(oracles.ladder_generator(z, 1, dim, k0)) @ psi
    scale = np.linalg.norm(psi, axis=0)
    assert got.shape == psi.shape
    assert np.abs(got - want).max() <= 1e-12 * scale.max()
    assert np.abs(np.linalg.norm(got, axis=0) - scale).max() <= 1e-12 * scale.max()


def test_thermal_vacuum():
    rho = np.diag(oracles.thermal_pn(0.0, 8))
    expect = np.zeros((8, 8), dtype=complex)
    expect[0, 0] = 1.0
    assert np.abs(rho - expect).max() <= 1e-15


def test_thermal_n1_diagonal():
    dim = 40
    rho = np.diag(oracles.thermal_pn(1.0, dim))
    diag = np.diag(rho)
    # renormalization shifts entries by ~2^-dim, far below rtol
    assert np.allclose(diag[:10], 0.5 ** (np.arange(10) + 1), rtol=1e-9)
    # geometric-series oracle for the truncated, renormalized mean
    p = np.array([0.5 ** (n + 1) for n in range(dim)])
    p /= p.sum()
    oracle_mean = float(np.sum(np.arange(dim) * p))
    got = np.trace(oracles.number(dim) @ rho).real
    assert got == pytest.approx(oracle_mean, abs=1e-14)
    assert got == pytest.approx(1.0, abs=1e-9)


def test_thermal_tail_rule():
    assert fock.ThermalLaw(0.0).dim == 1
    assert fock.ThermalLaw(0.5).dim == 21
    assert fock.ThermalLaw(1.0).dim == 34
    assert fock.ThermalLaw(3.0).dim == 81
    with pytest.raises(fock.TruncationError, match="at dim 40; need dim >= 81"):
        fock.ThermalLaw(3.0).check_tail(40, "dim")
    with pytest.raises(ValueError):
        fock.ThermalLaw(-0.1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(N=st.floats(min_value=0.0, max_value=1.7e308), seed=st.integers(0, 2**64 - 1),
       shots=st.integers(1, 50))
@example(N=5e-324, seed=0, shots=1)
@example(N=1e-10, seed=0, shots=1)
@example(N=1.1e-10, seed=0, shots=1)
@example(N=1e16, seed=0, shots=1)
@example(N=1e300, seed=0, shots=1)
@example(N=1e15, seed=0, shots=50)
def test_thermal_dim_is_the_tail_rule_with_two_levels_or_refuses(N, seed, shots):
    """The tail rule's dimension, at least 2 at N > 0 (one level would put
    the law's mean at 0), or TruncationError where N/(N+1) rounds to 1 and
    the rule has no finite dimension. The law's parts agree: its dim is the
    fewest levels check_tail passes (where the rule, not the floor of 2,
    sets it), pn is the law renormalised on dim levels, and draw is numpy's
    geometric draw at p0, bit for bit. pn is made on the rounded ratio,
    whose 1 - ratio is p0 only to eps / 2 absolute (2e-13 relative at
    N = 4229), so P(0) meets p0 to an absolute bound."""
    ratio = N / (N + 1.0)
    if ratio == 1.0:
        with pytest.raises(fock.TruncationError, match=r"N/\(N\+1\) rounds to 1"):
            fock.ThermalLaw(N)
        return
    law = fock.ThermalLaw(N)
    if N == 0.0:
        assert law.dim == 1
    else:
        rule = int(np.ceil(np.log(fock.THERMAL_TAIL) / np.log(ratio)))
        assert law.dim == max(2, rule)
    law.check_tail(law.dim, "dim")
    if law.dim > 2:
        with pytest.raises(fock.TruncationError, match="need dim >= %d" % law.dim):
            law.check_tail(law.dim - 1, "dim")
    if law.dim <= 1e5:
        assert abs(law.pn.sum() - 1.0) <= 1e-15
        assert abs(law.pn[0] * (1.0 - ratio ** law.dim) - law.p0) <= 1e-15
    want = np.random.default_rng(seed).geometric(law.p0, shots) - 1
    assert np.array_equal(law.draw(np.random.default_rng(seed), shots), want)


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    va = rng.normal(size=5) + 1j * rng.normal(size=5)
    vb = rng.normal(size=3) + 1j * rng.normal(size=3)
    ra = np.outer(va, va.conj())
    ra /= np.trace(ra)
    rb = np.outer(vb, vb.conj())
    rb /= np.trace(rb)
    joint = np.kron(ra, rb)
    assert np.abs(oracles.partial_trace(joint, (5, 3), 0) - ra).max() <= 1e-12
    assert np.abs(oracles.partial_trace(joint, (5, 3), 1) - rb).max() <= 1e-12


def test_partial_trace_correlated_block_diagonal():
    # direct-sum oracle: sum_n p_n |n><n| (x) rho_n
    d_b, d_a = 3, 4
    rng = np.random.default_rng(23)
    p = np.array([0.5, 0.3, 0.2])
    blocks = []
    joint = np.zeros((d_b * d_a, d_b * d_a), dtype=complex)
    for n in range(d_b):
        v = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
        rho_n = np.outer(v, v.conj())
        rho_n /= np.trace(rho_n)
        blocks.append(rho_n)
        proj = np.zeros((d_b, d_b))
        proj[n, n] = 1.0
        joint += p[n] * np.kron(proj, rho_n)
    got_b = oracles.partial_trace(joint, (d_b, d_a), 0)
    assert np.abs(got_b - np.diag(p)).max() <= 1e-12
    got_a = oracles.partial_trace(joint, (d_b, d_a), 1)
    expect_a = sum(p[n] * blocks[n] for n in range(d_b))
    assert np.abs(got_a - expect_a).max() <= 1e-12


def test_partial_trace_bad_index():
    with pytest.raises(ValueError):
        oracles.partial_trace(np.eye(6, dtype=complex), (2, 3), 2)


def test_expectation_examples():
    dim = 24
    vac = np.diag(np.eye(dim)[0]).astype(complex)
    assert np.trace(vac) == pytest.approx(1.0)
    y = oracles.quadrature_y(dim)
    assert np.trace(y @ vac) == pytest.approx(0.0, abs=1e-14)
    assert np.trace(y @ y @ vac) == pytest.approx(1.0, abs=1e-12)
    psi = coherent(1j, dim)
    coh = np.outer(psi, psi.conj())
    assert np.trace(y @ coh).real == pytest.approx(2.0, abs=1e-9)


def test_displacement_squeeze_composition():
    # D(alpha) S(r) |0>: mean alpha, variances e^{+-2r} regardless of alpha
    dim = 96
    rng = np.random.default_rng(2026)
    for _ in range(10):
        alpha = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 2.0
        r = rng.uniform(0.0, 1.0)
        psi = oracles.ladder_exp(oracles.squeezed_vacuum(r, dim), alpha)
        ea, _, _, vx, vy = vector_moments(psi)
        assert ea == pytest.approx(alpha, abs=1e-7)
        assert vx == pytest.approx(math.exp(2 * r), rel=1e-6)
        assert vy == pytest.approx(math.exp(-2 * r), rel=1e-6)


def test_density_invariants_preserved_by_conjugation():
    dim = 64
    rho = np.diag(oracles.thermal_pn(0.8, dim))
    u = oracles.ladder_exp(oracles.ladder_exp(np.eye(dim), 0.3), 1.0j)
    out = u @ rho @ u.conj().T
    assert np.abs(out - out.conj().T).max() <= 1e-12
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(out).min() >= -1e-10


def rendered_csv(header, *columns):
    """The bytes fock.write_csv hands its writer, collected into one buffer."""
    buf = bytearray()
    fock.write_csv(buf.extend, header, *columns)
    return buf


def test_write_csv_renders_the_same_rows_in_any_chunking(monkeypatch):
    cols = (np.arange(10), np.linspace(-1.0, 1.0, 10) ** 3, np.arange(10) % 3)
    whole = rendered_csv("i,x,k", *cols)
    monkeypatch.setattr(fock, "CSV_CHUNK", 3)
    chunked = rendered_csv("i,x,k", *cols)
    assert chunked == whole
    # an index column given as a range is made per chunk, to the same bytes
    assert rendered_csv("i,x,k", range(10), *cols[1:]) == whole
    lines = whole.decode().split("\n")
    assert lines[0] == "i,x,k" and lines[-1] == "" and len(lines) == 12
    assert lines[4] == f"3,{float(cols[1][3])!r},0"

    assert rendered_csv("i,x", np.arange(0), np.zeros(0)) == b"i,x\n"


INT64 = np.iinfo(np.int64)
# where repr and orjson's numpy format part: orjson's 1e-5 and repr's 1e-4
# switch to exponent form, and both formats' 1e16 switch, on both sides;
# exponents of one digit (repr pads them to two) and positive ones (repr
# signs them) with each leading digit; with either sign, zero, subnormals,
# nan, inf
FLOAT_EDGES = [x for e in (1e-5, 1e-4, 1e16)
               for x in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
FLOAT_EDGES += [1e-6, 1.5e-6, 9.9e-7, 1e-7, 1e-8, 9.9e-9, 1e-10]
FLOAT_EDGES += [float(f"{d}e{10 * d if d > 1 else 16}") for d in range(1, 10)]
FLOAT_EDGES += [9e99, 1e100, 1.7976931348623157e308]
FLOAT_EDGES += [-x for x in FLOAT_EDGES] + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                            np.nan, np.inf, -np.inf]
FLOAT_CELLS = st.one_of(st.floats(width=64), st.floats(1e-5, 1e-4), st.floats(-1e-4, -1e-5),
                        st.floats(-1e-5, 1e-5), st.floats(-1e-307, 1e-307),
                        st.sampled_from(FLOAT_EDGES))
INT_CELLS = st.one_of(st.integers(INT64.min, INT64.max), st.integers(-1000, 1000),
                      st.sampled_from([INT64.min, INT64.min + 1, INT64.max, -1, 0]))


@st.composite
def csv_columns(draw):
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=4))
    return [draw(hnp.arrays(np.float64, n, elements=FLOAT_CELLS)) if kind == "float"
            else draw(hnp.arrays(np.int64, n, elements=INT_CELLS)) for kind in kinds]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(columns=csv_columns(), chunk=st.sampled_from([1, 3, 4096, fock.CSV_CHUNK]))
# a one-digit exponent as the last cell of a column and of a chunk, before
# the closing bracket of orjson's text; every edge in one column
@example(columns=[np.array([1.0, 1.5e-6]), np.array([1e16, 9e-9])], chunk=1)
@example(columns=[np.array([1.0, 1.5e-6]), np.array([1e16, 9e-9])], chunk=2)
@example(columns=[np.array(FLOAT_EDGES)], chunk=1)
@example(columns=[np.array(FLOAT_EDGES)], chunk=fock.CSV_CHUNK)
def test_write_csv_bytes_equal_the_repr_oracle(columns, chunk):
    """Any float64 or int64 columns and any chunking: the orjson-rendered
    bytes are those of repr on every value."""
    header = ",".join("c%d" % i for i in range(len(columns)))
    with mock.patch.object(fock, "CSV_CHUNK", chunk):
        got = rendered_csv(header, *columns)
    assert bytes(got) == oracles.write_csv(header, *columns)


def test_write_csv_calls_repr_only_where_orjson_writes_fixed_point_or_null(monkeypatch):
    """orjson's exponent form, rewritten, renders |x| < 1e-5 and |x| >= 1e16:
    repr runs on the cells in [1e-5, 1e-4), where orjson writes fixed point,
    and on nan and inf, which it writes as null; on no other cell."""
    calls = []
    monkeypatch.setattr(fock, "repr", lambda x: calls.append(x) or builtins.repr(x),
                        raising=False)
    col = np.geomspace(1e-300, 1e20, 3201)
    col = np.concatenate((col, -col, [np.nan, np.inf, -np.inf]))
    assert bytes(rendered_csv("x", col)) == oracles.write_csv("x", col)
    a = np.abs(col)
    odd = col[(a >= 1e-5) & (a < 1e-4) | ~np.isfinite(col)].tolist()
    assert len(odd) == 21 and list(map(builtins.repr, calls)) == list(map(builtins.repr, odd))


def test_write_csv_refuses_ragged_or_unrenderable_columns():
    writes = []
    # zip would drop the rows of the longer column without a word
    with pytest.raises(ValueError, match=r"differ in length: \[3, 2\]"):
        fock.write_csv(writes.append, "i,x", np.arange(3), np.zeros(2))
    # orjson's text for these is not repr's: 0.1 as float32, true for True
    for col in (np.full(2, 0.1, dtype=np.float32), np.ones(2, dtype=bool)):
        with pytest.raises(TypeError, match="integer or float64"):
            fock.write_csv(writes.append, "i,x", np.arange(2), col)
    assert writes == []  # refused before the header: a file gets no partial text
