"""Fock-engine checks: series and dense oracles for the displacement kernel
and the closed-form squeezed vacuum, ladder algebra, thermal tail policing,
and the CSV renderer's bytes against its repr oracle."""

import builtins
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm
from scipy.special import jv

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


def test_quadrature_action_matches_dense_operators():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(2, 3, 12)) + 1j * rng.normal(size=(2, 3, 12))
    for k0 in (0, 7):
        # X and Y on the levels [k0, k0 + 12): a diagonal block of the dense ones
        x = oracles.quadrature_x(k0 + 12)[k0:, k0:]
        y = oracles.quadrature_y(k0 + 12)[k0:, k0:]
        xpsi, ypsi = fock.quadrature_action(psi, k0)
        assert np.max(np.abs(xpsi - psi @ x.T)) <= 1e-13
        assert np.max(np.abs(ypsi - psi @ y.T)) <= 1e-13
        # one vector gives the same bits as a row of the batch
        single = fock.quadrature_action(psi[1, 2], k0)
        assert np.array_equal(single[0], xpsi[1, 2]) and np.array_equal(single[1], ypsi[1, 2])


def coherent(alpha, dim):
    """D(alpha)|0> by the action kernel on the levels [0, dim)."""
    return fock.ladder_exp(np.eye(dim)[0], alpha)


def test_displacement_identity_at_zero():
    d = fock.ladder_exp(np.eye(12), 0.0)
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
    psi = fock.ladder_exp(fock.squeezed_vacuum(r, hi), alpha)
    fock.check_edge_mass(np.abs(psi) ** 2, "the window at alpha = %r" % alpha)


def test_displacement_group_inverse():
    dim = 48
    alpha = 1.1 - 0.6j
    prod = fock.ladder_exp(fock.ladder_exp(np.eye(dim), -alpha), alpha)
    k = dim - oracles.GUARD_BAND
    assert np.abs((prod - np.eye(dim))[:k, :k]).max() <= 1e-10


def test_squeeze_identity_at_zero():
    assert np.array_equal(fock.squeezed_vacuum(0.0, 16), np.eye(16)[0])


def test_squeeze_matches_series_oracle():
    # the closed form has no truncation: every level matches, the top too
    r = 0.6
    dim = 64
    assert np.abs(fock.squeezed_vacuum(r, dim) - squeezed_amps(r, dim)).max() <= 1e-15


def test_squeeze_vacuum_variances_at_e2r_50():
    r = 0.5 * math.log(50.0)
    dim = 512
    psi = fock.squeezed_vacuum(r, dim)
    _, _, _, vx, vy = vector_moments(psi)
    assert vy == pytest.approx(0.02, abs=1e-6)
    assert vx == pytest.approx(50.0, rel=1e-6)


def test_squeeze_minimum_uncertainty():
    psi = fock.squeezed_vacuum(0.5, 64)
    _, _, _, vx, vy = vector_moments(psi)
    assert vx * vy == pytest.approx(1.0, abs=1e-8)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(e2r=st.floats(1.0, 10.0))
@example(e2r=1.0)
@example(e2r=10.0)
def test_squeezed_vacuum_equals_the_dense_expm(e2r):
    """On the window of S(r)|0>, the closed form is the dense expm of the
    a'^2 generator truncated to twice as many levels, whose truncation
    bends only levels far above the window. It is real with zero odd
    levels to the bit, which the mirrored Wigner walk relies on."""
    r = 0.5 * math.log(e2r)
    _, dim = fock.window(0j, r, "the window of the seed")
    psi = fock.squeezed_vacuum(r, dim)
    assert np.abs(psi - oracles.squeeze(r, 2 * dim)[:dim, 0]).max() <= 1e-13
    assert np.all(psi.imag == 0.0) and np.all(psi[1::2] == 0.0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(e2r=st.floats(1.0, 1000.0))
@example(e2r=50.0)
def test_squeezed_vacuum_moments_through_the_quadrature_stencil(e2r):
    """Var Y = e^{-2r} and <n> = sinh^2 r of the closed form on its window,
    taken through the banded stencil the block chain's moments use."""
    r = 0.5 * math.log(e2r)
    _, dim = fock.window(0j, r, "the window of the seed")
    psi = fock.squeezed_vacuum(r, dim)
    _, ypsi = fock.quadrature_action(psi)
    assert np.vdot(ypsi, ypsi).real - np.vdot(psi, ypsi).real ** 2 == pytest.approx(
        1.0 / e2r, rel=1e-12)
    assert np.dot(np.arange(dim), np.abs(psi) ** 2) == pytest.approx(math.sinh(r) ** 2,
                                                                     rel=1e-12, abs=1e-300)


def test_unitarity_guard_banded():
    eye = np.eye(64)
    for z in (1.5j, 2.0 - 1.0j):
        assert oracles.unitarity_defect(fock.ladder_exp(eye, z)) <= 1e-10


BLOCKS = st.tuples(st.integers(2, 24), st.sampled_from([(), (1,), (3,)]))


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
    got = fock.ladder_exp(psi, z, k0)
    want = expm(oracles.ladder_generator(z, 1, dim, k0)) @ psi
    scale = np.linalg.norm(psi, axis=0)
    assert got.shape == psi.shape
    assert np.abs(got - want).max() <= 1e-12 * scale.max()
    assert np.abs(np.linalg.norm(got, axis=0) - scale).max() <= 1e-12 * scale.max()


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=100, deadline=None)
@given(log_tau=st.floats(math.log(1e-300), math.log(4000.0)))
def test_chebyshev_coefficients_are_normalised_bessel_values(log_tau):
    """Miller's recurrence against scipy's jv, whose own error at tau ~ 4000
    is about 5e-14, and against the identity J_0^2 + 2 sum_m J_m^2 = 1."""
    tau = math.exp(log_tau)
    coef = fock.chebyshev_coefficients(tau)
    m = np.arange(len(coef))
    bessel = (np.array([1, -1j, -1, 1j])[m % 4] * coef).real / np.where(m, 2.0, 1.0)
    assert np.all(np.isfinite(coef))
    assert np.abs(bessel - jv(m, tau)).max() <= 1e-13
    assert abs(bessel[0] ** 2 + 2.0 * np.sum(bessel[1:] ** 2) - 1.0) <= 1e-13


def test_ladder_exp_block_equals_its_columns_bit_for_bit(monkeypatch):
    """A block's columns go through the recurrence in slabs of at most
    fock.SLAB real entries; no slab size changes a bit of any column."""
    rng = np.random.default_rng(11)
    cases = (((1831, 49), -1j / 60.0, 0), ((700, 40), 0.02 - 0.01j, 120))
    for slab in (fock.SLAB, 5 * 1831):
        monkeypatch.setattr(fock, "SLAB", slab)
        for (dim, cols), z, k0 in cases:
            block = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
            got = fock.ladder_exp(block, z, k0)
            for j in range(cols):
                assert np.array_equal(got[:, j], fock.ladder_exp(block[:, j], z, k0))


def test_thermal_vacuum():
    rho = np.diag(fock.thermal_pn(0.0, 8))
    expect = np.zeros((8, 8), dtype=complex)
    expect[0, 0] = 1.0
    assert np.abs(rho - expect).max() <= 1e-15


def test_thermal_n1_diagonal():
    dim = 40
    rho = np.diag(fock.thermal_pn(1.0, dim))
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
    assert fock.thermal_dim(0.0) == 1
    assert fock.thermal_dim(0.5) == 21
    assert fock.thermal_dim(1.0) == 34
    assert fock.thermal_dim(3.0) == 81
    with pytest.raises(fock.TruncationError):
        fock.thermal_pn(3.0, 40)
    with pytest.raises(ValueError):
        fock.thermal_pn(-0.1, 8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(N=st.floats(min_value=0.0, max_value=1.7e308))
@example(N=5e-324)
@example(N=1e-10)
@example(N=1.1e-10)
@example(N=1e16)
@example(N=1e300)
def test_thermal_dim_is_the_tail_rule_with_two_levels_or_refuses(N):
    """The tail rule's dimension, at least 2 at N > 0 (one level would put
    the law's mean at 0), or TruncationError where N/(N+1) rounds to 1 and
    the rule has no finite dimension."""
    if N == 0.0:
        assert fock.thermal_dim(N) == 1
    elif N / (N + 1.0) == 1.0:
        with pytest.raises(fock.TruncationError, match=r"N/\(N\+1\) rounds to 1"):
            fock.thermal_dim(N)
    else:
        rule = int(np.ceil(np.log(fock.THERMAL_TAIL) / np.log(N / (N + 1.0))))
        assert fock.thermal_dim(N) == max(2, rule)


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
        psi = fock.ladder_exp(fock.squeezed_vacuum(r, dim), alpha)
        ea, _, _, vx, vy = vector_moments(psi)
        assert ea == pytest.approx(alpha, abs=1e-7)
        assert vx == pytest.approx(math.exp(2 * r), rel=1e-6)
        assert vy == pytest.approx(math.exp(-2 * r), rel=1e-6)


def test_density_invariants_preserved_by_conjugation():
    dim = 64
    rho = np.diag(fock.thermal_pn(0.8, dim))
    u = fock.ladder_exp(fock.ladder_exp(np.eye(dim), 0.3), 1.0j)
    out = u @ rho @ u.conj().T
    assert np.abs(out - out.conj().T).max() <= 1e-12
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_write_csv_renders_the_same_rows_in_any_chunking(monkeypatch):
    cols = (np.arange(10), np.linspace(-1.0, 1.0, 10) ** 3, np.arange(10) % 3)
    whole = fock.write_csv("i,x,k", *cols)
    monkeypatch.setattr(fock, "CSV_CHUNK", 3)
    chunked = fock.write_csv("i,x,k", *cols)
    assert chunked == whole
    lines = whole.decode().split("\n")
    assert lines[0] == "i,x,k" and lines[-1] == "" and len(lines) == 12
    assert lines[4] == f"3,{float(cols[1][3])!r},0"

    assert fock.write_csv("i,x", np.arange(0), np.zeros(0)) == b"i,x\n"


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
        got = fock.write_csv(header, *columns)
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
    assert bytes(fock.write_csv("x", col)) == oracles.write_csv("x", col)
    a = np.abs(col)
    odd = col[(a >= 1e-5) & (a < 1e-4) | ~np.isfinite(col)].tolist()
    assert len(odd) == 21 and list(map(builtins.repr, calls)) == list(map(builtins.repr, odd))


def test_write_csv_refuses_ragged_or_unrenderable_columns():
    # zip would drop the rows of the longer column without a word
    with pytest.raises(ValueError, match=r"differ in length: \[3, 2\]"):
        fock.write_csv("i,x", np.arange(3), np.zeros(2))
    # orjson's text for these is not repr's: 0.1 as float32, true for True
    for col in (np.full(2, 0.1, dtype=np.float32), np.ones(2, dtype=bool)):
        with pytest.raises(TypeError, match="integer or float64"):
            fock.write_csv("i,x", np.arange(2), col)
