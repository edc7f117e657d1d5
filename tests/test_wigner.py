"""Wigner maps, marginals, and phonon-number reconstruction."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

import oracles
from qndsim import cli, fock, protocol, wigner

R50 = 0.5 * math.log(50.0)
NU = 2 * math.pi * 1e9
INV_2PI = 0.15915494309189535
INV_4PI = 0.07957747154594767
TWO_OVER_PI = 0.6366197723675814


def params(A=1.0, r=R50, N=1.0, **kw):
    return protocol.ProtocolParams(A=A, r=r, N=N, nu=NU, **kw)


def demo_im_spec(re_half, re_count):
    # Lattice with spacing 1/60 whose nodes include every center 0..33.
    return wigner.GridSpec(-re_half, re_half, re_count, -0.75, 34.05, 2089)


def tv(p, q):
    return wigner.total_variation(p, q)


# ---------------------------------------------------------------------------
# grids and the closed form

def test_gridspec_validation():
    spec = wigner.GridSpec(-1.0, 1.0, 5, 0.0, 2.0, 3)
    assert spec.re_axis().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert spec.im_axis().tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        wigner.GridSpec(1.0, -1.0, 5, 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        wigner.GridSpec(-1.0, 1.0, 1, 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        wigner.GridSpec(-math.inf, 1.0, 5, 0.0, 1.0, 5)
    # a span past float range, or one too fine for its count, has no spacing
    with pytest.raises(ValueError, match="re axis spacing inf is not a positive double"):
        wigner.GridSpec(-1e308, 1e308, 5, 0.0, 1.0, 5)
    with pytest.raises(ValueError, match="im axis spacing 0 is not a positive double"):
        wigner.GridSpec(-1.0, 1.0, 5, 0.0, 5e-324, 3)


@pytest.mark.parametrize("A, im, reason", [
    # A / h = 1e309 once raised OverflowError in round and was blamed on im_max
    (1e308, (0.0, 1.0, 11), "gives an Im lattice spacing 0.1 that counts A = 1e+308 or "
                            "im_min = 0 in steps past float range"),
    # a spacing wider than A holds no center past n = 0, though A / h rounds to 0
    (1e-10, (-3.0, -1.0, 3), "gives an Im lattice spacing 1 that does not divide A = 1e-10"),
])
def test_standard_lattice_refusals_name_im_count(A, im, reason):
    spec = wigner.GridSpec(-1.0, 1.0, 5, *im)
    with pytest.raises(wigner.GridError) as err:
        wigner.check_grid(params(A=A, N=0.0), spec, wigner.STANDARD)
    assert (err.value.field, err.value.reason) == ("im_count", reason)


def test_histogram_bins_below_zero_is_one_bin():
    # im_max / A = -inf once raised OverflowError in math.floor
    assert wigner.histogram_bins(-1.0, 5e-324, 2) == 1
    assert wigner.histogram_bins(-1.0, 1.0, 2) == 1
    assert wigner.histogram_bins(2.4, 1.0, 3) == 3


def test_histogram_bins_are_bounded_by_the_im_rows():
    # floor(im_max / A + 1/2) + 1 bins on at most as many rows; an infinite
    # ratio is refused by the same comparison
    for im_max, A, rows in ((2.5, 1.0, 3), (1.0, 5e-324, 2**62)):
        with pytest.raises(wigner.GridError, match="more histogram bins than the") as err:
            wigner.histogram_bins(im_max, A, rows)
        assert err.value.field == "im_max"


def test_paper_vacuum_value_and_normalization():
    p = params(A=1.0, r=0.0, N=0.0)
    spec = wigner.GridSpec(-5.5, 5.5, 111, -5.5, 5.5, 111)
    grid = wigner.wigner_paper(p, spec)
    assert grid.convention == wigner.PAPER
    assert grid.values[55, 55] == pytest.approx(INV_2PI, rel=1e-12)
    assert grid.values.min() >= 0.0
    assert wigner.marginal_P(grid).raw_integral == pytest.approx(1.0, abs=2e-3)


def test_paper_demo_center_value():
    grid = wigner.wigner_paper(params(), demo_im_spec(36.0, 145))
    i0 = 45   # im = 0
    j0 = 72   # re = 0
    assert grid.im_axis[i0] == pytest.approx(0.0, abs=1e-12)
    assert grid.re_axis[j0] == 0.0
    assert grid.values[i0, j0] == pytest.approx(INV_4PI, rel=1e-9)


def test_paper_demo_normalization_nonneg():
    grid = wigner.wigner_paper(params(), demo_im_spec(36.0, 145))
    assert grid.values.min() >= 0.0
    assert wigner.marginal_P(grid).raw_integral == pytest.approx(1.0, abs=2e-3)


def test_paper_coverage_error():
    with pytest.raises(ValueError, match="cover"):
        wigner.wigner_paper(params(), wigner.GridSpec(-36, 36, 145, -0.75, 20.0, 1247))
    with pytest.raises(ValueError, match="cover"):
        wigner.wigner_paper(params(), wigner.GridSpec(-10, 10, 41, -0.75, 34.05, 2089))


# ---------------------------------------------------------------------------
# displaced-parity numerics

def test_numeric_vacuum_gaussian():
    # N = 0 and r = 0: the pulse output's field is the vacuum.
    spec = wigner.GridSpec(-2.4, 2.4, 49, -2.4, 2.4, 49)
    grid = wigner.wigner_numeric_protocol(params(r=0.0, N=0.0), spec)
    assert grid.convention == wigner.STANDARD
    re = grid.re_axis[None, :]
    im = grid.im_axis[:, None]
    exact = TWO_OVER_PI * np.exp(-2.0 * (re**2 + im**2))
    assert np.max(np.abs(grid.values - exact)) < 1e-10
    assert grid.values[24, 24] == pytest.approx(TWO_OVER_PI, rel=1e-12)
    assert wigner.marginal_P(grid).raw_integral == pytest.approx(1.0, abs=2e-3)


def squeezed_parity(r, re, im):
    """The parity of D(-x - iy) S(r)|0>: exp(-2 x^2 e^{-2r} - 2 y^2 e^{2r})."""
    return np.exp(-2.0 * re[None, :] ** 2 * math.exp(-2.0 * r)
                  - 2.0 * im[:, None] ** 2 * math.exp(2.0 * r))


def test_numeric_matches_expm_displaced_parity():
    # One-shot exp(alpha a^dag - conj(alpha) a) per point on the dense
    # squeezed vacuum against the walk (gap 1.6e-15). At d = 80 no walked
    # state holds more than 4.4e-15 of its mass in its top EDGE_LEVELS
    # levels, inside fock.EDGE_TOL, so the walk's budget passes.
    dim, r = 80, 0.3
    re, im = np.linspace(0.0, 1.2, 5), np.linspace(0.0, 1.1, 5)
    walk = wigner._displaced_parity_walk(r, dim, re, im)
    psi = oracles.squeeze(r, dim)[:, 0]
    parity = 1.0 - 2.0 * (np.arange(dim) % 2)
    for i, y in enumerate(im):
        for j, x in enumerate(re):
            moved = oracles.displacement(-complex(x, y), dim) @ psi
            assert walk[i, j] == pytest.approx(parity @ np.abs(moved) ** 2, abs=1e-14)


E2R = st.floats(1.0, 4.0)
# a quarter-grid axis from a float start >= 0, or a lattice of spacing h
# that has a node on 0 or lies above it
QUARTER_AXIS = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.2, 1.5), st.integers(2, 3)).map(
        lambda a: np.linspace(a[0], a[0] + a[1], a[2])),
    st.tuples(st.floats(0.1, 0.6), st.integers(0, 2), st.integers(2, 4)).map(
        lambda a: a[0] * (a[1] + np.arange(a[2]))))


def walk_dim(r, re, im):
    """The walk's levels as wigner_numeric_protocol sizes them: the top of
    the fock.window at the grid's far corner."""
    return fock.window(complex(re.max(), im.max()), r, "the walked states")[1]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(e2r=E2R, re=QUARTER_AXIS, im=QUARTER_AXIS)
def test_walk_from_the_centre_matches_expm_per_point(e2r, re, im):
    # Squeezed vacua over a drawn r, on quarter grids that hold 0 or lie
    # above it: dense expm displacements against the walk, whose states
    # each come from the recurrence, with no stepping out from 0.
    # D(-x - iy) is D(-iy) D(-x) up to a phase, which the parity drops.
    r = 0.5 * math.log(e2r)
    dim = walk_dim(r, re, im)
    walk = wigner._displaced_parity_walk(r, dim, re, im)
    psi = oracles.squeeze(r, dim)[:, 0]
    line = np.stack([oracles.displacement(-x, dim) @ psi for x in re], axis=1)
    parity = 1.0 - 2.0 * (np.arange(dim) % 2)
    for i, y in enumerate(im):
        moved = oracles.displacement(-1j * y, dim) @ line
        assert np.abs(walk[i] - parity @ np.abs(moved) ** 2).max() <= 1e-12


@settings(derandomize=True, max_examples=30, deadline=None)
@given(e2r=E2R, re=QUARTER_AXIS, im=QUARTER_AXIS)
def test_parity_moments_match_the_stepped_walk(e2r, re, im):
    # Squeezed vacua over a drawn r, on quarter grids: the parities of the
    # recurrence's states against the seed stepped out along Re and the
    # line stepped along Im.
    r = 0.5 * math.log(e2r)
    dim = walk_dim(r, re, im)
    stepped, _ = oracles.stepped_parity_walk(oracles.squeezed_vacuum(r, dim), re, im)
    assert np.abs(wigner._displaced_parity_walk(r, dim, re, im) - stepped).max() <= 1e-12


def test_parity_moments_match_the_stepped_walk_on_the_benchmark_quarter():
    # The levels, distinct |Re| and Im rows that wigner_numeric_protocol walks
    # at the demo point on the Re +-12, 49-column grid: the recurrence's
    # 1300 states against the seed stepped out along Re by 24 displacements
    # and the line along Im by 51 (gap 3.6e-15). The walk itself is 1.3e-15
    # from the closed form.
    re, dn = np.unique(np.abs(np.linspace(-12.0, 12.0, 49))), np.arange(52) / 60.0
    walk = wigner._displaced_parity_walk(R50, 1934, re, dn)
    stepped, _ = oracles.stepped_parity_walk(oracles.squeezed_vacuum(R50, 1934), re, dn)
    assert np.abs(walk - stepped).max() <= 5e-15
    assert np.abs(walk - squeezed_parity(R50, re, dn)).max() <= 2e-15


def test_walk_budget_sees_the_largest_edge_mass_of_any_row(monkeypatch):
    # The walk holds every state of its quarter grid to the budget: it
    # refuses just below the largest top-level mass of any of them, as the
    # dense oracle measures it (here 2.95e-5, 3.13e-5 and 1.14e-4), and
    # passes just above it.
    cases = ((0.5 * math.log(10.0), 224, *SQUEEZED_QUARTER),
             (0.3, 56, np.linspace(0.0, 1.2, 4), np.linspace(0.0, 1.1, 4)),
             (R50, 643, np.linspace(0.0, 12.0, 25), np.arange(52) / 60.0))
    for r, dim, re, im in cases:
        largest = oracles.edge_masses(r, dim, re, im).max()
        assert largest > 1e-14
        monkeypatch.setattr(fock, "EDGE_TOL", 0.99 * largest)
        with pytest.raises(fock.TruncationError, match=f"walked state on {dim} levels"):
            wigner._displaced_parity_walk(r, dim, re, im)
        monkeypatch.setattr(fock, "EDGE_TOL", 1.01 * largest)
        wigner._displaced_parity_walk(r, dim, re, im)


def test_walk_peak_memory_on_the_benchmark_quarter():
    # The states run in slabs of at most fock.SLAB alphas, each reduced a
    # chunk of levels at a time: 3.1 MB on the 1300 states of 1934 levels.
    re, dn = np.unique(np.abs(np.linspace(-12.0, 12.0, 49))), np.arange(52) / 60.0
    tracemalloc.start()
    try:
        wigner._displaced_parity_walk(R50, 1934, re, dn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_numeric_mixture_of_coherent_states():
    # r = 0: the pulse output's field is the thermal mixture of |inA>.
    p = params(r=0.0)
    grid = wigner.wigner_numeric_protocol(p, wigner.GridSpec(-2.5, 2.5, 41, -2.0, 3.0, 41))
    assert np.max(np.abs(grid.values - standard_closed_form(p, grid))) < 1e-9


SQUEEZED_SPEC = wigner.GridSpec(-7.2, 7.2, 97, -0.8, 0.8, 49)
SQUEEZED_QUARTER = (np.linspace(0.0, 7.2, 49), np.linspace(0.0, 0.8, 25))


def test_numeric_squeezed_marginal_variances():
    grid = wigner.wigner_numeric_protocol(params(r=0.5 * math.log(10.0), N=0.0), SQUEEZED_SPEC)
    assert wigner.marginal_P(grid).raw_integral == pytest.approx(1.0, abs=2e-3)
    w_re = np.trapezoid(grid.values, grid.im_axis, axis=0)
    w_im = np.trapezoid(grid.values, grid.re_axis, axis=1)
    var_re = np.trapezoid(w_re * grid.re_axis**2, grid.re_axis) / np.trapezoid(w_re, grid.re_axis)
    var_im = np.trapezoid(w_im * grid.im_axis**2, grid.im_axis) / np.trapezoid(w_im, grid.im_axis)
    assert var_re == pytest.approx(10.0 / 4.0, rel=1e-3)
    assert var_im == pytest.approx(0.1 / 4.0, rel=1e-3)


def test_numeric_walk_budget_refuses_short_truncations(monkeypatch):
    # Walked on these quarter grids, the e^{2r} = 10 squeezed vacuum on 224
    # levels holds 3.0e-5 of its mass in its top EDGE_LEVELS levels, and
    # the r = 0.3 one on 64 levels 2.3e-8.
    cases = ((0.5 * math.log(10.0), 224, *SQUEEZED_QUARTER),
             (0.3, 64, np.linspace(0.0, 1.2, 4), np.linspace(0.0, 1.1, 4)))
    for r, dim, re, im in cases:
        with pytest.raises(fock.TruncationError, match=f"walked state on {dim} levels"):
            wigner._displaced_parity_walk(r, dim, re, im)
    monkeypatch.setattr(fock, "EDGE_TOL", 1e-4)  # above both masses: the budget refused them
    for r, dim, re, im in cases:
        wigner._displaced_parity_walk(r, dim, re, im)


def generic_gap(spec):
    """Largest gap of the protocol path to the dense displaced parity of the
    pulse output."""
    p = params(A=0.36, r=0.5 * math.log(2.0), N=0.02)
    rho_a = oracles.field_state_dense(protocol.evolve_pulse(p), 160)
    fast = wigner.wigner_numeric_protocol(p, spec, tail_sigmas=8.0)
    assert fast.convention == wigner.STANDARD
    return np.max(np.abs(oracles.wigner_dense(rho_a, spec) - fast.values))


def test_protocol_path_matches_generic():
    # Re -2..2 in steps of 1/4 is symmetric to the bit: the walk covers its
    # 9 columns at Re >= 0 and mirrors them (gap 1.7e-15).
    assert generic_gap(wigner.GridSpec(-2.0, 2.0, 17, -0.18, 1.98, 37)) < 1e-14


def test_protocol_path_matches_generic_on_an_asymmetric_re_grid():
    # Re -0.95..2.25 has no mirror image: its 17 distinct |Re| are walked,
    # each state from the recurrence (gap 1.8e-15).
    assert generic_gap(wigner.GridSpec(-0.95, 2.25, 17, -0.18, 1.98, 37)) < 1e-14


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_mirror_defect_bounds_the_mirrored_values(eps):
    # A seed |delta| = eps off a real even state, stepped over the whole grid:
    # its Wigner values at alpha, -alpha and conj(alpha) differ by 1.3 eps,
    # linear in that norm, inside (4/pi)(2 eps + eps^2). The recurrence at
    # conj(alpha) gives the conjugate amplitudes, so the walk's parities are
    # even in Im to the bit, and they meet the unperturbed seed's on the
    # mirrored grid (gap 2.1e-15).
    dim = 96
    r = 0.5 * math.log(4.0)
    psi = oracles.squeezed_vacuum(r, dim)
    psi = psi + eps * (0.6 * np.eye(dim)[1] + 0.8j * np.eye(dim)[2])
    psi /= np.linalg.norm(psi)
    axis = np.array([-0.7, -0.2, 0.2, 0.7])
    w = (2.0 / math.pi) * oracles.stepped_parity_walk(psi, axis, axis)[0]
    gap = max(np.abs(w - w[::-1, ::-1]).max(), np.abs(w - w[::-1]).max(),
              np.abs(w - w[:, ::-1]).max())
    assert eps < gap <= (4.0 / math.pi) * (2.0 * eps + eps**2)
    walk = wigner._displaced_parity_walk(r, dim, axis[2:], axis)
    assert np.array_equal(walk, walk[::-1])
    unperturbed, _ = oracles.stepped_parity_walk(oracles.squeezed_vacuum(r, dim), axis, axis)
    assert np.abs(np.hstack([walk[:, ::-1], walk]) - unperturbed).max() <= 1e-14


def standard_closed_form(p, grid):
    """(2/pi) sum_n P(n) exp(-2 Re^2 e^{-2r} - 2 (Im - nA)^2 e^{2r})."""
    pn = p.law.pn
    re = grid.re_axis[None, :]
    im = grid.im_axis[:, None]
    return TWO_OVER_PI * sum(
        w * np.exp(-2.0 * re**2 * math.exp(-2.0 * p.r) - 2.0 * (im - n * p.A) ** 2 * math.exp(2.0 * p.r))
        for n, w in enumerate(pn))


def test_protocol_path_matches_closed_form_at_demo_point():
    # Re +-12 reaches 1.7 antisqueezed standard deviations; a field dimension
    # sized for a coherent state of that amplitude is off by 3.7e-3 there.
    # With each state from the recurrence the map is 4.2e-16 off.
    p = params()
    grid = wigner.wigner_numeric_protocol(p, demo_im_spec(12.0, 49))
    assert np.max(np.abs(grid.values - standard_closed_form(p, grid))) < 5e-15


def test_protocol_path_walk_budget(monkeypatch):
    # The walked states' top-level mass is measured: at a coherent-state
    # dimension it is 1.2e-4, far above fock.EDGE_TOL.
    re, dn = np.linspace(0.0, 12.0, 25), np.arange(52) / 60.0
    with pytest.raises(fock.TruncationError, match="walked state on 643 levels"):
        wigner._displaced_parity_walk(R50, 643, re, dn)
    monkeypatch.setattr(fock, "EDGE_TOL", 1e-5)
    with pytest.raises(fock.TruncationError, match="walked state on 643 levels"):
        wigner._displaced_parity_walk(R50, 643, re, dn)


def test_protocol_path_requires_center_lattice():
    p = params(A=0.36, r=0.5 * math.log(2.0), N=0.02)
    with pytest.raises(wigner.GridError, match="lattice") as spacing:
        wigner.wigner_numeric_protocol(p, wigner.GridSpec(-1.6, 1.6, 17, -0.2, 2.0, 23))
    assert spacing.value.field == "im_count"
    with pytest.raises(wigner.GridError, match="lattice") as offset:
        wigner.wigner_numeric_protocol(p, wigner.GridSpec(-1.6, 1.6, 17, -0.2, 2.44, 23))
    assert offset.value.field == "im_min"


# ---------------------------------------------------------------------------
# marginals and reconstruction

def test_marginal_demo_peak_weights():
    grid = wigner.wigner_paper(params(), demo_im_spec(36.0, 145))
    marg = wigner.marginal_P(grid)
    assert marg.raw_integral == pytest.approx(1.0, abs=1e-3)
    assert np.trapezoid(marg.density, marg.im_axis) == pytest.approx(1.0, rel=1e-12)
    centers = [45 + 60 * n for n in range(3)]
    heights = marg.density[centers]
    assert heights[0] / heights[1] == pytest.approx(2.0, rel=1e-3)
    assert heights[1] / heights[2] == pytest.approx(2.0, rel=1e-3)


def test_reconstruct_demo_matches_geometric():
    p = params()
    spec = wigner.GridSpec(-36.0, 36.0, 145, -0.75, 34.05, 8353)
    marg = wigner.marginal_P(wigner.wigner_paper(p, spec))
    hist = wigner.reconstruct_pn(marg, p)
    assert protocol.is_distinguishable(p)
    assert hist.method == "marginal-integration"
    assert hist.probabilities.sum() == pytest.approx(1.0, abs=1e-3)
    assert hist.probabilities.min() >= 0.0
    assert tv(hist.probabilities, fock.ThermalLaw(1.0).pn) < 2e-3


def test_reconstruct_vacuum():
    p = params(N=0.0)
    spec = wigner.GridSpec(-36.0, 36.0, 145, -0.75, 0.75, 301)
    hist = wigner.reconstruct_pn(wigner.marginal_P(wigner.wigner_paper(p, spec)), p)
    assert hist.probabilities[0] > 0.999
    assert hist.probabilities.sum() == pytest.approx(1.0, rel=1e-12)
    assert 0.0 < hist.leakage < 1e-3


def test_reconstruct_below_threshold_warns(tmp_path):
    # The manifest flags the overlap below the distinguishability threshold.
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 1, "output_dir": str(out), "params": {"A": 0.25, "r": 0.0, "N": 1.0, "nu": NU},
        "grid": {"re_min": -6.0, "re_max": 6.0, "re_count": 61,
                 "im_min": -5.0, "im_max": 13.5, "im_count": 371}}))
    assert cli.main(["wigner", "--config", str(config)]) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert results["overlap_warning"] is True
    assert results["leakage"] > 0.1
    expected = (1.0 - 0.25) * erfc(0.25 / (2.0 * math.sqrt(2.0)))
    assert results["leakage"] == pytest.approx(expected, rel=1e-12)
    hist = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1)
    assert hist[:, 1].sum() == pytest.approx(1.0, rel=1e-12)


def test_reconstruct_tv_ladder_monotone():
    exact = fock.ThermalLaw(1.0).pn
    tvs = []
    for e2r in (2.0, 10.0, 50.0, 200.0):
        r = 0.5 * math.log(e2r)
        p = params(r=r)
        sig_im = math.exp(-r)
        sig_re = math.exp(r)
        h = sig_im / 80.0
        lo = -math.ceil(5.5 * sig_im / h) * h
        hi = 33.0 + math.ceil(5.5 * sig_im / h) * h
        count = round((hi - lo) / h) + 1
        spec = wigner.GridSpec(-5.5 * sig_re, 5.5 * sig_re, 121, lo, hi, count)
        hist = wigner.reconstruct_pn(wigner.marginal_P(wigner.wigner_paper(p, spec)), p)
        tvs.append(tv(hist.probabilities, exact))
    assert tvs[0] > 0.05
    assert tvs[-1] < 1e-3
    for a, b in zip(tvs, tvs[1:]):
        assert b <= a + 2e-5


def test_convention_bridge_demo_params():
    p = params()
    paper = wigner.marginal_P(wigner.wigner_paper(p, demo_im_spec(36.0, 145)))
    numeric = wigner.marginal_P(
        wigner.wigner_numeric_protocol(p, demo_im_spec(2.0, 17))
    )
    h_paper = wigner.reconstruct_pn(paper, p)
    h_numeric = wigner.reconstruct_pn(numeric, p)
    assert protocol.is_distinguishable(p)
    assert tv(h_paper.probabilities, h_numeric.probabilities) <= 0.01


# ---------------------------------------------------------------------------
# histograms and exports

def test_total_variation_pads_the_shorter_histogram():
    assert tv(np.array([1.0]), np.array([0.5, 0.5])) == pytest.approx(0.5)
    assert tv(np.array([0.5, 0.5]), np.array([1.0])) == pytest.approx(0.5)
    assert tv(np.array([1.0]), np.array([1.0, 0.0, 0.0])) == 0.0


def test_grid_csv_render_peak_stays_under_its_bytes():
    # the render holds the grid's coordinate columns and one fock.CSV_CHUNK
    # of rows, one bytes object per cell, never the text it hands its
    # writer: on the benchmark grid (4.3 MB) that peak is 0.77x
    grid = wigner.wigner_numeric_protocol(params(), demo_im_spec(12.0, 49))
    written = []
    tracemalloc.start()
    try:
        wigner.write_grid_csv(grid, lambda chunk: written.append(len(chunk)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(written) > 4e6 and peak < 1.0 * sum(written)


def test_export_formats():
    grid = wigner.WignerGrid(
        np.array([0.0, 1.0]),
        np.array([0.0, 2.0]),
        np.array([[0.5, 0.25], [0.125, 1.0]]),
        wigner.PAPER,
    )
    def rendered(write_csv, obj):
        buf = bytearray()
        write_csv(obj, buf.extend)
        return buf

    assert rendered(wigner.write_grid_csv, grid) == (
        b"re,im,w\n"
        b"0.0,0.0,0.5\n"
        b"1.0,0.0,0.25\n"
        b"0.0,2.0,0.125\n"
        b"1.0,2.0,1.0\n"
    )
    marg = wigner.Marginal(np.array([0.0, 0.5]), np.array([1.5, 0.5]), wigner.PAPER, 1.0)
    assert rendered(wigner.write_marginal_csv, marg) == b"coordinate,value\n0.0,1.5\n0.5,0.5\n"
    hist = wigner.PhononHistogram(np.array([0.75, 0.25]), "direct", 0.0)
    assert rendered(wigner.write_histogram_csv, hist) == b"n,p\n0,0.75\n1,0.25\n"
