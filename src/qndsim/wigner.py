"""Phase-space maps of the pulse output and phonon-number reconstruction.

Two Wigner conventions are exposed side by side:

``paper-closed-form``
    The literal closed form for the protocol output state: a thermal
    mixture of Gaussian peaks with prefactor 1/(2*pi), unit vacuum
    quadrature variance, peak centers at n*A on the imaginary axis, and
    widths exp(-r) along Im / exp(+r) along Re.

``standard-numeric``
    The displaced-parity definition W(alpha) = (2/pi) tr[D(alpha) P
    D(alpha)^dag rho] (Royer, Phys. Rev. A 15, 449 (1977)) of the pulse
    output, evaluated numerically by one walk of its squeezed-vacuum
    patch. Vacuum peaks at 2/pi and quadrature variances are exp(+-2r)/4.

Both conventions place the peak centers at n*A in these coordinates; they
differ in peak width and overall value scale. Reconstruction therefore
bins the Im-axis marginal around the shared centers, bin n on n*A, which
makes the two paths directly comparable without rescaling the axis.
check_grid states what each convention needs of the grid; both maps call
it, and the CLI calls it for every point before any map is computed.

The walk builds no displacement operator and takes no step: the Fock
amplitudes of each state D(-alpha) S(r)|0> of its grid come from the
recurrence of their annihilation equation, fock.displaced_squeezed_sums,
on the walk's Fock levels, and are reduced to their parity as they are
made. The cost is linear in the grid's points, Im rows as well as Re
columns. The map of the squeezed vacuum is symmetric under alpha -> -alpha
and alpha -> conj(alpha), and so is the recurrence, to the bit: the walk
covers the quarter Im >= 0, Re >= 0, at each distinct |Re| of the grid,
and mirrors it. The recurrence is rescaled by powers of two, so the
evaluation cannot overflow even for strongly squeezed states where a
normally ordered expansion of D(alpha) would exceed double range. Every
walked state is held to fock's edge budget. Nothing here warns: whether
neighbouring peaks overlap is protocol.is_distinguishable, and a
histogram's leakage estimates the mass the overlap moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, protocol

PAPER = "paper-closed-form"
STANDARD = "standard-numeric"

COVERAGE_SIGMAS = 5.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid in the complex plane, alpha = re + i*im."""

    re_min: float
    re_max: float
    re_count: int
    im_min: float
    im_max: float
    im_count: int

    def __post_init__(self) -> None:
        for lo, hi, count, name in (
            (self.re_min, self.re_max, self.re_count, "re"),
            (self.im_min, self.im_max, self.im_count, "im"),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} axis bounds must be finite")
            if not hi > lo:
                raise ValueError(f"{name}_max must exceed {name}_min")
            if count < 2:
                raise ValueError(f"{name}_count must be at least 2")
            spacing = (hi - lo) / (count - 1)
            if not 0.0 < spacing < math.inf:
                raise ValueError(f"{name} axis spacing {spacing:g} is not a positive double")

    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.re_count)

    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.im_count)


@dataclass(frozen=True)
class WignerGrid:
    """Wigner values on a product grid; values[i, j] is W(re[j] + i*im[i])."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray
    convention: str


@dataclass(frozen=True)
class Marginal:
    """Normalized Im-axis density obtained by integrating out Re(alpha)."""

    im_axis: np.ndarray
    density: np.ndarray
    convention: str
    raw_integral: float


@dataclass(frozen=True)
class PhononHistogram:
    probabilities: np.ndarray
    method: str
    leakage: float


class GridError(ValueError):
    """The grid cannot hold the map; field names the GridSpec field at fault."""

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"grid {field} {reason}")
        self.field, self.reason = field, reason


def check_grid(params: protocol.ProtocolParams, spec: GridSpec, convention: str) -> None:
    """Raise GridError unless spec can hold the map of this convention.

    ``paper-closed-form`` needs every populated peak center plus
    COVERAGE_SIGMAS standard deviations on both axes, or the marginal would
    be silently truncated. ``standard-numeric`` needs an Im axis that is a
    lattice holding the peak centers: its spacing goes into A a whole number
    of times, at least once, and im_min is a multiple of it, both in a count
    of steps within float range.
    """
    if convention == PAPER:
        top = (params.law.dim - 1) * params.A
        reach_re = COVERAGE_SIGMAS * math.exp(params.r)
        reach_im = COVERAGE_SIGMAS * math.exp(-params.r)
        reason = f"does not cover the peak centers plus {COVERAGE_SIGMAS:g} standard deviations"
        bounds = ((spec.re_min <= -reach_re + 1e-9, "re_min", reason),
                  (spec.re_max >= reach_re - 1e-9, "re_max", reason),
                  (spec.im_min <= -reach_im + 1e-9, "im_min", reason),
                  (spec.im_max >= top + reach_im - 1e-9, "im_max", reason))
    else:
        h = (spec.im_max - spec.im_min) / (spec.im_count - 1)
        ratio, base = params.A / h, -spec.im_min / h
        if not (math.isfinite(ratio) and math.isfinite(base)):
            raise GridError("im_count", f"gives an Im lattice spacing {h:g} that counts "
                            f"A = {params.A:g} or im_min = {spec.im_min:g} in steps past "
                            "float range")
        bounds = ((round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9, "im_count",
                   f"gives an Im lattice spacing {h:g} that does not divide A = {params.A:g}"),
                  (abs(base - round(base)) <= 1e-9, "im_min",
                   f"is off the Im lattice of spacing {h:g} that holds the peak centers"))
    for ok, field, reason in bounds:
        if not ok:
            raise GridError(field, reason)


def wigner_paper(params: protocol.ProtocolParams, spec: GridSpec) -> WignerGrid:
    """Closed-form Wigner map of the pulse output (``paper-closed-form``),
    on a grid that passes check_grid."""
    check_grid(params, spec, PAPER)
    pn = params.law.pn
    re = spec.re_axis()
    im = spec.im_axis()
    g_re = np.exp(-0.5 * math.exp(-2.0 * params.r) * re**2)
    centers = params.A * np.arange(pn.size)
    # (im - nA)^2 for all peaks at once; rows index im, columns index n.
    quad = (im[:, None] - centers[None, :]) ** 2
    g_im = np.exp(-0.5 * math.exp(2.0 * params.r) * quad) @ pn
    values = np.outer(g_im, g_re) / (2.0 * math.pi)
    return WignerGrid(re, im, values, PAPER)


def _displaced_parity_walk(r: float, dim: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Parities of D(-alpha) S(r)|0> on the levels [0, dim) at alpha = x + iy,
    x of re and y of im, rows along im: each state's Fock amplitudes from
    fock.displaced_squeezed_sums, reduced to its parity and norm on those
    levels. Every state is held to the edge budget fock.check_edge_mass.
    """
    alphas = -(np.asarray(re)[None, :] + 1j * np.asarray(im)[:, None])
    parity, norm, edge = fock.displaced_squeezed_sums(alphas.ravel(), r, dim)
    # each state's top-level mass, as a block of one level
    fock.check_edge_mass((edge / norm)[None], f"a walked state on {dim} levels")
    return (parity / norm).reshape(alphas.shape)


def wigner_numeric_protocol(
    params: protocol.ProtocolParams,
    spec: GridSpec,
    *,
    tail_sigmas: float = 12.0,
) -> WignerGrid:
    """Displaced-parity Wigner map of the pulse output state.

    Every phonon block of the output is the same squeezed vacuum
    translated to n*A on the imaginary axis, and the displaced-parity form
    is exactly covariant under displacements. The squeezed-vacuum Wigner
    patch is therefore walked once and accumulated at each populated
    center with its thermal weight, which keeps the field dimension
    independent of the phonon occupation.

    The grid must pass check_grid: its Im axis is a lattice that contains
    the peak centers. Each peak is patched out to tail_sigmas standard
    deviations.
    """
    check_grid(params, spec, STANDARD)
    re = spec.re_axis()
    im = spec.im_axis()
    h = (spec.im_max - spec.im_min) / (spec.im_count - 1)
    step = int(round(params.A / h))
    base = int(round(-spec.im_min / h))

    sig = math.exp(-params.r) / 2.0
    half_rows = int(math.ceil(tail_sigmas * sig / h))
    dn = h * np.arange(half_rows + 1)
    # The walked states D(-alpha) S(r)|0> fit in fock.window at the patch's
    # far corner, as the pulse blocks do; the walk measures their edge mass.
    _, dim = fock.window(complex(np.max(np.abs(re)), dn[-1]), params.r,
                         "the Fock window of the walked states")
    walked_re, cols = np.unique(np.abs(re), return_inverse=True)
    quarter = (2.0 / math.pi) * _displaced_parity_walk(params.r, dim, walked_re, dn)
    patch = quarter[np.abs(np.arange(-half_rows, half_rows + 1))][:, cols]

    values = np.zeros((im.size, re.size))
    for n, weight in enumerate(params.law.pn):
        center = base + n * step
        lo = max(0, center - half_rows)
        hi = min(im.size, center + half_rows + 1)
        if lo >= hi:
            continue
        values[lo:hi] += weight * patch[lo - (center - half_rows) : hi - (center - half_rows)]
    return WignerGrid(re, im, values, STANDARD)


def marginal_P(grid: WignerGrid) -> Marginal:
    """Integrate out Re(alpha) and normalize the resulting Im density."""
    density = np.trapezoid(grid.values, grid.re_axis, axis=1)
    raw = float(np.trapezoid(density, grid.im_axis))
    if raw <= 0.0:
        raise ValueError("marginal has nonpositive total mass")
    return Marginal(grid.im_axis, density / raw, grid.convention, raw)


def histogram_bins(im_max: float, A: float, rows: int) -> int:
    """Bins of reconstruct_pn: n = 0 up to the last center n * A at most
    half a spacing A below im_max; GridError when there are more of them
    than the rows of the Im axis the marginal is sampled on, which could
    not resolve them (and whose count is also the bound on their memory)."""
    top = im_max / A + 0.5
    if not top < rows:  # floor(top) + 1 bins; also an infinite im_max / A
        raise GridError("im_max", f"over A, {im_max:g} / {A:g}, counts more histogram bins "
                        f"than the {rows} rows of the Im axis")
    return int(math.floor(max(top, 0.0))) + 1


def reconstruct_pn(marginal: Marginal, params: protocol.ProtocolParams) -> PhononHistogram:
    """Bin the Im marginal around the peak centers into phonon weights.

    Bin n is [(n - 1/2) A, (n + 1/2) A], centred where both conventions
    put peak n; the n = 0 bin extends down to the grid bottom. The
    histogram's leakage estimates the mass overlapping neighbours move
    between bins; no warning is raised when the peaks are not
    distinguishable.
    """
    A = params.A
    axis = marginal.im_axis
    y = marginal.density  # scipy's cumulative_trapezoid(y, axis, initial=0.0)
    cum = np.concatenate(([0.0], np.cumsum(np.diff(axis) * (y[1:] + y[:-1]) / 2.0)))
    edges = (np.arange(histogram_bins(axis[-1], A, axis.size) + 1) - 0.5) * A
    edges[0] = axis[0]
    edge_mass = np.interp(edges, axis, cum)
    masses = np.clip(np.diff(edge_mass), 0.0, None)
    total = masses.sum()
    if total <= 0.0:
        raise ValueError("no marginal mass inside the reconstruction bins")

    sig_conv = math.exp(-params.r) if marginal.convention == PAPER else math.exp(-params.r) / 2.0
    # math.erfc for the reason sampler.interior_misassignment gives
    leak = (1.0 - 0.5 * params.law.p0) * math.erfc(A / (2.0 * math.sqrt(2.0) * sig_conv))
    return PhononHistogram(masses / total, "marginal-integration", leak)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two histograms, padded to match."""
    n = max(len(p), len(q))
    a = np.zeros(n)
    b = np.zeros(n)
    a[: len(p)] = p
    b[: len(q)] = q
    return 0.5 * float(np.abs(a - b).sum())


def write_grid_csv(grid: WignerGrid, write) -> None:
    n_im, n_re = grid.values.shape
    fock.write_csv(write, "re,im,w", np.tile(grid.re_axis, n_im),
                   np.repeat(grid.im_axis, n_re), grid.values.ravel())


def write_marginal_csv(marginal: Marginal, write) -> None:
    fock.write_csv(write, "coordinate,value", marginal.im_axis, marginal.density)


def write_histogram_csv(hist: PhononHistogram, write) -> None:
    fock.write_csv(write, "n,p", np.arange(len(hist.probabilities)), hist.probabilities)
