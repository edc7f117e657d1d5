"""Dense test oracles for the ladder exponentials, the pulse output, its
Wigner map and the three-level model.

The library builds no dense Fock operator: it applies every operator
through its sqrt(n) bands. Here the ladder and number matrices are dense,
the exponentials of ladder operators are scipy's dense expm of the
truncated generator, and squeezed_vacuum is the closed form of S(r)|0>,
the seed of the stepped routes below. ladder_exp is the displacement
action on any complex vector or block, its own complex Chebyshev series
on Bessel coefficients from scipy's jv, checked against that expm; no
library kernel runs in it. displacement_chain steps a squeezed vacuum by
ladder_exp, one D(iA) at a time: the independent route to the pulse
output's blocks.
The protocol's blocked pulse output is densified here, with its mass
policed, and reduced with partial_trace: its blocks hold the real d_m of
the amplitudes c_m = i^m d_m, and every dense view applies i^m through
phased. phonon_marginal reads its phonon law from the block norms, and
conditioned_dense embeds block m, normalised, as the density matrix of
the field state after phonon outcome m. The library's Wigner map walks
one squeezed-vacuum patch; wigner_dense evaluates the displaced-parity
trace of any density matrix with dense displacements instead, and
stepped_parity_walk is the walk the library's recurrence replaced: it
steps a seed out along Re and then the whole Re line along Im, one grid
spacing at a time, by ladder_exp, with the measured edge mass of every
row. edge_masses measures the top-level mass of every state the
library's walk builds, from the seed on a wider window displaced by
dense expm and cut to the walk's levels. The three-level Hamiltonian is
built here as the dense qutrit (x) field matrix from Kronecker products,
which the library's parity chain is checked against; the trajectory,
which the library samples on that one chain from one eigendecomposition,
is stepped here with the dense expm propagator from any start,
chain_states places the library's chain amplitudes in the dense layout,
its field moments come from per-sample dense traces, and norm_drift
measures how far its samples leave the unit sphere. From a coherent seed
the atom coherences are not zero, and check_adiabatic_coherences holds
them to their adiabatic formulas. relative_uncertainty is the readout's
sqrt(Var Y)/<Y> from the protocol's closed forms, and N_from_temperature
the inverse of protocol.temperature_from_N, for its round trips. The CSV
renderer's oracle writes each value with repr, as the library once did,
and the library's bytes are checked against it. thermal_pn is the thermal
law renormalised on any number of levels, for tests that want it at a
dimension other than fock.ThermalLaw's own. A sampler record keeps only
its seed: record_arrays concatenates its chunks into the whole (m, y),
FixedRecord is a record of given arrays, and exact_mean_and_m2 reduces
y in integer arithmetic, the estimator's exact reference.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm
from scipy.special import jv

from qndsim import fock, protocol, threelevel

# top-of-ladder levels excluded from unitarity checks
GUARD_BAND = 5

# weighted block mass that may be silently dropped when densifying
DENSIFY_TAIL = 1e-14


def annihilation(dim, k0=0):
    """Ladder operator on the Fock levels [k0, k0 + dim), its entries
    a[j-1, j] = sqrt(k0 + j)."""
    if dim < 2:
        raise ValueError("operator dimension must be >= 2, got %r" % dim)
    return np.diag(np.sqrt(np.arange(k0 + 1, k0 + dim, dtype=float)), k=1).astype(complex)


def number(dim):
    return np.diag(np.arange(dim, dtype=complex))


def thermal_pn(N, dim):
    """P(n) = N^n/(N+1)^{n+1} on the levels [0, dim), renormalised on them."""
    p = (N / (N + 1.0)) ** np.arange(dim) / (N + 1.0)
    return p / p.sum()


def ladder_generator(z, k, dim, k0=0):
    """z a'^k - z* a^k truncated to the Fock levels [k0, k0 + dim)."""
    ak = np.linalg.matrix_power(annihilation(dim, k0).real, k).astype(complex)
    return z * ak.conj().T - np.conj(z) * ak


def quadrature_x(dim, k0=0):
    """X = a + a' as a dense matrix on the Fock levels [k0, k0 + dim)."""
    a = annihilation(dim, k0)
    return a + a.conj().T


def quadrature_y(dim, k0=0):
    """Y = i(a' - a) as a dense matrix on the Fock levels [k0, k0 + dim)."""
    a = annihilation(dim, k0)
    return 1j * (a.conj().T - a)


def squeezed_vacuum(r, dim):
    """S(r)|0> on the Fock levels [0, dim), S(r) = exp(r/2 (a'^2 - a^2)), from
    its closed form <2m|S(r)|0> = tanh(r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r))
    (Loudon & Knight, J. Mod. Opt. 34, 709 (1987)): one cumprod of the ratios
    tanh(r) sqrt((2m - 1) / 2m) from 1 / sqrt(cosh r). Its imaginary part and
    its odd levels are exactly 0."""
    m = np.arange(1, (dim + 1) // 2)
    ratios = np.concatenate(([1.0 / math.sqrt(math.cosh(r))],
                             math.tanh(r) * np.sqrt((2 * m - 1) / (2.0 * m))))
    psi = np.zeros(dim, dtype=complex)
    psi[::2] = np.cumprod(ratios)
    return psi


def displacement(alpha, dim):
    """D(alpha) = expm(alpha a' - alpha* a)."""
    return expm(ladder_generator(alpha, 1, dim))


def squeeze(r, dim):
    """S(r) = expm((r/2)(a'^2 - a^2)); on vacuum Var(Y) = e^{-2r}."""
    return expm(ladder_generator(0.5 * r, 2, dim))


def wigner_dense(rho, spec):
    """(2/pi) tr[D(alpha) P D(alpha)' rho] on the grid of a GridSpec, P the
    parity, as values[i, j] at alpha = re[j] + i im[i].

    D(alpha) = e^{-i re im} D(i im) D(re): the Weyl phase cancels in the
    conjugation, so each point is one trace of D(re) P D(re)' against
    D(i im)' rho D(i im). Displacements along one axis commute, so each
    axis is one dense expm at its first node times powers of the expm of
    its spacing.
    """
    dim = rho.shape[0]
    parity = np.diag(1.0 - 2.0 * (np.arange(dim) % 2))
    flips = [d @ parity @ d.conj().T for d in _displacement_line(spec.re_axis(), dim)]
    moved = [d.conj().T @ rho @ d for d in _displacement_line(1j * spec.im_axis(), dim)]
    return (2.0 / np.pi) * np.einsum("jab,iba->ij", flips, moved).real


def ladder_exp(psi, z, k0=0):
    """D(z) psi = exp(z a' - z* a) psi. psi is a vector or a block of column
    vectors on the Fock levels [k0, k0 + len(psi)), to which the generator
    is truncated. The generator is R i|z| X R' with X = a' + a and the
    diagonal phase R = exp(i (arg z - pi/2) n), and exp(i|z| X) R' psi is
    the Chebyshev series of exp(i tau x) in x = X / (2 L), L the top ladder
    entry, so ||x|| <= 1 (Gershgorin), and tau = 2 |z| L (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 3967 (1984)): c_0 = J_0(tau) and c_m =
    2 i^m J_m(tau), kept up to the last m whose tail sum of |c_m| is above
    double precision (at least two terms). The J_m are scipy's jv,
    normalised by J_0 + 2 sum_k J_2k = 1: at tau ~ 40 and above, jv's
    values share a scale error of a few 1e-15, which a chain of
    displacements would add up."""
    psi = np.asarray(psi, dtype=complex)
    n = len(psi)
    if z == 0 or n < 2:
        return psi.copy()
    top = math.sqrt(k0 + n - 1)
    tau = 2.0 * abs(z) * top
    bessel = jv(np.arange(int(tau + 16.0 * tau ** (1.0 / 3.0) + 40.0) + 1), tau)
    bessel /= bessel[0] + 2.0 * bessel[2::2].sum()  # J_0 + 2 sum_k J_2k = 1
    tail = np.cumsum(np.abs(bessel[::-1]))[::-1]
    m = np.arange(max(2, int(np.count_nonzero(2.0 * tail > np.finfo(float).eps))))
    coef = np.where(m, 2.0, 1.0) * np.array([1, 1j, -1, -1j])[m % 4] * bessel[m]
    lift = np.sqrt(np.arange(k0 + 1, k0 + n, dtype=float))[:, None] / (2.0 * top)

    def x(v):
        out = np.zeros_like(v)
        out[1:] += lift * v[:-1]
        out[:-1] += lift * v[1:]
        return out

    phase = np.exp(1j * (np.angle(z) - 0.5 * np.pi) * np.arange(k0, k0 + n, dtype=float))[:, None]
    prev = np.conj(phase) * psi.reshape(n, -1)
    cur = x(prev)
    out = coef[0] * prev + coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, 2.0 * x(cur) - prev
        out += c * cur
    return (phase * out).reshape(psi.shape)


def stepped_parity_walk(psi, re, im):
    """(parities of D(-alpha) psi on the grid, each row's largest mass in the
    top fock.EDGE_LEVELS levels): the line of states at im nearest 0 steps
    along Im as one block by ladder_exp, one grid spacing at a time, out
    both ways from that row."""
    c, k = int(np.argmin(np.abs(re))), int(np.argmin(np.abs(im)))
    line = [ladder_exp(psi, -complex(re[c], im[k]))]
    for j in range(c + 1, re.size):
        line.append(ladder_exp(line[-1], -(re[j] - re[j - 1])))
    for j in range(c - 1, -1, -1):
        line.insert(0, ladder_exp(line[0], -(re[j] - re[j + 1])))
    parity = 1.0 - 2.0 * (np.arange(len(psi)) % 2)
    out, edge = np.empty((im.size, re.size)), np.empty(im.size)
    for sign, stop in ((1, im.size), (-1, -1)):
        block = np.stack(line, axis=1)
        for i in range(k, stop, sign):
            if i != k:
                block = ladder_exp(block, -1j * (im[i] - im[i - sign]))
            prob = block.real**2 + block.imag**2
            out[i], edge[i] = parity @ prob, prob[-fock.EDGE_LEVELS:].sum(axis=0).max()
    return out, edge


def edge_masses(r, dim, re, im, margin=200):
    """Mass in the top fock.EDGE_LEVELS levels of each D(-x - iy) S(r)|0>,
    x of re and y of im, both evenly spaced, cut to the levels [0, dim) and
    renormalised there, as [i, j] at y = im[i], x = re[j]: the closed-form
    squeezed_vacuum on dim + margin levels, stepped along Re and then Im by
    the dense expm of each axis's spacing. D(-x - iy) is D(-iy) D(-x) up to
    a phase, which no mass sees."""
    big = dim + margin
    line = [displacement(-re[0], big) @ squeezed_vacuum(r, big)]
    step = displacement(-(re[1] - re[0]), big)
    for _ in re[1:]:
        line.append(step @ line[-1])
    block = displacement(-1j * im[0], big) @ np.stack(line, axis=1)
    step = displacement(-1j * (im[1] - im[0]), big)
    out = []
    for _ in im:
        prob = np.abs(block[:dim]) ** 2
        out.append(prob[-fock.EDGE_LEVELS:].sum(axis=0) / prob.sum(axis=0))
        block = step @ block
    return np.array(out)


def displacement_chain(A, r, n_top, margin=200):
    """D(inA) S(r)|0> for n = 0..n_top, each on the Fock levels [0, hi +
    margin), hi the top of block n_top's fock.window: the seed
    squeezed_vacuum stepped by ladder_exp, one D(iA) per block
    (D(iA)^n = D(inA), with no Weyl phase), the route the library's
    displaced-squeezed recurrence replaced. No window moves and no level is
    cut, so the chain and the recurrence share only the window rule."""
    _, hi = fock.window(complex(0.0, n_top * A), r, "the Fock window of the top block")
    chain = [squeezed_vacuum(r, hi + margin)]
    for _ in range(n_top):
        chain.append(ladder_exp(chain[-1], 1j * A))
    return chain


def _displacement_line(alphas, dim):
    """D(alpha) at the evenly spaced, collinear alphas."""
    line = [displacement(alphas[0], dim)]
    step = displacement(alphas[1] - alphas[0], dim)
    for _ in alphas[1:]:
        line.append(line[-1] @ step)
    return line


def partial_trace(rho, dims, keep):
    """Reduced state of subsystem `keep` (0 or 1) of a bipartite matrix.

    dims is the ordered pair of subsystem dimensions.
    """
    d0, d1 = dims
    if rho.shape != (d0 * d1, d0 * d1):
        raise ValueError("state shape %r does not match dims %r"
                         % (rho.shape, dims))
    r = rho.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError("keep must be 0 or 1, got %r" % keep)


def unitarity_defect(u, guard_band=GUARD_BAND):
    """max |(U'U - I)[i, j]| over the sub-block below the guard band."""
    k = u.shape[0] - guard_band
    g = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.abs(g[:k, :k]).max())


def phased(off, d):
    """The Fock amplitudes c_m = i^m d_m of a real-gauge vector, or block
    of row vectors, d on the Fock levels [off, off + n) of its last axis,
    n its length: protocol.CompositeState's convention."""
    return np.array([1, 1j, -1, -1j])[np.arange(off, off + d.shape[-1]) % 4] * d


def phonon_marginal(state):
    """Phonon-number law P(n) <psi_n|psi_n> of a CompositeState: a norm,
    the same in the real gauge as in the phased amplitudes."""
    return state.pn * np.array([np.vdot(b, b).real for b in state.blocks])


def to_dense(state, d_a):
    """Full (d_b * d_a)-dimensional density matrix of a CompositeState."""
    d_b = len(state.pn)
    out = np.zeros((d_b * d_a, d_b * d_a), dtype=complex)
    for n in range(d_b):
        v = _embed(state.blocks[n], state.offsets[n], d_a,
                   weight=state.pn[n])
        out[n * d_a:(n + 1) * d_a, n * d_a:(n + 1) * d_a] = \
            state.pn[n] * np.outer(v, v.conj())
    return out


def conditioned_dense(state, m):
    """Density matrix of the field state after phonon outcome m: block m of a
    CompositeState, normalised, on the Fock levels [0, offset + len(block))."""
    off, vec = state.offsets[m], state.blocks[m]
    psi = _embed(vec / np.linalg.norm(vec), off, off + len(vec))
    return np.outer(psi, psi.conj())


def field_state_dense(state, d_a):
    """Field marginal sum_n P(n) |psi_n><psi_n| as a dense matrix."""
    out = np.zeros((d_a, d_a), dtype=complex)
    for n in range(len(state.pn)):
        if state.pn[n] == 0.0:
            continue
        v = _embed(state.blocks[n], state.offsets[n], d_a,
                   weight=state.pn[n])
        out += state.pn[n] * np.outer(v, v.conj())
    return out


def _embed(vec, off, dim, weight=1.0):
    """Place the phased amplitudes of a windowed real-gauge vector into a
    size-dim array, policing lost mass."""
    out = np.zeros(dim, dtype=complex)
    hi = min(dim, off + len(vec))
    if hi > off:
        out[off:hi] = phased(off, vec)[:hi - off]
    lost = weight * (np.vdot(vec, vec).real - np.vdot(out, out).real)
    if lost > DENSIFY_TAIL:
        raise fock.TruncationError(
            "block mass %.3g outside field dimension %d" % (lost, dim))
    return out


def sigma(row, col):
    """Qutrit basis operator |row><col| in the fixed (g, i, e) ordering."""
    m = np.zeros((3, 3), dtype=complex)
    m[threelevel.LEVELS[row], threelevel.LEVELS[col]] = 1.0
    return m


def build_full_hamiltonian(q):
    """Time-independent qutrit (x) field Hamiltonian, qutrit factor first."""
    a = annihilation(q.d_a)
    id_f = np.eye(q.d_a, dtype=complex)
    dp = q.pump
    h = -q.Delta * np.kron(sigma("e", "e") + sigma("g", "g"), id_f)
    h -= 0.5 * dp * (
        np.kron(np.eye(3, dtype=complex), number(q.d_a))
        + np.kron(sigma("g", "g") - sigma("e", "e"), id_f)
    )
    v = (
        q.g1 * np.kron(sigma("g", "i"), a)
        + q.g2 * np.kron(sigma("i", "e"), a)
        + 1j * q.beta * q.G3 * np.kron(sigma("g", "e"), id_f)
    )
    return h + v + v.conj().T


def vacuum_i(q):
    """|i, 0> in the dense (3 d_a) layout, atom level first."""
    psi = np.zeros(3 * q.d_a, dtype=complex)
    psi[threelevel.LEVELS["i"] * q.d_a] = 1.0
    return psi


def chain_states(q, amps):
    """threelevel.evolve_full's (samples, chain) amplitudes placed in the
    dense (samples, 3 d_a) layout, atom level first."""
    level, n, _, _ = threelevel._parity_chain(q)
    states = np.zeros((len(amps), 3 * q.d_a), dtype=complex)
    states[:, level * q.d_a + n] = amps
    return states


def threelevel_state_at(q, t, initial=None):
    """One dense propagator expm(-i H t) applied to the initial state."""
    psi = vacuum_i(q) if initial is None else initial
    return expm(-1j * t * build_full_hamiltonian(q)) @ psi


def evolve_threelevel(q, t_final, steps, initial=None):
    """States after every step of the dense propagator expm(-i H dt)."""
    psi = vacuum_i(q) if initial is None else initial
    u = expm(-1j * (t_final / steps) * build_full_hamiltonian(q))
    states = [psi]
    for _ in range(steps):
        states.append(u @ states[-1])
    return np.array(states)


def norm_drift(states):
    """max |1 - ||psi(t)||| over the samples of a three-level trajectory."""
    return float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))


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
    def max_rel_residual(self):
        return max(self.max_rel_residual_ig, self.max_rel_residual_ie)


def check_adiabatic_coherences(times, states, q, smooth_cycles=0.0):
    """Residuals of the adiabatic formulas for <sigma_ig> and <sigma_ie>
    over the (samples, 3 d_a) dense states of a three-level trajectory.

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
    n_t = times.size
    b = states.reshape(n_t, 3, q.d_a)
    b_i = b[:, threelevel.LEVELS["i"]].conj()
    s_ig = np.einsum("kj,kj->k", b_i, b[:, threelevel.LEVELS["g"]])
    s_ie = np.einsum("kj,kj->k", b_i, b[:, threelevel.LEVELS["e"]])
    a_mean = threelevel_traces(states, q.d_a)[2]

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


def relative_uncertainty(p):
    """sqrt(Var Y)/<Y> of the closed forms; tends to sqrt(1 + 1/N) as r grows."""
    if p.N == 0:
        raise ValueError("relative uncertainty undefined at N = 0")
    return math.sqrt(protocol.var_Y(p)) / protocol.mean_Y(p)


def N_from_temperature(T, nu):
    """Mean occupation at temperature T (kelvin) and angular frequency nu:
    the inverse of protocol.temperature_from_N."""
    if T <= 0 or nu <= 0:
        raise ValueError("N_from_temperature needs T > 0 and nu > 0")
    return 1.0 / math.expm1(protocol.hbar * nu / (protocol.k_B * T))


def threelevel_traces(states, d_a):
    """Per-sample atom populations, field <n>, <a> and Var(Y), each a dense
    trace against the field density matrix sum_r |b_r><b_r|, where b_r is
    the field vector of atom level r."""
    a, n_op, y = annihilation(d_a), number(d_a), quadrature_y(d_a)
    pops, n_mean, a_mean, var_y = [], [], [], []
    for psi in states:
        b = psi.reshape(3, d_a)
        rho = b.T @ b.conj()
        ey = np.trace(rho @ y).real
        pops.append((np.abs(b) ** 2).sum(axis=1))
        n_mean.append(np.trace(rho @ n_op).real)
        a_mean.append(np.trace(rho @ a))
        var_y.append(np.trace(rho @ y @ y).real - ey ** 2)
    return np.array(pops), np.array(n_mean), np.array(a_mean), np.array(var_y)


def write_csv(header, *columns):
    """fock.write_csv's oracle: the text of every value as repr of its
    Python scalar, joined row by row and encoded once."""
    rows = zip(*(map(repr, c.tolist()) for c in columns))
    return (header + "\n" + "".join(",".join(row) + "\n" for row in rows)).encode()


def record_arrays(record):
    """The whole (m, y) of a sampler record: its chunks, concatenated."""
    ms, ys = zip(*record.chunks())
    return np.concatenate(ms), np.concatenate(ys)


@dataclass(frozen=True)
class FixedRecord:
    """A sampler record of the given (m, y), in one chunk: what
    sampler.estimate and sampler.write_record_csv read of a record."""
    params: protocol.ProtocolParams
    m: np.ndarray
    y: np.ndarray
    seed: int = 0

    @property
    def shots(self):
        return len(self.y)

    def chunks(self):
        yield self.m, self.y


def exact_mean_and_m2(y):
    """The mean of the float64 y and its sum of squared deviations M2, as
    Fractions: every y an integer multiple of the least y's power of two."""
    ratios = [v.as_integer_ratio() for v in y.tolist()]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    total, squares, n = sum(ints), sum(i * i for i in ints), len(ints)
    return Fraction(total, n * scale), Fraction(n * squares - total * total, n * scale * scale)
