"""Dense test oracles for the ladder exponentials, the pulse output, its
Wigner map and the three-level model.

The library applies every exponential of a ladder operator as an action,
fock.ladder_exp. These build the operators themselves with scipy's dense
expm of the truncated generator, an independent route to check it against.
The protocol's blocked pulse output is densified here, with its mass
policed, and reduced with partial_trace; phonon_marginal reads its phonon
law from the block norms. The library's Wigner map walks one
squeezed-vacuum patch; wigner_dense evaluates the displaced-parity trace of
any density matrix with dense displacements instead. The three-level
trajectory, which the library samples from one eigendecomposition, is
stepped here with the dense expm propagator, its field moments come from
per-sample dense traces, and norm_drift measures how far its samples
leave the unit sphere.
"""

import numpy as np
from scipy.linalg import expm

from qndsim import fock, threelevel

# top-of-ladder levels excluded from unitarity checks
GUARD_BAND = 5

# weighted block mass that may be silently dropped when densifying
DENSIFY_TAIL = 1e-14


def ladder_generator(z, k, dim, k0=0):
    """z a'^k - z* a^k truncated to the Fock levels [k0, k0 + dim)."""
    a = np.diag(np.sqrt(np.arange(k0 + 1, k0 + dim, dtype=float)), k=1)
    ak = np.linalg.matrix_power(a, k).astype(complex)
    return z * ak.conj().T - np.conj(z) * ak


def quadrature_x(dim):
    """X = a + a' as a dense matrix."""
    a = fock.annihilation(dim)
    return a + a.conj().T


def quadrature_y(dim):
    """Y = i(a' - a) as a dense matrix."""
    a = fock.annihilation(dim)
    return 1j * (a.conj().T - a)


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


def phonon_marginal(state):
    """Phonon-number law P(n) <psi_n|psi_n> of a CompositeState."""
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
    """Place a windowed vector into a size-dim array, policing lost mass."""
    out = np.zeros(dim, dtype=complex)
    hi = min(dim, off + len(vec))
    if hi > off:
        out[off:hi] = vec[:hi - off]
    lost = weight * (np.vdot(vec, vec).real - np.vdot(out, out).real)
    if lost > DENSIFY_TAIL:
        raise fock.TruncationError(
            "block mass %.3g outside field dimension %d" % (lost, dim))
    return out


def threelevel_state_at(q, t, initial=None):
    """One dense propagator expm(-i H t) applied to the initial state."""
    psi = threelevel.initial_vacuum_i(q) if initial is None else initial
    return expm(-1j * t * threelevel.build_full_hamiltonian(q)) @ psi


def evolve_threelevel(q, t_final, steps, initial=None):
    """States after every step of the dense propagator expm(-i H dt)."""
    psi = threelevel.initial_vacuum_i(q) if initial is None else initial
    u = expm(-1j * (t_final / steps) * threelevel.build_full_hamiltonian(q))
    states = [psi]
    for _ in range(steps):
        states.append(u @ states[-1])
    return np.array(states)


def norm_drift(traj):
    """max |1 - ||psi(t)||| over the samples of a three-level Trajectory."""
    return float(np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)))


def threelevel_traces(states, d_a):
    """Per-sample atom populations, field <n>, <a> and Var(Y), each a dense
    trace against the field density matrix sum_r |b_r><b_r|, where b_r is
    the field vector of atom level r."""
    a, n_op, y = fock.annihilation(d_a), fock.number(d_a), quadrature_y(d_a)
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
