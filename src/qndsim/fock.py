"""Truncated Fock-space engine: the displaced-squeezed states D(alpha)
S(r)|0> from the one recurrence of their annihilation equation, as
windowed vectors at alpha = i beta or as parity, norm and edge sums at any
complex alpha, the quadrature stencil, the one Fock-window rule, the edge
budget every state is held to, the thermal phonon law with its truncation
and draw, and the CSV renderer that streams to a writer. Every operator acts
on state vectors through its sqrt(n) bands; no dense Fock matrix is built.

Quadrature convention, the single source of truth for the whole package:
X = a + a', Y = i(a' - a), so the vacuum has Var(X) = Var(Y) = 1. In the
real gauge, a vector at alpha = i beta holds d_m real, c_m = i^m d_m.

All states are plain numpy arrays; all functions but write_csv are pure.
The module needs numpy and orjson; no run loads scipy. The recurrence runs
as in-place numpy ufuncs, one column per state and one level at a time:
the pulse blocks keep every level of their windows, and the Wigner walk's
states are reduced chunk by chunk as they are made. The CSV renderer takes
its float digits from orjson's compiled shortest round-trip formatter and
rewrites orjson's exponents into repr's form in numpy, so its bytes equal
those of repr on every value.
"""

import functools
import math

import numpy as np
import orjson

# truncated thermal tail mass allowed before renormalization
THERMAL_TAIL = 1e-10

# mass a state may hold in the EDGE_LEVELS levels at its window's edges
EDGE_TOL = 1e-10
EDGE_LEVELS = 40

# rows rendered per slice by write_csv: each slice holds one bytes object
# per cell, so a smaller slice keeps the peak of a 1e6-row render lower
CSV_CHUNK = 4096

# alphas per slab of displaced_squeezed_sums: its buffers hold a few
# CHUNK-level blocks of one slab, however fine the grid
SLAB = 2048

# levels the displaced-squeezed recurrence runs between two rescalings, and
# the levels it runs below a window before the window's first level
CHUNK = 64
WARMUP = 256


class TruncationError(ValueError):
    """Construction refused: not enough truncation headroom or tail mass."""


def quadrature_action(d, k0=0):
    """(x, y) = (L d - R d, L d + R d), with (L d)_k = sqrt(k) d_{k-1} and
    (R d)_k = sqrt(k+1) d_{k+1} on the Fock levels [k0, k0 + n) of d's
    last axis, n its length: the real banded stencil behind protocol's
    quadrature moments of the pulse output. For the amplitudes c = G d,
    G = diag(i^k), of the real gauge, X c = -i G x and Y c = G y."""
    ks = np.sqrt(np.arange(k0 + 1, k0 + d.shape[-1], dtype=float))
    lower, upper = np.zeros_like(d), np.zeros_like(d)
    lower[..., 1:], upper[..., :-1] = ks * d[..., :-1], ks * d[..., 1:]
    return lower - upper, lower + upper


def displaced_squeezed(betas, r):
    """(offsets, vectors): vector k holds the float64 d_m, c_m = i^m d_m, of
    D(i beta_k) S(r)|0> on the Fock levels [offsets[k], offsets[k] + len),
    beta_k real, from the annihilation equation of D(alpha) S(r)|0> at
    alpha = i beta (_ladder_chunks), which for d_m is the real recurrence

        d_m = beta (1 + tanh r) / sqrt(m) d_{m-1} - tanh r sqrt((m-1)/m) d_{m-2},

    run forward, one float64 column per beta, from (d_{-1}, d_0) = (0, 1),
    or, where the fock.window starts above WARMUP, from (0, 1) WARMUP levels
    below the window: the roots are real there and the state is the growing
    solution, so the other one's share falls by over 1e12 before the window
    (at every beta and e^{2r} up to 1000). Each vector is normalised on its
    window, held to check_edge_mass, and cut below the level where its mass
    reaches 1e-18, less EDGE_LEVELS."""
    betas = np.asarray(betas, dtype=float)
    t = math.tanh(r)
    bounds = np.array([window(complex(0.0, b), r, "the Fock window of block %d" % k)
                       for k, b in enumerate(betas)], dtype=int).reshape(-1, 2)
    lows, highs = bounds.T
    first = np.maximum(lows - WARMUP, 0)
    levels = int((highs - first).max(initial=0))
    mant = np.empty((-(-levels // CHUNK) * CHUNK, len(betas)))  # row j: level first + j
    exps = np.empty((len(mant) // CHUNK, len(betas)), dtype=int)
    for c, (block, scale) in enumerate(_ladder_chunks(betas * (1.0 + t), -t, first, levels)):
        mant[c * CHUNK:(c + 1) * CHUNK] = block
        exps[c] = scale
    offs, out = [], []
    for k, (lo, hi) in enumerate(zip(lows, highs)):
        a, b = lo - first[k], hi - first[k]
        e = np.repeat(exps[:, k], CHUNK)[a:b]
        vec = np.ldexp(mant[a:b, k], e - e.max())
        vec /= np.abs(vec).max()  # so that no square overflows
        prob = vec * vec
        total = prob.sum()
        prob /= total
        check_edge_mass(prob, "the window of block %d" % k, lo)
        cut = max(0, int(np.searchsorted(np.cumsum(prob), 1e-18)) - EDGE_LEVELS)
        offs.append(int(lo + cut))
        out.append(vec[cut:] / math.sqrt(total))
    return offs, out


def displaced_squeezed_sums(alphas, r, dim):
    """(parity, norm, edge), each an array over the complex alphas: the sums
    of (-1)^m |c_m|^2 on the levels [0, dim), of |c_m|^2 on them, and of
    |c_m|^2 on their top EDGE_LEVELS, for the Fock amplitudes c_m of
    D(alpha) S(r)|0> up to one positive factor per alpha. The amplitudes
    come from _ladder_chunks run forward from level 0, one complex column
    per alpha, and each chunk of levels is reduced to the three sums as it
    is made, so no state is kept whole; the alphas run in slabs of at most
    SLAB, so no grid grows the buffers."""
    alphas = np.asarray(alphas, dtype=complex)
    t = math.tanh(r)
    out = np.empty((3, len(alphas)))
    for a in range(0, len(alphas), SLAB):
        out[:, a:a + SLAB] = _slab_sums(alphas[a:a + SLAB], t, dim)
    return out


def _slab_sums(alphas, t, dim):
    """displaced_squeezed_sums of one slab, whose buffers die with the call.
    Chunk c's sums are in units of 2^(2 scale), and the running sums are
    kept in units of the largest such power yet: rescaling by it is exact
    where no sum underflows to a subnormal."""
    sums = np.zeros((3, len(alphas)))
    ref = np.zeros(len(alphas), dtype=int)
    for c, (block, scale) in enumerate(_ladder_chunks(alphas - t * alphas.conj(), t, 0, dim)):
        v = block[:dim - c * CHUNK].view(float)  # real and imaginary parts
        rim = v[max(0, dim - EDGE_LEVELS - c * CHUNK):]
        # row j is level c CHUNK + j, and CHUNK is even
        even, odd, edge = (np.einsum("ij,ij->j", u, u) for u in (v[0::2], v[1::2], rim))
        part = np.stack([even - odd, even + odd, edge])
        part = part[:, 0::2] + part[:, 1::2]
        top = np.maximum(ref, scale)
        sums = np.ldexp(sums, 2 * (ref - top)) + np.ldexp(part, 2 * (scale - top))
        ref = top
    return sums


def _ladder_chunks(g, t, first, levels):
    """The Fock amplitudes of D(alpha) S(r)|0>, CHUNK levels at a time, from
    its annihilation equation (a cosh r - a' sinh r) psi = (alpha cosh r -
    alpha* sinh r) psi (Yuen, PRA 13, 2226 (1976)): the recurrence

        c_m = g / sqrt(m) c_{m-1} + t sqrt((m-1)/m) c_{m-2},

    one column per g_k, with g = alpha - alpha* tanh r and t = tanh r, or
    in the real gauge d_m = i^-m c_m of alpha = i beta, g = beta (1 +
    tanh r) and t = -tanh r. Column k runs forward from (c_{first_k - 1},
    c_{first_k}) = (0, 1), first one level or one per column, for `levels`
    levels. Chunk c yields (block, scale): block[j, k] 2^scale[k] is
    c_{first_k + c CHUNK + j} up to one factor per column, and the next
    chunk writes over block. The rescaling is by a power of two per chunk,
    so it is exact and no start needs its scale. A complex g is divided by
    the level roots in its real and imaginary parts, and t multiplies the
    real view of the amplitudes: no complex division, and no complex
    product but the one by g / sqrt(m)."""
    g = np.ascontiguousarray(g)
    parts = g.view(float).reshape(len(g), -1)  # g, or its (real, imag) pairs
    w = parts.shape[1]
    buf = np.zeros((CHUNK + 2, len(g)), dtype=g.dtype)  # levels first + s - 1 .. first + s + CHUNK
    buf[1] = 1.0
    flat = buf.view(float)
    rise = np.empty((CHUNK, len(g), w))  # g / sqrt(m), written over by each chunk
    rows, lifts = list(buf), list(rise.view(g.dtype)[..., 0])
    reals, tmp = list(flat.reshape(CHUNK + 2, len(g), w)), np.empty((len(g), w))
    scale = np.zeros(len(g), dtype=int)
    for c in range(-(-levels // CHUNK)):
        m = first + (c * CHUNK + np.arange(1, CHUNK + 1))[:, None]
        np.divide(parts, np.sqrt(m)[..., None], out=rise)
        down = (t * np.sqrt((m - 1.0) / m))[..., None]
        for i in range(2, CHUNK + 2):
            np.multiply(lifts[i - 2], rows[i - 1], out=rows[i])
            np.multiply(down[i - 2], reals[i - 2], out=tmp)
            np.add(reals[i], tmp, out=reals[i])
        yield buf[1:-1], scale
        _, e = np.frexp(np.maximum(np.abs(buf[-2]), np.abs(buf[-1])))
        flat[:2] = np.ldexp(flat[-2:], np.repeat(-e, w))
        scale = scale + e


def check_edge_mass(prob, where, k0=0):
    """Raise TruncationError when a state holds more than EDGE_TOL of its
    mass in its top EDGE_LEVELS levels, plus its bottom EDGE_LEVELS when
    its window starts at level k0 > 0. prob is |psi|^2 of a vector, or of
    a block of column vectors, each held to the budget; where names the
    construction in the message."""
    edge = prob[-EDGE_LEVELS:].sum(axis=0)
    if k0 > 0:
        edge = edge + prob[:EDGE_LEVELS].sum(axis=0)
    edge = np.max(edge)
    if edge > EDGE_TOL:
        raise TruncationError("%s holds %.3g of its mass in its %d edge levels, above %.3g"
                              % (where, edge, EDGE_LEVELS, EDGE_TOL))


def window(alpha, r, where):
    """Fock window [lo, hi) holding D(alpha) S(r)|0> to ~1e-16 mass;
    TruncationError, led by where, when its levels are past float range."""
    x, y = abs(alpha.real), abs(alpha.imag)
    try:
        mean = x * x + y * y + math.sinh(r) ** 2
        # spread: |Im alpha| e^{-r} on the squeezed axis, |Re alpha| e^r on the
        # antisqueezed one and a Poisson floor, plus the chi-square tail of the
        # antisqueezed quadrature (~18 e^{2r} levels)
        half = (9.0 * (y * max(math.exp(-r), 1e-2) + x * math.exp(r)
                       + math.sqrt(math.hypot(x, y) + 1.0))
                + 18.0 * math.exp(2.0 * abs(r)) + 80.0)
        lo = int(max(0, math.floor(mean - half)))
        hi = int(math.ceil(mean + half))
    except (OverflowError, ValueError):  # inf, or inf - inf, where a level should be
        raise TruncationError("%s, displaced by %g at r = %g, is past float range"
                              % (where, math.hypot(x, y), r)) from None
    return lo, hi


class ThermalLaw:
    """The thermal phonon law P(n) = N^n/(N+1)^{n+1} at mean occupation N. Its
    one tail rule: a truncation keeps need levels, past which the tail mass
    ratio^need is THERMAL_TAIL. dim is that many, and 2 at least at N > 0 to
    keep the mean's level; TruncationError when ratio = N/(N+1) rounds to 1.
    pn, P(n) renormalised on dim levels, is made on first use, never by a draw."""

    def __init__(self, N):
        if N < 0:
            raise ValueError("mean occupation must be >= 0, got %r" % N)
        self.N, self.ratio, self.p0 = N, N / (N + 1.0), 1.0 / (N + 1.0)
        if self.ratio == 1.0:
            raise TruncationError("the thermal law at N = %g has no truncation: N/(N+1) rounds "
                                  "to 1 in double precision" % N)
        self.need = float(np.log(THERMAL_TAIL) / np.log(self.ratio)) if N > 0 else 1
        self.dim = max(2, int(np.ceil(self.need))) if N > 0 else 1

    def check_tail(self, levels, name):
        """Raise TruncationError, naming the truncation name, when it keeps
        fewer than need levels: by dim's own rule, so dim passes even where
        ratio^dim rounds above THERMAL_TAIL (N above about 3e11)."""
        if levels < self.need:  # a Python float: compared exactly, past 2^53 too
            raise TruncationError("thermal tail mass %.3g exceeds %.3g at %s %d; need %s >= %d"
                                  % (self.ratio ** max(levels, 0), THERMAL_TAIL, name, levels,
                                     name, self.dim))

    def draw(self, rng, shots):
        """shots phonon numbers from rng: geometric(p0) - 1 has the law exactly.
        numpy draws it as int64, which saturates, so the law must lie below
        2^62 levels to the tail budget, or TruncationError is raised."""
        self.check_tail(2**62, "int64 draw levels")
        return rng.geometric(self.p0, size=shots) - 1

    @functools.cached_property
    def pn(self):
        n = np.arange(self.dim)
        p = np.exp(n * np.log(self.ratio) - np.log(self.N + 1.0)) if self.N > 0 else \
            np.concatenate(([1.0], np.zeros(self.dim - 1)))
        p /= p.sum()
        p.flags.writeable = False  # one array, read by every consumer of the law
        return p


def _repr_exponents(text):
    """orjson's float text with each exponent in repr's form: a sign before
    a positive one (1e16 -> 1e+16) and a second digit in a one-digit
    negative one (1.5e-6 -> 1.5e-06), inserted in one numpy pass."""
    b = np.frombuffer(text, np.uint8)
    e = np.flatnonzero(b == ord("e"))
    plus = b[e + 1] != ord("-")
    # a one-digit e-d ends its cell: a comma or the closing bracket follows
    pad = ~plus & ((b[e + 3] == ord(",")) | (b[e + 3] == ord("]")))
    fix = plus | pad
    at = e[fix] + np.where(plus[fix], 1, 2)  # before the digits, or after the minus
    return np.insert(b, at, np.where(plus[fix], ord("+"), ord("0"))).tobytes()


def _cells(col):
    """The bytes of each value of a contiguous integer or float64 column:
    orjson's shortest round-trip digits (Ryu), which are repr's digits, with
    each exponent rewritten into repr's form (1e-06, 1e+16), and repr's own
    text where orjson's differs in more than the exponent: 1e-5 <= |x| < 1e-4,
    which orjson writes in fixed point, and nan and inf (orjson writes null)."""
    text = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)
    if col.dtype.kind != "f":
        return text[1:-1].split(b",")
    if b"e" in text:
        text = _repr_exponents(text)
    cells = text[1:-1].split(b",")
    a = np.abs(col)
    odd = np.flatnonzero((a >= 1e-5) & (a < 1e-4) | ~np.isfinite(a))
    for i, x in zip(odd.tolist(), col[odd].tolist()):
        cells[i] = repr(x).encode()
    return cells


def write_csv(write, header, *columns):
    """Hand write the CSV bytes of equal-length integer or float64 numpy
    columns, or ranges (an index column, made per chunk): the header, then
    each CSV_CHUNK rows as one bytes object, every value repr's text (_cells).
    Ragged or unrenderable columns are refused before write is called."""
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError("write_csv: columns differ in length: %s" % lengths)
    if any(c.dtype != np.float64 and c.dtype.kind not in "iu" for c in columns
           if not isinstance(c, range)):
        # orjson writes float32 digits, and true for True: not repr's text
        raise TypeError("write_csv: columns must be integer or float64, got %s"
                        % [str(getattr(c, "dtype", "range")) for c in columns])
    write(header.encode() + b"\n")
    for start in range(0, lengths[0], CSV_CHUNK):
        parts = [c[start:start + CSV_CHUNK] for c in columns]
        cells = [_cells(np.arange(p.start, p.stop) if isinstance(p, range)
                        else np.ascontiguousarray(p)) for p in parts]
        write(b"\n".join([*map(b",".join, zip(*cells)), b""]))  # "" ends the last row
