"""Truncated Fock-space engine: the displaced-squeezed states D(i beta)
S(r)|0> and D(beta) S(r)|0> from the recurrence of their annihilation
equation, the Chebyshev recurrence behind the parity moments, the
quadrature stencil, the one Fock-window rule, the edge budget every window
is held to, the thermal law with its tail budget, and the CSV renderer of
an artifact's bytes. Every operator acts on state vectors through its
sqrt(n) bands; no dense Fock matrix is built.

Quadrature convention, the single source of truth for the whole package:
X = a + a', Y = i(a' - a), so the vacuum has Var(X) = Var(Y) = 1.

All states are plain numpy arrays; all functions are pure. The module
needs numpy and orjson. The Chebyshev recurrence runs on real blocks as
in-place numpy ufuncs on Bessel coefficients from Miller's backward
recurrence, so no run loads scipy; its consumer is parity_series, which
gives the Wigner walk its Im rows from the real Re line that
displaced_squeezed builds. The CSV renderer takes its float digits from
orjson's compiled shortest round-trip formatter and rewrites orjson's
exponents into repr's form in numpy, so its bytes equal those of repr on
every value.
"""

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

# real entries per slab of block columns in the Chebyshev recurrence
SLAB = 1 << 15

# levels the displaced-squeezed recurrence runs between two rescalings, and
# the levels it runs below a window before the window's first level
CHUNK = 64
WARMUP = 256


class TruncationError(ValueError):
    """Construction refused: not enough truncation headroom or tail mass."""


def quadrature_action(psi, k0=0):
    """(X psi, Y psi) with X and Y truncated to the Fock levels
    [k0, k0 + n) of psi's last axis, n its length: the banded ladder
    stencil behind every quadrature moment."""
    ks = np.sqrt(np.arange(k0 + 1, k0 + psi.shape[-1], dtype=float))
    xpsi = np.zeros_like(psi)
    xpsi[..., 1:] += ks * psi[..., :-1]
    xpsi[..., :-1] += ks * psi[..., 1:]
    ypsi = np.zeros_like(psi)
    ypsi[..., 1:] += 1j * ks * psi[..., :-1]
    ypsi[..., :-1] -= 1j * ks * psi[..., 1:]
    return xpsi, ypsi


def displaced_squeezed(betas, r, dim=None):
    """(offsets, vectors): vector k is D(i beta_k) S(r)|0> on the Fock levels
    [offsets[k], offsets[k] + len), beta_k real, from the annihilation
    equation (a cosh r - a' sinh r) psi = i beta e^r psi (Yuen, PRA 13, 2226
    (1976)). With c_m = i^m d_m it is the real recurrence

        d_m = beta (1 + tanh r) / sqrt(m) d_{m-1} - tanh r sqrt((m-1)/m) d_{m-2},

    run forward, one float64 column per beta, from (d_{-1}, d_0) = (0, 1),
    or, where the fock.window starts above WARMUP, from (0, 1) WARMUP levels
    below the window: the roots are real there and the state is the growing
    solution, so the other one's share falls by over 1e12 before the window
    (at every beta and e^{2r} up to 1000). Each vector is normalised on its
    window, held to check_edge_mass, and cut below the level where its mass
    reaches 1e-18, less EDGE_LEVELS.

    Given dim, column k of the returned float64 (dim, len(betas)) block is
    instead D(beta_k) S(r)|0> on the levels [0, dim), normalised there: on
    the real axis the annihilation equation's eigenvalue is beta e^{-r} and
    the recurrence, with no i^m gauge, is

        c_m = beta (1 - tanh r) / sqrt(m) c_{m-1} + tanh r sqrt((m-1)/m) c_{m-2},

    run forward from level 0. Its caller measures the block's edge mass."""
    betas = np.asarray(betas, dtype=float)
    t = math.tanh(r)
    if dim is not None:
        zero = np.zeros(len(betas), dtype=int)
        block = np.empty((dim, len(betas)))
        for k, vec in enumerate(_ladder_recurrence(betas * (1.0 - t), t, np.add,
                                                   zero, zero, zero + dim)):
            block[:, k] = vec / math.sqrt(np.dot(vec, vec))
        return block
    bounds = np.array([window(complex(0.0, b), r, "the Fock window of block %d" % k)
                       for k, b in enumerate(betas)], dtype=int).reshape(-1, 2)
    offs, out = [], []
    lows, highs = bounds.T
    vecs = _ladder_recurrence(betas * (1.0 + t), t, np.subtract,
                              np.maximum(lows - WARMUP, 0), lows, highs)
    for k, (lo, hi, vec) in enumerate(zip(lows, highs, vecs)):
        prob = vec * vec
        total = prob.sum()
        prob /= total
        check_edge_mass(prob, "the window of block %d" % k, lo)
        cut = max(0, int(np.searchsorted(np.cumsum(prob), 1e-18)) - EDGE_LEVELS)
        lo += cut
        offs.append(int(lo))
        out.append(vec[cut:] / math.sqrt(total) * np.array([1, 1j, -1, -1j])[np.arange(lo, hi) % 4])
    return offs, out


def _ladder_recurrence(g, t, step, first, lows, highs):
    """Column k of c_m = step(g_k / sqrt(m) c_{m-1}, t sqrt((m-1)/m) c_{m-2}),
    step np.add or np.subtract, on the levels [lows[k], highs[k]) and scaled
    to a largest entry of 1, for each k: run forward from (c_{first_k - 1},
    c_{first_k}) = (0, 1), one float64 column per g_k. Each column carries
    a power of two per CHUNK levels, so rescaling is exact and no start
    needs its scale."""
    chunks = -(-int((highs - first).max(initial=0)) // CHUNK)
    mant = np.empty((chunks * CHUNK, len(g)))  # row j: level first + j
    exps = np.empty((chunks, len(g)), dtype=int)
    buf = np.zeros((CHUNK + 2, len(g)))  # levels first + s - 1 .. first + s + CHUNK
    buf[1] = 1.0
    rows, tmp = list(buf), np.empty(len(g))
    scale = np.zeros(len(g), dtype=int)
    for c in range(chunks):
        levels = first + (c * CHUNK + np.arange(1, CHUNK + 1))[:, None]
        rise = list(g / np.sqrt(levels))
        down = list(t * np.sqrt((levels - 1.0) / levels))
        for i in range(2, CHUNK + 2):
            np.multiply(rise[i - 2], rows[i - 1], out=rows[i])
            np.multiply(down[i - 2], rows[i - 2], out=tmp)
            step(rows[i], tmp, out=rows[i])
        mant[c * CHUNK:(c + 1) * CHUNK] = buf[1:-1]
        exps[c] = scale
        _, e = np.frexp(np.maximum(np.abs(buf[-2]), np.abs(buf[-1])))
        buf[:2] = np.ldexp(buf[-2:], -e)
        scale += e
    for k, (lo, hi) in enumerate(zip(lows, highs)):
        a, b = lo - first[k], hi - first[k]
        e = np.repeat(exps[:, k], CHUNK)[a:b]
        vec = np.ldexp(mant[a:b, k], e - e.max())
        yield vec / np.abs(vec).max()  # so that no square overflows


def chebyshev_coefficients(tau):
    """Coefficients of exp(i tau x) = sum_m c_m T_m(x) on [-1, 1]:
    c_0 = J_0(tau), c_m = 2 i^m J_m(tau), kept up to the last m whose tail
    sum of |c_m| is above double precision (at least two terms).

    J_m(tau) comes from Miller's backward recurrence on the ratios
    r_m = J_m / J_{m-1} = tau / (2m - tau r_{m+1}), normalised by
    J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Rev. 9, 24 (1967)). It starts
    from r = 0 past the Airy transition at m ~ tau, where J_m(tau) < 1e-22;
    starting it later changes no returned bit (checked up to tau = 1e5).
    On ratios, unlike on rescaled J_m, tiny tau is safe: r_m ~ tau / 2m,
    and the J_m underflow to zero without an overflow or a division by
    zero, down to tau ~ 1e-300.
    """
    top = int(tau + 16.0 * tau ** (1.0 / 3.0) + 40.0)
    ratios = np.empty(top + 1)
    r = s = 0.0  # r_{m+1} and sum_{k > m} of the even J_k / J_m, times two
    for m in range(top, 0, -1):
        r = tau / (2.0 * m - tau * r)
        s = r * ((0.0 if m % 2 else 2.0) + s)
        ratios[m] = r
    ratios[0] = 1.0 / (1.0 + s)
    bessel = np.cumprod(ratios)
    tail = np.cumsum(np.abs(bessel[::-1]))[::-1]
    count = max(2, int(np.count_nonzero(2.0 * tail > np.finfo(float).eps)))
    coef = 2.0 * np.array([1, 1j, -1, -1j])[np.arange(count) % 4] * bessel[:count]
    coef[0] *= 0.5
    return coef


def _aligned(values):
    """A copy of the flat float array values on a 64-byte boundary. malloc
    aligns to 16 bytes only, and the ufunc stencil below runs up to 1.6x
    slower on such operands than on cache-line-aligned ones."""
    raw = np.empty(values.size + 8)
    start = (-raw.ctypes.data % 64) // 8
    raw[start:start + values.size] = values
    return raw[start:start + values.size]


def _chebyshev_sums(seed, lift, shift, cs, terms, visit=None):
    """Even-m and odd-m parts of sum_m c_m T_m(x) seed for one slab and each
    coefficient array c of cs (zero past its length), over `terms` terms.

    seed holds one row of `shift` real entries per Fock level, flattened,
    so the next level is `shift` entries on; lift is the ladder of 2x
    repeated along a row. 2x takes lift times entry j + shift into entry j
    and lift times entry j into entry j + shift. T_{m+1} = 2x T_m - T_{m-1}
    overwrites T_{m-1}: two rotating buffers and a scratch, no allocation
    per term; visit(m, T_m seed), if given, reads each term.
    """
    nk = lift.size
    lift, cur, scratch = _aligned(lift), _aligned(seed), _aligned(seed)
    prev = _aligned(np.zeros_like(seed))  # a zero T_{-1}: the first step is 2x T_0
    series = [(c, len(c), (_aligned(c[0] * seed), _aligned(np.zeros_like(seed)))) for c in cs]
    if visit:
        visit(0, cur)
    for m in range(1, terms):
        # T_m = 2x T_{m-1} - T_{m-2}, written over T_{m-2}
        np.multiply(lift, cur[shift:], out=scratch[:nk])
        np.subtract(scratch[:nk], prev[:nk], out=prev[:nk])
        np.negative(prev[nk:], out=prev[nk:])
        np.multiply(lift, cur[:nk], out=scratch[:nk])
        np.add(prev[shift:], scratch[:nk], out=prev[shift:])
        if m == 1:
            prev *= 0.5  # T_1 = x T_0
        for c, count, s in series:
            if m < count:
                np.multiply(prev, c[m], out=scratch)
                np.add(s[m % 2], scratch, out=s[m % 2])
        prev, cur = cur, prev
        if visit:
            visit(m, cur)
    return [s for *_, s in series]


def _x_series(block, ts, terms=0, visit=None, k0=0):
    """([exp(i t X) block for each t of ts], their coefficient arrays), X =
    a' + a truncated to the levels [k0, k0 + n) of the rows of the real
    block, over at least `terms` terms; visit(cols, m, T_m) sees each term
    of the slab of block columns cols. The series is that of exp(i tau x)
    in x = X / (2 L), L the top ladder entry, so ||x|| <= 1 (Gershgorin)
    and tau = 2 |t| L (Tal-Ezer & Kosloff 1984), conjugated at t < 0. x is
    real and each c_m is real at even m and imaginary at odd m, so on a
    real block the even terms sum to the real part of the result and the
    odd ones to its imaginary part. The columns run in slabs of at most
    SLAB entries (or one column, if that is larger), which keeps the
    buffers cache-resident and changes no bit of any column. TypeError on
    a complex block: run its real and imaginary parts as columns.
    """
    if np.iscomplexobj(block):
        raise TypeError("_x_series: the block must be real, got %s" % block.dtype)
    n = block.shape[0]
    top = math.sqrt(k0 + n - 1)
    # each c_m is real at even m and imaginary at odd m: packed as c.real + c.imag
    cs = [c.real + c.imag for c in (chebyshev_coefficients(2.0 * abs(float(t)) * top) for t in ts)]
    lift = np.sqrt(np.arange(k0 + 1, k0 + n, dtype=float)) / top
    outs = [np.empty(block.shape, dtype=complex) for _ in ts]
    width = max(1, SLAB // n)
    for a in range(0, block.shape[1], width):
        seed = np.ascontiguousarray(block[:, a:a + width], dtype=float)
        w, cols = seed.shape[1], slice(a, a + width)  # numpy clips the last slab's cols
        sums = _chebyshev_sums(seed.ravel(), np.repeat(lift, w), w, cs,
                               max([terms, *map(len, cs)]),
                               visit and (lambda *term: visit(cols, *term)))
        for t, out, (even, odd) in zip(ts, outs, sums):
            out.real[:, cols] = even.reshape(n, w)
            out.imag[:, cols] = (odd if t >= 0 else -odd).reshape(n, w)
    return outs, cs


def parity_series(block, ts, states=()):
    """(<phi|P exp(i t X)|phi> for each t of ts, in rows, and each column phi
    of the real block, [exp(i s X) block for each s of states]), P = (-1)^n
    on the levels [0, n) of block's rows, from one recurrence v_j = T_j(x)
    phi. As P x = -x P, the moments mu_m = <phi|P T_m(x)|phi> double up
    (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)): mu_2j = 2 (-1)^j
    <v_j|P|v_j> - mu_0. P T_m(x) is anti-Hermitian at odd m, so on a real
    phi mu_m is exactly 0 there, and only the diagonal parity sums are
    taken, as numpy reductions: no BLAS call per term. Each column's sums
    run in an order its slab's width does not change, so a block gives the
    bits of its columns one by one."""
    n, width = block.shape
    _, cs = _x_series(block[:, :0], ts)  # the coefficients alone: no column to run
    half = (max(map(len, cs)) - 1) // 2  # moments 0, 2, .. 2 half from v_0 .. v_half
    diag = np.zeros((half + 1, width))  # <v_j|P|v_j>

    def visit(cols, j, cur):
        if j <= half:  # one contiguous row per column: pairwise sums along it
            v = np.square(np.ascontiguousarray(cur.reshape(n, -1).T))
            diag[j, cols] = v[:, 0::2].sum(axis=1) - v[:, 1::2].sum(axis=1)

    ends, _ = _x_series(block, states, half + 1, visit)
    mu = 2.0 * (-1.0) ** np.arange(half + 1)[:, None] * diag - diag[0]  # mu_0, mu_2, .. mu_2half
    coef = np.zeros((half + 1, len(ts)))
    for col, c in zip(coef.T, cs):
        col[:len(c[::2])] = c[::2]
    out = np.zeros((len(ts), width))
    for c, m in zip(coef, mu):
        out += c[:, None] * m
    return out, ends


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


def thermal_dim(N):
    """Smallest dimension with truncated thermal tail mass <= THERMAL_TAIL,
    and at least 2 at N > 0, so the law keeps the level that carries its
    mean. TruncationError when N/(N+1) rounds to 1: no dimension holds
    the tail then."""
    if N < 0:
        raise ValueError("mean occupation must be >= 0, got %r" % N)
    if N == 0:
        return 1
    ratio = N / (N + 1.0)
    if ratio == 1.0:
        raise TruncationError("the thermal law at N = %g has no truncation: N/(N+1) rounds "
                              "to 1 in double precision" % N)
    return max(2, int(np.ceil(np.log(THERMAL_TAIL) / np.log(ratio))))


def check_thermal_tail(N, dim, name="dim"):
    """Raise TruncationError when the thermal mass beyond the first dim
    levels, (N/(N+1))^dim (all of it when dim < 1), exceeds THERMAL_TAIL;
    name is the truncation's name in the message, or thermal_dim's error
    when no dim would do."""
    if N < 0:
        raise ValueError("mean occupation must be >= 0, got %r" % N)
    tail = (N / (N + 1.0)) ** max(dim, 0)  # 0.0 ** 0 is 1: no level keeps all
    if tail > THERMAL_TAIL:
        raise TruncationError(
            "thermal tail mass %.3g exceeds %.3g at %s %d; need %s >= %d"
            % (tail, THERMAL_TAIL, name, dim, name, thermal_dim(N)))


def thermal_pn(N, dim):
    """Occupation probabilities P(n) = N^n/(N+1)^{n+1}, renormalized, under
    check_thermal_tail."""
    check_thermal_tail(N, dim)
    n = np.arange(dim)
    p = np.exp(n * np.log(N / (N + 1.0)) - np.log(N + 1.0)) if N > 0 else \
        np.concatenate(([1.0], np.zeros(dim - 1)))
    return p / p.sum()


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


def write_csv(header, *columns):
    """The CSV bytes of equal-length integer or float64 numpy columns, or
    ranges (an index column, made per chunk), each value as repr of its
    Python scalar (shortest round-trip floats), taken from orjson's text by
    _cells, which calls repr only on the few cells orjson writes in fixed
    point or as null. Each CSV_CHUNK rows are rendered to bytes and joined
    into one growing buffer, which is returned as it is: no copy."""
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError("write_csv: columns differ in length: %s" % lengths)
    if any(c.dtype != np.float64 and c.dtype.kind not in "iu" for c in columns
           if not isinstance(c, range)):
        # orjson writes float32 digits, and true for True: not repr's text
        raise TypeError("write_csv: columns must be integer or float64, got %s"
                        % [str(getattr(c, "dtype", "range")) for c in columns])
    out = bytearray(header.encode() + b"\n")
    for start in range(0, lengths[0], CSV_CHUNK):
        parts = [c[start:start + CSV_CHUNK] for c in columns]
        cells = [_cells(np.arange(p.start, p.stop) if isinstance(p, range)
                        else np.ascontiguousarray(p)) for p in parts]
        out += b"\n".join(map(b",".join, zip(*cells)))
        out += b"\n"
    return out
