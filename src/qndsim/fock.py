"""Truncated Fock-space engine: the one action kernel for displacements,
the closed-form squeezed vacuum, the quadrature stencil, the one Fock-window
rule, the edge budget every moving or walked window is held to, the thermal
law with its tail budget, and the CSV renderer of an artifact's bytes.
Every operator acts on state vectors through its sqrt(n) bands; no dense
Fock matrix is built.

Quadrature convention, the single source of truth for the whole package:
X = a + a', Y = i(a' - a), so the vacuum has Var(X) = Var(Y) = 1.

All states are plain complex numpy arrays; all functions are pure. The
module needs numpy and orjson. The action kernel is a Chebyshev series whose
Bessel coefficients come from Miller's backward recurrence and whose
three-term recurrence runs as in-place numpy ufuncs, so no run loads scipy.
The CSV renderer takes its float digits from orjson's compiled shortest
round-trip formatter and rewrites orjson's exponents into repr's form in
numpy, so its bytes equal those of repr on every value.
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
CSV_CHUNK = 16384

# real entries per slab of block columns in ladder_exp's recurrence
SLAB = 1 << 15


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


def _chebyshev_sums(seed, lift, shift, c):
    """Even-m and odd-m parts of sum_m c_m T_m(x) seed for one slab.

    seed holds one row of `shift` real entries per Fock level, flattened,
    so the next level is `shift` entries on; lift is the ladder of 2x
    repeated along a row. 2x takes lift times entry j + shift into entry j
    and lift times entry j into entry j + shift. T_{m+1} = 2x T_m - T_{m-1}
    overwrites T_{m-1}: two rotating buffers and a scratch, no allocation
    per term.
    """
    nk = lift.size
    lift, cur, scratch = _aligned(lift), _aligned(seed), _aligned(seed)
    prev = _aligned(np.zeros_like(seed))  # a zero T_{-1}: the first step is 2x T_0
    sums = (_aligned(c[0] * seed), _aligned(np.zeros_like(seed)))
    for m in range(1, len(c)):
        # T_m = 2x T_{m-1} - T_{m-2}, written over T_{m-2}
        np.multiply(lift, cur[shift:], out=scratch[:nk])
        np.subtract(scratch[:nk], prev[:nk], out=prev[:nk])
        np.negative(prev[nk:], out=prev[nk:])
        np.multiply(lift, cur[:nk], out=scratch[:nk])
        np.add(prev[shift:], scratch[:nk], out=prev[shift:])
        if m == 1:
            prev *= 0.5  # T_1 = x T_0
        np.multiply(prev, c[m], out=scratch)
        np.add(sums[m % 2], scratch, out=sums[m % 2])
        prev, cur = cur, prev
    return sums


def ladder_exp(psi, z, k0=0):
    """D(z) psi = exp(z a' - z* a) psi. psi is a vector or a block of column
    vectors on the Fock levels [k0, k0 + len(psi)), to which the generator
    is truncated.

    The generator is R i|z| X R' with X = a' + a and the diagonal phase
    R = exp(i (arg z - pi/2) n). exp(i|z| X) is the Chebyshev series of
    exp(i tau x) in x = X / (2 L), with L the window's top ladder entry, so
    ||x|| <= 1 (Gershgorin) and tau = 2 |z| L (Tal-Ezer & Kosloff 1984).
    x is real, so the series runs on the real and imaginary parts of R' psi
    side by side as one real block, with numpy ufuncs on flat buffers. The
    block's columns go through the recurrence in slabs of at most SLAB real
    entries (or one column, if that is larger), which keeps the buffers
    cache-resident; each column's entries are computed elementwise from its
    own, so the slabs change no bit.
    """
    psi = np.asarray(psi, dtype=complex)
    n = len(psi)
    levels = np.arange(k0, k0 + n, dtype=float)
    ladder = np.sqrt(levels[1:])
    if z == 0 or not ladder.size:
        return psi.copy()
    phase = np.exp(1j * (np.angle(z) - 0.5 * np.pi) * levels)[:, None]
    coef = chebyshev_coefficients(2.0 * abs(z) * ladder[-1])
    c = coef.real + coef.imag  # i^m is real at even m, imaginary at odd m
    lift = ladder / ladder[-1]
    block = psi.reshape(n, -1)
    out = np.empty_like(block)
    width = max(1, SLAB // (2 * n))  # complex columns per slab
    for a in range(0, block.shape[1], width):
        seed = np.ascontiguousarray(np.conj(phase) * block[:, a:a + width])
        w = seed.shape[1]
        even, odd = _chebyshev_sums(seed.view(float).ravel(), np.repeat(lift, 2 * w), 2 * w, c)
        out[:, a:a + w] = phase * (even.view(complex) + 1j * odd.view(complex)).reshape(n, w)
    return out.reshape(psi.shape)


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
    """The CSV bytes of equal-length integer or float64 numpy columns, each
    value as repr of its Python scalar (shortest round-trip floats), taken
    from orjson's text by _cells, which calls repr only on the few cells
    orjson writes in fixed point or as null. Each CSV_CHUNK rows are
    rendered to bytes and joined into one growing buffer, which is returned
    as it is: no copy."""
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError("write_csv: columns differ in length: %s" % lengths)
    if any(c.dtype != np.float64 and c.dtype.kind not in "iu" for c in columns):
        # orjson writes float32 digits, and true for True: not repr's text
        raise TypeError("write_csv: columns must be integer or float64, got %s"
                        % [c.dtype.name for c in columns])
    out = bytearray(header.encode() + b"\n")
    for start in range(0, lengths[0], CSV_CHUNK):
        cells = [_cells(np.ascontiguousarray(c[start:start + CSV_CHUNK])) for c in columns]
        out += b"\n".join(map(b",".join, zip(*cells)))
        out += b"\n"
    return out
