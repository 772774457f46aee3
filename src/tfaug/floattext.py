"""Exact float text for whole grids: `repr` of every value, one numpy pass per
chunk of values.

`float_chunks(X)` streams a real 2-d float64 array as CSV text, chunk by
chunk as ASCII bytes, and `float_rows(X)` joins that stream; each value is
byte for byte `repr(float(v))`: the shortest decimal that reads back to the
same double, the one nearest to it when several are that short.  The
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of Java's `Double.toString`), which needs
only 64-bit integer products and one table of powers of ten, so every step
is a numpy operation over a chunk of values.  One deviation from Java:
Java keeps at least two digits (its `s >= 100` guard and its rescale of
the three smallest subnormals); `repr` keeps the shortest, so the guard is
`s >= 10` and there is no rescale (`8e-323`, not `7.9e-323`).
"""

from collections.abc import Iterator

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of the algorithm
_CHUNK = 1 << 13  # values per pass; whole-grid temporaries page-fault
_DIGITS = 17  # a double needs at most 17 significant digits


def _flog10pow2(e):  # floor(e log10(2))
    return (e * 661971961083) >> 41


def _flog10_three_quarters_pow2(e):  # floor(log10(3/4 2^e))
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):  # floor(e log2(10))
    return (e * 913124641741) >> 38


def _g_table():
    """g = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126, per k: g1 = g >> 63
    and the 32-bit halves of g1 and of g0 = g mod 2^63."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k <= 0:
            g = (10**-k << -r if r < 0 else 10**-k >> r) + 1
        else:
            g = (1 << -r) // 10**k + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    g1, g0 = np.array(g1, dtype=_U), np.array(g0, dtype=_U)
    return g1, g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32)


_G1, _G1_LO, _G1_HI, _G0_LO, _G0_HI = _g_table()
_ONE = _U(0x3FF0000000000000)  # the bits of 1.0
_POW10 = np.array([10**i for i in range(_DIGITS + 1)], dtype=_U)


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of (a1 2^32 + a0)(b1 2^32 + b0) for 32-bit a0, b0, a1 < 2^31
    and b1 < 2^27: the middle sum below cannot overflow."""
    mid = ((a0 * b0) >> _U(32)) + a1 * b0 + a0 * b1
    return a1 * b1 + (mid >> _U(32))


def _round_to_odd(g, cp):
    """floor(cp g / 2^127) with its lowest bit set when the fraction is not 0,
    for cp < 2^59 and g = g1 2^63 + g0 given as (g1, g1 halves, g0 halves)."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    c0, c1 = cp & _M32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_lo, g0_hi, c0, c1)
    vbp = _mulhi(g1_lo, g1_hi, c0, c1) + (z >> _U(63))
    return vbp | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(f, k) with f 10^k the shortest nearest decimal of each finite,
    nonzero double given by its bits."""
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    t = bits & _U((1 << 52) - 1)
    c = np.where(bq > 0, t | _U(1 << 52), t)
    q = np.maximum(bq, 1) - 1075
    irregular = (t == 0) & (bq > 1)  # a power of two: the gap below is half the gap above
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    i = k - _K_MIN
    g = _G1[i], _G1_LO[i], _G1_HI[i], _G0_LO[i], _G0_HI[i]
    out = c & _U(1)  # odd c: the rounding interval excludes its ends
    cb = c << _U(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - np.where(irregular, _U(1), _U(2))) << h) + out
    vbr = _round_to_odd(g, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    # one digit fewer: u' = 10 floor(s/10) or w' = u' + 10, if exactly one lies inside
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    short = (s >= _U(10)) & (upin != wpin)
    # else u = s or w = s + 1: the one inside, or the nearer one (ties to even)
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    nearer_s = (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0))
    pick_s = np.where(uin != win, uin, nearer_s)
    f = np.where(short, np.where(upin, sp10, sp10 + _U(10)), s + (~pick_s).astype(_U))
    return f, k


# The columns of a chunk's character table: per value the 17 digits of its
# normalized significand and the separator after it, then characters common
# to all values (the last a 0 byte that pads every token to _WIDTH), then per
# value its exponent's sign and three digits, written as one 4-byte word.
_SEP, _COMMON = _DIGITS, _DIGITS + 1
_COMMON_TEXT = b".0-enaninf\0"
_POINT, _ZERO, _MINUS, _E, _NAN, _INF, _PAD = (
    _COMMON + _COMMON_TEXT.index(c) for c in (b".", b"0", b"-", b"e", b"nan", b"inf", b"\0")
)
_EXP = 32  # 4-byte aligned: one uint32 column of the table
_TABLE_WIDTH = _EXP + 4
_WIDTH = 25  # '-1.2345678901234567e-308' and its separator
_POSITIONAL = range(-4, 16)  # exponents written without 'e': 0.0001 ... 9999999999999998.0
_E_MIN = -324  # 5e-324
_EXPONENTS = np.frombuffer(
    "".join(f"{'-' if e < 0 else '+'}{abs(e):03d}" for e in range(_E_MIN, 309)).encode(), np.uint32
)


def _layout(kind, n, sign):
    """Column indices spelling one token; kind is an exponent E for positional
    text, 'e' or 'e3' for scientific text with 2 or 3 exponent digits, 'nan' or 'inf'."""
    cols = [_MINUS] if sign else []
    if kind in ("nan", "inf"):
        cols += [(_NAN if kind == "nan" else _INF) + i for i in range(3)]
    elif kind in ("e", "e3"):
        cols += [0] + ([_POINT, *range(1, n)] if n > 1 else [])
        cols += [_E, _EXP] + ([_EXP + 1] if kind == "e3" else []) + [_EXP + 2, _EXP + 3]
    elif kind < 0:  # 0.000ddd
        cols += [_ZERO, _POINT] + [_ZERO] * (-kind - 1) + list(range(n))
    else:  # ddd.ddd, with the zero-padded digits for ddd0.0
        cols += [*range(kind + 1), _POINT, *range(kind + 1, max(n, kind + 2))]
    return cols + [_SEP] + [_PAD] * (_WIDTH - 1 - len(cols))


_KINDS = [*_POSITIONAL, "e", "e3", "nan", "inf"]
_LAYOUTS = np.array(
    [_layout(kind, n, sign) for sign in (0, 1) for kind in _KINDS for n in range(1, _DIGITS + 1)],
    dtype=np.uint8,
)


def _tokens(x, sep, chars):
    """`repr` of each value of the 1-d chunk x followed by its byte of sep (0:
    none), as one row of _WIDTH bytes per value, padded with 0 bytes.  chars
    is the character table, its common columns filled."""
    m = len(x)
    bits = x.view(_U)
    nan, inf = np.isnan(x), np.isinf(x)
    finite = ~(nan | inf) & (x != 0)
    f, k = _shortest(np.where(finite, bits, _ONE))
    # normalize f to 17 digits, f 10^(17 - len), and E to the scientific exponent
    length = np.searchsorted(_POW10, f, side="right")
    E = np.where(finite, k + length - 1, 0)
    f = np.where(finite, f * _POW10[_DIGITS - length], _U(0))
    parts = [(f // _U(10**9)).astype(np.uint32), (f % _U(10**9)).astype(np.uint32)]
    digits = np.empty((_DIGITS, m), dtype=np.uint8)
    n = np.full(m, _DIGITS)  # significant digits: 17 less the trailing zeros
    trailing = np.ones(m, dtype=bool)
    for j in range(_DIGITS - 1, -1, -1):
        part = parts[j >= _DIGITS - 9]
        q = part // np.uint32(10)
        digits[j] = part - q * np.uint32(10)
        part[:] = q
        trailing &= digits[j] == 0
        n -= trailing
    digits += ord("0")
    n[~finite] = 1
    chars = chars[:m]
    chars[:, :_DIGITS] = digits.T
    chars.view(np.uint32)[:, _EXP // 4] = _EXPONENTS[E - _E_MIN]
    chars[:, _SEP] = sep
    kind = np.where((E >= -4) & (E < 16), E + 4, len(_POSITIONAL) + (np.abs(E) >= 100))
    kind[nan] = len(_KINDS) - 2
    kind[inf] = len(_KINDS) - 1
    sign = (bits >> _U(63)).astype(bool) & ~nan
    layout = (sign * len(_KINDS) + kind) * _DIGITS + n - 1
    index = np.add(_LAYOUTS[layout], (np.arange(m) * chars.shape[1])[:, None])
    return chars.ravel().take(index)


def float_chunks(X) -> Iterator[bytes]:
    """The text of `float_rows(X)` as ASCII bytes, one chunk of at most
    _CHUNK values at a time, so a writer holds one chunk's text, not the
    whole grid's.  X is checked when the first chunk is asked for."""
    X = np.asarray(X)
    if X.ndim != 2 or X.dtype != np.float64:
        raise ValueError(f"expected a 2-d float64 array, got {X.dtype} of shape {X.shape}")
    rows, cols = X.shape
    if cols == 0:
        yield b"\n" * max(rows - 1, 0)
        return
    flat = np.ascontiguousarray(X).ravel()
    sep = np.full(flat.size, ord(","), dtype=np.uint8)
    sep[cols - 1 :: cols] = ord("\n")
    sep[-1:] = 0
    chars = np.empty((min(flat.size, _CHUNK), _TABLE_WIDTH), dtype=np.uint8)
    chars[:, _COMMON : _PAD + 1] = np.frombuffer(_COMMON_TEXT, np.uint8)
    for i in range(0, flat.size, _CHUNK):
        tokens = _tokens(flat[i : i + _CHUNK], sep[i : i + _CHUNK], chars)
        # bytes of a fixed-width string lose their trailing 0 bytes in tolist
        yield b"".join(tokens.view(f"S{_WIDTH}").ravel().tolist())


def float_rows(X) -> str:
    """Rows of the real 2-d float64 array X as text: each value `repr(float(v))`
    (-0.0, nan, inf, 5e-324 and 1e+16 included), values joined by ',' within
    a row and rows by '\\n'.  The join of `float_chunks(X)`."""
    return b"".join(float_chunks(X)).decode("ascii")
