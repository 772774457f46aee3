"""Exact float text for whole grids: `repr` of every value, one numpy pass per
chunk of values.

`float_chunks(X)` streams a real 2-d float64 array as CSV text, chunk by
chunk as ASCII bytes, and `float_rows(X)` joins that stream; each value is
byte for byte `repr(float(v))`: the shortest decimal that reads back to the
same double, the one nearest to it when several are that short.  The
digits come from Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point
Binary-to-Decimal Conversion Algorithm", 2020) for binary64 and
round-to-nearest-even: one 64 x 128-bit product per value against a table
of 128-bit powers of ten, so every step is a numpy operation over a chunk
of values.  Zeros, infinities and nans need no digits: a chunk that holds
any runs the search on its finite nonzero values alone.

Text is made by deletion: each value's row holds, in text order, every
character any token can need, and is AND-ed with a keep-mask for its
layout (positional or scientific, digit count, sign, nan or inf); one
`bytes.translate` then deletes a chunk's zero bytes.
"""

from collections.abc import Iterator

import numpy as np

_U = np.uint64
_32 = _U(32)
_M32 = _U(0xFFFFFFFF)
_K_MIN, _K_MAX = -292, 326  # the exponents k of the cached powers 10^k
_KAPPA = 2  # Dragonbox's kappa for binary64
_BIG, _SMALL = _U(10 ** (_KAPPA + 1)), _U(10**_KAPPA)
_CHUNK = 1 << 13  # values per pass; whole-grid temporaries page-fault
_DIGITS = 17  # a double needs at most 17 significant digits


def _flog10pow2(e):  # floor(e log10(2))
    return (e * 661971961083) >> 41


def _flog10_three_quarters_pow2(e):  # floor(log10(3/4 2^e))
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):  # floor(e log2(10))
    return (e * 913124641741) >> 38


def _cache_table():
    """phi_k = ceil(10^k 2^(127 - floor(log2 10^k))), so 2^127 <= phi_k < 2^128,
    per k as its high and low 64 bits."""
    phi = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k < 0:  # 10^-k is no power of two: floor(log2 10^k) = -bit_length(10^-k)
            phi.append(-(-(1 << (127 + p.bit_length())) // p))
        else:
            shift = 128 - p.bit_length()
            phi.append(p << shift if shift >= 0 else -(-p >> -shift))
    return np.array([v >> 64 for v in phi], _U), np.array([v & (2**64 - 1) for v in phi], _U)


_HI, _LO = _cache_table()
_HI0, _HI1, _LO0, _LO1 = _HI & _M32, _HI >> _32, _LO & _M32, _LO >> _32
_POW10 = np.array([10**i for i in range(_DIGITS + 1)], dtype=_U)


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of (a1 2^32 + a0)(b1 2^32 + b0) for 32-bit a0, b0, b1 and
    a1 < 2^31: the middle sum below cannot overflow."""
    a0b1 = a0 * b1
    mid = ((a0 * b0) >> _32) + (a0b1 & _M32) + a1 * b0
    return a1 * b1 + (a0b1 >> _32) + (mid >> _32)


def _mul_parity(two_f, i, beta):
    """The lowest bit of floor(two_f phi 2^(beta - 128)), phi = _HI[i] 2^64 +
    _LO[i], and whether that quotient is exact, for two_f < 2^55."""
    high = two_f * _HI[i] + _mulhi(two_f & _M32, two_f >> _32, _LO0[i], _LO1[i])
    parity = ((high >> (_U(64) - beta)) & _U(1)).astype(bool)
    exact = ((high << beta) | ((two_f * _LO[i]) >> (_U(64) - beta))) == 0
    return parity, exact


def _shorter_interval(e):
    """(f, x) with f 10^x the shortest nearest decimal of each power of two
    2^(52 + e), a normal double whose gap below is half the gap above."""
    k = -_flog10_three_quarters_pow2(e)
    beta = (e + _flog2pow10(k)).astype(_U)
    hi = _HI[k - _K_MIN]
    # the interval's ends times 10^k, both kept (an even significand); the left
    # end is an integer for e = 2, 3 only, else the least integer above it
    left = ((hi - (hi >> _U(54))) >> (_U(11) - beta)) + ((e < 2) | (e > 3))
    right = (hi + (hi >> _U(53))) >> (_U(11) - beta)
    s = right // _U(10)
    one_fewer = s * _U(10) >= left
    up = ((hi >> (_U(10) - beta)) + _U(1)) >> _U(1)  # 2^e 10^k rounded half up
    tie = (e == -77) & ((up & _U(1)) == 1)  # the only exact half: round it to even
    up = np.where(tie, up - _U(1), up + (up < left))
    return np.where(one_fewer, s * _U(10), up), -k


def _shortest(bits):
    """(f, x) with f 10^x the shortest nearest decimal of each finite,
    nonzero double given by its bits, c 2^e with c < 2^53."""
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    t = bits & _U((1 << 52) - 1)
    two_fc = np.where(bq > 0, t | _U(1 << 52), t) << _U(1)  # 2 c
    e = np.maximum(bq, 1) - 1075
    k = _KAPPA - _flog10pow2(e)
    beta = (e + _flog2pow10(k)).astype(_U)
    i = k - _K_MIN
    hi = _HI[i]
    # the right end of the rounding interval, (2 c + 1) 2^(e - 1), times 10^k:
    # its floor z, and mid = 0 when it is an integer
    u = (two_fc | _U(1)) << beta
    u0, u1 = u & _M32, u >> _32
    low = u * hi
    mid = low + _mulhi(u0, u1, _LO0[i], _LO1[i])
    z = _mulhi(u0, u1, _HI0[i], _HI1[i]) + (mid < low)
    delta = hi >> (_U(63) - beta)  # the interval's width times 10^k, floored
    # one digit fewer: s 10^(kappa + 1) is inside the interval when r < delta;
    # an interval keeps its ends only when the significand is even
    s = z // _BIG
    r = z - s * _BIG
    one_fewer = r < delta
    at_left = np.flatnonzero(r == delta)  # decided by the left end's fraction
    if at_left.size:
        parity, exact = _mul_parity(two_fc[at_left] - _U(1), i[at_left], beta[at_left])
        one_fewer[at_left] = parity | (exact & ((t[at_left] & _U(1)) == 0))
    at_right = np.flatnonzero(r == 0)
    at_right = at_right[(mid[at_right] == 0) & ((t[at_right] & _U(1)) == 1)]
    if at_right.size:  # s is the right end itself, which is left out
        one_fewer[at_right] = False
        s[at_right] -= _U(1)
        r[at_right] = _BIG
    # else the multiple of 10^kappa nearest to the value: an estimate from r,
    # one too high at most when it is exact, which the parity decides
    dist = r - (delta >> _U(1)) + (_SMALL >> _U(1))
    q = dist // _SMALL
    f = np.where(one_fewer, s * _U(10), s * _U(10) + q)
    check = np.flatnonzero((dist == q * _SMALL) & ~one_fewer)
    if check.size:
        parity, exact = _mul_parity(two_fc[check], i[check], beta[check])
        approx = ((dist[check] ^ (_SMALL >> _U(1))) & _U(1)).astype(bool)
        odd = (f[check] & _U(1)).astype(bool)
        f[check] -= (parity != approx) | (exact & odd)  # below y, or a tie kept even
    x = _KAPPA - k
    pow2 = np.flatnonzero(t == 0)
    pow2 = pow2[bq[pow2] > 0]
    if pow2.size:
        f[pow2], x[pow2] = _shorter_interval(e[pow2])
    return f, x


# A value's row holds, in text order, every character one of its tokens can
# need; its token is the row AND-ed with a keep-mask, the zero bytes deleted.
# Per chunk the digits are written, the 16 after the first as four 8-byte
# words of four digits with their point slots, the exponent word, the
# separator, and a nan's or an inf's letters over the first three digits.
_ROW = np.frombuffer(b"-0.000" + b"0." * _DIGITS + b"e+000,\0\0", np.uint8)
_WIDTH = len(_ROW)  # 48: six 8-byte words
_LEAD = 6  # digit k at _LEAD + 2 k, its point slot after it
_EXP = _LEAD + 2 * _DIGITS  # the 8-byte word 'e', exponent sign, three digits, separator
_SEP = _EXP + 5
_POSITIONAL = range(-4, 16)  # exponents written without 'e': 0.0001 ... 9999999999999998.0
_KINDS = [*_POSITIONAL, "e", "e3", "nan", "inf"]
_E_MIN = -324  # 5e-324
_EXPONENTS = np.frombuffer(b"".join(b"e%+04d\0\0\0" % e for e in range(_E_MIN, 309)), _U)
_KIND_OF = np.array(  # per E - _E_MIN: the index of E's kind in _KINDS
    [E + 4 if E in _POSITIONAL else len(_POSITIONAL) + (abs(E) >= 100) for E in range(_E_MIN, 309)]
)
# per w < 10^4: its four digits with their point slots as one 8-byte word, and
# its trailing zeros (4 for 0)
_FOUR = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_WORDS = np.repeat(_FOUR, 2, axis=1)
_WORDS[:, 1::2] = ord(".")
_WORDS = _WORDS.view(_U).ravel()
_TRAILING = np.zeros(10**4, np.uint8)
for _zero in (_FOUR == ord("0")).T:  # a zero digit adds one to the zeros before it
    _TRAILING = _zero * (_TRAILING + 1)


def _keep(kind, negative):
    """Which characters of a row spell a token, one mask per digit count n =
    1..17; kind is an exponent E for positional text, 'e' or 'e3' for
    scientific text with 2 or 3 exponent digits, 'nan' or 'inf'."""
    n = np.arange(1, _DIGITS + 1)[:, None]
    k = np.arange(_DIGITS)
    digits, point, prefix, exponent = k < n, False, 0, False  # prefix: kept of '0.000'
    if kind in ("nan", "inf"):  # the letters in digit slots 0-2
        digits = k < 3
    elif kind in ("e", "e3"):
        point = (k == 0) & (n > 1)
        exponent = [True, True, kind == "e3", True, True]
    elif kind < 0:  # '0.', -kind - 1 zeros, the digits
        prefix = 1 - kind
    else:  # ddd.ddd, with the zero-padded digits for ddd0.0
        digits = k < np.maximum(n, kind + 2)
        point = k == kind
    keep = np.zeros((_DIGITS, _WIDTH), bool)
    keep[:, 0] = negative and kind != "nan"  # a nan has no sign
    keep[:, 1 : 1 + prefix] = True
    keep[:, _LEAD:_EXP:2] = digits
    keep[:, _LEAD + 1 : _EXP : 2] = point
    keep[:, _EXP:_SEP] = exponent
    keep[:, _SEP] = True
    return keep


# a positive value's masks by (kind, n), then a negative one's
_MASKS = np.concatenate([_keep(kind, negative) for negative in (False, True) for kind in _KINDS])
_MASKS = (_MASKS * np.uint8(0xFF)).view(_U)


def _tokens(x, sep, rows):
    """`repr` of each value of the 1-d chunk x followed by its byte of sep (0:
    none), as ASCII bytes.  rows holds a row per value, its constant
    characters filled."""
    m = len(x)
    bits = x.view(_U)
    finite = np.isfinite(x)
    search = finite & (x != 0)
    if search.all():
        f, x10 = _shortest(bits)
    else:  # the rest keep f = 0 with no digits, so E = x10 - 1 = 0
        f, x10 = np.zeros(m, _U), np.ones(m, np.int64)
        f[search], x10[search] = _shortest(bits[search])
    # normalize f to 17 digits, f 10^(17 - len), and E to the scientific exponent
    length = np.searchsorted(_POW10, f, side="right")
    e = x10 + length - (1 + _E_MIN)  # E - _E_MIN
    lead = (f * _POW10[_DIGITS - length]).astype(np.intp)
    words = np.empty((m, 4), np.intp)  # digits 1-16 as four numbers of four, leaving digit 0
    for j in (3, 2, 1, 0):
        high = lead // 10**4
        words[:, j] = lead - high * 10**4
        lead = high
    # 17 significant digits less the trailing zeros, counted word by word
    trailing = _TRAILING.take(words)
    zero = words == 0
    count = trailing[:, 0]
    for j in (1, 2, 3):
        count = trailing[:, j] + zero[:, j] * count
    n = _DIGITS - count.astype(np.intp)
    rows = rows[:m]
    rows[:, _LEAD] = lead + ord("0")
    row_words = rows.view(_U)
    row_words[:, 1:5] = _WORDS.take(words)
    row_words[:, _EXP // 8] = _EXPONENTS.take(e)
    rows[:, _SEP] = sep
    kind = _KIND_OF.take(e)
    if not finite.all():
        for name, where in ((b"nan", np.isnan(x)), (b"inf", np.isinf(x))):
            rows[where, _LEAD : _LEAD + 6 : 2] = np.frombuffer(name, np.uint8)
            kind[where] = _KINDS.index(name.decode())
    sign = (bits >> _U(63)).astype(np.intp)
    tokens = _MASKS.take((sign * len(_KINDS) + kind) * _DIGITS + n - 1, axis=0)
    tokens &= row_words
    return tokens.tobytes().translate(None, b"\0")


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
    rows = np.empty((min(flat.size, _CHUNK), _WIDTH), dtype=np.uint8)
    rows[:] = _ROW
    for i in range(0, flat.size, _CHUNK):
        yield _tokens(flat[i : i + _CHUNK], sep[i : i + _CHUNK], rows)


def float_rows(X) -> str:
    """Rows of the real 2-d float64 array X as text: each value `repr(float(v))`
    (-0.0, nan, inf, 5e-324 and 1e+16 included), values joined by ',' within
    a row and rows by '\\n'.  The join of `float_chunks(X)`."""
    return b"".join(float_chunks(X)).decode("ascii")
