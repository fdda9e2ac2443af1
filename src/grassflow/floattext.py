"""``"%.17g" % value`` for float64 arrays, by whole-array arithmetic.

x in decade e, 10**e <= |x| < 10**(e + 1), has as its 17 digits D the
integer nearest |x| * 10**(16 - e), ties to even.  That product is taken
as a double-double: 10**k is a pair hi + lo good to 106 bits, and
Dekker's two-product (Numer. Math. 18, 1971) gives |x| * hi exactly.  Its
error is under 4e-15 of a unit of D, so D is exact unless the fraction
lies within TIE_MARGIN, some 250 times that, of 1/2.  The text is
C's %g at precision 17: fixed notation for -4 <= X < 17, X the decade of
the rounded value, else d.ddde+XX, with trailing zeros and a bare point
dropped.  Each value's text is spelled in four uint64 words among NUL
bytes, which the caller deletes.  grid_pattern finds a column broadcast
over a row-major grid, so that its caller can format the pattern once.
"""

import functools
import math

import numpy as np

# the decades the arithmetic covers: beyond them Veltkamp's split of |x|
# overflows or lo is subnormal
DECADES = (-290, 299)
TIE_MARGIN = 1e-12
# values per block: a block's arrays take 64 KB a word
BLOCK = 8192
_U64 = np.uint64
# a slot's words are stored little-endian, so that its bytes read in order
_SLOT = "<u8"


def _word(text: str) -> int:
    """``text``, at most 8 bytes, as a little-endian word."""
    return int.from_bytes(text.encode(), "little")


@functools.cache
def _tables() -> dict:
    """The powers of ten and the text tables, built from Python integers on
    the first call rather than at import, which every CLI call pays."""
    lo_e, hi_e = DECADES
    pows = []
    for e in range(lo_e - 1, hi_e + 2):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        n, d = hi.as_integer_ratio()
        # hi, what its rounding left of 10**k, and Veltkamp's split of hi
        # into two 26-bit halves
        m, ex = math.frexp(hi)
        m1 = m * 134217729.0 - (m * 134217729.0 - m)
        pows.append((hi, (num * d - n * den) / (den * d),
                     math.ldexp(m1, ex), math.ldexp(m - m1, ex)))
    # a group of four digits, and its digits through its last nonzero one,
    # by whole-array arithmetic: 10 000 Python objects held 0.6 MB more of
    # a run's peak memory
    g = np.arange(10000)
    last = 4 - sum(g % 10 ** j == 0 for j in (1, 2, 3))
    # per exponent X: the point's byte in the digits (17, past them, for
    # none), the digits kept if zero, "0.000" and the exponent
    xs = range(lo_e - 1, hi_e + 3)
    point = np.array([x + 1 if 0 <= x < 17 else 17 if -4 <= x < 0 else 1
                      for x in xs])
    # the bytes below n of a 24-byte string, n = 0 to 18, as three masks
    keep = np.array([[(1 << 8 * min(max(n - 8 * k, 0), 8)) - 1
                      for k in range(3)] for n in range(19)], dtype=_U64)
    below, through = keep[point].T, keep[point + 1].T
    return {
        "pows": np.array(pows).T.copy(), "keep": keep,
        # four digits, the first in the low byte
        "quads": sum((48 + g // 10 ** (3 - j) % 10) << 8 * j
                     for j in range(4)).astype(_U64),
        # the digits of D through group k's last nonzero one, 0 for none
        "upto": np.array([(4 * k + 1 + last) * (g > 0) for k in range(4)],
                         dtype=np.int8),
        "point": point.astype(np.int8),
        "least": np.array([x + 1 if 0 <= x < 17 else 1 for x in xs],
                          dtype=np.int8),
        "below": below.copy(), "above": ~through,
        "dot": through & ~below & _U64(_word("." * 8)),
        "prefix": np.array([_word("0." + "0" * (-x - 1)) if -4 <= x < 0
                            else 0 for x in xs], dtype=_U64),
        "exponent": np.array([0 if -4 <= x < 17 else _word("e%+03d" % x)
                              for x in xs], dtype=_U64),
    }


def _scaled(a, index, pows):
    """a * 10**k as ph + s, with ph the double nearest it and s the rest to
    4e-15, for the k of column ``index`` of ``pows``."""
    hi, lo, h1, h2 = (row.take(index) for row in pows)
    c = a * 134217729.0
    a1 = c - (c - a)
    a2 = a - a1
    ph = a * hi
    return ph, (((a1 * h1 - ph) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo


def _digits(values):
    """For each value: D, the row of its exponent X in the text tables, and
    whether D is exact.  Zero reads D = 0 and X = 0."""
    t = _tables()
    lo_e, hi_e = DECADES
    a = np.abs(values)
    fast = (a >= 10.0 ** lo_e) & (a < 10.0 ** (hi_e + 1))
    zero = a == 0
    a[~fast] = 1.0
    # the tables' row of the decade e
    row = np.floor(np.log10(a)).astype(np.intp) - (lo_e - 1)
    ph, s = _scaled(a, row, t["pows"])
    # the decade is checked on ph + s: ph alone rounds onto 1e16 or 1e17
    # for 9.9999999999999991e-05 and 9.9999999999999989e-191
    high = (ph - 1e17) + s >= 0
    low = (ph - 1e16) + s < 0
    wrong = np.flatnonzero(high | low)
    if len(wrong):
        row[wrong] += high[wrong].astype(np.intp) - low[wrong]
        ph[wrong], s[wrong] = _scaled(a[wrong], row[wrong], t["pows"])
    r = np.rint(s)
    fast &= np.abs(s - r) < 0.5 - TIE_MARGIN
    fast |= zero
    digits = ph.astype(np.int64) + r.astype(np.int64)
    up = digits == 10 ** 17
    digits[up] = 10 ** 16
    digits[zero] = 0
    return digits, row + up, fast


def g17_slots(values):
    """For each value, four uint64 words that spell ``"%.17g" % value`` among
    NUL bytes: word 0 holds the sign and any leading "0.000", words 1 to 3
    the digits with their point, then the exponent.  Byte 31 is left NUL for
    the separator."""
    slots = np.empty((len(values), 4), dtype=_SLOT)
    for start in range(0, len(values), BLOCK):
        _fill(values[start:start + BLOCK], slots[start:start + BLOCK])
    return slots


def _fill(values, slots):
    """g17_slots of one block."""
    t = _tables()
    digits, row, fast = _digits(values)
    # the first digit, then four groups of four
    d0, rest = np.divmod(digits, 10 ** 16)
    hi8, lo8 = np.divmod(rest, 10 ** 8)
    groups = (*np.divmod(hi8, 10 ** 4), *np.divmod(lo8, 10 ** 4))
    del digits, rest, hi8, lo8
    # the significant digits, at least one, and a point if one follows
    count = np.ones(len(values), dtype=np.int8)
    for upto, g in zip(t["upto"], groups):
        np.maximum(count, upto.take(g), out=count)
    count += count > t["point"].take(row)
    keep = t["keep"].take(np.maximum(count, t["least"].take(row)), axis=0)
    del count
    quads = t["quads"]
    hw = quads.take(groups[0]) | (quads.take(groups[1]) << _U64(32))
    lw = quads.take(groups[2]) | (quads.take(groups[3]) << _U64(32))
    del groups
    w = ((d0.astype(_U64) + _U64(ord("0"))) | (hw << _U64(8)),
         (hw >> _U64(56)) | (lw << _U64(8)), lw >> _U64(56))
    del d0, hw, lw
    for k in range(3):
        # the digits a byte up, to open the point's byte
        body = w[k] << _U64(8)
        if k:
            body |= w[k - 1] >> _U64(56)
        body &= t["above"][k].take(row)
        body |= w[k] & t["below"][k].take(row)
        body |= t["dot"][k].take(row)
        body &= keep[:, k]
        slots[:, k + 1] = body
    # "-" before any "0.000"
    sign = np.signbit(values).astype(_U64)
    slots[:, 0] = t["prefix"].take(row) << (sign << _U64(3))
    slots[:, 0] |= sign * _U64(ord("-"))
    slots[:, 3] |= t["exponent"].take(row) << _U64(16)
    slow = np.flatnonzero(~fast)
    if len(slow):
        # besides zero: subnormals, nan, +-inf, values outside DECADES
        # and those within TIE_MARGIN of a tie
        slots[slow] = np.array([b"%.17g" % v for v in values[slow].tolist()],
                               dtype="S32").view(_SLOT).reshape(-1, 4)


def grid_pattern(bits):
    """(run, pattern) for a column of float64 bit patterns whose row i holds
    pattern[i // run % len(pattern)], as a column broadcast over a row-major
    grid does, if the pattern is at most an eighth of the column; else
    None."""
    if len(bits) == 0:
        return None
    run = int(np.argmax(bits != bits[0])) or len(bits)
    heads = bits[::run]
    again = np.flatnonzero(heads[1:] == heads[0])
    period = int(again[0]) + 1 if len(again) else len(heads)
    if 8 * period > len(bits) or len(bits) % (run * period):
        return None
    pattern = heads[:period]
    if not (bits.reshape(-1, period, run) == pattern[:, None]).all():
        return None
    return run, pattern
