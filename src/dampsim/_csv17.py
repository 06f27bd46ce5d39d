"""CSV rows of a float64 table in "%.17g", formatted exactly with numpy.

format_rows(table) returns the same text, in blocks of rows, as

    "".join(",".join("%.17g" % v for v in row) + "\\n"
            for row in table.tolist())

CPython's correctly rounded "%.17g" costs about 0.7 us a float, which made
cli._trajectory_csv the slowest layer of an evolve run. Seventeen correctly
rounded digits need only 128-bit integer arithmetic (Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019), which numpy can do for a
whole block of cells at once:

- |x| = M 2^e with the integer M < 2^53 (from the float's bits),
  E = floor(log10 |x|), and N = round_half_even(M 5^k 2^(e+k)) with
  k = 16 - E holds the 17 digits. On the exact range, 1e-10 <= |x| < 1e15,
  k <= 27, so 5^k is a uint64, and the shift s = -(e+k) is 1 to 63. The
  product is held in two uint64 words built from 32-bit limbs.
- log10 can be one off next to a power of ten; then the unrounded
  quotient falls outside [10^16, 10^17), and E moves by one. A quotient of
  10^17 - 1 is refused too, so that none rounds up to 10^17: that would
  take a double within 5e-18 below a power of ten, and the doubles next
  to 10^-9 ... 10^15 are all farther away.
- The text follows %g: E in [0, 16] is fixed point (here E <= 15), E in
  [-4, -1] is 0.000ddd, and E < -4 is d.ddde-XX; trailing zeros and a bare
  dot go, and the sign is the sign bit, so -0.0 reads -0.

A block of rows with any cell off that range (|x| < 1e-10 but not 0,
|x| >= 1e15, inf, nan) is formatted by "%" as before, so no table is slower
than with "%" alone; hbar 1e300 or 1e-300 puts every covariance there.
"""

from __future__ import annotations

import numpy as np

#: Rows formatted at once, so that a block's temporaries stay in cache.
_BLOCK_ROWS = 512

#: The exact path's range of |x|, zero apart.
_LOW, _HIGH = 1e-10, 1e15

#: The unrounded quotients taken, q - 10^16 below this: [10^16, 10^17 - 1).
_SPAN = 9 * 10 ** 16 - 1

#: The decimal exponents E a cell can reach, and its significant digits.
_EMIN, _EMAX = -11, 15
_DIGITS = 17

#: 5^k, k = 16 - E, for each row E - _EMIN, as 32-bit limbs: 5^27 < 2^63.
_POW5 = np.array([5 ** (16 - exponent)
                  for exponent in range(_EMIN, _EMAX + 1)], np.uint64)
_POW5_LO, _POW5_HI = _POW5 & 0xFFFFFFFF, _POW5 >> 32

# A cell's text is laid out in a 32-byte frame, four uint64 words, whose
# unused bytes are NUL and are dropped at the end: the sign (byte 0), the
# "0." and zeros of 0.000ddd (bytes 1-5), the digits with the dot between
# them (bytes 8-25), "e-XX" (bytes 26-29) and the separator (byte 30).
# Digits before the dot are the digits placed at byte 8, those after it
# (and all those of 0.000ddd) the digits placed at byte 9, so the 16
# digit bytes move in whole words.
_SEP_AT = 30


def _frame(exponent: int, kept: int) -> bytes:
    """The frame of a cell with decimal exponent E and `kept` digits, as
    %g lays it out: bytes 8-23 of the mask that selects the digits placed
    at byte 8, bytes 8-31 of the mask for the digits placed at byte 9,
    then the 32 constant bytes, which hold the ASCII zero of each selected
    digit."""
    prefix = suffix = b""
    dot = b"."
    if exponent >= 0:
        whole = exponent + 1
    elif exponent >= -4:
        whole, prefix, dot = 0, b"0." + b"0" * (-exponent - 1), b"\0"
    else:
        whole, suffix = 1, b"e-%02d" % -exponent
    after = max(kept - whole, 0)
    digits = b"0" * whole + (dot + b"0" * after if after else b"")
    return (b"\xff" * whole + bytes(16 - whole)
            + bytes(whole + 1) + b"\xff" * after + bytes(23 - whole - after)
            + b"\0" + prefix.ljust(7, b"\0") + digits.ljust(18, b"\0")
            + suffix.ljust(6, b"\0"))


#: The float64 exponent bias, less 64 bits for the second digit word:
#: (biased exponent of a digit word - this) >> 3 is the index of its last
#: nonzero digit among the 16, or below -100 if it has none.
_WORD_BIAS = np.array([[1023], [1023 - 64]])

#: Column (E - _EMIN) * 17 + kept - 1: the nine words of _frame. The
#: last column, _ZERO, is 0's: a constant "0" at byte 8.
_FRAMES = np.frombuffer(b"".join(
    [_frame(exponent, kept) for exponent in range(_EMIN, _EMAX + 1)
     for kept in range(1, _DIGITS + 1)]
    + [bytes(48) + b"0" + bytes(23)]), np.uint64).reshape(-1, 9).T.copy()
_ZERO = _FRAMES.shape[1] - 1


def _quotient(mantissa, biased, row):
    """floor(M 5^k / 2^s) and the s bits it drops, left-aligned in a
    uint64, for |x| = M 2^e with e = biased - 1075 and row = E - _EMIN;
    None if a table index or a shift is out of bounds."""
    s = row - biased
    s += 1048  # s = -(k + e) = E + 1059 - biased
    if (row.min() < 0 or row.max() > _EMAX - _EMIN or s.min() < 1
            or s.max() > 63):
        return None
    s = s.astype(np.uint64)
    ml, mh = mantissa & 0xFFFFFFFF, mantissa >> 32
    pl, ph = _POW5_LO.take(row), _POW5_HI.take(row)
    lo = ml * pl
    mid = mh * pl
    mid += ml * ph  # mh < 2^21 and ph < 2^31: no carry out
    hi = mh * ph
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid
    r = 64 - s
    hi <<= r
    hi |= lo >> s
    lo <<= r
    return hi, lo


def _digit_words(halves):
    """The digits of each (2, n) uint32 half below 10^8 as (2, n) uint64
    words, one digit a byte and the first lowest: Lemire's SWAR conversion
    on two 4-digit groups of two 2-digit lanes."""
    groups = np.empty(halves.shape + (2,), np.uint32)
    top = halves // 10000
    groups[..., 0] = top
    groups[..., 1] = halves - top * 10000
    top = (groups * 5243) >> 19  # // 100 below 43699
    groups -= top * 100
    groups <<= 16
    groups |= top
    top = (groups * 103) >> 10  # // 10 below 179, lane by lane
    top &= 0x000F000F
    groups -= top * 10
    groups <<= 8
    groups |= top
    return groups.reshape(len(halves), -1).view(np.uint64)


def _block_text(x: np.ndarray, separators: np.ndarray) -> str | None:
    """The CSV text of the flat cells x of whole rows, or None if a cell is
    off the exact range. separators holds each cell's separator as word 3
    of its frame, for at least x.size cells."""
    n = x.size
    a = np.abs(x)
    zero = a == 0
    if not (((a >= _LOW) & (a < _HIGH)) | zero).all():
        return None
    np.maximum(a, _LOW, out=a)  # a zero's text is the _ZERO frame
    bits = a.view(np.uint64)
    mantissa = bits & (2 ** 52 - 1)
    mantissa |= 2 ** 52
    biased = (bits >> 52).view(np.int64)
    row = np.log10(a)
    row -= _EMIN  # > 0 on the exact range, so the cast is the floor
    row = row.astype(np.int64)
    for _ in range(2):  # log10 is at most one off, next to a power of ten
        result = _quotient(mantissa, biased, row)
        if result is None:
            return None
        q, rest = result
        if not (q - 10 ** 16 >= _SPAN).any():
            break
        row += q >= 10 ** 17
        row -= q < 10 ** 16
    else:
        return None
    q += rest > 2 ** 63 - (q & 1)  # round half to even

    tens = q // 10
    last = q - tens * 10
    high = tens // 10 ** 8
    first, second = digits = _digit_words(
        np.array([high, tens - high * 10 ** 8], np.uint32))
    # The index of the last nonzero digit is the number kept less one. A
    # digit word's float exponent gives its highest nonzero byte: its
    # bytes are at most 9, so it rounds below the next power of two.
    top = digits.view(np.int64).astype(np.float64).view(np.int64) >> 52
    top -= _WORD_BIAS
    top >>= 3
    plan = np.maximum(top[0], top[1])
    np.maximum(plan, (last != 0) * (_DIGITS - 1), out=plan)
    row *= _DIGITS
    plan += row
    plan = np.where(zero, _ZERO, plan)
    a1, a2, b1, b2, b3, c0, c1, c2, c3 = _FRAMES.take(plan, axis=1)
    words = np.empty((n, 4), np.uint64)
    # in place: the frame rows and the digit words are this block's own
    sign = (x.view(np.int64) >> 63).view(np.uint64)  # all ones if negative
    sign &= ord("-")
    np.bitwise_or(c0, sign, out=words[:, 0])
    b1 &= first << 8
    a1 &= first
    a1 |= b1
    np.bitwise_or(a1, c1, out=words[:, 1])
    first >>= 56
    first |= second << 8
    b2 &= first
    a2 &= second
    a2 |= b2
    np.bitwise_or(a2, c2, out=words[:, 2])
    second >>= 56
    second |= last << 8
    b3 &= second
    b3 |= c3
    np.bitwise_or(b3, separators[:n], out=words[:, 3])
    return words.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(table: np.ndarray) -> list[str]:
    """The "%.17g" CSV lines of a 2-D float64 table, each ending in a
    newline, as the texts of its blocks of _BLOCK_ROWS rows."""
    rows, cols = table.shape
    fmt = ",".join(["%.17g"] * cols) + "\n"
    separators = np.array([ord(",")] * (cols - 1) + [ord("\n")], np.uint64)
    separators = np.tile(separators << (8 * (_SEP_AT - 24)),
                         min(rows, _BLOCK_ROWS))
    blocks = [table[start:start + _BLOCK_ROWS]
              for start in range(0, rows, _BLOCK_ROWS)]
    # a block's text is never empty, so None alone falls back to "%"
    return [_block_text(block.reshape(-1), separators)
            or "".join([fmt % row for row in map(tuple, block.tolist())])
            for block in blocks]
