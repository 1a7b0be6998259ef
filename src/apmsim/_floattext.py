"""json.dumps's text of each float of a float64 array, built in numpy:
float.__repr__'s, with json's spellings of NaN and the infinities.

float.__repr__ gives the shortest text that reads back to the float and,
of those, the nearest (Gay 1990). For 1e-4 <= |x| < 1e16, where repr
writes no exponent, let s = 16 - floor(log10|x|), in [1, 20], so that
10**s is a float and X = |x| * 10**s lies in [1e16, 1e17). floor(log10|x|)
comes from the binary exponent: a binade holds at most one power of ten,
so the decade of its bottom and one comparison with the least float of the
next decade decide it. Dekker's (1971) TwoProduct gives X exactly as
p + lo, with p = fl(|x| * 10**s). X rounded to 17, 16 and 15 significant
digits, D17 = p + rint(lo), D16 and D15, follow from the last two digits of
D17 and the remainder lo - rint(lo), which is exact; so are the distances
of D16 * 10 and D15 * 100 from X, sums of a small integer and that
remainder. Half the gap between x and the floats beside it, times 10**s,
is a float h, and a candidate closer to X than h reads back to x. Numbers
of 15 significant digits lie further apart than the gaps, so at most one
can, and D15 is it if one does; then D16, the nearest of 16 digits; D17
always does. The text is the first that reads back, its trailing zeros
dropped, with the point after 17 - s digits. It never rounds up to
10**17: that would take x to be the float nearest a power of ten and
below it, and none of this range is.

A float takes float.__repr__ itself, with json's spellings of NaN and the
infinities, where that argument does not decide its text: zero, NaN, the
infinities and every |x| outside [1e-4, 1e16), and the chosen candidate
lying half way between two numbers of its digits (X an exact half at that
rounding step). Two cases that could undo the argument do not arise in
this range. No candidate lies exactly h from X, where whether it reads
back would depend on x's last bit: a point half way between two floats of
this range has at least 17 significant digits, or is an odd integer above
2**53 whose nearest candidate is x itself. And a power of two, whose gap
below is half the gap above, is here a decimal of at most 16 digits, so
D15 or D16 is X itself and is chosen: a D15 that is not lies 20 or 40
units away, more than h.

A float's slot is 24 bytes, three little-endian int64 words holding its
text from the first byte. The 17 digits are gathered two at a time from a
table of 0..99, then the words are shifted to make room for the sign and
the point, or for the sign, "0." and the zeros before the digits of a
number below 1. Every fallback text fits in a slot.

The tables are built by the first text, not at import, and every step
runs only numpy loops that the rest of the program runs too: each new
loop maps in more of numpy's code, and so raises every command's peak
memory.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._csvtext import _table

# The slot words are read back as bytes, so they are little-endian on every
# machine. Every byte of a word is below 0x80, so a word is a non-negative
# int64: a shift is a product or quotient by a power of two, and fields in
# disjoint bytes add without a carry.
_WORD = np.dtype("<i8")
_SLOT = 24
# The largest float below 1e16: clamping |x| into [1e-4, _TOP] changes
# every float that repr writes with an exponent, and NaN.
_TOP = 9999999999999998.0
# Dekker's splitter for 53-bit floats: 2**27 + 1.
_SPLIT = 134217729.0
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_floats(values) -> list[str]:
    """json.dumps's text of each float: float.__repr__, with json's
    spellings of NaN and the infinities."""
    texts = list(map(float.__repr__, values))
    return list(map(_NON_FINITE.get, texts, texts))


def _slot_words(text: bytes) -> np.ndarray:
    # The bytes in a slot's three words.
    return np.frombuffer(text.ljust(_SLOT, b"\0"), _WORD)


def _text_slots(texts: list[str], width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    # The texts' _table, and the mask of the bytes that hold them.
    table = _table(texts, width)
    keep = _table(["\1" * len(text.encode("utf-8")) for text in texts], table.shape[1])
    return table, keep.view(bool)


def _at_least(num: int, den: int, k: int) -> bool:
    # num / den >= 10**k, exactly.
    return num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0)


def _binade_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Per b in [0, 67], the binade [2**(b - 14), 2**(b - 13)) of the floats
    # of [1e-4, 1e16): the decade d = floor(log10) + 4 of its bottom; the
    # least float of the decade above, which a float of the binade reaches
    # only if d is one more; and half the gap between its floats.
    decades, above = [], []
    for b in range(68):
        bottom = (2 ** max(b - 14, 0), 2 ** max(14 - b, 0))
        d = max(k for k in range(-5, 17) if _at_least(*bottom, k)) + 4
        least = 10.0 ** (d - 3)
        decades.append(d)
        above.append(least if _at_least(*least.as_integer_ratio(), d - 3) else math.nextafter(least, math.inf))
    return np.array(decades), np.array(above), np.array([2.0 ** (b - 67) for b in range(68)])


def _decade_tables() -> tuple[np.ndarray, np.ndarray]:
    # Per decade d: 10**s, s = 20 - d, and its two Dekker halves. Per code
    # 2 * d + sign, the slot's shape: for each of the first two words, the
    # power of 256 above the bytes of the digits before the point that it
    # holds (2**63 - 1 for all eight, which every word is below); the fixed
    # bytes (the sign, then the point, or "0." and zeros); the factor that
    # moves the other digits up past them and the divisor that takes their
    # carry into the next word; the factor that moves the digits before the
    # point past the sign, and the sign.
    powers, shape = [], []
    for d in range(20):
        power = float(10 ** (20 - d))
        scaled = power * _SPLIT
        high = scaled - (scaled - power)
        powers.append((power, high, power - high))
        whole = max(d - 3, 0)
        head = [min(256**k, 2**63 - 1) for k in (min(whole, 8), max(whole - 8, 0))]
        for sign in (0, 1):
            fixed = b"-" * sign + (b"\0" * whole + b"." if whole else b"0." + b"0" * (3 - d))
            shift = 8 * (len(fixed) - whole)
            shape.append([*head, *_slot_words(fixed), 2**shift, 2 ** (64 - shift), 256**sign, sign])
    return np.array(powers), np.array(shape, _WORD)


def _kept_table() -> np.ndarray:
    # Per 18 * (2 * d + sign) + last, last being the number of the last
    # nonzero digit: the mask of the text's bytes, with at least one digit
    # after the point.
    kept = []
    for d in range(20):
        whole = d - 3
        for sign in (0, 1):
            for last in range(18):
                length = sign + (whole + 1 + max(last - whole, 1) if whole > 0 else 2 - whole + last)
                kept.append((b"\1" * length).ljust(_SLOT, b"\0"))
    return np.frombuffer(b"".join(kept), _WORD).reshape(-1, 3)


class _Tables(NamedTuple):
    decade: np.ndarray
    above: np.ndarray
    half_gap: np.ndarray
    powers: np.ndarray
    shape: np.ndarray
    kept: np.ndarray
    # For i in 0..99: the ASCII bytes of its two digits, the first in the
    # lower, and the place of its last nonzero digit, 1 or 2, or -20 for 0.
    pair_bytes: np.ndarray
    pair_last: np.ndarray
    # The last digit of each of 0..99.
    units: np.ndarray


@functools.cache
def _tables() -> _Tables:
    # Built by the first JSON text, not at import, 24 KB; each is read only.
    pairs = [divmod(i, 10) for i in range(100)]
    tables = _Tables(
        *_binade_tables(),
        *_decade_tables(),
        _kept_table(),
        np.array([0x3030 + tens + ones * 256 for tens, ones in pairs]),
        np.array([2 if ones else 1 if tens else -20 for tens, ones in pairs]),
        np.tile(np.arange(10.0), 10),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


# The offset of each pair of N's digits: plus the place of the pair's last
# nonzero digit, that digit's number.
_OFFSETS = np.arange(0, 17, 2).reshape(9, 1)
# Per pair of a word, the factor that moves its bytes to their place.
_PAIR_PLACES = np.array([[1], [2**16], [2**32], [2**48]] * 2)


def _shortest(c: np.ndarray, tables: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For floats c in [1e-4, _TOP]: the decade d = floor(log10 c) + 4, the
    digits of the text scaled to 17 significant digits as an int64 N, and
    where N is undecided."""
    # The decade d from c's binary exponent, and 10**s.
    b = c.view(np.int64) // 2**52
    b -= 1009
    d = tables.decade.take(b)
    d += c >= tables.above.take(b)
    power, high, low = tables.powers.take(d, axis=0).T
    # TwoProduct: X = c * power = p + lo exactly.
    p = c * power
    t = c * _SPLIT
    c_high = t - (t - c)
    c_low = c - c_high
    lo = c_high * high
    lo -= p
    c_high *= low
    lo += c_high
    lo += c_low * high
    c_low *= low
    lo += c_low
    # h: half the gap between c's neighbours, times 10**s.
    h = tables.half_gap.take(b)
    h *= power
    r = np.rint(lo)
    f = lo - r
    n = p.astype(np.int64)
    # X less D15 * 100 and less D16 * 10: D17's last digits and the
    # remainder, less the step where the rounding goes up.
    m = n + r.astype(np.int64)
    m -= m // 100 * 100
    f15 = m + f
    f15 -= (f15 > 50.0) * 100.0
    f16 = tables.units.take(m)
    f16 += f
    f16 -= (f16 > 5.0) * 10.0
    a15 = np.abs(f15)
    a16 = np.abs(f16)
    chosen = np.where(a15 < h, f15, np.where(a16 < h, f16, f))
    # Undecided: the chosen candidate half way between two numbers of its
    # digits (or, rarely, just half a unit or five units from X).
    np.abs(chosen, out=a15)
    undecided = a15 == 5.0
    undecided |= a15 == 0.5
    # N = X less the chosen remainder.
    lo -= chosen
    n += lo.astype(np.int64)
    return d, n, undecided


def _float_slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float.__repr__ text of each float of a 1-d array, as json writes
    it: the slot words, of shape (len(x), 3), and the words of the mask of
    the bytes that hold the text."""
    a = np.abs(x)
    c = np.maximum(a, 1e-4)
    np.fmin(c, _TOP, out=c)
    own = c != a
    tables = _tables()
    d, n, undecided = _shortest(c, tables)
    own |= undecided
    # N's digits 1-2, 3-4, ..., 15-16 and, times 10, its 17th: nine pairs
    # of digits. A division by a constant is much faster than by an array
    # of them.
    pairs = np.empty((9, len(x)), np.int64)
    for pair, power in zip(pairs, [10**k for k in range(15, 0, -2)]):
        np.floor_divide(n, power, out=pair)
    np.subtract(n, pairs[7] * 10, out=pairs[8])
    pairs[8] *= 10
    pairs[1:8] -= pairs[:7] * 100
    places = tables.pair_last.take(pairs)
    places += _OFFSETS
    last = places.max(axis=0)
    # The bytes of digits 1-8 and 9-16, each in a word, and of the 17th.
    pairs = tables.pair_bytes.take(pairs)
    pairs[:8] *= _PAIR_PLACES
    digits = pairs[0:8:4] + pairs[1:8:4]
    digits += pairs[2:8:4]
    digits += pairs[3:8:4]
    # The digits' words; the digits before the point move up past the
    # sign, the others past the sign and the point, or all of them, below 1,
    # past the sign, "0." and zeros.
    d += d
    d += np.signbit(x)
    shape = tables.shape.take(d, axis=0)
    up, down, lead, sign = shape[:, 5], shape[:, 6], shape[:, 7], shape[:, 8]
    slots = np.empty((len(x), 3), _WORD)
    carry = 0
    for word in (0, 1):
        # The word's eight digits, split at the power of 256 above those
        # before the point.
        whole = digits[word]
        other = whole // shape[:, word]
        other *= shape[:, word]
        whole -= other
        # The digits before the point moved past the sign, the carries from
        # the word below, the other digits moved up and the fixed bytes.
        out = slots[:, word]
        np.multiply(whole, lead, out=out)
        out += carry
        out += other * up
        out += shape[:, 2 + word]
        whole //= 2**56
        whole *= sign
        other //= down
        carry = whole + other
    np.multiply(pairs[8], up, out=slots[:, 2])
    slots[:, 2] += carry
    slots[:, 2] += shape[:, 4]
    d *= 18
    d += last
    keep = tables.kept.take(d, axis=0)
    if np.count_nonzero(own):
        texts, marks = _text_slots(json_floats(x[own].tolist()), _SLOT)
        slots[own] = texts.view(_WORD)
        keep[own] = marks.view(np.uint8).view(_WORD)
    return slots, keep
