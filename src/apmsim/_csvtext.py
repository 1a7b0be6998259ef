"""The CSV text of simulate and sweep, built in numpy a block of rows at a
time.

A row is its cell's head text, "%.6f," of each float column, the text of
the last column (the length-ratio flag), its cell's tail text and a
newline; simulate's one cell has an empty head and tail. csv_text hands
the text out in blocks of BLOCK_ROWS rows, so neither a Python value per
number nor the whole text is ever held.

Every float's text is the one CPython's correctly rounded "%.6f," gives
(Gay 1990). It is built right-aligned in a 16-byte slot, two little-endian
int64 words: byte 0 the sign or a pad "0", bytes 1-7 seven integer
digits, byte 8 ".", bytes 9-14 six decimals and byte 15 ",". With
p = |x|*1e6 and n = rint(p), n is |x|*10**6 correctly rounded unless p is
itself a half integer: below 2**52 every half integer is a float, so none
lies strictly between p and the exact product, of which p is the nearest
float. The digits of n are gathered three at a time from tables of
0..999. A float whose p is a half integer, or whose n needs more than
seven integer digits (NaN and infinities too), takes "%.6f," % x itself,
and the slots of its block widen to fit that text.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Rows per block: 512 ran fastest of 256-4096, and a block's buffers take
# about 2 KB a row.
BLOCK_ROWS = 512
# The slot words are read back as bytes, so they are little-endian on every
# machine. Every byte of a word is below 0x80, so a word is a non-negative
# int64, and fields in disjoint bytes add without a carry.
_WORD = np.dtype("<i8")
_ONES = 0x0101010101010101
# Per code 2*digits + sign (digits less one, sign 1 when negative): what to
# subtract to turn the pad "0" before the digits into "-", and the mask of
# the bytes of the first word that the text keeps.
_CODES = [divmod(code, 2) for code in range(14)]
_SIGN = np.array([(ord("0") - ord("-")) << 8 * (6 - d) if neg else 0 for d, neg in _CODES], _WORD)
_KEEP = np.array([(_ONES << 8 * (7 - d - neg)) % 2**64 for d, neg in _CODES], _WORD)


def _tables() -> tuple[np.ndarray, np.ndarray]:
    # Built for each CSV text, in about 0.07 ms, and dropped after it: held
    # for the life of the process, their 64 KB would raise the peak RSS of
    # every later run. They use only the int64 arithmetic that writing
    # runs, since each new numpy loop maps in more of its code.
    hundreds, tens, ones = np.indices((10, 10, 10)).reshape(3, 1000)
    # The ASCII digits of 0..999 in three bytes, the first in the lowest.
    triple = 0x303030 + hundreds + tens * 256 + ones * 256**2
    # Rows a..e for n = a*10**12 + b*10**9 + c*10**6 + d*10**3 + e: each
    # group's digits moved to their bytes of a slot word; a < 10 fills
    # bytes 0-1 with "0" and its one digit.
    group_bytes = np.stack(
        [
            0x3030 + ones * 256,
            triple * 256**2,
            triple * 256**5,
            ord(".") + triple * 256,
            triple * 256**4 + ord(",") * 256**7,
        ]
    ).astype(_WORD, copy=False)
    # Rows a..c: the integer digits, less one, that the group's value
    # implies; a float has the largest of its three.
    length = np.repeat([1, 2, 3], [10, 90, 900])
    group_digits = np.stack([np.full(1000, 6), length + 2, length - 1])
    group_digits[:2, 0] = 0
    return group_bytes, group_digits


def _float_slots(x: np.ndarray, tables: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The "%.6f," text of each float of a 2-d block, right-aligned in equal
    slots: the slot bytes, of shape (*x.shape, width), and the mask of the
    bytes that hold the text. tables are those of _tables()."""
    # fmin sends NaN, infinities and every |x| of more than seven integer
    # digits to 1e8, which fails n < 1e13, without a float overflow.
    p = np.fmin(np.abs(x), 1e8)
    p *= 1e6
    n = np.rint(p)
    p -= n
    own = np.abs(p, out=p) == 0.5
    own |= n >= 1e13
    # Cells that take CPython's text still need digits in the tables' range.
    n[own] = 0.0
    n = n.astype(np.intp)
    group_bytes, group_digits = tables
    groups = []
    for _ in range(4):
        # n // 1000: n / 1000 is correctly rounded, and below 2**53 it stays
        # under the next integer, so truncation gives the quotient; numpy's
        # integer division would map in code that nothing else runs.
        q = (n / 1000).astype(np.intp)
        groups.append(n - q * 1000)
        n = q
    a, (e, d, c, b) = n, groups
    words = np.empty((*x.shape, 2), _WORD)
    first = group_bytes[0][a]
    first += group_bytes[1][b]
    first += group_bytes[2][c]
    np.add(group_bytes[3][d], group_bytes[4][e], out=words[..., 1])
    code = group_digits[0][a]
    np.maximum(code, group_digits[1][b], out=code)
    np.maximum(code, group_digits[2][c], out=code)
    code <<= 1
    code += np.signbit(x)
    np.subtract(first, _SIGN[code], out=words[..., 0])
    keep = np.empty_like(words)
    keep[..., 0] = _KEEP[code]
    keep[..., 1] = _ONES
    slots, keep = words.view(np.uint8), keep.view(bool)
    if np.count_nonzero(own):
        texts, marks = _text_slots(["%.6f," % v for v in x[own].tolist()], slots.shape[-1])
        wide = np.zeros((*x.shape, texts.shape[1]), np.uint8)
        wide_keep = np.zeros(wide.shape, bool)
        wide[..., -slots.shape[-1]:], wide_keep[..., -slots.shape[-1]:] = slots, keep
        wide[own], wide_keep[own] = texts, marks
        slots, keep = wide, wide_keep
    return slots, keep


def _text_slots(texts: list[str], width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    # The UTF-8 bytes of each text right-aligned in a row as wide as the
    # widest text, and at least width, and the mask of the text's bytes.
    data = [text.encode("utf-8") for text in texts]
    width = max([width, *map(len, data)])
    table = np.zeros((len(data), width), np.uint8)
    keep = np.zeros(table.shape, bool)
    for row, text in enumerate(data):
        table[row, width - len(text):] = np.frombuffer(text, np.uint8)
        keep[row, width - len(text):] = True
    return table, keep


def csv_text(names: tuple[str, ...], cells: list[tuple[str, list[np.ndarray], str]]) -> Iterator[str]:
    """The CSV text of the cells under a header of names, in pieces: the
    header line, then blocks of up to BLOCK_ROWS rows. A cell is (head,
    columns, tail): float64 columns, then a last column of texts, all of
    one length."""
    yield ",".join(names) + "\n"
    heads, cell_columns, tails = zip(*cells)
    # One cell's columns are read as they are; more are joined first.
    joined = cell_columns[0]
    if len(cells) > 1:
        joined = [np.concatenate(column) for column in zip(*cell_columns)]
    *floats, labels = joined
    # A row's text after its numbers is its label and its cell's tail: one
    # entry per cell and distinct label.
    labels = labels.tolist()
    kinds = {label: i for i, label in enumerate(dict.fromkeys(labels))}
    cell = np.repeat(np.arange(len(cells)), [len(columns[0]) for columns in cell_columns])
    end = np.fromiter(map(kinds.__getitem__, labels), np.intp, len(labels))
    end += cell * len(kinds)
    del labels
    heads, head_keep = _text_slots(list(heads))
    ends, end_keep = _text_slots([label + tail + "\n" for tail in tails for label in kinds])
    tables = _tables()
    for start in range(0, len(cell), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        slots, keep = _float_slots(np.stack([column[rows] for column in floats], axis=1), tables)
        count = len(slots)
        text = np.concatenate([heads[cell[rows]], slots.reshape(count, -1), ends[end[rows]]], axis=1)
        mask = np.concatenate([head_keep[cell[rows]], keep.reshape(count, -1), end_keep[end[rows]]], axis=1)
        yield text[mask].tobytes().decode("utf-8")
