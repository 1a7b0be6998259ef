"""Every CSV text: simulate's and sweep's, built in numpy a block of rows
at a time, and validate's report with its Q-Q table.

A row is its cell's head values, "%.6f," of each float column, the text
of the last column (the length-ratio flag), its cell's tail values and a
newline; simulate's one cell has no head or tail values. csv_text hands
the text out in blocks of BLOCK_ROWS rows, so neither a Python value per
number, nor the whole text, nor an index over every row is ever held.

Every float's text is the one CPython's correctly rounded "%.6f," gives
(Gay 1990). It is built right-aligned in a 16-byte slot, two little-endian
int64 words: bytes 0-7 the sign and up to seven integer digits, byte 8 ".",
bytes 9-14 six decimals and byte 15 ",", with NULs before the text. With
p = |x|*1e6 and n = rint(p), n is |x|*10**6 correctly rounded unless p is
itself a half integer: below 2**52 every half integer is a float, so none
lies strictly between p and the exact product, of which p is the nearest
float. The digits of n are gathered three at a time from tables of
0..999. A float whose p is a half integer, or whose n needs more than
seven integer digits (NaN and infinities too), takes "%.6f," % x itself.

A block is one row buffer of bytes: the heads, each float column as wide
as its widest text in the block, and the ends, each text right-aligned
with NULs before it. One boolean index of the bytes that are not NUL
compacts it; no head, label or tail may hold a NUL.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate

import numpy as np

from .validation import quantile_grid

# Rows per block: 512 ran fastest of 256-4096, and a block's buffers take
# about 1.5 KB a row.
BLOCK_ROWS = 512
# The slot words are read back as bytes, so they are little-endian on every
# machine. Every byte of a word is below 0x80, so a word is a non-negative
# int64: a shift is a product or quotient by a power of two, and fields in
# disjoint bytes add without a carry.
_WORD = np.dtype("<i8")
_SLOT = 16
# Per code 2*digits + sign (digits less one, sign 1 when negative): what to
# subtract from the first word to turn each pad "0" before the digits into
# a NUL, or the last of them into "-" when negative.
_CODES = [divmod(code, 2) for code in range(14)]
_ADJ = np.array(
    [sum(0x30 << 8 * i for i in range(7 - d)) - (ord("-") << 8 * (6 - d)) * neg for d, neg in _CODES], _WORD
)


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


def _table(texts: list[str], width: int = 0) -> np.ndarray:
    # The UTF-8 bytes of each text right-aligned, after NULs, in a row as
    # wide as the widest text, and at least width.
    data = [text.encode("utf-8") for text in texts]
    width = max([width, *map(len, data)])
    return np.frombuffer(b"".join(text.rjust(width, b"\0") for text in data), np.uint8).reshape(len(data), width)


def _blocks(counts: list[int], size: int) -> Iterator[list[tuple[int, int, int]]]:
    """The rows of cells of counts rows each, one cell after another, in
    blocks of up to size rows: per block, its pieces of cells as (cell,
    first row, stop row), rows counted over all the cells."""
    block, row, end = [], 0, 0
    for cell, count in enumerate(counts):
        end += count
        while row < end:
            stop = min(end, row - row % size + size)
            block.append((cell, row, stop))
            row = stop
            if not row % size:
                yield block
                block = []
    if block:
        yield block


def _gather(columns: list[np.ndarray], first: int, stop: int, order: Sequence[int]) -> tuple[np.ndarray, list[str]]:
    """Rows first..stop of the float columns, in the given order, as the
    rows of one array, and those rows' labels, from the last column."""
    x = np.concatenate([columns[i][first:stop] for i in order])
    return x.reshape(len(order), -1), columns[-1][first:stop].tolist()


def _rows(cells: list[tuple[str, int, str]], columns: list[np.ndarray], pieces: list[tuple[int, int, int]], tables) -> np.ndarray:
    # The row buffer of one block's pieces of cells, a row range of
    # columns: its CSV rows, with NULs.
    sizes = [stop - first for _, first, stop in pieces]
    x, labels = _gather(columns, pieces[0][1], pieces[-1][2], range(len(columns) - 1))
    # A row's text after its numbers is its label and its cell's tail: one
    # entry per piece and distinct label; a block of one label needs no
    # lookup.
    kinds = {label: i for i, label in enumerate(dict.fromkeys(labels))}
    if any("\0" in label for label in kinds):
        raise ValueError("a CSV label holds a NUL")
    piece = np.repeat(np.arange(len(pieces)), sizes)
    end = piece
    if len(kinds) > 1:
        end = np.fromiter(map(kinds.__getitem__, labels), np.intp, len(labels))
        end += piece * len(kinds)
    heads = _table([cells[cell][0] for cell, _, _ in pieces])
    ends = _table([label + cells[cell][2] + "\n" for cell, _, _ in pieces for label in kinds])

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
    n = n.astype(np.int64)
    groups = []
    for _ in range(4):
        q = n // 1000
        n -= q * 1000
        groups.append(n)
        n = q
    a, (e, d, c, b) = n, groups
    group_bytes, group_digits = tables
    words = np.empty((*x.shape, 2), _WORD)
    first = group_bytes[0].take(a)
    first += group_bytes[1].take(b)
    first += group_bytes[2].take(c)
    np.add(group_bytes[3].take(d), group_bytes[4].take(e), out=words[..., 1])
    code = group_digits[0].take(a)
    np.maximum(code, group_digits[1].take(b), out=code)
    np.maximum(code, group_digits[2].take(c), out=code)
    code <<= 1
    code += np.signbit(x)
    np.subtract(first, _ADJ.take(code), out=words[..., 0])

    # Each column as wide as its widest text: the kernel's, or CPython's.
    widths = ((code.max(axis=1) + 1) // 2 + 9).tolist()
    fallback = []
    if np.count_nonzero(own):
        columns, rows = own.nonzero()
        texts = [("%.6f," % v).encode() for v in x[own].tolist()]
        fallback = list(zip(rows.tolist(), columns.tolist(), texts))
        for _, column, value in fallback:
            widths[column] = max(widths[column], len(value))
    # Column j ends at stops[j + 1], and the first one far enough in for
    # its whole slot; the slots are written from the last to the first, so
    # the NULs of each that fall before its column are overwritten by the
    # columns and heads before it, written later.
    stops = list(accumulate(widths, initial=max(heads.shape[1], _SLOT - widths[0])))
    text = np.empty((len(piece), stops[-1] + ends.shape[1]), np.uint8)
    slots = words.view(f"V{_SLOT}")
    for column in reversed(range(len(widths))):
        start, stop = stops[column:column + 2]
        text[:, stop - _SLOT:stop].view(slots.dtype)[:] = slots[column]
        if stop - start > _SLOT:
            text[:, start:stop - _SLOT] = 0
    heads.take(piece, axis=0, out=text[:, stops[0] - heads.shape[1]:stops[0]])
    ends.take(end, axis=0, out=text[:, stops[-1]:])
    for row, column, value in fallback:
        start, stop = stops[column:column + 2]
        text[row, start:stop] = np.frombuffer(value.rjust(stop - start, b"\0"), np.uint8)
    return text


def _texts(values) -> list[str]:
    # Each value's CSV text: a text as it is, a float as "%.6f".
    return [value if isinstance(value, str) else "%.6f" % value for value in values]


def csv_text(names: tuple[str, ...], columns: list[np.ndarray], cells: list[tuple[tuple, int, tuple]]) -> Iterator[str]:
    """The CSV text of the cells' rows of columns under a header of names,
    in pieces: the header line, then blocks of up to BLOCK_ROWS rows. The
    columns are float64 columns, then a last column of texts, all of one
    length; a cell is (head, count, tail), and its rows are its head
    values, the count rows of the columns after those of the cells before
    it, and its tail values. A head or tail value is a text, written as it
    is, or a float, written as "%.6f". No head, label or tail text may
    hold a NUL (ValueError)."""
    cells = [(",".join([*_texts(head), ""]), count, ",".join(["", *_texts(tail)])) for head, count, tail in cells]
    if any("\0" in head + tail for head, _, tail in cells):
        raise ValueError("a CSV head or tail holds a NUL")
    yield ",".join(names) + "\n"
    tables = _tables()
    for pieces in _blocks([count for _, count, _ in cells], BLOCK_ROWS):
        # The row buffer is held until the next one is built: it sits above
        # the block's freed arrays, so glibc does not trim them away between
        # blocks, and the next block reuses their pages instead of faulting
        # in fresh ones. The cast is text != 0 without a uint8 comparison
        # loop, which nothing else runs: each new numpy loop maps in more of
        # numpy's code.
        text = _rows(cells, columns, pieces, tables)
        yield text[text.astype(bool)].tobytes().decode("utf-8")


def report_csv(numbers: dict[str, float], pairs: list[tuple[float, float]] | None) -> tuple[str, str | None]:
    """validate's CSV report, its numbers' names over their "%.6f" texts,
    and, when there are Q-Q pairs, their table under the header
    p,reference,model: each pair's probability, quantile_grid's, then its
    reference and model quantiles, each "%.6f"."""
    report = ",".join(numbers) + "\n" + ",".join(_texts(numbers.values())) + "\n"
    if pairs is None:
        return report, None
    rows = [",".join(_texts((p, *q))) + "\n" for p, q in zip(quantile_grid(len(pairs)), pairs)]
    return report, "".join(["p,reference,model\n", *rows])
