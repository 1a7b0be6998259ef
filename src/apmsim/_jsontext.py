"""The JSON state objects of simulate and sweep, built in numpy a block of
rows at a time.

A row is one state object and the text after it. Its keys' texts are
constants but for the one around the length-ratio flag's value, which is
one text per distinct flag; each float's text fills a slot after its key,
the text _floattext gives it. state_text hands the text out in blocks of
BLOCK_ROWS rows, so neither a Python value per number, nor the whole text,
nor an index over every row is ever held. A block is one row buffer of
bytes with NULs where no text is, compacted by one boolean index of the
bytes that are not NUL, as _csvtext compacts its rows. The end of each
cell's array is a kept marker, _END, which the text between cells
replaces: no key, escaped label or float text holds a control byte.
"""

from __future__ import annotations

import functools
from codecs import ascii_decode
from collections.abc import Iterator
from itertools import accumulate
from json.encoder import encode_basestring_ascii

import numpy as np

from ._csvtext import _blocks, _gather, _table
from ._floattext import _SLOT, _float_slots

# Rows per block: 96 wrote design_study's 288-row operations fastest of
# 48-144 rows. A block's buffers, each under glibc's 128 KB threshold for
# mapping an allocation's pages afresh, come from the heap, which keeps
# the pages of its largest block: 128 rows raised the peak RSS of every
# benchmark workload, whose gate writes JSON, by 0.1-0.3 MB.
BLOCK_ROWS = 96
# The byte after a cell's last object.
_END = "\1"


# One layout per indent and set of a block's labels: the three flags make
# seven sets for each of the two indents.
@functools.lru_cache(maxsize=16)
def _row_layout(keys: tuple[str, ...], label_key: str, labels: tuple[str, ...], indent: int):
    """A row's bytes before its values are written, NULs where no text is:
    the parts of the object's text, each part before a float followed by
    the float's slot, and the object's end, a comma or _END; the slots'
    starts; and the label's part and the end, as (start, table) with a row
    per label and per end."""
    # The object's text split at its floats' values; the part that holds
    # the label's value is one text per label.
    pad = " " * (indent + 2)
    parts = ("{\n" + ",\n".join(f'{pad}"{key}": \0' for key in keys) + f"\n{' ' * indent}}}").split("\0")
    segments = [[parts[0]]]
    for key, part in zip(keys, parts[1:]):
        if key == label_key:
            segments[-1] = [segments[-1][0] + encode_basestring_ascii(label) + part for label in labels]
            labelled = len(segments) - 1
        else:
            segments.append([part])
    segments.append([f",\n{' ' * indent}", _END])
    row, varying, slot_at = [], [], []
    for i, segment in enumerate(segments):
        if i in (labelled, len(segments) - 1):
            table = _table(segment)
            table.flags.writeable = False
            varying.append((sum(map(len, row)), table))
            row.append(table[0].tobytes())
        else:
            row.append(segment[0].encode())
        if i < len(keys) - 1:
            slot_at.append(sum(map(len, row)))
            row.append(bytes(_SLOT))
    return np.frombuffer(b"".join(row), np.uint8), slot_at, varying


def state_text(names: tuple[str, ...], pieces: list[str], columns: list[np.ndarray], counts: list[int], indent: int) -> Iterator[str]:
    """pieces[0], the JSON array of the first cell's state objects,
    pieces[1], and so on to the array of the last cell and the last piece,
    as json.dumps(..., indent=2, sort_keys=True) writes them with the
    objects at indent spaces, in pieces: the text before the first state,
    then blocks of up to BLOCK_ROWS states, the last with the text after
    them. The states are the rows of columns, keyed by names: float64
    columns, then a last column of texts, all of one length; cell i's are
    the counts[i] rows after those of the cells before it."""
    # The text around each array that has states; an empty one, "[]", is
    # part of it.
    around = [pieces[0]]
    for count, piece in zip(counts, pieces[1:]):
        if count:
            around.append(piece)
        else:
            around[-1] += "[]" + piece
    if len(around) == 1:
        yield around[0]
        return
    open_, close = f"[\n{' ' * indent}", f"\n{' ' * (indent - 2)}]"
    yield around[0] + open_
    # What takes the place of the _END after each array's last object.
    between = [close + text + open_ for text in around[1:-1]] + [close + around[-1]]
    keys = tuple(sorted(names))
    order = [names.index(key) for key in keys if key != names[-1]]
    stops = list(accumulate(counts))
    ends = 0
    for pieces in _blocks(counts, BLOCK_ROWS):
        first = pieces[0][1]
        x, labels = _gather(columns, first, pieces[-1][2], order)
        count = len(labels)
        # Sorted, the block's labels share their layouts with other blocks';
        # a block of one label needs no lookup.
        kinds = {label: i for i, label in enumerate(sorted(set(labels)))}
        label_kind = np.zeros(count, np.intp)
        if len(kinds) > 1:
            label_kind = np.fromiter(map(kinds.__getitem__, labels), np.intp, count)
        # Every other object is followed by a comma and the next one's indent.
        end_kind = np.zeros(count, np.intp)
        for cell, _, stop in pieces:
            if stop == stops[cell]:
                end_kind[stop - first - 1] = 1
        row, slot_at, varying = _row_layout(keys, names[-1], tuple(kinds), indent)
        slots = _float_slots(x.reshape(-1)).view(f"V{_SLOT}").reshape(len(order), count, 1)
        text = np.empty((count, len(row)), np.uint8)
        text[:] = row
        for at, column in zip(slot_at, slots):
            text[:, at:at + _SLOT].view(slots.dtype)[:] = column
        for (at, table), kind in zip(varying, (label_kind, end_kind)):
            table.take(kind, axis=0, out=text[:, at:at + table.shape[1]])
        parts = ascii_decode(text[text.astype(bool)])[0].split(_END)
        texts = [""] * (2 * len(parts) - 1)
        texts[::2] = parts
        texts[1::2] = between[ends:ends + len(parts) - 1]
        ends += len(parts) - 1
        # The block's arrays are freed before its texts are handed out, so
        # the next block reuses their heap below the texts instead of growing
        # the heap past them: held, they raised design_study's peak RSS by
        # 0.1 MB and made glibc trim and fault the heap in again.
        del x, slots, text, parts
        yield from texts
