"""The JSON state objects of simulate and sweep, built in numpy a block of
rows at a time.

A row is one state object and the text after it. Its keys' texts are
constants but for the one around the length-ratio flag's value, which is
one text per distinct flag; each float's text fills a slot after its key,
the text _floattext gives it. state_text hands the text out in blocks of
BLOCK_ROWS rows, so neither a Python value per number, nor the whole text,
nor an index over every row is ever held. A block's bytes are compacted
with one mask, and the end of each cell's array is a NUL there, which the
text between cells replaces.
"""

from __future__ import annotations

import functools
from codecs import ascii_decode
from collections.abc import Iterator
from itertools import accumulate
from json.encoder import encode_basestring_ascii

import numpy as np

from ._csvtext import _blocks
from ._floattext import _SLOT, _float_slots, _text_slots

# Rows per block: 96 wrote design_study's 288-row operations fastest of
# 48-144 rows. A block's buffers, each under glibc's 128 KB threshold for
# mapping an allocation's pages afresh, come from the heap, which keeps
# the pages of its largest block: 128 rows raised the peak RSS of every
# benchmark workload, whose gate writes JSON, by 0.1-0.3 MB.
BLOCK_ROWS = 96


def _runs(starts: list[int], width: int) -> list[tuple[int, int, int, int]]:
    # The starts split into runs of equal steps: (first index, first start,
    # step, length) each, the step of a one-start run being width.
    runs: list[list[int]] = []
    for i, at in enumerate(starts):
        run = runs[-1] if runs else None
        if run and (run[3] == 1 or at - run[1] == run[2] * run[3]):
            run[2] = at - run[1] if run[3] == 1 else run[2]
            run[3] += 1
        else:
            runs.append([i, at, width, 1])
    return [tuple(run) for run in runs]


# One layout per indent and set of a block's labels: the three flags make
# seven sets for each of the two indents.
@functools.lru_cache(maxsize=16)
def _row_layout(keys: tuple[str, ...], label_key: str, labels: tuple[str, ...], indent: int):
    """A row's bytes and their mask, before its values are written: each
    part of the object's text right-aligned, those before a float but the
    label's all as wide, and a float's slot after each of those; the runs
    of slots (_runs); and the label's part and the object's end, a comma
    or the end of its array, as (start, table, mask) with a row per label
    and per end."""
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
    segments.append([f",\n{' ' * indent}", "\0"])
    floats = len(keys) - 1
    width = max((len(part[0]) for i, part in enumerate(segments[:floats]) if i != labelled), default=0)
    row_text, row_keep, varying, slot_at = [], [], [], []
    for i, segment in enumerate(segments):
        if i in (labelled, len(segments) - 1):
            table, keep = _text_slots(segment)
            table.flags.writeable = keep.flags.writeable = False
            varying.append((sum(map(len, row_text)), table, keep))
            row_text.append(table[0].tobytes())
            row_keep.append(keep[0].tobytes())
        else:
            text = segment[0].encode()
            fill = width - len(text) if i < floats else 0
            row_text.append(bytes(fill) + text)
            row_keep.append(bytes(fill) + b"\1" * len(text))
        if i < floats:
            slot_at.append(sum(map(len, row_text)))
            row_text.append(bytes(_SLOT))
            row_keep.append(bytes(_SLOT))
    row_text = np.frombuffer(b"".join(row_text), np.uint8)
    row_keep = np.frombuffer(b"".join(row_keep), bool)
    return row_text, row_keep, _runs(slot_at, _SLOT), varying


def state_text(names: tuple[str, ...], pieces: list[str], cells: list[list[np.ndarray]], indent: int) -> Iterator[str]:
    """pieces[0], the JSON array of cells[0]'s state objects, pieces[1], and
    so on to the array of the last cell and the last piece, as
    json.dumps(..., indent=2, sort_keys=True) writes them with the objects
    at indent spaces, in pieces: the text before the first state, then
    blocks of up to BLOCK_ROWS states, the last with the text after them. A
    cell is its columns, keyed by names: float64 columns, then a last column
    of texts, all of one length."""
    counts = [len(columns[0]) for columns in cells]
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
    # What takes the place of the NUL after each array's last object.
    between = [close + text + open_ for text in around[1:-1]] + [close + around[-1]]
    keys = tuple(sorted(names))
    floats = [names.index(key) for key in keys if key != names[-1]]
    # The float columns in key order: one cell's as they are, more joined.
    if len(cells) == 1:
        floats = [cells[0][i] for i in floats]
    else:
        floats = np.concatenate([columns[i] for i in floats for columns in cells]).reshape(len(floats), -1)
    ends = start = 0
    for pieces in _blocks(counts, BLOCK_ROWS):
        labels: list[str] = []
        for cell, first, stop in pieces:
            labels += cells[cell][-1][first:stop].tolist()
        count = len(labels)
        # Sorted, the block's labels share their layouts with other blocks';
        # a block of one label needs no lookup.
        kinds = {label: i for i, label in enumerate(sorted(set(labels)))}
        label_kind = np.zeros(count, np.intp)
        if len(kinds) > 1:
            label_kind = np.fromiter(map(kinds.__getitem__, labels), np.intp, count)
        # Every other object is followed by a comma and the next one's indent.
        end_kind = np.zeros(count, np.intp)
        at = -1
        for cell, first, stop in pieces:
            at += stop - first
            if stop == counts[cell]:
                end_kind[at] = 1
        row_text, row_keep, runs, varying = _row_layout(keys, names[-1], tuple(kinds), indent)
        slots, keep = _float_slots(np.concatenate([column[start:start + count] for column in floats]))
        start += count
        slots = slots.view(np.uint8).reshape(len(floats), count, _SLOT).transpose(1, 0, 2)
        keep = keep.view(bool).reshape(len(floats), count, _SLOT).transpose(1, 0, 2)
        text = np.empty((count, len(row_text)), np.uint8)
        mask = np.empty(text.shape, bool)
        text[:] = row_text
        mask[:] = row_keep
        for first, at, step, length in runs:
            shape, strides = (count, length, _SLOT), (len(row_text), step, 1)
            np.ndarray(shape, np.uint8, text, at, strides)[:] = slots[:, first:first + length]
            np.ndarray(shape, bool, mask, at, strides)[:] = keep[:, first:first + length]
        for (at, table, marks), kind in zip(varying, (label_kind, end_kind)):
            table.take(kind, axis=0, out=text[:, at:at + table.shape[1]])
            marks.take(kind, axis=0, out=mask[:, at:at + table.shape[1]])
        parts = ascii_decode(text[mask])[0].split("\0")
        texts = [""] * (2 * len(parts) - 1)
        texts[::2] = parts
        texts[1::2] = between[ends:ends + len(parts) - 1]
        ends += len(parts) - 1
        # The block's arrays are freed before its texts are handed out, so
        # the next block reuses their heap below the texts instead of growing
        # the heap past them: held, they raised design_study's peak RSS by
        # 0.1 MB and made glibc trim and fault the heap in again.
        del slots, keep, text, mask, parts
        yield from texts

