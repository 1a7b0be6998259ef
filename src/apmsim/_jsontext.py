"""The JSON texts of simulate, sweep and validate, each byte for byte
json.dumps(payload, indent=2, sort_keys=True) plus a newline.

simulate_json, sweep_json and report_json write the payloads from the
texts of their values, through the one layout of _object_template and
_json_array. Floats are json_floats' texts; strings are escaped to ASCII
by json's own encoder; ints are int.__repr__ texts. Each array of states
stands in the payload's text as _STATES, and an empty one as _json_array's
"[]"; state_text writes the states in their place, in numpy, a block of
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
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from ._csvtext import _blocks, _gather, _table
from ._floattext import _SLOT, _float_slots, json_floats

# Rows per block: 96 wrote design_study's 288-row operations fastest of
# 48-144 rows. A block's buffers, each under glibc's 128 KB threshold for
# mapping an allocation's pages afresh, come from the heap, which keeps
# the pages of its largest block: 128 rows raised the peak RSS of every
# benchmark workload, whose gate writes JSON, by 0.1-0.3 MB.
BLOCK_ROWS = 96
# The byte after a cell's last object.
_END = "\1"
# The place of an array of states in the text around it: no text that
# json_floats or encode_basestring_ascii gives holds a NUL.
_STATES = "\0"


@functools.cache
def _object_template(keys: tuple[str, ...], indent: int) -> tuple[str, itemgetter]:
    # A JSON object with a %s for each key's value in sorted key order, closed
    # at indent spaces, and the itemgetter that puts values given in keys'
    # order into that order. Keys are plain names that need no escaping.
    pad = " " * indent
    order = sorted(range(len(keys)), key=keys.__getitem__)
    body = ",\n".join(f'{pad}  "{keys[i]}": %s' for i in order)
    return f"{{\n{body}\n{pad}}}", itemgetter(*order)


def _json_object(indent: int, **texts: str) -> str:
    # A JSON object of the value texts under their keys.
    template, _ = _object_template(tuple(texts), indent)
    # From a list, not a generator: a tuple resized from a generator's guess
    # joins the free list of its new size, one more per call up to 2000.
    return template % tuple([texts[key] for key in sorted(texts)])


def _json_array(items, indent: int) -> str:
    # A JSON array of the item texts, closed at indent spaces.
    pad = " " * (indent + 2)
    body = f",\n{pad}".join(items)
    return f"[\n{pad}{body}\n{' ' * indent}]" if body else "[]"


def simulate_json(names: tuple[str, ...], material: str, n: int, sweep, columns: list[np.ndarray]) -> Iterator[str]:
    """simulate's JSON text, in pieces: the metadata, with the grid's
    fields, sweep's vars, under their own names, and the states, the rows
    of columns keyed by names."""
    grid = _json_object(4, **dict(zip(vars(sweep), json_floats(vars(sweep).values()))))
    metadata = _json_object(2, material=encode_basestring_ascii(material), n=int.__repr__(n), sweep=grid)
    count = len(columns[0])
    text = _json_object(0, metadata=metadata, states=_STATES if count else _json_array([], 2)) + "\n"
    return state_text(names, text, columns, [count], 4)


def sweep_json(keys: tuple[str, ...], names: tuple[str, ...], rows: list[tuple], columns: list[np.ndarray], h_ch: float) -> Iterator[str]:
    """sweep's JSON text, in pieces. Each row of (material, wall ratio,
    count, largest f_spa, the material's mean of maxima) is a cell whose
    values under keys are the row's with h_ch in place of the count, and
    whose states are its count rows of columns, keyed by names."""
    # Every cell's text around its states, its floats' texts made in one call.
    template, pick = _object_template((*keys, "states"), 4)
    floats = iter(json_floats(chain.from_iterable((row[1], h_ch, *row[3:]) for row in rows)))
    empty = _json_array([], 6)
    cells = [
        template % pick((encode_basestring_ascii(row[0]), *islice(floats, 4), _STATES if row[2] else empty))
        for row in rows
    ]
    text = _json_object(0, cells=_json_array(cells, 2)) + "\n"
    return state_text(names, text, columns, [row[2] for row in rows], 8)


def report_json(numbers: dict[str, float], resampled: bool, pairs: list[tuple[float, float]] | None) -> str:
    """validate's JSON report: its numbers, whether the model was resampled
    and, when there are any, its Q-Q pairs."""
    texts = dict(zip(numbers, json_floats(numbers.values())))
    texts["resampled"] = "true" if resampled else "false"
    if pairs is not None:
        texts["qq_pairs"] = _json_array([_json_array(json_floats(q), 4) for q in pairs], 2)
    return _json_object(0, **texts) + "\n"


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
    parts = (_object_template(keys, indent)[0] % ((_STATES,) * len(keys))).split(_STATES)
    segments = [[parts[0]]]
    for key, part in zip(keys, parts[1:]):
        if key == label_key:
            segments[-1] = [segments[-1][0] + encode_basestring_ascii(label) + part for label in labels]
            labelled = len(segments) - 1
        else:
            segments.append([part])
    # After an object, the text before the next one in its array, or _END.
    segments.append([_json_array([_STATES] * 2, indent - 2).split(_STATES)[1], _END])
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


def state_text(names: tuple[str, ...], payload: str, columns: list[np.ndarray], counts: list[int], indent: int) -> Iterator[str]:
    """payload, a JSON text, with the arrays of states in place of its
    _STATES, as json.dumps(..., indent=2, sort_keys=True) writes them with
    the objects at indent spaces, in pieces: the text before the first
    state, then blocks of up to BLOCK_ROWS states, the last with the text
    after them. The states are the rows of columns, keyed by names: float64
    columns, then a last column of texts, all of one length; cell i's are
    the counts[i] rows after those of the cells before it, and each cell
    with states has a _STATES, in cell order."""
    around = payload.split(_STATES)
    if len(around) == 1:
        yield payload
        return
    open_, close = _json_array([_STATES], indent - 2).split(_STATES)
    yield around[0] + open_
    # What takes the place of the _END after each array's last object.
    between = [close + piece + open_ for piece in around[1:-1]] + [close + around[-1]]
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
