"""The discrete Frechet distance between two curves: the value of the
dynamic program over monotone couplings of the two point sequences, proved
from a lower bound and a free-space path where one exists. It reads only a
curve's x, y and length, so it imports validation only for type checking.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .validation import Curve

# Largest disagreement between the fast distance np.abs(dx + 1j*dy) and the
# exact math.hypot(dx, dy), as d' within d*(1 +- REL) +- ABS, where an
# infinite distance counts as the largest float. Measured with numpy 2.4.6
# on x86-64: at most 2 ulp (1.43 * 2**-52 relative) and 1 subnormal step;
# REL and ABS are 8 of each. tests/test_properties.py checks the bound
# against the installed numpy.
FAST_DISTANCE_REL = 8 * 2.0**-52
FAST_DISTANCE_ABS = 8 * 5e-324
# Cells per block of every scan of the m x n cells, or one row when a row is
# longer: every scan fills one pair of buffers, 64 KB of complex differences
# and 32 KB of distances, and the reach adds a 4 KB free mask and its 512
# packed bytes; a banded block takes more rows of fewer columns. Larger blocks
# raise a validate run's peak RSS: 8192 cells added about 0.2 MB at numpy's
# default ufunc buffer size.
_SCAN_BLOCK_CELLS = 4096
# numpy's ufunc buffer size, in elements, during the DP. At the default
# 8192, numpy 2.4.6 copies a block's broadcast operands into buffers before
# it subtracts: 126 KB for 4096 cells, and 3x slower than with 256.
_UFUNC_BUFSIZE = 256
_FLOAT_MAX = float(np.finfo(float).max)


def _points(curve: Curve) -> np.ndarray:
    """The points as x + iy, set part by part so no product rounds."""
    z = np.empty(len(curve), complex)
    z.real, z.imag = curve.x, curve.y
    return z


def _exact_distances(dz: np.ndarray) -> np.ndarray:
    """math.hypot of each complex coordinate difference."""
    return np.fromiter(map(math.hypot, dz.real.tolist(), dz.imag.tolist()), float, dz.size)


def _wavefront(za: np.ndarray, zb: np.ndarray) -> float:
    """The Eiter & Mannila DP over points za, zb on fast distances.

    Swept as an anti-diagonal wavefront: every cell on diagonal k = i + j
    depends only on diagonals k-1 and k-2, so one numpy min/max step fills
    a whole diagonal. O(m+n) memory: two diagonal buffers and one diagonal
    of distances at a time.
    """
    m, n = za.size, zb.size
    # b reversed, so the j = k - i of diagonal k run as a forward slice.
    zr = zb[::-1].copy()
    # Diagonal buffers indexed by i + 1. Slot 0 and the slots past a
    # diagonal's end are never written, so they stay +inf and the three
    # neighbours of a diagonal are plain slices. Slots before a diagonal's
    # start may hold older diagonals but are never read: a slice reaches
    # below the start of the diagonal it reads only while lo = 0, and then
    # only slot 0.
    prev2 = np.full(m + 1, math.inf)
    prev = np.full(m + 1, math.inf)
    prev[1] = np.abs(za[:1] - zb[:1])[0]
    # prev holds diagonal k - 1 and prev2 diagonal k - 2, which diagonal k
    # overwrites.
    for k in range(1, m + n - 1):
        lo, hi = max(0, k - n + 1), min(m - 1, k)
        dist = np.abs(za[lo : hi + 1] - zr[n - 1 - k + lo : n - k + hi])
        best = np.minimum(prev[lo : hi + 1], prev[lo + 1 : hi + 2])
        np.minimum(best, prev2[lo : hi + 1], out=best)
        np.maximum(best, dist, out=prev2[lo + 1 : hi + 2])
        prev2, prev = prev, prev2
    return float(prev[m])


class _Scan:
    """The m x n cells of za against zb in row blocks of _SCAN_BLOCK_CELLS, in buffers that
    every scan of one DP reuses. A scan at t covers, per block, the run of columns that the
    envelopes of x and y keep within a margin of t of its rows (of a coordinate that reaches
    over 3 * least); full rows if one block holds every cell or the band keeps every column."""

    def __init__(self, za: np.ndarray, zb: np.ndarray, least: float = 0.0) -> None:
        self.za, self.zb = za, zb
        self.rows = max(1, min(za.size, _SCAN_BLOCK_CELLS // zb.size))
        self.dz = np.empty(self.rows * zb.size, complex)
        self.d = np.empty(self.rows * zb.size)
        # Per coordinate, the suffix minima and prefix maxima of za and of zb, each
        # nondecreasing, and the margin from which they band nothing. One reaching under
        # 3 * least bands out little, for envelopes that cost as much as a thin grid's scan.
        self.envelopes = [
            (np.minimum.accumulate(ca[::-1])[::-1], np.maximum.accumulate(ca),
             np.minimum.accumulate(cb[::-1])[::-1], np.maximum.accumulate(cb), reach)
            for ca, cb in ((za.real, zb.real), (za.imag, zb.imag))
            for reach in [max(ca[-1] - cb[0], cb[-1] - ca[0])] if 3.0 * least < reach
        ] if self.rows < za.size else []

    def blocks(self, t: float):
        """Each block's first row and column, and its band's differences and distances at t."""
        m, n = self.za.size, self.zb.size
        # A column left out lies at least the margin away in x or y even after an
        # envelope -+ margin rounds, so its fast distances exceed _Window(t).high.
        margin = t * (1.0 + 5.0 * FAST_DISTANCE_REL) + 5.0 * FAST_DISTANCE_ABS
        firsts, lasts = [0], [n]
        for a_low, a_top, b_low, b_top, reach in self.envelopes:
            if margin < reach:
                # Row i drops column j if zb up to j lies more than the margin below za from i on,
                # or zb from j on above za up to i: bounds that never fall over the rows.
                firsts = np.maximum(firsts, np.searchsorted(b_top, a_low - margin))
                lasts = np.minimum(lasts, np.searchsorted(b_low, a_top + margin, "right"))
        banded = firsts[-1] > 0 or lasts[0] < n
        start = 0
        while start < m:
            first, end, last = 0, min(m, start + self.rows), n
            if banded:
                # The most rows whose band, of at least one column, fits.
                first = min(firsts.item(start), n - 1)
                end = start + bisect.bisect(
                    range(start + 1, m + 1), self.d.size, key=lambda e: (e - start) * max(lasts.item(e - 1) - first, 1)
                )
                last = max(lasts.item(end - 1), first + 1)
            dz = self.dz[: (end - start) * (last - first)].reshape(end - start, last - first)
            d = self.d[: dz.size].reshape(dz.shape)
            np.abs(np.subtract(self.za[start:end, None], self.zb[first:last], out=dz), out=d)
            yield start, first, dz, d
            start = end


class _Window:
    """The cells whose fast distance lies near t, and their exact distances.

    The DP commutes with the monotone slack bounds, so the exact DP value
    lies within one slack of a fast DP value t, and the cell that attains
    it has a fast distance within one more slack; a third slack covers the
    rounding of the window bounds. The distinct exact distances of the
    window's cells, `values`, thus hold the exact DP value. The same bounds
    also tell which cells have an exact distance of at most t: those below
    the window do, those above it do not, and math.hypot decides inside it.
    """

    def __init__(self, t: float) -> None:
        rel, tiny = 3.0 * FAST_DISTANCE_REL, 3.0 * FAST_DISTANCE_ABS
        # An infinite t may stand for a finite exact distance near the
        # largest float, so the window then reaches down from there.
        self.t = t
        self.low = min(t, _FLOAT_MAX) * (1.0 - rel) - tiny
        self.high = t * (1.0 + rel) + tiny
        self.values = set()

    def add(self, dz: np.ndarray, d: np.ndarray) -> None:
        """Take the exact distances of one block's window cells."""
        inside = (d >= self.low) & (d <= self.high)
        if inside.any():
            self.values.update(_exact_distances(dz[inside]).tolist())

    def fast_free(self, dz: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
        """Take one block's window cells, and mark in `out` its cells whose
        fast distance is at most t."""
        self.add(dz, d)
        np.less_equal(d, self.t, out=out)

    def exact_free(self, dz: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
        """Mark in `out` one block's cells whose exact distance is at most t."""
        inside = (d >= self.low) & (d <= self.high)
        np.less(d, self.low, out=out)
        out[inside] = _exact_distances(dz[inside]) <= self.t


def _minima(blocks, row_min: np.ndarray, column_min: np.ndarray):
    """Pass on each block after taking its row and column minima."""
    column_min.fill(math.inf)
    for block in blocks:
        start, first, _, d = block
        np.minimum.reduce(d, axis=1, out=row_min[start : start + len(d)])
        columns = column_min[first : first + d.shape[1]]
        np.minimum(columns, np.minimum.reduce(d, axis=0), out=columns)
        yield block


def _reaches(scan: _Scan, blocks, free) -> bool:
    """Whether a monotone path of free cells joins (0, 0) to (m-1, n-1),
    where free(dz, d, out) marks in `out` the free cells of each block.

    Row by row, bit j of an integer stands for column shift + j of the band.
    A free cell is entered from the reach of the row above at its own column
    or the one before (`below`); from each such seed the reach runs right to
    the end of its run of free cells, which one addition carries through
    (Allison & Dix, 1986). The reach stops (False) at a row with no seed.
    """
    mask = np.empty(scan.d.size, bool)
    # Row -1 reaches only column -1, so row 0 is entered at column 0 alone.
    below, shift = 1, 0
    for _, first, dz, d in blocks:
        out = mask[: d.size].reshape(d.shape)
        free(dz, d, out)
        width = (d.shape[1] + 7) // 8
        rows = np.packbits(out, axis=1, bitorder="little").tobytes()
        below, shift = below >> (first - shift), first
        for k in range(0, len(rows), width):
            f = int.from_bytes(rows[k : k + width], "little")
            seeds = f & below
            if not seeds:
                return False
            reach = ((f + seeds) ^ f) & f | seeds
            below = reach | reach << 1
    return bool(reach >> (scan.zb.size - 1 - shift) & 1)


def discrete_frechet(a: Curve, b: Curve) -> float:
    """Discrete Frechet distance between two curves.

    The minimum over monotone couplings of the maximum paired Euclidean
    point distance, via the Eiter & Mannila (1994) dynamic program
    dp[i, j] = max(min(dp[i-1, j], dp[i, j-1], dp[i-1, j-1]), d(i, j)),
    where d(i, j) is math.hypot of the float64 coordinate differences.

    Fast distances, np.abs of complex differences, agree with math.hypot to
    within FAST_DISTANCE_REL relative plus FAST_DISTANCE_ABS. The DP only
    takes mins and maxes, which commute with that monotone slack, so the
    exact result is the math.hypot distance of a cell whose fast distance
    lies in a window around the fast DP value. Computed in two stages:

    1. The fast DP value and its window. Every coupling visits both end cells,
       every row and every column, so the fast DP value is at least B, the
       largest of t_end = max(d(0, 0), d(m-1, n-1)) and every row's and
       column's minimum. One scan takes the minima and decides, as in Alt &
       Godau (1995), whether a monotone path of free cells, fast distance
       <= t_end (B if one block holds every cell), joins the end cells:
       bit-parallel, one row of free cells as one integer, whose reach a carry
       spreads along each run (Allison & Dix, 1986). If one does, that is the
       fast DP value, and the same scan takes math.hypot of the window's few
       cells. Else a scan at B decides alike; for noisy curves whose couplings
       leave the row and column minima, the DP then runs as an anti-diagonal
       wavefront on fast distances, and a scan takes the window around it.
       A scan at t computes only a band of cells: a cell left out lies more
       than t from its partner in x or in y, by the curves' prefix maxima and
       suffix minima of each, so it is neither free nor in the window.
    2. The exact value. The window's distinct exact distances hold the
       exact DP value. If there is one, it is the result. Else the result
       is the least at which an exact reach joins the end cells: the same
       reach with free cells of exact distance <= t, which computes
       math.hypot only on the cells in the window around t. Whether it
       joins is monotone in t, so a bisection of the sorted candidates
       finds it. A window spans fewer than a hundred floats, so at most
       seven exact reaches run.

    np.abs of blocks of other shapes and of a diagonal may differ in the last
    bit, so the proved bound and the fast wavefront's value may too; the
    window's slack covers either. Overflowing differences give inf in both.

    The result is an exact distance proved to be the exact DP value, so it
    is bit-identical to the row-by-row DP on math.hypot distances, exactly
    symmetric, and zero exactly when the point sequences coincide. O(m*n)
    time, O(m+n) memory: every scan fills the same buffers of
    _SCAN_BLOCK_CELLS cells, the reach keeps the bits of one row, and the
    wavefront a few diagonals; no m x n array is built.
    """
    za, zb = _points(a), _points(b)
    row_min, column_min = np.empty(za.size), np.empty(zb.size)
    with np.errstate(over="ignore"):
        # Restored by hand too: numpy 1.x does not tie it to errstate.
        bufsize = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            t_end = 0.0
            if za.size * zb.size > _SCAN_BLOCK_CELLS:  # more than one block
                ends = np.abs(za[:: za.size - 1] - zb[:: zb.size - 1]).tolist()
                # Reach from the end cell setting t_end, near which blocking rows or
                # columns lie most often; reversed and negated, every distance stays.
                za, zb = (-za[::-1], -zb[::-1]) if ends[1] > ends[0] else (za, zb)
                t_end = max(ends)
            scan = _Scan(za, zb, t_end)
            # A path at t_end, or at the last scan's bound t once that is B (full rows, or a
            # bound within its window), proves t; with none at a t >= B the wavefront runs.
            t, scanned = t_end, None
            while t != scanned:
                blocks = _minima(scan.blocks(t), row_min, column_min)
                if scan.rows >= za.size:  # one block: its minima, so B, come first
                    blocks = [next(blocks)]
                    t_end = float(max(blocks[0][3][0, 0], blocks[0][3][-1, -1]))
                    t = max(t_end, float(row_min.max()), float(column_min.max()))
                window = _Window(t)
                joined = _reaches(scan, blocks, window.fast_free)
                if joined == (scanned is None):
                    break
                for _ in blocks:  # the rows after a failed reach
                    pass
                t, scanned = max(t_end, float(row_min.max()), float(column_min.max())), t
            if not joined:
                window = _Window(_wavefront(za, zb))
                for _, _, dz, d in scan.blocks(window.t):
                    window.add(dz, d)
            # The least candidate at which the exact reach joins; the last
            # one joins, so only those before it are tried.
            values = sorted(window.values)
            value = values[bisect.bisect_left(
                values, True, hi=len(values) - 1,
                key=lambda t: _reaches(scan, scan.blocks(t), _Window(t).exact_free),
            )]
        finally:
            np.setbufsize(bufsize)
    return value
