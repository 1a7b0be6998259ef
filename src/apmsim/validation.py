"""Curve-agreement metrics: normalized Frechet distance, R^2 and Q-Q pairing.

Model output is compared against an external reference curve (simulation or
measurement). The normalized Frechet distance rescales both curves by the
reference's bounding box, so the result is a unit-free fraction of the
reference range; the distance itself is apmsim._frechet's.

All functions are pure; batch comparisons may run in parallel across pairs.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

# compare_curves and normalized_frechet look the DP up here, so a patch or a
# trace of validation.discrete_frechet sees each of their calls.
from ._frechet import discrete_frechet
from .errors import DomainError

CURVE_CSV_HEADER = ("x", "y")

# Most paired quantiles qq_pairs computes, the pressure-grid cap's value: the
# cost grows linearly with the count, so an unbounded one exhausts memory.
MAX_QUANTILES = 100_000
# Most cells, m * n, of a Frechet DP that validate runs: a DP takes up to
# about 15 ns a cell, on noise pairs, so about 1.5 s at the cap.
MAX_FRECHET_CELLS = 10**8


@dataclass
class Curve:
    """An ordered sampled curve with strictly increasing, finite x."""

    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, float)
        self.y = np.asarray(self.y, float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise DomainError("curve needs matching 1-d x and y arrays")
        if self.x.size < 2:
            raise DomainError(f"curve {self.label!r} needs at least 2 points")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise DomainError(f"curve {self.label!r} contains non-finite values")
        # A comparison, not np.diff: the step of a wide finite x overflows.
        if not (self.x[1:] > self.x[:-1]).all():
            raise DomainError(f"curve {self.label!r} must have strictly increasing x")

    def __len__(self) -> int:
        return int(self.x.size)

    @classmethod
    def from_points(cls, points, label: str = "") -> "Curve":
        pts = np.asarray(points, float)
        return cls(pts[:, 0], pts[:, 1], label)

    @classmethod
    def from_csv(cls, path: str | Path, label: str = "") -> "Curve":
        """Read a two-column CSV with the mandatory header row ``x,y``.

        Blank lines are skipped; every other row must have exactly two fields.
        A file that is not UTF-8 text, or that csv cannot split, raises
        DomainError naming the path.
        """
        path = Path(path)
        try:
            # utf-8-sig drops the byte-order mark that some spreadsheets write.
            with open(path, newline="", encoding="utf-8-sig") as fh:
                rows = list(csv.reader(fh))
        except UnicodeDecodeError as err:
            # Its position counts from the start of the chunk the codec was
            # given, and after a mark; the whole file's bytes give the
            # first bad byte's offset in the file.
            try:
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as whole:
                err = whole
            raise DomainError(f"{path}: {err}") from None
        except csv.Error as err:
            raise DomainError(f"{path}: {err}") from None
        if not rows or tuple(c.strip() for c in rows[0]) != CURVE_CSV_HEADER:
            raise DomainError(f"{path}: expected header row 'x,y'")
        body = [r for r in rows[1:] if r]
        for r in body:
            if len(r) != 2:
                raise DomainError(
                    f"{path}: malformed data row {r!r}: expected 2 fields, got {len(r)}"
                )
        try:
            xy = np.array(list(map(float, chain.from_iterable(body))))
        except ValueError as err:
            raise DomainError(f"{path}: malformed data row ({err})") from None
        return cls(xy[0::2], xy[1::2], label or path.stem)


@dataclass
class AgreementReport:
    """Agreement metrics between a model curve and a reference curve."""

    frechet_normalized: float
    frechet_raw: float
    r_squared: float
    qq_pairs: list[tuple[float, float]] | None = None
    resampled: bool = False

    def __post_init__(self) -> None:
        if self.frechet_normalized < 0.0:
            raise DomainError("normalized Frechet distance cannot be negative")

    def numbers(self) -> dict[str, float]:
        """The report's numbers by name, in sorted order: its JSON keys and
        CSV columns."""
        return {
            "frechet_normalized": self.frechet_normalized,
            "frechet_normalized_pct": 100.0 * self.frechet_normalized,
            "frechet_raw": self.frechet_raw,
            "r_squared": self.r_squared,
        }


def _reference_box(reference: Curve) -> tuple[float, float, float, float]:
    """The reference's lower corner and spans (x0, y0, x_span, y_span);
    DomainError if a span is zero or overflows a float."""
    x0, x1 = float(reference.x.min()), float(reference.x.max())
    y0, y1 = float(reference.y.min()), float(reference.y.max())
    x_span, y_span = x1 - x0, y1 - y0
    if x_span == 0.0 or y_span == 0.0:
        raise DomainError("reference curve has a degenerate x or y range")
    if not (math.isfinite(x_span) and math.isfinite(y_span)):
        raise DomainError("reference curve x or y range overflows a float")
    return x0, y0, x_span, y_span


def _rescale(curve: Curve, box: tuple[float, float, float, float]) -> Curve:
    x0, y0, x_span, y_span = box
    with np.errstate(over="ignore"):
        x, y = (curve.x - x0) / x_span, (curve.y - y0) / y_span
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError(
            f"curve {curve.label!r} lies too far outside the reference range to normalise"
        )
    # A copy with only x and y set: the division can round adjacent x to one
    # value, and the distance needs finite points, not increasing x.
    scaled = copy.copy(curve)
    scaled.x, scaled.y = x, y
    return scaled


def normalized_frechet(model: Curve, reference: Curve) -> float:
    """Discrete Frechet distance after rescaling both curves by the reference box.

    Both curves are mapped so the reference spans [0, 1] in x and in y; the
    result is a fraction of the reference range (multiply by 100 for a
    percentage) and is invariant under joint affine changes of units.
    """
    box = _reference_box(reference)
    return discrete_frechet(_rescale(model, box), _rescale(reference, box))


def r_squared(pairs) -> float:
    """Coefficient of determination of model values against reference values.

    pairs is a sequence of (reference, model) values; returns
    1 - SS_res/SS_tot with the reference as ground truth. Equals 1 for exact
    agreement, can be negative for models worse than the reference mean.
    """
    arr = np.asarray(pairs, float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise DomainError("r_squared needs at least 2 (reference, model) pairs")
    ref, model = arr.T
    with np.errstate(all="ignore"):
        ss_tot = float(np.sum((ref - ref.mean()) ** 2))
        ss_res = float(np.sum((ref - model) ** 2))
    if not (math.isfinite(ss_tot) and math.isfinite(ss_res)):
        raise DomainError("sums of squares overflow a float")
    if ss_tot == 0.0:
        raise DomainError("reference values have zero variance")
    r2 = 1.0 - ss_res / ss_tot
    if not math.isfinite(r2):
        raise DomainError("R^2 overflows a float: the residuals dwarf the reference variance")
    return r2


def quantile_grid(k: int) -> np.ndarray:
    """qq_pairs's k probabilities: i * (1/(k-1)) for i = 0..k-2, then exactly 1.

    np.linspace(0.0, 1.0, k) bit for bit, by its own arithmetic."""
    grid = np.arange(k, dtype=float) * (1.0 / (k - 1))
    grid[-1] = 1.0
    return grid


def check_quantile_count(k: int) -> None:
    """Raise DomainError unless the quantile count k lies in [2, MAX_QUANTILES]."""
    if k < 2:
        raise DomainError(f"quantile count must be >= 2, got {k}")
    if k > MAX_QUANTILES:
        raise DomainError(f"quantile count must be at most {MAX_QUANTILES}, got {k}")


def check_frechet_cells(m: int, n: int) -> None:
    """Raise DomainError if the Frechet DP of curves of m and n points has
    more than MAX_FRECHET_CELLS cells."""
    if m * n > MAX_FRECHET_CELLS:
        raise DomainError(
            f"curves of {m} and {n} points need {m * n} Frechet DP cells, more than {MAX_FRECHET_CELLS}"
        )


def _quantile_positions(n: int, probs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where np.quantile(·, probs, method="linear") reads a sample of size n:
    the order statistics below and above each virtual index (n - 1) * p, its
    weight t, and numpy's kth list for the partition.

    numpy moves an index at or past the last order statistic to -1 before it
    takes the weight, so t is then index + 1; the lerp's t >= 0.5 branch
    still gives the last value, but with the sign of zero numpy gives it.
    """
    index = (n - 1) * probs
    lower = np.floor(index)
    upper = lower + 1
    last = index >= n - 1
    lower[last] = upper[last] = -1
    t = index - lower
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    return lower, upper, t, np.unique(np.concatenate(([0, -1], lower, upper)))


def _linear_quantiles(sample: np.ndarray, positions) -> np.ndarray:
    """np.quantile(sample, probs, method="linear") bit for bit, at
    _quantile_positions(sample.size, probs)."""
    lower, upper, t, kth = positions
    # numpy's partition, not a sort: the two place 0.0 and -0.0 differently.
    ordered = sample.flatten()
    ordered.partition(kth)
    a, b = ordered[lower], ordered[upper]
    # numpy's _lerp, which takes the upper end's form from t = 0.5 on.
    diff = b - a
    q = a + diff * t
    np.subtract(b, diff * (1 - t), out=q, where=t >= 0.5)
    # A NaN sorts last, and numpy then gives it as every quantile.
    if math.isnan(ordered[-1]):
        q.fill(ordered[-1])
    return q


def qq_pairs(a, b, k: int) -> list[tuple[float, float]]:
    """k paired quantiles of two samples at evenly spaced probabilities.

    Probabilities quantile_grid(k); quantiles use linear interpolation
    between order statistics with inclusive endpoints (Hyndman & Fan 1996,
    method 7), bit for bit numpy's np.quantile(·, method="linear"), computed
    by its own steps without its per-call overhead. Pairs are monotone
    nondecreasing in both coordinates. k must lie in [2, MAX_QUANTILES].
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.size == 0 or b.size == 0:
        raise DomainError("q-q pairing needs non-empty samples")
    check_quantile_count(k)
    probs = quantile_grid(k)
    at_a = _quantile_positions(a.size, probs)
    at_b = at_a if b.size == a.size else _quantile_positions(b.size, probs)
    qa, qb = _linear_quantiles(a, at_a), _linear_quantiles(b, at_b)
    return list(zip(qa.tolist(), qb.tolist()))


def compare_curves(
    model: Curve,
    reference: Curve,
    qq: int | None = None,
    resample: bool = False,
) -> AgreementReport:
    """Full agreement report between a model curve and a reference curve.

    R^2 pairs points index-wise, which requires equal lengths; pass
    resample=True to linearly resample the model onto the reference x grid
    first. The Frechet distances always use the curves as given (the
    coupling handles unequal lengths). The quantile count is checked, and
    the quantiles computed, before either O(m*n) Frechet DP runs.
    A Frechet distance, or the normalized one in percent, that overflows a
    float raises DomainError.
    """
    quantiles = qq_pairs(reference.y, model.y, qq) if qq is not None else None
    model_y = np.interp(reference.x, model.x, model.y) if resample else model.y
    if len(model_y) != len(reference):
        raise DomainError("curves have different lengths; use resample=True for R^2 pairing")
    pairs = np.column_stack((reference.y, model_y))
    normalized = normalized_frechet(model, reference)
    raw = discrete_frechet(model, reference)
    # The report also gives the normalized distance in percent.
    if not (math.isfinite(100.0 * normalized) and math.isfinite(raw)):
        raise DomainError("Frechet distance overflows a float")
    return AgreementReport(
        frechet_normalized=normalized,
        frechet_raw=raw,
        r_squared=r_squared(pairs),
        qq_pairs=quantiles,
        resampled=resample,
    )
