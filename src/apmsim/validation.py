"""Curve-agreement metrics: discrete Frechet distance, R^2 and Q-Q pairing.

Model output is compared against an external reference curve (simulation or
measurement). The discrete Frechet distance is computed by dynamic
programming over monotone couplings of the two point sequences; the
normalized variant rescales both curves by the reference's bounding box so
the result is a unit-free fraction of the reference range.

All functions are pure; batch comparisons may run in parallel across pairs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError

CURVE_CSV_HEADER = ("x", "y")

# Most paired quantiles qq_pairs computes, the pressure-grid cap's value: the
# cost grows linearly with the count, so an unbounded one exhausts memory.
MAX_QUANTILES = 100_000


@dataclass
class Curve:
    """An ordered sampled curve with strictly increasing, finite x."""

    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise DomainError("curve needs matching 1-d x and y arrays")
        if self.x.size < 2:
            raise DomainError(f"curve {self.label!r} needs at least 2 points")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise DomainError(f"curve {self.label!r} contains non-finite values")
        if not np.all(np.diff(self.x) > 0.0):
            raise DomainError(f"curve {self.label!r} must have strictly increasing x")

    def __len__(self) -> int:
        return int(self.x.size)

    @classmethod
    def from_points(cls, points, label: str = "") -> "Curve":
        pts = np.asarray(points, dtype=float)
        return cls(pts[:, 0], pts[:, 1], label)

    @classmethod
    def from_csv(cls, path: str | Path, label: str = "") -> "Curve":
        """Read a two-column CSV with the mandatory header row ``x,y``.

        Blank lines are skipped; every other row must have exactly two fields.
        """
        path = Path(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or tuple(c.strip() for c in rows[0]) != CURVE_CSV_HEADER:
            raise DomainError(f"{path}: expected header row 'x,y'")
        body = [r for r in rows[1:] if r]
        for r in body:
            if len(r) != 2:
                raise DomainError(
                    f"{path}: malformed data row {r!r}: expected 2 fields, got {len(r)}"
                )
        try:
            pts = np.array([(float(x), float(y)) for x, y in body]).reshape(-1, 2)
        except ValueError as err:
            raise DomainError(f"{path}: malformed data row ({err})") from None
        return cls(pts[:, 0], pts[:, 1], label or path.stem)


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

    def to_json(self) -> str:
        payload = {
            "frechet_normalized": self.frechet_normalized,
            "frechet_normalized_pct": 100.0 * self.frechet_normalized,
            "frechet_raw": self.frechet_raw,
            "r_squared": self.r_squared,
            "resampled": self.resampled,
        }
        if self.qq_pairs is not None:
            payload["qq_pairs"] = [[a, b] for a, b in self.qq_pairs]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv_row(self) -> str:
        header = "frechet_normalized,frechet_normalized_pct,frechet_raw,r_squared"
        row = (
            f"{self.frechet_normalized:.6f},{100.0 * self.frechet_normalized:.6f},"
            f"{self.frechet_raw:.6f},{self.r_squared:.6f}"
        )
        return header + "\n" + row + "\n"


def discrete_frechet(a: Curve, b: Curve) -> float:
    """Discrete Frechet distance between two curves.

    The minimum over monotone couplings of the maximum paired Euclidean
    point distance, via the Eiter & Mannila (1994) dynamic program
    dp[i, j] = max(min(dp[i-1, j], dp[i, j-1], dp[i-1, j-1]), d(i, j))
    swept as an anti-diagonal wavefront: every cell on diagonal k = i + j
    depends only on diagonals k-1 and k-2, so one numpy min/max step fills
    a whole diagonal. O(m*n) time, O(m+n) memory: two diagonal buffers and
    one diagonal of distances at a time, no m x n array. Each d(i, j) is
    math.hypot of the float64 coordinate differences, and min/max do not
    round, so the result is exactly that of the row-by-row DP. Symmetric,
    and zero exactly when the point sequences coincide.
    """
    m, n = len(a), len(b)
    # b reversed, so the j = k - i of diagonal k run as a forward slice.
    bx, by = b.x[::-1], b.y[::-1]
    # Diagonal buffers indexed by i + 1. Slot 0 and the slots past a
    # diagonal's end are never written, so they stay +inf and the three
    # neighbours of a diagonal are plain slices. Slots before a diagonal's
    # start may hold older diagonals but are never read: a slice reaches
    # below the start of the diagonal it reads only while lo = 0, and then
    # only slot 0.
    prev2 = np.full(m + 1, math.inf)
    prev = np.full(m + 1, math.inf)
    prev[1] = math.hypot(a.x[0] - b.x[0], a.y[0] - b.y[0])
    # prev holds diagonal k - 1 and prev2 diagonal k - 2, which diagonal k
    # overwrites.
    for k in range(1, m + n - 1):
        lo, hi = max(0, k - n + 1), min(m - 1, k)
        size = hi - lo + 1
        dx = a.x[lo : hi + 1] - bx[n - 1 - k + lo : n - k + hi]
        dy = a.y[lo : hi + 1] - by[n - 1 - k + lo : n - k + hi]
        dist = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, size)
        best = np.minimum(prev[lo : hi + 1], prev[lo + 1 : hi + 2])
        np.minimum(best, prev2[lo : hi + 1], out=best)
        np.maximum(best, dist, out=best)
        prev2[lo + 1 : hi + 2] = best
        prev2, prev = prev, prev2
    return float(prev[m])


def _rescale_by_reference(curve: Curve, reference: Curve) -> Curve:
    x0, x1 = float(np.min(reference.x)), float(np.max(reference.x))
    y0, y1 = float(np.min(reference.y)), float(np.max(reference.y))
    if x1 == x0 or y1 == y0:
        raise DomainError("reference curve has a degenerate x or y range")
    return Curve((curve.x - x0) / (x1 - x0), (curve.y - y0) / (y1 - y0), curve.label)


def normalized_frechet(model: Curve, reference: Curve) -> float:
    """Discrete Frechet distance after rescaling both curves by the reference box.

    Both curves are mapped so the reference spans [0, 1] in x and in y; the
    result is a fraction of the reference range (multiply by 100 for a
    percentage) and is invariant under joint affine changes of units.
    """
    return discrete_frechet(
        _rescale_by_reference(model, reference),
        _rescale_by_reference(reference, reference),
    )


def r_squared(pairs) -> float:
    """Coefficient of determination of model values against reference values.

    pairs is a sequence of (reference, model) values; returns
    1 - SS_res/SS_tot with the reference as ground truth. Equals 1 for exact
    agreement, can be negative for models worse than the reference mean.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise DomainError("r_squared needs at least 2 (reference, model) pairs")
    ref, model = arr[:, 0], arr[:, 1]
    ss_tot = float(np.sum((ref - ref.mean()) ** 2))
    if ss_tot == 0.0:
        raise DomainError("reference values have zero variance")
    ss_res = float(np.sum((ref - model) ** 2))
    return 1.0 - ss_res / ss_tot


def qq_pairs(a, b, k: int) -> list[tuple[float, float]]:
    """k paired quantiles of two samples at evenly spaced probabilities.

    Probabilities i/(k-1) for i = 0..k-1; quantiles use linear interpolation
    between order statistics with inclusive endpoints. Pairs are monotone
    nondecreasing in both coordinates. k must lie in [2, MAX_QUANTILES].
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise DomainError("q-q pairing needs non-empty samples")
    if k < 2:
        raise DomainError(f"quantile count must be >= 2, got {k}")
    if k > MAX_QUANTILES:
        raise DomainError(f"quantile count must be at most {MAX_QUANTILES}, got {k}")
    probs = np.linspace(0.0, 1.0, k)
    qa = np.quantile(a, probs, method="linear")
    qb = np.quantile(b, probs, method="linear")
    return [(float(x), float(y)) for x, y in zip(qa, qb)]


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
    coupling handles unequal lengths).
    """
    if resample:
        model_y = np.interp(reference.x, model.x, model.y)
        pairs = np.column_stack((reference.y, model_y))
    else:
        if len(model) != len(reference):
            raise DomainError(
                "curves have different lengths; use resample=True for R^2 pairing"
            )
        pairs = np.column_stack((reference.y, model.y))
    report = AgreementReport(
        frechet_normalized=normalized_frechet(model, reference),
        frechet_raw=discrete_frechet(model, reference),
        r_squared=r_squared(pairs),
        qq_pairs=qq_pairs(reference.y, model.y, qq) if qq is not None else None,
        resampled=resample,
    )
    return report


def write_qq_csv(pairs: list[tuple[float, float]], path: str | Path) -> None:
    """Write paired quantiles as a CSV with columns p,reference,model."""
    k = len(pairs)
    lines = ["p,reference,model"]
    for i, (ref_q, model_q) in enumerate(pairs):
        p = i / (k - 1) if k > 1 else 0.0
        lines.append(f"{p:.6f},{ref_q:.6f},{model_q:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
