"""Array plumbing shared by the model layers.

The public model functions take a float or an ndarray. They compute on flat
float arrays, where a float is the size-1 case, and return an array of the
input's shape, or a plain Python value for a float input. bracketed_newton is
the one root solver behind the stress inverse and the half-ellipse axis
solve; check_positive_finite is the one check behind every dimension and
coefficient that must be a finite positive number.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Newton-or-bisection iterations after which a solve gives up.
MAX_ITERATIONS = 100


def flatten(*values) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Broadcast the values together; return their common shape and one flat
    float64 array per value (size 1 for the empty shape)."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        arrays = np.broadcast_arrays(*arrays)
        shape = arrays[0].shape
    return shape, [a.reshape(-1) for a in arrays]


def unflatten(flat: np.ndarray, shape: tuple[int, ...]):
    """The Python value of the only element for the empty shape, else flat
    reshaped to shape."""
    return flat[0].item() if shape == () else flat.reshape(shape)


def check_positive_finite(label: str, value: float) -> None:
    """Raise DomainError unless value is a finite number above zero; NaN and
    +-inf fail."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{label} must be positive and finite, got {value}")


def first_index(mask: np.ndarray) -> int | None:
    """Index of the first true element of a flat boolean array, or None."""
    if not mask.size:
        return None
    i = int(mask.argmax())
    return i if mask[i] else None


def bracketed_newton(func, lo, hi, x: np.ndarray, tol) -> np.ndarray:
    """Roots of increasing functions, one per element of the flat array x.

    func(x) returns the residual f(x) and its slope f'(x). For every element
    f(lo) <= 0 <= f(hi), the start x lies in [lo, hi], and the element stops
    once |f(x)| <= tol. Each iteration moves the side of the bracket that the
    residual's sign rules out to x, then takes the Newton step, or the bracket
    midpoint when that step is not finite or leaves the open bracket. Once
    every element has stopped, each takes its last Newton step when that
    stays inside its bracket: it needs no new evaluation and brings the error
    from the tolerance down to round-off. An element's iterates depend only
    on its own values, so its result does not depend on the rest of the
    batch.

    Raises DomainError when some element has not met its tolerance after
    MAX_ITERATIONS iterations.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_ITERATIONS):
            f, slope = func(x)
            done = np.abs(f) <= tol
            lo = np.where(f < 0.0, x, lo)
            hi = np.where(f > 0.0, x, hi)
            step = x - f / slope
            inside = (lo < step) & (step < hi)
            if first_index(~done) is None:
                return np.where(inside, step, x)
            x = np.where(done, x, np.where(inside, step, 0.5 * (lo + hi)))
    raise DomainError(
        f"root solve missed its residual tolerance after {MAX_ITERATIONS} iterations "
        f"({int(np.count_nonzero(~done))} of {done.size} elements)"
    )
