"""Nested univariate collocation sequences: symmetric Leja points.

Two families are provided, matched to the parameter's distribution:

* ``UniformLeja(a, b)``: symmetric Leja points on an interval.  The first
  three points are b, a, (a+b)/2; afterwards even-position points maximize
  the distance product prod |v - v_k| over [a, b] and each odd-position
  point mirrors the preceding one about the midpoint.

* ``GaussianLeja(mean, std)``: weighted symmetric Leja points for a Gaussian
  density.  Computed once on the standard normal by maximizing
  sqrt(rho(v)) * prod |v - v_k|, then mapped affinely by v -> mean + std * v.
  The first point is the density peak; even/odd positions alternate between
  weighted maximization and mirroring about the mean.

Both constructions are greedy, so the first m points of a longer sequence
coincide bit-for-bit with a shorter one (nestedness).  The level-to-knots
map is m(i) = 2i - 1: each level adds one mirrored pair.

The inner argmax is solved by a dense candidate scan followed by bisection
on the derivative of the log objective within the best bracket (value-based
refinement such as golden section stalls near sqrt(machine eps) because the
objective is locally flat; the derivative crosses zero steeply and resolves
the maximizer to full precision).  Before every even step the existing point
set is symmetric, so the objective is symmetric about the center; searching
only the left half [a, center] is then equivalent to a global search with
ties broken toward the smaller coordinate, and is numerically deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformLeja",
    "GaussianLeja",
    "level_to_knots",
    "knots_for_level",
    "symmetric_leja",
    "symmetric_gaussian_leja",
]

#: number of uniformly spaced candidates in the dense argmax scan
SCAN_CANDIDATES = 100_001
#: refinement target, as a fraction of the search width
REFINE_TOL = 1e-13
#: half-width of the standardized Gaussian search interval, in std units;
#: the sqrt-density weight suppresses maximizers beyond a few stds
GAUSSIAN_SEARCH_HALFWIDTH = 20.0


def level_to_knots(level: int) -> int:
    """Point count at a discretization level: m(i) = 2i - 1."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return 2 * level - 1


def _argmax_scan_refine(logf, dlogf, lo: float, hi: float,
                        n_candidates: int = SCAN_CANDIDATES) -> float:
    """Dense scan of logf on [lo, hi], then derivative bisection in the bracket."""
    cand = np.linspace(lo, hi, n_candidates)
    values = logf(cand)
    best = int(np.argmax(values))
    blo = cand[max(best - 1, 0)]
    bhi = cand[min(best + 1, n_candidates - 1)]
    tol = REFINE_TOL * (hi - lo)
    # logf is strictly concave between neighbouring existing points, and both
    # ends of [lo, hi] lie at existing points (the Gaussian's far end at weight
    # e^-100 instead), so the best candidate is bracketed by a sign change
    if not dlogf(blo) > 0.0 > dlogf(bhi):
        raise AssertionError(f"no derivative sign change brackets the argmax in [{blo}, {bhi}]")
    a, b = blo, bhi
    while (b - a) > tol:
        m = 0.5 * (a + b)
        dm = dlogf(m)
        if dm == 0.0:
            return m
        if dm > 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _log_distance_product(cand: np.ndarray, points: np.ndarray) -> np.ndarray:
    # tiny offset guards log(0) at the existing points themselves
    return np.sum(np.log(np.abs(cand[:, None] - points[None, :]) + 1e-300), axis=1)


class _GrowingSequence:
    """Greedy Leja sequence that extends lazily and caches every prefix."""

    def __init__(self, seed_points, center, lo, hi, weighted):
        self._points = list(seed_points)
        self._center = center
        self._lo = lo
        self._hi = hi
        self._weighted = weighted

    def prefix(self, n: int) -> np.ndarray:
        while len(self._points) < n:
            self._grow()
        return np.array(self._points[:n])

    def _grow(self):
        pts = np.array(self._points)

        if self._weighted:
            def logf(cand):
                return -0.25 * cand ** 2 + _log_distance_product(cand, pts)

            def dlogf(v):
                return -0.5 * v + float(np.sum(1.0 / (v - pts)))
        else:
            def logf(cand):
                return _log_distance_product(cand, pts)

            def dlogf(v):
                return float(np.sum(1.0 / (v - pts)))

        # point set is symmetric here; the left half holds a global maximizer
        new = _argmax_scan_refine(logf, dlogf, self._lo, self._center)
        self._points.append(new)
        self._points.append(self._center - (new - self._center))


# cache of growing sequences keyed by interval; the standard Gaussian has one
_UNIFORM_SEQUENCES: dict[tuple[float, float], _GrowingSequence] = {}
_GAUSSIAN_SEQUENCE: _GrowingSequence | None = None


def _uniform_sequence(a: float, b: float) -> _GrowingSequence:
    key = (float(a), float(b))
    seq = _UNIFORM_SEQUENCES.get(key)
    if seq is None:
        mid = 0.5 * (a + b)
        seq = _GrowingSequence([b, a, mid], center=mid, lo=a, hi=b, weighted=False)
        _UNIFORM_SEQUENCES[key] = seq
    return seq


def _gaussian_sequence() -> _GrowingSequence:
    global _GAUSSIAN_SEQUENCE
    if _GAUSSIAN_SEQUENCE is None:
        _GAUSSIAN_SEQUENCE = _GrowingSequence(
            [0.0], center=0.0,
            lo=-GAUSSIAN_SEARCH_HALFWIDTH, hi=GAUSSIAN_SEARCH_HALFWIDTH,
            weighted=True,
        )
    return _GAUSSIAN_SEQUENCE


def symmetric_leja(n: int, a: float, b: float) -> np.ndarray:
    """First n symmetric Leja points on [a, b], in generation order."""
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    if not a < b:
        raise ValueError(f"interval requires a < b, got [{a}, {b}]")
    return _uniform_sequence(a, b).prefix(n)


def symmetric_gaussian_leja(n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """First n symmetric Gaussian Leja points for N(mean, std^2)."""
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    if std <= 0:
        raise ValueError(f"standard deviation must be > 0, got {std}")
    return mean + std * _gaussian_sequence().prefix(n)


@dataclass(frozen=True)
class UniformLeja:
    """Symmetric Leja family on [a, b] for a uniform parameter."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def scale(self) -> float:
        return self.b - self.a

    def points(self, n: int) -> np.ndarray:
        return symmetric_leja(n, self.a, self.b)


@dataclass(frozen=True)
class GaussianLeja:
    """Symmetric weighted Leja family for a Gaussian parameter."""

    mean: float
    std: float

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError(f"standard deviation must be > 0, got {self.std}")

    @property
    def center(self) -> float:
        return self.mean

    @property
    def scale(self) -> float:
        return self.std

    def points(self, n: int) -> np.ndarray:
        return symmetric_gaussian_leja(n, self.mean, self.std)


def knots_for_level(family, level: int) -> np.ndarray:
    """First m(level) = 2*level - 1 points of the family; nested across levels."""
    return family.points(level_to_knots(level))
