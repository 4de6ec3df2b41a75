"""Nested univariate collocation sequences: symmetric Leja points.

Two families are provided, one per parameter distribution; ``surrogate.Uniform``
and ``surrogate.Gaussian`` each pick theirs in ``points(n)``:

* ``symmetric_leja(n, a, b)``: symmetric Leja points on an interval.  The
  first three points are b, a, (a+b)/2; afterwards even-position points
  maximize the distance product prod |v - v_k| over [a, b] and each
  odd-position point mirrors the preceding one about the midpoint.

* ``symmetric_gaussian_leja(n, mean, std)``: weighted symmetric Leja points
  for a Gaussian density.  Computed once on the standard normal by maximizing
  sqrt(rho(v)) * prod |v - v_k|, then mapped affinely by v -> mean + std * v.
  The first point is the density peak; even/odd positions alternate between
  weighted maximization and mirroring about the mean.

Both constructions are greedy, so the first m points of a longer sequence
coincide bit-for-bit with a shorter one (nestedness).  The level-to-knots
map is m(i) = 2i - 1: each level adds one mirrored pair.

The inner argmax needs no candidate scan.  The log objective is strictly
concave between neighbouring existing points, so each such gap holds exactly
one maximizer, where the derivative of the log objective falls from +inf to
-inf.  Every gap is bisected on that derivative down to REFINE_TOL of the
search width (value-based refinement such as golden section stalls near
sqrt(machine eps) because the objective is locally flat; the derivative
crosses zero steeply), and the gap root with the largest objective
wins.  The bisection runs on Python floats, one gap at a time: a step
reads a few values, so numpy's per-call overhead would cost more than its
arithmetic, and over about 45 steps per gap that overhead was most of a
stage's grid build.  From 8 points on, the float loop sums the derivative's
terms in another order than numpy's row reduction, but the bisection reads
only the sign, and the derivative is steep at the root, so the points keep
the bits of the array bisection of all gaps at once; numpy keeps the one
argmax of the log objective that picks the winning gap.  Before every even
step the existing point set is symmetric, so the objective is symmetric about
the center; searching only the left half [a, center] is then equivalent to a
global search with ties broken toward the smaller coordinate, and is
numerically deterministic.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "level_to_knots",
    "knots_for_level",
    "symmetric_leja",
    "symmetric_gaussian_leja",
]

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


class _GrowingSequence:
    """Greedy Leja sequence on [lo, hi] that extends lazily and caches every prefix.

    The uniform sequence starts hi, lo, center; the weighted (Gaussian) one
    starts at the center, the density peak.
    """

    def __init__(self, lo: float, hi: float, weighted: bool):
        self._center = 0.5 * (lo + hi)
        self._points = [self._center] if weighted else [hi, lo, self._center]
        self._lo = lo
        self._weighted = weighted

    def prefix(self, n: int) -> np.ndarray:
        while len(self._points) < n:
            self._grow()
        return np.array(self._points[:n])

    def _grow(self):
        pts = np.array(self._points)
        # the Gaussian weight sqrt(rho(v)) contributes -v^2/4 to the log objective
        w = 0.25 if self._weighted else 0.0
        # point set is symmetric here; the left half holds a global maximizer, and
        # the existing points in it cut it into gaps of one local maximizer each
        edges = np.unique(np.append(pts[pts < self._center], [self._lo, self._center])).tolist()
        tol = REFINE_TOL * (self._center - self._lo)
        roots = np.array([self._gap_root(a, b, w, tol) for a, b in zip(edges, edges[1:])])
        # the root with the largest log objective wins, the leftmost on a tie
        logf = -w * roots ** 2 + np.sum(np.log(np.abs(roots[:, None] - pts)), axis=1)
        new = float(roots[np.argmax(logf)])
        self._points.append(new)
        self._points.append(self._center - (new - self._center))

    def _gap_root(self, a: float, b: float, w: float, tol: float) -> float:
        """Maximizer of the log objective on the gap [a, b], where it is strictly concave.

        The gap is bisected on the sign of the objective's derivative down to width
        ``tol``, or to adjacent floats where ``tol`` is below their spacing (a narrow
        interval far from zero).  An outer gap whose end is no existing point
        converges to that end if the derivative is negative there, which is then
        the maximizer on the gap.
        """
        m = 0.5 * (a + b)
        while b - a > tol and a < m < b:
            s = 0.0
            for p in self._points:
                s += 1.0 / (m - p)
            dm = -2.0 * w * m + s
            if dm >= 0.0:
                a = m
            if dm <= 0.0:
                b = m
            m = 0.5 * (a + b)
        return m


@functools.cache
def _sequence(lo: float, hi: float, weighted: bool) -> _GrowingSequence:
    """The one growing sequence per interval and family; the Gaussian one is standard."""
    return _GrowingSequence(lo, hi, weighted)


def symmetric_leja(n: int, a: float, b: float) -> np.ndarray:
    """First n symmetric Leja points on [a, b], in generation order."""
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    if not a < b:
        raise ValueError(f"interval requires a < b, got [{a}, {b}]")
    return _sequence(float(a), float(b), False).prefix(n)


def symmetric_gaussian_leja(n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """First n symmetric Gaussian Leja points for N(mean, std^2)."""
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    if std <= 0:
        raise ValueError(f"standard deviation must be > 0, got {std}")
    return mean + std * _sequence(-GAUSSIAN_SEARCH_HALFWIDTH, GAUSSIAN_SEARCH_HALFWIDTH,
                                  True).prefix(n)


def knots_for_level(dist, level: int) -> np.ndarray:
    """First m(level) = 2*level - 1 knots of a distribution; nested across levels.

    ``dist`` is a ``surrogate.Uniform`` or ``surrogate.Gaussian``, whose
    ``points(n)`` picks its family.
    """
    return dist.points(level_to_knots(level))
