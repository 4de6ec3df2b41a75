"""The array bisection that ``sguq.knots`` replaced, kept only as the oracle.

``tests/test_knots.py`` checks that the library's sequences equal these bit for
bit.  Each growth step bisects every gap of the left half at once on numpy
arrays, with the derivative of the log objective summed by numpy's row
reduction; the library bisects one gap at a time on Python floats.
"""

import numpy as np

from sguq.knots import REFINE_TOL


def _argmax_per_gap(logf, dlogf, edges: np.ndarray, tol: float) -> float:
    """Maximizer of logf on [edges[0], edges[-1]], strictly concave on every gap.

    Each gap between neighbouring edges is bisected on the sign of dlogf down to
    width ``tol``, or to adjacent floats where ``tol`` is below their spacing.
    The root with the largest logf wins, the leftmost on a tie.
    """
    a, b = edges[:-1], edges[1:]
    while True:
        m = 0.5 * (a + b)
        active = (b - a > tol) & (a < m) & (m < b)
        if not active.any():
            break
        dm = dlogf(m)
        a = np.where(active & (dm >= 0.0), m, a)
        b = np.where(active & (dm <= 0.0), m, b)
    roots = 0.5 * (a + b)
    return float(roots[np.argmax(logf(roots))])


def reference_sequence(n: int, lo: float, hi: float, weighted: bool) -> np.ndarray:
    """First n points of the greedy symmetric sequence on [lo, hi].

    The uniform sequence starts hi, lo, center; the weighted (Gaussian) one starts
    at the center and maximizes sqrt(rho(v)) prod |v - v_k| for the standard normal.
    """
    center = 0.5 * (lo + hi)
    points = [center] if weighted else [hi, lo, center]
    w = 0.25 if weighted else 0.0
    while len(points) < n:
        pts = np.array(points)

        def logf(v):
            return -w * v ** 2 + np.sum(np.log(np.abs(v[:, None] - pts)), axis=1)

        def dlogf(v):
            return -2.0 * w * v + np.sum(1.0 / (v[:, None] - pts), axis=1)

        edges = np.unique(np.append(pts[pts < center], [lo, center]))
        new = _argmax_per_gap(logf, dlogf, edges, REFINE_TOL * (center - lo))
        points.append(new)
        points.append(center - (new - center))
    return np.array(points[:n])
