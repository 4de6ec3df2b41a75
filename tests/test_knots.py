import numpy as np
import pytest

from sguq.knots import (
    REFINE_TOL,
    knots_for_level,
    level_to_knots,
    symmetric_gaussian_leja,
    symmetric_leja,
)
from sguq.surrogate import Gaussian, Uniform

from knots_reference import reference_sequence

# ---------------------------------------------------------------------------
# independent argmax oracle: dense million-point scan plus bisection on the
# derivative of the log objective (a different algorithm from the library's
# bisection of every gap between existing points)
# ---------------------------------------------------------------------------


def _oracle_argmax(points, lo, hi, weighted=False, n_cand=1_000_001):
    pts = np.asarray(points, dtype=float)

    def logf(v):
        return (-(v ** 2) / 4.0 if weighted else 0.0) + np.sum(
            np.log(np.abs(np.subtract.outer(v, pts)) + 1e-300), axis=-1)

    def dlogf(v):
        return (-v / 2.0 if weighted else 0.0) + np.sum(1.0 / (v - pts))

    cand = np.linspace(lo, hi, n_cand)
    best = int(np.argmax(logf(cand)))
    a = cand[max(best - 1, 0)]
    b = cand[min(best + 1, n_cand - 1)]
    fa, fb = dlogf(a), dlogf(b)
    if fa == 0.0:
        return a
    if fb == 0.0 or fa * fb > 0.0:
        return cand[best]
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = dlogf(m)
        if fm == 0.0 or (b - a) < 1e-14 * (hi - lo):
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _scan_refine_argmax(points, lo, hi, weighted=False, n_cand=100_001):
    # the library's former argmax: a 100001-point scan, then derivative bisection
    # in the bracket of the best candidate down to REFINE_TOL of the search width
    pts = np.asarray(points, dtype=float)

    def logf(v):
        return (-0.25 * v ** 2 if weighted else 0.0) + np.sum(
            np.log(np.abs(v[:, None] - pts[None, :]) + 1e-300), axis=1)

    def dlogf(v):
        return (-0.5 * v if weighted else 0.0) + float(np.sum(1.0 / (v - pts)))

    cand = np.linspace(lo, hi, n_cand)
    best = int(np.argmax(logf(cand)))
    a = cand[max(best - 1, 0)]
    b = cand[min(best + 1, n_cand - 1)]
    assert dlogf(a) > 0.0 > dlogf(b)
    while (b - a) > REFINE_TOL * (hi - lo):
        m = 0.5 * (a + b)
        dm = dlogf(m)
        if dm == 0.0:
            return m
        if dm > 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def oracle_symmetric_leja(n, lo, hi, argmax=_oracle_argmax):
    pts = [hi, lo, 0.5 * (lo + hi)]
    mid = 0.5 * (lo + hi)
    while len(pts) < n:
        new = argmax(pts, lo, mid)
        pts.append(new)
        if len(pts) < n:
            pts.append(mid - (new - mid))
    return np.array(pts[:n])


def oracle_symmetric_gaussian_leja(n, argmax=_oracle_argmax):
    pts = [0.0]
    while len(pts) < n:
        new = argmax(pts, -20.0, 0.0, weighted=True)
        pts.append(new)
        if len(pts) < n:
            pts.append(-new)
    return np.array(pts[:n])


def test_level_to_knots_rule():
    assert [level_to_knots(i) for i in (1, 2, 3, 4, 5)] == [1, 3, 5, 7, 9]
    with pytest.raises(ValueError):
        level_to_knots(0)


def test_first_three_uniform_points():
    pts = symmetric_leja(3, -2.0, 6.0)
    assert pts.tolist() == [6.0, -2.0, 2.0]
    assert symmetric_leja(1, -1.0, 1.0).tolist() == [1.0]


def test_uniform_oracle_match_to_1e8():
    lib = symmetric_leja(9, -1.0, 1.0)
    ora = oracle_symmetric_leja(9, -1.0, 1.0)
    assert np.max(np.abs(lib - ora)) < 1e-8


def test_gaussian_oracle_match_to_1e8():
    lib = symmetric_gaussian_leja(9)
    ora = oracle_symmetric_gaussian_leja(9)
    assert np.max(np.abs(lib - ora)) < 1e-8


@pytest.mark.parametrize("interval", [(1130.0, 1450.0), (-5.0, 0.0), (-5.0, -1.4), (0.0, 1.0),
                                      (-1.0, 1.0), (2.0, 3.5), (1e-3, 2e-3), (-100.0, 250.0),
                                      None], ids=lambda iv: "gaussian" if iv is None else str(iv))
def test_41_points_agree_with_the_former_scan(interval):
    # both refine to REFINE_TOL of the search half-width, so they agree to twice that
    if interval is None:
        lib = symmetric_gaussian_leja(41)
        ora = oracle_symmetric_gaussian_leja(41, argmax=_scan_refine_argmax)
        half_width = 20.0
    else:
        lib = symmetric_leja(41, *interval)
        ora = oracle_symmetric_leja(41, *interval, argmax=_scan_refine_argmax)
        half_width = 0.5 * (interval[1] - interval[0])
    assert np.max(np.abs(lib - ora)) <= 2.0 * REFINE_TOL * half_width


@pytest.mark.parametrize("interval", [(1130.0, 1450.0), (-5.0, 0.0), (-5.0, -1.4), (0.0, 1.0),
                                      (-1.0, 1.0), (2.0, 3.5), (1e-3, 2e-3), (-100.0, 250.0),
                                      (1000.0, 1002.0), (1e6, 1e6 + 1.0), (1450.0, 1450.001),
                                      (-3.7e5, -3.7e5 + 2e-4), (0.1, 7.3e3), None],
                         ids=lambda iv: "gaussian" if iv is None else str(iv))
def test_41_points_equal_the_array_bisection(interval):
    # the gap-by-gap bisection on floats keeps every bit of the bisection of all
    # gaps at once on arrays
    if interval is None:
        lib, ref = symmetric_gaussian_leja(41), reference_sequence(41, -20.0, 20.0, True)
    else:
        lib, ref = symmetric_leja(41, *interval), reference_sequence(41, *interval, False)
    assert np.array_equal(lib, ref)


@pytest.mark.parametrize("a, b", [(1000.0, 1002.0), (1e6, 1e6 + 1.0), (1450.0, 1450.001)])
def test_narrow_interval_far_from_zero_is_the_affine_image(a, b):
    # REFINE_TOL of these widths is below the float spacing at a and b, so the
    # bisection has to stop at adjacent floats instead
    pts = symmetric_leja(15, a, b)
    ref = 0.5 * (a + b) + 0.5 * (b - a) * symmetric_leja(15, -1.0, 1.0)
    assert np.max(np.abs(pts - ref)) <= 4.0 * np.spacing(b)


def test_gaussian_first_point_is_density_peak():
    assert symmetric_gaussian_leja(1, 0.0, 1.0).tolist() == [0.0]
    assert symmetric_gaussian_leja(1, 3.5, 2.0).tolist() == [3.5]


def test_gaussian_early_points_match_closed_forms():
    # argmax of exp(-v^2/4)|v| is sqrt(2); with the pair +-sqrt(2) present the
    # next maximizer solves v^4 - 8 v^2 + 4 = 0, i.e. |v| = 1 + sqrt(3)
    pts = symmetric_gaussian_leja(5)
    assert abs(pts[1] + np.sqrt(2.0)) < 1e-9
    assert abs(pts[2] - np.sqrt(2.0)) < 1e-9
    assert abs(pts[3] + (1.0 + np.sqrt(3.0))) < 1e-9


def test_gaussian_affine_equivariance_is_exact():
    base = symmetric_gaussian_leja(9)
    mapped = symmetric_gaussian_leja(9, mean=4.2, std=0.37)
    assert np.array_equal(mapped, 4.2 + 0.37 * base)


@pytest.mark.parametrize("family", [Uniform(-1.0, 1.0), Uniform(0.25, 9.5),
                                    Gaussian(0.0, 1.0), Gaussian(-2.0, 0.5)])
def test_nestedness_through_level_6(family):
    for level in range(1, 6):
        small = knots_for_level(family, level)
        big = knots_for_level(family, level + 1)
        assert np.array_equal(big[: len(small)], small)
        assert len(big) == len(small) + 2


@pytest.mark.parametrize("family", [Uniform(-3.0, 5.0), Gaussian(1.0, 2.0)])
def test_mirror_pairing(family):
    pts = family.points(11)
    center = family.center
    start = 3 if isinstance(family, Uniform) else 1
    for k in range(start, 10, 2):
        assert pts[k + 1] == pytest.approx(2.0 * center - pts[k], abs=1e-12 * family.scale)


def test_no_duplicate_points():
    for pts, scale in ((symmetric_leja(11, 0.0, 1.0), 1.0),
                       (symmetric_gaussian_leja(11), 1.0)):
        d = np.abs(pts[:, None] - pts[None, :]) / scale
        np.fill_diagonal(d, 1.0)
        assert d.min() > 1e-12


@pytest.mark.parametrize("weighted", [False, True])
def test_greedy_optimality_on_dense_grid(weighted):
    # no candidate on a dense grid may beat a chosen even-position point by
    # more than 1e-9 relative in the product value
    if weighted:
        pts = symmetric_gaussian_leja(9)
        lo, hi = -20.0, 20.0
    else:
        pts = symmetric_leja(9, -1.0, 1.0)
        lo, hi = -1.0, 1.0
    cand = np.linspace(lo, hi, 1_000_001)
    start = 3 if not weighted else 1
    for k in range(start, 8, 2):
        prev = pts[:k]

        def logf(v):
            return (-(v ** 2) / 4.0 if weighted else 0.0) + np.sum(
                np.log(np.abs(np.subtract.outer(v, prev)) + 1e-300), axis=-1)

        assert logf(cand).max() - logf(np.array([pts[k]]))[0] <= 1e-9


def test_knots_for_level_examples():
    fam = Uniform(0.0, 1.0)
    assert knots_for_level(fam, 1).tolist() == [1.0]
    assert knots_for_level(fam, 2).tolist() == [1.0, 0.0, 0.5]
    with pytest.raises(ValueError):
        knots_for_level(fam, 0)


def test_rejections():
    with pytest.raises(ValueError):
        symmetric_leja(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        symmetric_leja(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        symmetric_gaussian_leja(3, 0.0, 0.0)
    with pytest.raises(ValueError):
        Uniform(2.0, -2.0)
    with pytest.raises(ValueError):
        Gaussian(0.0, -1.0)
