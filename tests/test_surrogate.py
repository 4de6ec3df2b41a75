import json
import math
from pathlib import Path

import numpy as np
import pytest

from sguq.indices import (MultiIndexSet, combination_coefficients, explicit_index_set,
                          generate_index_set)
from sguq.models import beam_proxy, ishigami
from sguq.surrogate import (
    ExtrapolationWarning,
    Gaussian,
    ParameterSpace,
    Surrogate,
    Uniform,
    _basis,
    _grid_degrees,
    _recurrence,
    build_sparse_grid,
    surrogate_from_json_dict,
    surrogate_to_json_dict,
    validation_errors,
)

from lagrange_reference import TensorGrid, detail_decomposition_check, tensor_interpolate


def uniform_space(bounds):
    return ParameterSpace.from_pairs(
        [(f"v{i + 1}", Uniform(a, b)) for i, (a, b) in enumerate(bounds)])


def random_points(space, n, seed):
    rng = np.random.default_rng(seed)
    box = space.uniform_box()
    return box[0] + (box[1] - box[0]) * rng.random((n, space.n_dims))


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_gsa_grid_has_27_points():
    space = uniform_space([(-1, 1)] * 3)
    grid = build_sparse_grid(space, generate_index_set("max", 3, 1))
    assert grid.n_points == 27


def test_inverse_grid_has_25_points():
    space = uniform_space([(1130, 1450), (-5, 0)])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 3))
    assert grid.n_points == 25


def test_w0_grid_is_single_level1_knot():
    space = uniform_space([(0, 1), (-2, 4)])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 0))
    assert grid.n_points == 1
    # the first symmetric Leja point of each interval is its upper endpoint
    assert grid.points.tolist() == [[1.0, 4.0]]


def test_dimension_mismatch_rejected():
    space = uniform_space([(0, 1)] * 2)
    with pytest.raises(ValueError):
        build_sparse_grid(space, generate_index_set("sum", 3, 1))


def test_index_set_that_is_not_downward_closed_rejected():
    space = uniform_space([(0, 1)] * 2)
    with pytest.raises(ValueError, match="downward-closed"):
        build_sparse_grid(space, MultiIndexSet(kind="explicit", w=2, dim=2,
                                               indices=((1, 1), (2, 2))))


def test_grid_degrees_form_a_lower_set_of_size_m():
    space = uniform_space([(0, 1)] * 4)
    grid = build_sparse_grid(space, generate_index_set("sum", 4, 3))
    degrees = {tuple(k) for k in grid.degrees.tolist()}
    assert len(degrees) == grid.n_points
    for k in degrees:
        for n in range(4):
            if k[n] > 0:
                assert k[:n] + (k[n] - 1,) + k[n + 1:] in degrees


def test_grid_points_are_distinct():
    space = uniform_space([(0, 1)] * 3)
    grid = build_sparse_grid(space, generate_index_set("sum", 3, 4))
    d = np.abs(grid.points[:, None, :] - grid.points[None, :, :]).max(axis=2)
    np.fill_diagonal(d, 1.0)
    assert d.min() > 1e-12


@pytest.mark.parametrize("kind,dim,w,rows", [
    ("sum", 2, 3, [[0, 0], [0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [1, 0], [1, 1],
                   [1, 2], [2, 0], [2, 1], [2, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 0],
                   [4, 0], [3, 1], [3, 2], [4, 1], [4, 2], [5, 0], [6, 0]]),
    ("max", 3, 1, [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 0], [0, 1, 1], [0, 1, 2], [0, 2, 0],
                   [0, 2, 1], [0, 2, 2], [1, 0, 0], [1, 0, 1], [1, 0, 2], [1, 1, 0], [1, 1, 1],
                   [1, 1, 2], [1, 2, 0], [1, 2, 1], [1, 2, 2], [2, 0, 0], [2, 0, 1], [2, 0, 2],
                   [2, 1, 0], [2, 1, 1], [2, 1, 2], [2, 2, 0], [2, 2, 1], [2, 2, 2]]),
])
def test_grid_point_order_is_pinned(kind, dim, w, rows):
    # the order follows the tensor grids of nonzero combination coefficient;
    # surrogate.json stores the points in it, so it must not move
    grid = build_sparse_grid(uniform_space([(0, 1)] * dim), generate_index_set(kind, dim, w))
    assert grid.degrees.tolist() == rows


def _unique_table(mset):
    # the former construction: stack every tensor grid of nonzero coefficient, then
    # keep each row's first appearance with np.unique
    coeffs = combination_coefficients(mset)
    positions = np.vstack([np.indices([2 * i - 1 for i in idx]).reshape(mset.dim, -1).T
                           for idx in mset.indices if coeffs[idx] != 0])
    _, first = np.unique(positions, axis=0, return_index=True)
    return positions[np.sort(first)]


@pytest.mark.parametrize("kind", ["sum", "max"])
@pytest.mark.parametrize("dim", range(1, 9))
def test_grid_degrees_equal_the_unique_table(kind, dim):
    # every w up to 3 (sum) and 2 (max), but the 8-D max w=2 set, whose 5^8 rows
    # only make the test slow
    for w in range(4 if kind == "sum" else 3 if dim < 8 else 2):
        mset = generate_index_set(kind, dim, w)
        got, want = _grid_degrees(mset), _unique_table(mset)
        assert got.dtype == want.dtype and np.array_equal(got, want), (w, got.shape, want.shape)


# ---------------------------------------------------------------------------
# tensor interpolation
# ---------------------------------------------------------------------------


def make_tensor_grid(space, index):
    knots = tuple(d.dist.points(2 * i - 1) for d, i in zip(space.dims, index))
    return TensorGrid(index=tuple(index), knots=knots)


def test_tensor_constant_reproduction():
    space = uniform_space([(0, 1), (0, 1)])
    grid = make_tensor_grid(space, (2, 3))
    vals = np.full(grid.n_points, 4.25)
    v = random_points(space, 50, 1)
    assert np.allclose(tensor_interpolate(grid, vals, v), 4.25, rtol=0, atol=1e-13)


def test_tensor_linear_exactness():
    space = uniform_space([(-2, 3), (0, 1)])
    grid = make_tensor_grid(space, (2, 1))
    vals = grid.points()[:, 0]
    v = random_points(space, 100, 2)
    assert np.allclose(tensor_interpolate(grid, vals, v), v[:, 0], rtol=1e-13, atol=1e-13)


def test_tensor_degree2_exactness():
    space = uniform_space([(-1, 1), (-1, 1)])
    grid = make_tensor_grid(space, (2, 2))
    f = lambda p: p[:, 0] ** 2 * p[:, 1]
    vals = f(grid.points())
    v = random_points(space, 100, 3)
    assert np.allclose(tensor_interpolate(grid, vals, v), f(v), rtol=0, atol=1e-13)


def test_tensor_value_count_mismatch():
    space = uniform_space([(0, 1), (0, 1)])
    grid = make_tensor_grid(space, (2, 2))
    with pytest.raises(ValueError):
        tensor_interpolate(grid, np.zeros(5), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# combination-technique surrogate
# ---------------------------------------------------------------------------


def ishigami_surrogate(w, seed_space=None):
    space = uniform_space([(-np.pi, np.pi)] * 3)
    grid = build_sparse_grid(space, generate_index_set("sum", 3, w))
    return Surrogate.from_model(grid, ishigami, output_names=("f",)), space


def test_evaluate_reproduces_stored_values():
    sur, _ = ishigami_surrogate(3)
    got = sur.evaluate(sur.grid.points)
    ref = sur.values
    scale = np.abs(ref).max()
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_constant_surrogate_everywhere():
    space = uniform_space([(0, 2), (0, 2)])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: np.full((len(p), 1), 3.0))
    v = random_points(space, 200, 4)
    assert np.allclose(sur.evaluate(v), 3.0, rtol=0, atol=1e-12)


def test_partition_of_unity_at_1000_points():
    space = uniform_space([(-1, 1), (0, 5), (2, 3)])
    grid = build_sparse_grid(space, generate_index_set("sum", 3, 3))
    sur = Surrogate.from_model(grid, lambda p: np.ones((len(p), 1)))
    v = random_points(space, 1000, 5)
    assert np.max(np.abs(sur.evaluate(v) - 1.0)) <= 1e-12


def test_ishigami_error_decreases_with_budget():
    space = uniform_space([(-np.pi, np.pi)] * 3)
    v = random_points(space, 200, 6)
    ref = ishigami(v)
    errs = []
    for w in range(1, 6):
        grid = build_sparse_grid(space, generate_index_set("sum", 3, w))
        sur = Surrogate.from_model(grid, ishigami)
        errs.append(np.max(np.abs(sur.evaluate(v) - ref)))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


@pytest.mark.parametrize("w", [1, 2, 3])
def test_max_grid_polynomial_exactness(w):
    # m(w+1) = 2w+1 points per dimension reproduce per-dim degree <= 2w
    space = uniform_space([(-1, 1), (0.5, 2.0)])
    grid = build_sparse_grid(space, generate_index_set("max", 2, w))
    rng = np.random.default_rng(100 + w)
    c1, c2 = rng.normal(size=2 * w + 1), rng.normal(size=2 * w + 1)

    def poly(p):
        return (np.polyval(c1, p[:, 0]) * np.polyval(c2, p[:, 1]))[:, None]

    sur = Surrogate.from_model(grid, poly)
    v = random_points(space, 200, 7)
    ref = poly(v)
    assert np.max(np.abs(sur.evaluate(v) - ref)) <= 1e-10 * np.abs(ref).max()


def test_nan_value_is_rejected_with_point_name():
    space = uniform_space([(0, 1), (0, 1)])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 1))
    vals = np.ones((grid.n_points, 1))
    vals[2, 0] = np.nan
    with pytest.raises(ValueError, match="grid point 2"):
        Surrogate(grid=grid, values=vals, output_names=("f",))


def test_extrapolation_warning_outside_box():
    space = uniform_space([(0, 1), (0, 1)])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: p[:, :1])
    with pytest.warns(ExtrapolationWarning):
        sur.evaluate(np.array([1.5, 0.5]))


def test_gaussian_dims_build_and_evaluate():
    space = ParameterSpace.from_pairs([("t", Gaussian(10.0, 2.0)), ("x", Uniform(0, 1))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 3))
    assert grid.n_points == 25
    f = lambda p: (0.5 * p[:, 0] + p[:, 1] ** 2)[:, None]
    sur = Surrogate.from_model(grid, f)
    rng = np.random.default_rng(8)
    v = np.column_stack([rng.normal(10, 2, 100), rng.random(100)])
    ref = f(v)
    assert np.max(np.abs(sur.evaluate(v) - ref)) <= 1e-10 * np.abs(ref).max()


def combination_reference(sur, v):
    """Sum of c_i times the barycentric tensor Lagrange interpolants."""
    grid = sur.grid
    ids_of = {tuple(p): i for i, p in enumerate(grid.points.tolist())}
    out = np.zeros((len(v), sur.n_outputs))
    for index, c in combination_coefficients(grid.index_set).items():
        if c != 0:
            tgrid = make_tensor_grid(grid.space, index)
            # nested knots: every tensor grid point is a sparse grid point, bit for bit
            ids = [ids_of[tuple(p)] for p in tgrid.points().tolist()]
            out += c * tensor_interpolate(tgrid, sur.values[ids], v)
    return out


def sample_space(space, n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(d.dist.a, d.dist.b, n) if isinstance(d.dist, Uniform)
        else rng.normal(d.dist.mean, d.dist.std, n)
        for d in space.dims])


@pytest.mark.parametrize("space,kind,w", [
    (uniform_space([(1130, 1450), (-5, 0)]), "sum", 3),
    (uniform_space([(-np.pi, np.pi)] * 3), "sum", 6),
    (uniform_space([(-1, 1), (0.5, 2.0)]), "max", 3),
    (uniform_space([(0, 1)] * 8), "sum", 2),
    (ParameterSpace.from_pairs([("t", Gaussian(10.0, 2.0)), ("x", Uniform(0, 1))]), "sum", 3),
    (ParameterSpace.from_pairs([("t", Gaussian(0.0, 1.0))]), "sum", 8),
    (ParameterSpace.from_pairs([(f"g{i}", Gaussian(i - 1.0, 0.5 + i)) for i in range(4)]),
     "sum", 3),
])
def test_modal_evaluation_matches_combination_reference(space, kind, w):
    grid = build_sparse_grid(space, generate_index_set(kind, space.n_dims, w))

    def model(p):
        z = (p - p.mean(axis=0)) / p.std(axis=0).clip(1e-12)
        return np.column_stack([np.sin(z.sum(axis=1)), np.exp(0.3 * z[:, 0]) + z[:, -1] ** 3,
                                np.full(len(p), 2.5)])

    sur = Surrogate.from_model(grid, lambda p: model(np.vstack([p, grid.points]))[:len(p)])
    v = sample_space(space, 300, 21)
    with np.errstate(all="raise"):
        got = sur.evaluate(v)
    ref = combination_reference(sur, v)
    assert np.all(np.abs(got - ref).max(axis=0) <= 1e-12 * np.abs(ref).max(axis=0))


def modal_vandermonde(grid):
    """M x M matrix of the orthonormal product basis at the grid points, from numpy.polynomial."""
    out = np.ones((grid.n_points, grid.n_points))
    for n, d in enumerate(grid.space.dims):
        top = int(grid.degrees[:, n].max())
        k = np.arange(top + 1)
        if isinstance(d.dist, Uniform):
            t = (grid.points[:, n] - d.dist.center) / (0.5 * d.dist.scale)
            table = np.polynomial.legendre.legvander(t, top) * np.sqrt(2 * k + 1)
        else:
            t = (grid.points[:, n] - d.dist.mean) / d.dist.std
            table = np.polynomial.hermite_e.hermevander(t, top) / np.sqrt(
                [math.factorial(j) for j in k])
        out *= table[:, grid.degrees[:, n]]
    return out


def standardized_model(space):
    """Smooth outputs of the standardized point, coupling every dimension."""
    center = np.array([d.dist.center for d in space.dims])
    scale = space.scales()

    def model(p):
        z = (p - center) / scale
        return np.column_stack([np.sin(z.sum(axis=1)), np.exp(0.3 * z[:, 0]) + z[:, -1] ** 3,
                                np.prod(1.0 + 0.1 * z, axis=1)])

    return model


BEAM_3D = [(1130.0, 1450.0), (-5.0, 0.0), (-5.0, 0.0)]


@pytest.mark.parametrize("space,kind,w,beam_dims", [
    (uniform_space(BEAM_3D[:2]), "sum", 3, [0, 1]),
    (uniform_space(BEAM_3D), "max", 1, [0, 2]),
    (uniform_space(BEAM_3D[:2] + [(0.0, 1.0)] * 6), "sum", 2, [0, 1]),
    (ParameterSpace.from_pairs([(f"p{i}", Gaussian(1.0 + i, 0.05 * (i + 1))) for i in range(4)]),
     "sum", 3, None),
])
def test_modal_coefficients_match_a_dense_vandermonde_solve(space, kind, w, beam_dims):
    # the Newton construction against one dense float64 solve of the M x M modal system:
    # within 1e-13 of each output's largest coefficient
    grid = build_sparse_grid(space, generate_index_set(kind, space.n_dims, w))
    values = standardized_model(space)(grid.points)
    if beam_dims is not None:
        values = np.hstack([beam_proxy(grid.points[:, beam_dims]), values])
    got = Surrogate(grid=grid, values=values, output_names=()).modal_coefficients
    ref = np.linalg.solve(modal_vandermonde(grid), values)
    assert np.all(np.abs(got - ref).max(axis=0) <= 1e-13 * np.abs(ref).max(axis=0))


@pytest.mark.parametrize("space,mset", [
    (ParameterSpace.from_pairs([("t", Gaussian(10.0, 2.0))]), generate_index_set("sum", 1, 8)),
    (ParameterSpace.from_pairs([("t", Gaussian(0.0, 1.0)), ("x", Uniform(-1.0, 2.0))]),
     explicit_index_set([(i, 1) for i in range(1, 9)] + [(i, 2) for i in range(1, 4)])),
])
def test_modal_coefficients_at_many_gaussian_knots_match_a_40_digit_solve(space, mset):
    # 17 and 15 Gaussian knots, where the 1-D systems are worst conditioned (~1e5):
    # within 1e-13 of each output's largest coefficient
    mpmath = pytest.importorskip("mpmath")
    grid = build_sparse_grid(space, mset)
    assert grid.degrees[:, 0].max() + 1 >= 15
    values = standardized_model(space)(grid.points)
    got = Surrogate(grid=grid, values=values, output_names=()).modal_coefficients
    with mpmath.workdps(40):
        table = []
        for n, d in enumerate(space.dims):
            top = int(grid.degrees[:, n].max())
            if isinstance(d.dist, Uniform):
                center = (mpmath.mpf(d.dist.a) + d.dist.b) / 2
                half = (mpmath.mpf(d.dist.b) - d.dist.a) / 2
                b = [k / mpmath.sqrt(4 * k * k - 1) for k in range(1, top + 1)]
            else:
                center, half = mpmath.mpf(d.dist.mean), mpmath.mpf(d.dist.std)
                b = [mpmath.sqrt(k) for k in range(1, top + 1)]
            rows = []
            for x in grid.points[:, n]:
                t, phi = (mpmath.mpf(x) - center) / half, [mpmath.mpf(1)]
                for j in range(top):
                    phi.append((t * phi[j] - (b[j - 1] * phi[j - 1] if j else 0)) / b[j])
                rows.append(phi)
            table.append(rows)
        vandermonde = mpmath.matrix([[mpmath.fprod(table[n][i][k] for n, k in enumerate(row))
                                      for row in grid.degrees.tolist()]
                                     for i in range(grid.n_points)])
        ref = np.array([[float(c) for c in mpmath.lu_solve(vandermonde, mpmath.matrix(
            [mpmath.mpf(float(v)) for v in col]))] for col in values.T]).T
    assert np.all(np.abs(got - ref).max(axis=0) <= 1e-13 * np.abs(ref).max(axis=0))


def test_evaluate_rejects_a_point_array_that_is_not_1d_or_2d():
    space = uniform_space([(0.0, 1.0), (-1.0, 1.0)])
    sur = Surrogate.from_model(build_sparse_grid(space, generate_index_set("sum", 2, 2)),
                               lambda p: p[:, :1] * p[:, 1:])
    for v in (0.5, np.zeros((3, 2, 2))):
        with pytest.raises(ValueError, match="one point"):
            sur.evaluate(v)


def test_evaluation_blocks_match_single_points():
    space = uniform_space([(0, 1)] * 3)
    grid = build_sparse_grid(space, generate_index_set("sum", 3, 3))
    sur = Surrogate.from_model(
        grid, lambda p: np.column_stack([p.prod(axis=1), np.cos(p).sum(axis=1)]))
    v = random_points(space, 700, 22)
    batch = sur.evaluate(v)
    single = np.array([sur.evaluate(p) for p in v[::50]])
    assert np.allclose(batch[::50], single, rtol=1e-14, atol=1e-14)


def test_one_point_is_evaluated_as_a_batch_of_one():
    space = ParameterSpace.from_pairs([("a", Uniform(1.0, 3.0)), ("b", Gaussian(0.0, 2.0)),
                                       ("c", Uniform(-5.0, 0.0)), ("d", Gaussian(10.0, 0.5))])
    grid = build_sparse_grid(space, generate_index_set("sum", 4, 3))
    sur = Surrogate.from_model(
        grid, lambda p: np.column_stack([np.exp(0.3 * p[:, 0]) * np.sin(p[:, 1]),
                                         p[:, 2] * p[:, 3] ** 2 + p[:, 1]]
                                        + [np.cos(k * p[:, 0] + p[:, 3]) for k in range(20)]))
    for v in sample_space(space, 40, 17):
        assert np.array_equal(sur.evaluate(v), sur.evaluate(v[None])[0])


def test_derivatives_of_a_polynomial_are_exact():
    space = ParameterSpace.from_pairs([("t", Gaussian(1.0, 0.5)), ("x", Uniform(-2.0, 3.0))])
    grid = build_sparse_grid(space, generate_index_set("max", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: (p[:, 0] ** 3 * p[:, 1] + p[:, 1] ** 4)[:, None])
    t, x = 1.3, 2.9
    value, jac, hess = sur.derivatives(np.array([t, x]))
    assert value[0] == pytest.approx(t ** 3 * x + x ** 4, rel=1e-12)
    assert jac[0] == pytest.approx([3 * t ** 2 * x, t ** 3 + 4 * x ** 3], rel=1e-12)
    assert hess[0] == pytest.approx(np.array([[6 * t * x, 3 * t ** 2],
                                              [3 * t ** 2, 12 * x ** 2]]), rel=1e-11)


def test_derivatives_reject_a_point_of_the_wrong_dimension():
    # a 1-long point must not broadcast its coordinate to both dimensions
    space = uniform_space([(1130.0, 1450.0), (-5.0, 0.0)])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 3))
    sur = Surrogate.from_model(grid, lambda p: np.column_stack([p[:, 0] * p[:, 1], p[:, 1]]))
    for v in ([1300.0], [1300.0, -2.0, 0.5]):
        message = f"points have dimension {len(v)}, expected 2"
        with pytest.raises(ValueError, match=message):
            sur.evaluate(np.array(v))
        for method in (lambda v: sur.terms(v, 1), sur.derivatives):
            with pytest.raises(ValueError, match=message):
                method(np.array(v))
    with pytest.raises(ValueError, match="one point"):
        sur.derivatives(np.array([[1300.0, -2.0]]))
    for v in ([[[1300.0, -2.0]]], 1300.0):
        with pytest.raises(ValueError, match="one point"):
            sur.terms(np.array(v), 1)


def terms_jacobians(sur, v):
    """(Q, P, N) Jacobians read off ``terms(v, 1)`` at one point (Q = 1) or a batch."""
    term = sur.terms(v, 1)
    return np.stack([term(e) for e in np.eye(sur.grid.space.n_dims, dtype=int)], axis=-1)


def test_first_order_derivatives_match_second_order_ones():
    # first-order terms stop before the Hessians; the Jacobian's bits must not change
    space = ParameterSpace.from_pairs([("a", Uniform(1.0, 3.0)), ("b", Gaussian(0.0, 2.0)),
                                       ("c", Uniform(10.0, 20.0)), ("d", Uniform(0.0, 0.5))])
    grid = build_sparse_grid(space, generate_index_set("sum", 4, 3))
    sur = Surrogate.from_model(
        grid, lambda p: np.column_stack([np.exp(0.3 * p[:, 0]) * np.sin(p[:, 1]),
                                         p[:, 2] * p[:, 3] ** 2 + p[:, 1]]))
    rng = np.random.default_rng(31)
    points = np.column_stack([rng.uniform(1.0, 3.0, 5), rng.normal(0.0, 2.0, 5),
                              rng.uniform(10.0, 20.0, 5), rng.uniform(0.0, 0.5, 5)])
    for v, jac in zip(points, terms_jacobians(sur, points)):
        assert np.array_equal(jac, sur.derivatives(v)[1])


def test_a_jacobian_batch_keeps_each_points_bits():
    # each point of a batch takes its own vector-matrix product, unlike evaluate's gemm
    space = ParameterSpace.from_pairs([("a", Uniform(1.0, 3.0)), ("b", Gaussian(0.0, 2.0)),
                                       ("c", Uniform(10.0, 20.0))])
    grid = build_sparse_grid(space, generate_index_set("sum", 3, 3))
    sur = Surrogate.from_model(
        grid, lambda p: np.column_stack([np.exp(0.3 * p[:, 0]) * np.sin(p[:, 1]), p[:, 2]]
                                        + [p[:, 0] * np.cos(k * p[:, 1]) for k in range(40)]))
    rng = np.random.default_rng(8)
    points = np.column_stack([rng.uniform(1.0, 3.0, 16), rng.normal(0.0, 2.0, 16),
                              rng.uniform(10.0, 20.0, 16)])
    for q in (1, 2, 16):
        batch = terms_jacobians(sur, points[:q])
        assert batch.shape == (q, 42, 3)
        for v, jac in zip(points, batch):
            assert np.array_equal(jac, terms_jacobians(sur, v)[0])
            assert np.array_equal(jac, sur.derivatives(v)[1])


def basis_tables_loop(dists, X, degree, derivatives=0):
    """The one-step-per-degree-and-order recurrence, kept as the oracle."""
    k = np.arange(1, degree + 1, dtype=float)
    uniform = [isinstance(d, Uniform) for d in dists]
    center = np.array([0.5 * (d.a + d.b) if u else d.mean for d, u in zip(dists, uniform)])
    half = np.array([0.5 * (d.b - d.a) if u else d.std for d, u in zip(dists, uniform)])
    b = np.array([k / np.sqrt(4 * k * k - 1) if u else np.sqrt(k) for u in uniform])
    t = (np.asarray(X, dtype=float) - center) / half
    out = np.zeros((derivatives + 1,) + t.shape + (degree + 1,))
    out[0, ..., 0] = 1.0
    for j in range(degree):
        for r in range(derivatives + 1):
            nxt = t * out[r, ..., j]
            if r:
                nxt += r * out[r - 1, ..., j]
            if j:
                nxt -= b[:, j - 1] * out[r, ..., j - 1]
            out[r, ..., j + 1] = nxt / b[:, j]
    for r in range(1, derivatives + 1):
        out[r] /= half[:, None] ** r
    return out


@pytest.mark.parametrize("derivatives", [0, 1, 2])
@pytest.mark.parametrize("degree", range(1, 10))
def test_basis_tables_equal_the_loop_recurrence(degree, derivatives):
    # the per-dimension kernel has the oracle's bits for every marginal, degree
    # and derivative order
    dists = [Uniform(1130.0, 1450.0), Gaussian(10.0, 2.0), Uniform(-5.0, 0.0),
             Gaussian(0.0, 1.0)]
    rng = np.random.default_rng(degree)
    X = np.column_stack([rng.uniform(1130.0, 1450.0, 7), rng.normal(10.0, 2.0, 7),
                         rng.uniform(-5.0, 0.0, 7), rng.normal(0.0, 1.0, 7)])
    oracle = basis_tables_loop(dists, X, degree, derivatives)
    for n, dist in enumerate(dists):
        recurrence = _recurrence(dist, degree)
        assert np.array_equal(_basis(X[:, n], recurrence, derivatives), oracle[:, :, n])


# ---------------------------------------------------------------------------
# hierarchical detail decomposition
# ---------------------------------------------------------------------------


def ishigami_2d(p):
    full = np.column_stack([p[:, 0], p[:, 1], np.full(len(p), 1.234)])
    return ishigami(full)[:, 0]


def beam_first_displacement(p):
    return beam_proxy(p)[:, 0]


@pytest.mark.parametrize("fn,space,mset", [
    (lambda p: p[:, 0] + p[:, 1], uniform_space([(0, 1), (0, 1)]),
     generate_index_set("sum", 2, 2)),
    (ishigami_2d, uniform_space([(-np.pi, np.pi)] * 2),
     generate_index_set("sum", 2, 3)),
    (beam_first_displacement, uniform_space([(1130, 1450), (-5, 0)]),
     generate_index_set("sum", 2, 3)),
])
def test_detail_decomposition_equals_combination(fn, space, mset):
    assert detail_decomposition_check(space, mset, fn, n_points=50, rtol=1e-10, seed=11)


# ---------------------------------------------------------------------------
# sub-surrogates on nested grids
# ---------------------------------------------------------------------------


def restrict_model(p):
    return np.column_stack([np.sin(p.sum(axis=1)), np.exp(0.3 * p[:, 0]) * p[:, -1],
                            p[:, 0] ** 2, np.full(len(p), 2.5)])


def assert_same_surrogate(got, want):
    assert got.grid.index_set == want.grid.index_set
    assert got.output_names == want.output_names
    for field in ("points", "degrees"):
        assert np.array_equal(getattr(got.grid, field), getattr(want.grid, field))
    for field in ("values", "modal_coefficients"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("space,kind,w", [
    (uniform_space([(1130, 1450), (-5, 0)]), "sum", 4),
    (uniform_space([(1130, 1450), (-5, 0)]), "max", 2),
    (uniform_space([(0, 1)] * 4), "sum", 3),
    (ParameterSpace.from_pairs([("t", Gaussian(10.0, 2.0)), ("x", Uniform(0, 1))]), "sum", 4),
    (ParameterSpace.from_pairs([("t", Gaussian(10.0, 2.0)), ("x", Uniform(0, 1))]), "max", 3),
])
@pytest.mark.parametrize("outputs", [[0, 1, 2, 3], [2, 0]], ids=["all", "subset"])
def test_restrict_equals_a_direct_build_at_every_lower_level(space, kind, w, outputs):
    top = Surrogate.from_model(build_sparse_grid(space, generate_index_set(kind, space.n_dims, w)),
                               restrict_model, output_names=("a", "b", "c", "d"))
    for level in range(w + 1):
        mset = generate_index_set(kind, space.n_dims, level)
        direct = Surrogate.from_model(build_sparse_grid(space, mset),
                                      lambda p: restrict_model(p)[:, outputs],
                                      output_names=[top.output_names[k] for k in outputs])
        assert_same_surrogate(top.restrict(mset, outputs), direct)


def test_restrict_to_an_explicit_lower_set_equals_a_direct_build():
    space = ParameterSpace.from_pairs([("t", Gaussian(0.0, 1.0)), ("x", Uniform(-1, 1)),
                                       ("y", Uniform(2, 3))])
    top = Surrogate.from_model(build_sparse_grid(space, generate_index_set("sum", 3, 3)),
                               restrict_model)
    mset = explicit_index_set([(1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1), (2, 2, 1), (1, 1, 2)])
    direct = Surrogate.from_model(build_sparse_grid(space, mset),
                                  lambda p: restrict_model(p)[:, [1]], output_names=["f1"])
    assert_same_surrogate(top.restrict(mset, [1]), direct)


@pytest.mark.parametrize("mset", [
    generate_index_set("sum", 2, 3),
    generate_index_set("max", 2, 2),
    explicit_index_set([(1, 1), (2, 1), (3, 1), (4, 1)]),
    generate_index_set("sum", 3, 1),
    generate_index_set("sum", 1, 1),
], ids=["higher_level", "max_over_sum", "longer_fiber", "more_dims", "fewer_dims"])
def test_restrict_to_a_set_that_is_not_nested_is_rejected(mset):
    space = uniform_space([(1130, 1450), (-5, 0)])
    top = Surrogate.from_model(build_sparse_grid(space, generate_index_set("sum", 2, 2)),
                               restrict_model)
    with pytest.raises(ValueError, match="not nested"):
        top.restrict(mset, [0])


# ---------------------------------------------------------------------------
# validation metrics
# ---------------------------------------------------------------------------


def test_validation_zero_for_identical_model():
    sur, space = ishigami_surrogate(4)
    samples = random_points(space, 30, 12)
    err = validation_errors(sur, lambda p: sur.evaluate(p), samples)
    assert np.all(err.e_ppe == 0.0) and np.all(err.e_mse == 0.0)


def test_validation_single_sample_formula():
    # constant-1 surrogate vs reference 2: both metrics are |2-1|/|2| = 0.5
    space = uniform_space([(0, 1)])
    grid = build_sparse_grid(space, generate_index_set("sum", 1, 0))
    sur = Surrogate.from_model(grid, lambda p: np.ones((len(p), 1)))
    err = validation_errors(sur, np.array([[2.0]]), np.array([[0.3]]))
    assert err.e_ppe[0] == pytest.approx(0.5)
    assert err.e_mse[0] == pytest.approx(0.5)


def test_validation_beam_proxy_converges_below_percent():
    space = uniform_space([(1130, 1450), (-5, 0)])
    samples = random_points(space, 50, 13)
    disp = lambda p: beam_proxy(p)[:, :9]
    prev = None
    for w in range(4):
        grid = build_sparse_grid(space, generate_index_set("sum", 2, w))
        sur = Surrogate.from_model(grid, disp)
        err = validation_errors(sur, disp, samples)
        if prev is not None:
            assert np.all(err.e_ppe < prev.e_ppe)
            assert np.all(err.e_mse < prev.e_mse)
        prev = err
    assert np.all(prev.e_ppe < 1e-2)


def test_validation_skips_zero_reference_samples():
    space = uniform_space([(-1, 1)])
    grid = build_sparse_grid(space, generate_index_set("sum", 1, 2))
    f = lambda p: p[:, :1]  # crosses zero at v = 0
    sur = Surrogate.from_model(grid, f)
    samples = np.array([[0.5], [0.0], [-0.25]])
    err = validation_errors(sur, f, samples)
    assert (1, 0) in err.skipped
    assert np.isfinite(err.e_ppe).all()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_surrogate_json_round_trip_is_exact():
    space = ParameterSpace.from_pairs([("t", Gaussian(3.0, 0.5)), ("x", Uniform(-5, 0))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 1] ** 3]),
                               output_names=("s", "c"))
    blob = json.dumps(surrogate_to_json_dict(sur))
    back = surrogate_from_json_dict(json.loads(blob))
    assert np.array_equal(back.grid.points, sur.grid.points)
    assert np.array_equal(back.values, sur.values)
    assert back.output_names == sur.output_names
    v = np.array([3.1, -2.0])
    assert back.evaluate(v).tolist() == sur.evaluate(v).tolist()


def gaussian_uniform_surrogate_json():
    space = ParameterSpace.from_pairs([("t", Gaussian(3.0, 0.5)), ("x", Uniform(-5, 0))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    return surrogate_to_json_dict(Surrogate.from_model(
        grid, lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 1] ** 3])))


def test_surrogate_json_with_a_moved_point_is_rejected():
    # point 7 has degrees [1, 1]; point 1 has x-degree 1 too, so the two disagree on its knot
    data = gaussian_uniform_surrogate_json()
    data["points"][7][1] += 2e-10
    with pytest.raises(ValueError, match="one finite knot per degree"):
        surrogate_from_json_dict(data)


def test_surrogate_json_with_the_only_point_of_a_degree_moved_loads_as_stored():
    # point 3 is the only point of x-degree 3: moving it gives another valid grid
    data = gaussian_uniform_surrogate_json()
    data["points"][3][1] += 0.25
    sur = surrogate_from_json_dict(data)
    assert sur.grid.points.tolist() == data["points"]
    assert np.allclose(sur.evaluate(np.array(data["points"])),
                       np.array(data["values"]).T, rtol=1e-13, atol=1e-12)


def test_surrogate_json_loads_without_a_knot_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("knot search on load")

    data = gaussian_uniform_surrogate_json()
    monkeypatch.setattr("sguq.surrogate.knots_for_level", no_search)
    assert surrogate_from_json_dict(data).grid.points.tolist() == data["points"]


def test_surrogate_json_from_version_0_1_loads_and_evaluates():
    # written by sguq 0.1.0, which stored the values and evaluated them by the
    # combination technique; the evaluations are that version's own
    data = Path(__file__).parent / "data"
    sur = surrogate_from_json_dict(json.loads((data / "surrogate_v0.json").read_text()))
    expected = json.loads((data / "surrogate_v0_evaluations.json").read_text())
    ref = np.array(expected["values"])
    got = sur.evaluate(np.array(expected["points"]))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.abs(ref).max()
    # read at its stored points, not at rebuilt knots up to 1.1e-11 away
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.abs(ref).max()
