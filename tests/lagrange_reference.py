"""Barycentric tensor Lagrange interpolation: the independent reference for the modal surrogate.

``sguq.surrogate`` evaluates a sparse grid through one modal form.  The tests
check it against the combination technique written out the long way: each
tensor grid's barycentric Lagrange interpolant, weighted by its combination
coefficient (``tensor_interpolate``), and the same sum regrouped as
hierarchical details (``detail_decomposition_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from sguq.indices import MultiIndexSet, combination_coefficients
from sguq.knots import knots_for_level
from sguq.surrogate import ParameterSpace


@dataclass(frozen=True)
class TensorGrid:
    """Cartesian grid of one multi-index: per-dim knots in generation order."""

    index: tuple[int, ...]
    knots: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.knots)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """(n_points, N) array in C order of the knot axes."""
        mesh = np.meshgrid(*self.knots, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


def _lagrange_rows(knots: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Barycentric cardinal-function values; rows sum to 1, exact at knots."""
    diff = knots[:, None] - knots[None, :]
    np.fill_diagonal(diff, 1.0)
    weights = 1.0 / np.prod(diff, axis=1)
    diff = v[:, None] - knots[None, :]
    exact = diff == 0.0
    num = weights[None, :] / np.where(exact, 1.0, diff)
    hit = exact.any(axis=1)
    if hit.any():
        num[hit] = exact[hit]
    return num / num.sum(axis=1, keepdims=True)


def tensor_interpolate(grid: TensorGrid, values: np.ndarray,
                       v: np.ndarray) -> np.ndarray:
    """Evaluate the tensor-product Lagrange interpolant of one grid.

    Parameters
    ----------
    grid : TensorGrid
    values : array
        Model values at the grid's points, shape (n_points,) or (n_points, P).
    v : array
        Evaluation points, shape (N,) or (Q, N).
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    V = v[None, :] if single else v
    vals = np.asarray(values, dtype=float)
    scalar_output = vals.ndim == 1
    if scalar_output:
        vals = vals[:, None]
    if vals.shape[0] != grid.n_points:
        raise ValueError(
            f"expected {grid.n_points} values for grid {grid.index}, got {vals.shape[0]}")
    out = vals.reshape(grid.shape + (vals.shape[1],))
    for n, knots in enumerate(grid.knots):
        rows = _lagrange_rows(knots, V[:, n])
        out = np.einsum("qa,a...->q...", rows, out) if n == 0 else \
            np.einsum("qa,qa...->q...", rows, out)
    if scalar_output:
        out = out[:, 0]
    return out[0] if single else out


def detail_decomposition_check(space: ParameterSpace, mset: MultiIndexSet, f,
                               n_points: int = 50, rtol: float = 1e-10,
                               seed: int = 0) -> bool:
    """Verify the hierarchical-surplus form equals the combination technique.

    Both express the same sparse approximation: the sum over the index set of
    multivariate detail operators (each expanded with alternating signs over
    the 0/1 shift cube) must match the coefficient-weighted sum of tensor
    interpolants at random points.  Intended for small sets and cheap f.
    """
    if mset.dim != space.n_dims:
        raise ValueError("index set and space dimensions differ")
    interpolants: dict[tuple[int, ...], tuple[TensorGrid, np.ndarray]] = {}
    for idx in mset.indices:
        knots = tuple(knots_for_level(d.dist, i) for d, i in zip(space.dims, idx))
        grid = TensorGrid(index=idx, knots=knots)
        fv = np.asarray(f(grid.points()), dtype=float).reshape(grid.n_points)
        interpolants[idx] = (grid, fv)

    rng = np.random.default_rng(seed)
    box = space.uniform_box()
    V = box[0] + (box[1] - box[0]) * rng.random((n_points, space.n_dims))

    def tensor_eval(idx):
        if any(c < 1 for c in idx):
            return np.zeros(len(V))
        grid, fv = interpolants[idx]
        return tensor_interpolate(grid, fv, V)

    coeffs = combination_coefficients(mset)
    combi = np.zeros(len(V))
    for idx, c in coeffs.items():
        if c != 0:
            combi += c * tensor_eval(idx)

    shifts = list(product((0, 1), repeat=mset.dim))
    hier = np.zeros(len(V))
    for idx in mset.indices:
        for j in shifts:
            sub = tuple(a - b for a, b in zip(idx, j))
            sign = -1.0 if sum(j) % 2 else 1.0
            hier += sign * tensor_eval(sub)

    scale = np.maximum(np.abs(combi), 1e-300)
    return bool(np.all(np.abs(hier - combi) / scale <= rtol))
