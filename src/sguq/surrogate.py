"""Sparse-grid construction and modal sparse-grid surrogates.

A sparse grid is selected by a downward-closed multi-index set of levels.
The knots are nested Leja sequences, so every point has a per-dimension
position in its sequence, and these positions form a lower set Lambda of
polynomial degrees with |Lambda| = M points.  The interpolant is the unique
one in the span of the degrees in Lambda (Chkifa, Cohen & Schwab, FoCM 2014),
the same one the combination technique sums from tensor interpolants; it is
built here without them.  Combination coefficients only fix the order of the
points (first appearance in the tensor grids of nonzero coefficient, in
index-set order) and are written with the serialized index set.

A grid is stored as its M points and their degrees.  A saved surrogate is
read back as its stored points and values, with the degrees of its index set;
no knot is searched for again.  The surrogate on a lower set nested in a grid
is read off that grid's rows the same way (``Surrogate.restrict``).  A
surrogate stores its interpolant once, as coefficients in a product basis
that is orthonormal per dimension: Legendre polynomials for a uniform
parameter, probabilists' Hermite polynomials for a Gaussian one.  They are
computed in Newton form on Lambda: divided differences along the fibers of
each axis, then one Newton -> orthonormal change of basis per axis.
Evaluation, Jacobians, Hessians and that change of basis use one three-term
recurrence per dimension, on a column of points and on constants fixed when
the surrogate is built.

The surrogate of a P-valued model stores one value vector per global grid
point, so any number of outputs share a single set of model runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, product

import numpy as np

from .indices import (
    MultiIndexSet,
    combination_coefficients,
    index_set_from_json_dict,
    index_set_to_json_dict,
)
from .knots import knots_for_level, level_to_knots, symmetric_gaussian_leja, symmetric_leja

__all__ = [
    "Uniform",
    "Gaussian",
    "Dim",
    "ParameterSpace",
    "SparseGrid",
    "Surrogate",
    "ExtrapolationWarning",
    "build_sparse_grid",
    "validation_errors",
    "ValidationErrors",
    "surrogate_to_json_dict",
    "surrogate_from_json_dict",
]

#: two distinct knots closer than this (relative to the per-dim scale) are an error
DEDUP_RTOL = 1e-12
#: points per block in batch evaluation; bounds the (block x M) basis matrix
EVAL_BLOCK_ROWS = 256


class ExtrapolationWarning(UserWarning):
    """A surrogate was evaluated outside the box of a uniform parameter."""


@dataclass(frozen=True)
class Uniform:
    """Uniform parameter on [a, b]; its knots are symmetric Leja points."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"uniform range requires finite a < b, got [{self.a}, {self.b}]")

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def scale(self) -> float:
        return self.b - self.a

    def points(self, n: int) -> np.ndarray:
        return symmetric_leja(n, self.a, self.b)


@dataclass(frozen=True)
class Gaussian:
    """Gaussian parameter N(mean, std^2); its knots are weighted symmetric Leja points."""

    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std) and self.std > 0):
            raise ValueError(f"gaussian requires a finite mean and a finite std > 0, "
                             f"got mean {self.mean}, std {self.std}")

    @property
    def center(self) -> float:
        return self.mean

    @property
    def scale(self) -> float:
        return self.std

    def points(self, n: int) -> np.ndarray:
        return symmetric_gaussian_leja(n, self.mean, self.std)


@dataclass(frozen=True)
class Dim:
    name: str
    dist: Uniform | Gaussian


@dataclass(frozen=True)
class ParameterSpace:
    """Ordered uncertain parameters; the distribution fixes the knot family."""

    dims: tuple[Dim, ...]

    def __post_init__(self):
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in {names}")

    @classmethod
    def from_pairs(cls, pairs) -> "ParameterSpace":
        return cls(dims=tuple(Dim(name, dist) for name, dist in pairs))

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    def is_all_uniform(self) -> bool:
        return all(isinstance(d.dist, Uniform) for d in self.dims)

    def uniform_box(self) -> np.ndarray:
        """(2, N) array of lower/upper bounds; requires all dims uniform."""
        if not self.is_all_uniform():
            raise ValueError("parameter box is only defined when all dims are uniform")
        return np.array([[d.dist.a for d in self.dims], [d.dist.b for d in self.dims]])

    def scales(self) -> np.ndarray:
        """Per-dim length scale: interval width or std."""
        return np.array([d.dist.scale for d in self.dims])


@dataclass(frozen=True)
class SparseGrid:
    """The points of a downward-closed index set and their lower set of degrees.

    Point i sits at position ``degrees[i, n]`` of dimension n's nested knots,
    also its modal degree.  Construction checks that each degree's points share
    one finite knot per dimension, at least DEDUP_RTOL of its scale from the others.
    """

    space: ParameterSpace
    index_set: MultiIndexSet
    points: np.ndarray                            # (M, N)
    degrees: np.ndarray                           # (M, N) per-dim knot position

    def __post_init__(self):
        if self.points.shape != self.degrees.shape or self.degrees.shape[1] != self.space.n_dims:
            raise ValueError(f"{self.points.shape} points and {self.degrees.shape} degrees "
                             f"do not fit a space of dimension {self.space.n_dims}")
        for n, scale in enumerate(self.space.scales()):
            knots = self.knots(n)
            if not (np.array_equal(self.points[:, n], knots[self.degrees[:, n]])
                    and np.isfinite(knots).all()
                    and np.all(np.diff(np.sort(knots)) >= DEDUP_RTOL * scale)):
                raise ValueError(
                    f"the points of dimension {self.space.names[n]!r} are not one finite knot "
                    f"per degree, at least {DEDUP_RTOL} relative distance apart")

    @property
    def n_points(self) -> int:
        return len(self.points)

    def knots(self, n: int) -> np.ndarray:
        """Dimension n's knots by degree: the coordinate of its points of degree 0, 1, ..."""
        return self.points[np.unique(self.degrees[:, n], return_index=True)[1], n]


def build_sparse_grid(space: ParameterSpace, mset: MultiIndexSet) -> SparseGrid:
    """Assemble the sparse grid for a space and a downward-closed index set."""
    degrees = _grid_degrees(mset)
    # nested sequences: every grid's knots are prefixes of these, bit for bit
    sequences = [knots_for_level(d.dist, int(t))
                 for d, t in zip(space.dims, np.max(mset.indices, axis=0))]
    points = np.column_stack([seq[degrees[:, n]] for n, seq in enumerate(sequences)])
    return SparseGrid(space=space, index_set=mset, points=points, degrees=degrees)


def _grid_degrees(mset: MultiIndexSet) -> np.ndarray:
    """(M, N) per-dim knot positions, also modal degrees, of a grid's points, in stored order.

    Global ids follow the points' first appearance in the tensor grids of
    nonzero combination coefficient, the order surrogate.json is written in.
    """
    coeffs = combination_coefficients(mset)
    first = dict.fromkeys(chain.from_iterable(product(*(range(level_to_knots(i)) for i in idx))
                                              for idx in mset.indices if coeffs[idx] != 0))
    return np.array(list(first), dtype=int)


def _recurrence(dist, degree: int) -> tuple[float, float, list[float]]:
    """Center, half-width and b_1..b_degree of a marginal's orthonormal 1-D basis.

    On t = (x - center) / half, t phi_k = b_{k+1} phi_{k+1} + b_k phi_{k-1} with
    b_k = k / sqrt(4k^2 - 1) (Legendre) or b_k = sqrt(k) (probabilists' Hermite).
    """
    ks = range(1, degree + 1)
    if isinstance(dist, Uniform):
        return dist.center, 0.5 * dist.scale, [k / math.sqrt(4 * k * k - 1) for k in ks]
    return dist.center, dist.scale, [math.sqrt(k) for k in ks]


def _basis(x: np.ndarray, recurrence, derivatives: int = 0) -> np.ndarray:
    """phi_0..phi_K of a marginal's `_recurrence` and their derivatives at the 1-D array x.

    The result has shape (derivatives + 1, len(x), K + 1).  Differentiating the
    recurrence r times adds r phi_k^(r-1) to its left-hand side.
    """
    center, half, b = recurrence
    t = (x - center) / half
    one = np.ones_like(t)
    # phi[r][k]: the r-th derivative in t of phi_k
    phi = [[one if r == 0 else 0.0 * one] + [None] * len(b) for r in range(derivatives + 1)]
    for j, bj in enumerate(b):
        for r, row in enumerate(phi):
            nxt = t * row[j]
            if r:
                nxt += r * phi[r - 1][j]
            if j:
                nxt -= b[j - 1] * row[j - 1]
            row[j + 1] = nxt / bj
    scale = 1.0
    for r in range(1, derivatives + 1):
        scale *= half  # half ** r as numpy squares it; pow() may round otherwise
        phi[r] = [p / scale for p in phi[r]]
    return np.array(phi).swapaxes(1, -1)


def _fibers(degrees: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """(m, ids) per fiber length m > 1 along axis n: ids[f, k] is fiber f's point of degree k.

    A fiber shares every degree but the n-th; in a lower set it holds 0..m-1.
    """
    # sorted by the other degrees, then by degree n, each fiber is a run from degree 0
    order = np.lexsort(np.vstack([degrees[:, n], np.delete(degrees, n, axis=1).T]))
    starts = np.flatnonzero(degrees[order, n] == 0)
    lengths = np.diff(starts, append=len(order))
    return [(m, order[starts[lengths == m, None] + np.arange(m)])
            for m in np.unique(lengths) if m > 1]


def _modal_coefficients(grid: SparseGrid, values: np.ndarray, recurrences) -> np.ndarray:
    """Coefficients of the interpolant on the lower set of degrees, in the modal basis.

    Row i belongs to the degree multi-index grid.degrees[i].  In the Newton
    basis prod_n prod_{j < alpha_n} (t_n - t^n_j) the interpolation matrix on a
    lower set factors into triangular 1-D matrices, one per axis, applied along
    its fibers.  Pass 1, divided differences, must end on every axis before
    pass 2, Newton -> orthonormal, starts: merged per fiber, they are exact
    only on tensor grids.  Forward substitution keeps a constant fiber's
    differences exactly zero; at 17 Gaussian knots it was within 2e-16 of a
    50-digit solve, and a pivoted LU solve within 8e-14.
    """
    fibers = [_fibers(grid.degrees, n) for n in range(grid.degrees.shape[1])]
    out = values.copy()
    newton, change = [], []
    for n, (center, half, b) in enumerate(recurrences):
        t = (grid.knots(n) - center) / half
        # newton[i, j] = prod_{l < j} (t_i - t_l); column j of T is that product in phi_0..phi_K
        newton.append(np.cumprod(np.column_stack([np.ones_like(t), t[:, None] - t[:-1]]), axis=1))
        jacobi, T = np.diag(b, 1) + np.diag(b, -1), np.eye(len(t))
        for k in range(len(t) - 1):
            T[:, k + 1] = jacobi @ T[:, k] - t[k] * T[:, k]
        change.append(T)
    for n, groups in enumerate(fibers):
        for m, ids in groups:
            block, lower = out[ids], newton[n]
            for k in range(1, m):  # row 0 of the Newton matrix is (1, 0, ...)
                block[:, k] = (block[:, k] - lower[k, :k] @ block[:, :k]) / lower[k, k]
            out[ids] = block
    for n, groups in enumerate(fibers):
        for m, ids in groups:
            out[ids] = change[n][:m, :m] @ out[ids]
    return out


@dataclass
class Surrogate:
    """Sparse-grid surrogate: grid, one value row per global point, modal form.

    ``values`` has shape (M, P): M global points, P outputs.  On construction
    the values are converted once into ``modal_coefficients`` (M, P), row i
    for the degree multi-index ``grid.degrees[i]``, and each dimension's
    recurrence constants (center, half-width or std, b_k up to its top degree)
    are fixed; every evaluation uses both.  The instance is treated as
    immutable once constructed; evaluation is reentrant.
    """

    grid: SparseGrid
    values: np.ndarray
    output_names: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != self.grid.n_points:
            raise ValueError(
                f"values rows ({self.values.shape[0]}) must match grid points ({self.grid.n_points})")
        if not self.output_names:
            self.output_names = tuple(f"f{k}" for k in range(self.values.shape[1]))
        if len(self.output_names) != self.values.shape[1]:
            raise ValueError("output_names length must match value columns")
        bad = ~np.isfinite(self.values)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise ValueError(
                f"non-finite value for output {self.output_names[k]!r} at grid point "
                f"{i} = {self.grid.points[i].tolist()}")
        self._recurrences = [_recurrence(d.dist, top) for d, top
                             in zip(self.grid.space.dims, self.grid.degrees.max(axis=0))]
        self.modal_coefficients = _modal_coefficients(self.grid, self.values, self._recurrences)

    @property
    def n_outputs(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_model(cls, grid: SparseGrid, model_fn, output_names=()) -> "Surrogate":
        """Fill values by calling model_fn once on all global points."""
        return cls(grid=grid, values=model_fn(grid.points), output_names=tuple(output_names))

    def _points(self, v) -> np.ndarray:
        """One point (N,) or a batch (Q, N), checked, as a (Q, N) float batch."""
        v = np.asarray(v, dtype=float)
        ndim = self.grid.space.n_dims
        if v.ndim not in (1, 2):
            raise ValueError(f"takes one point ({ndim},) or a batch (Q, {ndim}), got {v.shape}")
        if v.shape[-1] != ndim:
            raise ValueError(f"points have dimension {v.shape[-1]}, expected {ndim}")
        return np.atleast_2d(v)

    def _rows(self, X: np.ndarray, derivatives: int = 0) -> list[np.ndarray]:
        """Per dim n: basis (and derivatives) at the column X[n], per degree row."""
        return [_basis(xn, recurrence, derivatives)[..., deg] for xn, recurrence, deg
                in zip(X, self._recurrences, self.grid.degrees.T)]

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        """Evaluate the interpolant: modal basis rows times the coefficients.

        Accepts one point (N,), as a batch of one, or a batch (Q, N); returns (P,)
        or (Q, P).  A batch is one matrix product: a point's row may differ from
        its value alone in the last bits, where ``terms`` keeps them.  Points
        outside a uniform parameter's interval are evaluated by polynomial
        extrapolation and flagged with ExtrapolationWarning.
        """
        V = self._points(v)
        for n, d in enumerate(self.grid.space.dims):
            if isinstance(d.dist, Uniform) and np.any((V[:, n] < d.dist.a) | (V[:, n] > d.dist.b)):
                warnings.warn(f"evaluating surrogate outside [{d.dist.a}, {d.dist.b}] in "
                              f"dimension {d.name!r}: polynomial extrapolation",
                              ExtrapolationWarning, stacklevel=2)

        out = np.empty((len(V), self.n_outputs))
        for start in range(0, len(V), EVAL_BLOCK_ROWS):
            rows = math.prod(f[0] for f in self._rows(V[start:start + EVAL_BLOCK_ROWS].T))
            out[start:start + EVAL_BLOCK_ROWS] = rows @ self.modal_coefficients
        return out[0] if np.ndim(v) == 1 else out

    def restrict(self, mset: MultiIndexSet, outputs) -> "Surrogate":
        """The surrogate of the columns ``outputs`` on the grid of ``mset``, nested in this one.

        The knots are nested, so the points of a lower set's grid are rows of this
        grid: their points and values are read off here, in the order a direct
        build gives them, with no knot search and no model call.
        """
        rows = {deg: i for i, deg in enumerate(map(tuple, self.grid.degrees.tolist()))}
        degrees = _grid_degrees(mset)
        ids = [rows.get(deg) for deg in map(tuple, degrees.tolist())]
        if None in ids:
            top = self.grid.index_set
            raise ValueError(f"the {mset.kind!r} set of level w={mset.w} is not nested in "
                             f"the {top.kind!r} grid of level w={top.w}")
        grid = SparseGrid(space=self.grid.space, index_set=mset,
                          points=self.grid.points[ids], degrees=degrees)
        return Surrogate(grid=grid, values=self.values[np.ix_(ids, outputs)],
                         output_names=tuple(self.output_names[k] for k in outputs))

    def terms(self, v: np.ndarray, derivatives: int):
        """term(orders, rows): (Q, P) outputs differentiated orders[n] <= ``derivatives``
        times in each dim n, at one point v (N,) as Q = 1, at a batch v (Q, N), or at its
        points ``rows``.  A point's row is its own vector-matrix product, so it keeps the
        bits of ``derivatives(v)``, whatever its batch."""
        factors = np.array(self._rows(self._points(v).T, derivatives=derivatives))

        def term(orders, rows=slice(None)):
            basis = np.prod(factors[np.arange(len(factors)), orders], axis=0)[rows]
            return (basis[:, None, :] @ self.modal_coefficients)[:, 0]
        return term

    def derivatives(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact value (P,), Jacobian (P, N) and Hessian (P, N, N) at one point."""
        if np.ndim(v) != 1:
            raise ValueError(f"derivatives takes one point (N,), got shape {np.shape(v)}")
        term = self.terms(v, 2)
        eye = np.eye(self.grid.space.n_dims, dtype=int)
        value = term(np.zeros_like(eye[0]))[0]
        jac = np.array([term(e)[0] for e in eye]).T
        hess = np.array([[term(e + f)[0] for f in eye] for e in eye]).transpose(2, 0, 1)
        return value, jac, hess


@dataclass
class ValidationErrors:
    """Relative accuracy of a surrogate against reference model values."""

    e_ppe: np.ndarray          # per output: max relative pointwise error
    e_mse: np.ndarray          # per output: root mean square relative error
    n_samples: int
    skipped: list              # (sample, output) pairs with near-zero reference


def validation_errors(surrogate: Surrogate, reference, samples: np.ndarray) -> ValidationErrors:
    """Max relative pointwise error and relative RMS error over samples.

    ``reference`` is either a callable mapping (Q, N) points to (Q, P) values
    or a precomputed (Q, P) array.  Samples whose reference magnitude falls
    below 1e-14 of the output scale are excluded from both metrics and listed
    in ``skipped`` instead of producing a division by zero.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(samples) < 1:
        raise ValueError("at least one validation sample is required")
    ref = reference(samples) if callable(reference) else np.asarray(reference, dtype=float)
    if ref.ndim == 1:
        ref = ref[:, None]
    sur = surrogate.evaluate(samples)
    scale = np.abs(ref).max(axis=0)
    usable = np.abs(ref) >= 1e-14 * np.maximum(scale, 1e-300)[None, :]
    skipped = [(int(i), int(k)) for i, k in np.argwhere(~usable)]

    rel = np.zeros_like(ref)
    rel[usable] = np.abs(ref - sur)[usable] / np.abs(ref)[usable]
    counts = usable.sum(axis=0)
    if np.any(counts == 0):
        raise ValueError("an output has no usable (nonzero-reference) validation samples")
    e_ppe = np.where(usable, rel, -np.inf).max(axis=0)
    e_mse = np.sqrt(np.where(usable, rel ** 2, 0.0).sum(axis=0) / counts)
    return ValidationErrors(e_ppe=e_ppe, e_mse=e_mse, n_samples=len(samples), skipped=skipped)


def _space_to_json(space: ParameterSpace) -> list:
    out = []
    for d in space.dims:
        if isinstance(d.dist, Uniform):
            out.append({"name": d.name, "distribution": "uniform",
                        "range": [d.dist.a, d.dist.b]})
        else:
            out.append({"name": d.name, "distribution": "gaussian",
                        "mean": d.dist.mean, "std": d.dist.std})
    return out


def _space_from_json(data: list) -> ParameterSpace:
    dims = []
    for entry in data:
        kind = entry["distribution"].lower()
        params = {"uniform": ["range"], "gaussian": ["mean", "std"]}.get(kind)
        if params is None:
            raise ValueError(f"unknown distribution kind {entry['distribution']!r}")
        unknown = sorted(set(entry) - {"name", "distribution", *params})
        if unknown:
            raise ValueError(f"unknown key(s) {unknown} of the {kind} dimension {entry['name']!r}")
        if kind == "uniform":
            a, b = entry["range"]
            dims.append(Dim(entry["name"], Uniform(float(a), float(b))))
        else:
            dims.append(Dim(entry["name"], Gaussian(float(entry["mean"]), float(entry["std"]))))
    return ParameterSpace(dims=tuple(dims))


def surrogate_to_json_dict(surrogate: Surrogate) -> dict:
    grid = surrogate.grid
    return {
        "space": _space_to_json(grid.space),
        "index_set": index_set_to_json_dict(grid.index_set),
        "points": grid.points.tolist(),
        "values": surrogate.values.T.tolist(),
        "output_names": list(surrogate.output_names),
    }


def surrogate_from_json_dict(data: dict) -> Surrogate:
    """A saved surrogate as stored: its points and values, with degrees from its index set."""
    mset = index_set_from_json_dict(data["index_set"])
    grid = SparseGrid(space=_space_from_json(data["space"]), index_set=mset,
                      points=np.array(data["points"], dtype=float), degrees=_grid_degrees(mset))
    values = np.array(data["values"], dtype=float).T
    return Surrogate(grid=grid, values=values, output_names=tuple(data["output_names"]))
