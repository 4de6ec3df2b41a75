"""Bayesian inverse analysis on a sparse-grid surrogate.

The chain: synthetic noisy measurements -> misfit least squares on the
surrogate -> multi-start bounded trust-region least squares on the
surrogate's exact Jacobian for the posterior mode (for a uniform prior and
Gaussian noise the MAP is the least-squares minimizer) -> noise
variance from the mean squared residual -> local Gaussian (Laplace)
covariance from the surrogate's exact derivatives -> per-dimension profile
inspection that classifies each parameter as identifiable (Gaussian marginal)
or weakly identifiable (uniform marginal on the profile confidence interval).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ._trf import trf_unit_box
from .surrogate import Gaussian, ParameterSpace, Surrogate, Uniform

__all__ = [
    "Measurements",
    "MapResult",
    "ClusterMinimum",
    "LaplaceCovariance",
    "PosteriorSpec",
    "InversionError",
    "synthesize_data",
    "least_squares",
    "log_likelihood",
    "find_map",
    "sigma_map",
    "laplace_covariance",
    "profile_likelihood",
    "build_posterior",
]

#: ftol, xtol and gtol of each trust-region start; scipy's 1e-8 defaults stop
#: up to 1e-9 relative above the least-squares minimum along the beam case's
#: flat, weakly identifiable direction
TRF_TOL = 1e-10
#: converged points closer than this (box-normalized) merge into one cluster
CLUSTER_TOL = 1e-3
#: fewest MAP starts and profile points that find_map and profile_likelihood accept
MIN_STARTS = 4
MIN_PROFILE_GRID = 33
#: 95% chi-square(1) quantile applied to the profile confidence sets
CHI2_95 = 3.84
#: a profile confidence interval wider than this fraction of the prior range
#: marks the dimension weakly identifiable
FLAT_FRACTION = 0.5


class InversionError(RuntimeError):
    """Inverse analysis failed; carries partial results in ``details``."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


@dataclass
class Measurements:
    """Displacement data used by the misfit functional.

    ``location_ids`` index output components of the displacement surrogate;
    each is a non-negative integer (numpy integers included, bools not).
    ``target`` records the generating parameter vector for synthetic data.
    """

    values: np.ndarray
    location_ids: tuple[int, ...]
    noise_std: float
    seed: int | None = None
    target: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if any(isinstance(i, bool) or operator.index(i) < 0 for i in self.location_ids):
            raise ValueError(f"location ids must be integers >= 0, got {self.location_ids}")
        self.location_ids = tuple(map(operator.index, self.location_ids))
        if len(self.values) != len(self.location_ids):
            raise ValueError("values and location_ids lengths differ")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"measured values must be finite, got {self.values.tolist()}")
        if not (np.isfinite(self.noise_std) and self.noise_std > 0):
            raise ValueError(f"noise std must be a finite number > 0, got {self.noise_std}")
        if self.target is not None:
            self.target = np.asarray(self.target, dtype=float)

    @property
    def n(self) -> int:
        return len(self.values)

    def to_json_dict(self) -> dict:
        out = {
            "values": [float(x) for x in self.values],
            "location_ids": list(self.location_ids),
            "noise_std": self.noise_std,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.target is not None:
            out["target"] = [float(x) for x in self.target]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Measurements":
        return cls(values=np.array(data["values"], dtype=float),
                   location_ids=tuple(data["location_ids"]),
                   noise_std=float(data["noise_std"]),
                   seed=data.get("seed"),
                   target=None if data.get("target") is None else np.array(data["target"]))


def synthesize_data(model, target, location_ids, noise_std: float, seed: int) -> Measurements:
    """Noisy synthetic measurements: the callable ``model`` at the target plus iid Gaussian noise."""
    target = np.asarray(target, dtype=float)
    clean = np.asarray(model(target[None, :]), dtype=float)[0, list(location_ids)]
    rng = np.random.default_rng(seed)
    noisy = clean + rng.normal(0.0, noise_std, size=clean.shape)
    return Measurements(values=noisy, location_ids=tuple(location_ids),
                        noise_std=noise_std, seed=seed, target=target)


def least_squares(surrogate: Surrogate, meas: Measurements, v) -> float | np.ndarray:
    """Sum of squared misfits between the data and the surrogate at v."""
    misfit = meas.values - surrogate.evaluate(v)[..., list(meas.location_ids)]
    ls = np.sum(misfit * misfit, axis=-1)
    return float(ls) if np.ndim(v) == 1 else ls


def log_likelihood(surrogate: Surrogate, meas: Measurements, v):
    """Gaussian log-likelihood; its argmax equals the least-squares argmin."""
    ls = least_squares(surrogate, meas, v)
    s2 = meas.noise_std ** 2
    return -0.5 * meas.n * np.log(2.0 * np.pi * s2) - ls / (2.0 * s2)


@dataclass
class ClusterMinimum:
    v: np.ndarray
    ls: float
    start_point: np.ndarray
    n_hits: int = 1


@dataclass
class MapResult:
    v_map: np.ndarray
    ls_min: float
    minima: list            # all clustered local minima
    n_starts: int
    seed: int
    starts: list            # per start: status (SciPy's codes), nfev and njev

    @property
    def n_not_converged(self) -> int:
        """Starts that stopped without meeting a convergence test (status <= 0)."""
        return sum(1 for s in self.starts if s["status"] <= 0)


def _latin_hypercube(n: int, dim: int, seed: int) -> np.ndarray:
    """One stratified sample per row and axis; plain numpy for stream stability."""
    rng = np.random.default_rng(seed)
    strata = np.array([rng.permutation(n) for _ in range(dim)]).T
    return (strata + rng.random((n, dim))) / n


def find_map(surrogate: Surrogate, meas: Measurements, n_starts: int = 16,
             seed: int = 0) -> MapResult:
    """Multi-start, in lockstep, bounded trust-region least squares on the misfit.

    Starts are a Latin hypercube over the prior box.  All run a numpy port of
    SciPy's trust-region reflective method (Branch, Coleman & Li, SIAM J. Sci.
    Comput. 1999) one step per pass, each ending where it would alone, in
    box-normalized coordinates bounded to [0, 1], so every iterate and every
    minimum stays inside the box.  A pass reads its residuals (surrogate minus
    data) and exact Jacobians (times the box width) off one ``Surrogate.terms``
    table.  Each start's status keeps SciPy's meaning: 0 the budget of
    100 d residual evaluations ran out, 1 gtol, 2 ftol, 3 xtol, 4 ftol and
    xtol.  Converged points are merged within a small box-normalized
    distance and the lowest misfit is the MAP.
    """
    if n_starts < MIN_STARTS:
        raise ValueError(f"n_starts must be >= {MIN_STARTS}, got {n_starts}")
    space = surrogate.grid.space
    box = space.uniform_box()
    lo, width = box[0], box[1] - box[0]
    ids = list(meas.location_ids)
    eye = np.eye(space.n_dims, dtype=int)

    def residuals(Z):
        # one basis table gives the residuals and, at the accepted points, the
        # Jacobians; take keeps their rows C-contiguous, as the search needs
        term = surrogate.terms(lo + Z * width, 1)
        return term(0 * eye[0]).take(ids, axis=1) - meas.values, lambda rows: np.stack(
            [term(e, rows).take(ids, axis=1) for e in eye], axis=-1) * width

    z0 = _latin_hypercube(n_starts, space.n_dims, seed)
    x, cost, status, nfev, njev = trf_unit_box(residuals, z0, TRF_TOL)
    starts = [{"status": st, "nfev": nf, "njev": nj}
              for st, nf, nj in zip(status.tolist(), nfev.tolist(), njev.tolist())]
    # x lies in [0, 1], but lo + x * width can round past the box; cost is half
    # the sum of squares
    raw = [(np.clip(lo + xs * width, box[0], box[1]), 2.0 * c, lo + z * width)
           for xs, c, z in zip(x, cost.tolist(), z0)]

    # a minimum keeps the point of its lowest-LS hit and the first start, in start
    # order, that reached it: its hits differ in LS only by rounding
    clusters: list[ClusterMinimum] = []
    first: list[int] = []
    for k in sorted(range(n_starts), key=lambda k: raw[k][1]):
        v, ls, start = raw[k]
        for j, cl in enumerate(clusters):
            if np.linalg.norm((v - cl.v) / width) < CLUSTER_TOL:
                cl.n_hits += 1
                if k < first[j]:
                    first[j], cl.start_point = k, start
                break
        else:
            clusters.append(ClusterMinimum(v=v, ls=ls, start_point=start))
            first.append(k)

    return MapResult(v_map=clusters[0].v, ls_min=clusters[0].ls, minima=clusters,
                     n_starts=n_starts, seed=seed, starts=starts)


def sigma_map(ls_min: float, n_measurements: int) -> float:
    """Sample-variance estimate of the measurement noise: LS_min / K."""
    if n_measurements < 1:
        raise ValueError("n_measurements must be >= 1")
    return ls_min / n_measurements


@dataclass
class LaplaceCovariance:
    matrix: np.ndarray
    gauss_newton_fallback: bool


def laplace_covariance(surrogate: Surrogate, meas: Measurements, v_map: np.ndarray,
                       sigma2_map: float) -> LaplaceCovariance:
    """Gaussian posterior covariance from local curvature at the MAP.

    Builds sigma2 * (J^T J - sum_k M_k H_k)^(-1), the inverse Hessian of LS/2
    with misfits M_k = y_k - u_k, from the exact Jacobian and per-measurement
    Hessians of the surrogate polynomial, valid up to the box edge.  If the
    misfit-weighted Hessian term destroys positive definiteness the
    Gauss-Newton form J^T J is used instead.  A rank-deficient J raises,
    naming the unidentified direction.
    """
    space = surrogate.grid.space
    ndim = space.n_dims
    ids = list(meas.location_ids)
    u, jac, hess = (a[ids] for a in surrogate.derivatives(np.asarray(v_map, dtype=float)))

    jtj = jac.T @ jac

    def rank_deficient():
        null = np.linalg.eigh(jtj)[1][:, 0]
        names = ", ".join(f"{space.names[n]}: {null[n]:+.3f}" for n in range(ndim))
        return InversionError(f"J^T J is rank deficient; unidentified direction ({names})",
                              details={"jacobian": jac})

    # only structural singularity (a direction dead to rounding) is an error;
    # a weakly identifiable direction may carry a near-zero derivative at an
    # interior minimum and then simply gets a huge, finite variance
    if np.linalg.matrix_rank(jac) < ndim:
        raise rank_deficient()

    weighted_hessian = np.einsum("k,knm->nm", meas.values - u, hess)
    inner = jtj - weighted_hessian
    inner = 0.5 * (inner + inner.T)
    fallback = False
    try:
        np.linalg.cholesky(inner)
    except np.linalg.LinAlgError:
        inner = jtj
        fallback = True
    try:
        cov = sigma2_map * np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise rank_deficient() from exc
    cov = 0.5 * (cov + cov.T)
    # validate definiteness in correlation form: the per-dim variances may
    # differ by many orders of magnitude, which would swamp a raw eigencheck
    diag = np.diag(cov)
    if not np.all(np.isfinite(cov)) or np.any(diag <= 0.0):
        raise InversionError("posterior covariance is not positive definite",
                             details={"matrix": cov})
    scale = np.sqrt(diag)
    try:
        np.linalg.cholesky(cov / np.outer(scale, scale))
    except np.linalg.LinAlgError:
        raise InversionError("posterior covariance is not positive definite",
                             details={"matrix": cov}) from None
    return LaplaceCovariance(matrix=cov, gauss_newton_fallback=fallback)


def profile_likelihood(surrogate: Surrogate, meas: Measurements, dim: int,
                       fixed: np.ndarray, grid_size: int = 101):
    """Least-squares profile along one dimension, the others held fixed.

    Returns (grid, ls) arrays; a fixed one-dimensional cut, not a
    re-optimized profile.
    """
    if grid_size < MIN_PROFILE_GRID:
        raise ValueError(f"grid_size must be >= {MIN_PROFILE_GRID}, got {grid_size}")
    space = surrogate.grid.space
    box = space.uniform_box()
    grid = np.linspace(box[0, dim], box[1, dim], grid_size)
    pts = np.tile(np.asarray(fixed, dtype=float), (grid_size, 1))
    pts[:, dim] = grid
    return grid, least_squares(surrogate, meas, pts)


@dataclass
class PosteriorSpec:
    """Independent per-dimension posterior marginals, as a parameter space.

    The product form (a Gaussian for each identifiable dimension, a uniform
    on a reduced interval for each weakly identifiable one) is a modeling
    choice recorded here, not a tested property of the joint posterior.
    ``prior_box`` (2, N) bounds the draws: Gaussians are truncated to it and
    every uniform lies inside it.
    """

    space: ParameterSpace
    classification: tuple[str, ...]
    prior_box: np.ndarray
    sigma2_map: float | None = None
    covariance: np.ndarray | None = None

    def __post_init__(self):
        n = self.space.n_dims
        if len(self.classification) != n:
            raise ValueError(f"{n} marginals and {len(self.classification)} classes")
        self.prior_box = np.asarray(self.prior_box, dtype=float)
        if self.prior_box.shape != (2, n):
            raise ValueError(f"prior box has shape {self.prior_box.shape}, not (2, {n})")
        for d, lo, hi in zip(self.space.dims, *self.prior_box):
            if not lo < hi:
                raise ValueError(f"prior box of {d.name!r} has lower bound {lo} "
                                 f"not below upper bound {hi}")
            if isinstance(d.dist, Uniform) and not lo <= d.dist.a < d.dist.b <= hi:
                raise ValueError(f"uniform marginal of {d.name!r} on [{d.dist.a}, {d.dist.b}] "
                                 f"leaves the prior box [{lo}, {hi}]")

    @classmethod
    def from_prior(cls, space: ParameterSpace) -> "PosteriorSpec":
        """The prior itself: uniforms on their ranges, Gaussians untruncated."""
        box = [(d.dist.a, d.dist.b) if isinstance(d.dist, Uniform) else (-np.inf, np.inf)
               for d in space.dims]
        return cls(space=space, classification=tuple("prior" for _ in space.dims),
                   prior_box=np.array(box).T)

    def to_json_dict(self) -> dict:
        marg = []
        for m in (d.dist for d in self.space.dims):
            if isinstance(m, Gaussian):
                marg.append({"type": "gaussian", "mean": m.mean, "std": m.std})
            else:
                marg.append({"type": "uniform", "a": m.a, "b": m.b})
        out = {
            "names": list(self.space.names),
            "marginals": marg,
            "classification": list(self.classification),
            "prior_box": [[float(x) for x in row] for row in self.prior_box],
        }
        if self.sigma2_map is not None:
            out["sigma2_map"] = float(self.sigma2_map)
        if self.covariance is not None:
            out["covariance"] = [[float(x) for x in row] for row in self.covariance]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PosteriorSpec":
        marginals = []
        for m in data["marginals"]:
            if m["type"] == "gaussian":
                marginals.append(Gaussian(float(m["mean"]), float(m["std"])))
            elif m["type"] == "uniform":
                marginals.append(Uniform(float(m["a"]), float(m["b"])))
            else:
                raise ValueError(f"unknown marginal type {m['type']!r}")
        names = data["names"]
        if len(names) != len(marginals):
            raise ValueError(f"{len(names)} names and {len(marginals)} marginals")
        cov = data.get("covariance")
        return cls(space=ParameterSpace.from_pairs(zip(names, marginals)),
                   classification=tuple(data["classification"]),
                   prior_box=data["prior_box"],
                   sigma2_map=data.get("sigma2_map"),
                   covariance=None if cov is None else np.array(cov, dtype=float))


def build_posterior(map_result: MapResult, covariance: LaplaceCovariance,
                    profiles, space: ParameterSpace, sigma2_map: float,
                    chi2_threshold: float = CHI2_95,
                    flat_fraction: float = FLAT_FRACTION) -> PosteriorSpec:
    """Classify each dimension from its profile and assemble the marginals.

    The confidence set of dimension n collects profile points whose
    least-squares excess over the minimum stays within chi2_threshold times
    the noise variance estimate; the MAP component is always a member.  If
    the smallest interval containing the set spans more than flat_fraction
    of the prior range the dimension is weakly identifiable and gets a
    uniform marginal on that interval; otherwise it gets the Laplace
    Gaussian marginal.
    """
    box = space.uniform_box()
    v_map = map_result.v_map
    level = map_result.ls_min + chi2_threshold * sigma2_map
    marginals, classes = [], []
    for n in range(space.n_dims):
        grid, ls = profiles[n]
        if np.any(~np.isfinite(ls)):
            raise InversionError(f"profile for dimension {space.names[n]!r} contains "
                                 "non-finite values", details={"profile": (grid, ls)})
        members = grid[ls <= level]
        lo = min(members.min(), v_map[n]) if members.size else v_map[n]
        hi = max(members.max(), v_map[n]) if members.size else v_map[n]
        lo = max(lo, box[0, n])
        hi = min(hi, box[1, n])
        frac = (hi - lo) / (box[1, n] - box[0, n])
        if frac > flat_fraction:
            marginals.append(Uniform(float(lo), float(hi)))
            classes.append("weakly_identifiable")
        else:
            std = float(np.sqrt(covariance.matrix[n, n]))
            marginals.append(Gaussian(float(v_map[n]), std))
            classes.append("identifiable")
    return PosteriorSpec(space=ParameterSpace.from_pairs(zip(space.names, marginals)),
                         classification=tuple(classes), prior_box=box,
                         sigma2_map=float(sigma2_map), covariance=covariance.matrix)


def inversion_report_json_dict(meas: Measurements, map_result: MapResult,
                               sigma2: float, covariance: LaplaceCovariance,
                               profiles, posterior: PosteriorSpec) -> dict:
    """Full inversion record: data, minima, covariance, profiles, posterior."""
    return {
        "measurements": meas.to_json_dict(),
        "v_map": [float(x) for x in map_result.v_map],
        "ls_min": float(map_result.ls_min),
        "sigma2_map": float(sigma2),
        "n_starts": map_result.n_starts,
        "start_seed": map_result.seed,
        "minima": [
            {"v": [float(x) for x in cl.v], "ls": float(cl.ls),
             "start_point": [float(x) for x in cl.start_point], "n_hits": cl.n_hits}
            for cl in map_result.minima
        ],
        "starts": map_result.starts,
        "n_not_converged": map_result.n_not_converged,
        "covariance": [[float(x) for x in row] for row in covariance.matrix],
        "gauss_newton_fallback": covariance.gauss_newton_fallback,
        "profiles": [
            {"dim": posterior.space.names[n], "grid": [float(x) for x in g],
             "ls": [float(x) for x in l]}
            for n, (g, l) in enumerate(profiles)
        ],
        "posterior": posterior.to_json_dict(),
    }
