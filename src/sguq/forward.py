"""Data-informed forward propagation: sampling, densities, quantile bands.

Samples of the (prior or posterior) parameter distribution, drawn by inverse
CDF with each Gaussian marginal truncated exactly to the prior box, are
pushed through a quantity-of-interest surrogate; each output location gets a
Gaussian-kernel density estimate with Silverman bandwidth (linearly binned
and convolved by FFT, after Silverman's Algorithm AS 176), a grid-based mode
and empirical 5%/95% quantiles; every location's density is estimated in
one batched pass; uncertainty_bands chains the three steps.  Drawn from one
seed, the posterior and prior-based bands share their uniform draws, and
their difference is the uncertainty reduction bought by the measurement data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
# numpy loads these submodules on first use (np.quantile pulls in numpy.ma);
# importing them here keeps their 40-60 ms in start-up instead of in the
# timing of whichever stage first touches them
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .inversion import PosteriorSpec
from .surrogate import Surrogate, Uniform

__all__ = [
    "DensityEstimate",
    "BandComparison",
    "sample_posterior",
    "propagate",
    "estimate_density",
    "estimate_densities",
    "uncertainty_bands",
    "write_bands_csv",
    "write_densities_json",
    "write_json",
]

KDE_GRID_SIZE = 512
MIN_KDE_GRID = 2
#: the binned KDE bins finer than the output grid until a bandwidth spans this
#: many cells, up to KDE_MAX_REFINE sub-cells per output cell
KDE_BINS_PER_BANDWIDTH = 8
KDE_MAX_REFINE = 64
MIN_KDE_SAMPLES = 100
#: AS 241 (Wichura, Applied Statistics 1988), the algorithm behind
#: statistics.NormalDist.inv_cdf: (numerator, denominator) coefficients,
#: highest degree first, of the rational approximations to the standard normal
#: quantile for |p - 0.5| <= 0.425, and in the tails for r = sqrt(-log p) up to
#: 5 and beyond
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _horner(coeffs, r):
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * r + c
    return out


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each p in (0, 1), operation for operation
    as statistics.NormalDist().inv_cdf."""
    q = p - 0.5
    x = np.empty_like(p)
    mid = np.abs(q) <= 0.425
    qm = q[mid]
    r = 0.180625 - qm * qm
    x[mid] = _horner(_AS241_CENTRAL[0], r) * qm / _horner(_AS241_CENTRAL[1], r)
    qt = q[~mid]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, p[~mid], 1.0 - p[~mid])))
    t = r - 1.6
    xt = _horner(_AS241_NEAR[0], t) / _horner(_AS241_NEAR[1], t)
    far = r > 5.0
    t = r[far] - 5.0
    xt[far] = _horner(_AS241_FAR[0], t) / _horner(_AS241_FAR[1], t)
    x[~mid] = np.where(qt < 0.0, -xt, xt)
    return x


def _normal_cdf(x: float) -> float:
    # erfc keeps the relative precision of the lower tail, where 1 + erf does not
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def sample_posterior(spec: PosteriorSpec, n: int, seed: int) -> np.ndarray:
    """Independent draws from the per-dimension marginals, (n, N).

    One block of uniform draws is mapped column by column through each
    marginal's inverse CDF.  Gaussian marginals are truncated to the prior box
    exactly: the propagation surrogate is only trustworthy there, and
    unbounded tails would be dominated by polynomial extrapolation.  A box
    above the mean is mirrored below it, where the normal CDF keeps its
    relative precision; a box that holds no floating-point probability is an
    error.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    draws = np.random.default_rng(seed).random((n, spec.space.n_dims))
    for d, (dim, lo, hi) in enumerate(zip(spec.space.dims, *spec.prior_box)):
        m, u = dim.dist, draws[:, d]
        if isinstance(m, Uniform):
            draws[:, d] = m.a + (m.b - m.a) * u
            continue
        a, b = (lo - m.mean) / m.std, (hi - m.mean) / m.std
        sign = -1.0 if a > -b else 1.0
        a, b = sorted((sign * a, sign * b))
        pa, pb = _normal_cdf(a), _normal_cdf(b)
        if not pa < pb:
            raise ValueError(f"prior box [{lo}, {hi}] of dimension {dim.name!r} holds no "
                             f"probability of its marginal N({m.mean}, {m.std}^2)")
        # p in the open unit interval, where the quantile is finite
        p = np.clip(pa + (pb - pa) * u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        draws[:, d] = np.clip(m.mean + sign * m.std * _normal_quantile(p), lo, hi)
    return draws


def propagate(surrogate: Surrogate, samples: np.ndarray) -> np.ndarray:
    """Surrogate outputs at every sample, (n, P)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    out = surrogate.evaluate(samples)
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(np.argwhere(bad.any(axis=1))[0][0])
        raise ValueError(f"propagation produced a non-finite value at sample {i}")
    return out


@dataclass
class DensityEstimate:
    """Gaussian-kernel density of one scalar quantity.

    Mode comes from the density grid; the 5%/95% quantiles are empirical
    order statistics of the samples (cheaper and unbiased).  ``degenerate``
    marks a constant sample set, for which no density is defined.
    """

    bandwidth: float
    grid: np.ndarray
    density: np.ndarray
    mode: float
    q05: float
    q95: float
    degenerate: bool = False

    @property
    def band_width(self) -> float:
        return self.q95 - self.q05


def estimate_densities(values: np.ndarray,
                       grid_size: int = KDE_GRID_SIZE) -> list[DensityEstimate]:
    """Binned Gaussian KDE, with Silverman bandwidth, of each column of an
    (n, P) array: one DensityEstimate per column, each on its own uniform grid.

    Each grid covers [min - 3h, max + 3h] so that virtually all kernel mass is
    captured.  While one grid cell is at most about one bandwidth, the
    trapezoid integral of the density is 1 to about 1e-3; every bounded
    surrogate output meets that.  Heavy tails stretch the fixed grid past it,
    and then the integral drifts, with the direct kernel sum as well: a
    lognormal(0, 1.5) draw of 20000 (seed 0) has cells of 3.2 bandwidths and
    an integral of 1.011.

    The samples are linearly binned onto the grid, refined until a bandwidth
    spans KDE_BINS_PER_BANDWIDTH cells, and the bin weights are convolved
    with the kernel sampled at the grid lags by a zero-padded FFT (Silverman,
    "Algorithm AS 176: kernel density estimation using the fast Fourier
    transform", Applied Statistics 1982).  That costs O(n + G log G) instead
    of the O(nG) direct kernel sum, which it matches to within 5e-4 of the
    peak.

    Each statistic is one reduction along the rows of a contiguous transposed
    copy, which keeps the bits of the 1-D reduction, and the columns that
    share a refine factor share one bincount pair and one row-batched FFT per
    batch of at most 2^18 values: each estimate is bit for bit the one its
    column gets alone.  A constant column has no density and is marked
    ``degenerate``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"density estimation takes an (n, P) array, got shape {values.shape}")
    n = len(values)
    if n < MIN_KDE_SAMPLES:
        raise ValueError(f"density estimation needs >= {MIN_KDE_SAMPLES} values, got {n}")
    if grid_size < MIN_KDE_GRID:
        raise ValueError(f"density grid needs >= {MIN_KDE_GRID} points, got {grid_size}")
    rows = np.ascontiguousarray(values.T)
    vmin, vmax = rows.min(axis=1), rows.max(axis=1)
    if not (np.isfinite(vmin).all() and np.isfinite(vmax).all()):
        raise ValueError("density estimation needs finite values")
    q05, q25, q75, q95 = np.quantile(rows, [0.05, 0.25, 0.75, 0.95], axis=1)
    # Silverman: 0.9 min(std, IQR/1.34) n^(-1/5); falls back to std when the
    # IQR collapses under heavy ties
    std, iqr = np.std(rows, axis=1, ddof=1), q75 - q25
    h = 0.9 * np.where(iqr > 0.0, np.minimum(std, iqr / 1.34), std) * n ** (-0.2)
    lo, hi = vmin - 3.0 * h, vmax + 3.0 * h
    out = [None] * len(rows)
    for c in np.flatnonzero(vmax == vmin):
        v = float(vmin[c])
        out[c] = DensityEstimate(bandwidth=0.0, grid=np.array([v]), density=np.array([np.nan]),
                                 mode=v, q05=v, q95=v, degenerate=True)
    step = (hi - lo) / (grid_size - 1)
    live = np.flatnonzero(vmax != vmin)
    # bin on a grid `refine` times finer than the output grid; linear binning
    # errs by up to about 0.03 (cell / h)^2 of the peak
    refine = np.minimum(np.ceil(KDE_BINS_PER_BANDWIDTH * step[live] / h[live]),
                        KDE_MAX_REFINE).astype(np.intp)
    for r in np.unique(refine):
        cells = r * (grid_size - 1) + 1
        group = live[refine == r]
        # 2 MB an array bounds the temporaries, however fine the bins
        batch = max(1, (1 << 18) // max(n, 2 * cells))
        for j in (group[i:i + batch] for i in range(0, len(group), batch)):
            k, cell = len(j), step[j] / r
            pos = (rows[j] - lo[j, None]) / cell[:, None]
            left = np.minimum(pos.astype(np.intp), cells - 2)
            frac = (pos - left).ravel()
            # each row bins into its own block of `cells`
            left = (left + cells * np.arange(k)[:, None]).ravel()
            bins = (np.bincount(left, weights=1.0 - frac, minlength=k * cells)
                    + np.bincount(left + 1, weights=frac, minlength=k * cells))
            # kernel at lags 0..cells-1 and -(cells-1)..-1; length 2 cells
            # keeps the circular convolution from wrapping
            lags = np.exp(-0.5 * (np.arange(cells) * (cell / h[j])[:, None]) ** 2)
            kernel = np.zeros((k, 2 * cells))
            kernel[:, :cells] = lags
            kernel[:, cells + 1:] = lags[:, :0:-1]
            density = np.fft.irfft(np.fft.rfft(bins.reshape(k, cells), 2 * cells)
                                   * np.fft.rfft(kernel), 2 * cells)[:, :cells:r]
            # the FFT leaves rounding-sized negatives in the far tails
            np.maximum(density, 0.0, out=density)
            density *= (1.0 / (n * h[j] * np.sqrt(2.0 * np.pi)))[:, None]
            grid = np.linspace(lo[j], hi[j], grid_size, axis=1)
            mode = grid[np.arange(k), np.argmax(density, axis=1)]
            for i, c in enumerate(j):
                out[c] = DensityEstimate(bandwidth=float(h[c]), grid=grid[i],
                                         density=density[i], mode=float(mode[i]),
                                         q05=float(q05[c]), q95=float(q95[c]))
    return out


def estimate_density(values: np.ndarray, grid_size: int = KDE_GRID_SIZE) -> DensityEstimate:
    """The KDE of one sample vector; see estimate_densities."""
    return estimate_densities(np.reshape(values, (-1, 1)), grid_size)[0]


@dataclass
class BandComparison:
    """Per-location prior and posterior densities for one QoI vector."""

    prior: list
    posterior: list

    @property
    def n_locations(self) -> int:
        return len(self.posterior)

    def prior_widths(self) -> np.ndarray:
        return np.array([d.band_width for d in self.prior])

    def posterior_widths(self) -> np.ndarray:
        return np.array([d.band_width for d in self.posterior])


def uncertainty_bands(spec: PosteriorSpec, surrogate: Surrogate, n: int = 10000, seed: int = 0,
                      kde_grid_size: int = KDE_GRID_SIZE) -> list[DensityEstimate]:
    """Every output's density under ``spec``: sample_posterior, propagate through
    ``surrogate``, estimate_densities.  A band depends only on these arguments;
    two distributions on the same dimensions given one seed share their uniform
    draws (common random numbers), so their bands differ by less Monte Carlo noise.
    """
    return estimate_densities(propagate(surrogate, sample_posterior(spec, n, seed)),
                              kde_grid_size)


def write_bands_csv(path, comparison: BandComparison, location_ids,
                    coordinates=None, target_values=None):
    """Per-location band summary; one row per QoI location."""
    rows = ["location_id,x,prior_mode,prior_q05,prior_q95,post_mode,post_q05,post_q95"
            + (",target_value" if target_values is not None else "")]
    for j in range(comparison.n_locations):
        x = "" if coordinates is None else f"{coordinates[j]:.17g}"
        pr, po = comparison.prior[j], comparison.posterior[j]
        row = (f"{location_ids[j]},{x},{pr.mode:.17g},{pr.q05:.17g},{pr.q95:.17g},"
               f"{po.mode:.17g},{po.q05:.17g},{po.q95:.17g}")
        if target_values is not None:
            row += f",{target_values[j]:.17g}"
        rows.append(row)
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def write_densities_json(path, comparison: BandComparison, location_ids):
    out = []
    for j in range(comparison.n_locations):
        entry = {"location_id": location_ids[j]}
        for tag, d in (("prior", comparison.prior[j]), ("posterior", comparison.posterior[j])):
            entry[tag] = {
                "bandwidth": float(d.bandwidth),
                "grid": d.grid.tolist(),
                "density": d.density.tolist(),
                "mode": float(d.mode),
                "q05": float(d.q05),
                "q95": float(d.q95),
                "degenerate": d.degenerate,
            }
        out.append(entry)
    write_json(path, out)


def write_json(path, data):
    """Write ``data`` as compact JSON and a newline, the format of every JSON run file."""
    # one-shot dumps runs the C encoder; the streaming json.dump does not
    with open(path, "w") as fh:
        fh.write(json.dumps(data) + "\n")
