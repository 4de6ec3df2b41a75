import json
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import kstest, norm, truncnorm

from sguq.forward import (
    BandComparison,
    _normal_quantile,
    DensityEstimate,
    KDE_BINS_PER_BANDWIDTH,
    KDE_MAX_REFINE,
    MIN_KDE_GRID,
    MIN_KDE_SAMPLES,
    estimate_densities,
    estimate_density,
    propagate,
    sample_posterior,
    uncertainty_bands,
    write_bands_csv,
    write_densities_json,
)
from sguq.indices import generate_index_set
from sguq.inversion import PosteriorSpec
from sguq.models import beam_proxy
from sguq.surrogate import (
    Gaussian, ParameterSpace, Surrogate, Uniform, build_sparse_grid,
)


def spec_of(marginals, prior_box, names=None):
    names = names or tuple(f"v{i + 1}" for i in range(len(marginals)))
    return PosteriorSpec(space=ParameterSpace.from_pairs(zip(names, marginals)),
                         classification=tuple("test" for _ in marginals),
                         prior_box=np.asarray(prior_box, dtype=float))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_normal_quantile_matches_stdlib():
    # the AS 241 port against statistics.NormalDist.inv_cdf, which runs the same
    # operations in scalar arithmetic; np.log and math.log may differ by an ulp
    # in the tail branch, which moves the quantile by at most 4 ulp
    inv_cdf = NormalDist().inv_cdf
    u = np.random.default_rng(18).random(100_000)
    tails = np.logspace(np.log10(5e-324), -1, 2000)
    p = np.concatenate([u[u > 0.0], tails, 1.0 - np.logspace(-16, -1, 500),
                        [5e-324, 0.075, 0.5, 0.925]])
    ref = np.array([inv_cdf(float(v)) for v in p])
    got = _normal_quantile(p)
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


def test_uniform_marginal_moments():
    spec = spec_of([Uniform(0, 1)], [[0], [1]])
    s = sample_posterior(spec, 100_000, seed=0)[:, 0]
    assert s.mean() == pytest.approx(0.5, abs=0.005)
    assert s.var() == pytest.approx(1 / 12, rel=0.05)
    assert s.min() >= 0 and s.max() <= 1


def test_uniform_columns_are_the_scaled_uniform_block():
    # a + (b - a) u on one (n, N) block of rng.random, as the inversion
    # stage's validation draws were made before they went through this sampler
    spec = spec_of([Uniform(1130, 1450), Gaussian(0.0, 1.0), Uniform(-5, 0)],
                   [[1130, -3, -5], [1450, 3, 0]])
    s = sample_posterior(spec, 1000, seed=19)
    u = np.random.default_rng(19).random((1000, 3))
    assert np.array_equal(s[:, 0], 1130.0 + 320.0 * u[:, 0])
    assert np.array_equal(s[:, 2], -5.0 + 5.0 * u[:, 2])


@pytest.mark.parametrize("mean, std, lo, hi, seed", [
    (0.0, 1.0, -10.0, 10.0, 1),
    (0.0, 2.0, -1.0, 1.0, 2),
    (1300.0, 40.0, 1300.0 + 3 * 40.0, 1300.0 + 30 * 40.0, 20),
    (-2.0, 0.5, -2.0 - 30 * 0.5, -2.0 - 3 * 0.5, 21),
    (0.0, 1.0, 8.0, 9.0, 22),
    (5.0, 2.0, 5.0 - 2 * 2.0, np.inf, 23),
    (5.0, 2.0, -np.inf, 5.0 + 1.5 * 2.0, 24),
], ids=["wide_box", "narrow_box", "upper_tail", "lower_tail", "deep_tail",
        "upper_half_line", "lower_half_line"])
def test_truncation_matches_scipy_truncnorm(mean, std, lo, hi, seed):
    # 50k draws; the KS statistic's 1% critical value at that size is 0.0073
    spec = spec_of([Gaussian(mean, std)], [[lo], [hi]])
    s = sample_posterior(spec, 50_000, seed=seed)[:, 0]
    assert s.min() >= lo and s.max() <= hi
    reference = truncnorm((lo - mean) / std, (hi - mean) / std, loc=mean, scale=std)
    assert kstest(s, reference.cdf).statistic < 0.0073


def test_prior_spec_leaves_gaussian_dimensions_untruncated():
    space = ParameterSpace.from_pairs([("T_A", Gaussian(1300.0, 40.0)),
                                       ("log_h_p", Uniform(-5.0, 0.0))])
    spec = PosteriorSpec.from_prior(space)
    assert np.array_equal(spec.prior_box, [[-np.inf, -5.0], [np.inf, 0.0]])
    s = sample_posterior(spec, 50_000, seed=25)
    assert np.all(np.isfinite(s))
    assert kstest(s[:, 0], norm(1300.0, 40.0).cdf).statistic < 0.0073
    assert s[:, 1].min() >= -5.0 and s[:, 1].max() <= 0.0


def test_sampling_deterministic():
    spec = spec_of([Uniform(0, 1), Gaussian(0.5, 0.1)], [[0, 0], [1, 1]])
    a = sample_posterior(spec, 1000, seed=3)
    b = sample_posterior(spec, 1000, seed=3)
    assert np.array_equal(a, b)


def test_pathological_truncation_raises():
    spec = spec_of([Gaussian(50.0, 0.5)], [[-1], [1]])
    with pytest.raises(ValueError, match="holds no probability"):
        sample_posterior(spec, 1000, seed=0)


def test_sample_count_validated():
    spec = spec_of([Uniform(0, 1)], [[0], [1]])
    with pytest.raises(ValueError):
        sample_posterior(spec, 0, seed=0)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def uniform_space(bounds):
    return ParameterSpace.from_pairs(
        [(f"v{i + 1}", Uniform(a, b)) for i, (a, b) in enumerate(bounds)])


def test_propagate_constant_qoi():
    space = uniform_space([(0, 1), (0, 1)])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 1))
    sur = Surrogate.from_model(grid, lambda p: np.full((len(p), 3), 7.0))
    out = propagate(sur, np.random.default_rng(0).random((500, 2)))
    assert out.shape == (500, 3)
    assert np.allclose(out, 7.0, atol=1e-12)


def test_propagate_linear_gaussian_variance():
    space = ParameterSpace.from_pairs([("g", Gaussian(2.0, 0.5)), ("u", Uniform(0, 1))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    a = 3.0
    sur = Surrogate.from_model(grid, lambda p: (a * p[:, 0])[:, None])
    spec = spec_of([Gaussian(2.0, 0.5), Uniform(0, 1)],
                   [[-100, 0], [100, 1]], names=("g", "u"))
    samples = sample_posterior(spec, 10_000, seed=4)
    out = propagate(sur, samples)
    assert out[:, 0].var(ddof=1) == pytest.approx(a ** 2 * 0.25, rel=0.05)


def test_propagate_beam_strains_smoke():
    space = uniform_space([(1130, 1450), (-5, 0)])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 3))
    sur = Surrogate.from_model(grid, lambda p: beam_proxy(p)[:, 9:])
    spec = spec_of([Uniform(1130, 1450), Uniform(-5, 0)],
                   [[1130, -5], [1450, 0]])
    out = propagate(sur, sample_posterior(spec, 10_000, seed=5))
    assert out.shape == (10_000, 120)
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


def test_kde_standard_normal_quantiles_and_mode():
    rng = np.random.default_rng(6)
    d = estimate_density(rng.normal(0, 1, 100_000))
    assert abs(d.mode) < 0.05
    assert d.q05 == pytest.approx(-1.6449, abs=0.03)
    assert d.q95 == pytest.approx(1.6449, abs=0.03)
    assert np.trapezoid(d.density, d.grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_uniform_quantiles():
    rng = np.random.default_rng(7)
    d = estimate_density(rng.random(100_000))
    assert d.q05 == pytest.approx(0.05, abs=0.01)
    assert d.q95 == pytest.approx(0.95, abs=0.01)
    assert np.trapezoid(d.density, d.grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_mode_near_median_for_symmetric_samples():
    rng = np.random.default_rng(8)
    samples = rng.normal(3.0, 0.2, 20_000)
    samples = np.concatenate([samples, 6.0 - samples])  # exactly symmetric about 3
    d = estimate_density(samples)
    cell = d.grid[1] - d.grid[0]
    assert abs(d.mode - np.median(samples)) <= cell + 1e-12


def test_kde_degenerate_constant_samples():
    d = estimate_density(np.full(500, 4.2))
    assert d.degenerate
    assert d.mode == 4.2 and d.q05 == 4.2 and d.q95 == 4.2


def test_kde_requires_enough_samples():
    with pytest.raises(ValueError):
        estimate_density(np.arange(10.0))


def test_kde_silverman_bandwidth_value():
    rng = np.random.default_rng(9)
    x = rng.normal(0, 2.0, 4096)
    d = estimate_density(x)
    std = np.std(x, ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    expected = 0.9 * min(std, iqr / 1.34) * 4096 ** (-0.2)
    assert d.bandwidth == pytest.approx(expected)


def test_kde_grid_needs_two_points():
    values = np.random.default_rng(13).normal(0, 1, 500)
    with pytest.raises(ValueError, match="grid"):
        estimate_density(values, 1)
    d = estimate_density(values, 2)
    assert d.grid.shape == d.density.shape == (2,)


# ---------------------------------------------------------------------------
# binned KDE against the direct kernel sum
# ---------------------------------------------------------------------------


def dense_kde(values, grid_size=512):
    """Direct O(n G) Gaussian kernel sum at every grid point (the oracle)."""
    std = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = q75 - q25
    h = 0.9 * (min(std, iqr / 1.34) if iqr > 0.0 else std) * len(values) ** (-0.2)
    grid = np.linspace(values.min() - 3.0 * h, values.max() + 3.0 * h, grid_size)
    density = np.zeros(grid_size)
    for start in range(0, len(values), 4096):
        z = np.subtract.outer(grid, values[start:start + 4096]) / h
        density += np.exp(-0.5 * z * z).sum(axis=1)
    density /= len(values) * h * np.sqrt(2.0 * np.pi)
    q05, q95 = np.quantile(values, [0.05, 0.95])
    return h, grid, density, q05, q95


KDE_SAMPLES = {
    "normal": lambda rng: rng.normal(0.0, 1.0, 2000),
    "uniform": lambda rng: rng.random(2000),
    "bimodal": lambda rng: np.concatenate([rng.normal(-2.0, 0.5, 1000),
                                           rng.normal(2.0, 0.5, 1000)]),
    # heavy tails: the output cell is about 0.4 and 0.3 bandwidths wide, so
    # these two exercise the refined binning grid
    "lognormal": lambda rng: rng.lognormal(0.0, 1.0, 2000),
    "student_t3": lambda rng: rng.standard_t(3, 2000),
    "normal_n100": lambda rng: rng.normal(5.0, 0.1, 100),
}


def assert_matches_dense(d, values, grid_size=512):
    h, grid, density, q05, q95 = dense_kde(values, grid_size)
    assert d.bandwidth == h
    assert np.array_equal(d.grid, grid)
    assert d.q05 == q05 and d.q95 == q95
    assert np.max(np.abs(d.density - density)) <= 1e-3 * density.max()
    assert abs(d.mode - grid[np.argmax(density)]) <= grid[1] - grid[0]
    assert np.trapezoid(d.density, d.grid) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("name", list(KDE_SAMPLES))
def test_binned_kde_matches_direct_sum(name):
    values = KDE_SAMPLES[name](np.random.default_rng(14))
    assert_matches_dense(estimate_density(values), values)


def test_binned_kde_matches_direct_sum_on_coarse_grid():
    values = KDE_SAMPLES["bimodal"](np.random.default_rng(14))
    assert_matches_dense(estimate_density(values, 64), values, 64)


def test_kde_integral_bound_holds_up_to_one_bandwidth_per_cell():
    # the heaviest lognormal tail whose grid cell still spans at most one
    # bandwidth (0.995 h); the docstring's 1e-3 integral bound holds there
    values = np.random.default_rng(0).lognormal(0.0, 1.1, 20000)
    d = estimate_density(values)
    assert 0.9 < (d.grid[1] - d.grid[0]) / d.bandwidth <= 1.0
    assert np.trapezoid(d.density, d.grid) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# batched KDE against the per-column estimator it replaced
# ---------------------------------------------------------------------------


def estimate_density_loop(values, grid_size=512):
    """The per-column binned KDE that estimate_densities batches (the oracle),
    and the refine factor it binned with (0 for a constant column)."""
    values = np.asarray(values, dtype=float).ravel()
    vmin, vmax = float(values.min()), float(values.max())
    if vmax == vmin:
        return DensityEstimate(bandwidth=0.0,
                               grid=np.array([vmin]), density=np.array([np.nan]),
                               mode=vmin, q05=vmin, q95=vmin, degenerate=True), 0
    q05, q25, q75, q95 = np.quantile(values, [0.05, 0.25, 0.75, 0.95])
    iqr = q75 - q25
    std = float(np.std(values, ddof=1))
    spread = min(std, iqr / 1.34) if iqr > 0.0 else std
    h = 0.9 * spread * len(values) ** (-0.2)
    lo, hi = vmin - 3.0 * h, vmax + 3.0 * h
    grid = np.linspace(lo, hi, grid_size)
    step = (hi - lo) / (grid_size - 1)
    refine = min(int(np.ceil(KDE_BINS_PER_BANDWIDTH * step / h)), KDE_MAX_REFINE)
    cells, cell = refine * (grid_size - 1) + 1, step / refine
    pos = (values - lo) / cell
    left = np.minimum(pos.astype(np.intp), cells - 2)
    frac = pos - left
    bins = (np.bincount(left, weights=1.0 - frac, minlength=cells)
            + np.bincount(left + 1, weights=frac, minlength=cells))
    lags = np.exp(-0.5 * (np.arange(cells) * (cell / h)) ** 2)
    kernel = np.zeros(2 * cells)
    kernel[:cells] = lags
    kernel[cells + 1:] = lags[:0:-1]
    density = np.fft.irfft(np.fft.rfft(bins, 2 * cells) * np.fft.rfft(kernel),
                           2 * cells)[:cells:refine]
    np.maximum(density, 0.0, out=density)
    density *= 1.0 / (len(values) * h * np.sqrt(2.0 * np.pi))
    return DensityEstimate(bandwidth=h, grid=grid, density=density,
                           mode=float(grid[np.argmax(density)]),
                           q05=float(q05), q95=float(q95)), refine


def assert_matches_loop(values, grid_size):
    """estimate_densities equals the per-column oracle bit for bit; returns
    the oracle's refine factor of each column."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimate_densities(values, grid_size)
    assert len(got) == values.shape[1]
    refines = []
    for j, d in enumerate(got):
        want, refine = estimate_density_loop(values[:, j], grid_size)
        refines.append(refine)
        for field in ("bandwidth", "mode", "q05", "q95", "degenerate"):
            assert getattr(d, field) == getattr(want, field), (j, field)
        for field in ("grid", "density"):
            assert np.array_equal(getattr(d, field), getattr(want, field),
                                  equal_nan=True), (j, field)
    return refines


def kde_columns(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.normal(0.0, 1.0, n), rng.lognormal(0.0, 1.0, n),
                            rng.standard_cauchy(n) ** 3, np.full(n, 2.5),
                            rng.random(n), rng.normal(3.0, 0.1, n),
                            rng.lognormal(0.0, 0.8, n), rng.normal(-1.0, 2.0, n)])


@pytest.mark.parametrize("grid_size", [2, 64, 512])
@pytest.mark.parametrize("n", [MIN_KDE_SAMPLES, 2000])
def test_batched_kde_matches_per_column_oracle_bitwise(n, grid_size):
    refines = assert_matches_loop(kde_columns(n, 21), grid_size)
    # a constant column between live ones, a heavy-tailed column at the refine
    # cap, and live columns sharing a refine group; on a finer grid than two
    # points they fall in two or more groups
    assert refines[3] == 0
    assert refines[2] == KDE_MAX_REFINE
    live = [r for r in refines if r]
    assert len(live) > len(set(live))
    assert grid_size == 2 or len(set(live)) >= 2


def test_batched_kde_splits_a_large_refine_group_into_batches():
    # on a two-point grid every live column bins at the refine cap; a batch of
    # 2^18 values holds six columns of 40000, so the seven take two batches
    refines = assert_matches_loop(kde_columns(40_000, 24), 2)
    assert refines.count(KDE_MAX_REFINE) == 7


def test_batched_kde_single_column_and_single_column_wrapper():
    values = kde_columns(2000, 22)
    assert_matches_loop(values[:, 1:2], 512)
    d, (want, _) = estimate_density(values[:, 1]), estimate_density_loop(values[:, 1])
    assert d.bandwidth == want.bandwidth and np.array_equal(d.density, want.density)


def test_batched_kde_errors():
    rng = np.random.default_rng(23)
    with pytest.raises(ValueError, match=f">= {MIN_KDE_SAMPLES} values, got {MIN_KDE_SAMPLES - 1}"):
        estimate_densities(rng.normal(size=(MIN_KDE_SAMPLES - 1, 3)))
    with pytest.raises(ValueError, match=f">= {MIN_KDE_GRID} points, got {MIN_KDE_GRID - 1}"):
        estimate_densities(rng.normal(size=(500, 3)), MIN_KDE_GRID - 1)
    for bad in (rng.normal(size=500), rng.normal(size=(500, 2, 2))):
        with pytest.raises(ValueError, match=r"\(n, P\) array"):
            estimate_densities(bad)
    values = rng.normal(size=(500, 3))
    values[7, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        estimate_densities(values)


# ---------------------------------------------------------------------------
# band comparison
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def beam_strain_surrogates():
    prior_space = uniform_space([(1130, 1450), (-5, 0)])
    grid = build_sparse_grid(prior_space, generate_index_set("sum", 2, 3))
    prior_sur = Surrogate.from_model(grid, lambda p: beam_proxy(p)[:, 9:])
    post_space = ParameterSpace.from_pairs(
        [("T_A", Gaussian(1341.0, 9.0)), ("log_h_p", Uniform(-5.0, -1.4))])
    post_grid = build_sparse_grid(post_space, generate_index_set("sum", 2, 3))
    post_sur = Surrogate.from_model(post_grid, lambda p: beam_proxy(p)[:, 9:])
    return prior_sur, post_sur


def test_identical_specs_give_identical_bands_up_to_noise(beam_strain_surrogates):
    prior_sur, _ = beam_strain_surrogates
    spec = spec_of([Uniform(1130, 1450), Uniform(-5, 0)], [[1130, -5], [1450, 0]],
                   names=("T_A", "log_h_p"))
    cmp_ = BandComparison(*(uncertainty_bands(spec, prior_sur, n=10_000, seed=10)
                            for _ in range(2)))
    rel = np.abs(cmp_.posterior_widths() - cmp_.prior_widths()) / cmp_.prior_widths()
    assert np.max(rel) < 0.03
    # one distribution, surrogate, n and seed: one band, bit for bit
    for prior, post in zip(cmp_.prior, cmp_.posterior):
        assert (prior.mode, prior.q05, prior.q95) == (post.mode, post.q05, post.q95)
        assert np.array_equal(prior.density, post.density)


def test_posterior_bands_narrower_and_target_covered(beam_strain_surrogates):
    prior_sur, post_sur = beam_strain_surrogates
    prior_spec = spec_of([Uniform(1130, 1450), Uniform(-5, 0)],
                         [[1130, -5], [1450, 0]], names=("T_A", "log_h_p"))
    post_spec = spec_of([Gaussian(1341.0, 9.0), Uniform(-5.0, -1.4)],
                        [[1130, -5], [1450, 0]], names=("T_A", "log_h_p"))
    cmp_ = BandComparison(prior=uncertainty_bands(prior_spec, prior_sur, n=10_000, seed=11),
                          posterior=uncertainty_bands(post_spec, post_sur, n=10_000, seed=11))
    narrower = cmp_.posterior_widths() < cmp_.prior_widths()
    assert narrower.mean() >= 0.95
    target = beam_proxy(np.array([[1339.8, -3.75]]))[0, 9:]
    inside = np.array([d.q05 <= t <= d.q95
                       for d, t in zip(cmp_.posterior, target)])
    assert inside.mean() >= 0.95
    for d in cmp_.prior + cmp_.posterior:
        assert np.trapezoid(d.density, d.grid) == pytest.approx(1.0, abs=1e-3)


def test_bands_csv_layout(tmp_path, beam_strain_surrogates):
    prior_sur, _ = beam_strain_surrogates
    spec = spec_of([Uniform(1130, 1450), Uniform(-5, 0)], [[1130, -5], [1450, 0]],
                   names=("T_A", "log_h_p"))
    band = uncertainty_bands(spec, prior_sur, n=2000, seed=12)
    d = BandComparison(prior=band, posterior=band)
    path = tmp_path / "bands.csv"
    coords = np.linspace(0.5, 60.0, 120)
    write_bands_csv(path, d, [f"eps_{j}" for j in range(1, 121)], coords,
                    target_values=np.ones(120))
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["location_id", "x", "prior_mode", "prior_q05",
                                   "prior_q95", "post_mode", "post_q05", "post_q95",
                                   "target_value"]
    assert len(lines) == 121
    first = lines[1].split(",")
    assert first[0] == "eps_1" and float(first[1]) == 0.5


def test_binned_kde_matches_direct_sum_on_beam_strains(beam_strain_surrogates):
    prior_sur, post_sur = beam_strain_surrogates
    prior_spec = spec_of([Uniform(1130, 1450), Uniform(-5, 0)],
                         [[1130, -5], [1450, 0]], names=("T_A", "log_h_p"))
    post_spec = spec_of([Gaussian(1341.0, 9.0), Uniform(-5.0, -1.4)],
                        [[1130, -5], [1450, 0]], names=("T_A", "log_h_p"))
    for sur, spec, seed in ((prior_sur, prior_spec, 15), (post_sur, post_spec, 16)):
        out = propagate(sur, sample_posterior(spec, 2000, seed))
        for j in range(0, out.shape[1], 7):
            assert_matches_dense(estimate_density(out[:, j]), out[:, j])


def test_densities_json_bytes_match_streaming_dump(tmp_path):
    rng = np.random.default_rng(17)
    dens = [estimate_density(rng.normal(j, 1.0 + j, 300)) for j in range(3)]
    dens.append(estimate_density(np.full(200, 2.5)))  # degenerate: NaN density
    cmp_ = BandComparison(prior=dens, posterior=dens[::-1])
    ids = [f"eps_{j}" for j in range(4)]
    write_densities_json(tmp_path / "fast.json", cmp_, ids)

    def as_dict(d: DensityEstimate):
        return {"bandwidth": float(d.bandwidth), "grid": [float(x) for x in d.grid],
                "density": [float(x) for x in d.density], "mode": float(d.mode),
                "q05": float(d.q05), "q95": float(d.q95), "degenerate": d.degenerate}

    out = [{"location_id": ids[j], "prior": as_dict(cmp_.prior[j]),
            "posterior": as_dict(cmp_.posterior[j])} for j in range(4)]
    with open(tmp_path / "streamed.json", "w") as fh:
        json.dump(out, fh)
        fh.write("\n")
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "streamed.json").read_bytes()
