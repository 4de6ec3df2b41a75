"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here; the runtime budgets are asserted.
"""

import csv
import json
import time
from itertools import product

import numpy as np
import pytest

from sguq.cli import main as cli_main
from sguq.forward import BandComparison, estimate_density, uncertainty_bands
from sguq.indices import combination_coefficients, generate_index_set
from sguq.inversion import (
    PosteriorSpec,
    build_posterior,
    find_map,
    laplace_covariance,
    profile_likelihood,
    sigma_map,
    synthesize_data,
)
from sguq.knots import knots_for_level, symmetric_gaussian_leja, symmetric_leja
from sguq.models import beam_proxy, ishigami, ISHIGAMI_A, ISHIGAMI_B
from sguq.sobol import sobol_indices
from sguq.surrogate import (
    Gaussian,
    ParameterSpace,
    Surrogate,
    Uniform,
    build_sparse_grid,
    validation_errors,
)

from lagrange_reference import detail_decomposition_check
from test_knots import oracle_symmetric_gaussian_leja, oracle_symmetric_leja

VBAR = np.array([1339.8, -3.75])
SIGMA = 0.01
CANONICAL_SEED = 3


def report(number, label, started):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.2f} s) {label}")
    return elapsed


def uniform_space(bounds, names=None):
    names = names or [f"v{i + 1}" for i in range(len(bounds))]
    return ParameterSpace.from_pairs(
        [(n, Uniform(a, b)) for n, (a, b) in zip(names, bounds)])


def beam_displacements(p):
    return beam_proxy(p)[:, :9]


def beam_strains(p):
    return beam_proxy(p)[:, 9:]


@pytest.fixture(scope="module")
def beam_space():
    return uniform_space([(1130.0, 1450.0), (-5.0, 0.0)], ["T_A", "log_h_p"])


@pytest.fixture(scope="module")
def beam_surrogate(beam_space):
    grid = build_sparse_grid(beam_space, generate_index_set("sum", 2, 3))
    return Surrogate.from_model(grid, beam_displacements)


def test_criterion_1_combination_coefficient_golden():
    t0 = time.time()
    mset = generate_index_set("sum", 2, 3)
    coeffs = combination_coefficients(mset)
    nonzero = {i: c for i, c in coeffs.items() if c != 0}
    assert nonzero == {(1, 3): -1, (1, 4): 1, (2, 2): -1, (2, 3): 1,
                       (3, 1): -1, (3, 2): 1, (4, 1): 1}
    space = uniform_space([(1130.0, 1450.0), (-5.0, 0.0)])
    grid = build_sparse_grid(space, mset)
    assert grid.n_points == 25
    elapsed = report(1, "combination-coefficient breakdown and 25-point union", t0)
    assert elapsed < 1.0


def test_criterion_2_grid_size_golden():
    t0 = time.time()
    space = uniform_space([(0.0, 1.0), (-1.0, 1.0), (2.0, 8.0)])
    grid = build_sparse_grid(space, generate_index_set("max", 3, 1))
    assert grid.n_points == 27
    a, b = -2.0, 6.0
    assert knots_for_level(Uniform(a, b), 2).tolist() == [b, a, (a + b) / 2]
    elapsed = report(2, "27-point screening grid and 3-point level-2 knots", t0)
    assert elapsed < 1.0


def test_criterion_3_interpolation_and_exactness():
    t0 = time.time()
    # interpolation at every grid point
    space = uniform_space([(-np.pi, np.pi)] * 3)
    grid = build_sparse_grid(space, generate_index_set("sum", 3, 3))
    sur = Surrogate.from_model(grid, ishigami)
    got = sur.evaluate(grid.points)
    assert np.max(np.abs(got - sur.values)) <= 1e-12 * np.abs(sur.values).max()
    # partition of unity at 1000 random points
    ones = Surrogate.from_model(grid, lambda p: np.ones((len(p), 1)))
    rng = np.random.default_rng(0)
    box = space.uniform_box()
    v = box[0] + (box[1] - box[0]) * rng.random((1000, 3))
    assert np.max(np.abs(ones.evaluate(v) - 1.0)) <= 1e-12
    # per-dimension degree <= 2w exactness on tensor-style sets
    space2 = uniform_space([(-1.0, 1.0), (0.5, 2.0)])
    for w in (1, 2, 3):
        grid2 = build_sparse_grid(space2, generate_index_set("max", 2, w))
        c1, c2 = rng.normal(size=2 * w + 1), rng.normal(size=2 * w + 1)
        poly = lambda p: (np.polyval(c1, p[:, 0]) * np.polyval(c2, p[:, 1]))[:, None]
        sur2 = Surrogate.from_model(grid2, poly)
        box2 = space2.uniform_box()
        v2 = box2[0] + (box2[1] - box2[0]) * rng.random((200, 2))
        ref = poly(v2)
        assert np.max(np.abs(sur2.evaluate(v2) - ref)) <= 1e-10 * np.abs(ref).max()
    elapsed = report(3, "grid-point reproduction, unity partition, 2w exactness", t0)
    assert elapsed < 10.0


def test_criterion_4_combination_equals_detail_sum():
    t0 = time.time()
    ishigami_2d = lambda p: ishigami(
        np.column_stack([p[:, 0], p[:, 1], np.full(len(p), 1.234)]))[:, 0]
    cases = [
        (lambda p: p[:, 0] + p[:, 1], uniform_space([(0, 1), (0, 1)])),
        (ishigami_2d, uniform_space([(-np.pi, np.pi)] * 2)),
        (lambda p: beam_proxy(p)[:, 0], uniform_space([(1130.0, 1450.0), (-5.0, 0.0)])),
    ]
    sets = [generate_index_set("sum", 2, 2), generate_index_set("sum", 2, 3),
            generate_index_set("max", 2, 2)]
    for (fn, space), mset in product(cases, sets):
        assert detail_decomposition_check(space, mset, fn, n_points=50,
                                          rtol=1e-10, seed=17)
    elapsed = report(4, "combination technique equals hierarchical detail sum "
                        "(3 functions x 3 sets)", t0)
    assert elapsed < 10.0


def test_criterion_5_leja_oracle_nestedness_symmetry():
    t0 = time.time()
    lib_u = symmetric_leja(9, -1.0, 1.0)
    assert np.max(np.abs(lib_u - oracle_symmetric_leja(9, -1.0, 1.0))) < 1e-8
    lib_g = symmetric_gaussian_leja(9)
    assert np.max(np.abs(lib_g - oracle_symmetric_gaussian_leja(9))) < 1e-8
    for family in (Uniform(-1.0, 1.0), Gaussian(0.0, 1.0)):
        for level in range(1, 5):
            small = knots_for_level(family, level)
            big = knots_for_level(family, level + 1)
            assert np.array_equal(big[: len(small)], small)
        pts = knots_for_level(family, 5)
        start = 3 if isinstance(family, Uniform) else 1
        for k in range(start, len(pts) - 1, 2):
            assert pts[k + 1] == pytest.approx(2.0 * family.center - pts[k],
                                               abs=1e-12 * family.scale)
    elapsed = report(5, "Leja points match the brute-force oracle; nested and "
                        "symmetric through level 5", t0)
    assert elapsed < 60.0


def test_criterion_6_sobol_accuracy():
    t0 = time.time()
    space = uniform_space([(-np.pi, np.pi)] * 3)
    grid = build_sparse_grid(space, generate_index_set("sum", 3, 8))
    sur = Surrogate.from_model(grid, ishigami)
    a, b = ISHIGAMI_A, ISHIGAMI_B
    d1 = b * np.pi ** 4 / 5 + b ** 2 * np.pi ** 8 / 50 + 0.5
    d2 = a ** 2 / 8
    d = d2 + b * np.pi ** 4 / 5 + b ** 2 * np.pi ** 8 / 18 + 0.5
    principal = np.array([d1 / d, d2 / d, 0.0])
    total = np.array([(d - d2) / d, d2 / d, (d - d1 - d2) / d])
    res = sobol_indices(sur)
    assert np.max(np.abs(res.principal[0] - principal)) < 0.02
    assert np.max(np.abs(res.total[0] - total)) < 0.02
    elapsed = report(6, "Ishigami Sobol indices within 0.02 of the ANOVA values "
                        "(exact indices of the modal surrogate)", t0)
    assert elapsed < 30.0


def test_criterion_7_inversion_consistency(beam_space, beam_surrogate):
    t0 = time.time()
    # (a) per-repetition MAP coverage at 3 posterior standard deviations
    hits = 0
    sigma2_values = []
    for rep in range(200):
        meas = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, rep)
        result = find_map(beam_surrogate, meas, n_starts=16, seed=rep)
        s2 = sigma_map(result.ls_min, meas.n)
        sigma2_values.append(s2)
        if rep < 100:
            cov = laplace_covariance(beam_surrogate, meas, result.v_map, s2)
            if abs(result.v_map[0] - VBAR[0]) <= 3.0 * np.sqrt(cov.matrix[0, 0]):
                hits += 1
    assert hits >= 95, f"coverage {hits}/100"
    # (b) noise-variance estimator consistency over 200 seeds
    mean_s2 = float(np.mean(sigma2_values))
    assert abs(mean_s2 - SIGMA ** 2) <= 0.25 * SIGMA ** 2, mean_s2
    # (c) mixed posterior form at the canonical seed
    meas = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, CANONICAL_SEED)
    result = find_map(beam_surrogate, meas, n_starts=16, seed=CANONICAL_SEED)
    s2 = sigma_map(result.ls_min, meas.n)
    cov = laplace_covariance(beam_surrogate, meas, result.v_map, s2)
    profiles = [profile_likelihood(beam_surrogate, meas, n, result.v_map)
                for n in range(2)]
    posterior = build_posterior(result, cov, profiles, beam_space, s2)
    assert posterior.classification == ("identifiable", "weakly_identifiable")
    assert isinstance(posterior.space.dims[0].dist, Gaussian)
    assert isinstance(posterior.space.dims[1].dist, Uniform)
    # (d) linear-Gaussian covariance against the closed form
    amat = np.array([[1.0, 0.4], [0.2, 1.3], [0.7, -0.5]])
    lin_space = uniform_space([(-1, 1), (-1, 1)])
    lin_grid = build_sparse_grid(lin_space, generate_index_set("sum", 2, 2))
    lin_sur = Surrogate.from_model(lin_grid, lambda p: p @ amat.T)
    from sguq.inversion import Measurements
    lin_meas = Measurements(values=[0.05, -0.02, 0.04], location_ids=(0, 1, 2),
                            noise_std=0.1)
    lin_map = find_map(lin_sur, lin_meas, n_starts=6, seed=0)
    lin_cov = laplace_covariance(lin_sur, lin_meas, lin_map.v_map, 0.01)
    expected = 0.01 * np.linalg.inv(amat.T @ amat)
    assert np.max(np.abs(lin_cov.matrix - expected)) < 1e-6
    elapsed = report(7, f"MAP coverage {hits}/100, mean sigma2 ratio "
                        f"{mean_s2 / SIGMA ** 2:.3f}, mixed posterior form, "
                        "linear-Gaussian covariance", t0)
    assert elapsed < 300.0


def test_criterion_8_convergence_metrics(beam_space):
    t0 = time.time()
    rng = np.random.default_rng(0)
    box = beam_space.uniform_box()
    samples = box[0] + (box[1] - box[0]) * rng.random((50, 2))
    previous = None
    for w in range(4):
        grid = build_sparse_grid(beam_space, generate_index_set("sum", 2, w))
        sur = Surrogate.from_model(grid, beam_displacements)
        err = validation_errors(sur, beam_displacements, samples)
        if previous is not None:
            assert np.all(err.e_ppe < previous.e_ppe)
            assert np.all(err.e_mse < previous.e_mse)
        previous = err
    assert np.all(previous.e_ppe < 1e-2)
    elapsed = report(8, "prediction errors decrease over w=0..3; final max "
                        f"relative error {previous.e_ppe.max():.2e} < 1e-2", t0)
    assert elapsed < 30.0


def test_criterion_9_forward_uq(beam_space, beam_surrogate):
    t0 = time.time()
    # inversion-produced posterior at the canonical seed
    meas = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, CANONICAL_SEED)
    result = find_map(beam_surrogate, meas, n_starts=16, seed=CANONICAL_SEED)
    s2 = sigma_map(result.ls_min, meas.n)
    cov = laplace_covariance(beam_surrogate, meas, result.v_map, s2)
    profiles = [profile_likelihood(beam_surrogate, meas, n, result.v_map)
                for n in range(2)]
    posterior = build_posterior(result, cov, profiles, beam_space, s2)

    prior_spec = PosteriorSpec.from_prior(beam_space)
    prior_grid = build_sparse_grid(beam_space, generate_index_set("sum", 2, 3))
    prior_sur = Surrogate.from_model(prior_grid, beam_strains)
    post_grid = build_sparse_grid(posterior.space, generate_index_set("sum", 2, 3))
    post_sur = Surrogate.from_model(post_grid, beam_strains)

    comparison = BandComparison(prior=uncertainty_bands(prior_spec, prior_sur, n=10_000, seed=0),
                                posterior=uncertainty_bands(posterior, post_sur, n=10_000, seed=0))
    narrower = comparison.posterior_widths() < comparison.prior_widths()
    assert narrower.mean() >= 0.95, f"narrower at {narrower.sum()}/120"
    target = beam_strains(VBAR[None])[0]
    inside = np.array([d.q05 <= t <= d.q95
                       for d, t in zip(comparison.posterior, target)])
    assert inside.mean() >= 0.95, f"target inside at {inside.sum()}/120"
    for d in comparison.prior + comparison.posterior:
        assert abs(np.trapezoid(d.density, d.grid) - 1.0) <= 1e-3
    rng = np.random.default_rng(1)
    std_normal = estimate_density(rng.normal(0.0, 1.0, 100_000))
    assert std_normal.q05 == pytest.approx(-1.6449, abs=0.03)
    assert std_normal.q95 == pytest.approx(1.6449, abs=0.03)
    elapsed = report(9, f"bands narrower at {narrower.sum()}/120, target inside at "
                        f"{inside.sum()}/120, KDE integrals and quantiles in range", t0)
    assert elapsed < 120.0


def test_criterion_10_pipeline_accounting_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    config = {
        "space": [
            {"name": "T_A", "distribution": "uniform", "range": [1130, 1450]},
            {"name": "log_h_g", "distribution": "uniform", "range": [-5, 0]},
            {"name": "log_h_p", "distribution": "uniform", "range": [-5, 0]},
        ],
        "model": {"builtin": "beam_proxy"},
        "gsa": {"n_samples": 16384, "seed": 0, "threshold": 0.05},
        "inversion": {"noise_std": SIGMA, "target": [1339.8, -3.75],
                      "seed": CANONICAL_SEED, "n_starts": 16,
                      "start_seed": CANONICAL_SEED},
        "forward": {"n_samples": 10000, "seed": 0},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    per_stage = [manifest["stages"][s]["model_evaluations"]
                 for s in ("gsa", "invert", "forward")]
    assert per_stage == [9, 16, 25]
    assert manifest["total_model_evaluations"] == 50

    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(out2),
                     "--validate", "--compare-prior"]) == 0
    validated = json.loads((out2 / "manifest.json").read_text())
    assert validated["total_model_evaluations"] == 150

    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(out3)]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files3 = sorted(p.relative_to(out3) for p in out3.rglob("*") if p.is_file())
    assert files1 == files3
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out3 / rel).read_bytes(), rel

    rows = list(csv.DictReader((out2 / "forward" / "bands.csv").read_text().splitlines()))
    assert len(rows) == 120
    elapsed = report(10, "pipeline budgets 50 and 150 evaluations; reruns "
                         "byte-identical", t0)
    assert elapsed < 300.0
