import json

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import minimize

import sguq.inversion
from sguq._trf import trf_unit_box
from trf_reference import trf_unit_box as reference_trf_unit_box
from sguq.indices import generate_index_set
from sguq.inversion import (
    CLUSTER_TOL,
    InversionError,
    LaplaceCovariance,
    MapResult,
    Measurements,
    PosteriorSpec,
    build_posterior,
    find_map,
    laplace_covariance,
    least_squares,
    log_likelihood,
    profile_likelihood,
    sigma_map,
    synthesize_data,
    _latin_hypercube,
)
from sguq.knots import symmetric_leja
from sguq.models import beam_proxy
from sguq.surrogate import Gaussian, ParameterSpace, Surrogate, Uniform, build_sparse_grid

BEAM_BOUNDS = [("T_A", Uniform(1130.0, 1450.0)), ("log_h_p", Uniform(-5.0, 0.0))]
VBAR = np.array([1339.8, -3.75])
SIGMA = 0.01
SEED = 3  # canonical noise/start seed for the beam fixtures


def beam_displacements(p):
    return beam_proxy(p)[:, :9]


def make_beam_surrogate():
    space = ParameterSpace.from_pairs(BEAM_BOUNDS)
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 3))
    return Surrogate.from_model(grid, beam_displacements,
                                output_names=tuple(f"u_{k}" for k in range(1, 10)))


@pytest.fixture(scope="module")
def beam_surrogate():
    return make_beam_surrogate()


@pytest.fixture(scope="module")
def beam_measurements():
    return synthesize_data(beam_displacements, VBAR, tuple(range(9)), SIGMA, SEED)


@pytest.fixture(scope="module")
def beam_inversion(beam_surrogate, beam_measurements):
    result = find_map(beam_surrogate, beam_measurements, n_starts=16, seed=SEED)
    s2 = sigma_map(result.ls_min, beam_measurements.n)
    cov = laplace_covariance(beam_surrogate, beam_measurements, result.v_map, s2)
    profiles = [profile_likelihood(beam_surrogate, beam_measurements, n, result.v_map)
                for n in range(2)]
    return result, s2, cov, profiles


def identity_surrogate(bounds=((0.0, 1.0), (0.0, 1.0))):
    """Surrogate of the identity map u(v) = v; LS is exactly quadratic."""
    space = ParameterSpace.from_pairs(
        [(f"v{i + 1}", Uniform(a, b)) for i, (a, b) in enumerate(bounds)])
    grid = build_sparse_grid(space, generate_index_set("sum", len(bounds), 1))
    return Surrogate.from_model(grid, lambda p: p.copy())


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def test_measurements_validation_and_json():
    m = Measurements(values=[1.0, 2.0], location_ids=(0, 3), noise_std=0.1,
                     seed=5, target=np.array([0.5, 0.5]))
    back = Measurements.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
    assert back.values.tolist() == [1.0, 2.0]
    assert back.location_ids == (0, 3)
    assert back.noise_std == 0.1 and back.seed == 5
    with pytest.raises(ValueError):
        Measurements(values=[1.0], location_ids=(0, 1), noise_std=0.1)
    with pytest.raises(ValueError):
        Measurements(values=[1.0], location_ids=(0,), noise_std=0.0)


def test_measurement_ids_are_non_negative_integers():
    # int() used to turn 1.5 into 1 and True into 1, and -1 then read the last output
    with pytest.raises(TypeError):
        Measurements(values=[1.0, 2.0], location_ids=(1.5, 0), noise_std=1.0)
    for bad in (-1, True):
        with pytest.raises(ValueError, match="location ids"):
            Measurements(values=[1.0, 2.0], location_ids=(0, bad), noise_std=1.0)
    m = Measurements(values=[1.0], location_ids=(np.int64(2),), noise_std=1.0)
    assert m.location_ids == (2,) and type(m.location_ids[0]) is int


def test_synthesize_is_deterministic():
    a = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, 42)
    b = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, 42)
    assert np.array_equal(a.values, b.values)
    c = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, 43)
    assert not np.array_equal(a.values, c.values)


def test_synthesize_vanishing_noise_limit():
    m = synthesize_data(beam_displacements, VBAR, range(9), 1e-12, 0)
    clean = beam_displacements(VBAR[None, :])[0]
    assert np.max(np.abs(m.values - clean)) < 1e-10


def test_synthesize_three_sigma_bound_frequency():
    clean = beam_displacements(VBAR[None, :])[0]
    inside = 0
    for seed in range(1000):
        m = synthesize_data(lambda p: clean[None, :], VBAR, range(9), SIGMA, seed)
        inside += np.all(np.abs(m.values - clean) < 3 * SIGMA)
    # per-sample 3-sigma coverage is 99.7%; all-9 joint coverage ~97.6%
    assert inside >= 950


# ---------------------------------------------------------------------------
# misfit functionals
# ---------------------------------------------------------------------------


def test_least_squares_zero_at_generating_point():
    sur = identity_surrogate()
    m = Measurements(values=[0.3, 0.7], location_ids=(0, 1), noise_std=1.0)
    assert least_squares(sur, m, np.array([0.3, 0.7])) == pytest.approx(0.0, abs=1e-28)


def test_least_squares_arithmetic():
    sur = identity_surrogate()
    m = Measurements(values=[0.5, 0.2], location_ids=(0, 1), noise_std=1.0)
    # misfits (0.1, -0.2) -> 0.01 + 0.04
    assert least_squares(sur, m, np.array([0.4, 0.4])) == pytest.approx(0.05)


def test_least_squares_expected_value(beam_surrogate):
    vals = []
    for seed in range(200):
        m = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, seed)
        vals.append(least_squares(beam_surrogate, m, VBAR))
    assert np.mean(vals) == pytest.approx(9 * SIGMA ** 2, rel=0.2)


def test_log_likelihood_constant_case():
    sur = identity_surrogate(((0.0, 1.0),))
    m = Measurements(values=[0.5], location_ids=(0,), noise_std=1.0)
    assert log_likelihood(sur, m, np.array([0.5])) == pytest.approx(-0.5 * np.log(2 * np.pi))


def test_log_likelihood_monotone_in_ls(beam_surrogate, beam_measurements):
    v1, v2 = np.array([1340.0, -3.0]), np.array([1250.0, -3.0])
    ls1 = least_squares(beam_surrogate, beam_measurements, v1)
    ls2 = least_squares(beam_surrogate, beam_measurements, v2)
    ll1 = log_likelihood(beam_surrogate, beam_measurements, v1)
    ll2 = log_likelihood(beam_surrogate, beam_measurements, v2)
    assert (ls1 < ls2) == (ll1 > ll2)


def test_posterior_proportional_to_exp_neg_ls(beam_surrogate, beam_measurements):
    # with a uniform prior the normalized posterior is exp(-LS / 2 sigma^2) / C;
    # the likelihood must match it up to one global constant on a grid
    rng = np.random.default_rng(0)
    box = beam_surrogate.grid.space.uniform_box()
    v = box[0] + (box[1] - box[0]) * rng.random((64, 2))
    ls = least_squares(beam_surrogate, beam_measurements, v)
    ll = log_likelihood(beam_surrogate, beam_measurements, v)
    shift = ll + ls / (2 * beam_measurements.noise_std ** 2)
    assert np.max(shift) - np.min(shift) < 1e-9


# ---------------------------------------------------------------------------
# MAP search
# ---------------------------------------------------------------------------


def test_find_map_quadratic_recovers_analytic_minimum():
    sur = identity_surrogate()
    m = Measurements(values=[0.62, 0.31], location_ids=(0, 1), noise_std=1.0)
    res = find_map(sur, m, n_starts=8, seed=0)
    assert np.max(np.abs(res.v_map - [0.62, 0.31])) < 1e-6
    assert len(res.minima) == 1


def test_find_map_rejects_too_few_starts(beam_surrogate, beam_measurements):
    with pytest.raises(ValueError):
        find_map(beam_surrogate, beam_measurements, n_starts=2, seed=0)


def test_find_map_noiseless_recovery_at_grid_point(beam_surrogate):
    # target on the sparse grid, in the steep part of the saturation curve:
    # both parameters are then identifiable and exactly recoverable
    t_knot = symmetric_leja(5, 1130.0, 1450.0)[2]
    x_knot = symmetric_leja(7, -5.0, 0.0)[4]
    target = np.array([t_knot, x_knot])
    assert any(np.array_equal(p, target) for p in beam_surrogate.grid.points)
    m = synthesize_data(beam_displacements, target, range(9), 1e-12, 0)
    res = find_map(beam_surrogate, m, n_starts=16, seed=0)
    z_err = np.abs(res.v_map - target) / np.array([320.0, 5.0])
    assert np.max(z_err) < 1e-4


def test_find_map_beam_clusters_differ_in_weak_dimension(beam_surrogate, beam_measurements):
    res = find_map(beam_surrogate, beam_measurements, n_starts=16, seed=SEED)
    assert len(res.minima) >= 2
    pts = np.array([cl.v for cl in res.minima])
    spread_t = (pts[:, 0].max() - pts[:, 0].min()) / 320.0
    spread_x = (pts[:, 1].max() - pts[:, 1].min()) / 5.0
    assert spread_x > 5 * spread_t


def test_find_map_records_each_start_convergence(beam_inversion):
    result = beam_inversion[0]
    assert result.n_starts == 16 and len(result.starts) == 16
    assert sum(cl.n_hits for cl in result.minima) == 16
    converged = sum(1 for s in result.starts if s["status"] > 0)
    assert converged + result.n_not_converged == 16
    # every start evaluates its residual and Jacobian at least at the start point
    assert all(s["nfev"] >= 1 and s["njev"] >= 1 for s in result.starts)


def test_find_map_start_point_is_the_first_start_of_each_minimum(
        beam_surrogate, beam_measurements, monkeypatch):
    # the hits at one minimum differ in LS only by rounding, so the lowest-LS hit's start
    # moved with any rounding change; the first start in start order does not
    ends = []

    def recording(fun, x0, tol):
        res = trf_unit_box(fun, x0, tol)
        ends.extend(zip(x0, res[0], 2.0 * res[1]))
        return res

    monkeypatch.setattr(sguq.inversion, "trf_unit_box", recording)
    result = find_map(beam_surrogate, beam_measurements, n_starts=16, seed=SEED)
    box = beam_surrogate.grid.space.uniform_box()
    lo, width = box[0], box[1] - box[0]
    assert [cl.n_hits for cl in result.minima] == [6, 7, 2, 1]
    for cl in result.minima:
        hits = [k for k, (_, x, _) in enumerate(ends)
                if np.linalg.norm((lo + x * width - cl.v) / width) < CLUSTER_TOL]
        assert len(hits) == cl.n_hits
        assert np.array_equal(cl.start_point, lo + ends[hits[0]][0] * width)
        # the reported point and LS are still the lowest-LS hit's
        assert cl.ls == min(ends[k][2] for k in hits)


def test_map_result_counts_status_at_most_zero_as_not_converged():
    starts = [{"status": st, "nfev": 5, "njev": 4} for st in (-1, 0, 1, 2, 3, 4)]
    res = MapResult(v_map=np.zeros(2), ls_min=0.0, minima=[], n_starts=6, seed=0,
                    starts=starts)
    assert res.n_not_converged == 2


def nelder_mead_map(surrogate, meas, n_starts, seed):
    """The former multi-start Nelder-Mead MAP search, kept as the oracle.

    Box-normalized coordinates; a point leaving the box is reflected back
    inside for the misfit and charged a quadratic penalty on the violation,
    scaled by the box-centre misfit.  Returns the lowest (v, ls) over the same
    Latin-hypercube starts as find_map.
    """
    box = surrogate.grid.space.uniform_box()
    lo, width = box[0], box[1] - box[0]

    def fold(z):
        return 1.0 - np.abs(1.0 - np.mod(z, 2.0))

    def ls_at(z):
        return least_squares(surrogate, meas, lo + fold(z) * width)

    scale = 1e3 * (1.0 + ls_at(np.full(len(lo), 0.5)))

    def objective(z):
        viol = np.clip(-z, 0.0, None) + np.clip(z - 1.0, 0.0, None)
        return ls_at(z) + scale * np.sum(viol * viol)

    best = None
    for z0 in _latin_hypercube(n_starts, len(lo), seed):
        res = minimize(objective, z0, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": np.inf, "maxiter": 500,
                                "maxfev": 2000})
        v = lo + fold(res.x) * width
        ls = least_squares(surrogate, meas, v)
        if best is None or ls < best[1]:
            best = (v, ls)
    return best


def analytic_4d_case():
    # four identifiable parameters with unequal box widths; eight stations
    # whose sensitivities have different profiles
    bounds = [("a", Uniform(1.0, 3.0)), ("b", Uniform(-1.0, 1.0)),
              ("c", Uniform(10.0, 20.0)), ("d", Uniform(0.0, 0.5))]
    t = np.arange(1, 9) / 8.0

    def model(p):
        a, b, c, d = ((p - [1.0, -1.0, 10.0, 0.0]) / [2.0, 2.0, 10.0, 0.5]).T[:, :, None]
        return (1.0 + 0.6 * (1.0 - t) * np.exp(0.8 * a) + 0.8 * t * (b + 0.4 * b * b)
                + 0.5 * np.sin(2.0 * np.pi * t) * np.log1p(1.5 * c)
                + 0.5 * np.cos(2.0 * np.pi * t) * np.sin(1.2 * d) + 0.2 * t * a * b)

    space = ParameterSpace.from_pairs(bounds)
    grid = build_sparse_grid(space, generate_index_set("sum", 4, 3))
    sur = Surrogate.from_model(grid, model)
    meas = synthesize_data(model, np.array([2.2, 0.1, 13.5, 0.2]), range(8), 0.005, 3)
    return sur, meas, 8, 3


def linear_gaussian_case():
    amat = np.array([[1.0, 0.4], [0.2, 1.3], [0.7, -0.5]])
    space = ParameterSpace.from_pairs([("a", Uniform(-1, 1)), ("b", Uniform(-1, 1))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: p @ amat.T)
    m = Measurements(values=[0.05, -0.02, 0.04], location_ids=(0, 1, 2), noise_std=0.1)
    return sur, m, 6, 0


def beam_case(seed):
    def case():
        meas = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, seed)
        return make_beam_surrogate(), meas, 16, seed
    return case


# the canonical beam seed, and seed 7, where scipy's default 1e-8 tolerances
# stop 1.1e-9 relative above the oracle's misfit in the flat weak direction
@pytest.mark.parametrize("case", [beam_case(SEED), beam_case(7), linear_gaussian_case,
                                  analytic_4d_case],
                         ids=["beam", "beam_seed7", "linear_gaussian", "analytic_4d"])
def test_find_map_agrees_with_nelder_mead_oracle(case):
    sur, meas, n_starts, seed = case()
    v_oracle, ls_oracle = nelder_mead_map(sur, meas, n_starts, seed)
    res = find_map(sur, meas, n_starts=n_starts, seed=seed)
    box = sur.grid.space.uniform_box()
    assert np.linalg.norm((res.v_map - v_oracle) / (box[1] - box[0])) < CLUSTER_TOL
    assert res.ls_min <= ls_oracle * (1.0 + 1e-10)
    assert res.n_not_converged == 0


def record_searches(monkeypatch, cases):
    """Run find_map on each case; per case: the search's batch function, x0, tol and result."""
    searches = []

    def recording(fun, x0, tol):
        searches.append((fun, x0, tol, trf_unit_box(fun, x0, tol)))
        return searches[-1][-1]

    monkeypatch.setattr(sguq.inversion, "trf_unit_box", recording)
    for case in cases:
        sur, meas, n_starts, seed = case()
        find_map(sur, meas, n_starts=n_starts, seed=seed)
    monkeypatch.undo()
    return searches


def single_point_starts(fun, x0, tol, res):
    """Per start: closures taking one point through the batch function, x0, tol and result.

    The closures pass a batch of one and return C-contiguous arrays.
    """
    def one(z):
        return np.ascontiguousarray(fun(z[None])[0][0])

    def one_jac(z):
        return np.ascontiguousarray(fun(z[None])[1]([0])[0])

    return [(one, one_jac, z, tol, tuple(a[k] for a in res)) for k, z in enumerate(x0)]


ORACLE_CASES = [beam_case(s) for s in range(3, 40)] + [linear_gaussian_case, analytic_4d_case]


def test_trf_port_agrees_with_scipy_least_squares(monkeypatch):
    """SciPy's least_squares(method="trf") is the oracle for every start find_map makes.

    The cases are the four above plus beam seeds 4-39 (606 starts).  Against
    stock SciPy the port must give the same (status, nfev, njev) on 99% of
    starts and every x within 1e-7 (box-normalized): numpy and SciPy link
    different LAPACK builds, and an SVD rounded differently can tip a
    stopping test or the choice among near-equal steps at a box-edge
    minimum.  With SciPy's TRF running on numpy's SVD, the two must agree
    bit for bit.  SciPy runs each start alone, on single-point closures
    built from the lockstep search's batch function.
    """
    calls = [start for search in record_searches(monkeypatch, ORACLE_CASES)
             for start in single_point_starts(*search)]
    assert len(calls) == 37 * 16 + 6 + 8

    def scipy_trf(fun, jac, x0, tol):
        return scipy.optimize.least_squares(fun, x0, jac=jac, bounds=(0.0, 1.0), method="trf",
                                            ftol=tol, xtol=tol, gtol=tol)

    same_record = 0
    for fun, jac, x0, tol, (x, cost, status, nfev, njev) in calls:
        ref = scipy_trf(fun, jac, x0, tol)
        same_record += (status, nfev, njev) == (ref.status, ref.nfev, ref.njev)
        assert np.linalg.norm(x - ref.x) < 1e-7
    assert same_record >= 0.99 * len(calls)

    monkeypatch.setattr("scipy.optimize._lsq.trf.svd",
                        lambda a, full_matrices: np.linalg.svd(a, full_matrices=full_matrices))
    for fun, jac, x0, tol, (x, cost, status, nfev, njev) in calls:
        ref = scipy_trf(fun, jac, x0, tol)
        assert (status, nfev, njev) == (ref.status, ref.nfev, ref.njev)
        assert np.array_equal(x, ref.x) and cost == ref.cost


def inert_dimension_case():
    # the outputs ignore b, so the Jacobian's b column and the Coleman-Li term
    # of b are exactly 0: every trust-region solve is rank deficient
    amat = np.array([[1.0, 0.0], [0.2, 0.0], [0.7, 0.0]])
    space = ParameterSpace.from_pairs([("a", Uniform(-1, 1)), ("b", Uniform(-1, 1))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: np.tanh(p @ amat.T))
    m = Measurements(values=[0.3, 0.05, 0.2], location_ids=(0, 1, 2), noise_std=0.1)
    return sur, m, 6, 1


def assert_starts_match_the_one_start_search(surrogate, meas, x0, tol, res):
    """Each start of the lockstep search ends bit for bit where it ends searched alone.

    The one-start search of ``tests/trf_reference.py`` runs on one-point
    closures: ``evaluate`` and the Jacobian of ``derivatives``.
    """
    box = surrogate.grid.space.uniform_box()
    lo, width = box[0], box[1] - box[0]
    ids = list(meas.location_ids)

    def fun(z):
        return surrogate.evaluate(lo + z * width)[ids] - meas.values

    def jac(z):
        return surrogate.derivatives(lo + z * width)[1][ids] * width

    for k, z in enumerate(x0):
        ref = reference_trf_unit_box(fun, jac, z, tol)
        x, cost, status, nfev, njev = (a[k] for a in res)
        assert np.array_equal(x, ref.x) and cost == ref.cost
        assert (status, nfev, njev) == (ref.status, ref.nfev, ref.njev)


@pytest.mark.parametrize("case", ORACLE_CASES + [inert_dimension_case],
                         ids=[f"beam_seed{s}" for s in range(3, 40)]
                         + ["linear_gaussian", "analytic_4d", "inert_dimension"])
def test_lockstep_starts_match_the_one_start_search(monkeypatch, case):
    sur, meas = case()[:2]
    [(fun, x0, tol, res)] = record_searches(monkeypatch, [case])
    if case is inert_dimension_case:
        assert np.all(fun(x0)[1](np.arange(len(x0)))[:, :, 1] == 0)
    assert_starts_match_the_one_start_search(sur, meas, x0, tol, res)


def test_a_start_that_spends_its_budget_matches_the_one_start_search(monkeypatch):
    # with tol = 0 no stopping test can hold, so every start runs 100 d residuals
    # and stops with status 0; once converged, its zero steps shrink the radius
    # to 0 and the trust-region solve divides 0 by 0, on both searches alike
    sur, meas, n_starts, _ = linear_gaussian_case()
    [(fun, x0, _, _)] = record_searches(monkeypatch, [linear_gaussian_case])
    with np.errstate(divide="ignore", invalid="ignore"):
        res = trf_unit_box(fun, x0, 0.0)
        assert_starts_match_the_one_start_search(sur, meas, x0, 0.0, res)
    assert res[2].tolist() == [0] * n_starts and res[3].tolist() == [200] * n_starts


@pytest.mark.parametrize("n_measured", [9, 129], ids=["9_of_129", "all_outputs"])
def test_map_residual_and_jacobian_rows_keep_the_single_point_bits(monkeypatch, n_measured):
    # one gemm over a batch would round a point's row otherwise: the search sees
    # the residuals and Jacobians of one-point evaluate and derivatives calls
    space = ParameterSpace.from_pairs(BEAM_BOUNDS)
    sur = Surrogate.from_model(build_sparse_grid(space, generate_index_set("sum", 2, 3)),
                               beam_proxy)
    meas = synthesize_data(beam_proxy, VBAR, range(n_measured), SIGMA, SEED)
    [(fun, _, _, _)] = record_searches(monkeypatch, [lambda: (sur, meas, 4, SEED)])
    box = space.uniform_box()
    lo, width = box[0], box[1] - box[0]
    ids = list(range(n_measured))
    z = np.random.default_rng(5).random((16, 2))
    for q in (1, 2, 16):
        values, jac = fun(z[:q])
        rows = np.arange(q)[::-2]
        for i, row_jac in zip(rows, jac(rows)):
            v = lo + z[i] * width
            assert np.array_equal(values[i], sur.evaluate(v)[ids] - meas.values)
            assert np.array_equal(row_jac, sur.derivatives(v)[1][ids] * width)


def test_sigma_map_arithmetic():
    assert sigma_map(0.09, 9) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        sigma_map(0.1, 0)


def test_sigma_map_consistency_over_seeds(beam_surrogate):
    vals = []
    for seed in range(40):
        m = synthesize_data(beam_displacements, VBAR, range(9), SIGMA, 500 + seed)
        res = find_map(beam_surrogate, m, n_starts=6, seed=500 + seed)
        vals.append(sigma_map(res.ls_min, 9))
    assert np.mean(vals) == pytest.approx(SIGMA ** 2, rel=0.25)


# ---------------------------------------------------------------------------
# Laplace covariance
# ---------------------------------------------------------------------------


def test_laplace_linear_gaussian_matches_analytic():
    # u = A v reproduced exactly by the surrogate: Sigma = sigma^2 (A^T A)^(-1)
    amat = np.array([[1.0, 0.4], [0.2, 1.3], [0.7, -0.5]])
    space = ParameterSpace.from_pairs([("a", Uniform(-1, 1)), ("b", Uniform(-1, 1))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: p @ amat.T)
    m = Measurements(values=[0.05, -0.02, 0.04], location_ids=(0, 1, 2), noise_std=0.1)
    res = find_map(sur, m, n_starts=6, seed=0)
    s2 = 0.01
    cov = laplace_covariance(sur, m, res.v_map, s2)
    expected = s2 * np.linalg.inv(amat.T @ amat)
    assert np.max(np.abs(cov.matrix - expected)) < 1e-6
    assert not cov.gauss_newton_fallback


def test_laplace_jacobian_matches_secant_oracle(beam_surrogate, beam_measurements):
    # the surrogate's analytic Jacobian, which laplace_covariance uses, against
    # a 1e-3-step central secant at a point where both parameters have O(1)
    # sensitivity
    v = np.array([1340.0, -1.2])
    h = 1e-3 * np.array([320.0, 5.0])
    ids = list(beam_measurements.location_ids)
    jac = beam_surrogate.derivatives(v)[1][ids]
    for n in range(2):
        e = np.zeros(2)
        e[n] = h[n]
        oracle = (beam_surrogate.evaluate(v + e) - beam_surrogate.evaluate(v - e))[ids] / (2 * h[n])
        assert np.max(np.abs(jac[:, n] - oracle) / np.abs(oracle)) < 1e-4


def test_laplace_hessian_matches_finite_difference_oracle(beam_surrogate):
    v = np.array([1340.0, -1.2])
    h = 1e-3 * np.array([320.0, 5.0])
    hess = beam_surrogate.derivatives(v)[2]

    def f(dn, dm, n, m):
        p = v.copy()
        p[n] += dn * h[n]
        p[m] += dm * h[m]
        return beam_surrogate.evaluate(p)

    oracle = np.empty_like(hess)
    for n in range(2):
        for m in range(2):
            oracle[:, n, m] = (f(1, 1, n, m) - f(1, -1, n, m) - f(-1, 1, n, m)
                               + f(-1, -1, n, m)) / (4 * h[n] * h[m])
    # the displacements are linear in T_A plus a function of log_h_p, so the
    # log_h_p curvature is the only nonzero entry and sets the scale
    assert np.max(np.abs(hess - oracle)) < 1e-4 * np.abs(hess).max()


def test_laplace_symmetric_positive_definite(beam_inversion):
    _, _, cov, _ = beam_inversion
    assert np.array_equal(cov.matrix, cov.matrix.T)
    assert np.all(np.linalg.eigvalsh(cov.matrix) > 0)


def test_laplace_rank_deficiency_names_direction():
    # model ignores the second parameter entirely
    space = ParameterSpace.from_pairs([("t", Uniform(0, 1)), ("dead", Uniform(0, 1))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: np.column_stack([p[:, 0], 2 * p[:, 0]]))
    m = Measurements(values=[0.5, 1.0], location_ids=(0, 1), noise_std=0.1)
    with pytest.raises(InversionError, match="dead"):
        laplace_covariance(sur, m, np.array([0.5, 0.5]), 0.01)


def test_laplace_gauss_newton_fallback_triggers():
    # the Hessian of LS/2 is J^T J - sum_k M_k H_k with M_k = y_k - u_k: a
    # large positive misfit times a positive second derivative overwhelms
    # J^T J, so the full form loses definiteness and the fallback engages
    space = ParameterSpace.from_pairs([("a", Uniform(0, 1)), ("b", Uniform(0, 1))])
    grid = build_sparse_grid(space, generate_index_set("max", 2, 1))

    def model(p):
        return np.column_stack([p[:, 0], p[:, 1], (p[:, 1] - 0.2) ** 2])

    sur = Surrogate.from_model(grid, model)
    m = Measurements(values=[0.5, 0.3, 5.0], location_ids=(0, 1, 2), noise_std=1.0)
    v_map = np.array([0.5, 0.3])
    cov = laplace_covariance(sur, m, v_map, 1.0)
    assert cov.gauss_newton_fallback
    jtj = np.array([[1.0, 0.0], [0.0, 1.0 + (2 * 0.1) ** 2]])
    assert np.allclose(cov.matrix, np.linalg.inv(jtj), atol=1e-6)


def test_laplace_full_hessian_matches_finite_difference_of_misfit(
        beam_surrogate, beam_measurements, beam_inversion):
    # sigma2 * inverse(covariance) is the Hessian of LS/2; its log_h_p entry
    # at the MAP against a central second difference of LS/2 itself
    result, s2, cov, _ = beam_inversion
    assert not cov.gauss_newton_fallback
    hessian = s2 * np.linalg.inv(cov.matrix)
    v = result.v_map
    step = np.array([0.0, 1e-3])
    half_ls = [0.5 * least_squares(beam_surrogate, beam_measurements, v + k * step)
               for k in (-1, 0, 1)]
    oracle = (half_ls[0] - 2.0 * half_ls[1] + half_ls[2]) / step[1] ** 2
    assert hessian[1, 1] == pytest.approx(oracle, rel=1e-4)


def test_laplace_at_box_edge_is_finite_spd(beam_surrogate, beam_measurements):
    cov = laplace_covariance(beam_surrogate, beam_measurements,
                             np.array([1340.0, -5.0]), 1e-4)
    assert np.all(np.isfinite(cov.matrix))
    assert np.array_equal(cov.matrix, cov.matrix.T)
    assert np.all(np.linalg.eigvalsh(cov.matrix) > 0)


# ---------------------------------------------------------------------------
# profiles and posterior construction
# ---------------------------------------------------------------------------


def test_profile_exact_parabola_for_identity_model():
    sur = identity_surrogate()
    m = Measurements(values=[0.6, 0.4], location_ids=(0, 1), noise_std=1.0)
    grid, ls = profile_likelihood(sur, m, 0, np.array([0.6, 0.4]), grid_size=41)
    assert np.allclose(ls, (0.6 - grid) ** 2, atol=1e-12)


def test_profile_grid_size_enforced(beam_surrogate, beam_measurements):
    with pytest.raises(ValueError):
        profile_likelihood(beam_surrogate, beam_measurements, 0, VBAR, grid_size=20)


def test_profile_shapes_on_beam(beam_inversion):
    result, s2, _, profiles = beam_inversion
    # identifiable dimension: a single interior minimum, growing toward the edges
    grid_t, ls_t = profiles[0]
    k = np.argmin(ls_t)
    assert 0 < k < len(grid_t) - 1
    assert ls_t[0] > ls_t[k] + 10 * s2 and ls_t[-1] > ls_t[k] + 10 * s2
    # weakly identifiable dimension: flat over the saturated band
    grid_x, ls_x = profiles[1]
    flat = ls_x[grid_x <= -2.5]
    assert flat.max() - flat.min() < 3.84 * s2


def test_build_posterior_beam_mixed_form(beam_inversion):
    result, s2, cov, profiles = beam_inversion
    space = ParameterSpace.from_pairs(BEAM_BOUNDS)
    post = build_posterior(result, cov, profiles, space, s2)
    assert post.classification == ("identifiable", "weakly_identifiable")
    gauss, unif = (d.dist for d in post.space.dims)
    assert isinstance(gauss, Gaussian)
    assert isinstance(unif, Uniform)
    # the Gaussian mean sits inside the prior box with reduced variance
    assert 1130 < gauss.mean < 1450
    prior_var = 320.0 ** 2 / 12.0
    assert gauss.std ** 2 < prior_var
    # the reduced interval stays inside the prior range
    assert -5.0 <= unif.a < unif.b <= 0.0


def test_build_posterior_all_gaussian_when_profiles_narrow():
    sur = identity_surrogate()
    m = Measurements(values=[0.6, 0.4], location_ids=(0, 1), noise_std=0.01)
    res = find_map(sur, m, n_starts=6, seed=0)
    s2 = sigma_map(res.ls_min, 2)
    cov = laplace_covariance(sur, m, res.v_map, max(s2, 1e-8))
    profiles = [profile_likelihood(sur, m, n, res.v_map) for n in range(2)]
    post = build_posterior(res, cov, profiles, sur.grid.space, max(s2, 1e-8))
    assert post.classification == ("identifiable", "identifiable")


def test_build_posterior_flat_profile_gives_full_range_uniform():
    # constant model in the second parameter: its profile is exactly flat
    space = ParameterSpace.from_pairs([("t", Uniform(0, 1)), ("flat", Uniform(-2, 2))])
    grid = np.linspace(-2, 2, 101)
    profiles = [
        (np.linspace(0, 1, 101), (np.linspace(0, 1, 101) - 0.5) ** 2),
        (grid, np.full(101, 1e-6)),
    ]
    map_result = type("M", (), {"v_map": np.array([0.5, 0.0]), "ls_min": 1e-6})()
    cov = LaplaceCovariance(matrix=np.diag([1e-4, 1e2]), gauss_newton_fallback=False)
    post = build_posterior(map_result, cov, profiles, space, sigma2_map=1e-6)
    assert post.classification == ("identifiable", "weakly_identifiable")
    assert post.space.dims[1].dist == Uniform(-2.0, 2.0)


def test_posterior_spec_json_round_trip(beam_inversion):
    result, s2, cov, profiles = beam_inversion
    space = ParameterSpace.from_pairs(BEAM_BOUNDS)
    post = build_posterior(result, cov, profiles, space, s2)
    back = PosteriorSpec.from_json_dict(json.loads(json.dumps(post.to_json_dict())))
    assert back.space == post.space
    assert back.classification == post.classification
    assert np.allclose(back.covariance, post.covariance)
    assert np.array_equal(back.prior_box, post.prior_box)
