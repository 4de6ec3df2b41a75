import numpy as np
import pytest
from scipy import stats

from sguq.indices import generate_index_set
from sguq.models import ishigami, ISHIGAMI_A, ISHIGAMI_B, register_builtin
from sguq.sobol import rank_parameters, sobol_indices, sobol_result_to_json_dict
from sguq.surrogate import Gaussian, ParameterSpace, Surrogate, Uniform, build_sparse_grid


def uniform_space(bounds):
    return ParameterSpace.from_pairs(
        [(f"v{i + 1}", Uniform(a, b)) for i, (a, b) in enumerate(bounds)])


def make_surrogate(fn, bounds, w, kind="sum"):
    space = uniform_space(bounds)
    grid = build_sparse_grid(space, generate_index_set(kind, space.n_dims, w))
    return Surrogate.from_model(grid, fn)


def ishigami_analytic():
    """First-order and total indices from the ANOVA variance split.

    With f = sin v1 + a sin^2 v2 + b v3^4 sin v1 on U(-pi, pi)^3:
    conditioning on v1 gives sin v1 (1 + b E[v^4]) with E[v^4] = pi^4/5;
    v2 contributes a^2/8; v3 alone contributes nothing; the v1-v3
    interaction supplies the remaining variance.
    """
    a, b = ISHIGAMI_A, ISHIGAMI_B
    d1 = b * np.pi ** 4 / 5 + b ** 2 * np.pi ** 8 / 50 + 0.5
    d2 = a ** 2 / 8
    d = a ** 2 / 8 + b * np.pi ** 4 / 5 + b ** 2 * np.pi ** 8 / 18 + 0.5
    principal = np.array([d1 / d, d2 / d, 0.0])
    total = np.array([(d - d2) / d, d2 / d, (d - d1 - d2) / d])
    return principal, total


def jansen_oracle(surrogate, n_samples, seed):
    """Jansen pick-freeze estimates of (principal, total), unclipped, on uniform dims.

    Two independent uniform sample matrices A and B plus the N column-swapped
    hybrids AB_n (A with column n taken from B); with V the sample variance
    over A and B:

        principal_n = (V - mean((f(B) - f(AB_n))^2) / 2) / V
        total_n     = (mean((f(A) - f(AB_n))^2) / 2) / V
    """
    space = surrogate.grid.space
    assert space.is_all_uniform()
    box = space.uniform_box()
    ndim = space.n_dims
    unit = np.random.default_rng(seed).random((n_samples, 2 * ndim))
    a = box[0] + (box[1] - box[0]) * unit[:, :ndim]
    b = box[0] + (box[1] - box[0]) * unit[:, ndim:]
    f_a, f_b = surrogate.evaluate(a), surrogate.evaluate(b)
    variance = np.var(np.vstack([f_a, f_b]), axis=0, ddof=1)
    principal = np.empty((surrogate.n_outputs, ndim))
    total = np.empty((surrogate.n_outputs, ndim))
    for n in range(ndim):
        ab = a.copy()
        ab[:, n] = b[:, n]
        f_ab = surrogate.evaluate(ab)
        principal[:, n] = (variance - 0.5 * np.mean((f_b - f_ab) ** 2, axis=0)) / variance
        total[:, n] = 0.5 * np.mean((f_a - f_ab) ** 2, axis=0) / variance
    return principal, total


@pytest.fixture(scope="module")
def ishigami_surrogate():
    # w=8 reproduces the integrand to ~1e-5 absolute
    return make_surrogate(ishigami, [(-np.pi, np.pi)] * 3, 8)


def test_single_variable_function():
    sur = make_surrogate(lambda p: p[:, :1], [(0, 1)] * 3, 2)
    res = sobol_indices(sur)
    assert np.allclose(res.principal[0], [1.0, 0.0, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(res.total[0], [1.0, 0.0, 0.0], rtol=0, atol=1e-12)


def test_additive_symmetric_function():
    sur = make_surrogate(lambda p: p.sum(axis=1, keepdims=True), [(0, 1)] * 3, 2)
    res = sobol_indices(sur)
    assert np.allclose(res.principal[0], [1 / 3] * 3, rtol=0, atol=1e-12)
    assert np.allclose(res.total[0], res.principal[0], rtol=0, atol=1e-12)
    assert res.variance[0] == pytest.approx(3 / 12, rel=1e-12)


def test_ishigami_indices_match_analytic(ishigami_surrogate):
    principal, total = ishigami_analytic()
    res = sobol_indices(ishigami_surrogate)
    assert np.allclose(res.principal[0], principal, rtol=0, atol=1e-6)
    assert np.allclose(res.total[0], total, rtol=0, atol=1e-6)


def test_gaussian_dimensions_use_hermite_rows():
    # f = x1 + x1 x2 on N(0, 1)^2: Var f = E[x1^2] + E[x1^2 x2^2] = 2, of which
    # x1 alone explains Var E[f | x1] = 1 and x2 alone nothing
    space = ParameterSpace.from_pairs([("x1", Gaussian(0, 1)), ("x2", Gaussian(0, 1))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    sur = Surrogate.from_model(grid, lambda p: (p[:, 0] + p[:, 0] * p[:, 1])[:, None])
    res = sobol_indices(sur)
    assert np.allclose(res.principal[0], [0.5, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(res.total[0], [1.0, 0.5], rtol=0, atol=1e-12)
    assert res.variance[0] == pytest.approx(2.0, rel=1e-12)


def test_exact_indices_agree_with_jansen_oracle():
    """The screening surrogate of the beam case (``max`` w=1, 27 points, 129 outputs).

    The oracle runs on 16 seeds of 4096 samples each.  Each exact index must
    lie within z standard errors of the mean of the replicates, with z the
    two-sided Student-t quantile (15 degrees of freedom) at a family-wise
    false-alarm rate of 1% spread over all compared entries (Bonferroni), plus
    1e-12 for rounding where the spread vanishes (the inert dimension's total).
    """
    beam = register_builtin("beam_proxy")
    space = ParameterSpace.from_pairs([("T_A", Uniform(1130.0, 1450.0)),
                                       ("log_h_g", Uniform(-5.0, 0.0)),
                                       ("log_h_p", Uniform(-5.0, 0.0))])
    grid = build_sparse_grid(space, generate_index_set("max", 3, 1))
    sur = Surrogate.from_model(grid, lambda p: beam.evaluate(p[:, [0, 2]]),
                               output_names=beam.output_names)
    res = sobol_indices(sur)
    assert not res.degenerate.any()

    replicates = np.array([jansen_oracle(sur, 4096, seed) for seed in range(16)])
    mean = replicates.mean(axis=0)                                  # (2, P, N)
    std_err = replicates.std(axis=0, ddof=1) / np.sqrt(len(replicates))
    z = stats.t.isf(0.01 / (2 * mean.size), df=len(replicates) - 1)
    tol = z * std_err + 1e-12
    exact = np.stack([res.principal, res.total])
    assert np.all(np.abs(exact - mean) <= tol)
    assert np.all(res.total[:, 1] == 0.0)


def test_zero_variance_flagged_degenerate():
    sur = make_surrogate(lambda p: np.full((len(p), 1), 2.5), [(0, 1)] * 2, 1)
    res = sobol_indices(sur)
    assert res.degenerate[0]
    assert np.all(res.principal == 0.0) and np.all(res.total == 0.0)


# ---------------------------------------------------------------------------
# parameter ranking
# ---------------------------------------------------------------------------


def fake_result(totals, names=("a", "b", "c")):
    totals = np.asarray(totals, dtype=float)
    p = len(totals)
    return type("R", (), {
        "total": totals, "principal": totals,
        "output_names": tuple(f"y{k}" for k in range(p)),
        "dim_names": tuple(names),
    })()


def test_rank_drops_negligible_dimension():
    res = fake_result([[0.6, 0.01, 0.5]])
    ranking = rank_parameters(res, 0.05)
    assert ranking == {"keep": [0, 2], "drop": [1]}


def test_rank_keeps_everything_at_tiny_threshold():
    res = fake_result([[0.6, 0.01, 0.5]])
    assert rank_parameters(res, 0.0001)["drop"] == []


def test_rank_respects_output_exclusion():
    # dim 1 exceeds the threshold only in output y1; excluding y1 drops it
    res = fake_result([[0.6, 0.01, 0.5], [0.6, 0.30, 0.5]])
    assert rank_parameters(res, 0.05)["drop"] == []
    assert rank_parameters(res, 0.05, outputs=[0])["drop"] == [1]
    assert rank_parameters(res, 0.05, outputs=["y0"])["drop"] == [1]


def test_rank_threshold_validation():
    res = fake_result([[0.6, 0.01, 0.5]])
    with pytest.raises(ValueError):
        rank_parameters(res, 0.0)
    with pytest.raises(ValueError):
        rank_parameters(res, 1.0)


def test_json_dict_shape(ishigami_surrogate):
    res = sobol_indices(ishigami_surrogate)
    data = sobol_result_to_json_dict(res, threshold=0.05,
                                     ranking=rank_parameters(res, 0.05))
    assert data["dim_names"] == ["v1", "v2", "v3"]
    assert data["method"] == "modal"
    assert set(data["outputs"]) == {"f0"}
    assert "keep" in data and "drop" in data
