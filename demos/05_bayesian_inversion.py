# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#   kernelspec:
#     display_name: Python 3
#     language: python
#     name: python3
# ---

# %% [markdown]
# # Bayesian inversion on a surrogate
#
# Synthetic noisy displacement data pin down the model parameters.  The
# posterior mode comes from a multi-start bounded trust-region least-squares
# search on the surrogate's exact Jacobian; the local covariance comes from
# the surrogate's exact derivatives; and a profile
# inspection decides, per parameter, whether a Gaussian is an honest
# description or a reduced uniform interval is the best we can say.

# %%
import numpy as np

from sguq import (
    ParameterSpace,
    Surrogate,
    Uniform,
    build_posterior,
    build_sparse_grid,
    find_map,
    generate_index_set,
    laplace_covariance,
    profile_likelihood,
    register_builtin,
    sigma_map,
    synthesize_data,
)

# %% [markdown]
# ## Setup: surrogate and synthetic data
#
# The "truth" sits at T_A = 1339.8, log h_p = -3.75, measured at nine
# stations with 0.01 mm of Gaussian noise.

# %%
beam = register_builtin("beam_proxy")
displacements = lambda p: beam.evaluate(p)[:, :9]
space = ParameterSpace.from_pairs([
    ("T_A", Uniform(1130.0, 1450.0)),
    ("log_h_p", Uniform(-5.0, 0.0)),
])
grid = build_sparse_grid(space, generate_index_set("sum", 2, 3))
surrogate = Surrogate.from_model(grid, displacements)
print("surrogate built from", grid.n_points, "model runs")

target = np.array([1339.8, -3.75])
data = synthesize_data(displacements, target, range(9), noise_std=0.01, seed=3)
print("data:", np.round(data.values, 4))

# %% [markdown]
# ## Posterior mode
#
# Sixteen Latin-hypercube starts, each a bounded trust-region least-squares
# run that never leaves the prior box; converged points are clustered.  The
# weakly constrained powder coefficient produces several near-degenerate
# minima that differ almost only in that coordinate.

# %%
result = find_map(surrogate, data, n_starts=16, seed=3)
for cl in result.minima:
    print(f"minimum at ({cl.v[0]:8.2f}, {cl.v[1]:6.2f})  LS = {cl.ls:.3e}  hits = {cl.n_hits}")
print("MAP:", np.round(result.v_map, 3), " LS_min:", f"{result.ls_min:.3e}",
      f" starts not converged: {result.n_not_converged}/{result.n_starts}")

# %% [markdown]
# ## Noise estimate and local covariance

# %%
s2 = sigma_map(result.ls_min, data.n)
cov = laplace_covariance(surrogate, data, result.v_map, s2)
print(f"sigma2 estimate: {s2:.3e}  (true {0.01 ** 2:.1e})")
print("posterior standard deviations:", np.round(np.sqrt(np.diag(cov.matrix)), 3))

# %% [markdown]
# ## Profiles and the mixed posterior
#
# The temperature profile is a clean parabola; the powder-coefficient profile
# is flat across most of its range.  The classification rule turns the first
# into a Gaussian marginal and the second into a uniform on the interval
# where the misfit stays within the 95% threshold.

# %%
profiles = [profile_likelihood(surrogate, data, n, result.v_map) for n in range(2)]
for name, (grid_1d, ls) in zip(space.names, profiles):
    inside = grid_1d[ls <= result.ls_min + 3.84 * s2]
    print(f"{name}: confidence set spans [{inside.min():.2f}, {inside.max():.2f}]")

posterior = build_posterior(result, cov, profiles, space, s2)
for dim, label in zip(posterior.space.dims, posterior.classification):
    print(f"{dim.name}: {label} -> {dim.dist}")
