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
# # Data-informed forward propagation
#
# The payoff of the inversion: push the posterior through a strain surrogate
# and compare the 5%-95% uncertainty bands against the prior-based ones.
# The posterior bands should hug the target profile.

# %%
import numpy as np

from sguq import (
    BandComparison,
    ParameterSpace,
    PosteriorSpec,
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
    uncertainty_bands,
)
from sguq.forward import write_bands_csv

# %% [markdown]
# ## Ingredients
#
# First rerun the inversion of the previous demo to obtain the posterior: a
# Gaussian for the activation temperature, a reduced uniform for the powder
# coefficient.  Each distribution then gets its own matched surrogate:
# Gaussian Leja points for the Gaussian dimension, interval Leja points for
# the uniform one.

# %%
beam = register_builtin("beam_proxy")
strains = lambda p: beam.evaluate(p)[:, 9:]
displacements = lambda p: beam.evaluate(p)[:, :9]
prior_space = ParameterSpace.from_pairs([
    ("T_A", Uniform(1130.0, 1450.0)),
    ("log_h_p", Uniform(-5.0, 0.0)),
])

mset = generate_index_set("sum", 2, 3)
disp_surrogate = Surrogate.from_model(build_sparse_grid(prior_space, mset), displacements)
data = synthesize_data(displacements, np.array([1339.8, -3.75]), range(9),
                       noise_std=0.01, seed=3)
map_result = find_map(disp_surrogate, data, n_starts=16, seed=3)
s2 = sigma_map(map_result.ls_min, data.n)
cov = laplace_covariance(disp_surrogate, data, map_result.v_map, s2)
profiles = [profile_likelihood(disp_surrogate, data, n, map_result.v_map)
            for n in range(2)]
posterior = build_posterior(map_result, cov, profiles, prior_space, s2)
for dim in posterior.space.dims:
    print(f"{dim.name}: {dim.dist}")
prior_surrogate = Surrogate.from_model(build_sparse_grid(prior_space, mset), strains)
post_surrogate = Surrogate.from_model(build_sparse_grid(posterior.space, mset), strains)
print("two surrogates, 25 model runs each")

# %% [markdown]
# ## Propagate and compare
#
# `uncertainty_bands` samples one distribution, propagates the draws through
# its surrogate and estimates every location's density.  Both calls use the
# same seed, so the prior and the posterior band share one block of uniform
# draws (common random numbers): their difference is the data's effect, with
# less Monte Carlo noise than two independent streams would leave.

# %%
comparison = BandComparison(
    prior=uncertainty_bands(PosteriorSpec.from_prior(prior_space), prior_surrogate,
                            n=10_000, seed=0),
    posterior=uncertainty_bands(posterior, post_surrogate, n=10_000, seed=0))
prior_w = comparison.prior_widths()
post_w = comparison.posterior_widths()
print(f"median prior band width:     {np.median(prior_w):.3e}")
print(f"median posterior band width: {np.median(post_w):.3e}")
print(f"posterior narrower at {np.sum(post_w < prior_w)} of {len(post_w)} locations")

target = strains(np.array([[1339.8, -3.75]]))[0]
inside = [d.q05 <= t <= d.q95 for d, t in zip(comparison.posterior, target)]
print(f"target strain inside the posterior band at {sum(inside)} of {len(inside)} locations")

# %% [markdown]
# ## Persist the per-location summary

# %%
write_bands_csv("strain_bands.csv", comparison,
                [f"eps_{j}" for j in range(1, 121)],
                coordinates=beam.output_coordinates[9:],
                target_values=target)
print("wrote strain_bands.csv (one row per location)")

# %% [markdown]
# ## Optional: plot the bands

# %%
try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
if plt is not None:
    x = beam.output_coordinates[9:]
    fig, ax = plt.subplots(figsize=(8, 3.2))
    ax.fill_between(x, [d.q05 for d in comparison.prior],
                    [d.q95 for d in comparison.prior], alpha=0.25, label="prior band")
    ax.fill_between(x, [d.q05 for d in comparison.posterior],
                    [d.q95 for d in comparison.posterior], alpha=0.45,
                    label="posterior band")
    ax.plot(x, target, "k-", lw=1.2, label="target")
    ax.set_xlabel("position [mm]")
    ax.set_ylabel("residual strain")
    ax.legend(loc="upper right", fontsize=8)
    fig.tight_layout()
    fig.savefig("strain_bands.png", dpi=120)
    print("wrote strain_bands.png")
