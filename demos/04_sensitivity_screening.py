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
# # Variance-based screening
#
# Principal indices measure each parameter's own share of the output
# variance; total indices add every interaction the parameter takes part in.
# The surrogate stores its coefficients in a basis that is orthonormal under
# the prior, so both are sums of squared coefficients: they are read off the
# surrogate exactly, without drawing a single sample.

# %%
import numpy as np

from sguq import (
    ParameterSpace,
    Surrogate,
    Uniform,
    build_sparse_grid,
    generate_index_set,
    rank_parameters,
    register_builtin,
    sobol_indices,
)

# %% [markdown]
# ## Ishigami: a case with known answers

# %%
ishigami = register_builtin("ishigami")
space = ParameterSpace.from_pairs([(n, Uniform(-np.pi, np.pi)) for n in ("v1", "v2", "v3")])
grid = build_sparse_grid(space, generate_index_set("sum", 3, 8))
surrogate = Surrogate.from_model(grid, ishigami.evaluate, output_names=("f",))
result = sobol_indices(surrogate)

a, b = 7.0, 0.1
d1 = b * np.pi ** 4 / 5 + b ** 2 * np.pi ** 8 / 50 + 0.5
d2 = a ** 2 / 8
d = d2 + b * np.pi ** 4 / 5 + b ** 2 * np.pi ** 8 / 18 + 0.5
print("           surrogate (exact)        analytic")
print("principal:", np.round(result.principal[0], 4), " ", np.round([d1 / d, d2 / d, 0.0], 4))
print("total:    ", np.round(result.total[0], 4), " ",
      np.round([(d - d2) / d, d2 / d, (d - d1 - d2) / d], 4))

# %% [markdown]
# The third parameter has a zero principal index but a sizeable total index:
# it matters only through its interaction with the first one.
#
# ## Screening the beam model
#
# Three candidate parameters; the gas-convection one is inert by
# construction, and the screening stage is expected to spot that and drop it.

# %%
beam = register_builtin("beam_proxy")
space3 = ParameterSpace.from_pairs([
    ("T_A", Uniform(1130.0, 1450.0)),
    ("log_h_g", Uniform(-5.0, 0.0)),
    ("log_h_p", Uniform(-5.0, 0.0)),
])
grid3 = build_sparse_grid(space3, generate_index_set("max", 3, 1))
print("screening grid:", grid3.n_points, "model runs")

# the proxy ignores its middle column by contract of the workflow driver;
# here we emulate that projection by hand
model = lambda p: beam.evaluate(p[:, [0, 2]])
sur3 = Surrogate.from_model(grid3, model, output_names=beam.output_names)
res3 = sobol_indices(sur3)
ranking = rank_parameters(res3, threshold=0.05, outputs=list(range(9)))
print("worst-case total indices over the displacements:",
      np.round(res3.total[:9].max(axis=0), 4))
print("keep:", [space3.names[i] for i in ranking["keep"]])
print("drop:", [space3.names[i] for i in ranking["drop"]])
