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
# # Surrogate accuracy and convergence
#
# Before trusting a surrogate inside an analysis loop, validate it against
# fresh model runs: the maximum relative pointwise error and the relative RMS
# error over a random validation set, tracked while the level budget grows.

# %%
import numpy as np

from sguq import (
    ParameterSpace,
    Surrogate,
    Uniform,
    build_sparse_grid,
    generate_index_set,
    register_builtin,
    validation_errors,
)

# %% [markdown]
# ## Beam proxy displacements
#
# Fifty random parameter draws serve as the validation set for every budget,
# mirroring how an expensive solver would be validated with a fixed batch of
# extra runs.  The points are nested, so the budget-3 surrogate holds every
# lower budget's grid: `restrict` reads each one off its stored runs, with no
# new model run.

# %%
beam = register_builtin("beam_proxy")
space = ParameterSpace.from_pairs([
    ("T_A", Uniform(1130.0, 1450.0)),
    ("log_h_p", Uniform(-5.0, 0.0)),
])
rng = np.random.default_rng(0)
box = space.uniform_box()
samples = box[0] + (box[1] - box[0]) * rng.random((50, 2))
displacements = lambda p: beam.evaluate(p)[:, :9]
top = Surrogate.from_model(build_sparse_grid(space, generate_index_set("sum", 2, 3)),
                           displacements)
reference = displacements(samples)
print(" w   points   max E_PPE    max E_MSE")
for w in range(4):
    surrogate = top.restrict(generate_index_set("sum", 2, w), range(top.n_outputs))
    err = validation_errors(surrogate, reference, samples)
    print(f" {w}   {surrogate.grid.n_points:4d}    {err.e_ppe.max():.3e}    {err.e_mse.max():.3e}")

# %% [markdown]
# The budget-3 surrogate reaches a relative accuracy far below one percent
# with 25 model runs; each added level reuses all previous runs thanks to the
# nested points.
#
# ## A harder target: the Ishigami function
#
# Strongly oscillatory integrands need more levels, and the error decay
# stays monotone.

# %%
ishigami = register_builtin("ishigami")
space3 = ParameterSpace.from_pairs([(n, Uniform(-np.pi, np.pi)) for n in ("v1", "v2", "v3")])
box3 = space3.uniform_box()
samples3 = box3[0] + (box3[1] - box3[0]) * rng.random((200, 3))
ref = ishigami.evaluate(samples3)

print(" w   points   max abs error")
for w in range(1, 7):
    grid = build_sparse_grid(space3, generate_index_set("sum", 3, w))
    surrogate = Surrogate.from_model(grid, ishigami.evaluate)
    err = np.abs(surrogate.evaluate(samples3) - ref).max()
    print(f" {w}   {grid.n_points:4d}    {err:.3e}")
