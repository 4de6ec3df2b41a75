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
# # Sparse grids from multi-index sets
#
# A sparse grid is the union of small Cartesian grids, one per multi-index;
# the combination technique weights them with signed coefficients.  This demo
# builds the two standard index-set families, shows the combination
# coefficients, and counts grid points.  The surrogate does not sum tensor
# interpolants: it interpolates in Newton form on the grid's lower set of
# degrees, and the coefficients only fix the order of the points.

# %%
from sguq import (
    ParameterSpace,
    Uniform,
    build_sparse_grid,
    combination_coefficients,
    generate_index_set,
)

# %% [markdown]
# ## The "sum" family in two dimensions
#
# With a level budget of 3 the set holds ten indices; seven of them carry a
# nonzero coefficient and only their tensor grids contribute points.

# %%
mset = generate_index_set("sum", 2, 3)
coeffs = combination_coefficients(mset)
print("index  coefficient  points")
for idx, c in sorted(coeffs.items()):
    pts = (2 * idx[0] - 1) * (2 * idx[1] - 1)
    marker = "" if c else "   (skipped)"
    print(f"{idx}      {c:+d}        {pts}{marker}")

# %% [markdown]
# The union of the contributing grids is much smaller than the sum of their
# sizes because nested knot sequences share points.

# %%
space = ParameterSpace.from_pairs([
    ("T_A", Uniform(1130.0, 1450.0)),
    ("log_h_p", Uniform(-5.0, 0.0)),
])
grid = build_sparse_grid(space, mset)
print(f"sum of tensor-grid sizes: {sum((2 * i - 1) * (2 * j - 1) for (i, j), c in coeffs.items() if c)}")
print(f"deduplicated sparse grid: {grid.n_points} points")

# %% [markdown]
# ## The "max" family collapses to a full tensor grid
#
# Every coefficient vanishes except the top corner, so the sparse grid is the
# plain Cartesian product: 3 x 3 x 3 = 27 points for three parameters at
# budget 1.

# %%
mset3 = generate_index_set("max", 3, 1)
nonzero = {i: c for i, c in combination_coefficients(mset3).items() if c}
print("nonzero coefficients:", nonzero)
space3 = ParameterSpace.from_pairs([(f"v{i}", Uniform(-1, 1)) for i in range(3)])
print("points:", build_sparse_grid(space3, mset3).n_points)

# %% [markdown]
# ## Budget scaling
#
# Point counts grow polynomially with the budget for the "sum" family but
# exponentially for "max", which is why sparse "sum" sets matter for more than
# two parameters.

# %%
for w in range(5):
    n_sum = build_sparse_grid(space3, generate_index_set("sum", 3, w)).n_points
    n_max = build_sparse_grid(space3, generate_index_set("max", 3, w)).n_points
    print(f"w={w}: sum -> {n_sum:4d} points   max -> {n_max:4d} points")
