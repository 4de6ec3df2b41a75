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
# # Nested collocation points
#
# Interpolating on equispaced points is unstable (Runge phenomenon), so the
# collocation points are Leja sequences: each new point maximizes the product
# of distances to the existing ones.  They are nested, so raising the level
# reuses every model evaluation already made.

# %%
import numpy as np

from sguq import Gaussian, Uniform, knots_for_level

# %% [markdown]
# ## Symmetric Leja points on an interval
#
# The sequence starts with the endpoints and the midpoint; afterwards points
# are generated in mirror pairs about the center.

# %%
family = Uniform(-1.0, 1.0)
for level in range(1, 6):
    pts = knots_for_level(family, level)
    print(f"level {level} ({len(pts)} points):", np.round(np.sort(pts), 6))

# %% [markdown]
# Nestedness means the level-4 set literally contains the level-3 set:

# %%
p3, p4 = knots_for_level(family, 3), knots_for_level(family, 4)
print("level-3 points are a prefix of level-4:", np.array_equal(p4[:len(p3)], p3))

# %% [markdown]
# ## Weighted points for a Gaussian parameter
#
# For a normally distributed parameter the distance product is weighted by
# the square root of the density, which pulls the points toward the mean.
# The first pair lands exactly at +-sqrt(2) standard deviations.

# %%
gauss = Gaussian(mean=0.0, std=1.0)
pts = knots_for_level(gauss, 3)
print("standardized points:", np.round(pts, 6))
print("second pair vs sqrt(2):", np.round(np.abs(pts[1]), 12), np.round(np.sqrt(2), 12))

# %% [markdown]
# Points for any mean and standard deviation are the affine image of the
# standardized sequence, so one expensive computation serves every Gaussian.

# %%
shifted = knots_for_level(Gaussian(mean=1341.0, std=13.0), 3)
print("for N(1341, 13^2):", np.round(shifted, 3))

# %% [markdown]
# ## Optional: compare the two families visually

# %%
try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
if plt is not None:
    fig, ax = plt.subplots(figsize=(7, 2.2))
    u = knots_for_level(Uniform(-1, 1), 5)
    g = knots_for_level(Gaussian(0, 0.33), 5)
    ax.plot(u, np.zeros_like(u), "o", label="interval Leja")
    ax.plot(g, np.ones_like(g), "s", label="Gaussian Leja")
    ax.set_yticks([0, 1], ["uniform", "gaussian"])
    ax.set_ylim(-0.5, 1.5)
    ax.legend(loc="center right")
    fig.tight_layout()
    fig.savefig("leja_points.png", dpi=120)
    print("wrote leja_points.png")
