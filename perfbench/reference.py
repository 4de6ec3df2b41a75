"""Reference values for the output checks, computed without sguq.

* The beam proxy's formulas, restated from the model's documentation.
* Sobol indices of the beam outputs by 1-D Gauss-Legendre quadrature, for
  the true model and for the sparse-grid surrogate the screening stage
  builds, whose form is known in closed form (see ``beam_sobol``).
* Symmetric Leja knots on an interval by a brute-force dense scan.
* Posterior draws with ``scipy.stats`` and the standard error of an
  empirical quantile.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

# ---------------------------------------------------------------------------
# beam proxy: outputs A + B s + C g + D s g, with s = (T_A - 1130) / 320 and
# g = 1 / (1 + exp(-4 (log_h_p + 1))); 9 displacements then 120 strains
# ---------------------------------------------------------------------------

T_RANGE = (1130.0, 1450.0)
LOGH_RANGE = (-5.0, 0.0)


def beam_coefficients():
    """(A, B, C, D), each of length 129."""
    xd = np.array([0.5, 4.0, 7.5, 11.0, 14.5, 18.0, 21.5, 25.0, 28.5])
    eta = xd / xd[-1]
    xs = np.linspace(0.5, 60.0, 120)
    xi = xs / xs[-1]
    a = np.concatenate([0.52 + 0.30 * eta, 1e-3 * (1.30 + 0.60 * np.sin(np.pi * xi))])
    b = np.concatenate([0.36 * np.exp(-3.5 * eta), 1e-3 * (0.45 + 0.25 * np.cos(np.pi * xi))])
    c = np.concatenate([0.0375 * (0.06 + 0.94 * eta ** 2),
                        1e-3 * (0.32 + 0.22 * np.sin(2.0 * np.pi * xi + 0.6))])
    d = np.concatenate([np.zeros(9), 1e-3 * 0.12 * xi])
    return a, b, c, d


def logistic(x):
    return 1.0 / (1.0 + np.exp(-4.0 * (np.asarray(x, dtype=float) + 1.0)))


def beam(t_a, log_h_p):
    """(n, 129) outputs at temperatures t_a and log powder coefficients."""
    a, b, c, d = beam_coefficients()
    s = ((np.asarray(t_a, dtype=float) - T_RANGE[0]) / (T_RANGE[1] - T_RANGE[0]))[:, None]
    g = logistic(log_h_p)[:, None]
    return a + b * s + c * g + d * s * g


# ---------------------------------------------------------------------------
# Leja knots and 1-D interpolation
# ---------------------------------------------------------------------------

def leja_uniform(n: int, a: float, b: float, scan: int = 200_001) -> np.ndarray:
    """First n symmetric Leja points on [a, b]: b, a, midpoint, then pairs.

    Each new pair maximizes prod |v - v_k| over a dense scan of the left
    half and mirrors the maximizer; accurate to about (b - a) / scan.
    """
    mid = 0.5 * (a + b)
    pts = [b, a, mid][:n]
    cand = np.linspace(a, mid, scan)
    while len(pts) < n:
        logp = np.sum(np.log(np.abs(cand[:, None] - np.array(pts)[None, :]) + 1e-300), axis=1)
        v = float(cand[np.argmax(logp)])
        pts += [v, 2.0 * mid - v]
    return np.array(pts[:n])


def lagrange(knots: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Interpolating polynomial through (knots, values), evaluated at x."""
    out = np.zeros_like(x, dtype=float)
    for i, xi in enumerate(knots):
        basis = np.ones_like(x, dtype=float)
        for j, xj in enumerate(knots):
            if j != i:
                basis *= (x - xj) / (xi - xj)
        out += values[i] * basis
    return out


# ---------------------------------------------------------------------------
# Sobol indices of the beam outputs
# ---------------------------------------------------------------------------

def _split(h_main, h_mix, w):
    """Variance parts of F = h_main(x) + u (B + D h_mix(x)), u = s - 1/2.

    ``w`` are quadrature weights over x ~ U(-5, 0) summing to 1; the
    coefficients come from ``beam_coefficients``.
    """
    _, b, _, d = beam_coefficients()
    mean_mix = w @ h_mix
    v_x = w @ (h_main - w @ h_main) ** 2                 # (129,)
    v_s = (b + d * mean_mix) ** 2 / 12.0
    v_sx = d ** 2 * (w @ (h_mix - mean_mix) ** 2) / 12.0
    total = v_s + v_x + v_sx
    principal = np.column_stack([v_s / total, v_x / total])
    tot = np.column_stack([(v_s + v_sx) / total, (v_x + v_sx) / total])
    return principal, tot


def _quadrature(nodes: int = 400):
    z, wz = np.polynomial.legendre.leggauss(nodes)
    lo, hi = LOGH_RANGE
    return 0.5 * (hi - lo) * z + 0.5 * (hi + lo), 0.5 * wz


def beam_sobol(level_main: int, level_mix: int):
    """Principal and total indices of (T_A, log_h_p) for all 129 outputs.

    Returns ``(true, grid)``, each a pair of (129, 2) arrays (principal,
    total).  ``true`` is the model's; ``grid`` is that of the surrogate on a
    grid whose log_h_p levels are ``level_main`` alongside the first T_A knot
    and ``level_mix`` alongside the second level of T_A.  Every output is
    P(x) + s Q(x) with s linear in T_A, and the first T_A knot is s = 1, so
    that surrogate is exactly I_main[P + Q](x) + (s - 1) I_mix[Q](x), with
    I_L the interpolant on the first 2L - 1 Leja knots of log_h_p.  Inert
    dimensions add nothing to either.
    """
    a, b, c, d = beam_coefficients()
    x, w = _quadrature()
    g = logistic(x)[:, None]
    # F = A + B s + C g + D s g = const + (C + D/2) g + u (B + D g)
    true = _split((c + 0.5 * d) * g, np.broadcast_to(g, (len(x), len(b))), w)

    def interp(level):
        knots = leja_uniform(2 * level - 1, *LOGH_RANGE)
        return lagrange(knots, logistic(knots), x)[:, None]

    g_main, g_mix = interp(level_main), interp(level_mix)
    # (s - 1) = u - 1/2: F = const + (C + D) g_main - D g_mix / 2 + u (B + D g_mix)
    grid = _split((c + d) * g_main - 0.5 * d * g_mix,
                  np.broadcast_to(g_mix, (len(x), len(b))), w)
    return true, grid


def beam_surrogate_fn(level_main: int, level_mix: int):
    """The grid surrogate of ``beam_sobol`` as a function of (s, log_h_p)."""
    a, b, c, d = beam_coefficients()
    k_main = leja_uniform(2 * level_main - 1, *LOGH_RANGE)
    k_mix = leja_uniform(2 * level_mix - 1, *LOGH_RANGE)

    def f(s, x):
        gm = lagrange(k_main, logistic(k_main), x)[:, None]
        gx = lagrange(k_mix, logistic(k_mix), x)[:, None]
        return a + b + (c + d) * gm + (s[:, None] - 1.0) * (b + d * gx)

    return f


def jansen_spread(fn, n: int, seed: int, replicates: int = 40, n_rep: int = 2048):
    """Standard deviation of the Jansen estimates of ``fn`` with n samples.

    ``fn(s, x)`` maps normalized temperature and log_h_p samples to (n, P)
    outputs.  The estimators of ``sguq.sobol`` run on ``replicates`` fresh
    sets of ``n_rep`` uniform samples; their spread is scaled to n samples by
    sqrt(n_rep / n).  Returns (principal, total) spreads of shape (P, 2).
    """
    scale = np.sqrt(n_rep / n)
    n = n_rep
    rng = np.random.default_rng(seed)
    lo, hi = LOGH_RANGE
    est_p, est_t = [], []
    for _ in range(replicates):
        u = rng.random((n, 4))
        a_s, a_x, b_s, b_x = u[:, 0], lo + (hi - lo) * u[:, 1], u[:, 2], lo + (hi - lo) * u[:, 3]
        f_a, f_b = fn(a_s, a_x), fn(b_s, b_x)
        var = np.var(np.vstack([f_a, f_b]), axis=0, ddof=1)
        p, t = [], []
        for f_ab in (fn(b_s, a_x), fn(a_s, b_x)):
            p.append((var - 0.5 * np.mean((f_b - f_ab) ** 2, axis=0)) / var)
            t.append(0.5 * np.mean((f_a - f_ab) ** 2, axis=0) / var)
        est_p.append(np.column_stack(p))
        est_t.append(np.column_stack(t))
    return (scale * np.std(est_p, axis=0, ddof=1), scale * np.std(est_t, axis=0, ddof=1))


# ---------------------------------------------------------------------------
# posterior draws and quantile errors
# ---------------------------------------------------------------------------

def posterior_draws(spec: dict, n: int, rng) -> np.ndarray:
    """(n, N) draws from the marginals of a ``posterior.json``.

    Gaussian marginals are truncated to the prior box, as the forward stage
    samples them.
    """
    box = np.asarray(spec["prior_box"], dtype=float)
    cols = []
    for d, m in enumerate(spec["marginals"]):
        if m["type"] == "gaussian":
            lo = (box[0, d] - m["mean"]) / m["std"]
            hi = (box[1, d] - m["mean"]) / m["std"]
            cols.append(stats.truncnorm.rvs(lo, hi, loc=m["mean"], scale=m["std"],
                                            size=n, random_state=rng))
        else:
            cols.append(stats.uniform.rvs(m["a"], m["b"] - m["a"], size=n, random_state=rng))
    return np.column_stack(cols)


def quantile_se(values: np.ndarray, p: float, n: int, h: float = 0.01) -> np.ndarray:
    """Asymptotic standard error of the p-quantile of n draws, per column.

    sqrt(p (1 - p) / n) / f(q_p), with the density f at the quantile taken
    from the difference quotient of ``values``' quantiles at p -/+ h.
    """
    lo, hi = np.quantile(values, [p - h, p + h], axis=0)
    return np.sqrt(p * (1.0 - p) / n) * (hi - lo) / (2.0 * h)
