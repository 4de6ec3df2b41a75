# Ported from SciPy's scipy/optimize/_lsq/trf.py and _lsq/common.py.
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""Trust-region reflective least squares inside the unit box, numpy only, starts in lockstep.

The one path of SciPy's ``least_squares(method="trf")`` that the MAP search
takes: dense exact Jacobian, linear loss, ``x_scale = 1``, bounds [0, 1]^d,
``max_nfev = 100 d`` and the 'exact' subproblem solver, which solves each
trust-region problem from one SVD (More, "The Levenberg-Marquardt algorithm:
implementation and theory", 1977) in Coleman-Li scaled variables (Branch,
Coleman & Li, SIAM J. Sci. Comput. 1999).  Each step is the best of the
step-back trust-region step, its reflection off the first bound it hits and
the constrained anti-gradient step.  Iterates stay strictly inside the box.

All starts advance in lockstep, one inner step each per pass: one stacked
SVD for the starts that begin an outer iteration, one residual batch at the
trial points, one Jacobian batch at the accepted points.  Delta, alpha,
theta, the counters, the status and the phase are arrays over the starts.
A start ends bit for bit where it ends alone: elementwise numpy rounds an
array as it rounds each element, a stacked ``svd`` or ``matmul`` makes the
2-D call per C-contiguous slice (``einsum``, strided rows or a gemm over the
batch round otherwise), and the trust-region solve, and the choice of a step
that leaves the box, run per start on its own slices.
Given the same SVD, a start ends where SciPy's does; numpy and SciPy may
link different LAPACKs, whose last bits can tip a stopping test or a choice
among near-equal steps.  The status codes keep SciPy's meanings: 0 the
evaluation budget ran out, 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol.
"""

from __future__ import annotations

from math import copysign

import numpy as np

EPS = np.finfo(float).eps


def norm(x):
    """numpy.linalg.norm of a 1-D float vector by numpy's own definition, minus its dispatch."""
    return np.sqrt(x.dot(x))


def _dot(a, b):
    """Row-wise dot products of (S, k) arrays, each with the bits of ``np.dot``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _mv(A, x):
    """Stacked products A[s] @ x[s], each with the bits of ``A[s].dot(x[s])``."""
    return (A @ x[:, :, None])[..., 0]


def trf_unit_box(fun, x0, tol: float):
    """Minimize 0.5 ||r(x)||^2 over [0, 1]^d from each row of x0 (S, d); ftol = xtol = gtol = tol.

    ``fun(X)`` returns the residuals (Q, m) at the points X (Q, d) and
    ``jac(rows)``, the Jacobians (len(rows), m, d) at the points ``rows``,
    both C-contiguous.  Returns arrays over the starts: x, cost (half the
    sum of squared residuals at x), status, nfev and njev.
    """
    x = _strictly_feasible(np.asarray(x0, dtype=float), 1e-10)
    S, n = x.shape
    f, jac = fun(x)
    J, m, max_nfev = jac(np.arange(S)), f.shape[1], 100 * n
    nfev, njev = np.ones(S, dtype=int), np.ones(S, dtype=int)
    cost = 0.5 * _dot(f, f)
    g = _mv(J.transpose(0, 2, 1), f)
    v, dv = _cl_scaling(x, g)
    Delta = np.sqrt(_dot(x / v**0.5, x / v**0.5))
    Delta[Delta == 0] = 1.0
    alpha = np.zeros(S)  # Levenberg-Marquardt parameter
    status = np.full(S, -1)  # -1 while the start runs
    outer = np.ones(S, dtype=bool)  # the start begins an outer iteration
    # per outer iteration: "hat" variables x = d * x_h with the Coleman-Li
    # diagonal term diag_h, the SVD of [J_h; diag(diag_h)^0.5] and theta
    d, diag_h, g_h, uf, s = (np.empty((S, n)) for _ in range(5))
    J_h, Vt, theta = np.empty((S, m, n)), np.empty((S, n, n)), np.empty(S)
    while True:
        new = np.flatnonzero(outer)
        outer[new] = False
        v, dv = _cl_scaling(x[new], g[new])
        g_norm = np.abs(g[new] * v).max(axis=1)
        # gtol overrides a status set in the inner loop; a start stops here on
        # a status or a spent budget
        status[new[g_norm < tol]] = 1
        status[new[(status[new] < 0) & (nfev[new] == max_nfev)]] = 0
        go = status[new] < 0
        new, v, dv, g_norm = new[go], v[go], dv[go], g_norm[go]
        d[new], diag_h[new] = v**0.5, g[new] * dv
        g_h[new], J_h[new] = d[new] * g[new], J[new] * d[new][:, None, :]
        J_augmented = np.concatenate([J_h[new], diag_h[new][:, :, None]**0.5 * np.eye(n)], axis=1)
        U, s[new], Vt[new] = np.linalg.svd(J_augmented, full_matrices=False)
        f_augmented = np.concatenate([f[new], np.zeros((new.size, n))], axis=1)
        uf[new] = _mv(U.transpose(0, 2, 1), f_augmented)
        theta[new] = np.maximum(0.995, 1 - g_norm)  # the step back from the bounds

        live = np.flatnonzero(status < 0)
        if not live.size:
            break
        step_h, alpha[live] = map(np.array, zip(*[
            _solve_trust_region(n, m, uf[i], s[i], Vt[i].T, Delta[i], alpha[i]) for i in live]))
        # a trust-region step inside the box is taken as it is; the others are
        # stepped back, reflected or replaced by the anti-gradient step
        step, x_live = d[live] * step_h, x[live]
        predicted_reduction = -_quadratic(J_h[live], g_h[live], step_h, diag_h[live])
        for j in np.flatnonzero(~np.all((x_live + step >= 0.0) & (x_live + step <= 1.0), axis=1)):
            i = live[j]
            step[j], step_h[j], predicted_reduction[j] = _select_step(
                x[i], J_h[i], diag_h[i], g_h[i], step[j], step_h[j], d[i], Delta[i], theta[i])
        x_new = _strictly_feasible(x_live + step, 0)
        f_new, jac = fun(x_new)
        nfev[live] += 1
        step_h_norm = np.sqrt(_dot(step_h, step_h))
        cost_new = 0.5 * _dot(f_new, f_new)
        actual_reduction = cost[live] - cost_new

        # update the radius and test ftol and xtol as SciPy's update_tr_radius
        # and check_termination, per start
        ratio = np.divide(actual_reduction, predicted_reduction,
                          out=np.zeros(live.size), where=predicted_reduction > 0)
        ratio[(predicted_reduction == 0) & (actual_reduction == 0)] = 1
        Delta_new = np.where(ratio < 0.25, 0.25 * step_h_norm, np.where(
            (ratio > 0.75) & (step_h_norm > 0.95 * Delta[live]), 2.0 * Delta[live], Delta[live]))
        ftol = (actual_reduction < tol * cost[live]) & (ratio > 0.25)
        xtol = np.sqrt(_dot(step, step)) < tol * (tol + np.sqrt(_dot(x_live, x_live)))
        status[live] = np.where(ftol, np.where(xtol, 4, 2), np.where(xtol, 3, -1))
        go = status[live] < 0
        alpha[live[go]] *= Delta[live[go]] / Delta_new[go]
        Delta[live[go]] = Delta_new[go]

        # the inner loop ends on a status, an accepted step or a spent budget
        accepted = actual_reduction > 0
        outer[live] = ~go | accepted | (nfev[live] == max_nfev)
        k = live[accepted]
        x[k], f[k], cost[k] = x_new[accepted], f_new[accepted], cost_new[accepted]
        J[k] = jac(np.flatnonzero(accepted))
        njev[k] += 1
        g[k] = _mv(J[k].transpose(0, 2, 1), f[k])

    return x, cost, status, nfev, njev


def _solve_trust_region(n, m, uf, s, V, Delta, alpha, rtol=0.01, max_iter=10):
    """Step p_h with ||p_h|| <= Delta minimizing the SVD-factored model; new alpha."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)

    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < rtol * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    # land exactly on the trust-region boundary
    p *= Delta / norm(p)
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, theta):
    """For a trust-region step p leaving the box: the best of the step-back, reflected
    and anti-gradient steps, with its predicted gain."""
    p_stride, hits = _step_to_bound(x, p)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # cut the trust-region step at the bound; the reflection starts there
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_to_bound(x_on_bound, r)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # step back from the bound to stay strictly interior
    p *= theta
    p_h *= theta
    p_value = _quadratic(J_h[None], g_h[None], p_h[None], diag_h[None])[0]

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _intersect_trust_region(x, s, Delta):
    """Roots t_neg <= t_pos of ||x + t s|| = Delta, for x inside the region."""
    a = np.dot(s, s)
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    d = np.sqrt(b*b - a*c)
    # avoids cancellation (Numerical Recipes)
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of t -> 0.5 |J(s0 + ts)|^2 + 0.5 (s0 + ts) diag (s0 + ts) + g (s0 + ts)."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lb, ub, c=0):
    """Minimum point and value of t -> a t^2 + b t + c on [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _quadratic(J, g, s, diag):
    """0.5 |J s|^2 + 0.5 s diag s + g s per row of stacked (K, m, n) J and (K, n) g, s, diag."""
    Js = _mv(J, s)
    return 0.5 * (_dot(Js, Js) + _dot(s * diag, s)) + _dot(s, g)


def _step_to_bound(x, s):
    """Smallest t >= 0 taking x + t s onto the box boundary; -1/+1 per axis hitting lo/hi."""
    non_zero = np.nonzero(s)
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum(-x[non_zero] / s[non_zero],
                                     (1.0 - x)[non_zero] / s[non_zero])
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _strictly_feasible(x, rstep):
    """x with coordinates within rstep of a bound moved rstep inside; rstep 0 moves one ulp in."""
    x_new = x.copy()
    if rstep == 0:
        x_new[x <= 0.0] = np.nextafter(0.0, 1.0)
        x_new[x >= 1.0] = np.nextafter(1.0, 0.0)
    else:
        x_new[x <= np.minimum(1.0 - x, rstep)] = rstep
        x_new[1.0 - x <= np.minimum(x, rstep)] = 1.0 - rstep
    return x_new


def _cl_scaling(x, g):
    """Coleman-Li scaling v (distance to the bound the anti-gradient points at) and dv/dx."""
    upper, lower = g < 0, g > 0
    v = np.where(upper, 1.0 - x, np.where(lower, x, 1.0))
    dv = np.where(upper, -1.0, np.where(lower, 1.0, 0.0))
    return v, dv
