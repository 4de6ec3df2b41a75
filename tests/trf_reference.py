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
"""The one-start trust-region search that ``sguq._trf`` replaced, kept only as the oracle.

``tests/test_inversion.py`` checks that the lockstep search ends every start
where this one ends it from the same start: x, cost, status, nfev and njev
bit for bit.  It runs one start at a time on single-point closures
``fun(x) -> (m,)`` and ``jac(x) -> (m, d)``, and is otherwise the one path of
SciPy's ``least_squares(method="trf")`` that the MAP search takes: dense
exact Jacobian, linear loss, ``x_scale = 1``, bounds [0, 1]^d,
``max_nfev = 100 d`` and the 'exact' subproblem solver.
"""

from __future__ import annotations

from math import copysign
from typing import NamedTuple

import numpy as np

EPS = np.finfo(float).eps


def norm(x, ord=None):
    """numpy.linalg.norm of a 1-D float vector by numpy's own definition, minus its dispatch."""
    return np.abs(x).max() if ord == np.inf else np.sqrt(x.dot(x))


class TrfResult(NamedTuple):
    x: np.ndarray
    cost: float         # half the sum of squared residuals at x
    status: int
    nfev: int
    njev: int


def trf_unit_box(fun, jac, x0, tol: float) -> TrfResult:
    """Minimize 0.5 ||fun(x)||^2 over [0, 1]^d from x0; ftol = xtol = gtol = tol."""
    x = _strictly_feasible(np.asarray(x0, dtype=float), 1e-10)
    f = fun(x)
    J = jac(x)
    nfev = njev = 1
    m, n = J.shape
    max_nfev = 100 * n
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    v, dv = _cl_scaling(x, g)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _cl_scaling(x, g)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < tol:
            status = 1
        if status is not None or nfev == max_nfev:
            break

        # "hat" variables: x = d * x_h, with the Coleman-Li diagonal term C
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, Vt = np.linalg.svd(J_augmented, full_matrices=False)
        V = Vt.T
        uf = U.T.dot(f_augmented)

        # theta controls the step back from the bounds
        theta = max(0.995, 1 - g_norm)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, theta)
            x_new = _strictly_feasible(x + step, 0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_radius(Delta, actual_reduction, predicted_reduction,
                                              step_h_norm, step_h_norm > 0.95 * Delta)
            status = _check_termination(actual_reduction, cost, norm(step), norm(x),
                                        ratio, tol)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            njev += 1
            g = J.T.dot(f)

    return TrfResult(x=x, cost=float(cost), status=0 if status is None else status,
                     nfev=nfev, njev=njev)


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
    """Best of the step-back, reflected and anti-gradient steps, with its predicted gain."""
    if np.all((x + p >= 0.0) & (x + p <= 1.0)):
        return p, p_h, -_quadratic(J_h, g_h, p_h, diag_h)

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
    p_value = _quadratic(J_h, g_h, p_h, diag_h)

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


def _update_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


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
    """0.5 |J s|^2 + 0.5 s diag s + g s."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


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


def _check_termination(dF, F, dx_norm, x_norm, ratio, tol):
    ftol_satisfied = dF < tol * F and ratio > 0.25
    xtol_satisfied = dx_norm < tol * (tol + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return 4
    if ftol_satisfied:
        return 2
    if xtol_satisfied:
        return 3
    return None
