"""Variance-based global sensitivity analysis on a sparse-grid surrogate.

The surrogate stores its interpolant as coefficients c_i in a product basis
that is orthonormal under the prior (Legendre for a uniform dimension,
Hermite for a Gaussian one), row i for the degree multi-index
alpha_i = ``grid.degrees[i]``.  Each basis function other than the constant
has zero mean and unit variance and the functions are mutually
uncorrelated, so grouping the rows by the dimensions they involve is the
ANOVA decomposition of the surrogate (Sudret, RESS 2008):

    V           = sum of c_i^2 over alpha_i != 0
    principal_n = (sum of c_i^2 over alpha_i nonzero in dimension n only) / V
    total_n     = (sum of c_i^2 over alpha_i[n] > 0) / V

The indices are exact for the surrogate: no samples are drawn and the
surrogate is never evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surrogate import Surrogate

__all__ = ["SobolResult", "sobol_indices", "rank_parameters", "sobol_result_to_json_dict"]

#: outputs whose variance is at most this fraction of their mean square (the sum of all their
#: squared coefficients) are flagged degenerate
DEGENERATE_RATIO = 1e-24


@dataclass
class SobolResult:
    """Per-output Sobol indices of a surrogate.

    ``principal`` and ``total`` are (P, N) arrays.  ``degenerate`` flags outputs whose
    variance is (numerically) zero against their mean square; their indices are reported 0.
    """

    principal: np.ndarray
    total: np.ndarray
    variance: np.ndarray
    degenerate: np.ndarray
    output_names: tuple[str, ...]
    dim_names: tuple[str, ...]


def sobol_indices(surrogate: Surrogate) -> SobolResult:
    """Principal and total indices of every output, read off the modal coefficients."""
    active = surrogate.grid.degrees > 0                           # (M, N)
    power = surrogate.modal_coefficients ** 2                     # (M, P)
    alone = active & (active.sum(axis=1, keepdims=True) == 1)
    variance = active.any(axis=1) @ power
    degenerate = variance <= DEGENERATE_RATIO * power.sum(axis=0)
    safe_var = np.where(degenerate, 1.0, variance)
    principal = (alone.T @ power / safe_var).T
    total = (active.T @ power / safe_var).T
    principal[degenerate, :] = 0.0
    total[degenerate, :] = 0.0
    return SobolResult(
        principal=principal,
        total=total,
        variance=variance,
        degenerate=degenerate,
        output_names=surrogate.output_names,
        dim_names=surrogate.grid.space.names,
    )


def rank_parameters(result: SobolResult, threshold: float,
                    outputs=None) -> dict[str, list[int]]:
    """Split dimensions into keep/drop by their worst-case total index.

    A dimension is dropped when its total index stays below ``threshold``
    across every participating output.  ``outputs`` selects the output
    components that take part (indices or names); default all.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if outputs is None:
        rows = np.arange(len(result.output_names))
    else:
        rows = np.array([
            result.output_names.index(o) if isinstance(o, str) else int(o)
            for o in outputs
        ])
        if rows.size == 0:
            raise ValueError("at least one output must participate in ranking")
    worst = result.total[rows].max(axis=0)
    drop = [n for n in range(worst.size) if worst[n] < threshold]
    keep = [n for n in range(worst.size) if worst[n] >= threshold]
    return {"keep": keep, "drop": drop}


def sobol_result_to_json_dict(result: SobolResult, threshold: float | None = None,
                              ranking: dict | None = None) -> dict:
    out = {
        "dim_names": list(result.dim_names),
        "method": "modal",
        "outputs": {
            name: {
                "principal": [float(x) for x in result.principal[k]],
                "total": [float(x) for x in result.total[k]],
                "variance": float(result.variance[k]),
                "degenerate": bool(result.degenerate[k]),
            }
            for k, name in enumerate(result.output_names)
        },
    }
    if threshold is not None:
        out["threshold"] = threshold
    if ranking is not None:
        out["keep"] = ranking["keep"]
        out["drop"] = ranking["drop"]
    return out
