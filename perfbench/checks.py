"""Checks of a run directory's outputs against references made apart from sguq.

Every check returns a list of problems; an empty list is a pass.  The
tolerances are stated where they are applied.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference

#: z-score of every statistical tolerance below
Z = 5.0
#: posterior or prior draws the benchmark makes for the band reference
N_REFERENCE = 50_000


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _bands(out: Path):
    with open(out / "forward" / "bands.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, key):
    return np.array([float(r[key]) for r in rows])


def keep_drop(out: Path, keep, drop) -> list[str]:
    """Exact screening lists, by name."""
    data = _load(out / "gsa" / "sobol.json")
    names = data["dim_names"]
    got = ([names[i] for i in data["keep"]], [names[i] for i in data["drop"]])
    if got != (list(keep), list(drop)):
        return [f"keep/drop {got} != expected {(list(keep), list(drop))}"]
    return []


def inert_totals(out: Path, inert, limit: float = 1e-12) -> list[str]:
    """Total indices of dimensions the model never reads are at most ``limit``."""
    data = _load(out / "gsa" / "sobol.json")
    cols = [data["dim_names"].index(n) for n in inert]
    worst = max(entry["total"][c] for entry in data["outputs"].values() for c in cols)
    return [] if worst <= limit else [f"inert total index {worst:.3g} > {limit:g}"]


def beam_sobol(out: Path, level_main: int, level_mix: int, seed: int) -> list[str]:
    """Beam indices of T_A and log_h_p against 1-D quadrature of the formulas.

    Tolerance per output, dimension and index kind: the grid-level error
    |S_grid - S_true| (the surrogate the stage builds, in closed form) plus
    Z times the Jansen sampling spread at the stage's sample size.
    """
    data = _load(out / "gsa" / "sobol.json")
    cols = [data["dim_names"].index("T_A"), data["dim_names"].index("log_h_p")]
    names = list(data["outputs"])
    got_p = np.array([[data["outputs"][k]["principal"][c] for c in cols] for k in names])
    got_t = np.array([[data["outputs"][k]["total"][c] for c in cols] for k in names])
    (true_p, true_t), (grid_p, grid_t) = reference.beam_sobol(level_main, level_mix)
    sd_p, sd_t = reference.jansen_spread(reference.beam_surrogate_fn(level_main, level_mix),
                                         data["sample_size"], seed)
    problems = []
    for kind, got, true, grid, sd in (("principal", got_p, true_p, grid_p, sd_p),
                                      ("total", got_t, true_t, grid_t, sd_t)):
        tol = np.abs(grid - true) + Z * sd
        bad = np.argwhere(np.abs(got - true) > tol)
        for k, j in bad[:3]:
            problems.append(f"{kind} index of {('T_A', 'log_h_p')[j]} for {names[k]}: "
                            f"{got[k, j]:.4f} vs {true[k, j]:.4f} (tol {tol[k, j]:.4f})")
    return problems


def band_quantiles(out: Path, model, n_program: int, seed: int,
                   prior_box=None) -> list[str]:
    """q05/q95 of the posterior (and prior) bands against the true model.

    The benchmark draws N_REFERENCE parameter vectors from the posterior
    marginals with scipy.stats (and, given ``prior_box``, from the prior
    box), evaluates ``model`` on them and takes the empirical quantiles.
    Tolerance: Z times the combined standard error of the program's
    quantile (n_program draws) and the reference's.
    """
    spec = _load(out / "invert" / "posterior.json")
    rows = _bands(out)
    rng = np.random.default_rng(seed)
    cases = [("post", reference.posterior_draws(spec, N_REFERENCE, rng))]
    if prior_box is not None:
        lo, hi = np.asarray(prior_box, dtype=float)
        cases.append(("prior", lo + (hi - lo) * rng.random((N_REFERENCE, len(lo)))))
    problems = []
    for tag, draws in cases:
        values = model(draws)
        for p in (0.05, 0.95):
            key = f"{tag}_q{round(100 * p):02d}"
            got = _column(rows, key)
            ref = np.quantile(values, p, axis=0)
            tol = Z * np.hypot(reference.quantile_se(values, p, n_program),
                               reference.quantile_se(values, p, N_REFERENCE))
            bad = np.flatnonzero(np.abs(got - ref) > tol)
            for j in bad[:3]:
                problems.append(f"{key} at {rows[j]['location_id']}: {got[j]:.6g} vs "
                                f"reference {ref[j]:.6g} (tol {tol[j]:.3g})")
    return problems


def band_narrowing(out: Path) -> list[str]:
    """The posterior 5-95% band is narrower than the prior band everywhere."""
    rows = _bands(out)
    post = _column(rows, "post_q95") - _column(rows, "post_q05")
    prior = _column(rows, "prior_q95") - _column(rows, "prior_q05")
    wide = np.flatnonzero(post >= prior)
    return [f"posterior band not narrower at {len(wide)} locations"] if wide.size else []


def densities(out: Path, tol: float = 1e-3) -> list[str]:
    """Every stored density integrates to 1 within ``tol`` (trapezoid rule)."""
    problems = []
    for entry in _load(out / "forward" / "densities.json"):
        for tag in ("prior", "posterior"):
            d = entry[tag]
            if d["degenerate"]:
                continue
            grid, dens = np.array(d["grid"]), np.array(d["density"])
            mass = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)))
            if abs(mass - 1.0) > tol:
                problems.append(f"{tag} density at {entry['location_id']} integrates "
                                f"to {mass:.6f}")
    return problems
