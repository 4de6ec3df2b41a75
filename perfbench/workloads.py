"""The benchmark's workloads: inputs made from a seed, commands, budgets, checks.

Each workload writes its config into the run directory and names the sguq
commands of one round; ``run.py`` adds ``--out`` and runs them in order.
The seed sets the random streams of GSA sampling, validation samples and
forward sampling.  The synthetic data and the MAP start points keep fixed
seeds (those of ``demos/beam_config.json``): the MAP search's iteration
count depends on them, and with them fixed every seed gives a round the same
amount of work, so the spread between runs is the machine's alone.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import reference
import solver6

HERE = Path(__file__).resolve().parent


def _seeds(seed: int, n: int) -> list[int]:
    return [int(x) % 2 ** 31 for x in np.random.SeedSequence(seed).generate_state(n)]


def _write_config(run_dir: Path, config: dict) -> str:
    path = run_dir / "config.json"
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
    return str(path)


def _classes(out: Path, expected) -> list[str]:
    with open(out / "invert" / "posterior.json") as fh:
        got = json.load(fh)["classification"]
    return [] if got == list(expected) else [f"posterior classes {got} != {list(expected)}"]


def _beam_strains(draws: np.ndarray) -> np.ndarray:
    # draws are (T_A, log_h_p); the forward QoIs are the 120 strains
    return reference.beam(draws[:, 0], draws[:, 1])[:, 9:]


@dataclass(frozen=True)
class Workload:
    name: str
    #: solver runs of one round: grid, validation and synthetic-data runs
    budget: int
    prepare: callable   # (run_dir, seed) -> list of sguq argv lists, without --out
    check: callable     # (out_dir, seed) -> list of problems


# ---------------------------------------------------------------------------
# beam_pipeline: the paper's case at its own size
# ---------------------------------------------------------------------------

BEAM_FORWARD_SAMPLES = 2000


def _beam_prepare(run_dir: Path, seed: int):
    with open(HERE / "beam_config.json") as fh:
        config = json.load(fh)
    s = _seeds(seed, 4)
    config["gsa"]["seed"] = s[0]
    config["inversion"]["validation_seed"] = s[1]
    config["forward"].update(seed=s[2], validation_seed=s[3], n_samples=BEAM_FORWARD_SAMPLES)
    path = _write_config(run_dir, config)
    return [["pipeline", "--config", path, "--validate", "--compare-prior", "--densities"]]


def _beam_check(out: Path, seed: int):
    with open(out / "invert" / "posterior.json") as fh:
        box = json.load(fh)["prior_box"]
    return (checks.keep_drop(out, ["T_A", "log_h_p"], ["log_h_g"])
            + checks.inert_totals(out, ["log_h_g"])
            # max w=1: every tensor grid has level <= 2 in each dimension
            + checks.beam_sobol(out, level_main=2, level_mix=2, seed=seed)
            + _classes(out, ["identifiable", "weakly_identifiable"])
            + checks.band_narrowing(out)
            + checks.band_quantiles(out, _beam_strains, BEAM_FORWARD_SAMPLES, seed,
                                    prior_box=box)
            + checks.densities(out))


# ---------------------------------------------------------------------------
# screen8_gsa: beam proxy plus six inert dimensions, screened at d=8
# ---------------------------------------------------------------------------

SCREEN8_DIMS = ("T_A", "z1", "z2", "log_h_p", "z3", "z4", "z5", "z6")
SCREEN8_FORWARD_SAMPLES = 1000


def _screen8_prepare(run_dir: Path, seed: int):
    s = _seeds(seed, 2)
    space = []
    for name in SCREEN8_DIMS:
        rng = {"T_A": reference.T_RANGE, "log_h_p": reference.LOGH_RANGE}.get(name, (0.0, 1.0))
        space.append({"name": name, "distribution": "uniform", "range": list(rng)})
    config = {
        "space": space,
        "model": {"builtin": "beam_proxy"},
        "gsa": {"kind": "sum", "w": 2, "n_samples": 1024, "seed": s[0], "threshold": 0.05},
        "inversion": {"kind": "sum", "w": 3, "noise_std": 0.01, "target": [1339.8, -3.75],
                      "seed": 3, "n_starts": 16, "start_seed": 3},
        "forward": {"kind": "sum", "w": 3, "n_samples": SCREEN8_FORWARD_SAMPLES, "seed": s[1]},
    }
    path = _write_config(run_dir, config)
    return [[stage, "--config", path] for stage in ("gsa", "invert", "forward")]


def _screen8_check(out: Path, seed: int):
    inert = [n for n in SCREEN8_DIMS if n.startswith("z")]
    return (checks.keep_drop(out, ["T_A", "log_h_p"], inert)
            + checks.inert_totals(out, inert)
            # sum w=2: log_h_p reaches level 3 beside the first T_A level, 2 beside the second
            + checks.beam_sobol(out, level_main=3, level_mix=2, seed=seed)
            + _classes(out, ["identifiable", "weakly_identifiable"])
            + checks.band_quantiles(out, _beam_strains, SCREEN8_FORWARD_SAMPLES, seed))


# ---------------------------------------------------------------------------
# external6_pipeline: the six-parameter solver script behind the file protocol
# ---------------------------------------------------------------------------

EXTERNAL6_FORWARD_SAMPLES = 20000
EXTERNAL6_KEEP = ["p1", "p2", "p4", "p5"]


def _external6_prepare(run_dir: Path, seed: int):
    s = _seeds(seed, 2)
    space = [{"name": n, "distribution": "uniform", "range": list(r)}
             for n, r in zip(solver6.INPUT_NAMES, solver6.RANGES)]
    config = {
        "space": space,
        "model": {"command": [sys.executable, str(HERE / "solver6.py")],
                  "workdir": str(run_dir / "exchange"),
                  "inputs": list(solver6.INPUT_NAMES), "outputs": list(solver6.OUTPUT_NAMES),
                  "timeout": 120},
        "gsa": {"kind": "sum", "w": 3, "n_samples": 2048, "seed": s[0], "threshold": 0.05,
                "outputs": list(solver6.MEASUREMENT_NAMES)},
        "inversion": {"kind": "sum", "w": 3, "noise_std": 0.005, "target": [2.2, 0.1, 13.5, 0.2],
                      "seed": 3, "n_starts": 8, "start_seed": 3,
                      "measurement_outputs": list(solver6.MEASUREMENT_NAMES)},
        "forward": {"kind": "sum", "w": 3, "n_samples": EXTERNAL6_FORWARD_SAMPLES, "seed": s[1],
                    "qoi_outputs": list(solver6.QOI_NAMES)},
    }
    path = _write_config(run_dir, config)
    return [["pipeline", "--config", path]]


def _external6_qoi(draws: np.ndarray) -> np.ndarray:
    # draws are (p1, p2, p4, p5); the inert p3 and p6 sit at their midpoints
    full = np.full((len(draws), 6), 0.5)
    full[:, [0, 1, 3, 4]] = draws
    return np.array(solver6.evaluate(full))[:, len(solver6.MEASUREMENT_NAMES):]


def _external6_check(out: Path, seed: int):
    return (checks.keep_drop(out, EXTERNAL6_KEEP, ["p3", "p6"])
            + checks.inert_totals(out, ["p3", "p6"])
            + _classes(out, ["identifiable"] * 4)
            + checks.band_quantiles(out, _external6_qoi, EXTERNAL6_FORWARD_SAMPLES, seed))


WORKLOADS = {
    # 27 GSA + 25 inversion + 2 x 50 validation + 1 data + 25 forward
    "beam_pipeline": Workload("beam_pipeline", 178, _beam_prepare, _beam_check),
    # 145 GSA + 25 inversion + 1 data + 25 forward
    "screen8_gsa": Workload("screen8_gsa", 196, _screen8_prepare, _screen8_check),
    # 377 GSA + 129 inversion + 1 data + 129 forward
    "external6_pipeline": Workload("external6_pipeline", 636, _external6_prepare,
                                   _external6_check),
}
