"""Workflow driver: screening, inversion and forward propagation subcommands.

Usage:
    sguq gsa --config <file> [--out <dir>]
    sguq invert --config <file> [--out <dir>] [--validate]
    sguq pipeline --config <file> [--out <dir>] [--validate] [--compare-prior] [--densities]
    sguq forward --config <file> [--out <dir>] [--validate] [--compare-prior] [--densities]
                 [--prior-only]

One JSON config describes the parameter space, the model handle and the
per-stage options; every random stream has an explicit seed so a rerun with
the same config is byte-identical (set SOURCE_DATE_EPOCH to pin the manifest
timestamp as well).  Stages communicate through the run directory (--out)
only: the screening stage writes a keep/drop recommendation, the inversion
stage writes the posterior spec and its full-output surrogate, and the
forward stage reads both from there; to propagate another run's posterior,
give its directory as --out.  A stage directory is made with its first
file, so a command that fails before then leaves none.  Exit codes: 0
success, 2 config error, 3 model/protocol error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .forward import (
    KDE_GRID_SIZE, MIN_KDE_GRID, MIN_KDE_SAMPLES, BandComparison, sample_posterior,
    uncertainty_bands, write_bands_csv, write_densities_json, write_json,
)
from .indices import KINDS, generate_index_set
from .inversion import (
    CHI2_95, FLAT_FRACTION, MIN_PROFILE_GRID, MIN_STARTS, InversionError, Measurements,
    PosteriorSpec, build_posterior, find_map, inversion_report_json_dict, laplace_covariance,
    profile_likelihood, sigma_map, synthesize_data,
)
from .models import ExternalModel, ExternalModelError, _is_number, register_builtin
from .sobol import rank_parameters, sobol_indices, sobol_result_to_json_dict
from .surrogate import (
    ParameterSpace, Surrogate, Uniform, _space_from_json, build_sparse_grid,
    surrogate_from_json_dict, surrogate_to_json_dict, validation_errors,
)

EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_NUMERICAL = 4

#: every stage option and its default (None: no default); a default's type is its option's
STAGE_OPTIONS = {
    # the Sobol indices are exact: gsa n_samples and seed are only echoed in sobol.json
    "gsa": {"kind": "max", "w": 1, "n_samples": 16384, "seed": 0, "threshold": 0.05,
            "outputs": None},
    "inversion": {"kind": "sum", "w": 3, "n_starts": 16, "seed": 0, "start_seed": 1,
                  "chi2_threshold": CHI2_95, "flat_fraction": FLAT_FRACTION, "profile_grid": 101,
                  "validation_samples": 50, "validation_seed": 0,
                  "dims": None, "fixed_values": None, "data_file": None, "target": None,
                  "noise_std": None, "measurement_outputs": None},
    "forward": {"kind": "sum", "w": 3, "n_samples": 10000, "seed": 0, "kde_grid": KDE_GRID_SIZE,
                "validation_samples": 50, "validation_seed": 0,
                "qoi_outputs": None},
}
#: integer options whose lower bound is not 0
MIN_VALUES = {"inversion.n_starts": MIN_STARTS, "inversion.profile_grid": MIN_PROFILE_GRID,
              "inversion.validation_samples": 1, "forward.validation_samples": 1,
              "forward.n_samples": MIN_KDE_SAMPLES, "forward.kde_grid": MIN_KDE_GRID}


class ConfigError(ValueError):
    pass


def _log(msg: str):
    print(f"sguq: {msg}", file=sys.stderr)


def _require(ok: bool, key: str, rule: str, value):
    if not ok:
        raise ConfigError(f"{key} must be {rule}, got {value!r}")


def _require_known(keys, known, what: str):
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} {unknown}")


def _check_section(config: dict, stage: str) -> dict:
    """A stage's options with defaults filled in; each given one has its default's type."""
    given = config.get(stage, {})
    _require(isinstance(given, dict), f"config section {stage!r}", "an object", given)
    _require_known(given, STAGE_OPTIONS[stage], f"{stage} option(s)")
    for key, value in given.items():
        default, name = STAGE_OPTIONS[stage][key], f"{stage}.{key}"
        low = MIN_VALUES.get(name, 0)
        if isinstance(default, str):
            _require(isinstance(value, str) and value.lower() in KINDS, name, f"in {KINDS}", value)
        elif isinstance(default, int):
            _require(_is_number(value) and isinstance(value, int) and value >= low, name,
                     f"an integer >= {low}", value)
        elif isinstance(default, float):
            _require(_is_number(value), name, "a number", value)
        elif key == "data_file":
            _require(isinstance(value, str) and value, name, "a file path", value)
    return {**STAGE_OPTIONS[stage], **given}


#: a checked config: the dict as read (the manifest hashes it), space, model handle, per stage
#: the options with defaults, outputs as ids and (invert, pipeline) the data file's Measurements;
#: the value of every dimension outside a stage (its inversion.fixed_values entry, else its
#: distribution's center: a uniform's midpoint, a Gaussian's mean), and the command's run store
#: (model-input row bytes -> outputs) that ``_run_rows`` answers from and fills
Config = namedtuple("Config", "raw space handle stages fixed runs")


def _load_config(path: str, command: str) -> Config:
    """Read a config and check all of it, before any stage runs a solver."""
    raw = _read_json_file(path, "config", lambda data: data)
    _require(isinstance(raw, dict), f"config {path}", "a JSON object", type(raw).__name__)
    _require_known(raw, ["space", "model", *STAGE_OPTIONS], "config key(s)")
    try:
        space = _space_from_json(raw["space"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameter space: {exc}") from exc
    handle = _make_model(raw)
    missing = [n for n in handle.input_names if n not in space.names]
    _require(not missing, "model inputs", "names in the parameter space", missing)
    stages = {stage: _check_section(raw, stage) for stage in STAGE_OPTIONS}
    gsa, inv, fwd = stages.values()
    dists = {d.name: d.dist for d in space.dims}

    gsa["outputs"] = _output_ids(handle, gsa["outputs"], "displacement", "gsa.outputs")
    inv["measurement_outputs"] = _output_ids(handle, inv["measurement_outputs"],
                                             "displacement", "inversion.measurement_outputs")
    fwd["qoi_outputs"] = _output_ids(handle, fwd["qoi_outputs"], "strain", "forward.qoi_outputs")
    dims, target, noise, fixed = (inv[k] for k in ("dims", "target", "noise_std", "fixed_values"))
    _require(dims is None or isinstance(dims, list) and all(isinstance(d, str) for d in dims),
             "inversion.dims", "a list of dimension names", dims)
    if dims is not None:  # each a name in the space, once
        _ids(space.names, dims, "inversion.dims", "dimension")
    _require(target is None or isinstance(target, list) and all(map(_is_number, target)),
             "inversion.target", "a list of numbers", target)
    _require(0 < gsa["threshold"] < 1, "gsa.threshold", "in (0, 1)", gsa["threshold"])
    _require(inv["chi2_threshold"] > 0, "inversion.chi2_threshold", "> 0", inv["chi2_threshold"])
    _require(0 < inv["flat_fraction"] < 1, "inversion.flat_fraction", "in (0, 1)",
             inv["flat_fraction"])
    _require(noise is None or _is_number(noise) and noise > 0, "inversion.noise_std",
             "a number > 0", noise)
    _require(fixed is None or isinstance(fixed, dict), "inversion.fixed_values", "an object", fixed)
    fixed = fixed or {}
    for name, value in fixed.items():
        _require(name in dists, "inversion.fixed_values", "keyed by dimension names", name)
        _require(dims is None or name not in dims, "inversion.fixed_values",
                 "keyed by dimensions left out of inversion.dims", name)
        _require(_is_number(value), f"inversion.fixed_values.{name}", "a number", value)
        dist = dists[name]
        if isinstance(dist, Uniform):
            _require(dist.a <= value <= dist.b, f"inversion.fixed_values.{name}",
                     f"in [{dist.a}, {dist.b}]", value)

    # the screening stage may run before the measurements exist
    if command in ("invert", "pipeline"):
        _require(dims is None or all(isinstance(dists[d], Uniform) for d in dims),
                 "inversion.dims", "names of uniform dimensions", dims)
        if inv["data_file"] is not None:
            inv["data_file"] = _read_data_file(inv["data_file"], handle)
        elif target is None:
            raise ConfigError("inversion requires 'target' (synthetic data) or 'data_file'")
        elif noise is None:
            raise ConfigError("synthetic data requires 'noise_std'")
        elif dims is not None:  # else it waits for the screening's keep list
            _check_target(target, ParameterSpace(tuple(d for d in space.dims if d.name in dims)))
    return Config(raw, space, handle, stages,
                  {name: fixed.get(name, dist.center) for name, dist in dists.items()}, {})


def _check_target(target, space: ParameterSpace):
    """``inversion.target`` holds one value per dimension of ``space``, inside its box."""
    lo, hi = space.uniform_box()
    _require(len(target) == space.n_dims and np.all((lo <= target) & (target <= hi)),
             "inversion.target", f"{space.n_dims} values, one per inverted dimension, between "
             f"{lo.tolist()} and {hi.tolist()}", target)


def _make_model(config: dict):
    spec = config.get("model")
    _require(isinstance(spec, dict), "config section 'model'", "an object", spec)
    if ("builtin" in spec) == ("command" in spec):
        raise ConfigError("model must specify one of 'builtin' and 'command'")
    if "builtin" in spec:
        _require_known(spec, ["builtin"], "builtin model key(s)")
    else:
        _require_known(spec, ["command", "workdir", "inputs", "outputs", "timeout",
                              "coordinates", "name"], "external model key(s)")
        for key in ("workdir", "name"):
            _require(isinstance(spec.get(key, ""), str), f"model.{key}", "a string", spec.get(key))
    # each handle checks the values it takes; the message starts with their key under 'model'
    try:
        if "builtin" in spec:
            return register_builtin(spec["builtin"])
        return ExternalModel(spec["command"], spec.get("workdir", "."), spec.get("inputs"),
                             spec.get("outputs"), timeout=spec.get("timeout", 3600.0),
                             output_coordinates=spec.get("coordinates"),
                             name=spec.get("name", "external"))
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from exc


def _run_rows(config: Config, space: ParameterSpace, rows: np.ndarray):
    """Model outputs at the stage points ``rows`` on ``space``, and which rows ran now.

    A model input that is a dimension of ``space`` is read from the stage point;
    every other input is held at its ``config.fixed`` value.  The command's run
    store, keyed on the projected model-input row, answers the rows it holds;
    the rest are sent to the model as one batch, each input once.  So points
    that differ only in dimensions the model does not read, and points an
    earlier stage of the command ran, cost no solver run.  ``ran`` is True on
    the first row of each input sent now.
    """
    handle = config.handle
    inputs = np.column_stack([rows[:, space.names.index(name)] if name in space.names
                              else np.full(len(rows), config.fixed[name])
                              for name in handle.input_names])
    keys = [row.tobytes() for row in inputs]
    first = {}  # key of each input to send -> its first row
    for i, key in enumerate(keys):
        if key not in config.runs:
            first.setdefault(key, i)
    sent = list(first.values())
    if sent:
        try:
            fresh = handle.evaluate(inputs[sent])
        except ValueError as exc:
            raise ExternalModelError(
                f"model {handle.name!r} failed on a batch of {len(sent)}: {exc}") from exc
        config.runs.update(zip(first, fresh))
    ran = np.zeros(len(rows), dtype=bool)
    ran[sent] = True
    return np.array([config.runs[key] for key in keys]), ran


def _counts(ran, n_data: int = 0) -> dict:
    """Manifest counts of stage rows, ``ran`` True on each row sent to the model now.

    The run store answered the other rows; the rows sent went in one batch.  The
    first ``n_data`` rows made the synthetic data, whose runs are charged apart.
    """
    return {"model_evaluations": int(ran[n_data:].sum()),
            "reused_evaluations": int(ran.size - ran.sum()),
            "model_batches": int(ran.any())}


def _output_ids(handle, names_or_ids, group: str, key: str):
    """Resolve the outputs configured under ``key``, defaulting to a labeled group if present."""
    if names_or_ids is None:
        ids = handle.output_groups.get(group)
        return list(ids) if ids else list(range(handle.n_outputs))
    return _ids(handle.output_names, names_or_ids, key, "output")


def _ids(names, names_or_ids, key: str, what: str) -> list[int]:
    """Positions in ``names`` of the names or integer ids of ``what`` listed under ``key``."""
    _require(isinstance(names_or_ids, list), key, f"a list of {what} names or ids", names_or_ids)
    ids = []
    for o in names_or_ids:
        if isinstance(o, str):
            if o not in names:
                raise ConfigError(f"{key}: unknown {what} {o!r}")
            ids.append(names.index(o))
        elif isinstance(o, int) and not isinstance(o, bool) and 0 <= o < len(names):
            ids.append(o)
        else:
            raise ConfigError(f"{key}: {what} id {o!r} is not an integer in [0, {len(names)})")
    if not ids:
        raise ConfigError(f"{key}: {what} selection is empty")
    for k, i in enumerate(ids):
        if i in ids[:k]:
            raise ConfigError(f"{key}: {what} {names[i]!r} is listed more than once")
    return ids


def _read_json_file(path, what: str, parse):
    """``parse`` of the JSON in ``path``; an unreadable or invalid file is a ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return parse(data)
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what} {path}: {exc!r}") from exc


def _read_data_file(path: str, handle) -> Measurements:
    """Measurements in ``inversion.data_file``; their ids pass the configured-output check."""
    def parse(data):
        if not isinstance(data, dict) or data.get("location_ids") is None:
            raise ConfigError(f"inversion.data_file {path} has no 'location_ids'")
        ids = _output_ids(handle, data["location_ids"], "displacement",
                          "inversion.data_file location_ids")
        return Measurements.from_json_dict({**data, "location_ids": ids})

    return _read_json_file(path, "inversion.data_file", parse)


def _validation_table(surrogate: Surrogate, outputs, samples, reference) -> dict:
    """Validation errors of the columns ``outputs`` at every level budget w = 0..top.

    ``surrogate`` is the stage's, of level top.  Each level is read off it, as the
    lower levels' grids are nested in its grid.  ``reference`` holds the model's
    values of those outputs at ``samples``.
    """
    mset = surrogate.grid.index_set
    names = [surrogate.output_names[k] for k in outputs]
    per_output = {n: {"e_ppe": [], "e_mse": []} for n in names}
    for w in range(mset.w + 1):
        level = surrogate.restrict(generate_index_set(mset.kind, mset.dim, w), outputs)
        err = validation_errors(level, reference, samples)
        for j, n in enumerate(names):
            per_output[n]["e_ppe"].append(float(err.e_ppe[j]))
            per_output[n]["e_mse"].append(float(err.e_mse[j]))
    return {"w": list(range(mset.w + 1)), "n_samples": len(samples), "outputs": per_output}


def _utc_timestamp() -> str:
    """The manifest's creation time: SOURCE_DATE_EPOCH, if set, or now."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ",
                             time.gmtime(int(epoch) if epoch else int(time.time())))
    except (ValueError, OverflowError, OSError):
        raise ConfigError(f"SOURCE_DATE_EPOCH must be whole seconds since 1970-01-01 UTC, "
                          f"got {epoch!r}") from None


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def _run_file(out: Path, files: dict, key: str, name: str) -> Path:
    """The path of run file ``name`` under ``out``, recorded as ``files[key]``; its directory
    is made here, so a command that fails before its first write leaves none."""
    files[key] = name
    (out / name).parent.mkdir(parents=True, exist_ok=True)
    return out / name


def _stage_surrogate(config: Config, stage: str, space: ParameterSpace, outputs,
                     lead=None, validation=None):
    """The surrogate of the columns ``outputs`` (ids or a slice) on the ``stage`` grid.

    One solver batch runs the ``lead`` rows, the grid on ``space`` and, given a
    distribution ``validation``, the stage's validation draws from it.  Returns the
    surrogate, the batch's outputs, the draws (or None) and ``ran`` (see ``_run_rows``).
    """
    opts = config.stages[stage]
    fixed = {name: v for name, v in config.fixed.items() if name not in space.names}
    _log(f"{stage}: building {opts['kind']} grid, w={opts['w']}, dims {list(space.names)}"
         + (f", fixed {fixed}" if fixed else ""))
    grid = build_sparse_grid(space, generate_index_set(opts["kind"], space.n_dims, opts["w"]))
    draws = None if validation is None else sample_posterior(
        validation, opts["validation_samples"], opts["validation_seed"])
    values, ran = _run_rows(config, space, np.vstack(
        [rows for rows in (lead, grid.points, draws) if rows is not None]))
    n_lead = 0 if lead is None else len(lead)
    top = n_lead + grid.n_points
    surrogate = Surrogate(grid, values[:, outputs][n_lead:top],
                          tuple(np.array(config.handle.output_names, dtype=object)[outputs]))
    counts = _counts(ran[:top], n_lead)
    _log(f"{stage}: {grid.n_points} grid points, {counts['model_evaluations']} model "
         f"evaluations, {counts['reused_evaluations']} reused")
    return surrogate, values, draws, ran


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def run_gsa(config: Config, out: Path) -> dict:
    opts, space = config.stages["gsa"], config.space
    if {"n_samples", "seed"} & set(config.raw.get("gsa", {})):
        _log("gsa: n_samples and seed are unused; the Sobol indices are exact")
    surrogate, _, _, ran = _stage_surrogate(config, "gsa", space, slice(None))
    result = sobol_indices(surrogate)
    ranking = rank_parameters(result, opts["threshold"], outputs=opts["outputs"])
    if not ranking["keep"]:
        raise ValueError(f"gsa: no dimension reaches gsa.threshold {opts['threshold']} at "
                         f"gsa.w={opts['w']}; the largest total index is "
                         f"{result.total[opts['outputs']].max():.3g}")
    data = sobol_result_to_json_dict(result, opts["threshold"], ranking)
    data.update(sample_size=opts["n_samples"], seed=opts["seed"])
    files = {}
    write_json(_run_file(out, files, "sobol", "gsa/sobol.json"), data)
    keep_names = [space.names[i] for i in ranking["keep"]]
    drop_names = [space.names[i] for i in ranking["drop"]]
    _log(f"gsa: keep {keep_names}, drop {drop_names}")
    return {**_counts(ran), "grid_points": surrogate.grid.n_points, "files": files}


def _reduced_space(config: Config, out: Path) -> ParameterSpace:
    """Inversion-stage space: configured dims, else the screening keep list, else all.

    The dimensions left out are held at their ``config.fixed`` values.
    """
    space, dims = config.space, config.stages["inversion"]["dims"]
    sobol_file = out / "gsa" / "sobol.json"
    if dims is None and sobol_file.exists():
        key = f"the keep list of {sobol_file}"
        dims = _read_json_file(sobol_file, "screening result", lambda data: [
            data["dim_names"][i] for i in _ids(
                data["dim_names"], data.get("keep", data["dim_names"]), key, "dimension")])
        _require(set(dims) <= set(space.names), key, "names in the parameter space", dims)
        for name in config.stages["inversion"]["fixed_values"] or {}:
            if name in dims:
                _log(f"inversion.fixed_values.{name} is ignored: the screening kept {name}")
    dims = list(space.names) if dims is None else dims
    return ParameterSpace(dims=tuple(d for d in space.dims if d.name in dims))


def run_invert(config: Config, out: Path, validate: bool = False) -> dict:
    opts = config.stages["inversion"]
    space = _reduced_space(config, out)
    _require(space.is_all_uniform(), "the inverted dimensions", "uniform", list(space.names))
    meas, target, lead = opts["data_file"], opts["target"], None
    if meas is None:  # the synthetic data's row leads the batch
        _check_target(target, space)
        lead = np.asarray(target, dtype=float)[None, :]
    n_data = 0 if lead is None else 1
    surrogate, values, samples, ran = _stage_surrogate(
        config, "inversion", space, slice(None), lead,
        PosteriorSpec.from_prior(space) if validate else None)
    if meas is None:
        meas = synthesize_data(lambda _: values[:1], target, opts["measurement_outputs"],
                               opts["noise_std"], opts["seed"])
    files = {}
    write_json(_run_file(out, files, "surrogate", "invert/surrogate.json"),
               surrogate_to_json_dict(surrogate))
    write_json(_run_file(out, files, "measurements", "invert/measurements.json"),
               meas.to_json_dict())
    if validate:
        ids = list(meas.location_ids)
        write_json(_run_file(out, files, "validation", "invert/validation.json"),
                   _validation_table(surrogate, ids, samples, values[-len(samples):, ids]))
        _log(f"inversion: validation at w=0..{opts['w']} done")

    _log(f"inversion: multi-start MAP search, {opts['n_starts']} starts")
    map_result = find_map(surrogate, meas, n_starts=opts["n_starts"], seed=opts["start_seed"])
    _log(f"inversion: {map_result.n_not_converged} of {map_result.n_starts} starts "
         "did not converge")
    s2 = sigma_map(map_result.ls_min, meas.n)
    cov = laplace_covariance(surrogate, meas, map_result.v_map, s2)
    profiles = [profile_likelihood(surrogate, meas, n, map_result.v_map,
                                   grid_size=opts["profile_grid"])
                for n in range(space.n_dims)]
    posterior = build_posterior(map_result, cov, profiles, space, s2,
                                chi2_threshold=opts["chi2_threshold"],
                                flat_fraction=opts["flat_fraction"])
    write_json(_run_file(out, files, "report", "invert/inversion.json"),
               inversion_report_json_dict(meas, map_result, s2, cov, profiles, posterior))
    write_json(_run_file(out, files, "posterior", "invert/posterior.json"),
               posterior.to_json_dict())
    _log(f"inversion: v_map={np.round(map_result.v_map, 4).tolist()}, "
         f"sigma2_map={s2:.4g}, classes={list(posterior.classification)}")
    # the data-generating run is charged apart from the grid budget
    return {**_counts(ran, n_data), "data_evaluations": int(ran[:n_data].sum()),
            "grid_points": surrogate.grid.n_points, "map_starts": map_result.n_starts,
            "map_not_converged": map_result.n_not_converged, "files": files}


def _read_inversion_file(path: Path, what: str, parse):
    """``_read_json_file`` of a file the inversion stage writes under --out; a missing one
    is named, with how to make it."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path} "
                          "(run the inversion stage into this --out, or use --prior-only)")
    return _read_json_file(path, what, parse)


def _read_posterior(space: ParameterSpace, out: Path) -> PosteriorSpec:
    """The inversion stage's posterior spec under ``out``, on dimensions of ``space`` and
    boxed by their ranges."""
    path = out / "invert" / "posterior.json"
    posterior = _read_inversion_file(path, "posterior spec", PosteriorSpec.from_json_dict)
    names = posterior.space.names
    _require(set(names) <= set(space.names), f"the names of {path}",
             f"dimensions in {list(space.names)}", list(names))
    for name, box in zip(names, posterior.prior_box.T.tolist()):
        dist = space.dims[space.names.index(name)].dist
        if isinstance(dist, Uniform):
            _require(box == [dist.a, dist.b], f"the prior box of {name!r} in {path}",
                     f"the config range {[dist.a, dist.b]}", box)
    return posterior


def _read_prior_surrogate(path: Path, space: ParameterSpace, names) -> Surrogate:
    """The inversion stage's surrogate in ``path``, cut to the outputs ``names``; each of its
    dimensions carries its prior in ``space``."""
    def parse(data):
        ids = [data["output_names"].index(n) for n in names]
        surrogate = surrogate_from_json_dict(
            {**data, "values": [data["values"][i] for i in ids], "output_names": names})
        if not set(surrogate.grid.space.dims) <= set(space.dims):
            raise ConfigError(f"prior surrogate {path} is built on another parameter space")
        return surrogate

    return _read_inversion_file(path, "prior surrogate", parse)


def run_forward(config: Config, out: Path, validate: bool = False,
                compare_prior: bool = False, prior_only: bool = False,
                densities: bool = False) -> dict:
    opts, handle = config.stages["forward"], config.handle
    if prior_only and compare_prior:
        raise ConfigError("--compare-prior needs a posterior to compare; drop --prior-only")
    qoi_ids = opts["qoi_outputs"]
    qoi_names = [handle.output_names[i] for i in qoi_ids]

    # every input file is read and checked before the first solver run; the saved
    # surrogate first, as it names the space an inversion on another prior ran on.
    # The prior band propagates that surrogate on its space, so it costs no solver run
    if compare_prior:
        prior_surrogate = _read_prior_surrogate(out / "invert" / "surrogate.json", config.space,
                                                qoi_names)
        prior_spec = PosteriorSpec.from_prior(prior_surrogate.grid.space)
    posterior = (PosteriorSpec.from_prior(_reduced_space(config, out)) if prior_only
                 else _read_posterior(config.space, out))
    if compare_prior and prior_spec.space.names != posterior.space.names:
        raise ConfigError("prior space dims do not match the posterior spec")

    # a box that holds no probability of its marginal fails before the first solver run
    sample_posterior(posterior, 1, opts["seed"])

    surrogate, values, val_samples, ran = _stage_surrogate(
        config, "forward", posterior.space, qoi_ids, validation=posterior if validate else None)
    files = {}
    if validate:
        write_json(_run_file(out, files, "validation", "forward/validation.json"),
                   _validation_table(surrogate, range(surrogate.n_outputs), val_samples,
                                     values[-len(val_samples):, qoi_ids]))

    # both bands take the same draw settings, so they share their uniform draws
    draws = opts["n_samples"], opts["seed"], opts["kde_grid"]
    post = prior = uncertainty_bands(posterior, surrogate, *draws)
    if compare_prior:
        prior = uncertainty_bands(prior_spec, prior_surrogate, *draws)
    comparison = BandComparison(prior=prior, posterior=post)

    coords = None if handle.output_coordinates is None else handle.output_coordinates[qoi_ids]
    write_bands_csv(_run_file(out, files, "bands", "forward/bands.csv"), comparison, qoi_names,
                    coords)
    if densities:
        write_densities_json(_run_file(out, files, "densities", "forward/densities.json"),
                             comparison, qoi_names)
    _log(f"forward: bands written for {comparison.n_locations} locations, n={opts['n_samples']}")
    return {**_counts(ran), "grid_points": surrogate.grid.n_points,
            "n_samples": int(opts["n_samples"]), "files": files}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_manifest(out: Path, config: dict, created: str, stages: dict):
    total = sum(s.get("model_evaluations", 0) for s in stages.values())
    data_evals = sum(s.get("data_evaluations", 0) for s in stages.values())
    manifest = {
        "tool_version": __version__,
        "config_hash": _config_hash(config),
        "created": created,
        "stages": stages,
        "total_model_evaluations": total,
        "data_evaluations": data_evals,
    }
    write_json(out / "manifest.json", manifest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sguq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gsa", "invert", "forward", "pipeline"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name != "gsa":
            p.add_argument("--validate", action="store_true")
        if name in ("forward", "pipeline"):
            p.add_argument("--compare-prior", action="store_true")
            p.add_argument("--densities", action="store_true")
        if name == "forward":
            p.add_argument("--prior-only", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out) if args.out else Path("run") / time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())

    try:
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {out}: {existing} is not a directory")
        config = _load_config(args.config, args.command)
        created = _utc_timestamp()
        # the stages the command names, in order, each from its one call site
        stages = {}
        if args.command in ("gsa", "pipeline"):
            stages["gsa"] = run_gsa(config, out)
        if args.command in ("invert", "pipeline"):
            stages["invert"] = run_invert(config, out, validate=args.validate)
        if args.command in ("forward", "pipeline"):
            stages["forward"] = run_forward(config, out, validate=args.validate,
                                            compare_prior=args.compare_prior,
                                            prior_only=getattr(args, "prior_only", False),
                                            densities=args.densities)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    except ExternalModelError as exc:
        _log(f"model error: {exc}")
        return EXIT_MODEL
    except (InversionError, ValueError) as exc:
        _log(f"numerical failure: {exc}")
        return EXIT_NUMERICAL

    _write_manifest(out, config.raw, created, stages)
    _log(f"done; manifest at {out / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
