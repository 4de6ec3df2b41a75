import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sguq.cli import Config, _counts, _load_config, _run_rows, main
from sguq.indices import generate_index_set
from sguq.knots import symmetric_leja
from sguq.surrogate import (ParameterSpace, Surrogate, Uniform, build_sparse_grid,
                            surrogate_to_json_dict)


def beam_config(**overrides):
    cfg = {
        "space": [
            {"name": "T_A", "distribution": "uniform", "range": [1130, 1450]},
            {"name": "log_h_g", "distribution": "uniform", "range": [-5, 0]},
            {"name": "log_h_p", "distribution": "uniform", "range": [-5, 0]},
        ],
        "model": {"builtin": "beam_proxy"},
        "gsa": {"n_samples": 16384, "seed": 0, "threshold": 0.05},
        "inversion": {"noise_std": 0.01, "target": [1339.8, -3.75],
                      "seed": 3, "n_starts": 16, "start_seed": 3},
        "forward": {"n_samples": 10000, "seed": 0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def failing_model(tmp_path):
    # the solver always fails, so a solver run before the config check would exit 3
    return {"command": [sys.executable, "-c", "import sys; sys.exit(1)"],
            "workdir": str(tmp_path / "w"),
            "inputs": ["T_A", "log_h_g", "log_h_p"],
            "outputs": ["u_1", "u_2", "eps_1"]}


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def read_manifest(out):
    with open(Path(out) / "manifest.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_2(tmp_path):
    assert main(["gsa", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_misspelled_stage_option_exits_2_and_names_it(tmp_path, capsys):
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"], "n_start": 4})
    assert main(["invert", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "n_start" in capsys.readouterr().err
    assert not (tmp_path / "o" / "invert" / "inversion.json").exists()


def test_removed_finite_difference_step_exits_2(tmp_path):
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"], "fd_step_jacobian": 1e-4})
    assert main(["invert", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_invalid_space_exits_2(tmp_path):
    cfg = beam_config()
    cfg["space"][0]["range"] = [1450, 1130]
    assert main(["gsa", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_invalid_model_exits_2(tmp_path):
    cfg = beam_config(model={"builtin": "heat_equation"})
    assert main(["gsa", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_target_outside_box_exits_2(tmp_path):
    cfg = beam_config(inversion={"target": [9999.0, -3.75], "dims": ["T_A", "log_h_p"]})
    assert main(["invert", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_failing_external_model_exits_3(tmp_path):
    cfg = beam_config()
    cfg["model"] = {"command": [sys.executable, "-c", "import sys; sys.exit(1)"],
                    "workdir": str(tmp_path / "w"),
                    "inputs": ["T_A", "log_h_p"],
                    "outputs": ["u_1"]}
    cfg["space"] = cfg["space"][:1] + cfg["space"][2:]
    assert main(["gsa", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 3


PATHOLOGICAL_POSTERIOR = {"names": ["T_A", "log_h_p"],
                          "marginals": [{"type": "gaussian", "mean": 99999.0, "std": 0.5},
                                        {"type": "uniform", "a": -5.0, "b": -1.5}],
                          "classification": ["identifiable", "weakly_identifiable"],
                          "prior_box": [[1130, -5], [1450, 0]]}


def test_pathological_posterior_exits_4(tmp_path):
    out = tmp_path / "o"
    (out / "invert").mkdir(parents=True)
    (out / "invert" / "posterior.json").write_text(json.dumps(PATHOLOGICAL_POSTERIOR))
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    assert main(["forward", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 4


def test_pathological_posterior_exits_4_before_any_solver_run(tmp_path, capsys):
    # the T_A box holds no probability of N(99999, 0.5^2); the failing solver would exit 3
    out = tmp_path / "o"
    (out / "invert").mkdir(parents=True)
    (out / "invert" / "posterior.json").write_text(json.dumps(PATHOLOGICAL_POSTERIOR))
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg["model"] = failing_model(tmp_path)
    assert main(["forward", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--compare-prior"]) == 4
    assert "holds no probability" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


# ---------------------------------------------------------------------------
# screening stage
# ---------------------------------------------------------------------------


def test_gsa_beam_drops_only_inert_dimension(tmp_path):
    out = tmp_path / "o"
    assert main(["gsa", "--config", write_config(tmp_path, beam_config()),
                 "--out", str(out)]) == 0
    sobol = json.loads((out / "gsa" / "sobol.json").read_text())
    keep = [sobol["dim_names"][i] for i in sobol["keep"]]
    drop = [sobol["dim_names"][i] for i in sobol["drop"]]
    assert keep == ["T_A", "log_h_p"] and drop == ["log_h_g"]
    # the inert dimension has exactly zero influence through the surrogate
    assert all(v["total"][1] < 1e-10 for v in sobol["outputs"].values())
    assert read_manifest(out)["stages"]["gsa"]["model_evaluations"] == 9


@pytest.mark.parametrize("command", ["gsa", "pipeline"])
def test_gsa_that_keeps_no_dimension_exits_4_without_a_screening_result(tmp_path, capsys,
                                                                         command):
    # at w=0 the surrogate is constant, so every total index is 0
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, beam_config(gsa={"w": 0})),
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "no dimension reaches gsa.threshold 0.05 at gsa.w=0" in err
    assert "the largest total index is 0" in err
    assert not (out / "gsa" / "sobol.json").exists()
    assert not (out / "invert").exists()


def test_gsa_output_exclusion_changes_ranking(tmp_path):
    # only the far displacements see enough powder influence at a high
    # threshold; excluding them from the ranking drops the powder dimension
    cfg = beam_config(gsa={"threshold": 0.3,
                           "exclude_outputs": [f"u_{k}" for k in (7, 8, 9)]})
    out = tmp_path / "o"
    assert main(["gsa", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    sobol = json.loads((out / "gsa" / "sobol.json").read_text())
    drop = [sobol["dim_names"][i] for i in sobol["drop"]]
    assert "log_h_p" in drop

    cfg2 = beam_config(gsa={"threshold": 0.3})
    out2 = tmp_path / "o2"
    assert main(["gsa", "--config", write_config(tmp_path, cfg2),
                 "--out", str(out2)]) == 0
    sobol2 = json.loads((out2 / "gsa" / "sobol.json").read_text())
    drop2 = [sobol2["dim_names"][i] for i in sobol2["drop"]]
    assert "log_h_p" not in drop2


def test_gsa_ishigami_matches_analytic(tmp_path, capsys):
    cfg = {
        "space": [{"name": n, "distribution": "uniform", "range": [-np.pi, np.pi]}
                  for n in ("v1", "v2", "v3")],
        "model": {"builtin": "ishigami"},
        "gsa": {"kind": "sum", "w": 8, "n_samples": 16384, "seed": 0, "threshold": 0.05},
    }
    out = tmp_path / "o"
    assert main(["gsa", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    sobol = json.loads((out / "gsa" / "sobol.json").read_text())
    a, b = 7.0, 0.1
    d1 = b * np.pi ** 4 / 5 + b ** 2 * np.pi ** 8 / 50 + 0.5
    d2 = a ** 2 / 8
    d = d2 + b * np.pi ** 4 / 5 + b ** 2 * np.pi ** 8 / 18 + 0.5
    got = sobol["outputs"]["f"]
    assert np.allclose(got["principal"], [d1 / d, d2 / d, 0.0], rtol=0, atol=1e-6)
    assert np.allclose(got["total"], [(d - d2) / d, d2 / d, (d - d1 - d2) / d],
                       rtol=0, atol=1e-6)
    assert sobol["drop"] == []
    # the sampling keys are accepted, echoed and reported unused
    assert sobol["method"] == "modal"
    assert (sobol["sample_size"], sobol["seed"]) == (16384, 0)
    assert capsys.readouterr().err.count("n_samples and seed are unused") == 1


def test_gsa_with_gaussian_dimension_runs(tmp_path):
    cfg = {
        "space": [{"name": "v1", "distribution": "gaussian", "mean": 0.0, "std": 1.0}]
                 + [{"name": n, "distribution": "uniform", "range": [-np.pi, np.pi]}
                    for n in ("v2", "v3")],
        "model": {"builtin": "ishigami"},
        "gsa": {"kind": "sum", "w": 4, "threshold": 0.05},
    }
    out = tmp_path / "o"
    assert main(["gsa", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    sobol = json.loads((out / "gsa" / "sobol.json").read_text())
    assert sobol["method"] == "modal"
    assert sobol["keep"] == [0, 1, 2]


@pytest.mark.parametrize("command, stage, key", [
    ("gsa", "gsa", "outputs"),
    ("gsa", "gsa", "exclude_outputs"),
    ("invert", "inversion", "measurement_outputs"),
    ("forward", "forward", "qoi_outputs"),
])
@pytest.mark.parametrize("bad", [500, -1, 1.5, True,
                                 pytest.param(["u_2", "u_1", 1], id="repeated")])
def test_bad_output_id_exits_2_before_any_solver_run(tmp_path, capsys, command, stage,
                                                     key, bad):
    # the solver always fails, so a solver run first would exit 3
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg[stage][key] = bad if isinstance(bad, list) else [bad]
    cfg["model"] = {"command": [sys.executable, "-c", "import sys; sys.exit(1)"],
                    "workdir": str(tmp_path / "w"),
                    "inputs": ["T_A", "log_h_g", "log_h_p"],
                    "outputs": ["u_1", "u_2"]}
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
    assert main(argv + (["--prior-only"] if command == "forward" else [])) == 2
    message = ("output 'u_2' is listed more than once" if isinstance(bad, list)
               else f"output id {bad!r}")
    assert f"{stage}.{key}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


# ---------------------------------------------------------------------------
# inversion stage
# ---------------------------------------------------------------------------


def test_invert_default_produces_mixed_posterior(tmp_path):
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    out = tmp_path / "o"
    assert main(["invert", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    post = json.loads((out / "invert" / "posterior.json").read_text())
    assert post["classification"] == ["identifiable", "weakly_identifiable"]
    assert post["marginals"][0]["type"] == "gaussian"
    assert post["marginals"][1]["type"] == "uniform"
    man = read_manifest(out)["stages"]["invert"]
    assert man["model_evaluations"] == 25
    assert man["data_evaluations"] == 1


def test_invert_validate_table_decreases(tmp_path):
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    out = tmp_path / "o"
    assert main(["invert", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--validate"]) == 0
    val = json.loads((out / "invert" / "validation.json").read_text())
    assert val["w"] == [0, 1, 2, 3]
    for errs in val["outputs"].values():
        assert all(a > b for a, b in zip(errs["e_ppe"], errs["e_ppe"][1:]))
        assert all(a > b for a, b in zip(errs["e_mse"], errs["e_mse"][1:]))
        assert errs["e_ppe"][-1] < 1e-2
    assert read_manifest(out)["stages"]["invert"]["model_evaluations"] == 75


def test_inversion_report_keeps_the_measured_output_ids(tmp_path):
    # inversion.json used to renumber the measured outputs to 0..K-1
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"],
                                 "measurement_outputs": ["u_3", "u_7"]})
    out = tmp_path / "o"
    assert main(["invert", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "invert" / "inversion.json").read_text())
    saved = json.loads((out / "invert" / "measurements.json").read_text())
    assert saved["location_ids"] == [2, 6]
    assert report["measurements"] == saved


def test_invert_noiseless_recovers_target(tmp_path, capsys):
    t_knot = float(symmetric_leja(5, 1130.0, 1450.0)[2])
    x_knot = float(symmetric_leja(7, -5.0, 0.0)[4])
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"], "noise_std": 1e-12,
                                 "target": [t_knot, x_knot]})
    out = tmp_path / "o"
    assert main(["invert", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "invert" / "inversion.json").read_text())
    v_map = np.array(report["v_map"])
    z_err = np.abs(v_map - [t_knot, x_knot]) / np.array([320.0, 5.0])
    assert z_err.max() < 1e-4
    # per-start convergence record, and its count on stderr
    starts = report["starts"]
    assert len(starts) == report["n_starts"] == 16
    assert all(set(s) == {"status", "nfev", "njev"} for s in starts)
    n_bad = sum(1 for s in starts if s["status"] <= 0)
    assert report["n_not_converged"] == n_bad
    assert f"{n_bad} of 16 starts did not converge" in capsys.readouterr().err


def test_invert_consumes_data_file(tmp_path):
    data = {"values": [0.9, 0.87, 0.82, 0.76, 0.70, 0.64, 0.59, 0.55, 0.52],
            "location_ids": list(range(9)), "noise_std": 0.01}
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps(data))
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"],
                                 "data_file": str(data_file)})
    del cfg["inversion"]["target"]
    out = tmp_path / "o"
    assert main(["invert", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    man = read_manifest(out)["stages"]["invert"]
    assert man["data_evaluations"] == 0
    saved = json.loads((out / "invert" / "measurements.json").read_text())
    assert saved["values"] == data["values"]


@pytest.mark.parametrize("content", [
    {"values": [0.9], "location_ids": [500], "noise_std": 0.01},
    {"values": [0.9], "location_ids": [-1], "noise_std": 0.01},
    {"values": [0.9], "location_ids": [1.5], "noise_std": 0.01},
    {"values": [0.9], "location_ids": [True], "noise_std": 0.01},
    {"values": [0.9, 0.8], "location_ids": [1, "u_2"], "noise_std": 0.01},
    {"values": [0.9], "noise_std": 0.01},
    {"values": [0.9, 0.8], "location_ids": [0], "noise_std": 0.01},
    {"values": [0.9], "location_ids": [0], "noise_std": 0.0},
    {"values": [0.9], "location_ids": [0]},
    {"values": [float("nan"), 0.8], "location_ids": [0, 1], "noise_std": 0.01},
    {"values": [0.9], "location_ids": [0], "noise_std": float("nan")},
    {"values": [0.9], "location_ids": [0], "noise_std": float("inf")},
    "{not json",
    None,
], ids=["id_500", "id_-1", "id_1.5", "id_true", "id_repeated", "no_ids", "length_mismatch",
        "zero_noise", "no_noise", "nan_value", "nan_noise", "inf_noise", "malformed_json",
        "missing_file"])
def test_bad_data_file_exits_2_before_any_solver_run(tmp_path, capsys, content):
    # the solver always fails, so a solver run first would exit 3
    data_file = tmp_path / "data.json"
    if content is not None:
        data_file.write_text(content if isinstance(content, str) else json.dumps(content))
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"], "data_file": str(data_file)})
    del cfg["inversion"]["target"]
    cfg["model"] = {"command": [sys.executable, "-c", "import sys; sys.exit(1)"],
                    "workdir": str(tmp_path / "w"),
                    "inputs": ["T_A", "log_h_g", "log_h_p"],
                    "outputs": ["u_1", "u_2"]}
    assert main(["invert", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "inversion.data_file" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


# ---------------------------------------------------------------------------
# forward stage and pipeline
# ---------------------------------------------------------------------------


def test_forward_requires_posterior_or_prior_only(tmp_path):
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    out = tmp_path / "o"
    assert main(["forward", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("kde_grid", [0, 1, 2.5, "512", True])
def test_invalid_kde_grid_exits_2_before_any_solver_run(tmp_path, capsys, kde_grid):
    # the solver always fails, so a solver run first would exit 3
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]}, forward={"kde_grid": kde_grid})
    cfg["model"] = {"command": [sys.executable, "-c", "import sys; sys.exit(1)"],
                    "workdir": str(tmp_path / "w"),
                    "inputs": ["T_A", "log_h_g", "log_h_p"],
                    "outputs": ["eps_1"]}
    assert main(["forward", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o"), "--prior-only"]) == 2
    assert "kde_grid" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_forward_prior_only_runs_standalone(tmp_path):
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    out = tmp_path / "o"
    assert main(["forward", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--prior-only", "--densities"]) == 0
    rows = (out / "forward" / "bands.csv").read_text().strip().splitlines()
    assert len(rows) == 121
    man = read_manifest(out)["stages"]["forward"]
    assert man["model_evaluations"] == 25 and man["n_samples"] == 10000
    densities = json.loads((out / "forward" / "densities.json").read_text())
    assert len(densities) == 120 and len(densities[0]["posterior"]["grid"]) == 512


def test_forward_prior_only_with_compare_prior_exits_2_before_any_solver_run(tmp_path, capsys):
    # a prior-only run has no posterior to compare the prior with
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg["model"] = failing_model(tmp_path)
    assert main(["forward", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                 "--prior-only", "--compare-prior"]) == 2
    assert "--compare-prior" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_forward_prior_only_propagates_a_gaussian_prior(tmp_path):
    # the Gaussian prior dimension has no box; it is sampled untruncated
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg["space"][0] = {"name": "T_A", "distribution": "gaussian", "mean": 1300.0, "std": 40.0}
    out = tmp_path / "o"
    assert main(["forward", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--prior-only"]) == 0
    rows = list(csv.DictReader((out / "forward" / "bands.csv").read_text().splitlines()))
    assert len(rows) == 120
    assert all(float(r["post_q05"]) < float(r["post_q95"]) for r in rows)


def test_pipeline_accounting_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, beam_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["pipeline", "--config", cfg_path, "--out", str(out1)]) == 0
    man = read_manifest(out1)
    assert man["stages"]["gsa"]["model_evaluations"] == 9
    assert man["stages"]["invert"]["model_evaluations"] == 16
    assert man["stages"]["forward"]["model_evaluations"] == 25
    assert man["total_model_evaluations"] == 50
    assert man["data_evaluations"] == 1

    assert main(["pipeline", "--config", cfg_path, "--out", str(out2)]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


class CountingModel:
    """Reads only T_A; records every batch it is sent."""
    name, input_names, output_names = "counting", ("T_A",), ("f",)

    def __init__(self):
        self.batches = []

    def evaluate(self, batch):
        self.batches.append(batch.copy())
        return 2.0 * batch


def counting_config(space):
    return Config(raw={}, space=space, handle=CountingModel(), stages={},
                  fixed={"T_A": 1290.0, "z": 0.5}, runs={})


def test_stage_models_of_one_run_store_send_each_model_input_once():
    space = ParameterSpace.from_pairs([("T_A", Uniform(1130.0, 1450.0)), ("z", Uniform(0.0, 1.0))])
    config = counting_config(space)
    handle = config.handle
    # two stage points, one projected model input
    values, ran = _run_rows(config, space, np.array([[1200.0, 0.0], [1200.0, 1.0]]))
    assert values.tolist() == [[2400.0], [2400.0]]
    assert [b.tolist() for b in handle.batches] == [[[1200.0]]]
    assert ran.tolist() == [True, False]
    # a second stage on the same store sends only the input not yet run
    narrow = ParameterSpace.from_pairs([("T_A", Uniform(1130.0, 1450.0))])
    values, ran = _run_rows(config, narrow, np.array([[1200.0], [1300.0]]))
    assert values.tolist() == [[2400.0], [2600.0]]
    assert [b.tolist() for b in handle.batches] == [[[1200.0]], [[1300.0]]]
    assert ran.tolist() == [False, True]
    # a model input outside the stage space is held at its fixed value
    values, ran = _run_rows(config, ParameterSpace.from_pairs([("z", Uniform(0.0, 1.0))]),
                            np.array([[0.25]]))
    assert values.tolist() == [[2580.0]] and handle.batches[-1].tolist() == [[1290.0]]
    # a stage whose rows are all in the store calls the model 0 times
    values, ran = _run_rows(config, narrow, np.array([[1300.0], [1290.0], [1200.0]]))
    assert values.tolist() == [[2600.0], [2580.0], [2400.0]]
    assert len(handle.batches) == 3 and ran.tolist() == [False, False, False]


def test_planned_call_sends_one_batch_and_charges_each_row_to_its_first_read():
    space = ParameterSpace.from_pairs([("T_A", Uniform(1130.0, 1450.0))])
    config = counting_config(space)
    handle = config.handle
    # a repeated row is sent once, in one batch, and charged to its first read
    values, ran = _run_rows(config, space, np.array([[1200.0], [1300.0], [1200.0]]))
    assert values.tolist() == [[2400.0], [2600.0], [2400.0]]
    assert [b.tolist() for b in handle.batches] == [[[1200.0], [1300.0]]]
    assert ran.tolist() == [True, True, False]
    assert _counts(ran) == {"model_evaluations": 2, "reused_evaluations": 1, "model_batches": 1}
    # a first row that made the synthetic data is charged apart
    assert _counts(ran, n_data=1)["model_evaluations"] == 1
    # a later call charges only the rows it sent
    values, ran = _run_rows(config, space, np.array([[1300.0], [1250.0], [1200.0], [1250.0]]))
    assert values.tolist() == [[2600.0], [2500.0], [2400.0], [2500.0]]
    assert [b.tolist() for b in handle.batches] == [[[1200.0], [1300.0]], [[1250.0]]]
    assert ran.tolist() == [False, True, False, False]
    assert _counts(ran) == {"model_evaluations": 1, "reused_evaluations": 3, "model_batches": 1}
    _, ran = _run_rows(config, space, np.array([[1300.0], [1200.0]]))
    assert len(handle.batches) == 2
    assert _counts(ran) == {"model_evaluations": 0, "reused_evaluations": 2, "model_batches": 0}


def test_pipeline_and_separate_stage_commands_write_the_same_files(tmp_path):
    # the pipeline's inversion reuses the 9 GSA points with log_h_g at its midpoint;
    # a separate invert command has its own run store and reruns them
    cfg_path = write_config(tmp_path, beam_config())
    joined, split = tmp_path / "joined", tmp_path / "split"
    assert main(["pipeline", "--config", cfg_path, "--out", str(joined)]) == 0
    invert = read_manifest(joined)["stages"]["invert"]
    assert (invert["model_evaluations"], invert["reused_evaluations"]) == (16, 9)
    for command in ("gsa", "invert", "forward"):
        assert main([command, "--config", cfg_path, "--out", str(split)]) == 0
        if command == "invert":
            invert = read_manifest(split)["stages"]["invert"]
            assert (invert["model_evaluations"], invert["reused_evaluations"]) == (25, 0)
    files = sorted(p.relative_to(joined) for p in joined.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(split) for p in split.rglob("*") if p.is_file())
    for rel in files:
        if rel.name != "manifest.json":
            assert (joined / rel).read_bytes() == (split / rel).read_bytes(), rel


def test_fixed_value_of_a_screening_kept_dim_is_logged_as_ignored(tmp_path, capsys):
    cfg = beam_config(inversion={"fixed_values": {"T_A": 1200.0}})
    assert main(["pipeline", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert "inversion.fixed_values.T_A is ignored" in capsys.readouterr().err


def test_config_holds_each_dimension_at_its_fixed_value_else_its_center(tmp_path):
    cfg = beam_config(inversion={"fixed_values": {"log_h_g": -1.0}})
    cfg["space"][2] = {"name": "log_h_p", "distribution": "gaussian", "mean": -2.0, "std": 0.5}
    config = _load_config(write_config(tmp_path, cfg), "gsa")
    assert config.fixed == {"T_A": 1290.0, "log_h_g": -1.0, "log_h_p": -2.0}


def test_gaussian_dimension_screened_out_is_held_at_its_mean(tmp_path):
    # beam_proxy does not read log_h_g; N(-2.5, 0.5^2) has the uniform midpoint as its mean,
    # so the inversion and forward stages see the same model inputs as the uniform run
    outs = {}
    for name, log_h_g in [("uniform", beam_config()["space"][1]),
                          ("gaussian", {"name": "log_h_g", "distribution": "gaussian",
                                        "mean": -2.5, "std": 0.5})]:
        cfg = beam_config(forward={"n_samples": 2000})
        cfg["space"][1] = log_h_g
        outs[name] = tmp_path / name
        assert main(["pipeline", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                     "--out", str(outs[name]), "--validate", "--compare-prior"]) == 0, name
    files = sorted(p.relative_to(outs["uniform"]) for stage in ("invert", "forward")
                   for p in (outs["uniform"] / stage).iterdir())
    assert len(files) == 7
    for rel in files:
        assert (outs["uniform"] / rel).read_bytes() == (outs["gaussian"] / rel).read_bytes(), rel


def test_pipeline_with_validation_adds_100_evaluations(tmp_path):
    cfg_path = write_config(tmp_path, beam_config())
    out = tmp_path / "o"
    assert main(["pipeline", "--config", cfg_path, "--out", str(out),
                 "--validate", "--compare-prior"]) == 0
    man = read_manifest(out)
    assert man["total_model_evaluations"] == 150
    rows = list(csv.DictReader((out / "forward" / "bands.csv").read_text().splitlines()))
    assert len(rows) == 120
    narrower = sum(
        float(r["post_q95"]) - float(r["post_q05"])
        < float(r["prior_q95"]) - float(r["prior_q05"])
        for r in rows)
    assert narrower >= 0.95 * len(rows)


#: an inversion grid point (sum w=3 on T_A x log_h_p) whose T_A is no knot of the screening grid
GRID_TARGET = [1197.6239569296604, -2.5]


@pytest.mark.parametrize("target, counts, total", [
    (None, {"gsa": (9, 18), "invert": (66, 9), "forward": (75, 0)}, 150),
    # the target's run is charged to data_evaluations and the grid reuses it
    (GRID_TARGET, {"gsa": (9, 18), "invert": (65, 10), "forward": (75, 0)}, 149),
])
def test_one_batch_per_stage_keeps_the_evaluation_counts(tmp_path, target, counts, total):
    # (model_evaluations, reused_evaluations) per stage, as counted before the batches merged;
    # validation reads every level off the stage surrogate, so only earlier stages' rows are reused
    space = ParameterSpace.from_pairs([("T_A", Uniform(1130.0, 1450.0)),
                                       ("log_h_p", Uniform(-5.0, 0.0))])
    assert GRID_TARGET in build_sparse_grid(space, generate_index_set("sum", 2, 3)).points.tolist()
    cfg = beam_config() if target is None else beam_config(inversion={"target": target})
    out = tmp_path / "o"
    assert main(["pipeline", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--validate"]) == 0
    man = read_manifest(out)
    stages = man["stages"]
    assert {s: (m["model_evaluations"], m["reused_evaluations"])
            for s, m in stages.items()} == counts
    assert [m["model_batches"] for m in stages.values()] == [1, 1, 1]
    assert stages["invert"]["data_evaluations"] == man["data_evaluations"] == 1
    assert man["total_model_evaluations"] == total


LOGGING_SOLVER = """import csv, math, sys
# beam-like displacements at three stations and one strain; reads T_A and log_h_p
with open(sys.argv[1]) as fh:
    rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
with open({log!r}, "a") as fh:
    fh.write(f"{{len(rows)}}\\n")
if len(rows) > {max_rows}:
    sys.exit(1)
with open(sys.argv[2], "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["u_1", "u_2", "u_3", "eps_1"])
    for t, x in rows:
        s, g = (t - 1130.0) / 320.0, 1.0 / (1.0 + math.exp(-4.0 * (x + 1.0)))
        u = [0.52 + 0.3 * e + 0.36 * math.exp(-3.5 * e) * s + 0.0375 * (0.06 + 0.94 * e * e) * g
             for e in (0.0, 0.5, 1.0)]
        eps = 1e-3 * (1.3 + 0.45 * s + 0.32 * g + 0.12 * s * g)
        writer.writerow([repr(v) for v in u + [eps]])
"""


def logging_solver(tmp_path, max_rows=10 ** 6):
    """External model config whose command logs each launch's row count; and the log."""
    log, script = tmp_path / "launches.log", tmp_path / "solver.py"
    script.write_text(LOGGING_SOLVER.format(log=str(log), max_rows=max_rows))
    model = {"command": [sys.executable, str(script)], "workdir": str(tmp_path / "w"),
             "inputs": ["T_A", "log_h_p"], "outputs": ["u_1", "u_2", "u_3", "eps_1"]}
    return model, log


def launches(log):
    return [int(n) for n in log.read_text().split()] if log.exists() else []


@pytest.mark.parametrize("command, row, value", [
    ("gsa", "t == 1450.0", "math.nan"),
    ("invert", "t == 1339.8", "-math.inf"),
], ids=["grid_row", "target_row"])
def test_non_finite_solver_value_exits_3_on_its_launch(tmp_path, capsys, command, row, value):
    # the row never enters the run store, so no stage file is written from it
    model, log = logging_solver(tmp_path)
    script = tmp_path / "solver.py"
    script.write_text(script.read_text().replace(
        "u + [eps]", f"u + [{value} if {row} else eps]"))
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg["model"] = model
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "model error" in err and "'eps_1'" in err and "on line 2 " in err
    assert len(launches(log)) == 1
    assert list(out.rglob("*.json")) == []


def test_external_pipeline_launches_the_solver_once_per_stage(tmp_path):
    model, log = logging_solver(tmp_path)
    cfg = beam_config(forward={"n_samples": 2000, "qoi_outputs": ["eps_1"]})
    cfg["model"] = model
    out = tmp_path / "o"
    assert main(["pipeline", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--validate"]) == 0
    # gsa: 9 distinct inputs; invert: target, 16 new grid points, 50 samples;
    # forward: 25 grid points, 50 samples
    assert launches(log) == [9, 67, 75]
    stages = read_manifest(out)["stages"]
    assert [m["model_batches"] for m in stages.values()] == [1, 1, 1]
    assert sum(launches(log)) == sum(m["model_evaluations"] + m.get("data_evaluations", 0)
                                     for m in stages.values())

    # without the inversion's surrogate the prior and posterior grids share one launch
    (out / "invert" / "surrogate.json").unlink()
    log.unlink()
    assert main(["forward", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--compare-prior"]) == 0
    forward = read_manifest(out)["stages"]["forward"]
    assert len(launches(log)) == forward["model_batches"] == 1
    assert launches(log) == [forward["model_evaluations"]]
    assert forward["model_evaluations"] > 25


@pytest.mark.parametrize("argv, target, posterior, code", [
    (["invert"], [2000.0, -2.5], None, 2),
    (["invert"], [1300.0], None, 2),
    (["forward", "--compare-prior"], None, PATHOLOGICAL_POSTERIOR, 4),
])
def test_stage_errors_come_before_its_solver_launch(tmp_path, argv, target, posterior, code):
    model, log = logging_solver(tmp_path)
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg["model"] = model
    if target is not None:
        cfg["inversion"]["target"] = target
    out = tmp_path / "o"
    if posterior is not None:
        (out / "invert").mkdir(parents=True)
        (out / "invert" / "posterior.json").write_text(json.dumps(posterior))
    assert main([*argv, "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--validate"]) == code
    assert launches(log) == []


def test_solver_failing_on_the_merged_invert_batch_exits_3_and_names_its_size(tmp_path, capsys):
    model, log = logging_solver(tmp_path, max_rows=1)
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg["model"] = model
    assert main(["invert", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                 "--validate"]) == 3
    # the target, 25 grid points and 50 validation samples, in one launch
    assert launches(log) == [76]
    assert "batch of 76 samples" in capsys.readouterr().err


def test_no_scipy_module_is_loaded(tmp_path):
    # scipy is a test dependency only: neither start-up nor a full run may import it
    cfg_path = write_config(tmp_path, beam_config(forward={"n_samples": 500}))
    script = (
        "import sys\n"
        "import sguq.cli\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(scipy_modules())\n"
        f"code = sguq.cli.main(['pipeline', '--config', {cfg_path!r}, '--out', 'o',\n"
        "                       '--validate', '--compare-prior', '--densities'])\n"
        "print(code, scipy_modules())\n")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["[]", "0 []"]


def test_pipeline_stops_at_first_failing_stage(tmp_path, capsys):
    # a 3-long target fits the config but not the 2 dims the screening keeps, which
    # only the GSA stage can tell: gsa outputs must survive, invert must fail
    cfg = beam_config(inversion={"target": [1339.8, -2.5, -3.75]})
    out = tmp_path / "o"
    assert main(["pipeline", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert "target" in capsys.readouterr().err
    assert (out / "gsa" / "sobol.json").exists()
    assert not (out / "invert" / "posterior.json").exists()


def test_stale_screening_keep_list_exits_2(tmp_path, capsys):
    # gsa/sobol.json keeps a dimension that the config's space does not have
    out = tmp_path / "o"
    (out / "gsa").mkdir(parents=True)
    (out / "gsa" / "sobol.json").write_text(json.dumps(
        {"dim_names": ["T_A", "log_h_g", "log_hp"], "keep": [0, 2]}))
    cfg = beam_config()
    cfg["model"] = failing_model(tmp_path)
    assert main(["invert", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "keep list" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("sobol", [
    "{not json",
    {"keep": [0, 2]},
    {"dim_names": ["T_A", "log_h_g", "log_h_p"], "keep": [0, 7]},
    {"dim_names": ["T_A", "log_h_g", "log_h_p"], "keep": [0, -1]},
    {"dim_names": ["T_A", "log_h_g", "log_h_p"], "keep": [True, 2]},
    {"dim_names": ["T_A", "log_h_g", "log_h_p"], "keep": [0.0]},
    {"dim_names": ["T_A", "log_h_g", "log_h_p"], "keep": [0, 2, 0]},
], ids=["malformed", "no_dim_names", "keep_out_of_range", "keep_negative", "keep_bool",
        "keep_float", "keep_repeated"])
def test_bad_screening_result_exits_2_before_any_solver_run(tmp_path, capsys, sobol):
    out = tmp_path / "o"
    path = out / "gsa" / "sobol.json"
    path.parent.mkdir(parents=True)
    path.write_text(sobol if isinstance(sobol, str) else json.dumps(sobol))
    cfg = beam_config()
    cfg["model"] = failing_model(tmp_path)
    assert main(["invert", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_posterior_names_outside_the_space_exit_2_before_any_solver_run(tmp_path, capsys):
    # a misspelt name would be sampled but never reach the model
    posterior = {"names": ["T_A", "log_hp"],
                 "marginals": [{"type": "gaussian", "mean": 1340.0, "std": 10.0},
                               {"type": "uniform", "a": -5.0, "b": 0.0}],
                 "classification": ["identifiable", "weakly_identifiable"],
                 "prior_box": [[1130.0, -5.0], [1450.0, 0.0]]}
    (tmp_path / "posterior.json").write_text(json.dumps(posterior))
    cfg = beam_config(forward={"posterior_file": str(tmp_path / "posterior.json")})
    cfg["model"] = failing_model(tmp_path)
    assert main(["forward", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "log_hp" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


GOOD_POSTERIOR = {"names": ["T_A", "log_h_p"],
                  "marginals": [{"type": "gaussian", "mean": 1340.0, "std": 10.0},
                                {"type": "uniform", "a": -5.0, "b": 0.0}],
                  "classification": ["identifiable", "weakly_identifiable"],
                  "prior_box": [[1130.0, -5.0], [1450.0, 0.0]]}


def saved_prior_surrogate(point, log_h_p, **index_set):
    """A saved prior surrogate on [T_A, log_h_p] with point ``point`` moved to ``log_h_p``
    and the ``index_set`` entries replaced.

    None deletes the point.  The log_h_p knots of degrees 0, 1, 2 are 0, -5, -2.5;
    point 7 has degrees [1, 1] and point 3, the only one of log_h_p degree 3, [0, 3].
    """
    space = ParameterSpace.from_pairs([("T_A", Uniform(1130, 1450)), ("log_h_p", Uniform(-5, 0))])
    grid = build_sparse_grid(space, generate_index_set("sum", 2, 2))
    data = surrogate_to_json_dict(
        Surrogate(grid, np.zeros((grid.n_points, 3)), ("u_1", "u_2", "eps_1")))
    if log_h_p is None:
        del data["points"][point]
    else:
        data["points"][point][1] = log_h_p
    data["index_set"].update(index_set)
    return data


@pytest.mark.parametrize("posterior, surrogate", [
    ({**GOOD_POSTERIOR, "marginals": [{"type": "gaussian", "mean": 1340.0},
                                      GOOD_POSTERIOR["marginals"][1]]}, None),
    ("{not json", None),
    ({**GOOD_POSTERIOR, "marginals": [{"type": "beta", "a": 1.0, "b": 2.0},
                                      GOOD_POSTERIOR["marginals"][1]]}, None),
    ({**GOOD_POSTERIOR, "marginals": [{"type": "gaussian", "mean": 1340.0, "std": 0.0},
                                      GOOD_POSTERIOR["marginals"][1]]}, None),
    ({**GOOD_POSTERIOR, "marginals": GOOD_POSTERIOR["marginals"][:1]}, None),
    ({**GOOD_POSTERIOR, "prior_box": [[1130.0], [1450.0]]}, None),
    ({**GOOD_POSTERIOR, "prior_box": [[1450.0, -5.0], [1130.0, 0.0]]}, None),
    ({**GOOD_POSTERIOR, "marginals": [GOOD_POSTERIOR["marginals"][0],
                                      {"type": "uniform", "a": -9.0, "b": -6.0}]}, None),
    (GOOD_POSTERIOR, "{not json"),
    (GOOD_POSTERIOR, {"space": [{"name": "T_A", "distribution": "uniform"}]}),
    (GOOD_POSTERIOR, saved_prior_surrogate(7, -1.0)),
    (GOOD_POSTERIOR, saved_prior_surrogate(3, None)),
    (GOOD_POSTERIOR, saved_prior_surrogate(3, -5.0)),
    (GOOD_POSTERIOR, saved_prior_surrogate(3, float("inf"))),
    ({**GOOD_POSTERIOR, "prior_box": [[1000.0, -5.0], [2000.0, 0.0]]}, None),
    # point 7 stays on its knot: only the labels are wrong
    (GOOD_POSTERIOR, saved_prior_surrogate(7, -5.0, w=3)),
    (GOOD_POSTERIOR, saved_prior_surrogate(7, -5.0, kind="max")),
], ids=["no_std", "malformed_posterior", "beta_marginal", "zero_std", "one_marginal",
        "one_box_column", "reversed_box", "uniform_outside_box", "malformed_surrogate",
        "surrogate_without_range", "surrogate_point_off_its_degree",
        "surrogate_missing_a_point", "surrogate_degrees_sharing_a_knot",
        "surrogate_point_at_infinity", "box_off_the_config_range",
        "surrogate_index_set_of_another_level", "surrogate_index_set_of_another_kind"])
def test_bad_forward_input_file_exits_2_before_any_solver_run(tmp_path, capsys, posterior,
                                                              surrogate):
    # the solver always fails, so a solver run before the file check would exit 3
    out = tmp_path / "o"
    files = {out / "invert" / "posterior.json": posterior}
    if surrogate is not None:
        files[out / "invert" / "surrogate.json"] = surrogate
    for path, content in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg["model"] = failing_model(tmp_path)
    assert main(["forward", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--compare-prior"]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_saved_prior_surrogate_of_another_space_exits_2_before_any_solver_run(tmp_path,
                                                                             capsys):
    # the inversion ran on another T_A range; its surrogate would give the prior band
    # of that range, evaluated by extrapolation
    out = tmp_path / "o"
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    assert main(["invert", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    cfg["space"][0]["range"] = [1100, 1500]
    cfg["model"] = failing_model(tmp_path)
    assert main(["forward", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--compare-prior"]) == 2
    assert str(out / "invert" / "surrogate.json") in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_forward_builds_a_fresh_prior_surrogate_when_none_is_saved(tmp_path, capsys):
    # the second run's out dir has no invert/surrogate.json to reuse for the prior bands
    first, second = tmp_path / "r1", tmp_path / "r2"
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]},
                      forward={"posterior_file": str(first / "invert" / "posterior.json")})
    path = write_config(tmp_path, cfg)
    assert main(["pipeline", "--config", path, "--out", str(first), "--compare-prior"]) == 0
    capsys.readouterr()
    assert main(["forward", "--config", path, "--out", str(second), "--compare-prior"]) == 0
    assert "built a fresh prior surrogate (+25 evaluations, 0 reused)" in capsys.readouterr().err
    assert not (second / "invert").exists()
    bands = [(out / "forward" / "bands.csv").read_bytes() for out in (first, second)]
    assert bands[0] == bands[1]
    assert read_manifest(first)["stages"]["forward"]["model_evaluations"] == 25
    forward = read_manifest(second)["stages"]["forward"]
    assert (forward["model_evaluations"], forward["reused_evaluations"]) == (50, 0)
    assert forward["model_batches"] == 1


DELETE = object()


@pytest.mark.parametrize("stage, key, value, named, command", [
    ("forward", "kde_grdi", 256, "kde_grdi", "forward"),
    ("forward", "kde_grid", 256.0, "forward.kde_grid", "forward"),
    ("forward", "qoi_outputs", ["eps_999"], "forward.qoi_outputs", "forward"),
    ("forward", None, [1], "'forward'", "forward"),
    ("inversion", "target", DELETE, "'target'", "invert"),
    ("inversion", "data_file", "missing.json", "inversion.data_file", "invert"),
    ("inversion", "n_starts", "16", "inversion.n_starts", "invert"),
    ("gsa", "w", "1", "gsa.w", "gsa"),
    ("inversion", "fixed_values", {"log_h_gg": -2.0}, "'log_h_gg'", "invert"),
    ("inversion", "fixed_values", {"log_h_g": "-2"}, "inversion.fixed_values.log_h_g",
     "invert"),
    ("inversion", "fixed_values", {"log_h_g": 5.0}, "inversion.fixed_values.log_h_g",
     "invert"),
    ("inversion", "fixed_values", {"T_A": 1200.0}, "'T_A'", "invert"),
    ("inversion", "n_starts", 2, "inversion.n_starts", "invert"),
    ("inversion", "profile_grid", 10, "inversion.profile_grid", "invert"),
    ("forward", "kind", "tri", "forward.kind", "forward"),
    ("forward", "n_samples", 0, "forward.n_samples", "forward"),
    ("gsa", "threshold", 2.0, "gsa.threshold", "gsa"),
    ("inversion", "noise_std", -0.01, "inversion.noise_std", "invert"),
    ("inversion", "chi2_threshold", -1, "inversion.chi2_threshold", "invert"),
    ("inversion", "chi2_threshold", 0, "inversion.chi2_threshold", "invert"),
    ("inversion", "flat_fraction", 2.0, "inversion.flat_fraction", "invert"),
    ("inversion", "flat_fraction", 0.0, "inversion.flat_fraction", "invert"),
    ("inversion", "dims", ["T_A", "log_h_p", "T_A"],
     "inversion.dims: dimension 'T_A' is listed more than once", "invert"),
    ("inversion", "dims", ["T_A", "log_h_pp"], "inversion.dims: unknown dimension 'log_h_pp'",
     "invert"),
    ("inversion", "dims", [], "inversion.dims", "invert"),
    ("inversion", "dims", ["T_A", 2], "inversion.dims", "invert"),
    ("inversion", "dims", [["T_A"]], "inversion.dims", "invert"),
    # inversion.dims [T_A, log_h_p] names a Gaussian dimension
    ("space", None, [{"name": "T_A", "distribution": "gaussian", "mean": 1300.0, "std": 40.0}]
     + beam_config()["space"][1:], "inversion.dims", "invert"),
], ids=["kde_grid_typo", "kde_grid_float", "unknown_qoi", "forward_not_object",
        "no_target_no_data", "missing_data_file", "n_starts_string", "gsa_w_string",
        "fixed_value_typo", "fixed_value_string", "fixed_value_outside_range",
        "fixed_value_of_inverted_dim", "n_starts_2", "profile_grid_10", "kind_tri", "forward_n_samples_0", "threshold_2", "negative_noise",
        "chi2_threshold_-1", "chi2_threshold_0", "flat_fraction_2", "flat_fraction_0",
        "dims_repeated", "dims_unknown", "dims_empty", "dims_id", "dims_nested_list",
        "gaussian_inverted_dim"])
def test_config_error_exits_2_before_any_solver_run(tmp_path, capsys, stage, key, value,
                                                    named, command):
    cfg = beam_config(inversion={"dims": ["T_A", "log_h_p"]})
    cfg["model"] = failing_model(tmp_path)
    if key is None:
        cfg[stage] = value
    elif value is DELETE:
        del cfg[stage][key]
    else:
        cfg[stage][key] = str(tmp_path / value) if key == "data_file" else value
    path = write_config(tmp_path, cfg)
    single = [command] + (["--prior-only"] if command == "forward" else [])
    for argv in (["pipeline"], single):
        assert main(argv + ["--config", path, "--out", str(tmp_path / "o")]) == 2, argv
        assert named in capsys.readouterr().err, argv
        assert not (tmp_path / "w").exists(), argv
