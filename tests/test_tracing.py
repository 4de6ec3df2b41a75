"""The benchmark's span tracer (``perfbench/tracing.py``) installed on the current tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs_and_records_layer_spans(tmp_path):
    # a name in a layer's __all__ that does not resolve crashes a traced benchmark run,
    # and a grid build that bypasses knots_for_level silently reads 0 in knots.*
    (tmp_path / "config.json").write_text((ROOT / "demos" / "beam_config.json").read_text())
    script = (
        "import json, sys\n"
        "import sguq.cli\n"
        "import tracing\n"
        "unresolved = [f'{layer}.{name}' for layer in tracing.LAYERS\n"
        "              for name in sys.modules[f'sguq.{layer}'].__all__\n"
        "              if not hasattr(sys.modules[f'sguq.{layer}'], name)]\n"
        "recorder = tracing.Recorder()\n"
        "tracing.install(recorder, layers=True)\n"
        "code = sguq.cli.main(['gsa', '--config', 'config.json', '--out', 'o'])\n"
        "print(json.dumps({'code': code, 'unresolved': unresolved,\n"
        "                  'spans': sorted({s[2] for s in recorder.spans})}))\n")
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["unresolved"] == []
    assert {"cli.run_gsa", "surrogate.build_sparse_grid",
            "knots.knots_for_level"} <= set(result["spans"])


def test_traced_model_rows_equal_the_manifest_counts(tmp_path):
    # the benchmark's traced rounds check that every counted solver run reached the model
    (tmp_path / "config.json").write_text((ROOT / "demos" / "beam_config.json").read_text())
    script = (
        "import json\n"
        "import sguq.cli\n"
        "import tracing\n"
        "recorder = tracing.Recorder()\n"
        "tracing.install(recorder, layers=True)\n"
        "code = sguq.cli.main(['pipeline', '--config', 'config.json', '--out', 'o',\n"
        "                      '--validate', '--compare-prior'])\n"
        "manifest = json.load(open('o/manifest.json'))\n"
        "print(json.dumps({'code': code, 'rows': tracing.solver_rows(recorder.spans),\n"
        "                  'counted': manifest['total_model_evaluations']\n"
        "                  + manifest['data_evaluations'],\n"
        "                  'spans': sorted({s[2] for s in recorder.spans}),\n"
        "                  'grid_builds': [s[2] for s in recorder.spans]\n"
        "                  .count('surrogate.build_sparse_grid')}))\n")
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["rows"] == result["counted"] == 151
    # the benchmark times each stage through these spans
    assert {"cli.run_gsa", "cli.run_invert", "cli.run_forward"} <= set(result["spans"])
    # one grid per stage: validation reads its levels off the stage surrogate
    assert result["grid_builds"] == 3
