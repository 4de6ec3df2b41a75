import csv
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from sguq.models import (
    BEAM_DISPLACEMENT_COORDS,
    BEAM_STRAIN_COORDS,
    ExternalModel,
    ExternalModelError,
    beam_proxy,
    ishigami,
    quadratic_test,
    QUADRATIC_CENTER,
    register_builtin,
)


def test_ishigami_known_values():
    assert ishigami(np.array([[0.0, 0.0, 0.0]]))[0, 0] == pytest.approx(0.0)
    assert ishigami(np.array([[np.pi / 2, 0.0, 0.0]]))[0, 0] == pytest.approx(1.0)


def test_registry_shapes():
    m = register_builtin("ishigami")
    assert (m.n_inputs, m.n_outputs) == (3, 1)
    b = register_builtin("beam_proxy")
    assert (b.n_inputs, b.n_outputs) == (2, 129)
    assert b.output_groups["displacement"] == list(range(9))
    assert b.output_groups["strain"] == list(range(9, 129))
    assert len(b.output_coordinates) == 129
    q = register_builtin("quadratic_test")
    assert (q.n_inputs, q.n_outputs) == (2, 1)
    with pytest.raises(ValueError):
        register_builtin("heat_equation")


def test_quadratic_vanishes_at_center():
    assert quadratic_test(QUADRATIC_CENTER[None, :])[0, 0] == 0.0


def test_beam_monotone_in_both_parameters():
    t = np.linspace(1130, 1450, 50)
    x = np.linspace(-5, 0, 50)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    pts = np.column_stack([tt.ravel(), xx.ravel()])
    u = beam_proxy(pts)[:, :9].reshape(50, 50, 9)
    assert np.all(np.diff(u, axis=0) > 0)   # increasing in T_A
    assert np.all(np.diff(u, axis=1) > 0)   # increasing in log_h_p


def test_beam_flat_in_powder_dim_below_minus3():
    # displacement slope w.r.t. log_h_p is negligible in the saturated band
    t = np.full(40, 1300.0)
    x = np.linspace(-5.0, -3.0, 40)
    u = beam_proxy(np.column_stack([t, x]))[:, :9]
    slopes = np.abs(np.diff(u, axis=0) / np.diff(x)[:, None])
    full_scale = beam_proxy(np.array([[1300.0, 0.0]]))[:, :9] - u[:1]
    assert slopes.max() < 2e-3 * np.abs(full_scale).max()


def test_beam_output_layout():
    assert len(BEAM_DISPLACEMENT_COORDS) == 9
    assert len(BEAM_STRAIN_COORDS) == 120
    assert BEAM_STRAIN_COORDS[0] == 0.5 and BEAM_STRAIN_COORDS[-1] == 60.0
    out = beam_proxy(np.array([[1339.8, -3.75]]))
    assert out.shape == (1, 129)
    assert np.all(out[:, 9:] > 0)  # strains strictly positive over the box


def test_batch_order_preserved():
    m = register_builtin("beam_proxy")
    rng = np.random.default_rng(0)
    batch = np.column_stack([rng.uniform(1130, 1450, 20), rng.uniform(-5, 0, 20)])
    perm = rng.permutation(20)
    out = m.evaluate(batch)
    assert np.array_equal(m.evaluate(batch[perm]), out[perm])


# ---------------------------------------------------------------------------
# external file-exchange adapter
# ---------------------------------------------------------------------------


SRC = Path(__file__).resolve().parents[1] / "src"
# the solver runs in its own interpreter, which sees neither pytest's
# pythonpath setting nor an installed sguq; it imports this checkout's
STUB_WRAPPER = """#!{python}
import csv, sys
sys.path.insert(0, {src!r})
import numpy as np
from sguq.models import beam_proxy, register_builtin

handle = register_builtin("beam_proxy")
with open(sys.argv[1]) as fh:
    reader = csv.reader(fh)
    header = next(reader)
    rows = np.array([[float(x) for x in row] for row in reader])
out = beam_proxy(rows)
with open(sys.argv[2], "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(handle.output_names)
    for row in out:
        writer.writerow([f"{{v:.17g}}" for v in row])
"""


def write_script(path: Path, body: str):
    path.write_text(body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


@pytest.fixture
def stub_command(tmp_path):
    script = tmp_path / "solver.py"
    write_script(script, STUB_WRAPPER.format(python=sys.executable, src=str(SRC)))
    return [sys.executable, str(script)]


def make_external(command, tmp_path, timeout=60.0):
    handle = register_builtin("beam_proxy")
    return ExternalModel(command=command, workdir=tmp_path / "work",
                         input_names=handle.input_names,
                         output_names=handle.output_names, timeout=timeout)


def test_external_round_trip_matches_builtin_bitwise(stub_command, tmp_path):
    ext = make_external(stub_command, tmp_path)
    rng = np.random.default_rng(1)
    batch = np.column_stack([rng.uniform(1130, 1450, 7), rng.uniform(-5, 0, 7)])
    assert np.array_equal(ext.evaluate(batch), beam_proxy(batch))


def test_request_file_has_full_precision(stub_command, tmp_path):
    ext = make_external(stub_command, tmp_path)
    batch = np.array([[1234.56789012345678, -3.1415926535897932]])
    ext.evaluate(batch)
    with open(tmp_path / "work" / "params.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        row = next(reader)
    assert tuple(header) == ext.input_names
    assert [float(x) for x in row] == batch[0].tolist()


def test_external_nonzero_exit(tmp_path):
    ext = make_external([sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path)
    with pytest.raises(ExternalModelError, match="exited with code 3"):
        ext.evaluate(np.array([[1300.0, -2.0]]))


def test_external_timeout(tmp_path):
    ext = make_external([sys.executable, "-c", "import time; time.sleep(30)"],
                        tmp_path, timeout=0.5)
    with pytest.raises(ExternalModelError, match="timed out"):
        ext.evaluate(np.array([[1300.0, -2.0]]))


def test_external_missing_response(tmp_path):
    ext = make_external([sys.executable, "-c", "pass"], tmp_path)
    with pytest.raises(ExternalModelError, match="no response file"):
        ext.evaluate(np.array([[1300.0, -2.0]]))


def test_external_malformed_response(tmp_path):
    script = tmp_path / "bad.py"
    write_script(script, f"""#!{sys.executable}
import sys
with open(sys.argv[2], "w") as fh:
    fh.write("u_1\\nnot-a-number\\n")
""")
    handle = register_builtin("beam_proxy")
    ext = ExternalModel(command=[sys.executable, str(script)], workdir=tmp_path / "w2",
                        input_names=handle.input_names, output_names=("u_1",))
    with pytest.raises(ExternalModelError, match="malformed"):
        ext.evaluate(np.array([[1300.0, -2.0]]))


def test_external_row_count_mismatch(tmp_path):
    script = tmp_path / "short.py"
    write_script(script, f"""#!{sys.executable}
import sys
with open(sys.argv[2], "w") as fh:
    fh.write("u_1\\n1.0\\n")
""")
    ext = ExternalModel(command=[sys.executable, str(script)], workdir=tmp_path / "w3",
                        input_names=("T_A", "log_h_p"), output_names=("u_1",))
    with pytest.raises(ExternalModelError, match="expected 2 x 1"):
        ext.evaluate(np.array([[1300.0, -2.0], [1310.0, -2.5]]))


def test_external_wrong_header(tmp_path):
    script = tmp_path / "hdr.py"
    write_script(script, f"""#!{sys.executable}
import sys
with open(sys.argv[2], "w") as fh:
    fh.write("wrong\\n1.0\\n")
""")
    ext = ExternalModel(command=[sys.executable, str(script)], workdir=tmp_path / "w4",
                        input_names=("T_A", "log_h_p"), output_names=("u_1",))
    with pytest.raises(ExternalModelError, match="unexpected output header"):
        ext.evaluate(np.array([[1300.0, -2.0]]))


def test_external_model_with_no_valid_argument_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="^command must be"):
        ExternalModel(command=[], workdir=tmp_path, input_names="ab", output_names=["y", "y"],
                      output_coordinates=[1.0, 2.0, 3.0], timeout=-1)


VALID_EXTERNAL = {"command": [sys.executable, "-c", "pass"], "input_names": ["a", "b"],
                  "output_names": ["y", "z"], "output_coordinates": [1.0, 2.0], "timeout": 1.0}


@pytest.mark.parametrize("key, value, named", [
    ("command", [], "command"),
    ("command", " ", "command"),
    ("command", "python 'x", "command"),
    ("command", [sys.executable, 5], "command"),
    ("input_names", "ab", "inputs"),
    ("input_names", ["a", "a"], "inputs"),
    ("output_names", ["y", "y"], "outputs"),
    ("output_names", [], "outputs"),
    ("output_coordinates", [1.0, 2.0, 3.0], "coordinates"),
    ("output_coordinates", [1.0, np.inf], "coordinates"),
    ("timeout", -1, "timeout"),
    ("timeout", "60", "timeout"),
])
def test_external_model_names_its_bad_argument(tmp_path, key, value, named):
    # the message starts with the argument's key in a config's model section
    assert ExternalModel(workdir=tmp_path, **VALID_EXTERNAL).output_coordinates.tolist() == [1, 2]
    with pytest.raises(ValueError, match=f"^{named} "):
        ExternalModel(workdir=tmp_path, **{**VALID_EXTERNAL, key: value})
