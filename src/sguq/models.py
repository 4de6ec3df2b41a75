"""Model handles: built-in analytic test models and an external-solver adapter.

Built-ins evaluate vectorized formulas in-process.  The external adapter
speaks a synchronous file-exchange protocol: it writes one ``params.csv``
request per batch, invokes ``<command> <workdir>/params.csv <workdir>/qoi.csv``
and parses the response.  Exactly one subprocess runs per handle at a time;
create handles with distinct workdirs for parallel solver instances.  A
workflow stage reads every row it needs from one call, which sends the rows
not yet run as one batch, so the stage launches the command at most once.
"""

from __future__ import annotations

import csv
import math
import shlex
import subprocess
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "BuiltinModel",
    "ExternalModel",
    "ExternalModelError",
    "register_builtin",
    "BUILTIN_NAMES",
    "ishigami",
    "beam_proxy",
    "BEAM_DISPLACEMENT_COORDS",
    "BEAM_STRAIN_COORDS",
]


class ExternalModelError(RuntimeError):
    """The external solver failed: nonzero exit, timeout or bad response."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check(ok: bool, key: str, rule: str, value):
    if not ok:
        raise ValueError(f"{key} must be {rule}, got {value!r}")


# ---------------------------------------------------------------------------
# Ishigami test function: three uniform inputs on [-pi, pi], one output.
# f(v) = sin v1 + a sin^2 v2 + b v3^4 sin v1  with a = 7, b = 0.1.
# ---------------------------------------------------------------------------

ISHIGAMI_A = 7.0
ISHIGAMI_B = 0.1


def ishigami(v: np.ndarray) -> np.ndarray:
    v = np.atleast_2d(np.asarray(v, dtype=float))
    out = (np.sin(v[:, 0]) + ISHIGAMI_A * np.sin(v[:, 1]) ** 2
           + ISHIGAMI_B * v[:, 2] ** 4 * np.sin(v[:, 0]))
    return out[:, None]


# ---------------------------------------------------------------------------
# Beam proxy: a cheap stand-in for a part-scale thermomechanical solver.
#
# Inputs: activation temperature T_A on [1130, 1450] degC and the base-10 log
# of the powder convection coefficient, log_h_p on [-5, 0].  Internally
#   s(T) = (T - 1130) / 320          (temperature normalized to its range)
#   g(x) = 1 / (1 + exp(-4 (x + 1))) (saturating response; flat for x < -2.5)
#
# Outputs:
#   9 vertical displacements [mm] at measurement stations along the beam,
#       u_k = alpha_k + beta_k s + gamma_k g
#   120 residual strains [-] on a line at constant height,
#       eps_j = a_j + b_j s + c_j g + d_j s g
#
# Coefficient profiles (units: mm for displacements):
#   * alpha grows along the beam, keeping every u_k in the 0.4..0.9 mm decade
#     so that a 0.01 mm measurement noise gives a realistic signal-to-noise;
#   * beta decays strongly along the beam while gamma grows, so the two
#     sensitivity vectors are far from collinear and the temperature stays
#     identifiable even when the powder coefficient is not;
#   * gamma keeps the powder term comparable to the measurement noise over
#     its saturated band (weak identifiability with a detectable transition
#     edge) while contributing a solid share of the displacement variance, so
#     the dimension survives a variance-based screening, unlike an inert
#     gas-convection dimension;
#   * strain coefficients are all positive, bounded away from zero, so
#     relative-error metrics are well defined everywhere in the box.
# ---------------------------------------------------------------------------

BEAM_T_RANGE = (1130.0, 1450.0)
BEAM_LOGH_RANGE = (-5.0, 0.0)

#: measurement stations [mm]: five ridge centers 7 mm apart plus the four
#: midpoints between them, echoing displacement probes on a printed beam
BEAM_DISPLACEMENT_COORDS = np.array([0.5, 4.0, 7.5, 11.0, 14.5, 18.0, 21.5, 25.0, 28.5])
#: strain stations [mm]: 120 equally spaced positions along the beam
BEAM_STRAIN_COORDS = np.linspace(0.5, 60.0, 120)

_eta = BEAM_DISPLACEMENT_COORDS / BEAM_DISPLACEMENT_COORDS[-1]
BEAM_ALPHA = 0.52 + 0.30 * _eta
BEAM_BETA = 0.36 * np.exp(-3.5 * _eta)
BEAM_GAMMA = 0.0375 * (0.06 + 0.94 * _eta ** 2)

_xi = BEAM_STRAIN_COORDS / BEAM_STRAIN_COORDS[-1]
BEAM_STRAIN_A = 1e-3 * (1.30 + 0.60 * np.sin(np.pi * _xi))
BEAM_STRAIN_B = 1e-3 * (0.45 + 0.25 * np.cos(np.pi * _xi))
BEAM_STRAIN_C = 1e-3 * (0.32 + 0.22 * np.sin(2.0 * np.pi * _xi + 0.6))
BEAM_STRAIN_D = 1e-3 * 0.12 * _xi


def _beam_s(t: np.ndarray) -> np.ndarray:
    lo, hi = BEAM_T_RANGE
    return (t - lo) / (hi - lo)


def _beam_g(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-4.0 * (x + 1.0)))


def beam_proxy(v: np.ndarray) -> np.ndarray:
    """All 129 outputs (9 displacements, then 120 strains) for (T_A, log_h_p)."""
    v = np.atleast_2d(np.asarray(v, dtype=float))
    s = _beam_s(v[:, 0])[:, None]
    g = _beam_g(v[:, 1])[:, None]
    u = BEAM_ALPHA[None, :] + BEAM_BETA[None, :] * s + BEAM_GAMMA[None, :] * g
    eps = (BEAM_STRAIN_A[None, :] + BEAM_STRAIN_B[None, :] * s
           + BEAM_STRAIN_C[None, :] * g + BEAM_STRAIN_D[None, :] * s * g)
    return np.hstack([u, eps])


# ---------------------------------------------------------------------------
# Quadratic test model for analytic optimizer and covariance checks.
# ---------------------------------------------------------------------------

QUADRATIC_CENTER = np.array([0.25, -0.4])


def quadratic_test(v: np.ndarray) -> np.ndarray:
    v = np.atleast_2d(np.asarray(v, dtype=float))
    d = v - QUADRATIC_CENTER[None, :]
    return np.sum(d * d, axis=1)[:, None]


@dataclass(frozen=True)
class BuiltinModel:
    name: str
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    fn: callable
    output_coordinates: np.ndarray | None = None
    output_groups: dict = field(default_factory=dict)

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        if batch.shape[1] != self.n_inputs:
            raise ValueError(
                f"model {self.name!r} expects {self.n_inputs} inputs, got {batch.shape[1]}")
        out = self.fn(batch)
        if not np.all(np.isfinite(out)):
            bad = int(np.argwhere(~np.isfinite(out))[0][0])
            raise ValueError(f"model {self.name!r} returned a non-finite value for batch row {bad}")
        return out


def _make_beam_handle() -> BuiltinModel:
    disp_names = tuple(f"u_{k}" for k in range(1, 10))
    strain_names = tuple(f"eps_{j}" for j in range(1, 121))
    return BuiltinModel(
        name="beam_proxy",
        input_names=("T_A", "log_h_p"),
        output_names=disp_names + strain_names,
        fn=beam_proxy,
        output_coordinates=np.concatenate([BEAM_DISPLACEMENT_COORDS, BEAM_STRAIN_COORDS]),
        output_groups={"displacement": list(range(9)), "strain": list(range(9, 129))},
    )


BUILTIN_NAMES = ("ishigami", "beam_proxy", "quadratic_test")


def register_builtin(name: str) -> BuiltinModel:
    """Handle for a named built-in model; another name raises ValueError."""
    _check(name in BUILTIN_NAMES, "builtin", f"one of {BUILTIN_NAMES}", name)
    if name == "ishigami":
        return BuiltinModel(name="ishigami", input_names=("v1", "v2", "v3"),
                            output_names=("f",), fn=ishigami)
    if name == "beam_proxy":
        return _make_beam_handle()
    return BuiltinModel(name="quadratic_test", input_names=("v1", "v2"),
                        output_names=("f",), fn=quadratic_test)


class ExternalModel:
    """File-exchange adapter around an external solver command.

    Request ``params.csv``: header row of input names, one row per sample
    with 17 significant digits.  Response ``qoi.csv``: header row of output
    names, one row per input row, same order.  The command must exit 0.

    A bad argument raises ValueError led by the argument's key in a config's ``model``.
    """

    def __init__(self, command, workdir, input_names, output_names,
                 timeout: float = 3600.0, output_coordinates=None, name: str = "external"):
        try:
            split = shlex.split(command) if isinstance(command, str) else command
        except ValueError as exc:
            raise ValueError(f"command {command!r} cannot be split: {exc}") from None
        _check(isinstance(split, (list, tuple)) and split and all(isinstance(c, str) for c in split),
               "command", "a non-empty string or list of strings", command)
        for key, names in (("inputs", input_names), ("outputs", output_names)):
            _check(isinstance(names, (list, tuple)) and names
                   and all(isinstance(n, str) for n in names) and len(set(names)) == len(names),
                   key, "a non-empty list of distinct strings", names)
        _check(_is_number(timeout) and timeout > 0, "timeout", "a number > 0", timeout)
        coords = output_coordinates
        _check(coords is None or isinstance(coords, (list, tuple, np.ndarray))
               and len(coords) == len(output_names) and all(map(_is_number, coords)),
               "coordinates", f"a list of {len(output_names)} numbers, one per output", coords)
        self.command = list(split)
        self.workdir = Path(workdir)
        self.input_names = tuple(input_names)
        self.output_names = tuple(output_names)
        self.timeout = float(timeout)
        self.output_coordinates = None if coords is None else np.asarray(coords, dtype=float)
        self.name = name
        self.output_groups = {}
        self._lock = threading.Lock()

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        if batch.shape[1] != self.n_inputs:
            raise ValueError(
                f"model {self.name!r} expects {self.n_inputs} inputs, got {batch.shape[1]}")
        with self._lock:
            return self._run_batch(batch)

    def _run_batch(self, batch: np.ndarray) -> np.ndarray:
        self.workdir.mkdir(parents=True, exist_ok=True)
        request = self.workdir / "params.csv"
        response = self.workdir / "qoi.csv"
        if response.exists():
            response.unlink()
        with open(request, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.input_names)
            for row in batch:
                writer.writerow([f"{x:.17g}" for x in row])

        label = f"batch of {len(batch)} samples"
        cmd = self.command + [str(request), str(response)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=self.timeout)
        except subprocess.TimeoutExpired as exc:
            raise ExternalModelError(
                f"external model {self.name!r} timed out after {self.timeout} s on {label}") from exc
        if proc.returncode != 0:
            raise ExternalModelError(
                f"external model {self.name!r} exited with code {proc.returncode} on {label}: "
                f"{proc.stderr.strip()[:500]}")
        if not response.exists():
            raise ExternalModelError(
                f"external model {self.name!r} produced no response file for {label}")
        return self._parse_response(response, len(batch), label)

    def _parse_response(self, path: Path, n_rows: int, label: str) -> np.ndarray:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ExternalModelError(
                    f"external model {self.name!r} returned an empty response for {label}") from None
            if tuple(h.strip() for h in header) != self.output_names:
                raise ExternalModelError(
                    f"external model {self.name!r} returned unexpected output header for {label}: "
                    f"{header}")
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    rows.append([float(x) for x in row])
                except ValueError as exc:
                    raise ExternalModelError(
                        f"external model {self.name!r} returned a malformed value on line "
                        f"{line_no} for {label}") from exc
                for name, value in zip(self.output_names, rows[-1]):
                    if not math.isfinite(value):
                        raise ExternalModelError(f"external model {self.name!r} returned {value} "
                                                 f"for {name!r} on line {line_no} for {label}")
        out = np.array(rows, dtype=float)
        if out.shape != (n_rows, self.n_outputs):
            raise ExternalModelError(
                f"external model {self.name!r} returned {out.shape[0]} rows of {0 if out.size == 0 else out.shape[1]} "
                f"values for {label}; expected {n_rows} x {self.n_outputs}")
        return out

