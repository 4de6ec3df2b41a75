"""Benchmark of the sguq workflow: end-to-end and per-layer metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A round runs the workload's sguq commands, each in a fresh interpreter
(``worker.py``), as a user runs them.  Rounds repeat while the next one still
fits in ``--seconds``; there is always at least one.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(sguq commands run and failed) and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``, each the median over
rounds; ``setup_s`` is the median import time of ``sguq.cli`` over every
fresh interpreter of the run, with import-only interpreters added until
there are at least MIN_SETUP_SAMPLES.  With ``--trace 1`` rounds alternate
untraced and traced, the metrics are the per-layer ones taken from the
traced rounds' spans (see ``tracing.py``), and ``trace.overhead_s`` is the
traced minus the untraced median wall time of the commands.

The outputs of the first round are checked against references made apart
from sguq (``checks.py``), and every later round's files must be
byte-identical to the first round's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_SAMPLES = 7
COMMAND_TIMEOUT_S = 150
#: BLAS and OpenMP pools of the workers; one thread each, so a shared
#: two-core machine is not oversubscribed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _log(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["SOURCE_DATE_EPOCH"] = "0"
    return env


def _run_worker(run_dir: Path, tag: str, argv, trace: bool):
    """One fresh interpreter; its result dict and spans, or None if it failed."""
    result = run_dir / f"{tag}.result.json"
    trace_file = run_dir / f"{tag}.trace.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result)]
    if trace:
        cmd += ["--trace", str(trace_file)]
    cmd += ["--import-only"] if argv is None else ["--", *argv]
    with open(run_dir / f"{tag}.log", "w") as log:
        # own session, so a timeout also stops the solver processes it started
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=_worker_env(), start_new_session=True)
        try:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            _log(f"{tag}: timed out after {COMMAND_TIMEOUT_S} s")
            return None, []
    if proc.returncode != 0 or not result.exists():
        _log(f"{tag}: worker exited with {proc.returncode}; see {run_dir / (tag + '.log')}")
        return None, []
    with open(result) as fh:
        data = json.load(fh)
    spans = []
    if trace and trace_file.exists():
        with open(trace_file) as fh:
            spans = json.load(fh)
    return data, spans


def _run_round(k: int, commands, run_dir: Path, traced: bool) -> dict:
    out = run_dir / f"round{k}"
    rnd = {"traced": traced, "out": out, "attempted": 0, "failed": 0, "setup": [],
           "pipeline_s": 0.0, "stages": {}, "rss_mb": 0.0, "solver_runs": 0, "spans": []}
    for i, argv in enumerate(commands):
        rnd["attempted"] += 1
        data, spans = _run_worker(run_dir, f"round{k}-{i}", [*argv, "--out", str(out)], traced)
        if data is None or data["rc"] != 0:
            rnd["failed"] += 1
            continue
        rnd["setup"].append(data["setup_s"])
        rnd["pipeline_s"] += data["command_s"]
        for stage, seconds in data["stages"].items():
            rnd["stages"][stage] = rnd["stages"].get(stage, 0.0) + seconds
        rnd["rss_mb"] = max(rnd["rss_mb"], data["rss_mb"])
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        rnd["solver_runs"] += manifest["total_model_evaluations"] + manifest["data_evaluations"]
        # span ids are per interpreter; shift them to stay unique in the round
        base = len(rnd["spans"])
        rnd["spans"] += [[s[0] + base, s[1] + base if s[1] >= 0 else -1, *s[2:]]
                         for s in spans]
    return rnd


def _file_hashes(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _check(workload, rounds, seed: int) -> list[str]:
    import tracing

    first = rounds[0]["out"]
    problems = workload.check(first, seed)
    reference = _file_hashes(first)
    for rnd in rounds:
        if not 0 < rnd["solver_runs"] <= workload.budget:
            problems.append(f"{rnd['out'].name}: {rnd['solver_runs']} solver runs, "
                            f"budget {workload.budget}")
        if _file_hashes(rnd["out"]) != reference:
            problems.append(f"{rnd['out'].name}: outputs differ from {first.name}")
        if rnd["traced"]:
            problems += tracing.check_accounting(rnd["spans"])
            rows = tracing.solver_rows(rnd["spans"])
            if rows != rnd["solver_runs"]:
                problems.append(f"{rnd['out'].name}: model spans saw {rows} solver runs, "
                                f"the manifests count {rnd['solver_runs']}")
    return problems


def _end_to_end(rounds, setup) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setup),
        "pipeline_s": med([r["pipeline_s"] for r in rounds]),
        "gsa_s": med([r["stages"].get("gsa", 0.0) for r in rounds]),
        "invert_s": med([r["stages"].get("invert", 0.0) for r in rounds]),
        "forward_s": med([r["stages"].get("forward", 0.0) for r in rounds]),
        "solver_runs": med([r["solver_runs"] for r in rounds]),
        "peak_rss_mb": med([r["rss_mb"] for r in rounds]),
    }


def _per_layer(rounds) -> dict:
    import tracing

    traced = [r for r in rounds if r["traced"]]
    per_round = [tracing.layer_metrics(r["spans"], _output_bytes(r["out"])) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(r["pipeline_s"] for r in traced)
        - statistics.median(r["pipeline_s"] for r in rounds if not r["traced"]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sguq" / "cli.py").is_file():
        _log(f"no sguq sources under {ROOT / 'src'}; run from the root of a checkout")
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]

    run_dir = ROOT / ".perfbench_runs" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    commands = workload.prepare(run_dir, args.seed)

    pattern = (False, True) if args.trace else (False,)
    rounds = []
    start = time.perf_counter()
    while True:
        block_start = time.perf_counter()
        for traced in pattern:
            rounds.append(_run_round(len(rounds), commands, run_dir, traced))
            _log(f"round {len(rounds) - 1}{' (traced)' if traced else ''}: "
                 f"{rounds[-1]['pipeline_s']:.3f} s")
        now = time.perf_counter()
        if now - start + (now - block_start) > args.seconds:
            break

    setup = [s for r in rounds for s in r["setup"]]
    k = 0
    while len(setup) < MIN_SETUP_SAMPLES:
        data, _ = _run_worker(run_dir, f"import{k}", None, False)
        k += 1
        if data is None:
            return 1
        setup.append(data["setup_s"])

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    good = [r for r in rounds if r["failed"] == 0]
    if not good or (args.trace and not any(r["traced"] for r in good)) \
            or not any(not r["traced"] for r in good):
        _log("no complete round; nothing to report")
        return 1
    problems = _check(workload, good, args.seed)
    for p in problems:
        _log(f"check failed: {p}")

    if args.trace:
        values, names = _per_layer(good), spec["per_layer"]
    else:
        values, names = _end_to_end([r for r in good if not r["traced"]], setup), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    if not problems:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
