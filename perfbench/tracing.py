"""Spans around the calls into sguq's layers, installed from outside the package.

``install`` wraps, in a span recorder, every public function of the layer
modules (their ``__all__`` and whatever ``sguq.cli`` imports from them), the
``run_*`` stage functions of ``sguq.cli`` and a few public methods.  A span
holds name, start, end, parent and a few counts taken from the arguments or
the result.  A name re-bound by
``from .x import y`` in another sguq module is replaced there too, so the
calls made by ``sguq.cli`` and between layers are all seen.  ``sguq`` itself
is not edited.

``layer_metrics`` turns the spans of one round into the per-layer metrics
listed in ``BENCHMARK.json``.  A span's self time is its duration minus the
durations of its direct children; calls are sequential in one thread, so the
children never overlap and the self times of a stage's subtree add up to
the stage's wall time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

LAYERS = ("indices", "knots", "surrogate", "sobol", "models", "inversion", "forward")
STAGES = ("cli.run_gsa", "cli.run_invert", "cli.run_forward")
#: public methods that the modules' __all__ lists do not reach
METHODS = {
    "surrogate": (("Surrogate", "evaluate"), ("Surrogate", "from_model")),
    "models": (("BuiltinModel", "evaluate"), ("ExternalModel", "evaluate")),
}
#: a surrogate evaluation of at least this many points counts as a batch
BATCH_POINTS = 1000


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# counts attached to a span: name -> f(args, kwargs, result) -> dict
COUNTERS = {
    "surrogate.build_sparse_grid": lambda a, k, r: {"points": r.n_points},
    "surrogate.Surrogate.evaluate": lambda a, k, r: {"points": _rows(_arg(a, k, 1, "v"))},
    "indices.combination_coefficients": lambda a, k, r: {"members": len(r)},
    "forward.estimate_density": lambda a, k, r: {
        "kernel_evals": len(r.samples) * len(r.grid)},
    "forward.sample_posterior": lambda a, k, r: {"samples": int(r.shape[0])},
    "inversion.find_map": lambda a, k, r: {"starts": r.n_starts, "minima": len(r.minima)},
    "models.BuiltinModel.evaluate": lambda a, k, r: {"rows": int(r.shape[0])},
    "models.ExternalModel.evaluate": lambda a, k, r: {"rows": int(r.shape[0])},
}


class Recorder:
    """Spans kept in memory as [id, parent, name, start, end, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name, clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced


def _rebind(old, new, modules):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(recorder: Recorder, layers: bool):
    """Wrap the stage functions and, if ``layers``, every layer's public calls."""
    import sguq.cli as cli

    modules = [m for n, m in sys.modules.items() if n == "sguq" or n.startswith("sguq.")]
    targets = [("cli", name[4:], getattr(cli, name[4:])) for name in STAGES]
    if layers:
        for layer in LAYERS:
            mod = sys.modules[f"sguq.{layer}"]
            # the layer's __all__ plus what sguq.cli imports from it
            names = list(mod.__all__) + [n for n, v in vars(cli).items()
                                         if getattr(v, "__module__", "") == mod.__name__
                                         and n not in mod.__all__]
            for attr in names:
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type) \
                        and getattr(obj, "__module__", "") == mod.__name__:
                    targets.append((layer, attr, obj))
    for layer, attr, fn in targets:
        _rebind(fn, recorder.wrap(f"{layer}.{attr}", fn), modules)
    if layers:
        for layer, methods in METHODS.items():
            mod = sys.modules[f"sguq.{layer}"]
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                name = f"{layer}.{cls_name}.{meth}"
                attr = vars(cls)[meth]
                if isinstance(attr, classmethod):
                    setattr(cls, meth, classmethod(recorder.wrap(name, attr.__func__)))
                else:
                    setattr(cls, meth, recorder.wrap(name, attr))


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def _index(spans):
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    return children


def self_time(span, children) -> float:
    return (span[4] - span[3]) - sum(c[4] - c[3] for c in children.get(span[0], ()))


def check_accounting(spans) -> list[str]:
    """Problems with the span tree: a child outside its parent, or overlapping."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for parent_id, kids in _index(spans).items():
        if parent_id < 0:
            continue
        parent = by_id[parent_id]
        kids = sorted(kids, key=lambda s: s[3])
        prev_end = parent[3]
        for kid in kids:
            if kid[3] < prev_end or kid[4] > parent[4]:
                problems.append(f"span {kid[2]} overlaps its sibling or leaves {parent[2]}")
                break
            prev_end = kid[4]
    return problems


def _under(span, ancestor_names, by_id):
    p = span[1]
    while p >= 0:
        if by_id[p][2] in ancestor_names:
            return True
        p = by_id[p][1]
    return False


def layer_metrics(spans, output_bytes: int) -> dict:
    """Per-layer metrics of one round, from all spans of its commands."""
    by_id = {s[0]: s for s in spans}
    children = _index(spans)

    def named(name):
        return [s for s in spans if s[2] == name]

    def total(name):
        # calls nested in a call of the same name are already inside its time
        return sum(s[4] - s[3] for s in named(name) if not _under(s, {name}, by_id))

    def count(name, key):
        return sum((s[5] or {}).get(key, 0) for s in named(name))

    evals = named("surrogate.Surrogate.evaluate")
    single = [s[4] - s[3] for s in evals if s[5] and s[5]["points"] == 1]
    batch = [s for s in evals if s[5] and s[5]["points"] >= BATCH_POINTS]
    batch_s = sum(s[4] - s[3] for s in batch)
    sobol_spans = named("sobol.sobol_indices")
    models = named("models.BuiltinModel.evaluate") + named("models.ExternalModel.evaluate")

    def evals_under(name):
        return sum(1 for s in evals if _under(s, {name}, by_id))

    return {
        "surrogate.build_calls": len(named("surrogate.build_sparse_grid")),
        "surrogate.build_s": total("surrogate.build_sparse_grid"),
        "surrogate.grid_points": count("surrogate.build_sparse_grid", "points"),
        "surrogate.eval_calls": len(evals),
        "surrogate.eval_points": count("surrogate.Surrogate.evaluate", "points"),
        "surrogate.eval_s": total("surrogate.Surrogate.evaluate"),
        "surrogate.single_calls": len(single),
        "surrogate.single_us": 1e6 * statistics.median(single) if single else 0.0,
        "surrogate.batch_points_per_s": (sum(s[5]["points"] for s in batch) / batch_s
                                         if batch_s > 0 else 0.0),
        "surrogate.serialize_s": total("surrogate.surrogate_to_json_dict")
        + total("surrogate.surrogate_from_json_dict"),
        "indices.coeff_s": total("indices.combination_coefficients"),
        "indices.members": count("indices.combination_coefficients", "members"),
        "knots.calls": len(named("knots.knots_for_level")),
        "knots.s": total("knots.knots_for_level"),
        "sobol.self_s": sum(self_time(s, children) for s in sobol_spans),
        "sobol.points": sum((s[5] or {}).get("points", 0) for s in evals
                            if _under(s, {"sobol.sobol_indices"}, by_id)),
        "inversion.map_s": total("inversion.find_map"),
        "inversion.map_evals": evals_under("inversion.find_map"),
        "inversion.map_starts": count("inversion.find_map", "starts"),
        "inversion.map_minima": count("inversion.find_map", "minima"),
        "inversion.laplace_s": total("inversion.laplace_covariance"),
        "inversion.laplace_evals": evals_under("inversion.laplace_covariance"),
        "inversion.profile_s": total("inversion.profile_likelihood"),
        "forward.kde_calls": len(named("forward.estimate_density")),
        "forward.kde_s": total("forward.estimate_density"),
        "forward.kde_kernel_evals": count("forward.estimate_density", "kernel_evals"),
        "forward.sample_s": total("forward.sample_posterior"),
        "forward.samples": count("forward.sample_posterior", "samples"),
        "forward.propagate_s": total("forward.propagate"),
        "models.batches": len(models),
        "models.solver_s": sum(s[4] - s[3] for s in models),
        "cli.self_s": sum(self_time(s, children) for name in STAGES for s in named(name)),
        "cli.output_bytes": output_bytes,
    }


def solver_rows(spans) -> int:
    return sum((s[5] or {}).get("rows", 0) for s in spans
               if s[2] in ("models.BuiltinModel.evaluate", "models.ExternalModel.evaluate"))


def stage_times(spans) -> dict:
    out = {}
    for s in spans:
        if s[2] in STAGES:
            key = s[2][len("cli.run_"):]
            out[key] = out.get(key, 0.0) + s[4] - s[3]
    return out
