"""Spans around public adoptnet functions, recorded from outside the package.

`Tracer.install()` looks up every name in TARGETS and replaces each
reference to it inside the loaded `adoptnet` modules with a timing wrapper;
`Tracer.restore()` puts the originals back.  A name that no longer exists is
listed in `Tracer.absent` and skipped, so a refactor that deletes a function
makes its metrics read as absent instead of breaking the benchmark.

A span is (name, start, end, parent, run id, info): `parent` is the index of
the enclosing span or -1, and `info` holds the counts read off the call's
arguments and result (solver iterations, bytes parsed, precision-recall
points...).

Run as a script this file is the traced command process:

    python3 bench/spans.py SPANS_JSON RUN_ID <adoptnet cli arguments>

It imports adoptnet, installs the tracer, runs `adoptnet.cli.main` and
writes the spans plus the import time to SPANS_JSON.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from typing import Any, Callable, NamedTuple

# (layer, module, public attribute path); a layer may own several functions.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("data.parse", "adoptnet.data", "load_network_edge_list"),
    ("data.parse", "adoptnet.data", "load_adoptions"),
    ("model.terms", "adoptnet.model", "training_terms"),
    ("model.obj", "adoptnet.model", "objective_value"),
    ("model.grad", "adoptnet.model", "objective_gradient"),
    ("solver.mle", "adoptnet.solver", "fit_mle"),
    ("solver.reg", "adoptnet.solver", "fit_regression"),
    ("predict", "adoptnet.predict", "score_app"),
    ("predict", "adoptnet.predict", "score_future"),
    ("predict", "adoptnet.predict", "score_transfer"),
    ("predict", "adoptnet.predict", "regression_scores"),
    ("predict.csv", "adoptnet.predict", "PredictionSheet.csv_rows"),
    ("metrics", "adoptnet.metrics", "evaluate_sheets"),
    ("experiments.run", "adoptnet.experiments", "run_experiment"),
    ("experiments.serialize", "adoptnet.experiments", "ExperimentReport.to_json"),
    ("experiments.serialize", "adoptnet.experiments", "ExperimentReport.csv_rows"),
    ("cli", "adoptnet.cli", "main"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    run_id: str
    info: dict


def _fit_info(args: tuple, kwargs: dict, result: Any) -> dict:
    """Solver work and stopping state of one fit_mle call."""
    fit = result[1]
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    if cfg is None:
        from adoptnet.solver import FitConfig

        cfg = FitConfig()
    return {
        "iters": int(fit.iterations),
        "pg_norm": float(fit.grad_norm),
        "over_tol": bool(fit.grad_norm > cfg.grad_tol),
    }


def _parse_info(args: tuple, kwargs: dict, result: Any) -> dict:
    text = args[0] if args else kwargs.get("text")
    return {"bytes_in": len(text.encode()) if isinstance(text, str) else 0}


def _terms_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes_per_eval": 8 * math.prod(result.potentials.shape)}


def _metrics_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"pr_points": len(result.pr_points)}


INFO: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "load_network_edge_list": _parse_info,
    "load_adoptions": _parse_info,
    "training_terms": _terms_info,
    "fit_mle": _fit_info,
    "evaluate_sheets": _metrics_info,
}


class Tracer:
    """Installs span-recording wrappers; spans stay in memory until written."""

    def __init__(self, run_id: str, targets=TARGETS):
        self.run_id = run_id
        self.targets = targets
        self.spans: list[Span | None] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, run_id = self.spans, self._stack, self.run_id
        probe = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(layer, start, end, parent, run_id, {})
            if probe is not None:
                try:
                    spans[index].info.update(probe(args, kwargs, result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass  # the result changed shape: its counts read as absent
            return result

        return traced

    def install(self) -> None:
        for layer, module_name, path in self.targets:
            if any(part.startswith("_") for part in path.split(".")):
                raise ValueError(f"{module_name}.{path} is not a public name")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = None if owner is None else getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(layer, attr, original)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            # modules that did `from .x import name` hold their own reference
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "adoptnet" and not mod_name.startswith("adoptnet."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_args = argv
    start = time.perf_counter()
    import adoptnet.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(run_id)
    tracer.install()
    try:
        code = adoptnet.cli.main(cli_args)
    finally:
        tracer.restore()
    with open(spans_path, "w") as f:
        json.dump(
            {
                "import_s": import_s,
                "absent": tracer.absent,
                "spans": [s._asdict() for s in tracer.spans],
            },
            f,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
