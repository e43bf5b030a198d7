"""Command-line entry point: validate, train, predict, experiment, synth, stats.

Every command reads one flat config file (plus `--set key=value` overrides),
writes its artifacts under `<outdir>/<run-id>/` next to a manifest.json, and
is deterministic given the config and input bytes: the run id is a content
hash, nothing embeds a timestamp, so reruns are byte-identical.

Exit codes: 0 success, 2 configuration or data error, 3 runtime or protocol
error.

Each command imports only the modules it runs: experiments, predict, solver
and synth are imported inside the commands that call them, so `train` never
loads the protocol runners, the metrics or the generator, and `predict`,
`validate` and `stats` never load the solvers.

Every JSON artifact is encoded by data.artifact_json: sorted keys, no
whitespace.

The commands run BLAS on one thread: a multi-threaded product may sum in
another order and change the outputs' last bits.  This module sets the
thread variables before its first import that loads numpy, so they take
effect when it is the entry point; `import adoptnet` as a library sets
nothing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_threads] = "1"

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .data import (
    AdoptionMatrix,
    DataFormatError,
    Dataset,
    EmptyDataError,
    NetworkStack,
    adoption_lines,
    artifact_json,
    dataset_stats,
    frozen,
    network_edge_lines,
    popularity_counts,
)
from .model import ModelParams, SolverError, training_terms

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fail(problems: list[str], code: int) -> int:
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return code


def _input_hashes(cfg: RunConfig) -> dict[str, dict[str, str]]:
    out = {}
    for key, path in sorted(cfg.input_paths().items()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        out[key] = {"path": str(path), "sha256": digest}
    return out


def _emit(
    cfg: RunConfig, command: str, files: dict[str, bytes | tuple[bytes, ...]]
) -> Path:
    """Write artifacts plus manifest under a content-addressed run directory.

    A file given as a tuple of chunks is written chunk by chunk, in order,
    so a large file is never joined into one more copy.
    """
    inputs = _input_hashes(cfg)
    # the run id hashes this encoding, not the artifacts': it must not move
    payload = json.dumps(
        {"command": command, "config": sorted(cfg.entries.items()), "inputs": inputs},
        sort_keys=True,
    )
    run_id = hashlib.sha256(payload.encode()).hexdigest()[:12]
    run_dir = cfg.outdir / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(files):
        chunks = files[name]
        with open(run_dir / name, "wb") as f:
            f.writelines((chunks,) if isinstance(chunks, bytes) else chunks)
    manifest = {
        "run_id": run_id,
        "command": command,
        "version": __version__,
        "config": dict(sorted(cfg.entries.items())),
        "inputs": inputs,
        "root_seed": cfg.seed,
        "outputs": sorted(files),
    }
    (run_dir / "manifest.json").write_text(artifact_json(manifest) + "\n")
    return run_dir


# ---------------------------------------------------------------------------
# commands


def _load_params(
    cfg: RunConfig, num_users: int | None, num_networks: int | None
) -> ModelParams:
    """predict.params, checked against the data's user and network counts when known."""
    try:
        params = ModelParams.from_json(cfg.resolve_path("predict.params").read_text())
    except (OSError, ValueError) as e:
        raise ConfigError([f"predict.params: {e}"]) from e
    if num_users is not None and params.num_users != num_users:
        raise ConfigError(["predict.params: user count does not match the data"])
    if num_networks is not None and params.num_networks != num_networks:
        raise ConfigError(["predict.params: network count does not match the data"])
    return params


def cmd_validate(cfg: RunConfig) -> int:
    adoptions: AdoptionMatrix | None = None
    try:
        cfg.fit_config()
        if "protocol" in cfg.entries:
            cfg.experiment_spec()
        if any(key.startswith("synth.") for key in cfg.entries):
            cfg.synth_spec()
        if "num_apps" in cfg.entries:
            for key in ("train.apps", "predict.apps"):
                cfg.app_list(key, cfg.get_int("num_apps"))
        networks = cfg.build_networks() if cfg.network_indices() else ()
        if "adoptions.path" in cfg.entries:
            adoptions = cfg.build_adoptions()
        if networks and adoptions is not None:
            Dataset(networks=NetworkStack(networks=networks), adoptions=adoptions)
        if "predict.params" in cfg.entries:
            loaded = bool(networks) or adoptions is not None
            _load_params(
                cfg,
                cfg.get_int("num_users") if loaded else None,
                len(networks) if networks else None,
            )
    except ConfigError as e:
        return _fail(e.problems, EXIT_CONFIG)
    except (OSError, ValueError) as e:
        return _fail([str(e)], EXIT_CONFIG)
    print(f"config ok: {len(networks)} network(s)")
    if adoptions is None:
        print("no adoption file referenced")
    elif not adoptions.installed.any():
        print("adoptions: no installs recorded")
    else:
        print(dataset_stats(adoptions).to_json())
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    from .solver import fit_mle

    fit_cfg = cfg.fit_config()
    data = cfg.build_dataset()
    pop = popularity_counts(data.adoptions) if cfg.use_popularity else None
    stack = NetworkStack(networks=data.networks.networks, popularity=pop)
    apps = cfg.app_list("train.apps", data.adoptions.num_apps)
    params, result = fit_mle(training_terms(stack, data.adoptions, apps), cfg=fit_cfg)
    run_dir = _emit(
        cfg,
        "train",
        {
            "params.json": (params.to_json() + "\n").encode(),
            "convergence.json": (result.to_json() + "\n").encode(),
        },
    )
    print(
        f"iterations={result.iterations} converged={result.converged}"
        f" stop_reason={result.stop_reason} grad_norm={result.grad_norm!r}"
        f" objective_evals={result.objective_evals}"
        f" gradient_evals={result.gradient_evals}"
        f" objective={result.final_objective!r}"
    )
    print(f"wrote {run_dir}")
    return EXIT_OK


def cmd_predict(cfg: RunConfig) -> int:
    from .predict import PredictionSheet, score_matrix

    cfg.require("predict.params")
    data = cfg.build_dataset()
    params = _load_params(cfg, data.adoptions.num_users, data.networks.num_networks)
    apps = cfg.app_list("predict.apps", data.adoptions.num_apps)
    # the fitted pop_weight is the popularity switch: a fit without the
    # channel has pop_weight 0.0, and the counts then add nothing
    popularity = popularity_counts(data.adoptions)[apps]
    evidence = data.adoptions.installed[:, apps]
    scores = frozen(score_matrix(params, data.networks, evidence, popularity), float, in_place=True)
    sheet = PredictionSheet(apps, scores)
    sheets = (b"app_id,user_id,score,evaluated\n", *sheet.csv_rows())
    run_dir = _emit(cfg, "predict", {"sheets.csv": sheets})
    print(f"scored {apps.size} app(s)")
    print(f"wrote {run_dir}")
    return EXIT_OK


def cmd_experiment(cfg: RunConfig) -> int:
    from .experiments import LeakError, run_experiment

    spec = cfg.experiment_spec()
    data = cfg.build_dataset()
    try:
        report = run_experiment(data, spec)
    except LeakError as e:
        return _fail([str(e)], EXIT_RUNTIME)
    run_dir = _emit(cfg, "experiment", report.files())
    for s in report.series:
        mean = s.mean_metrics()
        shown = {
            k: v
            for k, v in mean.items()
            if k == "rmse" or k.startswith("mp@") or k == "optimal_f1"
        }
        print(s.name + ": " + " ".join(f"{k}={v:.4f}" for k, v in shown.items()))
    print(f"wrote {run_dir}")
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    from .synth import gen_networks, planted_params, sample_adoptions_teacher

    spec = cfg.synth_spec()
    stack = gen_networks(spec)
    params = planted_params(spec)
    teacher = sample_adoptions_teacher(stack, params, spec)
    files = {
        f"network{m}.csv": "\n".join(network_edge_lines(g)) + "\n"
        for m, g in enumerate(stack.networks)
    }
    files["adoptions.csv"] = "\n".join(adoption_lines(teacher.adoptions)) + "\n"
    files["planted.json"] = (
        artifact_json({"spec": asdict(spec), "params": params.to_dict()}) + "\n"
    )
    run_dir = _emit(cfg, "synth", {name: text.encode() for name, text in files.items()})
    print(f"wrote {len(files)} dataset file(s) to {run_dir}")
    return EXIT_OK


def cmd_stats(cfg: RunConfig) -> int:
    text = dataset_stats(cfg.build_adoptions()).to_json()
    run_dir = _emit(cfg, "stats", {"stats.json": (text + "\n").encode()})
    print(text)
    print(f"wrote {run_dir}")
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "train": cmd_train,
    "predict": cmd_predict,
    "experiment": cmd_experiment,
    "synth": cmd_synth,
    "stats": cmd_stats,
}

HELP = {
    "validate": "check config schema and load every referenced data file",
    "train": "fit the composite-network model, write params + convergence",
    "predict": "score apps with previously fitted parameters",
    "experiment": "run an evaluation protocol and write its reports",
    "synth": "generate a synthetic dataset bundle with planted parameters",
    "stats": "print adoption-count statistics for a dataset",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adoptnet",
        description="composite social-network adoption model runner",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler_help in HELP.items():
        p = sub.add_parser(name, help=handler_help)
        p.add_argument("config", type=Path, help="flat key=value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override one config entry (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
    except ConfigError as e:
        return _fail(e.problems, EXIT_CONFIG)
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as e:
        return _fail(e.problems, EXIT_CONFIG)
    except (DataFormatError, EmptyDataError, OSError) as e:
        return _fail([str(e)], EXIT_CONFIG)
    except (SolverError, FloatingPointError, ValueError, KeyError) as e:
        return _fail([str(e)], EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
