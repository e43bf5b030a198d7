"""The package namespace: lazy public names and the specs' owning modules."""
from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import adoptnet


@pytest.mark.parametrize("name", adoptnet.__all__)
def test_name_is_its_home_module_object(name):
    obj = getattr(adoptnet, name)
    home = obj.__module__
    assert home.startswith("adoptnet.")
    assert getattr(importlib.import_module(home), name) is obj


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from adoptnet import *", namespace)
    for name in adoptnet.__all__:
        assert namespace[name] is getattr(adoptnet, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        adoptnet.no_such_name


def test_dir_lists_public_names():
    assert set(adoptnet.__all__) <= set(dir(adoptnet))


def test_moved_names_import_from_their_old_modules():
    from adoptnet import config, data, experiments, model, solver, synth

    assert experiments.Dataset is data.Dataset
    assert solver.SolverError is model.SolverError
    assert solver.FitConfig is config.FitConfig
    assert experiments.ExperimentSpec is config.ExperimentSpec
    assert experiments.PROTOCOLS is config.PROTOCOLS
    assert experiments.USER_SUBSETS is config.USER_SUBSETS
    assert synth.SynthSpec is config.SynthSpec
    assert synth.WEIGHT_DISTS is config.WEIGHT_DISTS


def test_fresh_import_loads_no_submodule():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import json, sys, adoptnet\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'adoptnet')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == ["adoptnet"]


def test_reading_a_config_loads_only_the_data_module():
    # config owns the whole run schema, FitConfig included, so it needs no solver
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import json, sys, adoptnet.config\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'adoptnet')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == ["adoptnet", "adoptnet.config", "adoptnet.data"]


def test_the_command_line_module_loads_no_solver():
    # predict, validate and stats fit nothing; train and experiment import the
    # solver when they run, and SolverError is defined beside the objective
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import json, sys, adoptnet.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'adoptnet')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [
        "adoptnet", "adoptnet.cli", "adoptnet.config", "adoptnet.data", "adoptnet.model",
    ]


SRC = Path(__file__).resolve().parents[1] / "src" / "adoptnet"


def _sites(match) -> set[tuple[str, str | None]]:
    """(module, outermost function) of every AST node under src/adoptnet that ``match`` accepts."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner: dict[ast.AST, str] = {}
        for fn in ast.walk(tree):  # breadth first: outer functions come first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        found |= {(path.stem, owner.get(node)) for node in ast.walk(tree) if match(node)}
    return found


def _is_json_encoder(node: ast.AST) -> bool:
    """A `from json import ...` or a json.dump / json.dumps use."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "json"
    return (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
            and isinstance(node.value, ast.Name) and node.value.id == "json")


def test_json_is_encoded_in_one_place():
    # every artifact's format is decided by data.artifact_json; the run id
    # hashes its own, older encoding so that run ids do not move
    assert _sites(_is_json_encoder) == {("data", "artifact_json"), ("cli", "_emit")}


def test_readme_names_every_fit_key():
    from adoptnet.config import SCALAR_KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fit_keys = [key for key in SCALAR_KEYS if key.startswith("fit.")]
    assert fit_keys and [key for key in fit_keys if f"`{key}`" not in readme] == []


def test_readme_quotes_the_unknown_key_hints_the_config_gives():
    from adoptnet.config import RunConfig

    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    quoted = re.findall(r"unknown key '([^']+)' \(did you mean '([^']+)'\?\)", readme)
    assert len(quoted) >= 3
    for key, hint in quoted:
        want = f"unknown key {key!r} (did you mean {hint!r}?)"
        assert RunConfig(entries={key: "1"}).problems() == [want]


def test_readme_quick_start_runs_and_closes_its_files(tmp_path):
    # under -X dev -W error an unclosed file is reported on stderr
    from adoptnet.config import SynthSpec
    from adoptnet.data import adoption_lines, network_edge_lines
    from adoptnet.synth import generate

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library quick start")) + 10
    block = readme[start:readme.index("\n```", start)]
    users, apps = map(int, re.search(r"users, apps = (\d+), (\d+)", block).groups())
    stack, teacher = generate(SynthSpec(num_users=users, num_context_users=users // 2,
                                        num_apps=apps, num_networks=2, edge_density=0.02,
                                        planted_net_weights=(0.5, 0.2), seed=4))
    for name, g in zip(("calls.csv", "prox.csv"), stack.networks):
        (tmp_path / name).write_text("\n".join(network_edge_lines(g)) + "\n")
    (tmp_path / "installs.csv").write_text("\n".join(adoption_lines(teacher.adoptions)) + "\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", block],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout.count("\n") == 2 and "calls" in run.stdout


def test_arrays_are_frozen_in_one_place():
    # every holder takes its arrays through data.frozen, the one place that
    # decides between copying an array and keeping it
    setflags = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "setflags")
    assert setflags == {("data", "frozen")}


# The benchmark wraps and imports adoptnet names from outside the package; a
# refactor that renames one silently blanks a traced layer (spans.py lists it
# as absent) or breaks the run.  The three scorers were deleted when scoring
# became one batched path; bench/spans.py still names them.
BENCH = Path(__file__).resolve().parents[1] / "bench"
DELETED_SCORERS = {
    ("adoptnet.predict", "score_app"),
    ("adoptnet.predict", "score_future"),
    ("adoptnet.predict", "score_transfer"),
}


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _bench_targets():
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(name, "id", None) == "TARGETS" for name in names):
                return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TARGETS")


def _bench_imports():
    """(module, name) for every adoptnet import in bench/run.py, code strings included."""
    found = set()
    trees = [ast.parse((BENCH / "run.py").read_text())]
    while trees:
        for node in ast.walk(trees.pop()):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("adoptnet"):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names
                             if alias.name.startswith("adoptnet"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"adoptnet(\.\w+)*", node.value):
                    found.add((node.value, None))  # `python -m adoptnet.cli`
                elif re.search(r"^(from|import) adoptnet", node.value, re.MULTILINE):
                    trees.append(ast.parse(node.value))  # a script run with -c
    return found


def test_bench_trace_targets_resolve():
    targets = _bench_targets()
    assert len(targets) > len(DELETED_SCORERS)
    for _, module, path in targets:
        if (module, path) in DELETED_SCORERS:
            continue
        assert callable(_resolve(module, path)), f"{module}.{path}"


def test_bench_imports_resolve():
    imports = _bench_imports()
    assert ("adoptnet.model", "log_likelihood_gradient") in imports
    assert ("adoptnet.config", "load_config") in imports
    for module, name in imports:
        if name is None:
            importlib.import_module(module)
        else:
            _resolve(module, name)
