"""The package namespace: lazy public names and the specs' owning modules."""
from __future__ import annotations

import importlib
import json
import os
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
    from adoptnet import config, data, experiments, synth

    assert experiments.Dataset is data.Dataset
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
