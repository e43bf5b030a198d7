"""The ownership rule of every array holder (data.frozen).

A holder copies an array its caller can still write to, and keeps an array
that is already read-only; either way its own array is read-only.  A
network's weights are the one exception: a writable matrix is taken over.
"""
from __future__ import annotations

import numpy as np
import pytest

from adoptnet import data
from adoptnet.cli import EXIT_OK, main
from adoptnet.data import AdoptionMatrix, CandidateNetwork, NetworkStack
from adoptnet.model import ModelParams
from adoptnet.predict import PredictionSheet
from adoptnet.solver import RegressionParams
from adoptnet.synth import TeacherData

NET = CandidateNetwork(num_users=2, weights=np.zeros((2, 2)))
INSTALLED = np.array([[True, False], [False, True]])
PARAMS = ModelParams(net_weights=np.array([0.5]), pop_weight=0.0, susceptibility=np.zeros(2))


def regression(net_coefs=np.array([0.5]), activity=np.array([1.0, 2.0])):
    return RegressionParams(net_coefs=net_coefs, pop_coef=0.0, activity_coef=0.0,
                            intercept=0.0, activity=activity)


def teacher(context=np.array([0]), target=np.array([1])):
    adoptions = AdoptionMatrix(num_users=2, num_apps=2, installed=INSTALLED)
    return TeacherData(adoptions=adoptions, context_users=context, target_users=target,
                       params=PARAMS)


# (field, a valid input, the holder built from it)
FIELDS = [
    ("AdoptionMatrix.installed", INSTALLED,
     lambda a: AdoptionMatrix(num_users=2, num_apps=2, installed=a)),
    ("AdoptionMatrix.install_times", np.array([[1.0, np.nan], [np.nan, 2.0]]),
     lambda a: AdoptionMatrix(num_users=2, num_apps=2, installed=INSTALLED, install_times=a)),
    ("NetworkStack.popularity", np.array([1.0, 2.0]),
     lambda a: NetworkStack(networks=(NET,), popularity=a)),
    ("ModelParams.net_weights", np.array([0.5, 0.25]),
     lambda a: ModelParams(net_weights=a, pop_weight=0.0, susceptibility=np.zeros(2))),
    ("ModelParams.susceptibility", np.array([0.0, 0.75]),
     lambda a: ModelParams(net_weights=np.ones(1), pop_weight=0.0, susceptibility=a)),
    ("RegressionParams.net_coefs", np.array([0.5]), lambda a: regression(net_coefs=a)),
    ("RegressionParams.activity", np.array([1.0, 2.0]), lambda a: regression(activity=a)),
    ("PredictionSheet.app_ids", np.array([3, 7]),
     lambda a: PredictionSheet(a, np.zeros((2, 2)))),
    ("PredictionSheet.scores", np.array([[0.5, 0.25], [0.0, 1.0]]),
     lambda a: PredictionSheet([0, 1], a)),
    ("PredictionSheet.evaluated", np.array([[True], [False]]),
     lambda a: PredictionSheet([0, 1], np.zeros((2, 2)), a)),
    ("TeacherData.context_users", np.array([0]), lambda a: teacher(context=a)),
    ("TeacherData.target_users", np.array([1]), lambda a: teacher(target=a)),
]


def held(holder, field: str) -> np.ndarray:
    """The array the holder took in: evaluated is held under a broadcast view."""
    value = getattr(holder, field.split(".")[1])
    return value.base if field == "PredictionSheet.evaluated" else value


@pytest.mark.parametrize("field, valid, build", FIELDS, ids=[f for f, _, _ in FIELDS])
def test_holder_copies_writable_and_keeps_read_only_input(field, valid, build):
    name = field.split(".")[1]
    assert type(build(valid)).__name__ == field.split(".")[0]

    mine = valid.copy()
    holder = build(mine)
    before = getattr(holder, name).copy()
    assert mine.flags.writeable
    mine.flat[0] = ~mine.flat[0] if mine.dtype == bool else mine.flat[0] + 1
    np.testing.assert_array_equal(getattr(holder, name), before)
    assert not getattr(holder, name).flags.writeable

    shared = valid.copy()
    shared.setflags(write=False)
    holder = build(shared)
    assert held(holder, field) is shared
    assert not getattr(holder, name).flags.writeable


@pytest.mark.parametrize("writable", [True, False])
def test_network_takes_its_weights_over(writable):
    # the one exception: a network freezes a writable matrix in place
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    w.setflags(write=writable)
    g = CandidateNetwork(num_users=2, weights=w)
    assert g.weights is w
    assert not w.flags.writeable


BUNDLE = """
synth.num_users = 30
synth.num_context_users = 15
synth.num_apps = 20
synth.num_networks = 2
synth.edge_density = 0.2
synth.planted_net_weights = 0.6,0.3
synth.planted_pop_weight = 0.03
synth.pop_base_max = 5.0
synth.susceptibility_rate = 8.0
seed = 3
"""


def test_blocks_are_handed_over_without_a_copy(tmp_path, monkeypatch):
    # a command hands its holders the blocks it builds read-only, so
    # data.frozen copies no users x apps block on either measured path
    (tmp_path / "synth.cfg").write_text(BUNDLE + f"outdir = {tmp_path / 'synth'}\n")
    assert main(["synth", str(tmp_path / "synth.cfg")]) == EXIT_OK
    [bundle] = (tmp_path / "synth").iterdir()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "num_users = 30\nnum_apps = 20\n"
        f"adoptions.path = {bundle / 'adoptions.csv'}\n"
        f"network.0.path = {bundle / 'network0.csv'}\n"
        f"network.1.path = {bundle / 'network1.csv'}\n"
        f"outdir = {tmp_path / 'runs'}\n"
        "fit.grad_tol = 1e-4\nexperiment.repeats = 1\n")
    assert main(["train", str(cfg)]) == EXIT_OK
    [train_dir] = (tmp_path / "runs").iterdir()

    copied = []
    real = data.frozen

    def counting(value, dtype, *, in_place=False):
        out = real(value, dtype, in_place=in_place)
        if isinstance(value, np.ndarray) and not np.may_share_memory(out, value):
            copied.append(value.shape)
        return out

    monkeypatch.setattr(data, "frozen", counting)
    assert main(["experiment", str(cfg), "--set", "protocol=comparison"]) == EXIT_OK
    assert main(["predict", str(cfg), "--set", f"predict.params={train_dir / 'params.json'}"]
                ) == EXIT_OK
    # every sheet here scores at least two apps, so a block has 2 * 30 cells or more
    assert copied and [s for s in copied if np.prod(s) >= 2 * 30] == []
