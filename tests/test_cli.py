"""End-to-end command runs: artifacts, manifests, exit codes, reruns."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adoptnet.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

SYNTH_CFG = """
synth.num_users = 24
synth.num_context_users = 12
synth.num_apps = 16
synth.num_networks = 2
synth.edge_density = 0.2
synth.planted_net_weights = 0.6,0.3
synth.planted_pop_weight = 0.03
synth.pop_base_max = 5.0
synth.susceptibility_rate = 8.0
seed = 2
"""

FIT_KEYS = """
fit.grad_tol = 1e-4
"""


def run_dirs(outdir: Path) -> list[Path]:
    return sorted(p for p in outdir.iterdir() if p.is_dir())


@pytest.fixture()
def bundle(tmp_path):
    """A synth dataset written by the CLI itself plus a base config for it."""
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG + f"outdir = {tmp_path / 'synthout'}\n")
    assert main(["synth", str(cfg)]) == EXIT_OK
    [run_dir] = run_dirs(tmp_path / "synthout")
    base = (
        "num_users = 24\n"
        "num_apps = 16\n"
        f"adoptions.path = {run_dir / 'adoptions.csv'}\n"
        f"network.0.path = {run_dir / 'network0.csv'}\n"
        "network.0.symmetrize = max\n"
        f"network.1.path = {run_dir / 'network1.csv'}\n"
        "network.1.symmetrize = max\n"
        f"outdir = {tmp_path / 'runs'}\n"
        + FIT_KEYS
    )
    return tmp_path, run_dir, base


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSynthCommand:
    def test_bundle_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_CFG + f"outdir = {tmp_path / 'o'}\n")
        assert main(["synth", cfg]) == EXIT_OK
        [run_dir] = run_dirs(tmp_path / "o")
        names = sorted(p.name for p in run_dir.iterdir())
        # one file per network plus adoptions and planted params, plus manifest
        assert names == [
            "adoptions.csv", "manifest.json", "network0.csv", "network1.csv",
            "planted.json",
        ]
        planted = json.loads((run_dir / "planted.json").read_text())
        assert planted["params"]["alpha"] == [0.6, 0.3]
        assert planted["spec"]["num_users"] == 24

    @pytest.mark.parametrize("setting", ["synth.weight_max=nan", "synth.pop_base_max=inf",
                                         "synth.planted_net_weights=nan,0.3",
                                         "synth.susceptibility_rate=inf"])
    def test_non_finite_setting_exits_config(self, tmp_path, capsys, setting):
        cfg = write_cfg(tmp_path, SYNTH_CFG + f"outdir = {tmp_path / 'o'}\n")
        assert main(["synth", cfg, "--set", setting]) == EXIT_CONFIG
        name = setting.split("=")[0].split(".")[1]
        assert f"synth.*: {name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_deterministic_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path, SYNTH_CFG + f"outdir = {tmp_path / 'o'}\n")
        assert main(["synth", cfg]) == EXIT_OK
        [first] = run_dirs(tmp_path / "o")
        before = {p.name: p.read_bytes() for p in first.iterdir()}
        assert main(["synth", cfg]) == EXIT_OK
        [again] = run_dirs(tmp_path / "o")
        assert again == first
        after = {p.name: p.read_bytes() for p in again.iterdir()}
        assert before == after


class TestValidateCommand:
    def test_ok(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["validate", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config ok: 2 network(s)" in out

    def test_typo_exits_config(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base + "sede = 3\n")
        assert main(["validate", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "did you mean 'seed'" in err

    def test_missing_data_file_exits_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "adoptions.path = gone.csv\n")
        assert main(["validate", cfg]) == EXIT_CONFIG
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["fit.grad_tol=nan", "fit.max_iters=0"])
    def test_bad_fit_setting_exits_config(self, bundle, capsys, setting):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["validate", cfg, "--set", setting]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "fit.*:" in captured.err
        assert "config ok" not in captured.out

    def test_bad_experiment_setting_exits_config(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base + "protocol = ablation\nexperiment.repeats = 0\n")
        assert main(["validate", cfg]) == EXIT_CONFIG
        assert "experiment.*: repeats must be at least 1" in capsys.readouterr().err
        # without a protocol the experiment.* keys are not an experiment yet
        cfg = write_cfg(tmp_path, base + "experiment.repeats = 0\n")
        assert main(["validate", cfg]) == EXIT_OK


    def test_bad_synth_setting_exits_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "synth.num_users = 20\nsynth.num_context_users = 30\n")
        assert main(["validate", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "synth.*: need at least one context and one target user" in captured.err
        assert "config ok" not in captured.out

    @pytest.mark.parametrize("key", ["train.apps", "predict.apps"])
    def test_app_out_of_range_exits_config(self, bundle, capsys, key):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["validate", cfg, "--set", f"{key}=0,999"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{key}: app id out of range 0..15" in captured.err
        assert "config ok" not in captured.out
        # train rejects the same setting with the same message
        if key == "train.apps":
            assert main(["train", cfg, "--set", f"{key}=0,999"]) == EXIT_CONFIG
            assert f"{key}: app id out of range 0..15" in capsys.readouterr().err

    def test_params_file_is_parsed(self, bundle, capsys):
        tmp_path, data_dir, base = bundle
        cfg = write_cfg(tmp_path, base)
        bad = f"predict.params={data_dir / 'adoptions.csv'}"
        assert main(["validate", cfg, "--set", bad]) == EXIT_CONFIG
        assert "predict.params:" in capsys.readouterr().err
        params = tmp_path / "planted.json"
        planted = json.loads((data_dir / "planted.json").read_text())["params"]
        params.write_text(json.dumps(planted))
        assert main(["validate", cfg, "--set", f"predict.params={params}"]) == EXIT_OK
        assert "config ok: 2 network(s)" in capsys.readouterr().out

    def test_params_counts_checked_against_data(self, bundle, capsys):
        tmp_path, data_dir, base = bundle
        params = tmp_path / "planted.json"
        planted = json.loads((data_dir / "planted.json").read_text())["params"]
        params.write_text(json.dumps(planted))
        one_net = "".join(line + "\n" for line in base.splitlines()
                          if not line.startswith("network.1."))
        cfg = write_cfg(tmp_path, one_net + f"predict.params = {params}\n")
        assert main(["validate", cfg]) == EXIT_CONFIG
        assert "predict.params: network count does not match" in capsys.readouterr().err
        params.write_text(json.dumps({**planted, "s": planted["s"][:9]}))
        cfg = write_cfg(tmp_path, base + f"predict.params = {params}\n")
        assert main(["validate", cfg]) == EXIT_CONFIG
        assert "predict.params: user count does not match" in capsys.readouterr().err
        # predict rejects it with the same message
        assert main(["predict", cfg]) == EXIT_CONFIG
        assert "predict.params: user count does not match" in capsys.readouterr().err


class TestTrainCommand:
    def test_artifacts_and_manifest(self, bundle, capsys):
        tmp_path, data_dir, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["train", cfg]) == EXIT_OK
        [run_dir] = run_dirs(tmp_path / "runs")
        params = json.loads((run_dir / "params.json").read_text())
        assert set(params) == {"alpha", "alpha_pop", "s", "constrained"}
        assert len(params["alpha"]) == 2
        assert len(params["s"]) == 24
        convergence = json.loads((run_dir / "convergence.json").read_text())
        assert convergence["converged"] is True
        assert convergence["stop_reason"] == "grad_tol"
        assert convergence["objective_evals"] >= convergence["iterations"] + 1
        assert convergence["gradient_evals"] == convergence["iterations"] + 1
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["run_id"] == run_dir.name
        assert sorted(manifest["outputs"]) == ["convergence.json", "params.json"]
        hashes = manifest["inputs"]
        assert set(hashes) == {"adoptions.path", "network.0.path", "network.1.path"}
        for entry in hashes.values():
            assert len(entry["sha256"]) == 64
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "stop_reason=grad_tol" in out
        assert f"objective_evals={convergence['objective_evals']}" in out

    def test_rerun_is_byte_identical(self, bundle):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["train", cfg]) == EXIT_OK
        [run_dir] = run_dirs(tmp_path / "runs")
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert main(["train", cfg]) == EXIT_OK
        assert run_dirs(tmp_path / "runs") == [run_dir]
        after = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert before == after

    def test_override_changes_run_id(self, bundle):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["train", cfg]) == EXIT_OK
        assert main(["train", cfg, "--set", "train.apps=0,1,2,3,4,5,6,7"]) == EXIT_OK
        assert len(run_dirs(tmp_path / "runs")) == 2

    @pytest.mark.parametrize("setting", ["fit.grad_tol=nan", "fit.grad_tol=inf",
                                         "fit.init_susceptibility=nan"])
    def test_non_finite_fit_setting_exits_config(self, bundle, capsys, setting):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["train", cfg, "--set", setting]) == EXIT_CONFIG
        assert "fit.*:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_removed_fit_keys_exit_config(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base + "fit.obj_tol = 1e-7\nfit.seed = 3\n")
        assert main(["train", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown key 'fit.obj_tol'" in err and "unknown key 'fit.seed'" in err


class TestPredictCommand:
    def test_scores_from_trained_params(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["train", cfg]) == EXIT_OK
        [train_dir] = run_dirs(tmp_path / "runs")
        cfg2 = write_cfg(
            tmp_path,
            base + f"predict.params = {train_dir / 'params.json'}\n"
            "predict.apps = 0,3\n",
            name="predict.cfg",
        )
        assert main(["predict", cfg2]) == EXIT_OK
        capsys.readouterr()
        sheets = None
        for d in run_dirs(tmp_path / "runs"):
            if (d / "sheets.csv").exists():
                sheets = (d / "sheets.csv").read_text().splitlines()
        assert sheets is not None
        assert sheets[0] == "app_id,user_id,score,evaluated"
        body = [line.split(",") for line in sheets[1:]]
        assert len(body) == 2 * 24
        assert {row[0] for row in body} == {"0", "3"}
        for row in body:
            assert 0.0 <= float(row[2]) <= 1.0
            assert row[3] == "1"

    def test_user_count_mismatch_exits_config(self, bundle, capsys):
        tmp_path, _, base = bundle
        params = tmp_path / "p.json"
        params.write_text(json.dumps(
            {"alpha": [0.1, 0.1], "alpha_pop": 0.0, "s": [0.1] * 9,
             "constrained": True}))
        cfg = write_cfg(tmp_path, base + f"predict.params = {params}\n")
        assert main(["predict", cfg]) == EXIT_CONFIG
        assert "user count" in capsys.readouterr().err


class TestExperimentCommand:
    def test_reports_written_and_rerun_identical(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(
            tmp_path,
            base + "protocol = ablation\nexperiment.folds = 2\n"
            "experiment.repeats = 1\n",
        )
        assert main(["experiment", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "full:" in out and "optimal_f1=" in out
        [run_dir] = run_dirs(tmp_path / "runs")
        report = json.loads((run_dir / "report.json").read_text())
        assert report["protocol"] == "ablation"
        assert (run_dir / "report.csv").read_text().startswith(
            "protocol,config,repeat,metric,value")
        summary = (run_dir / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("config,")
        assert len(summary) == 1 + 5  # header plus one row per configuration
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert main(["experiment", cfg]) == EXIT_OK
        after = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert before == after

    def test_report_size_independent_of_users(self, tmp_path, capsys):
        """Every repeat's PR curve has the 101 grid points at both sizes."""
        for users in (30, 60):
            synth = write_cfg(
                tmp_path,
                f"synth.num_users = {users}\nsynth.num_context_users = {users // 2}\n"
                "synth.num_apps = 20\nsynth.num_networks = 2\n"
                "synth.edge_density = 0.15\nsynth.planted_net_weights = 0.6,0.3\n"
                "synth.planted_pop_weight = 0.02\nsynth.pop_base_max = 6.0\n"
                "synth.susceptibility_rate = 10.0\nseed = 9\n"
                f"outdir = {tmp_path / f'data{users}'}\n",
                name=f"synth{users}.cfg",
            )
            assert main(["synth", synth]) == EXIT_OK
            [data] = run_dirs(tmp_path / f"data{users}")
            cfg = write_cfg(
                tmp_path,
                f"num_users = {users}\nnum_apps = 20\n"
                f"adoptions.path = {data / 'adoptions.csv'}\n"
                f"network.0.path = {data / 'network0.csv'}\n"
                "network.0.symmetrize = max\n"
                f"network.1.path = {data / 'network1.csv'}\n"
                "network.1.symmetrize = max\n"
                "protocol = comparison\nexperiment.repeats = 1\n"
                "experiment.min_users = 3\n"
                f"outdir = {tmp_path / f'runs{users}'}\n" + FIT_KEYS,
                name=f"run{users}.cfg",
            )
            assert main(["experiment", cfg]) == EXIT_OK
            capsys.readouterr()
            [run_dir] = run_dirs(tmp_path / f"runs{users}")
            report = json.loads((run_dir / "report.json").read_text())
            assert report["protocol"] == "comparison"
            means = {}
            for series in report["series"]:
                for rep in series["repeats"]:
                    assert len(rep["pr_points"]) == 101
                    assert [r for _, _, r in rep["pr_points"]] == [
                        i / 100 for i in range(101)]
                means.update({(series["name"], m): v for m, v in series["mean"].items()})
            rows = (run_dir / "report.csv").read_text().splitlines()[1:]
            csv_means = {
                (config, metric): float(value)
                for _, config, repeat, metric, value in (r.split(",") for r in rows)
                if repeat == "mean"
            }
            assert csv_means == means

    def test_comparison_run_leaves_numpy_ma_unloaded(self, bundle):
        """The leak guard and the metrics stay off numpy.ma (about 15 ms to import)."""
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base + "protocol = comparison\nexperiment.repeats = 1\n"
                        "experiment.min_users = 3\n")
        script = (
            "import sys\n"
            "from adoptnet.cli import main\n"
            f"assert main(['experiment', {cfg!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "False"

    def test_manifest_has_no_jobs_field(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(
            tmp_path,
            base + "protocol = ablation\nexperiment.folds = 2\n"
            "experiment.repeats = 1\n",
        )
        assert main(["experiment", cfg]) == EXIT_OK
        capsys.readouterr()
        [run_dir] = run_dirs(tmp_path / "runs")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "experiment"
        assert "jobs" not in manifest

    def test_missing_timestamps_exit_runtime(self, bundle, capsys):
        tmp_path, data_dir, base = bundle
        # strip the timestamp column off the adoption file
        plain = tmp_path / "plain.csv"
        lines = (data_dir / "adoptions.csv").read_text().splitlines()
        plain.write_text(
            "\n".join(",".join(line.split(",")[:2]) for line in lines) + "\n")
        cfg = write_cfg(
            tmp_path,
            base.replace(str(data_dir / "adoptions.csv"), str(plain))
            + "protocol = future\nexperiment.folds = 2\nexperiment.repeats = 1\n",
        )
        assert main(["experiment", cfg]) == EXIT_RUNTIME
        assert "timestamps" in capsys.readouterr().err


class TestStatsCommand:
    def test_prints_and_writes(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        assert main(["stats", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        stats = json.loads(out[: out.rindex("}") + 1])
        assert stats["num_users"] == 24
        found = any(
            (d / "stats.json").exists() for d in run_dirs(tmp_path / "runs"))
        assert found


class TestArgumentHandling:
    def test_jobs_flag_exits_via_argparse(self, bundle, capsys):
        tmp_path, _, base = bundle
        cfg = write_cfg(tmp_path, base)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", cfg, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_unknown_command_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x.cfg"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_missing_config_file_exits_config(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "none.cfg")]) == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err
