"""Flat config parsing, schema diagnostics, and object builders."""
from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from adoptnet import config
from adoptnet.config import (
    FIT_VARIANTS,
    SCALAR_KEYS,
    ConfigError,
    RunConfig,
    apply_overrides,
    load_config,
    parse_config_text,
)
from adoptnet.data import adoption_lines, network_edge_lines
from adoptnet.experiments import PROTOCOLS, ExperimentSpec
from adoptnet.solver import FitConfig
from adoptnet.synth import SynthSpec, generate

# a value for every fit.*, experiment.* and synth.* key, none of them the default
SECTION_VALUES = {
    "fit.max_iters": ("7", 7),
    "fit.grad_tol": ("1e-3", 1e-3),
    "fit.init_net_weight": ("0.3", 0.3),
    "fit.init_susceptibility": ("0.2", 0.2),
    "fit.variant": ("network_only_allow_negative", "network_only_allow_negative"),
    "experiment.train_fraction": ("0.4", 0.4),
    "experiment.folds": ("3", 3),
    "experiment.min_users": ("4", 4),
    "experiment.repeats": ("2", 2),
    "experiment.user_subset": ("low_activity", "low_activity"),
    "experiment.observable_fraction": ("0.3", 0.3),
    "experiment.mp_k": ("7", 7),
    "synth.num_users": ("30", 30),
    "synth.num_context_users": ("10", 10),
    "synth.num_apps": ("12", 12),
    "synth.num_networks": ("2", 2),
    "synth.edge_density": ("0.1,0.2", (0.1, 0.2)),
    "synth.weight_dist": ("unit", "unit"),
    "synth.weight_max": ("2.0", 2.0),
    "synth.planted_net_weights": ("0.4,0.2", (0.4, 0.2)),
    "synth.planted_pop_weight": ("0.01", 0.01),
    "synth.susceptibility_rate": ("10", 10.0),
    "synth.pop_base_max": ("3", 3.0),
}

# the fit.*, experiment.* and synth.* keys with their type tags, written out:
# the spec fields define these keys, so a field that is added, renamed or
# retyped fails here and its key shows up as a diff of this table
REFERENCE_SECTION_KEYS = {
    "experiment.train_fraction": "float",
    "experiment.folds": "int",
    "experiment.min_users": "int",
    "experiment.repeats": "int",
    "experiment.user_subset": "choice:all|low_activity",
    "experiment.observable_fraction": "float",
    "experiment.mp_k": "int",
    "fit.max_iters": "int",
    "fit.grad_tol": "float",
    "fit.init_net_weight": "float",
    "fit.init_susceptibility": "float",
    "fit.variant": "choice:full|no_exogenous|individual_only|network_only"
                   "|network_only_allow_negative",
    "synth.num_users": "int",
    "synth.num_context_users": "int",
    "synth.num_apps": "int",
    "synth.num_networks": "int",
    "synth.edge_density": "floats",
    "synth.weight_dist": "choice:unit|uniform",
    "synth.weight_max": "float",
    "synth.planted_net_weights": "floats",
    "synth.planted_pop_weight": "float",
    "synth.susceptibility_rate": "float",
    "synth.pop_base_max": "float",
}
SECTION_SPECS = {"fit": FitConfig, "experiment": ExperimentSpec, "synth": SynthSpec}
# spec fields that top-level keys set (seed, protocol) or that another section
# fills (fit)
NOT_SECTION_KEYS = ("seed", "protocol", "fit")
README = Path(__file__).resolve().parents[1] / "README.md"


class TestParseConfigText:
    def test_basic_lines(self):
        text = """
        # a comment
        num_users = 10

        seed=3   # trailing comment
        """
        assert parse_config_text(text) == {"num_users": "10", "seed": "3"}

    def test_glued_hash_stays_in_the_value(self):
        # only a `#` at the start of a line or after whitespace starts a comment
        text = "adoptions.path = runs/#3/adoptions.csv\noutdir = out#1\nseed = 1 # note\n"
        entries = parse_config_text(text)
        assert entries == {"adoptions.path": "runs/#3/adoptions.csv", "outdir": "out#1",
                           "seed": "1"}
        cfg = RunConfig(entries=entries, base_dir=Path("/base"))
        assert cfg.outdir == Path("/base/out#1")
        assert cfg.resolve_path("adoptions.path") == Path("/base/runs/#3/adoptions.csv")
        assert cfg.seed == 1

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2", source="f.cfg")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=r"f\.cfg:2"):
            parse_config_text("a = 1\nbroken line", source="f.cfg")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("= 3")


class TestOverrides:
    def test_override_wins(self):
        merged = apply_overrides({"seed": "1"}, ["seed=2", "num_users = 7"])
        assert merged == {"seed": "2", "num_users": "7"}

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["seedless"])


class TestSchemaDiagnostics:
    def test_typo_suggestion(self):
        cfg = RunConfig(entries={"sede": "3"})
        [problem] = cfg.problems()
        assert "unknown key" in problem
        assert "did you mean 'seed'" in problem

    @pytest.mark.parametrize("key, top", [
        ("synth.seed", "seed"), ("fit.seed", "seed"), ("experiment.protocol", "protocol")])
    def test_top_level_key_under_a_prefix_suggests_that_key(self, key, top):
        [problem] = RunConfig(entries={key: "1"}).problems()
        assert problem == f"unknown key {key!r} (did you mean {top!r}?)"

    @pytest.mark.parametrize("key", ["fit.obj_tol", "fit.seed", "alpha"])
    def test_removed_fit_keys_are_unknown(self, key):
        cfg = RunConfig(entries={key: "1"})
        [problem] = cfg.problems()
        assert "unknown key" in problem and key in problem

    @pytest.mark.parametrize("key", ["fit.allow_negative_net_weights",
                                     "fit.fix_susceptibility_at_zero",
                                     "fit.fix_net_weights_at_zero",
                                     "experiment.use_popularity"])
    def test_removed_block_flags_fail_to_load(self, tmp_path, key):
        # fit.variant replaced the three block flags and the popularity
        # switch, and the hint names it
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = true\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        [problem] = exc.value.problems
        assert problem == f"unknown key {key!r} (did you mean 'fit.variant'?)"

    def test_unknown_fit_variant_lists_the_five(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("fit.variant = bogus\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.problems == [
            "fit.variant: expected one of full, no_exogenous, individual_only,"
            " network_only, network_only_allow_negative, got 'bogus'"]

    def test_zero_padded_network_index_is_unknown(self, tmp_path):
        (tmp_path / "calls.csv").write_text("0,1,1.0\n")
        cfg = RunConfig(entries={"network.0.path": "calls.csv",
                                 "network.00.name": "proximity"},
                        base_dir=tmp_path)
        [problem] = cfg.problems()
        assert "unknown key 'network.00.name'" in problem
        assert "did you mean 'network.0.name'" in problem

    def test_network_key_typo_suggestion(self):
        cfg = RunConfig(entries={"network.0.pth": "x.csv"})
        problems = cfg.problems()
        assert any("network.0.path" in p for p in problems)

    def test_type_errors(self):
        cfg = RunConfig(entries={"num_users": "many"})
        [problem] = cfg.problems()
        assert "cannot parse 'many' as int" in problem

    def test_choice_error_lists_options(self):
        cfg = RunConfig(entries={"protocol": "oracle"})
        [problem] = cfg.problems()
        assert "ablation" in problem and "transfer" in problem

    @pytest.mark.parametrize("key, value", [("num_users", "-3"), ("num_apps", "0")])
    def test_size_below_one_rejected(self, key, value):
        assert RunConfig(entries={key: value}).problems() == [f"{key}: must be at least 1"]
        assert RunConfig(entries={key: "1"}).problems() == []

    def test_network_indices_contiguous(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,1.0\n")
        cfg = RunConfig(entries={"network.1.path": "g.csv"}, base_dir=tmp_path)
        assert any("contiguous" in p for p in cfg.problems())

    def test_network_path_required(self):
        cfg = RunConfig(entries={"network.0.symmetrize": "max"})
        assert any("network.0.path: required" in p for p in cfg.problems())

    def test_missing_file_reported(self, tmp_path):
        cfg = RunConfig(entries={"adoptions.path": "nope.csv"}, base_dir=tmp_path)
        assert any("no such file" in p for p in cfg.problems())

    def test_check_raises_with_all_problems(self):
        cfg = RunConfig(entries={"aplha": "1", "num_users": "x"})
        with pytest.raises(ConfigError) as exc:
            cfg.check()
        assert len(exc.value.problems) == 2


class TestSchemaIsTheSpecs:
    def section_rows(self):
        return {k: t for k, t in SCALAR_KEYS.items() if k.split(".")[0] in SECTION_SPECS}

    def test_section_keys_are_the_spec_fields(self):
        fields = {
            f"{section}.{f.name}"
            for section, spec in SECTION_SPECS.items()
            for f in dataclasses.fields(spec)
            if f.name not in NOT_SECTION_KEYS
        }
        assert set(self.section_rows()) == fields

    def test_section_keys_match_the_reference_table(self):
        assert self.section_rows() == REFERENCE_SECTION_KEYS
        assert len(SCALAR_KEYS) == 9 + len(REFERENCE_SECTION_KEYS)

    def test_field_without_a_type_tag_fails_loudly(self, monkeypatch):
        @dataclasses.dataclass
        class Spec:
            label: str = "x"

        monkeypatch.setattr(config, "SynthSpec", Spec)
        with pytest.raises(TypeError, match=r"synth\.label: no config type for 'str'"):
            config._section_keys()

    def test_readme_protocol_table_lists_every_experiment_key(self):
        first_cells = [line.split("|")[1] for line in README.read_text().splitlines()
                       if line.startswith("| `experiment.")]
        listed = set(re.findall(r"`(experiment\.\w+)`", "".join(first_cells)))
        assert {k for k in SCALAR_KEYS if k.startswith("experiment.")} == listed

    def test_readme_lists_every_fit_variant(self):
        # the bullet list after the paragraph that introduces fit.variant
        listing = README.read_text().split("`fit.variant` picks", 1)[1].split("\n\n")[1]
        assert re.findall(r"^- `(\w+)`", listing, flags=re.M) == list(FIT_VARIANTS)


class TestGetters:
    def test_typed_defaults(self):
        cfg = RunConfig(entries={"seed": "4", "fit.grad_tol": "0.5"})
        assert cfg.get_int("seed") == 4
        assert cfg.get_int("missing", 7) == 7
        assert cfg.seed == 4

    def test_resolve_path_relative_and_absolute(self, tmp_path):
        cfg = RunConfig(entries={"adoptions.path": "d/a.csv",
                                 "predict.params": "/abs/p.json"},
                        base_dir=tmp_path)
        assert cfg.resolve_path("adoptions.path") == tmp_path / "d/a.csv"
        assert str(cfg.resolve_path("predict.params")) == "/abs/p.json"

    def test_require_lists_missing(self):
        cfg = RunConfig(entries={})
        with pytest.raises(ConfigError) as exc:
            cfg.require("num_users", "num_apps")
        assert len(exc.value.problems) == 2

    def test_outdir_default(self, tmp_path):
        cfg = RunConfig(entries={}, base_dir=tmp_path)
        assert cfg.outdir == tmp_path / "runs"


class TestBuilders:
    def write_bundle(self, tmp_path, num_users=12, num_apps=8):
        spec = SynthSpec(
            num_users=num_users, num_context_users=num_users // 2,
            num_apps=num_apps, num_networks=2, edge_density=0.2,
            planted_net_weights=(0.5, 0.3), planted_pop_weight=0.02,
            pop_base_max=5.0, susceptibility_rate=8.0, seed=3,
        )
        stack, teacher = generate(spec)
        for m, g in enumerate(stack.networks):
            (tmp_path / f"net{m}.csv").write_text(
                "\n".join(network_edge_lines(g)) + "\n")
        (tmp_path / "adopt.csv").write_text(
            "\n".join(adoption_lines(teacher.adoptions)) + "\n")
        return stack, teacher

    def config(self, tmp_path, extra=""):
        text = (
            "num_users = 12\n"
            "num_apps = 8\n"
            "adoptions.path = adopt.csv\n"
            "network.0.path = net0.csv\n"
            "network.0.symmetrize = max\n"
            "network.1.path = net1.csv\n"
            "network.1.symmetrize = max\n"
            + extra
        )
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_build_dataset_round_trips(self, tmp_path):
        stack, teacher = self.write_bundle(tmp_path)
        cfg = load_config(self.config(tmp_path))
        data = cfg.build_dataset()
        assert data.networks.num_networks == 2
        for got, want in zip(data.networks.networks, stack.networks):
            np.testing.assert_allclose(got.weights, want.weights, atol=1e-12)
        np.testing.assert_array_equal(
            data.adoptions.installed, teacher.adoptions.installed)

    def test_network_names_default_to_stem(self, tmp_path):
        self.write_bundle(tmp_path)
        cfg = load_config(self.config(tmp_path))
        nets = cfg.build_networks()
        assert [g.name for g in nets] == ["net0", "net1"]

    def test_fit_config_defaults_and_alias(self, tmp_path):
        self.write_bundle(tmp_path)
        cfg = load_config(self.config(tmp_path, "fit.init_net_weight = 0.25\n"))
        fc = cfg.fit_config()
        assert fc.init_net_weight == 0.25
        assert fc.max_iters == 10_000
        assert fc.grad_tol == 1e-6

    def test_fit_config_invalid_value_wrapped(self):
        cfg = RunConfig(entries={"fit.max_iters": "0"})
        with pytest.raises(ConfigError, match="fit"):
            cfg.fit_config()

    @pytest.mark.parametrize("key", ["fit.grad_tol", "fit.init_susceptibility",
                                     "fit.init_net_weight"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_fit_config_non_finite_wrapped(self, key, text):
        cfg = RunConfig(entries={key: text})
        assert cfg.problems() == []
        with pytest.raises(ConfigError, match=r"fit\.\*: .*(grad_tol|init_)"):
            cfg.fit_config()
        spec_cfg = RunConfig(entries={key: text, "protocol": "comparison"})
        with pytest.raises(ConfigError, match=r"fit\.\*"):
            spec_cfg.experiment_spec()

    def test_experiment_spec_requires_protocol(self):
        cfg = RunConfig(entries={})
        with pytest.raises(ConfigError, match="protocol"):
            cfg.experiment_spec()

    def test_experiment_spec_maps_fields(self):
        cfg = RunConfig(entries={
            "protocol": "transfer",
            "experiment.folds": "3",
            "experiment.repeats": "2",
            "experiment.observable_fraction": "0.4",
            "seed": "11",
        })
        spec = cfg.experiment_spec()
        assert spec.protocol == "transfer"
        assert spec.folds == 3
        assert spec.repeats == 2
        assert spec.observable_fraction == 0.4
        assert spec.seed == 11

    def test_experiment_spec_invalid_wrapped(self):
        cfg = RunConfig(entries={"protocol": "ablation", "experiment.folds": "1"})
        with pytest.raises(ConfigError, match="experiment"):
            cfg.experiment_spec()

    def test_synth_spec_parsing(self):
        cfg = RunConfig(entries={
            "synth.num_users": "30",
            "synth.num_context_users": "15",
            "synth.num_apps": "10",
            "synth.num_networks": "2",
            "synth.edge_density": "0.1, 0.2",
            "synth.planted_net_weights": "0.5,0.25",
            "seed": "5",
        })
        spec = cfg.synth_spec()
        assert spec.num_users == 30
        assert spec.edge_density == (0.1, 0.2)
        assert spec.planted_net_weights == (0.5, 0.25)
        assert spec.seed == 5  # falls back to the top-level seed

    def test_synth_spec_scalar_density(self):
        cfg = RunConfig(entries={"synth.edge_density": "0.05",
                                 "synth.num_networks": "3",
                                 "synth.planted_net_weights": "0.5,0.3,0.2"})
        assert cfg.synth_spec().edge_density == (0.05, 0.05, 0.05)

    def test_synth_spec_one_network(self):
        cfg = RunConfig(entries={"synth.num_networks": "1",
                                 "synth.edge_density": "0.1",
                                 "synth.planted_net_weights": "0.5"})
        spec = cfg.synth_spec()
        assert spec.planted_net_weights == (0.5,)
        assert spec.edge_density == (0.1,)

    def test_synth_spec_invalid_wrapped(self):
        cfg = RunConfig(entries={"synth.num_networks": "2",
                                 "synth.planted_net_weights": "0.5"})
        with pytest.raises(ConfigError, match="synth"):
            cfg.synth_spec()

    def test_empty_config_builds_dataclass_defaults(self):
        cfg = RunConfig(entries={})
        assert cfg.fit_config() == FitConfig()
        assert cfg.synth_spec() == SynthSpec()
        for protocol in PROTOCOLS:
            spec = RunConfig(entries={"protocol": protocol}).experiment_spec()
            assert spec == ExperimentSpec(protocol=protocol)

    @pytest.mark.parametrize("split", ["experiment.folds", "experiment.train_fraction"])
    def test_every_section_key_builds(self, split):
        sections = ("fit.", "experiment.", "synth.")
        assert set(SECTION_VALUES) == {k for k in SCALAR_KEYS if k.startswith(sections)}
        # folds and train_fraction exclude each other, so each run drops one
        keys = [k for k in SECTION_VALUES if k != split]
        entries = {k: SECTION_VALUES[k][0] for k in keys}
        # fit.variant is a train setting, so it is built without a protocol
        trained = RunConfig(entries=entries)
        cfg = RunConfig(entries={**entries, "protocol": "ablation", "fit.variant": "full"})
        assert trained.problems() == [] and cfg.problems() == []
        built = {"fit": trained.fit_config(), "experiment": cfg.experiment_spec(),
                 "synth": cfg.synth_spec()}
        assert built["experiment"].fit == dataclasses.replace(built["fit"], variant="full")
        for key in keys:
            section, name = key.split(".", 1)
            assert getattr(built[section], name) == SECTION_VALUES[key][1], key

    def test_app_list(self):
        cfg = RunConfig(entries={"train.apps": "3,1,3,2"})
        assert cfg.app_list("train.apps", 10).tolist() == [1, 2, 3]
        assert RunConfig(entries={}).app_list("train.apps", 4).tolist() == [0, 1, 2, 3]

    def test_app_list_out_of_range(self):
        cfg = RunConfig(entries={"predict.apps": "0,9"})
        with pytest.raises(ConfigError, match="out of range"):
            cfg.app_list("predict.apps", 5)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_overrides_apply_before_check(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\n")
        cfg = load_config(path, overrides=["seed=9"])
        assert cfg.seed == 9

    def test_schema_checked_on_load(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("sede = 3\n")
        with pytest.raises(ConfigError, match="did you mean"):
            load_config(path)
