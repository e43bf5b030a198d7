"""Flat key-value run configuration: parsing, schema checks, object builders.

The file format is one `key = value` per line with `#` comments.  Keys are
dotted and flat (no sections); relative paths resolve against the config
file's directory.  Unknown keys are rejected with a close-match suggestion
so typos fail loudly instead of silently using a default.
"""
from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    NORMALIZE_MODES,
    SYMMETRIZE_MODES,
    AdoptionMatrix,
    CandidateNetwork,
    NetworkStack,
    load_adoptions,
    load_network_edge_list,
    normalize_network,
)
from .experiments import PROTOCOLS, USER_SUBSETS, Dataset, ExperimentSpec
from .solver import FitConfig
from .synth import WEIGHT_DISTS, SynthSpec


class ConfigError(ValueError):
    """One or more configuration problems; ``problems`` has one message each."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# key -> type tag (int, float, bool, str, path, apps, floats, choice:a|b|c)
SCALAR_KEYS: dict[str, str] = {
    "num_users": "int",
    "num_apps": "int",
    "adoptions.path": "path",
    "outdir": "str",
    "seed": "int",
    "protocol": "choice:" + "|".join(PROTOCOLS),
    "experiment.train_fraction": "float",
    "experiment.folds": "int",
    "experiment.min_users": "int",
    "experiment.repeats": "int",
    "experiment.user_subset": "choice:" + "|".join(USER_SUBSETS),
    "experiment.observable_fraction": "float",
    "experiment.mp_k": "int",
    "experiment.use_popularity": "bool",
    "fit.max_iters": "int",
    "fit.grad_tol": "float",
    "fit.init_net_weight": "float",
    "fit.init_susceptibility": "float",
    "fit.allow_negative_net_weights": "bool",
    "fit.fix_susceptibility_at_zero": "bool",
    "fit.fix_net_weights_at_zero": "bool",
    "train.apps": "apps",
    "predict.params": "path",
    "predict.apps": "apps",
    "synth.num_users": "int",
    "synth.num_context_users": "int",
    "synth.num_apps": "int",
    "synth.num_networks": "int",
    "synth.edge_density": "floats",
    "synth.weight_dist": "choice:" + "|".join(WEIGHT_DISTS),
    "synth.weight_max": "float",
    "synth.planted_net_weights": "floats",
    "synth.planted_pop_weight": "float",
    "synth.susceptibility_rate": "float",
    "synth.pop_base_max": "float",
    "synth.seed": "int",
}

NETWORK_KEY_RE = re.compile(r"^network\.(0|[1-9]\d*)\.(path|name|kind|symmetrize|normalize)$")
NETWORK_FIELD_TYPES = {
    "path": "path",
    "name": "str",
    "kind": "choice:weighted|binary",
    "symmetrize": "choice:" + "|".join(SYMMETRIZE_MODES),
    "normalize": "choice:" + "|".join(NORMALIZE_MODES),
}

TRUE_WORDS = ("true", "1", "yes", "on")
FALSE_WORDS = ("false", "0", "no", "off")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """`key = value` lines to a dict; duplicate keys are errors."""
    entries: dict[str, str] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            problems.append(f"{source}:{lineno}: expected `key = value`")
            continue
        if key in entries:
            problems.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        entries[key] = value
    if problems:
        raise ConfigError(problems)
    return entries


def apply_overrides(entries: dict[str, str], overrides: Sequence[str]) -> dict[str, str]:
    """Merge `--set key=value` pairs on top of the file entries."""
    merged = dict(entries)
    problems = []
    for item in overrides:
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            problems.append(f"override {item!r}: expected key=value")
            continue
        merged[key] = value
    if problems:
        raise ConfigError(problems)
    return merged


def _known_keys(entries: dict[str, str]) -> list[str]:
    keys = list(SCALAR_KEYS)
    indices = {m.group(1) for k in entries if (m := NETWORK_KEY_RE.match(k))}
    for i in sorted(indices | {"0"}):
        keys += [f"network.{i}.{f}" for f in NETWORK_FIELD_TYPES]
    return keys


def _parse(type_tag: str, value: str) -> object:
    """The typed value of a config string; ValueError when it does not parse.

    floats become a tuple, bools must be one of the true/false words, and
    str, path, apps and choice values stay strings.
    """
    if type_tag == "int":
        return int(value)
    if type_tag == "float":
        return float(value)
    if type_tag == "bool":
        word = value.lower()
        if word not in TRUE_WORDS + FALSE_WORDS:
            raise ValueError
        return word in TRUE_WORDS
    if type_tag == "floats":
        return tuple(float(v) for v in value.split(","))
    if type_tag == "apps" and value != "all":
        [int(v) for v in value.split(",")]
    return value


def _check_value(key: str, type_tag: str, value: str) -> str | None:
    """None when the value parses under the tag, else a problem message."""
    if type_tag.startswith("choice:"):
        choices = type_tag.split(":", 1)[1].split("|")
        if value not in choices:
            return f"{key}: expected one of {', '.join(choices)}, got {value!r}"
        return None
    try:
        _parse(type_tag, value)
    except ValueError:
        return f"{key}: cannot parse {value!r} as {type_tag}"
    return None


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration plus the directory its relative paths resolve against."""

    entries: dict[str, str] = field(default_factory=dict)
    base_dir: Path = Path(".")

    # -- schema ------------------------------------------------------------

    def problems(self) -> list[str]:
        """All schema and value diagnostics; empty means the config is well formed."""
        out: list[str] = []
        known = _known_keys(self.entries)
        for key, value in self.entries.items():
            m = NETWORK_KEY_RE.match(key)
            if key in SCALAR_KEYS:
                tag = SCALAR_KEYS[key]
            elif m:
                tag = NETWORK_FIELD_TYPES[m.group(2)]
            else:
                hint = difflib.get_close_matches(key, known, n=1)
                suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
                out.append(f"unknown key {key!r}{suffix}")
                continue
            problem = _check_value(key, tag, value)
            if problem:
                out.append(problem)
        out += self._network_index_problems()
        for key in self._path_keys():
            path = self.resolve_path(key)
            if not path.is_file():
                out.append(f"{key}: no such file: {path}")
        return out

    def _network_index_problems(self) -> list[str]:
        indices = sorted(
            {int(m.group(1)) for k in self.entries if (m := NETWORK_KEY_RE.match(k))}
        )
        out = []
        if indices and indices != list(range(len(indices))):
            out.append(f"network indices must be contiguous from 0, got {indices}")
        for i in indices:
            if f"network.{i}.path" not in self.entries:
                out.append(f"network.{i}.path: required when network.{i}.* is set")
        return out

    def _path_keys(self) -> list[str]:
        keys = [
            k
            for k in self.entries
            if (m := NETWORK_KEY_RE.match(k)) and m.group(2) == "path"
        ]
        keys += [k for k in ("adoptions.path", "predict.params") if k in self.entries]
        return keys

    def check(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError(problems)

    # -- typed getters -----------------------------------------------------

    def get_int(self, key: str, default: int | None = None) -> int | None:
        v = self.entries.get(key)
        return default if v is None else int(v)

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self.entries.get(key, default)

    def resolve_path(self, key: str) -> Path:
        raw = self.entries[key]
        path = Path(raw)
        return path if path.is_absolute() else self.base_dir / path

    def require(self, *keys: str) -> None:
        missing = [k for k in keys if k not in self.entries]
        if missing:
            raise ConfigError([f"{k}: required for this command" for k in missing])

    # -- builders ----------------------------------------------------------

    @property
    def outdir(self) -> Path:
        raw = Path(self.get_str("outdir", "runs"))
        return raw if raw.is_absolute() else self.base_dir / raw

    @property
    def seed(self) -> int:
        return self.get_int("seed", 0)

    def network_indices(self) -> list[int]:
        return sorted(
            {int(m.group(1)) for k in self.entries if (m := NETWORK_KEY_RE.match(k))}
        )

    def input_paths(self) -> dict[str, Path]:
        return {k: self.resolve_path(k) for k in self._path_keys()}

    def build_networks(self) -> tuple[CandidateNetwork, ...]:
        self.require("num_users")
        indices = self.network_indices()
        if not indices:
            raise ConfigError(["network.0.path: at least one network is required"])
        num_users = self.get_int("num_users")
        nets = []
        for i in indices:
            path = self.resolve_path(f"network.{i}.path")
            g = load_network_edge_list(
                path.read_text(),
                num_users,
                kind=self.get_str(f"network.{i}.kind", "weighted"),
                symmetrize=self.get_str(f"network.{i}.symmetrize", "sum"),
                name=self.get_str(f"network.{i}.name", path.stem),
            )
            mode = self.get_str(f"network.{i}.normalize", "none")
            nets.append(normalize_network(g, mode))
        return tuple(nets)

    def build_adoptions(self) -> AdoptionMatrix:
        self.require("adoptions.path", "num_users", "num_apps")
        return load_adoptions(
            self.resolve_path("adoptions.path").read_text(),
            self.get_int("num_users"),
            self.get_int("num_apps"),
        )

    def build_dataset(self) -> Dataset:
        return Dataset(
            networks=NetworkStack(networks=self.build_networks()),
            adoptions=self.build_adoptions(),
        )

    def _section(self, prefix: str) -> dict[str, object]:
        """{field: typed value} for the `<prefix>.*` keys this config sets."""
        return {
            key.split(".", 1)[1]: _parse(SCALAR_KEYS[key], value)
            for key, value in self.entries.items()
            if key.startswith(prefix + ".") and key in SCALAR_KEYS
        }

    @property
    def use_popularity(self) -> bool:
        """experiment.use_popularity, which train and predict read without a protocol."""
        return self._section("experiment").get(
            "use_popularity", ExperimentSpec.use_popularity
        )

    def fit_config(self) -> FitConfig:
        try:
            return FitConfig(**self._section("fit"))
        except ValueError as e:
            raise ConfigError([f"fit.*: {e}"]) from e

    def experiment_spec(self) -> ExperimentSpec:
        self.require("protocol")
        try:
            return ExperimentSpec(
                protocol=self.entries["protocol"],
                seed=self.seed,
                fit=self.fit_config(),
                **self._section("experiment"),
            )
        except ValueError as e:
            if isinstance(e, ConfigError):
                raise
            raise ConfigError([f"experiment.*: {e}"]) from e

    def synth_spec(self) -> SynthSpec:
        try:
            kwargs = self._section("synth")
            density = kwargs.get("edge_density", ())
            # edge_density alone may be one value shared by every network
            if len(density) == 1:
                kwargs["edge_density"] = density[0]
            kwargs.setdefault("seed", self.seed)
            return SynthSpec(**kwargs)
        except ValueError as e:
            raise ConfigError([f"synth.*: {e}"]) from e

    def app_list(self, key: str, num_apps: int) -> np.ndarray:
        value = self.get_str(key, "all")
        if value == "all":
            return np.arange(num_apps)
        apps = np.array(sorted({int(v) for v in value.split(",")}), dtype=int)
        if apps.size and (apps[0] < 0 or apps[-1] >= num_apps):
            raise ConfigError([f"{key}: app id out of range 0..{num_apps - 1}"])
        return apps


def load_config(path: Path | str, overrides: Sequence[str] = ()) -> RunConfig:
    """Read, override and schema-check a config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError([f"cannot read config: {e}"]) from e
    entries = apply_overrides(parse_config_text(text, str(path)), overrides)
    cfg = RunConfig(entries=entries, base_dir=path.parent)
    cfg.check()
    return cfg
