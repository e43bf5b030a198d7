"""Flat key-value run configuration: parsing, schema checks, object builders.

The file format is one `key = value` per line.  A `#` at the start of a
line or after whitespace starts a comment; one glued to other text is part
of the value, as in `outdir = out#1`.  Keys are dotted and flat (no
sections); relative paths resolve against the config file's directory.
Unknown keys are rejected with a close-match suggestion so typos fail
loudly instead of silently using a default.

The run specs the builders return (FitConfig, ExperimentSpec, SynthSpec)
and their choice lists live here too, so that reading a config loads only
the data module; solver, experiments and synth import them from here.  They
are the schema of the `fit.*`, `experiment.*` and `synth.*` keys, one key
per field; the top-level `seed` and `protocol` set those two fields.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import (
    NETWORK_KINDS,
    NORMALIZE_MODES,
    SYMMETRIZE_MODES,
    AdoptionMatrix,
    CandidateNetwork,
    Dataset,
    NetworkStack,
    _lines,
    load_adoptions,
    load_network_edge_list,
    normalize_network,
)

PROTOCOLS = ("ablation", "comparison", "future", "transfer")
USER_SUBSETS = ("all", "low_activity")
WEIGHT_DISTS = ("unit", "uniform")
FIT_VARIANTS = ("full", "no_exogenous", "individual_only", "network_only",  # ablation order
                "network_only_allow_negative")


class ConfigError(ValueError):
    """One or more configuration problems; ``problems`` has one message each."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings.

    init_net_weight of None means 1/num_networks (also used for the
    popularity weight).  grad_tol applies to the infinity norm of the
    projected gradient and is the only test that ends a maximum-likelihood
    fit as converged; that fit is projected Newton and otherwise stops when
    no projected-gradient step can move the parameters, when neither its
    Newton nor its projected-gradient arc search finds an increase, or at
    max_iters.  grad_tol and the starting values must be finite: a NaN
    tolerance is never met and an infinite one is met at the start.
    variant is one of the ablation's five fits, FIT_VARIANTS; fit_mle says
    which blocks each one freezes at zero (every variant but full freezes the
    popularity weight) and which one signs the weights.  It is a setting of
    a single fit: a protocol picks the variant of each of its series.
    """

    max_iters: int = 10_000
    grad_tol: float = 1e-6
    init_net_weight: float | None = None
    init_susceptibility: float = 0.1
    variant: str = "full"

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"tolerances must be finite and positive: grad_tol {self.grad_tol}")
        if not (np.isfinite(self.init_susceptibility) and self.init_susceptibility >= 0):
            raise ValueError("init_susceptibility must be finite and non-negative")
        if self.init_net_weight is not None and not np.isfinite(self.init_net_weight):
            raise ValueError("init_net_weight must be finite")
        if self.variant not in FIT_VARIANTS:
            raise ValueError(f"unknown fit variant {self.variant!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One protocol run: the split scheme, repeats, seed and solver settings.

    Exactly one of train_fraction / folds may be given; with neither, 5-fold
    cross-validation is assumed.  min_users drops rarely-installed apps
    before anything else happens.  fit.variant must stay full: each
    protocol fits the variants its series name.
    """

    protocol: str
    train_fraction: float | None = None
    folds: int | None = None
    min_users: int = 2
    repeats: int = 5
    seed: int = 0
    user_subset: str = "all"
    observable_fraction: float = 0.5
    mp_k: int = 5
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.train_fraction is not None and self.folds is not None:
            raise ValueError("set train_fraction or folds, not both")
        if self.train_fraction is None and self.folds is None:
            object.__setattr__(self, "folds", 5)
        if self.train_fraction is not None and not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.folds is not None and self.folds < 2:
            raise ValueError("need at least two folds")
        if self.min_users < 0:
            raise ValueError("min_users must be non-negative")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.user_subset not in USER_SUBSETS:
            raise ValueError(f"unknown user subset {self.user_subset!r}")
        if not 0 < self.observable_fraction < 1:
            raise ValueError("observable_fraction must lie in (0, 1)")
        if self.mp_k < 1:
            raise ValueError("mp_k must be positive")
        if self.fit.variant != "full":
            raise ValueError(f"fit.variant {self.fit.variant!r} is a train setting:"
                             " each protocol fits the variants its series name")


@dataclass(frozen=True)
class SynthSpec:
    """Shape and planted parameters of one synthetic dataset.

    edge_density may be a scalar (shared) or one value per network.  Weights
    are 1.0 under ``unit`` or drawn from uniform(0, weight_max).  Planted
    susceptibilities are exponential with the given rate; context users'
    stage-one popularity pull is pop_weight times a uniform(0, pop_base_max)
    per-app base draw.  Every weight, rate and bound must be finite.
    """

    num_users: int = 400
    num_context_users: int = 200
    num_apps: int = 400
    num_networks: int = 4
    edge_density: tuple[float, ...] | float = (0.01, 0.015, 0.02, 0.03)
    weight_dist: str = "uniform"
    weight_max: float = 1.0
    planted_net_weights: tuple[float, ...] = (0.5, 0.35, 0.2, 0.1)
    planted_pop_weight: float = 0.004
    susceptibility_rate: float = 25.0
    pop_base_max: float = 15.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users < 2 or not 1 <= self.num_context_users < self.num_users:
            raise ValueError("need at least one context and one target user")
        if self.num_apps < 1 or self.num_networks < 1:
            raise ValueError("num_apps and num_networks must be positive")
        dens = self.edge_density
        if np.isscalar(dens):
            dens = (float(dens),) * self.num_networks
        else:
            dens = tuple(float(d) for d in dens)
        if len(dens) != self.num_networks:
            raise ValueError("edge_density must be scalar or one value per network")
        if any(not 0 < d <= 1 for d in dens):
            raise ValueError("edge densities must lie in (0, 1]")
        object.__setattr__(self, "edge_density", dens)
        if self.weight_dist not in WEIGHT_DISTS:
            raise ValueError(f"unknown weight distribution {self.weight_dist!r}")
        if self.weight_max <= 0:
            raise ValueError("weight_max must be positive")
        weights = tuple(float(w) for w in self.planted_net_weights)
        if len(weights) != self.num_networks:
            raise ValueError("planted_net_weights must have one value per network")
        if any(w < 0 for w in weights):
            raise ValueError("planted network weights must be non-negative")
        object.__setattr__(self, "planted_net_weights", weights)
        if self.planted_pop_weight < 0:
            raise ValueError("planted popularity weight must be non-negative")
        if self.susceptibility_rate <= 0:
            raise ValueError("susceptibility rate must be positive")
        if self.pop_base_max < 0:
            raise ValueError("pop_base_max must be non-negative")
        # NaN passes the sign checks; non-finite values overflow the uniform
        # draws or plant all-zero susceptibilities
        for name in ("weight_max", "planted_net_weights", "planted_pop_weight",
                     "susceptibility_rate", "pop_base_max"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")

    @property
    def context_users(self) -> np.ndarray:
        return np.arange(self.num_context_users)

    @property
    def target_users(self) -> np.ndarray:
        return np.arange(self.num_context_users, self.num_users)


# a spec field's annotation, less any ` | None` -> the type tag of its key
_FIELD_TAGS = {"int": "int", "float": "float",
               "tuple[float, ...]": "floats", "tuple[float, ...] | float": "floats"}


def _section_keys() -> dict[str, str]:
    """`<section>.<field>` -> type tag for the fields of the three run specs.

    seed, protocol and fit are set by other keys.  An annotation with no tag
    raises at import, so a spec field cannot drift from its key.
    """
    choices = {"user_subset": USER_SUBSETS, "weight_dist": WEIGHT_DISTS, "variant": FIT_VARIANTS}
    keys = {}
    for section, spec in (("fit", FitConfig), ("experiment", ExperimentSpec), ("synth", SynthSpec)):
        for f in fields(spec):
            if f.name in ("seed", "protocol", "fit"):
                continue
            if f.name in choices:
                tag = "choice:" + "|".join(choices[f.name])
            else:
                tag = _FIELD_TAGS.get(f.type.removesuffix(" | None"))
            if tag is None:
                raise TypeError(f"{section}.{f.name}: no config type for {f.type!r}")
            keys[f"{section}.{f.name}"] = tag
    return keys


# key -> type tag (int, float, str, path, apps, floats, choice:a|b|c)
SCALAR_KEYS: dict[str, str] = {
    "num_users": "int",
    "num_apps": "int",
    "adoptions.path": "path",
    "outdir": "str",
    "seed": "int",
    "protocol": "choice:" + "|".join(PROTOCOLS),
    "train.apps": "apps",
    "predict.params": "path",
    "predict.apps": "apps",
    **_section_keys(),
}
# removed key -> the key that replaced it, which the unknown-key hint names
REPLACED_KEYS = dict.fromkeys(("fit.allow_negative_net_weights", "fit.fix_susceptibility_at_zero",
                               "fit.fix_net_weights_at_zero", "experiment.use_popularity"),
                              "fit.variant")

NETWORK_KEY_RE = re.compile(r"^network\.(0|[1-9]\d*)\.(path|name|kind|symmetrize|normalize)$")
NETWORK_FIELD_TYPES = {
    "path": "path",
    "name": "str",
    "kind": "choice:" + "|".join(NETWORK_KINDS),
    "symmetrize": "choice:" + "|".join(SYMMETRIZE_MODES),
    "normalize": "choice:" + "|".join(NORMALIZE_MODES),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """`key = value` lines to a dict; duplicate keys are errors."""
    entries: dict[str, str] = {}
    problems = []
    for lineno, line in _lines(text):
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


def _known_keys(indices: list[int]) -> list[str]:
    """Every scalar key and the network keys of the given indices and of 0."""
    nets = [f"network.{i}.{f}" for i in sorted({0, *indices}) for f in NETWORK_FIELD_TYPES]
    return list(SCALAR_KEYS) + nets


def _parse(type_tag: str, value: str) -> object:
    """The typed value of a config string (floats: a tuple); ValueError if it does not parse."""
    if type_tag == "int":
        return int(value)
    if type_tag == "float":
        return float(value)
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
        known = _known_keys(self.network_indices())
        for key, value in self.entries.items():
            m = NETWORK_KEY_RE.match(key)
            if key in SCALAR_KEYS:
                tag = SCALAR_KEYS[key]
            elif m:
                tag = NETWORK_FIELD_TYPES[m.group(2)]
            else:
                from difflib import get_close_matches  # only a config with a typo needs it

                last = key.rpartition(".")[2]  # a top-level key under a prefix: synth.seed
                hint = ([REPLACED_KEYS[key]] if key in REPLACED_KEYS
                        else [last] if last in SCALAR_KEYS
                        else get_close_matches(key, known, n=1))
                suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
                out.append(f"unknown key {key!r}{suffix}")
                continue
            problem = _check_value(key, tag, value)
            if problem:
                out.append(problem)
            elif key in ("num_users", "num_apps") and int(value) < 1:
                out.append(f"{key}: must be at least 1")
        out += self._network_index_problems()
        for key in self._path_keys():
            path = self.resolve_path(key)
            if not path.is_file():
                out.append(f"{key}: no such file: {path}")
        return out

    def _network_index_problems(self) -> list[str]:
        indices = self.network_indices()
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
        nets, names = [], {}
        for i in indices:
            key = f"network.{i}.path"
            # a name labels report series and CSV cells: unique and comma-free
            name = self.get_str(f"network.{i}.name", self.resolve_path(key).stem)
            first = names.setdefault(name, i)
            if "," in name or first != i:
                why = "contains ','" if "," in name else f"is already the name of network.{first}"
                raise ConfigError([f"network.{i}.name: {name!r} {why}"])
            g = self._load(
                key,
                load_network_edge_list,
                num_users,
                kind=self.get_str(f"network.{i}.kind", "weighted"),
                symmetrize=self.get_str(f"network.{i}.symmetrize", "sum"),
                name=name,
            )
            mode = self.get_str(f"network.{i}.normalize", "none")
            nets.append(normalize_network(g, mode))
        return tuple(nets)

    def build_adoptions(self) -> AdoptionMatrix:
        self.require("adoptions.path", "num_users", "num_apps")
        return self._load(
            "adoptions.path", load_adoptions, self.get_int("num_users"), self.get_int("num_apps")
        )

    def _load(self, key: str, loader: Callable, *args, **kwargs):
        """``loader`` on the text of the file at ``key``; a problem names the key."""
        try:
            return loader(self.resolve_path(key).read_text(), *args, **kwargs)
        except (OSError, ValueError) as e:
            raise ConfigError([f"{key}: {e}"]) from e

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
            return SynthSpec(seed=self.seed, **kwargs)
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
    except (OSError, UnicodeError) as e:
        raise ConfigError([f"cannot read config: {e}"]) from e
    entries = apply_overrides(parse_config_text(text, str(path)), overrides)
    cfg = RunConfig(entries=entries, base_dir=path.parent)
    cfg.check()
    return cfg
