"""INI config parsing for the CLI and the sweep harness.

A config file holds up to three sections. ``[instance]`` maps onto
InstanceParams plus a ``seed`` key, ``[params]`` onto HyperParams where
the budgets accept the literal ``auto`` (derive from ground truth), and
``[sweep]`` describes an experiment grid. Unknown sections or keys are
rejected by name so typos fail loudly instead of silently applying a
default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .baselines import METHODS
from .learner import HyperParams
from .synth import InstanceParams

__all__ = [
    "SweepSpec",
    "METHOD_NAMES",
    "SWEEP_VARIABLES",
    "load_config",
    "parse_instance",
    "parse_hyperparams",
    "parse_sweep",
]

METHOD_NAMES = tuple(METHODS)
SWEEP_VARIABLES = ("node_noise_std", "observed_fraction")

_SECTIONS = ("instance", "params", "sweep")

_INSTANCE_INT = ("n_nodes", "n_node_signals", "n_edge_signals")
_INSTANCE_FLOAT = (
    "edge_prob",
    "fill_fraction",
    "curl_atten",
    "node_noise_std",
    "edge_noise_std",
    "observed_fraction",
)

_PARAMS_FLOAT = ("alpha1", "alpha2", "beta1", "beta2", "gamma", "eta", "pinv_tol")
_PARAMS_INT = ("max_iters",)
_PARAMS_AUTO = ("e_min", "t_min")
_PARAMS_BOOL = ("strict_lemma_mode", "prune_closure")

_SWEEP_KEYS = ("variable", "grid", "trials", "base_seed", "methods")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a variable swept over a grid, several trials per
    point, the same instance recipe and hyperparameters everywhere else."""

    variable: str
    grid: tuple[float, ...]
    n_trials: int
    base_seed: int
    methods: tuple[str, ...]
    instance: InstanceParams
    params: HyperParams

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"sweep variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        if self.n_trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.methods) == 0:
            raise ValueError("methods must be nonempty")
        for name in self.methods:
            if name not in METHOD_NAMES:
                raise ValueError(f"unknown method {name!r}, expected one of {METHOD_NAMES}")


def load_config(path) -> configparser.ConfigParser:
    """Read an INI file, rejecting unknown sections."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"bad config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown config section [{section}], expected one of {_SECTIONS}"
            )
    return parser


def _typed(section, key: str, kind: str):
    raw = section[key].strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        raise AssertionError(kind)
    except ValueError:
        raise ValueError(f"key {key!r}: cannot parse {raw!r} as {kind}") from None


def parse_instance(parser: configparser.ConfigParser) -> tuple[InstanceParams, int]:
    """Build InstanceParams (plus the generation seed) from ``[instance]``.

    A missing section yields all defaults with seed 0.
    """
    if not parser.has_section("instance"):
        return InstanceParams(), 0
    section = parser["instance"]
    known = set(_INSTANCE_INT) | set(_INSTANCE_FLOAT) | {"seed"}
    for key in section:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in [instance]")
    kwargs = {}
    for key in _INSTANCE_INT:
        if key in section:
            kwargs[key] = _typed(section, key, "int")
    for key in _INSTANCE_FLOAT:
        if key in section:
            kwargs[key] = _typed(section, key, "float")
    seed = _typed(section, "seed", "int") if "seed" in section else 0
    return InstanceParams(**kwargs), seed


def parse_hyperparams(parser: configparser.ConfigParser) -> HyperParams:
    """Build HyperParams from ``[params]``; budgets accept ``auto``."""
    if not parser.has_section("params"):
        return HyperParams()
    section = parser["params"]
    known = set(_PARAMS_FLOAT) | set(_PARAMS_INT) | set(_PARAMS_AUTO) | set(_PARAMS_BOOL)
    for key in section:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in [params]")
    kwargs = {}
    for key in _PARAMS_FLOAT:
        if key in section:
            kwargs[key] = _typed(section, key, "float")
    for key in _PARAMS_INT:
        if key in section:
            kwargs[key] = _typed(section, key, "int")
    for key in _PARAMS_BOOL:
        if key in section:
            kwargs[key] = _typed(section, key, "bool")
    for key in _PARAMS_AUTO:
        if key in section:
            raw = section[key].strip()
            kwargs[key] = None if raw.lower() == "auto" else _typed(section, key, "int")
    return HyperParams(**kwargs)


def parse_sweep(parser: configparser.ConfigParser) -> SweepSpec:
    """Build a SweepSpec; requires ``[sweep]`` and folds in the other
    two sections."""
    if not parser.has_section("sweep"):
        raise ValueError("config has no [sweep] section")
    section = parser["sweep"]
    for key in section:
        if key not in _SWEEP_KEYS:
            raise ValueError(f"unknown key {key!r} in [sweep]")
    for key in ("variable", "grid"):
        if key not in section:
            raise ValueError(f"[sweep] is missing required key {key!r}")

    variable = section["variable"].strip()
    try:
        grid = tuple(float(tok) for tok in section["grid"].split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"key 'grid': cannot parse {section['grid']!r} as floats") from None
    n_trials = _typed(section, "trials", "int") if "trials" in section else 10
    base_seed = _typed(section, "base_seed", "int") if "base_seed" in section else 0

    if "methods" in section:
        canon = {name.lower(): name for name in METHOD_NAMES}
        methods = []
        for tok in section["methods"].split(","):
            tok = tok.strip()
            if not tok:
                continue
            if tok.lower() not in canon:
                raise ValueError(f"unknown method {tok!r}, expected one of {METHOD_NAMES}")
            methods.append(canon[tok.lower()])
        methods = tuple(methods)
    else:
        methods = METHOD_NAMES

    instance, _ = parse_instance(parser)
    params = parse_hyperparams(parser)
    return SweepSpec(
        variable=variable,
        grid=grid,
        n_trials=n_trials,
        base_seed=base_seed,
        methods=methods,
        instance=instance,
        params=params,
    )
