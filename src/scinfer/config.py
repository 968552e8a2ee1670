"""INI config parsing for the CLI and the sweep harness.

A config file holds up to three sections. ``[instance]`` maps onto
InstanceParams plus a ``seed`` key, ``[params]`` onto HyperParams where
the budgets accept the literal ``auto`` (derive from ground truth), and
``[sweep]`` describes an experiment grid. The keys of the first two and
their value types are read off the dataclass fields, and float values
must be finite. Unknown sections or keys are rejected by name so typos
fail loudly instead of silently applying a default.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

from .baselines import METHODS
from .learner import HyperParams
from .synth import InstanceParams
from .topology import Selection, _require_int

__all__ = [
    "SweepSpec",
    "SWEEP_AXES",
    "load_config",
    "parse_instance",
    "parse_hyperparams",
    "parse_sweep",
    "resolve_budgets",
]

# The instance fields a sweep may vary, each with its chart's x-axis label.
SWEEP_AXES = {"node_noise_std": "node signal noise std", "observed_fraction": "observed edge fraction"}

_SECTIONS = ("instance", "params", "sweep")

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
        # Tuples, so an unhashable name is refused like any other.
        variables, names = tuple(SWEEP_AXES), tuple(METHODS)
        if self.variable not in variables:
            raise ValueError(f"sweep variable must be one of {variables}, got {self.variable!r}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        for value in self.grid:  # each grid point must make a valid InstanceParams
            replace(self.instance, **{self.variable: value})
        _require_int("trials", self.n_trials, 1)
        _require_int("base_seed", self.base_seed, 0)
        n = self.instance.n_nodes  # a budget that is set must fit every cell's skeleton
        for name, top in (("e_min", math.comb(n, 2)), ("t_min", math.comb(n, 3))):
            if getattr(self.params, name) is not None:
                _require_int(name, getattr(self.params, name), 0, top)
        if len(self.methods) == 0:
            raise ValueError("methods must be nonempty")
        for i, name in enumerate(self.methods):
            if name not in names:
                raise ValueError(f"unknown method {name!r}, expected one of {names}")
            if name in self.methods[:i]:
                raise ValueError(f"method {name!r} is listed more than once")


def load_config(path) -> configparser.ConfigParser:
    """Read an INI file, rejecting unknown sections. A ``%`` is read
    literally, and ``[DEFAULT]`` is an unknown section like any other."""
    # No section header can spell a newline, so no section is the default.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"bad config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown config section [{section}], expected one of {_SECTIONS}"
            )
    return parser


def _typed(key: str, raw: str, kind):
    """Parse one value as ``kind`` (int or finite float); kind
    None is an int budget that also accepts ``auto`` (returned as None)."""
    raw = raw.strip()
    if kind is None:
        if raw.lower() == "auto":
            return None
        kind = int
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"key {key!r}: {raw!r} is not a finite float")
    return value


def _section(parser: configparser.ConfigParser, name: str) -> dict:
    return dict(parser[name]) if parser.has_section(name) else {}


def _build(cls, name: str, section: dict):
    """Instantiate a parameter dataclass from a section's raw values.

    The accepted keys are the dataclass fields; each value is parsed as
    the type of its field's default, and a None default marks a budget.
    """
    kinds = {f.name: None if f.default is None else type(f.default) for f in fields(cls)}
    for key in section:
        if key not in kinds:
            raise ValueError(f"unknown key {key!r} in [{name}]")
    return cls(**{key: _typed(key, raw, kinds[key]) for key, raw in section.items()})


def parse_instance(parser: configparser.ConfigParser) -> tuple[InstanceParams, int]:
    """Build InstanceParams (plus the generation seed) from ``[instance]``.

    A missing section yields all defaults with seed 0.
    """
    section = _section(parser, "instance")
    seed = section.pop("seed", None)
    instance = _build(InstanceParams, "instance", section)
    return instance, 0 if seed is None else _typed("seed", seed, int)


def parse_hyperparams(parser: configparser.ConfigParser) -> HyperParams:
    """Build HyperParams from ``[params]``; budgets accept ``auto``."""
    return _build(HyperParams, "params", _section(parser, "params"))


def resolve_budgets(params: HyperParams, truth: Selection) -> HyperParams:
    """Fill the budgets left as ``auto`` (None) with the ground-truth
    active-edge and active-triangle counts."""
    if params.e_min is None:
        params = replace(params, e_min=int(truth.w1.sum()))
    if params.t_min is None:
        params = replace(params, t_min=int(truth.w2.sum()))
    return params


def parse_sweep(parser: configparser.ConfigParser) -> SweepSpec:
    """Build a SweepSpec from ``[sweep]`` plus the other two sections;
    ``[instance]`` may not set ``seed`` or the swept variable."""
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
    grid = tuple(_typed("grid", tok, float) for tok in section["grid"].split(","))
    n_trials = _typed("trials", section["trials"], int) if "trials" in section else 10
    base_seed = _typed("base_seed", section["base_seed"], int) if "base_seed" in section else 0

    if "methods" in section:
        methods = tuple(tok.strip() for tok in section["methods"].split(","))
    else:
        methods = tuple(METHODS)

    instance, _ = parse_instance(parser)
    for key, replacement in (("seed", "base_seed"), (variable, "grid")):
        if key in _section(parser, "instance"):
            raise ValueError(
                f"key {key!r} in [instance] is unused by a sweep; [sweep] {replacement} sets it"
            )
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
