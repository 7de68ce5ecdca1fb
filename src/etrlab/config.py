"""Experiment configuration: dataclass plus a strict key-value file loader.

Config files use INI sections, one section named after the experiment
(`phase`, `mismatch`, `uncertainty-principle`, `perturbation`,
`regime-map`) plus an optional `[thresholds]` section. Unknown sections
or keys are errors; silent typos are worse than loud ones.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from math import comb

from .errors import ConfigError
from .etr import RegimeThresholds
from .geometry import EXACT_GUARD
from .solvers import SOLVER_NAMES

# each experiment and the `etr-lab` arguments that run it
EXPERIMENT_COMMANDS = {
    "phase": "phase",
    "mismatch": "mismatch",
    "uncertainty-principle": "verify",
    "perturbation": "verify --suite perturbation",
    "regime-map": "regime",
}
EXPERIMENTS = tuple(EXPERIMENT_COMMANDS)


@dataclass
class ExperimentConfig:
    experiment: str = "phase"
    d: int = 64
    n: int = 0                      # 0: defaults to d
    k: int = 3
    k_sweep: tuple = ()
    m_sweep: tuple = ()
    m: int = 0                      # mismatch recovery budget; 0: d // 2
    d_sweep: tuple = ()             # uncertainty-principle dimensions
    epsilon: float = 0.0
    trials_per_cell: int = 50
    recovery_trials: int = 100      # mismatch recovery sub-experiment
    master_seed: int = 42
    basis: str = "identity"
    sensing: str = "gaussian"
    solvers: tuple = ("basis-pursuit",)
    max_iterations: int = 4000      # basis pursuit's path-step cap
    output_dir: str = "out"
    workers: int = 1                # trials run sequentially; only 1 is accepted
    thresholds: RegimeThresholds = field(default_factory=RegimeThresholds)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.n == 0:
            self.n = self.d
        if self.experiment in ("phase", "regime-map") and self.n != self.d:
            raise ConfigError(f"{self.experiment} builds a d x d dictionary: n must equal d "
                              f"(n = {self.n}, d = {self.d})")
        if self.workers != 1:
            raise ConfigError(f"workers must be 1 (trials run sequentially), got {self.workers}")
        if self.trials_per_cell < 1:
            raise ConfigError("trials_per_cell must be >= 1")
        if not self.epsilon >= 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.experiment == "perturbation" and not 1 <= self.k <= self.n:
            raise ConfigError(f"perturbation needs 1 <= k <= n, got k = {self.k}, n = {self.n}")
        r = min(2 * self.k, self.n)  # perturbation's exact gamma_2k enumerates C(n, r) supports
        if self.experiment == "perturbation" and comb(self.n, r) > EXACT_GUARD:
            raise ConfigError(f"perturbation enumerates binomial({self.n},{r}) supports, "
                              f"more than {EXACT_GUARD}")
        if self.experiment == "mismatch" and self.recovery_trials < 1:
            raise ConfigError("mismatch needs recovery_trials >= 1")
        if self.experiment == "regime-map" and self.trials_per_cell < self.thresholds.trials:
            raise ConfigError(f"regime-map classifies a cell from at least thresholds.trials = "
                              f"{self.thresholds.trials} trials, got trials_per_cell = "
                              f"{self.trials_per_cell}")
        for name, sweep in (("k_sweep", self.k_sweep), ("m_sweep", self.m_sweep),
                            ("d_sweep", self.d_sweep)):
            if sweep and not all(isinstance(v, int) and v >= 1 for v in sweep):
                raise ConfigError(f"{name} must hold positive integers")
            # the isotonic 50% crossing and the heat-map axes read sweeps in order
            if any(lo >= hi for lo, hi in zip(sweep, sweep[1:])):
                raise ConfigError(f"{name} must be strictly increasing, got {sweep}")
        unknown = [v for v in self.solvers if v not in SOLVER_NAMES]
        if unknown:
            raise ConfigError(f"unknown solvers {unknown}; known: {', '.join(SOLVER_NAMES)}")


def _parse_sweep(text: str) -> tuple:
    """`a:b:step` inclusive range, or a comma list of ints."""
    text = text.strip()
    if ":" in text:
        parts = [int(t) for t in text.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ConfigError(f"bad sweep {text!r}")
        sweep = tuple(range(lo, hi + 1, step))
        if not sweep:
            raise ConfigError(f"empty sweep {text!r}")
        return sweep
    return tuple(int(t) for t in text.split(",") if t.strip())


_PARSERS = {
    "experiment": str,
    "basis": str,
    "sensing": str,
    "output_dir": str,
    "epsilon": float,
    "k_sweep": _parse_sweep,
    "m_sweep": _parse_sweep,
    "d_sweep": _parse_sweep,
    "solvers": lambda s: tuple(t.strip() for t in s.split(",") if t.strip()),
}

# each threshold is cast to the type of its default
_THRESHOLD_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(RegimeThresholds)}


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = parser.sections()
    experiment_sections = [s for s in sections if s in EXPERIMENTS]
    if len(experiment_sections) != 1:
        raise ConfigError(f"expected exactly one experiment section, found {sections}")
    extra = [s for s in sections if s not in EXPERIMENTS and s != "thresholds"]
    if extra:
        raise ConfigError(f"unknown sections {extra}")

    name = experiment_sections[0]
    kwargs = {"experiment": name}
    valid = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment", "thresholds"}
    for key, raw in parser.items(name):
        if key not in valid:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        parse = _PARSERS.get(key, int)
        try:
            kwargs[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc

    if parser.has_section("thresholds"):
        tkw = {}
        for key, raw in parser.items("thresholds"):
            if key not in _THRESHOLD_FIELDS:
                raise ConfigError(f"unknown key {key!r} in section [thresholds]")
            try:
                tkw[key] = _THRESHOLD_FIELDS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        kwargs["thresholds"] = RegimeThresholds(**tkw)

    return ExperimentConfig(**kwargs)


def dump_config(cfg: ExperimentConfig) -> str:
    """The config file text that `load_config` reads back as `cfg`.

    Every field is written, and every threshold; floats by repr, which
    parses back to the same bits, and `%` doubled for the loader's
    interpolation.
    """
    def text(value) -> str:
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        return (repr(value) if isinstance(value, float) else str(value)).replace("%", "%%")

    lines = [f"[{cfg.experiment}]"]
    lines += [f"{f.name} = {text(getattr(cfg, f.name))}" for f in dataclasses.fields(cfg)
              if f.name not in ("experiment", "thresholds")]
    lines += ["", "[thresholds]"]
    lines += [f"{f.name} = {text(getattr(cfg.thresholds, f.name))}"
              for f in dataclasses.fields(cfg.thresholds)]
    return "\n".join(lines) + "\n"
