"""Experiment configuration: dataclass plus a strict key-value file loader.

Config files use INI sections, one section named after the experiment
(`phase`, `mismatch`, `uncertainty-principle`, `perturbation`,
`regime-map`) plus, for phase and regime-map, an optional `[thresholds]`
section. `EXPERIMENTS` lists the keys each experiment reads and their
defaults. Unknown sections or keys are errors, and so is a key the
experiment does not read; silent typos are worse than loud ones. A
setting the module that uses it would reject is an error at load time
too, before any trial runs: config runs that module's own data-free check
(see `ExperimentConfig._check_owners`) and re-raises its rejection as a
ConfigError naming the keys and values.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass

from .dictionaries import check_dictionary, check_sensing
from .errors import ConfigError, EtrLabError
from .etr import RegimeThresholds
from .geometry import check_exact
from .rng import check_seed
from .solvers import SolverConfig, check_solvers
from .sparsity import check_sparsity

# each experiment and the `etr-lab` arguments that run it
EXPERIMENT_COMMANDS = {
    "phase": "phase",
    "mismatch": "mismatch",
    "uncertainty-principle": "verify",
    "perturbation": "verify --suite perturbation",
    "regime-map": "regime",
}

# each experiment and the fields its runner reads, with their defaults; a
# callable default is computed from the fields filled before it
EXPERIMENTS = {
    "phase": dict(d=64, n=lambda cfg: cfg.d, k=3, m_sweep=tuple(range(4, 49, 4)), epsilon=0.0,
                  trials_per_cell=50, basis="identity", sensing="gaussian",
                  solvers=("basis-pursuit",), max_iterations=SolverConfig.max_iterations,
                  thresholds=RegimeThresholds()),
    "mismatch": dict(d=32, k=4, m=lambda cfg: cfg.d // 2, epsilon=0.0, trials_per_cell=1000,
                     recovery_trials=50, sensing="gaussian",
                     max_iterations=SolverConfig.max_iterations),
    "uncertainty-principle": dict(d_sweep=(4, 16, 64), trials_per_cell=200),
    "perturbation": dict(d=6, n=8, k=1, trials_per_cell=200, sensing="gaussian"),
    "regime-map": dict(d=16, n=lambda cfg: cfg.d, k_sweep=(1, 2, 3), m_sweep=(2, 4, 6, 8, 12, 16),
                       epsilon=0.0, trials_per_cell=20, basis="identity", sensing="gaussian",
                       max_iterations=SolverConfig.max_iterations, thresholds=RegimeThresholds()),
}
# fields that every experiment takes; workers accepts only 1
SHARED_FIELDS = ("experiment", "master_seed", "output_dir", "workers")
# each experiment that builds m x d sensing matrices: the key holding its
# budgets m and the key holding the width d (perturbation's are d x n)
SENSING_SHAPES = {"phase": ("m_sweep", "d"), "mismatch": ("m", "d"),
                  "perturbation": ("d", "n"), "regime-map": ("m_sweep", "d")}


def _owned(keys: str, check, *args, **kwargs):
    """`check(*args, **kwargs)`, its owner's rejection re-raised naming the config keys."""
    try:
        return check(*args, **kwargs)
    except EtrLabError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """One experiment's settings: the fields the experiment reads are filled
    from `EXPERIMENTS` when left None, and every other field must stay None."""

    experiment: str = "phase"
    d: int | None = None
    n: int | None = None
    k: int | None = None
    k_sweep: tuple | None = None
    m_sweep: tuple | None = None
    m: int | None = None                # mismatch recovery budget
    d_sweep: tuple | None = None        # uncertainty-principle dimensions
    epsilon: float | None = None
    trials_per_cell: int | None = None
    recovery_trials: int | None = None  # mismatch recovery sub-experiment
    master_seed: int = 42
    basis: str | None = None
    sensing: str | None = None
    solvers: tuple | None = None
    max_iterations: int | None = None   # basis pursuit's path-step cap
    output_dir: str = "out"
    workers: int = 1                    # trials run sequentially; only 1 is accepted
    thresholds: RegimeThresholds | None = None

    def __post_init__(self):
        reads = EXPERIMENTS.get(self.experiment)
        if reads is None:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        unread = [f.name for f in dataclasses.fields(self) if f.name not in reads
                  and f.name not in SHARED_FIELDS and getattr(self, f.name) is not None]
        if unread:
            raise ConfigError(f"{self.experiment} does not read {', '.join(unread)}")
        for name, default in reads.items():
            if getattr(self, name) is None:
                setattr(self, name, default(self) if callable(default) else default)
        if self.experiment in ("phase", "regime-map") and self.n != self.d:
            raise ConfigError(f"{self.experiment} builds a d x d dictionary: n must equal d "
                              f"(n = {self.n}, d = {self.d})")
        _owned(f"master_seed = {self.master_seed}", check_seed, self.master_seed)
        if self.workers != 1:
            raise ConfigError(f"workers must be 1 (trials run sequentially), got {self.workers}")
        if self.trials_per_cell < 1:
            raise ConfigError("trials_per_cell must be >= 1")
        if self.epsilon is not None:  # read with max_iterations by the experiments that solve
            _owned(f"epsilon = {self.epsilon!r}, max_iterations = {self.max_iterations}",
                   SolverConfig, epsilon=self.epsilon, max_iterations=self.max_iterations)
        for name in [key for key in ("k_sweep", "m_sweep", "d_sweep") if key in reads]:
            sweep = getattr(self, name)
            if not sweep or not all(isinstance(v, int) for v in sweep):
                raise ConfigError(f"{name} must hold integers and not be empty, got {sweep}")
            # the isotonic 50% crossing and the heat-map axes read sweeps in order
            if any(lo >= hi for lo, hi in zip(sweep, sweep[1:])):
                raise ConfigError(f"{name} must be strictly increasing, got {sweep}")
        if self.experiment == "mismatch" and self.recovery_trials < 1:
            raise ConfigError("mismatch needs recovery_trials >= 1")
        self._check_owners()

    def _check_owners(self):
        # the data-free checks the modules that use these settings run first
        if self.experiment != "uncertainty-principle":  # plant k of n columns (d in mismatch)
            key = "k_sweep" if self.experiment == "regime-map" else "k"
            dim = "d" if self.experiment == "mismatch" else "n"
            ks, width = getattr(self, key), getattr(self, dim)
            for k in ks if isinstance(ks, tuple) else (ks,):
                _owned(f"{key} = {ks}, {dim} = {width}", check_sparsity, k, width)
        if self.experiment == "perturbation":  # its exact gamma_2k runs at r = min(2k, n)
            _owned(f"k = {self.k}, n = {self.n}", check_exact, self.n, min(2 * self.k, self.n))
        if self.experiment == "regime-map":
            _owned(f"trials_per_cell = {self.trials_per_cell}", self.thresholds.check_evidence,
                   self.trials_per_cell)
        _owned(f"solvers = {self.solvers}", check_solvers, self.solvers or ())
        for d in self.d_sweep or ():  # uncertainty-principle builds hadamard bases
            _owned(f"d_sweep = {self.d_sweep}", check_dictionary, "hadamard", d)
        if self.basis is not None:
            _owned(f"basis = {self.basis}, d = {self.d}", check_dictionary, self.basis, self.d)
        if self.sensing is not None:
            key, width_key = SENSING_SHAPES[self.experiment]
            value, width = getattr(self, key), getattr(self, width_key)
            for m in value if isinstance(value, tuple) else (value,):
                _owned(f"{key} = {value}, {width_key} = {width}",
                       check_sensing, self.sensing, m, width)


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
        return tuple(range(lo, hi + 1, step))
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
        kwargs["thresholds"] = _owned("[thresholds]", RegimeThresholds, **tkw)

    return ExperimentConfig(**kwargs)


def dump_config(cfg: ExperimentConfig) -> str:
    """The config file text that `load_config` reads back as `cfg`.

    Every field the experiment reads is written, with every threshold
    when it reads them; floats by repr, which parses back to the same
    bits, and `%` doubled for the loader's interpolation.
    """
    def text(value) -> str:
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        return (repr(value) if isinstance(value, float) else str(value)).replace("%", "%%")

    lines = [f"[{cfg.experiment}]"]
    lines += [f"{f.name} = {text(getattr(cfg, f.name))}" for f in dataclasses.fields(cfg)
              if f.name not in ("experiment", "workers", "thresholds")
              and getattr(cfg, f.name) is not None]
    if cfg.thresholds is not None:
        lines += ["", "[thresholds]"]
        lines += [f"{f.name} = {text(getattr(cfg.thresholds, f.name))}"
                  for f in dataclasses.fields(cfg.thresholds)]
    return "\n".join(lines) + "\n"
