"""Run configuration: one flat JSON-compatible record collecting every
sampler and schedule knob, with strict parsing (unknown keys rejected) and a
stable content hash for manifests."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

TARGETS = ("quadratic", "noisy_quadratic", "banana", "mlp")
SAMPLERS = ("mala", "adammcmc", "adam", "sgd", "sghmc")
CORRECTIONS = ("unit", "full")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(field, message)  # plain args: unpickles from a scan worker

    def __str__(self) -> str:
        return f"config field '{self.args[0]}': {self.args[1]}"


# Accepted Python types per field annotation; bool is rejected separately,
# since it is an int subclass.  Only "float | None" fields may be null.
_FIELD_TYPES = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float), "a number or null"),
}


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass
class RunConfig:
    """Flat experiment configuration.  Every field has a default.

    sigma_dir = None resolves to dim/100 at build time (so the directional
    default scales with the parameter count).  The full correction's
    momentum variances are s_l^2 = rho_l^2 / (1 - beta_l^2) when rho1 and
    rho2 are set (they are set together), and both s_sq otherwise.
    """

    target: str = "quadratic"
    dim: int = 2
    dataset: str = ""
    sampler: str = "adammcmc"
    lam: float = 1.0
    gamma: float = 1e-3
    sigma: float = 2.0
    sigma_dir: float | None = None
    beta1: float = 0.99
    beta2: float = 0.99
    delta: float = 1e-8
    prior_half_width: float = 100.0
    steps: int = 20000
    burn_in: int = 10000
    gap: int = 1000
    n_samples: int = 10
    batch_size: int = 0
    correction: str = "unit"
    s_sq: float = 1e-4
    rho1: float | None = None
    rho2: float | None = None
    friction: float = 0.05
    noise_scale: float = 1.0
    seed: int = 0
    out_dir: str = "runs"

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.type == "float | None":
                continue
            types, noun = _FIELD_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f.name, f"must be {noun}, got {value!r}")
            if f.type.startswith("float") and not _is_finite(value):
                raise ConfigError(f.name, f"must be finite, got {value!r}")
        if self.target not in TARGETS:
            raise ConfigError("target", f"must be one of {TARGETS}, got {self.target!r}")
        if self.sampler not in SAMPLERS:
            raise ConfigError("sampler", f"must be one of {SAMPLERS}, got {self.sampler!r}")
        if self.correction not in CORRECTIONS:
            raise ConfigError("correction", f"must be one of {CORRECTIONS}, got {self.correction!r}")
        if self.dim < 1:
            raise ConfigError("dim", f"must be a positive integer, got {self.dim}")
        if self.target == "banana" and self.dim < 2:
            raise ConfigError("dim", "banana target needs dim >= 2")
        if not self.lam > 0:
            raise ConfigError("lam", f"must be positive, got {self.lam}")
        if not self.gamma > 0:
            raise ConfigError("gamma", f"must be positive, got {self.gamma}")
        if not self.sigma > 0:
            raise ConfigError("sigma", f"must be positive, got {self.sigma}")
        if self.sigma_dir is not None and self.sigma_dir < 0:
            raise ConfigError("sigma_dir", f"must be non-negative, got {self.sigma_dir}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(name, f"must lie in [0, 1), got {value}")
        if not self.delta > 0:
            raise ConfigError("delta", f"must be positive, got {self.delta}")
        if not self.prior_half_width > 0:
            raise ConfigError("prior_half_width", f"must be positive, got {self.prior_half_width}")
        if self.steps < 1:
            raise ConfigError("steps", f"must be >= 1, got {self.steps}")
        if self.burn_in < 0:
            raise ConfigError("burn_in", f"must be >= 0, got {self.burn_in}")
        if self.gap < 1:
            raise ConfigError("gap", f"must be >= 1, got {self.gap}")
        if self.n_samples < 1:
            raise ConfigError("n_samples", f"must be >= 1, got {self.n_samples}")
        if self.burn_in + self.n_samples * self.gap > self.steps:
            raise ConfigError(
                "steps",
                f"burn_in + n_samples * gap = {self.burn_in + self.n_samples * self.gap} "
                f"exceeds steps = {self.steps}",
            )
        if self.batch_size < 0:
            raise ConfigError("batch_size", f"must be >= 0 (0 = full batch), got {self.batch_size}")
        if not self.s_sq > 0:
            raise ConfigError("s_sq", f"must be positive, got {self.s_sq}")
        for name in ("rho1", "rho2"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(name, f"must be positive when set, got {value}")
        if (self.rho1 is None) != (self.rho2 is None):
            unset, given = ("rho1", "rho2") if self.rho1 is None else ("rho2", "rho1")
            raise ConfigError(unset, f"must be set together with {given}")
        if not 0.0 <= self.friction <= 1.0:
            raise ConfigError("friction", f"must lie in [0, 1], got {self.friction}")
        if self.noise_scale < 0:
            raise ConfigError("noise_scale", f"must be non-negative, got {self.noise_scale}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be a non-negative integer, got {self.seed}")
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(unknown[0], "unknown config key")
        cfg = cls(**data)
        return cfg.validate()

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("<json>", f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("<json>", "top level must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def config_hash(self) -> str:
        """Content hash of the experiment; where outputs land is excluded."""
        payload = self.as_dict()
        payload.pop("out_dir")
        compact = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(compact.encode()).hexdigest()

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes).validate()
