"""Run configuration: backend wiring, schedule, seeding, and workdir."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .backends import BackendConfig
from .errors import ConfigError
from .records import Measure

_SCHEDULE_ENTRY = re.compile(r"^(\d+)x(\d+)(?:@([0-9.]+))?$")


def parse_schedule(spec: str, default_temperature: float = 1.0) -> list[tuple[int, float]]:
    """Expand a schedule string like '64x6,1024x2@1.5' into (k, temperature)
    pairs, one per iteration."""
    schedule = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        m = _SCHEDULE_ENTRY.match(part)
        if not m:
            raise ConfigError(f"bad schedule entry {part!r}, expected KxN or KxN@T")
        k, reps = int(m.group(1)), int(m.group(2))
        temperature = float(m.group(3)) if m.group(3) else default_temperature
        if k < 1 or reps < 1:
            raise ConfigError(f"schedule entry {part!r} needs positive k and count")
        schedule.extend((k, temperature) for _ in range(reps))
    if not schedule:
        raise ConfigError("empty schedule")
    return schedule


@dataclass
class RunConfig:
    backends: dict[str, BackendConfig] = field(default_factory=dict)
    schedule: str = "4x2"
    measure: Measure = Measure.TOKEN_LENGTH
    parallel_workers: int = 1
    seed: int = 0
    workdir: Path | None = None
    repair: bool = False
    repair_budget: int = 4

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(raw)

    @classmethod
    def from_json(cls, raw) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a run config is a JSON object, not {raw!r}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
        backends = raw.get("backends", {})
        if not isinstance(backends, dict):
            raise ConfigError(f"backends must be an object of named backends, not {backends!r}")
        try:
            measure = Measure(raw.get("measure", "length"))
        except ValueError as exc:
            raise ConfigError(f"unknown measure {raw.get('measure')!r}") from exc
        cfg = cls(
            backends={name: BackendConfig.from_json(obj) for name, obj in backends.items()},
            schedule=_str(raw, "schedule", "4x2"),
            measure=measure,
            parallel_workers=_int(raw, "parallel_workers", 1),
            seed=_int(raw, "seed", 0),
            workdir=Path(_str(raw, "workdir", "")) if raw.get("workdir") else None,
            repair=_bool(raw, "repair", False),
            repair_budget=_int(raw, "repair_budget", 4),
        )
        cfg.check()
        return cfg

    def check(self) -> None:
        """Raise ConfigError for a value out of range. The CLI runs it again
        after its command-line overrides."""
        if self.parallel_workers < 1:
            raise ConfigError("parallel_workers must be at least 1")
        if self.repair_budget < 0:
            raise ConfigError("repair_budget must not be negative")

    def backend(self, name: str) -> BackendConfig:
        if name not in self.backends:
            raise ConfigError(f"no backend named {name!r} in config")
        return self.backends[name]

    def apply_seed(self) -> None:
        """Push the run seed into mock backends that did not set their own."""
        for cfg in self.backends.values():
            if cfg.kind == "mock" and "seed" not in cfg.options:
                cfg.options["seed"] = self.seed


def _int(raw: dict, key: str, default: int) -> int:
    """raw[key], or default when absent, as an int; int() decides, so "2"
    is taken as 2."""
    value = raw.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, not {value!r}") from None


def _bool(raw: dict, key: str, default: bool) -> bool:
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, not {value!r}")
    return value


def _str(raw: dict, key: str, default: str) -> str:
    value = raw.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, not {value!r}")
    return value
