"""Run configuration: backend wiring, schedule and workdir."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .backends import BackendConfig
from .errors import ConfigError
from .records import Measure, from_json

_SCHEDULE_ENTRY = re.compile(r"^(\d+)x(\d+)(?:@(\d+\.?\d*|\.\d+))?$")


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
    workdir: str = ""  # none when empty
    repair: bool = False
    repair_budget: int = 4

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(raw)

    @classmethod
    def from_json(cls, raw) -> "RunConfig":
        return from_json(cls, raw, "run config", ConfigError, strict=True)

    def __post_init__(self):
        if self.repair_budget < 0:
            raise ConfigError("repair_budget must not be negative")

    def backend(self, name: str) -> BackendConfig:
        if name not in self.backends:
            raise ConfigError(f"no backend named {name!r} in config")
        return self.backends[name]

