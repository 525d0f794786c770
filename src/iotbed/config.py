"""Operator configuration: a small key=value file, overridable by
environment variable and command-line flags."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ValidationError
from .records import load

ENV_CONFIG = "IOTBED_CONFIG"

BACKENDS = ("memory", "loopback")


@dataclass
class CliConfig:
    registry_dir: str = "registry"
    runs_dir: str = "runs"
    score_list_path: str = ""
    vuln_db_path: str = ""
    attack_db_path: str = ""
    default_k: float = 3.0
    default_window_s: float = 5.0
    transport_backend: str = "memory"

    def validate(self) -> None:
        if self.transport_backend not in BACKENDS:
            raise ValidationError(
                f"transport_backend must be one of {BACKENDS}, "
                f"got {self.transport_backend!r}")
        if self.default_k <= 0 or self.default_window_s <= 0:
            raise ValidationError("default_k and default_window_s must be "
                                  "positive")
        for name in ("score_list_path", "vuln_db_path", "attack_db_path"):
            path = getattr(self, name)
            if path and not os.path.exists(path):
                raise ValidationError(f"{name} {path!r} does not exist")


def parse_config(values) -> CliConfig:
    """A validated CliConfig from the key=value pairs of a config file.

    Keys and values are stripped.  An unknown key, or a default_k or
    default_window_s that is not a number, raises ValueError, which
    records.load reports at its line.
    """
    known = {f.name for f in fields(CliConfig)}
    parsed = {}
    for raw_key in values:
        value = values[raw_key].strip()
        key = raw_key.strip()
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
        parsed[key] = float(value) if key in ("default_k",
                                              "default_window_s") else value
    config = CliConfig(**parsed)
    config.validate()
    return config


def load_config(path: str | None = None) -> CliConfig:
    """Load config from an explicit path, $IOTBED_CONFIG, or defaults."""
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return CliConfig()
    return load(path, parse_config)
