"""Run configuration: defaults, file parsing, and the effective-config echo.

A config file is a flat key-value text file (``key = value``, ``#`` comments).
Each of its lines, and each command line flag after it, goes through
``apply_setting``: a flag takes its key's text and means the same, and a
later value replaces an earlier one. Relative paths resolve against the
config file's directory, or for a flag against the working directory. The
fully resolved configuration is echoed into every output directory so a run
can be reproduced from its artifacts alone. A value that does not parse or
does not pass ``RunConfig``'s checks is a ``UsageError`` naming its line or
its flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .errors import UsageError
from .ingest import LONE_SURROGATE, not_utf8

# The analyst policies, each key's values with its default first: ``RunConfig``
# refuses an unknown one, and no stage checks it again.
POLICIES: dict[str, tuple[str, ...]] = {
    "ambiguity": ("strict", "all"),
    "sds_region_split": ("per-region", "single"),
    "aggregation_na_policy": ("coerce-zero", "renormalize"),
}

ITALIAN_REGIONS: tuple[str, ...] = (
    "Abruzzo",
    "Aosta Valley",
    "Basilicata",
    "Calabria",
    "Campania",
    "Emilia Romagna",
    "Friuli Venezia Giulia",
    "Lazio",
    "Liguria",
    "Lombardy",
    "Marche",
    "Molise",
    "Piedmont",
    "Puglia",
    "Sardinia",
    "Sicily",
    "Trentino Alto Adige",
    "Tuscany",
    "Umbria",
    "Veneto",
)

_PATH_KEYS = ("publications", "organizations", "roster", "taxonomy", "out")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs beyond the input data itself."""

    publications: Path | None = None
    organizations: Path | None = None
    roster: Path | None = None
    taxonomy: Path | None = None
    out: Path = Path("out")
    window: tuple[int, int] | None = None
    regions: tuple[str, ...] = ITALIAN_REGIONS
    ambiguity: str = POLICIES["ambiguity"][0]
    sds_region_split: str = POLICIES["sds_region_split"][0]
    quadrant_share_threshold: float = 0.5
    aggregation_na_policy: str = POLICIES["aggregation_na_policy"][0]
    capacity_multipliers: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, values in POLICIES.items():
            if getattr(self, key) not in values:
                raise UsageError(f"{key} must be one of {', '.join(values)}")
        if not 0.0 < self.quadrant_share_threshold < 1.0:
            raise UsageError("quadrant_share_threshold must lie strictly between 0 and 1")
        if self.window is not None and self.window[0] > self.window[1]:
            raise UsageError(f"window {self.window[0]}:{self.window[1]} is empty")
        # A relative path (the default out) is checked as the absolute path it names.
        paths = {key: getattr(self, key) for key in _PATH_KEYS}
        texts = {key: str(Path(p).absolute()) for key, p in paths.items() if p is not None}
        for key, text in {**texts, "regions": "|".join(self.regions)}.items():
            if LONE_SURROGATE.search(text):
                raise UsageError(f"{key} is not valid UTF-8: {text!r}")
        if not self.regions:
            raise UsageError("the region set must not be empty")
        if len(set(self.regions)) != len(self.regions):
            raise UsageError("the region set contains duplicates")
        for sds, multiplier in self.capacity_multipliers.items():
            if not multiplier > 0:
                raise UsageError(f"capacity multiplier for {sds!r} must be positive")
            if not math.isfinite(multiplier):
                raise UsageError(f"capacity multiplier for {sds!r} is not a finite number")

    def require_inputs(self) -> None:
        keys = ("publications", "organizations", "roster", "taxonomy")
        missing = [key for key in keys if getattr(self, key) is None]
        if missing:
            raise UsageError(f"missing input paths: {', '.join(missing)} (config file or flags)")
        for key in keys:
            path = getattr(self, key)
            if not Path(path).is_file():
                raise UsageError(f"{key} input {path} does not exist or is not a file")


def apply_setting(config: RunConfig, key: str, value: str, base: Path = Path()) -> RunConfig:
    """``config`` with the setting ``key`` parsed from its text ``value``.

    Config file lines and command line flags both come through here, so a
    setting means the same wherever it is given. A relative path resolves
    against ``base``; an empty path or window is unset, back to its default.
    ``RunConfig`` checks the new value.
    """
    value = value.strip()
    try:
        if key in _PATH_KEYS or key == "window":
            if not value:
                parsed: object = getattr(RunConfig, key)  # the field's default
            elif key == "window":
                first, last = value.split(":")
                parsed = int(first), int(last)
            else:
                parsed = (base / value).resolve()
        elif key == "regions":
            parsed = tuple(r.strip() for r in value.split("|") if r.strip())
        elif key in POLICIES:
            parsed = value
        elif key == "quadrant_share_threshold":
            parsed = float(value)
        elif key.startswith("capacity."):
            parsed = {**config.capacity_multipliers, key[len("capacity."):]: float(value)}
            key = "capacity_multipliers"
        elif key == "keep_unresolvable":  # retired: still checked, so older configs load
            if value.lower() not in ("true", "yes", "1", "false", "no", "0"):
                raise UsageError(f"expected a boolean, got {value!r}")
            return config
        else:
            raise UsageError(f"unknown config key {key!r}")
    except ValueError:
        if key in _PATH_KEYS:  # resolve() refuses a NUL byte
            raise UsageError(f"{key} is not a valid path: {value!r}") from None
        form = "look like 2001:2003" if key == "window" else "be a number"
        raise UsageError(f"{key} must {form}, got {value!r}") from None
    return replace(config, **{key: parsed})


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat key-value config file into a RunConfig, line by line.
    A leading UTF-8 byte-order mark is dropped."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError:
        line_no, message = not_utf8(path)
        raise UsageError(f"{path}:{line_no}: {message}") from None
    config = RunConfig()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = line.partition("=")
        try:
            if not equals:
                raise UsageError(f"expected 'key = value', got {line!r}")
            config = apply_setting(config, key.strip(), value, path.parent)
        except UsageError as exc:
            raise UsageError(f"{path}:{line_no}: {exc}") from None
    return config


def dump_config(config: RunConfig) -> str:
    """Serialize the effective configuration, sorted keys, absolute paths."""
    entries: dict[str, str] = {}
    for key in _PATH_KEYS:
        value = getattr(config, key)
        if value is not None:
            entries[key] = str(Path(value).resolve())
    if config.window is not None:
        entries["window"] = f"{config.window[0]}:{config.window[1]}"
    entries["regions"] = "|".join(config.regions)
    entries["ambiguity"] = config.ambiguity
    entries["sds_region_split"] = config.sds_region_split
    entries["quadrant_share_threshold"] = repr(config.quadrant_share_threshold)
    entries["aggregation_na_policy"] = config.aggregation_na_policy
    for sds in sorted(config.capacity_multipliers):
        entries[f"capacity.{sds}"] = repr(config.capacity_multipliers[sds])
    lines = [f"{key} = {value}" for key, value in sorted(entries.items())]
    return "\n".join(lines) + "\n"
