"""Run configuration: defaults, file parsing, and the effective-config echo.

A config file is a flat key-value text file (``key = value``, ``#`` comments).
Relative paths are resolved against the directory of the config file itself.
Command line flags override file values; the fully resolved configuration is
echoed into every output directory so a run can be reproduced from its
artifacts alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .collab import SDS_REGION_SPLITS
from .errors import UsageError
from .indicators import AGGREGATION_NA_POLICIES
from .ingest import not_utf8
from .resolve import AMBIGUITY_POLICIES

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
    ambiguity: str = "strict"
    sds_region_split: str = "per-region"
    quadrant_share_threshold: float = 0.5
    aggregation_na_policy: str = "coerce-zero"
    capacity_multipliers: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ambiguity not in AMBIGUITY_POLICIES:
            raise UsageError(f"ambiguity must be one of {', '.join(AMBIGUITY_POLICIES)}")
        if self.sds_region_split not in SDS_REGION_SPLITS:
            raise UsageError(f"sds_region_split must be one of {', '.join(SDS_REGION_SPLITS)}")
        if self.aggregation_na_policy not in AGGREGATION_NA_POLICIES:
            raise UsageError(
                f"aggregation_na_policy must be one of {', '.join(AGGREGATION_NA_POLICIES)}"
            )
        if not 0.0 < self.quadrant_share_threshold < 1.0:
            raise UsageError("quadrant_share_threshold must lie strictly between 0 and 1")
        if self.window is not None and self.window[0] > self.window[1]:
            raise UsageError(f"window {self.window[0]}:{self.window[1]} is empty")
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


def _parse_window(value: str) -> tuple[int, int]:
    try:
        first, last = value.split(":")
        return int(first), int(last)
    except ValueError as exc:
        raise UsageError(f"window must look like 2001:2003, got {value!r}") from exc


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise UsageError(f"expected a boolean, got {value!r}")


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat key-value config file into a RunConfig."""
    path = Path(path)
    base = path.parent
    values: dict[str, object] = {}
    capacity: dict[str, float] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError:
        line_no, message = not_utf8(path)
        raise UsageError(f"{path}:{line_no}: {message}") from None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _PATH_KEYS:
            values[key] = (base / value).resolve() if value else None
        elif key == "window":
            values[key] = _parse_window(value) if value else None
        elif key == "regions":
            values[key] = tuple(r.strip() for r in value.split("|") if r.strip())
        elif key in ("ambiguity", "sds_region_split", "aggregation_na_policy"):
            values[key] = value
        elif key == "quadrant_share_threshold":
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: {key} must be a number") from exc
        elif key == "keep_unresolvable":
            _parse_bool(value)  # retired: still checked, so older configs load; no effect
        elif key.startswith("capacity."):
            sds = key[len("capacity."):]
            try:
                capacity[sds] = float(value)
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: capacity multiplier must be a number") from exc
        else:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
    if capacity:
        values["capacity_multipliers"] = capacity
    return RunConfig(**values)  # type: ignore[arg-type]


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


def with_overrides(
    config: RunConfig,
    *,
    publications: str | None = None,
    organizations: str | None = None,
    roster: str | None = None,
    taxonomy: str | None = None,
    out: str | None = None,
    window: str | None = None,
    regions: str | None = None,
    ambiguity: str | None = None,
    share_threshold: float | None = None,
) -> RunConfig:
    """Apply command line overrides on top of a loaded config; flags win."""
    updates: dict[str, object] = {}
    for key, value in (
        ("publications", publications),
        ("organizations", organizations),
        ("roster", roster),
        ("taxonomy", taxonomy),
        ("out", out),
    ):
        if value is not None:
            updates[key] = Path(value).resolve()
    if window is not None:
        updates["window"] = _parse_window(window)
    if regions is not None:
        updates["regions"] = tuple(r.strip() for r in regions.split("|") if r.strip())
    if ambiguity is not None:
        updates["ambiguity"] = ambiguity
    if share_threshold is not None:
        updates["quadrant_share_threshold"] = share_threshold
    return replace(config, **updates) if updates else config
