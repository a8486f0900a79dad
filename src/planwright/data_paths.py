"""Locations of the data files shipped inside the package."""
from __future__ import annotations

from importlib import resources
from pathlib import Path


def data_root() -> Path:
    return Path(str(resources.files("planwright"))) / "data"


def benchmarks_root() -> Path:
    return data_root() / "benchmarks"


def scenario_dir(name: str) -> Path:
    return data_root() / "scenarios" / name
