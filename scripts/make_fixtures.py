#!/usr/bin/env python3
"""Regenerate the bundled scenario fixtures from the canonical scripts."""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scenarios import write_scenario_files

DATA = Path(__file__).resolve().parents[1] / "src" / "planwright" / "data"


def main() -> None:
    for path in write_scenario_files(DATA / "scenarios"):
        print(path.relative_to(DATA.parent))


if __name__ == "__main__":
    main()
