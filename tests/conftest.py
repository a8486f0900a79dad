"""Put ``scripts/`` on the import path, so tests can import the scenario
scripts that author the bundled fixtures (``scripts/scenarios.py``)."""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
