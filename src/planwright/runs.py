"""Per-run artifact directories with a manifest.

Every command writes its artifacts under one directory and finishes by
writing ``manifest.json``: the command, a config snapshot, wall-clock
timings, the file list, and the exit status. It first clears the files
that it and the record write, so a directory holds the files of one run.
Content files are fully deterministic; everything time-dependent lives in
the manifest so replay comparisons can normalize a single file.
"""
from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from .ir import jsonio

MANIFEST_NAME = "manifest.json"
FAILURE_NAME = "failure.json"

# Manifest keys that carry wall-clock data and are normalized when
# comparing run directories for replay determinism.
VOLATILE_MANIFEST_KEYS = ("created_at", "timings")


class RunDirectory:
    def __init__(self, path: Union[str, Path], command: str):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._resolved = os.path.realpath(self.path)
        self.command = command
        self.config_snapshot: dict = {}
        self.created_at = datetime.now(timezone.utc).isoformat()
        self.timings: dict[str, float] = {}
        self._t0: dict[str, float] = {}

    # -- timing ------------------------------------------------------------

    def start(self, stage: str) -> None:
        self._t0[stage] = time.monotonic()

    def stop(self, stage: str) -> None:
        if stage in self._t0:
            self.timings[stage] = time.monotonic() - self._t0.pop(stage)

    # -- artifacts -----------------------------------------------------------

    def clear(self, names: Iterable[str]) -> None:
        """Remove each regular file among ``names``, ``failure.json`` and
        ``manifest.json``. Any other file stays, and so does a directory where
        one of these files goes: the write to it fails later."""
        for name in (*names, FAILURE_NAME, MANIFEST_NAME):
            target = self.path / name
            if target.is_file():
                target.unlink()

    def write_text(self, name: str, text: str) -> Path:
        target = self.path / name
        target.write_text(text, encoding="utf-8")
        return target

    def write_json(self, name: str, payload: Any) -> Path:
        return self.write_text(name, jsonio.dumps(payload))

    def fail(self, stage: str, code: str, message: str) -> None:
        self.write_json(FAILURE_NAME, {"stage": stage, "code": code, "message": message})

    def relative_to_run(self, value: Union[str, Path, None]) -> Optional[str]:
        """Paths inside the run dir are stored relative so two runs of the
        same scenario produce comparable manifests ("." for the directory
        itself); any other path is kept as given. Symlinks are resolved by
        `os.path.realpath`, which never raises, so a path that loops still
        makes a manifest."""
        if value is None:
            return None
        real = os.path.realpath(value)
        if os.path.commonpath((real, self._resolved)) == self._resolved:
            return os.path.relpath(real, self._resolved)
        return str(Path(value))

    def finalize(self, exit_code: int) -> Path:
        files = sorted(
            str(p.relative_to(self.path))
            for p in self.path.rglob("*")
            if p.is_file() and p.name != MANIFEST_NAME
        )
        manifest = {
            "command": self.command,
            "config": self.config_snapshot,
            "created_at": self.created_at,
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
            "files": files,
            "exit_code": exit_code,
        }
        return self.write_json(MANIFEST_NAME, manifest)


def normalized_tree(path: Union[str, Path]) -> dict[str, str]:
    """Map of relative file path to content, with volatile manifest fields
    blanked; used to compare run directories byte for byte."""
    root = Path(path)
    tree: dict[str, str] = {}
    for file in sorted(root.rglob("*")):
        if not file.is_file():
            continue
        rel = str(file.relative_to(root))
        text = file.read_text(encoding="utf-8")
        if file.name == MANIFEST_NAME:
            data = jsonio.loads(text)
            for key in VOLATILE_MANIFEST_KEYS:
                data.pop(key, None)
            text = json.dumps(data, indent=2, sort_keys=True)
        tree[rel] = text
    return tree
