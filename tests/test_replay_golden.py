"""Golden run directories of one replay round of the shipped scenarios.

``golden/replay_tree.json`` holds, for each run directory of one round, its
exit code and its ``normalized_tree``: the five replayed ``plan`` scenarios
and the fridge_recall ``execute``, run in one directory with relative
``--out-dir`` paths, as the replay benchmark runs them. The manifest config
names the bundled input files by absolute path, so the data directory is
written as ``<data>`` and the golden does not depend on where the package
sits. "Same outputs" means these bytes: a change to any layer a replay
reaches must keep every file equal.

Regenerate with ``PYTHONPATH=src python tests/test_replay_golden.py``.
"""
from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from planwright.cli import main
from planwright.data_paths import data_root, scenario_dir
from planwright.runs import normalized_tree

GOLDEN = Path(__file__).parent / "golden" / "replay_tree.json"
PLACEHOLDER = "<data>"
SCENARIOS = ("always_failing", "color", "fridge_recall", "fridge_store", "size_tower")


def _plan_argv(scenario: str) -> list[str]:
    d = scenario_dir(scenario)
    argv = ["plan", "--task", str(d / "task.json"), "--mode", "replay", "--fixture", str(d / "fixture.json"), "--out-dir", scenario]
    if (d / "answers.json").exists():
        argv += ["--answers-file", str(d / "answers.json")]
    if (d / "domain.pddl").exists():
        argv += ["--domain", str(d / "domain.pddl")]
    if scenario in ("fridge_store", "fridge_recall"):
        argv += ["--memory-store", f"{scenario}/memory.jsonl"]
    return argv


def _execute_argv() -> list[str]:
    d = scenario_dir("fridge_recall")
    return [
        "execute", "--artifacts", "fridge_recall", "--world", str(d / "world.json"),
        "--mode", "replay", "--fixture", str(d / "exec_fixture.json"), "--out-dir", "execute",
    ]


def replay_round(root: Path) -> dict[str, dict]:
    """Run one round in ``root``; map each run directory to its exit code and
    normalized tree, with the data directory replaced by the placeholder."""
    (root / "fridge_recall").mkdir(parents=True)
    shutil.copyfile(scenario_dir("fridge_recall") / "memory.jsonl", root / "fridge_recall" / "memory.jsonl")
    runs = [(scenario, _plan_argv(scenario)) for scenario in SCENARIOS] + [("execute", _execute_argv())]
    data = json.dumps(str(data_root()))[1:-1]  # as it appears inside a JSON string
    home = Path.cwd()
    os.chdir(root)
    try:
        codes = {name: main(argv) for name, argv in runs}
    finally:
        os.chdir(home)
    return {
        name: {
            "exit_code": codes[name],
            "tree": {rel: text.replace(data, PLACEHOLDER) for rel, text in normalized_tree(root / name).items()},
        }
        for name, _ in runs
    }


def test_replay_round_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = replay_round(tmp_path / "round")
    assert actual.keys() == golden.keys()
    for name in golden:
        assert actual[name]["exit_code"] == golden[name]["exit_code"], name
        assert actual[name]["tree"].keys() == golden[name]["tree"].keys(), name
        for rel, text in golden[name]["tree"].items():
            assert actual[name]["tree"][rel] == text, f"{name}/{rel} differs from the golden"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        rows = replay_round(Path(scratch) / "round")
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n", encoding="utf-8")
