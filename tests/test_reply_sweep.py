"""Every shipped agent reply, replaced in turn by a malformed one.

A replayed run whose reply was swapped either diverges from its fixture
(exit 70, ``fixture-divergence``) or treats the bad reply the way an agent
reply is treated: correction feedback, a critic rejection, a rejected
upstream request or a validator retry. It must never end in an
``internal`` failure or escape ``main`` with an exception.
"""
from __future__ import annotations

import json
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Optional

import pytest

from planwright.cli import main
from planwright.data_paths import scenario_dir

PLAN_SCENARIOS = ("color", "size_tower", "fridge_store", "always_failing", "fridge_recall")

VARIANTS = (
    "[]",
    '"apply"',
    "null",
    "5",
    "not json",
    "```json\n[]\n```",
    '{"objects": 5}',
    '{"objects": [{"name": 5}]}',
    '{"goal": 3, "init": []}',
    '{"init": {"booleans": 5}}',
    '{"decision": 5}',
    # nested past the JSON reader's depth limit and past what `json.loads`
    # can recurse through
    '{"objects": ' + "[" * 5000 + "]" * 5000 + "}",
    # an integer past the interpreter's int-string digit limit
    '{"objects": ' + "1" * 5000 + "}",
)


def _float_variant(content: str) -> Optional[str]:
    """The reply with its first numeric ``"value"`` written as a JSON float,
    or None when the reply holds no numeric value."""
    try:
        data = json.loads(content)
    except json.JSONDecodeError:
        return None

    def visit(node: Any) -> bool:
        if isinstance(node, dict):
            raw = node.get("value")
            if isinstance(raw, (int, str)) and not isinstance(raw, bool):
                try:
                    node["value"] = float(Fraction(raw))
                    return True
                except (ValueError, ZeroDivisionError):
                    pass
            return any(visit(child) for child in node.values())
        if isinstance(node, list):
            return any(visit(child) for child in node)
        return False

    return json.dumps(data) if visit(data) else None


def mutants(fixture: Path) -> Iterator[tuple[int, str, dict]]:
    """(exchange index, replacement reply, mutated transcript) for every
    exchange of ``fixture`` and every variant that applies to it."""
    data = json.loads(fixture.read_text(encoding="utf-8"))
    exchanges = data["exchanges"]
    for i, exchange in enumerate(exchanges):
        replies = list(VARIANTS)
        floated = _float_variant(exchange["response"].get("content", ""))
        if floated is not None:
            replies.append(floated)
        for reply in replies:
            swapped = {"fingerprint": exchange["fingerprint"], "response": {"role": "assistant", "content": reply}}
            yield i, reply, {**data, "exchanges": exchanges[:i] + [swapped] + exchanges[i + 1 :]}


def plan_argv(scenario: str, fixture: Path, out: Path) -> list[str]:
    d = scenario_dir(scenario)
    argv = ["plan", "--task", str(d / "task.json"), "--mode", "replay", "--fixture", str(fixture), "--out-dir", str(out)]
    if (d / "answers.json").exists():
        argv += ["--answers-file", str(d / "answers.json")]
    if (d / "domain.pddl").exists():
        argv += ["--domain", str(d / "domain.pddl")]
    if (d / "memory.jsonl").exists():
        # a private copy, so no run writes into the bundled store
        shutil.copy(d / "memory.jsonl", out.parent / "memory.jsonl")
        argv += ["--memory-store", str(out.parent / "memory.jsonl")]
    elif scenario == "fridge_store":
        argv += ["--memory-store", str(out / "memory.jsonl")]
    return argv


def crash_of(argv: list[str], out: Path) -> Optional[str]:
    """Why the run crashed, or None when it ended on a mapped exit code."""
    try:
        code = main(argv)
    except Exception as exc:  # the finding this test exists to report
        return f"{type(exc).__name__} escaped main: {exc}"
    failure = out / "failure.json"
    if failure.exists():
        record = json.loads(failure.read_text(encoding="utf-8"))
        if record["stage"] == "internal":
            return f"exit {code}, internal failure {record['code']}: {record['message']}"
    if not (out / "manifest.json").exists():
        return f"exit {code} without a manifest"
    return None


def sweep(fixture: Path, argv_for, tmp_path: Path) -> list[str]:
    crashes = []
    for n, (i, reply, transcript) in enumerate(mutants(fixture)):
        run = tmp_path / str(n)
        run.mkdir()
        mutated = run / "fixture.json"
        mutated.write_text(json.dumps(transcript), encoding="utf-8")
        out = run / "out"
        crash = crash_of(argv_for(mutated, out), out)
        if crash is not None:
            crashes.append(f"exchange {i}, reply {reply[:40]!r}: {crash}")
    return crashes


@pytest.mark.parametrize("scenario", PLAN_SCENARIOS)
def test_no_malformed_plan_reply_crashes(tmp_path, scenario):
    fixture = scenario_dir(scenario) / "fixture.json"
    assert sweep(fixture, lambda mutated, out: plan_argv(scenario, mutated, out), tmp_path) == []


def test_no_malformed_execute_reply_crashes(tmp_path):
    d = scenario_dir("fridge_recall")
    artifacts = tmp_path / "plan"
    artifacts.mkdir()
    assert main(plan_argv("fridge_recall", d / "fixture.json", artifacts / "out")) == 0

    def argv(mutated: Path, out: Path) -> list[str]:
        return [
            "execute", "--artifacts", str(artifacts / "out"), "--world", str(d / "world.json"),
            "--mode", "replay", "--fixture", str(mutated), "--out-dir", str(out),
        ]

    sweeps = tmp_path / "sweep"
    sweeps.mkdir()
    assert sweep(d / "exec_fixture.json", argv, sweeps) == []
