"""Golden grounding and search outputs for the 140 bundled problems.

``golden/suite_blind.json`` records, for each problem, the number of ground
atoms, the number of ground actions kept after pruning, a sha256 of the kept
``(name, args)`` list in order, and the nodes expanded and plan under
A*/blind. Grounding and search optimisations must keep every row equal; a
change to the file is a behaviour change and is reviewed as one.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from planwright.data_paths import benchmarks_root
from planwright.pddl import parse_domain, parse_problem
from planwright.planner import SolveConfig, ground, solve

GOLDEN = Path(__file__).parent / "golden" / "suite_blind.json"


def actions_digest(actions) -> str:
    names = [[a.name, list(a.args)] for a in actions]
    return hashlib.sha256(json.dumps(names).encode("utf-8")).hexdigest()


def domain_rows(domain_dir: Path) -> list[dict]:
    domain_path = domain_dir / "domain.pddl"
    domain = parse_domain(domain_path.read_text(encoding="utf-8"), filename=str(domain_path))
    rows = []
    for path in sorted(domain_dir.glob("*.pddl")):
        if path.name == "domain.pddl":
            continue
        problem = parse_problem(path.read_text(encoding="utf-8"), domain, filename=path.name)
        task = ground(problem)
        outcome = solve(task, SolveConfig(strategy="astar", heuristic="blind"))
        rows.append(
            {
                "problem": path.name,
                "atoms": len(task.atoms),
                "actions_kept": len(task.actions),
                "actions_sha256": actions_digest(task.actions),
                "status": outcome.status,
                "nodes_expanded": outcome.nodes_expanded,
                "plan": [str(step) for step in outcome.plan.steps] if outcome.plan is not None else None,
            }
        )
    return rows


def domain_dirs() -> list[Path]:
    return sorted(p for p in benchmarks_root().iterdir() if p.is_dir())


@pytest.mark.parametrize("domain_dir", domain_dirs(), ids=lambda p: p.name)
def test_suite_matches_golden(domain_dir):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert domain_rows(domain_dir) == golden[domain_dir.name]


def test_golden_covers_every_bundled_problem():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == [d.name for d in domain_dirs()]
    assert sum(len(rows) for rows in golden.values()) == 140


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {d.name: domain_rows(d) for d in domain_dirs()}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
