"""Golden grounding and search outputs for the 140 bundled problems.

``golden/suite_blind.json`` records, for each problem, the number of ground
atoms (those that the goal and the instantiated actions name), the number
of ground actions kept after pruning, a sha256 of the kept
``(name, args)`` list in order, and the nodes expanded and plan under
A*/blind. ``golden/suite_hadd.json`` records, for each problem, the status,
nodes expanded and plan under greedy/h_add, and ``h_add`` and ``h_max_cost``
at the initial state. ``golden/numeric.json`` covers numeric tasks, which no
bundled problem has: battery grippers at several initial levels and floors,
and the refuel domain of ``helpers``. Each row holds the greedy/h_add
status, nodes expanded and plan, and ``[h_add, h_max_cost]`` at every state
of a seeded random walk from the initial state. Grounding, search and
heuristic optimisations must keep every row equal; a change to any of these
files is a behaviour change and is reviewed as one.

Regenerate all three files with ``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from planwright.data_paths import benchmarks_root
from planwright.pddl import parse_domain, parse_problem
from planwright.planner import SolveConfig, ground, h_add, h_max_cost, solve

from helpers import random_walk_states, refuel_problem
from test_planner import battery_problem

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "suite_blind.json"
GOLDEN_HADD = GOLDEN_DIR / "suite_hadd.json"
GOLDEN_NUMERIC = GOLDEN_DIR / "numeric.json"
GREEDY_HADD = SolveConfig(strategy="greedy", heuristic="h_add")


def actions_digest(actions) -> str:
    names = [[a.name, list(a.args)] for a in actions]
    return hashlib.sha256(json.dumps(names).encode("utf-8")).hexdigest()


def plan_steps(outcome):
    return [str(step) for step in outcome.plan.steps] if outcome.plan is not None else None


def domain_tasks(domain_dir: Path):
    """(problem file name, ground task) for every problem of one domain, in name order."""
    domain_path = domain_dir / "domain.pddl"
    domain = parse_domain(domain_path.read_text(encoding="utf-8"), filename=str(domain_path))
    for path in sorted(domain_dir.glob("*.pddl")):
        if path.name == "domain.pddl":
            continue
        problem = parse_problem(path.read_text(encoding="utf-8"), domain, filename=path.name)
        yield path.name, ground(problem)


def domain_rows(domain_dir: Path) -> list[dict]:
    rows = []
    for name, task in domain_tasks(domain_dir):
        outcome = solve(task, SolveConfig(strategy="astar", heuristic="blind"))
        rows.append(
            {
                "problem": name,
                "atoms": len(task.atoms),
                "actions_kept": len(task.actions),
                "actions_sha256": actions_digest(task.actions),
                "status": outcome.status,
                "nodes_expanded": outcome.nodes_expanded,
                "plan": plan_steps(outcome),
            }
        )
    return rows


def domain_hadd_rows(domain_dir: Path) -> list[dict]:
    rows = []
    for name, task in domain_tasks(domain_dir):
        outcome = solve(task, GREEDY_HADD)
        rows.append(
            {
                "problem": name,
                "status": outcome.status,
                "nodes_expanded": outcome.nodes_expanded,
                "plan": plan_steps(outcome),
                "h_add": h_add(task, task.init_bools, task.init_nums),
                "h_max_cost": h_max_cost(task, task.init_bools, task.init_nums),
            }
        )
    return rows


def numeric_problems() -> list:
    battery = [battery_problem(initial, floor=floor) for initial in (0, 10, 20, 30, 45) for floor in (5, 20)]
    battery.append(battery_problem(30, goal_room="room1", floor=25))
    refuel = [refuel_problem(fuel, goal) for fuel, goal in ((0, 1), (0, "capacity"), (3, 2), (1, 5), (0, 6), (2, 0))]
    return battery + refuel


def numeric_rows() -> list[dict]:
    rows = []
    for problem in numeric_problems():
        task = ground(problem)
        outcome = solve(task, GREEDY_HADD)
        walk = random_walk_states(task, seeds=range(3), steps=30)
        rows.append(
            {
                "problem": f"{problem.name}-{problem.goal}",
                "status": outcome.status,
                "nodes_expanded": outcome.nodes_expanded,
                "plan": plan_steps(outcome),
                "h": [[h_add(task, *state), h_max_cost(task, *state)] for state in walk],
            }
        )
    return rows


def domain_dirs() -> list[Path]:
    return sorted(p for p in benchmarks_root().iterdir() if p.is_dir())


@pytest.mark.parametrize("domain_dir", domain_dirs(), ids=lambda p: p.name)
def test_suite_matches_golden(domain_dir):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert domain_rows(domain_dir) == golden[domain_dir.name]


@pytest.mark.parametrize("domain_dir", domain_dirs(), ids=lambda p: p.name)
def test_suite_matches_hadd_golden(domain_dir):
    golden = json.loads(GOLDEN_HADD.read_text(encoding="utf-8"))
    assert domain_hadd_rows(domain_dir) == golden[domain_dir.name]


def test_numeric_tasks_match_golden():
    golden = json.loads(GOLDEN_NUMERIC.read_text(encoding="utf-8"))
    assert numeric_rows() == golden


def assert_covers_every_bundled_problem(path: Path) -> None:
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(golden) == [d.name for d in domain_dirs()]
    assert sum(len(rows) for rows in golden.values()) == 140


def test_golden_covers_every_bundled_problem():
    assert_covers_every_bundled_problem(GOLDEN)


def test_hadd_golden_covers_every_bundled_problem():
    assert_covers_every_bundled_problem(GOLDEN_HADD)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path, rows_of in ((GOLDEN, domain_rows), (GOLDEN_HADD, domain_hadd_rows)):
        table = {d.name: rows_of(d) for d in domain_dirs()}
        path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    GOLDEN_NUMERIC.write_text(json.dumps(numeric_rows(), indent=1) + "\n", encoding="utf-8")
