"""The compiled search loop against the scan-based reference.

``reference_solve`` in ``helpers`` tests every action in every state through
``GroundAction`` and keeps ``(bools, nums)`` states on a heap; ``solve`` tests
only the compiled entries filed under the state's true atoms and keeps int
states in f buckets. Both must expand the same nodes in the same order, so
``to_json()`` must be equal: status, nodes expanded and plan. The tasks are
the seed-1 to seed-3 scale-hadd instances of the benchmark and the numeric
tasks of the numeric golden (battery grippers and refuel).
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

from planwright.planner import SolveConfig, ground, heuristics, solve

from helpers import bundled_problems, reference_solve
from test_golden import numeric_problems

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import scale_instances  # noqa: E402

# Blind A* proves no scale instance optimal within this budget, so these runs
# end on the node budget after the same expansions.
BLIND_BUDGET = 150


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scale_instances_match_reference(seed):
    for problem in scale_instances(seed):
        task = ground(problem)
        blind = solve(task, SolveConfig(node_budget=BLIND_BUDGET)).to_json()
        assert blind == reference_solve(task, node_budget=BLIND_BUDGET), problem.name
        assert blind["status"] == "budget-exhausted"
        greedy = solve(task, SolveConfig("greedy", "h_add")).to_json()
        assert greedy == reference_solve(task, "greedy", "h_add"), problem.name
        assert greedy["status"] == "plan"


@pytest.mark.parametrize("problem", numeric_problems(), ids=lambda p: f"{p.name}-{p.goal}")
@pytest.mark.parametrize("strategy, heuristic", [("astar", "blind"), ("greedy", "h_add")])
def test_numeric_tasks_match_reference(problem, strategy, heuristic):
    task = ground(problem)
    assert solve(task, SolveConfig(strategy, heuristic)).to_json() == reference_solve(task, strategy, heuristic)


def test_blind_is_looked_up_per_solve(monkeypatch):
    # solve reads the estimate off the `heuristics` module each call, so a
    # wrapper bound there, as the bench tracer binds one, sees every state
    # evaluated: as many as the traced suite-blind workload counts.
    calls = 0
    blind = heuristics.blind

    def counting(*args):
        nonlocal calls
        calls += 1
        return blind(*args)

    monkeypatch.setattr(heuristics, "blind", counting)
    for problem in bundled_problems():
        assert solve(ground(problem)).status == "plan", problem.name
    assert calls == 85_182
