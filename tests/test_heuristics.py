"""The counter-based h_add and h_max_cost against the Bellman-Ford reference.

``reference_h`` in ``helpers`` reprices every action in sweeps until nothing
changes; the planner settles facts in cost order with precondition
counters. Both compute the same least fixpoint, so they must agree on every
state. The states come from seeded random walks over the 140 bundled
problems, the seed-1 scale-hadd instances of the benchmark and the numeric
tasks of the numeric golden.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from planwright.ir import (
    ActionSchema,
    And,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    FluentDecl,
    NumAdd,
    NumConst,
    NumericEffect,
    NumFluent,
    ProblemInstance,
    SetEffect,
)
from planwright.planner import ground, h_add, h_max_cost

from helpers import bfs_optimal_plan, random_walk_states, reference_h, refuel_problem
from test_golden import domain_dirs, domain_tasks, numeric_problems

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import scale_instances  # noqa: E402


def assert_matches_reference(task, seeds=range(2), steps: int = 6) -> None:
    for state in random_walk_states(task, seeds=seeds, steps=steps):
        assert h_add(task, *state) == reference_h(task, *state), state
        assert h_max_cost(task, *state) == reference_h(task, *state, combine=max), state


@pytest.mark.parametrize("domain_dir", domain_dirs(), ids=lambda p: p.name)
def test_bundled_problems_match_reference(domain_dir):
    for _, task in domain_tasks(domain_dir):
        assert_matches_reference(task)


def test_scale_instances_match_reference():
    for problem in scale_instances(1):
        assert_matches_reference(ground(problem), seeds=range(1))


def test_numeric_tasks_match_reference():
    for problem in numeric_problems():
        assert_matches_reference(ground(problem), seeds=range(3), steps=30)


def test_h_max_is_a_lower_bound_on_numeric_tasks():
    for problem in numeric_problems():
        oracle = bfs_optimal_plan(problem, max_states=20_000)
        if oracle is not None:
            task = ground(problem)
            assert h_max_cost(task, task.init_bools, task.init_nums) <= len(oracle), problem.name


FUEL = NumFluent("fuel", ())


def _fuel_task(slow: str, fast: str):
    """``a0`` adds p; ``slow`` needs p and adds a unit of fuel; ``fast`` adds
    it with no precondition. The goal is one unit of fuel, from none."""
    one = NumConst(Fraction(1))
    domain = DomainModel(
        "fuel",
        fluents=(FluentDecl("p"), FluentDecl("fuel", (), kind="numeric")),
        actions=(
            ActionSchema("a0", (), And(()), (SetEffect(Atom("p")),)),
            ActionSchema(slow, (), Atom("p"), (NumericEffect("increase", FUEL, one),)),
            ActionSchema(fast, (), And(()), (NumericEffect("increase", FUEL, one),)),
        ),
    )
    init = Assignment.create([], [(FUEL, Fraction(0))])
    return ground(ProblemInstance(domain, (), init, Comparison(">=", FUEL, one), "fuel"))


@pytest.mark.parametrize("slow, fast, fast_index", [("a1-slow", "z-fast", 2), ("a1-slow", "0-fast", 0)])
def test_comparison_priced_at_cheapest_widening_whatever_the_names(slow, fast, fast_index):
    task = _fuel_task(slow, fast)
    assert [a.name for a in task.actions].index(fast) == fast_index
    init = (task.init_bools, task.init_nums)
    assert h_add(task, *init) == h_max_cost(task, *init) == 1
    assert reference_h(task, *init) == reference_h(task, *init, combine=max) == 1


def test_assign_reading_its_own_target_terminates():
    # (assign (fuel) (+ (fuel) 1)) raises the upper bound by one per round
    # of widening; the bound is taken to infinity instead of looping.
    one = NumConst(Fraction(1))
    domain = DomainModel(
        "pump",
        fluents=(FluentDecl("fuel", (), kind="numeric"),),
        actions=(ActionSchema("pump", (), And(()), (NumericEffect("assign", FUEL, NumAdd(FUEL, one)),)),),
    )
    init = Assignment.create([], [(FUEL, Fraction(0))])
    task = ground(ProblemInstance(domain, (), init, Comparison(">=", FUEL, NumConst(Fraction(50))), "pump"))
    assert h_add(task, task.init_bools, task.init_nums) == 1
    assert h_max_cost(task, task.init_bools, task.init_nums) == 1


def test_view_is_compiled_once_per_task():
    task = ground(refuel_problem(0, 1))
    h_add(task, task.init_bools, task.init_nums)
    view = task.relaxed
    h_max_cost(task, task.init_bools, task.init_nums)
    assert task.relaxed is view
