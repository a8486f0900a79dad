"""The counter-based h_add and h_max_cost against the Bellman-Ford reference.

``reference_h`` in ``helpers`` reprices every action in sweeps until nothing
changes; the planner settles facts in cost order with precondition
counters. Both compute the same least fixpoint, so they must agree on every
state. The states come from seeded random walks over the 140 bundled
problems, the seed-1 scale-hadd instances of the benchmark and the numeric
tasks of the numeric golden.
"""
from __future__ import annotations

import random
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
    Not,
    Or,
    ProblemInstance,
    SetEffect,
)
from planwright.domains import blocksworld_problem
from planwright.planner import Plan, SolveConfig, SolveResult, blind, ground, h_add, h_max_cost, solve
from planwright.planner.heuristics import INF

from helpers import bfs_optimal_plan, branch_holds, random_walk_states, reference_h, refuel_problem
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


def goal_states_estimate_zero(task, states) -> int:
    """Assert that every estimate is 0 in exactly the goal states among
    ``states``, which lets search take h == 0 as its goal test; return how
    many goal states there were."""
    hits = 0
    for bools, nums in states:
        holds = any(branch_holds(*branch, bools, nums) for branch in task.goal)
        hits += holds
        assert blind(task, bools, nums) == (0 if holds else 1 if task.goal else INF), (bools, nums)
        for estimate in (h_add, h_max_cost):
            assert (estimate(task, bools, nums) == 0) == holds, (estimate.__name__, bools, nums)
    return hits


def _towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    order = rng.sample(blocks, len(blocks))
    cuts = sorted(rng.sample(range(1, len(blocks)), rng.randrange(len(blocks))))
    return [order[i:j] for i, j in zip([0, *cuts], [*cuts, len(blocks)])]


@pytest.mark.parametrize("seed", range(3))
def test_goal_states_estimate_zero_on_seeded_blocksworld(seed):
    # Three blocks have 13 states, so the walks reach the goal.
    rng = random.Random(seed)
    blocks = ["b1", "b2", "b3"]
    task = ground(blocksworld_problem(f"bw-{seed}", _towers(rng, blocks), _towers(rng, blocks)))
    assert goal_states_estimate_zero(task, random_walk_states(task, seeds=range(5), steps=40))


def test_goal_states_estimate_zero_on_numeric_tasks():
    hits = sum(
        goal_states_estimate_zero(task, random_walk_states(task, seeds=range(5), steps=40))
        for task in map(ground, numeric_problems())
    )
    assert hits


@pytest.mark.parametrize(
    "goal",
    [
        Atom("on", ("b2", "b1")),  # already true
        Or((And(()), Atom("on", ("b1", "b2")))),  # a free branch
    ],
    ids=["already-true", "free-branch"],
)
def test_goal_true_from_the_start_estimates_zero(goal):
    base = blocksworld_problem("bw", [["b1", "b2"], ["b3"]], [])
    task = ground(ProblemInstance(base.domain, base.objects, base.init, goal))
    states = random_walk_states(task, seeds=range(3), steps=20)
    hits = goal_states_estimate_zero(task, states)
    assert hits >= 1
    if isinstance(goal, Or):
        assert task.relaxed.free_goal and hits == len(states)


REFUEL = [refuel_problem(fuel, goal) for fuel in range(6) for goal in (0, 2, "capacity")]


def plan_end(task, plan):
    """The state that ``plan`` reaches from the task's initial state."""
    actions = {(a.name, a.args): a for a in task.actions}
    state = (task.init_bools, task.init_nums)
    for step in plan.steps:
        state = actions[(step.name, step.args)].apply(*state)
    return state


def _bundled_and_refuel_tasks():
    return [task for d in domain_dirs() for _, task in domain_tasks(d)] + [ground(p) for p in REFUEL]


def test_estimates_are_zero_exactly_in_goal_states_on_random_walks():
    tasks = _bundled_and_refuel_tasks()
    assert len(tasks) == 158
    assert sum(goal_states_estimate_zero(t, random_walk_states(t)) for t in tasks)


def test_estimates_are_zero_at_every_plan_end():
    tasks = _bundled_and_refuel_tasks()
    for task in tasks:
        outcome = solve(task, SolveConfig("greedy", "h_add"))
        assert outcome.status == "plan"
        assert goal_states_estimate_zero(task, [plan_end(task, outcome.plan)]) == 1


def test_goal_with_no_satisfiable_branch_is_unsolvable_without_expanding():
    base = blocksworld_problem("bw", [["b1", "b2"], ["b3"]], [])
    p = Atom("on", ("b2", "b1"))
    task = ground(ProblemInstance(base.domain, base.objects, base.init, And((p, Not(p)))))
    init = (task.init_bools, task.init_nums)
    assert h_add(task, *init) == h_max_cost(task, *init) == blind(task, *init) == INF
    goal_states_estimate_zero(task, random_walk_states(task))
    assert solve(task, SolveConfig("greedy", "h_add")) == SolveResult("unsolvable", None, 0)
    assert solve(task) == SolveResult("unsolvable", None, 0)  # A*/blind


@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig("greedy", "h_add")], ids=["astar-blind", "greedy-hadd"])
def test_task_whose_initial_state_is_a_goal_has_the_empty_plan(cfg):
    at_goal = [
        (name, task)
        for d in domain_dirs()
        for name, task in domain_tasks(d)
        if blind(task, task.init_bools, task.init_nums) == 0
    ]
    assert [name for name, _ in at_goal] == ["p11.pddl", "p16.pddl", "p19.pddl"]
    for _, task in at_goal:
        assert solve(task, cfg) == SolveResult("plan", Plan(()), 0)


def test_goal_branch_priced_first_need_not_be_the_cheapest():
    # Three blocks on the table. The holding branch is priced first, at cost
    # 1 with sum 3; the on branch at cost 2 with sum 2. A search that stopped
    # at the first priced branch would return 3 for h_add.
    base = blocksworld_problem("bw", [["b1"], ["b2"], ["b3"]], [])
    holding_all = And(tuple(Atom("holding", (b,)) for b in ("b1", "b2", "b3")))
    goal = Or((holding_all, Atom("on", ("b1", "b2"))))
    task = ground(ProblemInstance(base.domain, base.objects, base.init, goal))
    init = (task.init_bools, task.init_nums)
    assert h_add(task, *init) == reference_h(task, *init) == 2
    assert h_max_cost(task, *init) == reference_h(task, *init, combine=max) == 1
    assert_matches_reference(task, seeds=range(5), steps=20)


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


def _tank_task(effect_op: str, amount: int, goal_op: str, start: int):
    """Fuel from ``start``; one action ``step`` with the effect
    ``(effect_op (fuel) amount)``; the goal ``(goal_op (fuel) 0)``."""
    effect = NumericEffect(effect_op, FUEL, NumConst(Fraction(amount)))
    domain = DomainModel("tank", fluents=(FluentDecl("fuel", (), kind="numeric"),), actions=(ActionSchema("step", (), And(()), (effect,)),))
    init = Assignment.create([], [(FUEL, Fraction(start))])
    return ground(ProblemInstance(domain, (), init, Comparison(goal_op, FUEL, NumConst(Fraction(0))), "tank"))


@pytest.mark.parametrize(
    "effect_op, amount, goal_op, start, estimate",
    [
        # An increase or decrease by nothing widens neither bound.
        ("increase", 0, "<", 0, INF),
        ("decrease", 0, ">", 0, INF),
        ("increase", 1, ">", 0, 1),
        ("decrease", 1, "<", 0, 1),
        # Fuel rising from 1 never equals 0; fuel falling from 1 may.
        ("increase", 1, "=", 1, INF),
        ("decrease", 1, "=", 1, 1),
        ("increase", 1, "<=", 1, INF),
        ("decrease", 1, ">=", -1, INF),
        ("assign", 0, "=", 1, 1),
    ],
)
def test_numeric_bounds_widen_only_as_far_as_the_effect_reaches(effect_op, amount, goal_op, start, estimate):
    task = _tank_task(effect_op, amount, goal_op, start)
    init = (task.init_bools, task.init_nums)
    assert h_add(task, *init) == h_max_cost(task, *init) == estimate
    assert reference_h(task, *init) == reference_h(task, *init, combine=max) == estimate


def test_view_is_compiled_once_per_task():
    task = ground(refuel_problem(0, 1))
    h_add(task, task.init_bools, task.init_nums)
    view = task.relaxed
    h_max_cost(task, task.init_bools, task.init_nums)
    assert task.relaxed is view
