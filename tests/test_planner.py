from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from planwright.domains import (
    battery_grippers_domain,
    blocksworld_problem,
    grippers_problem,
    household_problem,
)
from planwright.ir import (
    And,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    FluentDecl,
    Not,
    NumAdd,
    NumConst,
    NumFluent,
    ObjectDecl,
    Or,
    Parameter,
    ProblemInstance,
    validate,
)
from planwright.planner import (
    GroundingError,
    Invalid,
    Plan,
    PlanStep,
    SolveConfig,
    Valid,
    blind,
    eval_ground,
    ground,
    h_add,
    h_max_cost,
    solve,
    validate_plan,
)
from planwright.planner.grounding import _instantiate
from planwright.planner.search import SuccessorGenerator

from helpers import bfs_optimal_plan, random_walk_states, reference_pair_prune, refuel_problem

ASTAR = SolveConfig(strategy="astar", heuristic="blind")


def battery_problem(initial: int, goal_room: str = "room2", floor: int = 20) -> ProblemInstance:
    domain = battery_grippers_domain()
    return ProblemInstance(
        domain=domain,
        objects=(
            ObjectDecl("robot1", "robot"),
            ObjectDecl("room1", "room"),
            ObjectDecl("room2", "room"),
            ObjectDecl("ball1", "ball"),
            ObjectDecl("lgripper1", "gripper"),
            ObjectDecl("rgripper1", "gripper"),
        ),
        init=Assignment.create(
            [
                Atom("at-robby", ("robot1", "room1")),
                Atom("at", ("ball1", "room1")),
                Atom("free", ("robot1", "lgripper1")),
                Atom("free", ("robot1", "rgripper1")),
            ],
            [(NumFluent("battery_level", ("robot1",)), Fraction(initial))],
        ),
        goal=And(
            (
                Atom("at", ("ball1", goal_room)),
                Comparison(">=", NumFluent("battery_level", ("robot1",)), NumConst(Fraction(floor))),
            )
        ),
        name=f"battery-{initial}",
    )


class TestGrounding:
    def test_blocksworld_three_blocks_action_counts(self):
        problem = blocksworld_problem("bw3", [["b1"], ["b2"], ["b3"]], [["b1", "b2", "b3"]])
        task = ground(problem)
        by_name: dict[str, int] = {}
        for action in task.actions:
            by_name[action.name] = by_name.get(action.name, 0) + 1
        assert by_name == {"pick-up": 3, "put-down": 3, "stack": 6, "unstack": 6}

    def test_pruned_actions_are_never_applicable(self):
        # cross-check the reachability prune against brute-force search
        problem = blocksworld_problem("bw2", [["b1"], ["b2"]], [["b1", "b2"]])
        task = ground(problem)
        kept = {(a.name, a.args) for a in task.actions}
        assert ("stack", ("b1", "b1")) not in kept
        assert ("unstack", ("b2", "b2")) not in kept

    def test_zero_objects(self):
        problem = blocksworld_problem("bw0", [], [])
        task = ground(problem)
        assert task.actions == ()

    def test_uninitialized_numeric_atom_is_an_error(self):
        problem = battery_problem(30)
        stripped = ProblemInstance(problem.domain, problem.objects, Assignment.create(problem.init.true_atoms), problem.goal)
        with pytest.raises(GroundingError) as err:
            ground(stripped)
        assert "battery_level" in str(err.value)

        # A goal fluent that no action reads or writes is caught as well, even
        # in a conjunction that a false constant comparison already rules out.
        domain = problem.domain
        payload = FluentDecl("payload", (Parameter("?r", "robot"),), kind="numeric")
        extended = DomainModel(domain.name, domain.types, domain.fluents + (payload,), domain.actions)
        never = Comparison(">", NumConst(Fraction(1)), NumConst(Fraction(2)))
        goal = And((problem.goal, never, Comparison("<=", NumFluent("payload", ("robot1",)), NumConst(Fraction(3)))))
        with pytest.raises(GroundingError) as err:
            ground(ProblemInstance(extended, problem.objects, problem.init, goal))
        assert "payload" in str(err.value)

    def test_deterministic_order(self):
        problem = blocksworld_problem("bw3", [["b1"], ["b2"], ["b3"]], [["b1", "b2", "b3"]])
        first = [str(a) for a in ground(problem).actions]
        second = [str(a) for a in ground(problem).actions]
        assert first == second


class TestPruneMatchesReference:
    """ground() keeps exactly the actions the set-of-pairs oracle keeps, in order."""

    @staticmethod
    def check(problem: ProblemInstance) -> tuple[int, int]:
        task = ground(problem)
        instantiated = _instantiate(problem, task.atom_index, task.num_index)
        expected = reference_pair_prune(instantiated, task.atoms, task.atom_index, problem.init.true_atoms)
        assert task.actions == tuple(expected)
        return len(instantiated), len(task.actions)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_blocksworld(self, seed):
        rng = random.Random(seed)
        blocks = [f"b{i}" for i in range(1, rng.randint(2, 6) + 1)]
        problem = blocksworld_problem(f"bw-{seed}", _random_towers(rng, blocks), _random_towers(rng, blocks))
        instantiated, kept = self.check(problem)
        assert kept < instantiated  # stack(b, b) and its kin are pruned

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_grippers(self, seed):
        rng = random.Random(seed)
        rooms = [f"room{i}" for i in range(1, rng.randint(2, 4) + 1)]
        robots = rng.randint(1, 2)
        balls = [f"ball{i}" for i in range(1, rng.randint(1, 4) + 1)]
        problem = grippers_problem(
            f"g-{seed}", rooms=len(rooms), robots=robots,
            ball_rooms={b: rng.choice(rooms) for b in balls},
            goal_rooms={b: rng.choice(rooms) for b in balls},
            robot_rooms={f"robot{i}": rng.choice(rooms) for i in range(1, robots + 1)},
        )
        self.check(problem)

    @pytest.mark.parametrize("initial", [0, 10, 30])
    def test_battery_grippers_numeric_conditions(self, initial):
        self.check(battery_problem(initial))

    def test_household(self):
        self.check(household_problem())

    def test_or_and_negative_preconditions(self):
        # "rusted" is never true, so the second variant of every start-flow
        # binding is pruned.
        assert self.check(valves_problem()) == (12, 8)


class TestSuccessorIndex:
    """The compiled entries are exactly the applicable actions, in ascending
    index, as a scan finds them, and each one's successor is the state
    `GroundAction.apply` gives."""

    @staticmethod
    def check(problem: ProblemInstance) -> None:
        task = ground(problem)
        successors = SuccessorGenerator(task.actions)
        seen = set()
        for bools, nums in random_walk_states(task, seeds=range(4), steps=30):
            entries = successors.applicable(bools, nums)
            expected = [i for i, a in enumerate(task.actions) if a.applicable(bools, nums)]
            assert [entry[0] for entry in entries] == expected
            for idx, _, _, _, keep, add, effects in entries:
                action = task.actions[idx]
                assert effects == action.num_effects
                if not effects:  # solve applies these from the entry alone
                    assert ((bools & keep) | add, nums) == action.apply(bools, nums)
            seen.update(expected)
        assert seen  # the walks exercise the entries

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_blocksworld(self, seed):
        rng = random.Random(seed)
        blocks = [f"b{i}" for i in range(1, 6)]
        self.check(blocksworld_problem(f"bw-{seed}", _random_towers(rng, blocks), _random_towers(rng, blocks)))

    def test_grippers(self):
        self.check(
            grippers_problem(
                "g", rooms=3, robots=2,
                ball_rooms={"ball1": "room1", "ball2": "room2", "ball3": "room3"},
                goal_rooms={"ball1": "room3", "ball2": "room3", "ball3": "room1"},
            )
        )

    @pytest.mark.parametrize("initial", [10, 30])
    def test_battery_grippers(self, initial):
        self.check(battery_problem(initial))

    @pytest.mark.parametrize("fuel, goal_fuel", [(0, 1), (2, "capacity"), (1, 5)])
    def test_refuel(self, fuel, goal_fuel):
        self.check(refuel_problem(fuel, goal_fuel))

    def test_or_negative_and_no_positive_precondition(self):
        problem = valves_problem()
        assert any(not a.pre.pos for a in ground(problem).actions)  # open-valve needs only (not (open ?v))
        self.check(problem)

    def test_numeric_and_no_positive_precondition(self):
        problem = meter_problem()
        task = ground(problem)
        assert any(a.pre.num and not a.pre.pos for a in task.actions)
        self.check(problem)
        assert [str(step) for step in solve(task, ASTAR).plan.steps] == ["tick()"] * 3 + ["latch()"]


class TestSolve:
    def test_two_blocks(self):
        problem = blocksworld_problem("bw2", [["b1"], ["b2"]], [["b2", "b1"]])
        result = solve(ground(problem), ASTAR)
        assert result.status == "plan"
        assert [str(s) for s in result.plan.steps] == ["pick-up(b1)", "stack(b1, b2)"]

    def test_goal_already_true(self):
        problem = blocksworld_problem("bw1", [["b1", "b2"]], [["b1", "b2"]])
        result = solve(ground(problem), ASTAR)
        assert result.status == "plan"
        assert result.plan.steps == ()

    def test_on_self_is_unsolvable(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2"]], [])
        problem = ProblemInstance(problem.domain, problem.objects, problem.init, Atom("on", ("b1", "b1")))
        assert bfs_optimal_plan(problem) is None
        result = solve(ground(problem), ASTAR)
        assert result.status == "unsolvable"

    @pytest.mark.parametrize("budgets", [{"time_budget": float("nan")}, {"node_budget": float("nan")}, {"time_budget": 0}])
    def test_nan_or_nonpositive_budget_rejected(self, budgets):
        with pytest.raises(ValueError, match="budgets must be positive"):
            SolveConfig(**budgets)

    def test_infinite_time_budget_accepted(self):
        problem = blocksworld_problem("bw2", [["b1"], ["b2"]], [["b2", "b1"]])
        assert solve(ground(problem), SolveConfig(time_budget=float("inf"))).status == "plan"

    def test_budget_exhausted(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2"], ["b3"], ["b4"]], [["b4", "b3", "b2", "b1"]])
        result = solve(ground(problem), SolveConfig(node_budget=2))
        assert result.status == "budget-exhausted"

    @pytest.mark.parametrize("seed", range(6))
    def test_optimal_matches_bfs_oracle(self, seed):
        rng = random.Random(seed)
        blocks = [f"b{i}" for i in range(1, rng.randint(2, 5) + 1)]
        problem = blocksworld_problem(f"bw-{seed}", _random_towers(rng, blocks), _random_towers(rng, blocks))
        oracle = bfs_optimal_plan(problem)
        result = solve(ground(problem), ASTAR)
        assert oracle is not None
        assert result.status == "plan"
        assert len(result.plan.steps) == len(oracle)
        assert isinstance(validate_plan(problem, result.plan), Valid)

    def test_grippers_matches_oracle(self):
        problem = grippers_problem(
            "g", rooms=3, robots=1,
            ball_rooms={"ball1": "room1", "ball2": "room2"},
            goal_rooms={"ball1": "room3", "ball2": "room3"},
        )
        oracle = bfs_optimal_plan(problem)
        result = solve(ground(problem), ASTAR)
        assert result.status == "plan"
        assert len(result.plan.steps) == len(oracle)

    def test_greedy_h_add_finds_valid_plan(self):
        problem = blocksworld_problem("bw", [["b1", "b2", "b3"]], [["b3", "b2", "b1"]])
        result = solve(ground(problem), SolveConfig(strategy="greedy", heuristic="h_add"))
        assert result.status == "plan"
        assert isinstance(validate_plan(problem, result.plan), Valid)

    def test_determinism_bytes(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2", "b3"]], [["b1", "b2"], ["b3"]])
        runs = [solve(ground(problem), ASTAR).to_json() for _ in range(3)]
        assert len({json.dumps(r, sort_keys=True) for r in runs}) == 1


class TestDisjunctivePreconditions:
    def make_problem(self, goal) -> ProblemInstance:
        from planwright.ir import (
            ActionSchema,
            DomainModel,
            FluentDecl,
            Not,
            ObjectDecl,
            Or,
            Parameter,
            SetEffect,
            TypeDecl,
        )

        domain = DomainModel(
            "switches",
            types=(TypeDecl("switch"),),
            fluents=(
                FluentDecl("up", (Parameter("?s", "switch"),)),
                FluentDecl("lit", ()),
            ),
            actions=(
                ActionSchema(
                    "flip-up",
                    (Parameter("?s", "switch"),),
                    Not(Atom("up", ("?s",))),
                    (SetEffect(Atom("up", ("?s",))),),
                ),
                ActionSchema(
                    "light",
                    (Parameter("?a", "switch"), Parameter("?b", "switch")),
                    Or((Atom("up", ("?a",)), Atom("up", ("?b",)))),
                    (SetEffect(Atom("lit"),),),
                ),
            ),
        )
        return ProblemInstance(
            domain,
            (ObjectDecl("s1", "switch"), ObjectDecl("s2", "switch")),
            Assignment.create([]),
            goal,
            "switches",
        )

    def test_or_precondition_splits_into_variants_and_solves(self):
        problem = self.make_problem(Atom("lit"))
        task = ground(problem)
        # each light(a, b) instantiation yields one variant per disjunct
        variants = [a for a in task.actions if a.name == "light"]
        assert len(variants) == 8  # 4 bindings x 2 disjuncts
        result = solve(task, ASTAR)
        assert result.status == "plan"
        assert len(result.plan.steps) == 2  # flip one switch, then light
        assert isinstance(validate_plan(problem, result.plan), Valid)
        oracle = bfs_optimal_plan(problem)
        assert len(oracle) == 2

    def test_or_goal_evaluated_directly(self):
        from planwright.ir import Or

        problem = self.make_problem(Or((Atom("up", ("s1",)), Atom("up", ("s2",)))))
        result = solve(ground(problem), ASTAR)
        assert result.status == "plan"
        assert len(result.plan.steps) == 1


class TestBatteryScenario:
    def test_battery_30_allows_at_most_two_moves(self):
        problem = battery_problem(30)
        assert validate(problem) == []
        result = solve(ground(problem), ASTAR)
        assert result.status == "plan"
        moves = [s for s in result.plan.steps if s.name == "move"]
        assert len(moves) <= 2
        verdict = validate_plan(problem, result.plan)
        assert isinstance(verdict, Valid)
        assert verdict.numeric_value("battery_level", ("robot1",)) >= 20

    def test_battery_10_with_required_move_is_unsolvable(self):
        problem = battery_problem(10)
        result = solve(ground(problem), ASTAR)
        assert result.status == "unsolvable"
        assert bfs_optimal_plan(problem) is None

    def test_oracle_equivalence_with_numeric_state(self):
        problem = battery_problem(30)
        oracle = bfs_optimal_plan(problem)
        result = solve(ground(problem), ASTAR)
        assert len(result.plan.steps) == len(oracle)


class TestHeuristics:
    def test_zero_iff_satisfied(self):
        problem = blocksworld_problem("bw", [["b1", "b2"]], [["b1", "b2"]])
        task = ground(problem)
        assert h_add(task, task.init_bools, task.init_nums) == 0
        harder = blocksworld_problem("bw", [["b1", "b2"]], [["b2", "b1"]])
        task2 = ground(harder)
        assert h_add(task2, task2.init_bools, task2.init_nums) > 0

    def test_single_action_goal_costs_one(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2"]], [])
        problem = ProblemInstance(problem.domain, problem.objects, problem.init, Atom("holding", ("b1",)))
        task = ground(problem)
        assert h_add(task, task.init_bools, task.init_nums) == 1

    def test_h_add_dominates_h_max_on_random_states(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2"], ["b3"]], [["b3", "b2", "b1"]])
        task = ground(problem)
        rng = random.Random(7)
        states = [(task.init_bools, task.init_nums)]
        # random walk to sample reachable states
        for _ in range(50):
            bools, nums = states[-1]
            apps = [a for a in task.actions if a.applicable(bools, nums)]
            action = rng.choice(apps)
            states.append(action.apply(bools, nums))
        for bools, nums in states:
            oracle = _independent_h_max(task, bools)
            assert h_add(task, bools, nums) >= oracle
            assert h_max_cost(task, bools, nums) == oracle

    def test_h_add_numeric_comparison_satisfied_at_state_costs_zero(self):
        problem = battery_problem(30)
        task = ground(problem)
        # battery >= 20 already holds; only the ball-at conjunct costs
        value = h_add(task, task.init_bools, task.init_nums)
        assert 0 < value < float("inf")

    def test_h_add_numeric_widening_prices_unreached_comparisons(self):
        # goal asks for battery <= 20: only reachable by move's decrease
        base = battery_problem(30)
        drained_goal = Comparison("<=", NumFluent("battery_level", ("robot1",)), NumConst(Fraction(20)))
        problem = ProblemInstance(base.domain, base.objects, base.init, drained_goal)
        task = ground(problem)
        value = h_add(task, task.init_bools, task.init_nums)
        assert 0 < value < float("inf")

    def test_h_add_infinite_when_no_action_can_widen(self):
        base = battery_problem(30)
        rising_goal = Comparison(">=", NumFluent("battery_level", ("robot1",)), NumConst(Fraction(100)))
        problem = ProblemInstance(base.domain, base.objects, base.init, rising_goal)
        task = ground(problem)
        assert h_add(task, task.init_bools, task.init_nums) == float("inf")

    def test_monotone_under_add_effects(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2"]], [["b2", "b1"]])
        task = ground(problem)
        base = h_add(task, task.init_bools, task.init_nums)
        for action in task.actions:
            if action.applicable(task.init_bools, task.init_nums):
                richer = task.init_bools | action.add_mask  # add effects only
                assert h_add(task, richer, task.init_nums) <= base + 1

    def test_blind_is_zero_only_at_goal(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2"]], [["b2", "b1"]])
        task = ground(problem)
        assert blind(task, task.init_bools, task.init_nums) == 1

    def test_goal_conjunction_priced_like_a_precondition(self):
        # The goal compiles to the same bitmasks as a precondition: a repeated
        # atom is one bit, counted once, and a branch holding both p and
        # (not p) is dropped, leaving a goal that can never hold.
        base = blocksworld_problem("bw", [["b1"], ["b2"], ["b3"]], [])
        p = Atom("on", ("b1", "b2"))
        single, repeated, contradictory = (ground(_with_goal(base, g)) for g in (p, And((p, p)), And((p, Not(p)))))
        init = (single.init_bools, single.init_nums)
        assert h_add(single, *init) == h_add(repeated, *init) == 2
        assert h_max_cost(repeated, *init) == 2
        assert contradictory.goal == ()
        assert h_add(contradictory, *init) == h_max_cost(contradictory, *init) == float("inf")
        outcome = solve(contradictory, SolveConfig(strategy="greedy", heuristic="h_add"))
        assert (outcome.status, outcome.nodes_expanded) == ("unsolvable", 0)


BATTERY = NumFluent("battery_level", ("robot1",))
BALL_IN_ROOM2 = Atom("at", ("ball1", "room2"))
ROBOT_IN_ROOM1 = Atom("at-robby", ("robot1", "room1"))


def _num(value: int) -> NumConst:
    return NumConst(Fraction(value))


def _with_goal(problem: ProblemInstance, goal) -> ProblemInstance:
    return ProblemInstance(problem.domain, problem.objects, problem.init, goal)


class TestGoalShapes:
    """Goals other than positive conjunctions, on the battery grippers task."""

    GOALS = {
        "or": Or((BALL_IN_ROOM2, Not(ROBOT_IN_ROOM1))),
        "not-and": Not(And((Atom("free", ("robot1", "lgripper1")), Comparison(">=", BATTERY, _num(25))))),
        "not-equal": Not(Comparison("=", BATTERY, _num(20))),
        "numeric": And((Not(ROBOT_IN_ROOM1), Comparison("<=", NumAdd(BATTERY, _num(5)), _num(30)))),
        "constant": Or(
            (
                And((ROBOT_IN_ROOM1, Comparison("<", _num(1), _num(2)))),
                And((BALL_IN_ROOM2, Comparison(">", _num(1), _num(2)))),
            )
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOALS))
    def test_goal_holds_matches_validator(self, name):
        problem = _with_goal(battery_problem(30), self.GOALS[name])
        task = ground(problem)
        verdicts = set()
        for bools, nums in random_walk_states(task):
            expected = eval_ground(problem.goal, task.atoms_of(bools), task.numerics_of(nums))
            assert task.goal_holds(bools, nums) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}  # the walk reaches both sides of the goal

    def test_h_add_of_disjunction_is_min_of_disjuncts(self):
        base = battery_problem(30)
        g1 = And((BALL_IN_ROOM2, Comparison(">=", BATTERY, _num(20))))
        g2 = And((Atom("carry", ("robot1", "ball1", "lgripper1")), Not(ROBOT_IN_ROOM1)))
        either, first, second = (ground(_with_goal(base, g)) for g in (Or((g1, g2)), g1, g2))
        for bools, nums in random_walk_states(either):
            for estimate in (h_add, h_max_cost):
                assert estimate(either, bools, nums) == min(estimate(first, bools, nums), estimate(second, bools, nums))


class TestValidatePlan:
    def test_oracle_plan_is_valid(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2", "b3"]], [["b3", "b2", "b1"]])
        oracle = bfs_optimal_plan(problem)
        plan = Plan(tuple(PlanStep(name, args) for name, args in oracle))
        assert isinstance(validate_plan(problem, plan), Valid)

    def test_empty_plan_on_satisfied_goal(self):
        problem = blocksworld_problem("bw", [["b1", "b2"]], [["b1", "b2"]])
        assert isinstance(validate_plan(problem, Plan(())), Valid)

    def test_stack_without_holding(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2"]], [["b2", "b1"]])
        verdict = validate_plan(problem, Plan((PlanStep("stack", ("b1", "b2")),)))
        assert isinstance(verdict, Invalid)
        assert verdict.step_index == 0
        assert verdict.violated == "(holding b1)"

    def test_unknown_action(self):
        problem = blocksworld_problem("bw", [["b1"]], [])
        verdict = validate_plan(problem, Plan((PlanStep("teleport", ("b1",)),)))
        assert isinstance(verdict, Invalid)
        assert "unknown action" in verdict.violated

    def test_goal_failure_reported_past_last_step(self):
        problem = blocksworld_problem("bw", [["b1"], ["b2"]], [["b2", "b1"]])
        verdict = validate_plan(problem, Plan((PlanStep("pick-up", ("b1",)),)))
        assert isinstance(verdict, Invalid)
        assert verdict.step_index == 1

    def test_household_plan(self):
        problem = household_problem()
        oracle = bfs_optimal_plan(problem)
        result = solve(ground(problem), ASTAR)
        assert result.status == "plan"
        assert len(result.plan.steps) == len(oracle)
        assert isinstance(validate_plan(problem, result.plan), Valid)


def _independent_h_max(task, bools: int) -> float:
    """Reference h_max for tasks with positive boolean conditions only:
    textbook layered fixpoint over atoms, written without the package's
    relaxation machinery."""
    INF = float("inf")
    cost = {i: (0 if bools >> i & 1 else INF) for i in range(len(task.atoms))}

    def bits(mask):
        i = 0
        while mask:
            if mask & 1:
                yield i
            mask >>= 1
            i += 1

    changed = True
    while changed:
        changed = False
        for action in task.actions:
            assert action.pre.neg == 0 and not action.pre.num  # test scope
            pre = [cost[i] for i in bits(action.pre.pos)]
            if any(c == INF for c in pre):
                continue
            new_cost = 1 + (max(pre) if pre else 0)
            for i in bits(action.add_mask):
                if new_cost < cost[i]:
                    cost[i] = new_cost
                    changed = True

    def goal_cost(expr):
        from planwright.ir import And as IrAnd, Atom as IrAtom

        if isinstance(expr, IrAtom):
            idx = task.atom_index[expr]
            return cost[idx]
        if isinstance(expr, IrAnd):
            parts = [goal_cost(c) for c in expr.children]
            return max(parts) if parts else 0
        raise AssertionError(f"oracle limited to positive conjunctions, got {expr!r}")

    return goal_cost(task.problem.goal)


def valves_problem() -> ProblemInstance:
    """Two valves: opening needs the valve closed (no positive precondition),
    closing needs no flow, and starting the flow needs two open valves or a
    rusted one (an Or precondition)."""
    from planwright.ir import ActionSchema, DomainModel, FluentDecl, Not, Or, Parameter, SetEffect, TypeDecl

    v, a, b = (Parameter(name, "valve") for name in ("?v", "?a", "?b"))
    domain = DomainModel(
        "valves",
        types=(TypeDecl("valve"),),
        fluents=(FluentDecl("open", (v,)), FluentDecl("rusted", (v,)), FluentDecl("flow", ())),
        actions=(
            ActionSchema("open-valve", (v,), Not(Atom("open", ("?v",))), (SetEffect(Atom("open", ("?v",))),)),
            ActionSchema(
                "close-valve",
                (v,),
                And((Atom("open", ("?v",)), Not(Atom("flow")))),
                (SetEffect(Atom("open", ("?v",)), False),),
            ),
            ActionSchema(
                "start-flow",
                (a, b),
                Or((And((Atom("open", ("?a",)), Atom("open", ("?b",)))), Atom("rusted", ("?a",)))),
                (SetEffect(Atom("flow")),),
            ),
        ),
    )
    return ProblemInstance(
        domain, (ObjectDecl("v1", "valve"), ObjectDecl("v2", "valve")), Assignment.create([]), Atom("flow"), "valves"
    )


def meter_problem() -> ProblemInstance:
    """A meter that ticks up to 3 with no boolean precondition; the goal is a
    reading latched only once the meter shows at least 3."""
    from planwright.ir import ActionSchema, DomainModel, FluentDecl, NumericEffect, Parameter, SetEffect

    meter = NumFluent("meter", ())
    domain = DomainModel(
        "meter",
        fluents=(FluentDecl("latched", ()), FluentDecl("meter", (), kind="numeric")),
        actions=(
            ActionSchema(
                "tick",
                (),
                Comparison("<", meter, NumConst(Fraction(3))),
                (NumericEffect("increase", meter, NumConst(Fraction(1))),),
            ),
            ActionSchema("latch", (), Comparison(">=", meter, NumConst(Fraction(3))), (SetEffect(Atom("latched", ())),)),
        ),
    )
    return ProblemInstance(
        domain, (), Assignment.create([], [(meter, Fraction(0))]), Atom("latched", ()), "meter"
    )


def _random_towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    shuffled = blocks[:]
    rng.shuffle(shuffled)
    towers: list[list[str]] = []
    for block in shuffled:
        if not towers or rng.random() < 0.5:
            towers.append([block])
        else:
            rng.choice(towers).append(block)
    return towers
