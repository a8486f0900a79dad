from __future__ import annotations

import ast
import gc
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from planwright.domains import (
    battery_grippers_domain,
    blocksworld_problem,
    grippers_problem,
    household_problem,
)
from planwright.ir import (
    ActionSchema,
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
    NumericEffect,
    ObjectDecl,
    Or,
    Parameter,
    ProblemInstance,
    SetEffect,
    TypeDecl,
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
from planwright.planner import validation
from planwright.planner.grounding import GroundAction, _instantiate, _Table
from planwright.planner.search import SuccessorGenerator

from helpers import (
    AtomNumbering,
    _mask_bits,
    applicable,
    atoms_of,
    bfs_optimal_plan,
    branch_holds,
    bundled_problems,
    num_numbering,
    numerics_of,
    random_walk_states,
    reference_instantiate,
    reference_pair_prune,
    reference_relaxed_prune,
    reference_solve,
    refuel_problem,
    run_python,
    task_numbering,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import scale_instances  # noqa: E402

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
        first = [(a.name, a.args) for a in ground(problem).actions]
        second = [(a.name, a.args) for a in ground(problem).actions]
        assert first == second


class TestPruneMatchesReference:
    """ground() keeps exactly the actions the set-of-pairs oracle keeps, in order."""

    @staticmethod
    def check(problem: ProblemInstance) -> tuple[int, int]:
        task = ground(problem)
        index = task_numbering(task)
        instantiated = reference_instantiate(problem, index, num_numbering(task))
        expected = reference_pair_prune(instantiated, index, problem.init.true_atoms)
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


def check_instantiation(problem: ProblemInstance) -> tuple[int, int, int]:
    """Compare grounding with the product-order oracle; return the reference
    and templated instantiation counts and the kept count.

    The kept actions must equal, element by element and in order, what the
    set-of-pairs oracle keeps of the reference instantiation. The templated
    instantiation must be the reference one with some actions left out, each
    of which needs an atom of a static fluent that is false initially.
    """
    task = ground(problem)
    index = task_numbering(task)
    reference = reference_instantiate(problem, index, num_numbering(task))
    atoms: list[Atom] = []
    tables = {f.name: _Table(f.name, atoms) for f in problem.domain.fluents}
    for atom in task.atoms:
        tables[atom.fluent][atom.args]  # numbers it, in the task's order
    instantiated = _instantiate(problem, tables, num_numbering(task))
    assert atoms == list(task.atoms)  # the task's bindings name no other atom
    assert list(task.actions) == reference_pair_prune(reference, index, problem.init.true_atoms)

    changed = {e.atom.fluent for schema in problem.domain.actions for e in schema.effects if isinstance(e, SetEffect)}
    static_false = 0
    for atom, i in index.items():
        if atom.fluent not in changed and atom not in problem.init.true_atoms:
            static_false |= 1 << i
    matched = 0
    for action in reference:
        if matched < len(instantiated) and instantiated[matched] == action:
            matched += 1
        else:
            assert action.pos & static_false, f"{action} dropped but needs no static atom false initially"
    assert matched == len(instantiated)
    return len(reference), len(instantiated), len(task.actions)


class TestInstantiateMatchesReference:
    def test_bundled_suite_totals(self):
        totals = [0, 0, 0]
        for problem in bundled_problems():
            for i, count in enumerate(check_instantiation(problem)):
                totals[i] += count
        assert totals == [16_705, 6_284, 5_098]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scale_instances(self, seed):
        for problem in scale_instances(seed):
            check_instantiation(problem)

    @pytest.mark.parametrize("problem", [battery_problem(0), battery_problem(30), refuel_problem(4, 1)], ids=lambda p: p.name)
    def test_numeric_tasks(self, problem):
        check_instantiation(problem)

    @pytest.mark.parametrize(
        "problem, goal, message",
        [
            (battery_problem(30), Atom("at", ("ball1", "room2")), "numeric atom (battery_level robot1) is used but uninitialized"),
            (refuel_problem(4, 1), Atom("at", ("t4",)), "numeric atom (fuel) is used but uninitialized"),
        ],
        ids=["battery", "refuel"],
    )
    def test_uninitialized_numeric_error_text(self, problem, goal, message):
        stripped = ProblemInstance(problem.domain, problem.objects, Assignment.create(problem.init.true_atoms), goal)
        with pytest.raises(GroundingError) as expected:
            reference_instantiate(stripped, AtomNumbering(), {})
        with pytest.raises(GroundingError) as err:
            ground(stripped)
        assert str(err.value) == str(expected.value) == message

    def test_grounding_leaves_no_cyclic_garbage(self):
        problems = scale_instances(1)[:4] + bundled_problems()[:1]
        gc.collect()
        gc.disable()
        try:
            tasks = [ground(problem) for problem in problems]
            del tasks
            assert gc.collect() == 0
        finally:
            gc.enable()


def graph_problem(precondition, init, effects=(), objects=None) -> ProblemInstance:
    """One ``drive`` schema over places and vehicles, with the given
    precondition; ``adj`` and ``power`` are static unless ``effects`` change
    them, ``fresh`` is only ever deleted."""
    place, vehicle = "place", "vehicle"
    v, a, b = Parameter("?v", vehicle), Parameter("?from", place), Parameter("?to", place)
    domain = DomainModel(
        "graph",
        types=(TypeDecl(place), TypeDecl(vehicle), TypeDecl("truck", parent=vehicle)),
        fluents=(
            FluentDecl("adj", (Parameter("?x", place), Parameter("?y", place))),
            FluentDecl("at", (Parameter("?w", vehicle), Parameter("?p", place))),
            FluentDecl("fresh", (Parameter("?p", place),)),
            FluentDecl("power", ()),
        ),
        actions=(
            ActionSchema(
                "drive",
                (v, a, b),
                precondition,
                (
                    SetEffect(Atom("at", ("?v", "?to"))),
                    SetEffect(Atom("at", ("?v", "?from")), False),
                    SetEffect(Atom("fresh", ("?to",)), False),
                ) + tuple(effects),
            ),
        ),
    )
    if objects is None:
        objects = (ObjectDecl("home", place), ObjectDecl("p1", place), ObjectDecl("p2", place), ObjectDecl("t1", "truck"))
    at_home = Atom("at", ("t1", "home"))
    return ProblemInstance(domain, tuple(objects), Assignment.create([at_home, *init]), Atom("at", ("t1", "p2")), "graph")


AT_FROM = Atom("at", ("?v", "?from"))


class TestStaticFilter:
    """Bindings that fail a static precondition are never instantiated, and
    grounding still matches the product-order oracle."""

    def test_nullary_static_literal_false_in_init_yields_nothing(self):
        problem = graph_problem(And((Atom("power"), AT_FROM)), [Atom("adj", ("home", "p1"))])
        assert check_instantiation(problem) == (9, 0, 0)

    def test_nullary_static_literal_true_in_init_filters_nothing(self):
        problem = graph_problem(And((Atom("power"), AT_FROM)), [Atom("power")])
        assert check_instantiation(problem) == (9, 9, 9)

    def test_repeated_variable(self):
        problem = graph_problem(And((AT_FROM, Atom("adj", ("?to", "?to")))), [Atom("adj", ("p2", "p2"))])
        assert check_instantiation(problem) == (9, 3, 2)

    def test_constant_argument(self):
        init = [Atom("adj", ("p1", "home")), Atom("adj", ("p2", "home")), Atom("adj", ("home", "p1"))]
        problem = graph_problem(And((AT_FROM, Atom("adj", ("?to", "home")))), init)
        assert check_instantiation(problem) == (9, 6, 6)

    def test_static_literal_in_one_branch_of_an_or(self):
        precondition = And((AT_FROM, Or((Atom("adj", ("?from", "?to")), Atom("fresh", ("?to",))))))
        problem = graph_problem(precondition, [Atom("adj", ("home", "p1")), Atom("fresh", ("p2",))])
        assert check_instantiation(problem) == (18, 18, 3)

    def test_fluent_that_is_only_deleted_is_not_static(self):
        problem = graph_problem(And((AT_FROM, Atom("fresh", ("?to",)))), [Atom("fresh", ("p1",))])
        assert check_instantiation(problem) == (9, 9, 1)

    def test_added_fluent_is_not_static(self):
        precondition = And((AT_FROM, Atom("adj", ("?from", "?to"))))
        problem = graph_problem(precondition, [Atom("adj", ("home", "p1"))], effects=[SetEffect(Atom("adj", ("?to", "?from")))])
        assert check_instantiation(problem) == (9, 9, 2)

    def test_subtype_typed_parameters(self):
        objects = (
            ObjectDecl("home", "place"), ObjectDecl("p1", "place"),
            ObjectDecl("t1", "truck"), ObjectDecl("t2", "truck"), ObjectDecl("v1", "vehicle"),
        )
        init = [Atom("adj", ("home", "p1")), Atom("adj", ("p1", "home")), Atom("at", ("v1", "p1"))]
        problem = graph_problem(And((AT_FROM, Atom("adj", ("?from", "?to")))), init, objects=objects)
        assert check_instantiation(problem) == (12, 6, 4)

    def test_zero_objects(self):
        problem = graph_problem(And((AT_FROM, Atom("adj", ("?from", "?to")))), [], objects=())
        assert check_instantiation(problem) == (0, 0, 0)
        assert check_instantiation(blocksworld_problem("bw0", [], [])) == (0, 0, 0)


def wide_pddl(objects: int) -> tuple[str, str]:
    """A domain with a 4-ary predicate that nothing names and one action,
    and a problem over ``objects`` untyped objects."""
    domain = """(define (domain wide)
  (:predicates (p ?a) (q ?a) (r ?a ?b ?c ?d))
  (:action go :parameters (?a) :precondition (p ?a) :effect (q ?a)))"""
    names = " ".join(f"o{i}" for i in range(objects))
    problem = f"(define (problem wide) (:domain wide) (:objects {names}) (:init (p o0)) (:goal (q o0)))"
    return domain, problem


# Grounds and solves the problem of ``wide_pddl`` read from standard input,
# under a 1 GB address-space limit, and prints the atom count and the plan.
WIDE_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from planwright.pddl import parse_domain, parse_problem
from planwright.planner import SolveConfig, ground, solve
domain_text, problem_text = json.load(sys.stdin)
task = ground(parse_problem(problem_text, parse_domain(domain_text)))
outcome = solve(task, SolveConfig(strategy="astar", heuristic="blind"))
print(json.dumps([len(task.atoms), [str(step) for step in outcome.plan.steps]]))
"""


class TestRelevantAtoms:
    """Grounding numbers only the atoms that the goal and the built bindings
    name, so a wide predicate that nothing names costs nothing."""

    def test_wide_unnamed_predicate_grounds_in_bounded_memory(self):
        # The child runs under its own limit, so a regression fails this
        # test and not the machine: 30 objects make 810,000 atoms of r.
        proc = run_python(WIDE_CHILD, stdin=json.dumps(wide_pddl(30)), timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [2, ["go(o0)"]]

    def test_initial_atom_that_nothing_names_is_left_out(self):
        from planwright.pddl import parse_domain, parse_problem

        domain_text, problem_text = wide_pddl(3)
        problem = parse_problem(problem_text, parse_domain(domain_text))
        unnamed = Atom("r", ("o0", "o1", "o2", "o0"))
        extended = ProblemInstance(problem.domain, problem.objects, Assignment.create([*problem.init.true_atoms, unnamed]), problem.goal)
        assert validate(extended) == []
        task = ground(extended)
        # The goal is numbered first, then the one binding that the static
        # precondition (p ?a) lets through.
        assert task.atoms == (Atom("q", ("o0",)), Atom("p", ("o0",)))
        assert task.init_bools == 0b10
        assert [(a.name, a.args) for a in task.actions] == [("go", ("o0",))]


def touch_pddl(objects: int) -> tuple[str, str]:
    """``wide_pddl`` with an action that adds any atom of the 4-ary predicate
    and has no precondition."""
    domain, problem = wide_pddl(objects)
    touch = "(:action touch :parameters (?a ?b ?c ?d) :effect (r ?a ?b ?c ?d))"
    return domain.replace("(:action go", touch + "\n  (:action go"), problem


# Grounds the problem of ``touch_pddl`` read from standard input, under a
# 1 GB address-space limit, and prints the atom and action counts, or the
# grounding error.
TOUCH_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from planwright.pddl import parse_domain, parse_problem
from planwright.planner import GroundingError, ground
domain_text, problem_text = json.load(sys.stdin)
try:
    task = ground(parse_problem(problem_text, parse_domain(domain_text)))
except GroundingError as exc:
    print(json.dumps(str(exc)))
else:
    print(json.dumps([len(task.atoms), len(task.actions)]))
"""


class TestPairBudget:
    """Every atom that ``touch`` adds can hold together with every reached
    atom, so the pair-reachability prune marks the reached atoms squared,
    in time cubic in them: 10 objects took 68.5 s before the pair budget.
    Over the budget, single-atom relaxed reachability prunes alone."""

    def test_prune_over_the_pair_budget_keeps_the_single_atom_survivors(self):
        # In a child under its own limit and timeout, so a regression fails
        # this test and not the machine: 10,002 reached atoms make 10^8 pairs.
        proc = run_python(TOUCH_CHILD, stdin=json.dumps(touch_pddl(10)), timeout=30)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [10002, 10001]

    def test_six_objects_ground_every_action(self):
        # 1,298 reached atoms: just over the budget, where the pair prune
        # alone took 0.3 s.
        proc = run_python(TOUCH_CHILD, stdin=json.dumps(touch_pddl(6)), timeout=30)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [1298, 1297]

    def test_prune_under_the_pair_budget_keeps_every_action(self):
        # 5 objects: 625 atoms of r, reached with (p o0), are inside the budget.
        proc = run_python(TOUCH_CHILD, stdin=json.dumps(touch_pddl(5)), timeout=30)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [627, 626]

    @pytest.mark.parametrize("name, pairs, single", [("p01", 18, 24), ("p02", 18, 24), ("p03", 32, 40)])
    def test_budget_chooses_between_the_oracles(self, monkeypatch, name, pairs, single):
        import planwright.planner.grounding as grounding
        from planwright.data_paths import benchmarks_root
        from planwright.pddl import parse_domain, parse_problem

        # blocksworld p01 and p02 reach 19 atoms, p03 reaches 29: each is
        # inside a budget of 29 * 29 and over one of 100.
        src = benchmarks_root() / "blocksworld"
        problem = parse_problem((src / f"{name}.pddl").read_text(), parse_domain((src / "domain.pddl").read_text()))
        for budget, oracle, kept in [(29 * 29, reference_pair_prune, pairs), (100, reference_relaxed_prune, single)]:
            monkeypatch.setattr(grounding, "GROUNDING_BUDGET", budget)
            task = ground(problem)
            index = task_numbering(task)
            expected = oracle(reference_instantiate(problem, index, num_numbering(task)), index, problem.init.true_atoms)
            assert task.actions == tuple(expected)
            assert len(task.actions) == kept


def disjunction_pddl(k: int, objects: int = 0) -> tuple[str, str]:
    """A domain whose one action's precondition is the conjunction of ``k``
    two-way disjunctions ``(or (p_i) (q_i))``, so 2^k DNF branches, and a
    problem that reaches its goal in one step. With ``objects``, the action
    takes one parameter over that many objects."""
    predicates = " ".join(f"(p_{i}) (q_{i})" for i in range(1, k + 1))
    precondition = "(and " + " ".join(f"(or (p_{i}) (q_{i}))" for i in range(1, k + 1)) + ")"
    parameters = "(?x)" if objects else "()"
    domain = f"""(define (domain wide-or) (:requirements :strips :disjunctive-preconditions)
  (:predicates {predicates} (done))
  (:action go :parameters {parameters} :precondition {precondition} :effect (done)))"""
    names = " ".join(f"o{i}" for i in range(objects))
    init = " ".join(f"(p_{i})" for i in range(1, k + 1))
    problem = f"(define (problem wide-or-1) (:domain wide-or) (:objects {names}) (:init {init}) (:goal (done)))"
    return domain, problem


# Runs `planwright bench` over the domain and problem of ``disjunction_pddl``
# read from standard input, under a 1 GB address-space limit, and prints the
# problem statuses of its one row.
DISJUNCTION_BENCH_CHILD = """
import json, resource, sys, tempfile
from pathlib import Path
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from planwright.cli import main
domain_text, problem_text = json.load(sys.stdin)
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    (root / "problems").mkdir()
    (root / "domain.pddl").write_text(domain_text)
    (root / "problems" / "p01.pddl").write_text(problem_text)
    code = main(["bench", "--domain", str(root / "domain.pddl"), "--problems", str(root / "problems"), "--out-dir", str(root / "out")])
    [row] = json.loads((root / "out" / "bench_report.json").read_text())["rows"]
print(json.dumps([code, [p["status"] for p in row["problems"]]]))
"""


class TestDnfBudget:
    """Every count is checked against `GROUNDING_BUDGET` before what it
    counts is built. The k = 20 task runs in a child under its own 1 GB
    limit and a 20 s timeout, so a regression fails the test and not the
    machine: without the checks, it ended in `MemoryError` after 18.5 s."""

    def test_branches_are_counted_before_they_are_built(self):
        # 2^20 = 1,048,576 branches
        proc = run_python(TOUCH_CHILD, stdin=json.dumps(disjunction_pddl(20)), timeout=20)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == "the precondition of go exceeds the budget of 1000000 DNF branches"

    def test_bindings_times_branches_are_counted_before_the_variants(self, monkeypatch):
        import planwright.planner.grounding as grounding
        from planwright.pddl import parse_domain, parse_problem

        built = []

        def counted(*fields):
            built.append(fields[:2])
            return GroundAction(*fields)

        # 20 bindings and 8 branches, each inside a budget of 100 alone: the
        # 160 variants are refused before the first is built.
        domain_text, problem_text = disjunction_pddl(3, objects=20)
        problem = parse_problem(problem_text, parse_domain(domain_text))
        monkeypatch.setattr(grounding, "GroundAction", counted)
        monkeypatch.setattr(grounding, "GROUNDING_BUDGET", 100)
        with pytest.raises(GroundingError, match="grounding exceeds the budget of 100 actions"):
            ground(problem)
        assert built == []

    def test_bench_writes_a_grounding_error_row(self):
        proc = run_python(DISJUNCTION_BENCH_CHILD, stdin=json.dumps(disjunction_pddl(20)), timeout=20)
        assert proc.returncode == 0, proc.stderr[-2000:]
        status = "grounding-error: the precondition of go exceeds the budget of 1000000 DNF branches"
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, [status]]

    def test_goal_branches_are_counted(self, monkeypatch):
        import planwright.planner.grounding as grounding

        problem = graph_problem(AT_FROM, [])
        goal = And((Or((Atom("fresh", ("p1",)), Atom("fresh", ("p2",)))), Or((Atom("power"), Atom("fresh", ("home",))))))
        monkeypatch.setattr(grounding, "GROUNDING_BUDGET", 3)
        with pytest.raises(GroundingError, match="the goal exceeds the budget of 3 DNF branches"):
            ground(ProblemInstance(problem.domain, problem.objects, problem.init, goal))
        monkeypatch.undo()
        assert len(ground(ProblemInstance(problem.domain, problem.objects, problem.init, goal)).goal) == 4

    def test_small_disjunctions_ground_every_variant(self):
        from planwright.pddl import parse_domain, parse_problem

        domain_text, problem_text = disjunction_pddl(3, objects=2)
        problem = parse_problem(problem_text, parse_domain(domain_text))
        assert check_instantiation(problem) == (16, 16, 2)


def _blocksworld(*names: str) -> list[ProblemInstance]:
    """The bundled blocksworld problems ``names``, parsed against one domain."""
    from planwright.data_paths import benchmarks_root
    from planwright.pddl import parse_domain, parse_problem

    src = benchmarks_root() / "blocksworld"
    domain = parse_domain((src / "domain.pddl").read_text())
    return [parse_problem((src / f"{name}.pddl").read_text(), domain) for name in names]


class TestDomainForm:
    """Each `DomainModel` is compiled once, on its first grounding, and
    every later problem of that domain object binds the same form."""

    def test_problems_of_one_domain_match_the_reference(self):
        first, second = _blocksworld("p01", "p05")
        assert first.domain is second.domain
        for problem in (first, second, first):
            check_instantiation(problem)
        assert "_grounding_form" in vars(first.domain)

    def test_regrounding_equals_a_fresh_parse(self):
        [problem] = _blocksworld("p03")
        [fresh] = _blocksworld("p03")
        once, twice = ground(problem), ground(problem)
        assert once == twice == ground(fresh)
        assert once.atoms == ground(fresh).atoms and once.actions == ground(fresh).actions

    def test_edited_domain_gets_its_own_form(self):
        # In D1 nothing adds adj, so the static check drops every drive
        # whose adj is false initially. D2 adds an action that adds adj and
        # keeps D1's drive schema object: its drives must all be built.
        from planwright.values import replace

        init = [Atom("adj", ("home", "p1"))]
        first = graph_problem(And((AT_FROM, Atom("adj", ("?from", "?to")))), init)
        x, y = Parameter("?x", "place"), Parameter("?y", "place")
        link = ActionSchema("link", (x, y), And(()), (SetEffect(Atom("adj", ("?x", "?y"))),))
        edited = replace(first.domain, actions=first.domain.actions + (link,))
        second = ProblemInstance(edited, first.objects, first.init, first.goal, "graph")
        assert edited.action_map()["drive"] is first.domain.action_map()["drive"]

        assert check_instantiation(first) == (9, 1, 1)
        assert check_instantiation(second) == (18, 18, 18)
        assert [a.args for a in ground(second).actions if a.name == "drive"][5] == ("t1", "p1", "p2")

    def test_cached_forms_are_no_fields(self):
        from planwright.values import replace

        [problem] = _blocksworld("p02")
        [fresh] = _blocksworld("p02")
        domain = problem.domain
        before = (repr(domain), hash(domain))
        assert validate(problem) == []
        ground(problem)
        assert {"_grounding_form", "_numeric_in_use"} <= set(vars(domain))
        assert (repr(domain), hash(domain)) == before == (repr(fresh.domain), hash(fresh.domain))
        assert domain == fresh.domain and fresh.domain == domain
        copy = replace(domain)
        assert copy == domain and not {"_grounding_form", "_numeric_in_use"} & set(vars(copy))

    def test_edited_domain_reads_a_numeric_fluent(self):
        # validate keeps the numeric fluents that a domain's actions use with
        # the domain, so an edit that reads one is checked afresh.
        from planwright.pddl import parse_domain, parse_problem
        from planwright.values import replace

        domain = parse_domain("""(define (domain tank) (:requirements :numeric-fluents)
  (:predicates (done)) (:functions (fuel))
  (:action finish :parameters () :precondition (and) :effect (done)))""")
        problem = parse_problem("(define (problem tank-1) (:domain tank) (:init) (:goal (done)))", domain)
        assert validate(problem) == []
        burn = ActionSchema("burn", (), Comparison(">=", NumFluent("fuel", ()), NumConst(Fraction(1))), (SetEffect(Atom("done", ())),))
        edited = ProblemInstance(replace(domain, actions=domain.actions + (burn,)), problem.objects, problem.init, problem.goal, problem.name)
        assert [v.code for v in validate(edited)] == ["uninitialized-numeric"]
        assert validate(problem) == []


class TestSuccessorIndex:
    """The generator's mask is exactly the actions whose atom preconditions
    hold, as a scan finds them, and each one's entry applies it as
    `GroundAction.apply` does. States are also checked the way `solve`
    builds them, with a numeric-vector index in the bits above the atoms."""

    @staticmethod
    def check(problem: ProblemInstance, vectors=(0, 1, 5, 1000)) -> set[int]:
        task = ground(problem)
        successors = SuccessorGenerator(task.actions)
        n = len(task.atoms)
        seen = set()
        for bools, nums in random_walk_states(task, seeds=range(4), steps=30):
            expected = sum(1 << i for i, a in enumerate(task.actions) if branch_holds(a.pos, a.neg, (), bools, nums))
            for vector in vectors:
                state = bools | vector << n
                assert successors.applicable(state) == expected
            for idx in _mask_bits(expected):
                action = task.actions[idx]
                num, keep, add, effects = successors.entries[idx]
                assert (num, effects) == (action.num, action.num_effects)
                after, after_nums = action.apply(bools, nums)
                for vector in vectors:  # solve keeps the vector index of a propositional successor
                    assert (bools | vector << n) & keep | add == after | vector << n
                if not effects:
                    assert after_nums == nums
                if applicable(action, bools, nums):
                    seen.add(idx)
        assert seen  # the walks exercise the entries
        return seen

    def test_numeric_task_with_a_partial_last_slice(self):
        # 14 atoms: the one 16-atom slice holds 14 of them, and the two bits
        # above them, with everything higher, hold the vector index.
        problem = refuel_problem(0, 1)
        task = ground(problem)
        assert len(task.atoms) % 16 and all(a.num for a in task.actions)
        self.check(problem)

    def test_partly_filled_third_slice(self):
        # 41 atoms, the highest that a precondition tests being atom 39: two
        # full 16-atom slices, then one that reads 8 atoms.
        problem = blocksworld_problem("bw-5", [["b1", "b2"], ["b3", "b4", "b5"]], [["b5", "b4", "b3", "b2", "b1"]])
        task = ground(problem)
        assert len(task.atoms) == 41
        assert [(shift, bits.bit_length()) for shift, bits, _ in SuccessorGenerator(task.actions).slices] == [(0, 16), (16, 16), (32, 8)]
        self.check(problem)

    def test_tested_atoms_leave_a_window_empty(self):
        # Atoms 16-31 are only ever added and deleted, never tested, so no
        # slice covers them; the slice above still reads atoms 32-47.
        def action(i: int, pos: int, neg: int) -> GroundAction:
            return GroundAction(f"a{i}", (), pos, neg, (), 1 << (16 + i % 16) | 1 << (32 + i % 5), 1 << i % 7, ())

        actions = tuple(action(i, 1 << i % 7 | 1 << (32 + i % 3), 1 << (40 + i % 4) if i % 2 else 0) for i in range(20))
        successors = SuccessorGenerator(actions)
        assert [shift for shift, _, _ in successors.slices] == [0, 32]
        rng = random.Random(0)
        for _ in range(300):
            state = rng.getrandbits(48) | rng.getrandbits(8) << 48  # bits above the atoms stand for a vector index
            expected = sum(1 << i for i, a in enumerate(actions) if branch_holds(a.pos, a.neg, (), state, ()))
            assert successors.applicable(state) == expected
        assert successors.applicable((1 << 7) - 1 | 7 << 32) == successors.every  # every odd action's negation holds too

    @pytest.mark.parametrize("kind", [0, 1])
    def test_scale_instances_with_more_than_64_actions(self, kind):
        problem = scale_instances(1)[kind]  # blocksworld, then grippers
        assert len(ground(problem).actions) > 64
        assert max(self.check(problem)) >= 64  # applicable actions in the second 64-bit word

    @pytest.mark.parametrize(
        "problem, atoms, actions",
        [
            (blocksworld_problem("bw-10", [[f"b{i}" for i in range(1, 11)]], [[f"b{i}" for i in range(10, 0, -1)]]), 131, 200),
            (
                grippers_problem(
                    "g-8", rooms=4, robots=2,
                    ball_rooms={f"ball{b}": f"room{b % 4 + 1}" for b in range(1, 9)},
                    goal_rooms={f"ball{b}": f"room{(b + 1) % 4 + 1}" for b in range(1, 9)},
                ),
                112, 288,
            ),
        ],
        ids=["blocksworld-10", "grippers-2-4-8"],
    )
    def test_larger_tasks_match_the_reference_search(self, problem, atoms, actions):
        # Several full slices and masks wider than three 64-bit words.
        task = ground(problem)
        assert (len(task.atoms), len(task.actions)) == (atoms, actions)
        self.check(problem)
        result = solve(task, SolveConfig(node_budget=300)).to_json()
        assert result == reference_solve(task, node_budget=300)
        assert result["status"] == "budget-exhausted"

    def test_every_action_applicable(self):
        from planwright.pddl import parse_domain, parse_problem

        domain, problem_text = touch_pddl(5)
        problem = parse_problem(problem_text, parse_domain(domain))
        task = ground(problem)
        assert SuccessorGenerator(task.actions).applicable(task.init_bools) == (1 << 626) - 1
        self.check(problem)

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
        assert any(not a.pos for a in ground(problem).actions)  # open-valve needs only (not (open ?v))
        self.check(problem)

    def test_numeric_and_no_positive_precondition(self):
        problem = meter_problem()
        task = ground(problem)
        assert any(a.num and not a.pos for a in task.actions)
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
        assert dict(verdict.final_numerics)[NumFluent("battery_level", ("robot1",))] >= 20

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
            apps = [a for a in task.actions if applicable(a, bools, nums)]
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
            if applicable(action, task.init_bools, task.init_nums):
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
            expected = eval_ground(problem.goal, atoms_of(task, bools), numerics_of(task, nums))
            assert task.goal_holds(bools, nums) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}  # the walk reaches both sides of the goal

    def test_h_add_of_disjunction_is_min_of_disjuncts(self):
        base = battery_problem(30)
        g1 = And((BALL_IN_ROOM2, Comparison(">=", BATTERY, _num(20))))
        g2 = And((Atom("carry", ("robot1", "ball1", "lgripper1")), Not(ROBOT_IN_ROOM1)))
        either, first, second = (ground(_with_goal(base, g)) for g in (Or((g1, g2)), g1, g2))
        for bools, nums in random_walk_states(either):
            # Each task numbers its own atoms, so the state is mapped through them.
            atoms = atoms_of(either, bools)
            first_bools, second_bools = (sum(1 << i for i, a in enumerate(t.atoms) if a in atoms) for t in (first, second))
            for estimate in (h_add, h_max_cost):
                assert estimate(either, bools, nums) == min(estimate(first, first_bools, nums), estimate(second, second_bools, nums))


ODOMETER = NumFluent("odometer", ("robot1",))


def _unset_battery() -> ProblemInstance:
    problem = battery_problem(30)
    return ProblemInstance(problem.domain, problem.objects, Assignment.create(problem.init.true_atoms), problem.goal)


def _with_odometer(amount, initial) -> ProblemInstance:
    """``battery_problem(30)`` whose move also increases ``(odometer ?r)``
    by ``amount``. The odometer starts at ``initial``, or has no value if
    that is None."""
    problem = battery_problem(30)
    domain = problem.domain
    move = domain.action_map()["move"]
    drive = NumericEffect("increase", NumFluent("odometer", ("?r",)), amount)
    move = ActionSchema(move.name, move.parameters, move.precondition, move.effects + (drive,))
    robot = (Parameter("?r", "robot"),)
    fluents = domain.fluents + (FluentDecl("odometer", robot, kind="numeric"), FluentDecl("speed", robot, kind="numeric"))
    actions = tuple(move if a.name == "move" else a for a in domain.actions)
    numeric = problem.init.numeric + (((ODOMETER, Fraction(initial)),) if initial is not None else ())
    init = Assignment.create(problem.init.true_atoms, numeric)
    return ProblemInstance(DomainModel(domain.name, domain.types, fluents, actions), problem.objects, init, problem.goal)


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

    def test_imports_nothing_from_grounding_search_or_heuristics(self):
        # The validator is the independent cross-check of the planner, so a
        # substitution or evaluation defect must not be shared with it.
        tree = ast.parse(Path(validation.__file__).read_text(encoding="utf-8"))
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(part for alias in node.names for part in alias.name.split("."))
        assert not names & {"grounding", "search", "heuristics"}

    @pytest.mark.parametrize(
        "problem, step, atom",
        [
            (_unset_battery(), 0, "(battery_level robot1)"),
            (_with_odometer(NumFluent("speed", ("?r",)), initial=0), 0, "(speed robot1)"),
            (_with_odometer(_num(1), initial=None), 0, "(odometer robot1)"),
            (_with_goal(battery_problem(30), Comparison(">=", ODOMETER, _num(0))), 1, "(odometer robot1)"),
        ],
        ids=["precondition", "effect-amount", "effect-target", "goal"],
    )
    def test_numeric_atom_without_value(self, problem, step, atom):
        # One numeric atom has no value, read where the id names; every other
        # one that the plan reaches has a value.
        plan = Plan((PlanStep("move", ("robot1", "room1", "room2")),))
        assert validate_plan(problem, plan) == Invalid(step, f"numeric atom {atom} has no value")

    @staticmethod
    def _tank(precondition, effects, level: int) -> ProblemInstance:
        """One numeric fluent ``(level)``, from ``level``, and one action
        ``step`` with the given precondition and effects; the goal is true."""
        domain = DomainModel(
            "tank",
            fluents=tuple(FluentDecl(name, (), kind="numeric") for name in ("level", "low", "high")),
            actions=(ActionSchema("step", (), precondition, effects),),
        )
        init = Assignment.create([], [(NumFluent(name, ()), Fraction(level)) for name in ("level", "low", "high")])
        return ProblemInstance(domain, (), init, And(()), "tank")

    @pytest.mark.parametrize("op", ["<", "<=", "=", ">=", ">"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_comparison_holds_exactly_as_its_operator(self, op, level):
        # (op (level) 2) at a level below, at and above 2.
        holds = {"<": level < 2, "<=": level <= 2, "=": level == 2, ">=": level >= 2, ">": level > 2}[op]
        problem = self._tank(Comparison(op, NumFluent("level", ()), _num(2)), (), level)
        verdict = validate_plan(problem, Plan((PlanStep("step", ()),)))
        assert verdict == (Valid(problem.init.numeric) if holds else Invalid(0, f"({op} (level) 2)"))

    def test_increase_decrease_and_assign_update_their_own_targets(self):
        level, low, high = (NumFluent(name, ()) for name in ("level", "low", "high"))
        effects = (NumericEffect("increase", level, _num(3)), NumericEffect("decrease", low, _num(2)), NumericEffect("assign", high, _num(7)))
        verdict = validate_plan(self._tank(And(()), effects, 10), Plan((PlanStep("step", ()),) * 2))
        assert verdict == Valid(((high, Fraction(7)), (level, Fraction(16)), (low, Fraction(6))))


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
            assert action.neg == 0 and not action.num  # test scope
            pre = [cost[i] for i in bits(action.pos)]
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
            return cost[task.atoms.index(expr)]
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
