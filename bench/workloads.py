"""The benchmark's workloads, each a generator of timed items.

A workload generator yields zero-argument callables. The worker times each
call and sends its result back into the generator, which checks it before
yielding the next item; everything between two yields (reading inputs,
making fresh directories, checking outputs) stays outside the timed item.
planwright is imported inside the generators, after any tracing wrappers are
installed, so the items call the traced bindings.
"""
from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Generator

ItemGen = Generator[Callable[[], Any], Any, None]


class Context:
    """What one pass of a workload gets: its seed, a scratch directory and a failure log.

    Every pass of a run yields the same items in the same order, so run.py
    can line up the timings of one item across passes.
    """

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.items = 0
        self.failed_items: set[int] = set()
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        """Mark the most recent item failed unless ``ok``."""
        if not ok:
            self.failed_items.add(self.items - 1)
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


@dataclass(frozen=True)
class Workload:
    name: str
    items_per_pass: int
    # Seconds one pass takes on the reference machine (bench/README.md); it
    # turns --seconds into a fixed pass count, so every version of the
    # program does the same work in a run.
    nominal_pass_s: float
    generate: Callable[[Context], ItemGen]


def plan_is_valid(problem, plan) -> bool:
    """The correctness gate for plans: the independent VAL-style validator."""
    from planwright.planner import Valid, validate_plan

    return isinstance(validate_plan(problem, plan), Valid)


# ------------------------------------------------------------ suite-blind


def _bench_problem(domain, text: str, filename: str, cfg):
    """The per-problem sequence of `planwright bench`."""
    from planwright.ir import validate
    from planwright.pddl import parse_problem
    from planwright.planner import ground, solve, validate_plan

    problem = parse_problem(text, domain, filename=filename)
    if validate(problem):
        return problem, None, None
    outcome = solve(ground(problem), cfg)
    verdict = validate_plan(problem, outcome.plan) if outcome.plan is not None else None
    return problem, outcome, verdict


def suite_blind(ctx: Context) -> ItemGen:
    from planwright.data_paths import benchmarks_root
    from planwright.pddl import parse_domain
    from planwright.planner import SolveConfig, Valid

    problems = []
    for domain_dir in sorted(p for p in benchmarks_root().iterdir() if p.is_dir()):
        domain_path = domain_dir / "domain.pddl"
        domain = parse_domain(domain_path.read_text(encoding="utf-8"), filename=str(domain_path))
        for path in sorted(domain_dir.glob("*.pddl")):
            if path.name != "domain.pddl":
                problems.append((domain, path.read_text(encoding="utf-8"), str(path)))
    random.Random(f"suite-blind:{ctx.seed}").shuffle(problems)
    cfg = SolveConfig()  # A*/blind, the CLI default
    for domain, text, filename in problems:
        problem, outcome, verdict = yield partial(_bench_problem, domain, text, filename, cfg)
        if ctx.check(outcome is not None and outcome.status == "plan", f"{filename}: not solved"):
            ctx.check(isinstance(verdict, Valid) and plan_is_valid(problem, outcome.plan), f"{filename}: invalid plan")


# ------------------------------------------------------------ scale-hadd

SCALE_BLOCKS = 7
SCALE_ROOMS = 4
SCALE_ROBOTS = 2
SCALE_BALLS = 4
SCALE_PAIRS = 20


def _towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    shuffled = blocks[:]
    rng.shuffle(shuffled)
    towers: list[list[str]] = []
    for block in shuffled:
        if not towers or rng.random() < 0.45:
            towers.append([block])
        else:
            rng.choice(towers).append(block)
    return towers


def scale_instances(seed: int) -> list:
    """Blocksworld and grippers instances, alternating, built from the seed alone.

    Blocksworld goals are one tower of every block and grippers goals move
    every ball to another room, so instance cost varies less from seed to seed
    than with fully random goals; no planner call chooses or filters them.
    """
    from planwright.domains import blocksworld_problem, grippers_problem

    rng = random.Random(f"scale-hadd:{seed}")
    blocks = [f"b{i}" for i in range(1, SCALE_BLOCKS + 1)]
    rooms = [f"room{i}" for i in range(1, SCALE_ROOMS + 1)]
    out = []
    for i in range(SCALE_PAIRS):
        goal = blocks[:]
        rng.shuffle(goal)
        out.append(blocksworld_problem(f"blocks{SCALE_BLOCKS}-{i:02d}", _towers(rng, blocks), [goal]))
        ball_rooms = {f"ball{b}": rng.choice(rooms) for b in range(1, SCALE_BALLS + 1)}
        goal_rooms = {ball: rng.choice([r for r in rooms if r != room]) for ball, room in ball_rooms.items()}
        robot_rooms = {f"robot{r}": rng.choice(rooms) for r in range(1, SCALE_ROBOTS + 1)}
        out.append(
            grippers_problem(f"grippers{SCALE_BALLS}-{i:02d}", SCALE_ROOMS, SCALE_ROBOTS, ball_rooms, goal_rooms, robot_rooms)
        )
    return out


def _solve_instance(problem, cfg):
    from planwright.planner import ground, solve, validate_plan

    outcome = solve(ground(problem), cfg)
    verdict = validate_plan(problem, outcome.plan) if outcome.plan is not None else None
    return outcome, verdict


def scale_hadd(ctx: Context) -> ItemGen:
    from planwright.planner import SolveConfig, Valid

    # The time budget never trips; only the deterministic node budget can end a search.
    cfg = SolveConfig("greedy", "h_add", node_budget=1_000_000, time_budget=math.inf)
    for problem in scale_instances(ctx.seed):
        outcome, verdict = yield partial(_solve_instance, problem, cfg)
        if ctx.check(outcome.status == "plan", f"{problem.name}: {outcome.status}"):
            ctx.check(isinstance(verdict, Valid) and plan_is_valid(problem, outcome.plan), f"{problem.name}: invalid plan")


# ------------------------------------------------------------ replay

REPLAY_ROUNDS = 40
# Scenario -> exit code `planwright plan` must return for it.
PLAN_EXIT = {"color": 0, "size_tower": 0, "fridge_store": 0, "fridge_recall": 0, "always_failing": 1}


def _plan_argv(scenario: str) -> list[str]:
    """Arguments for one replayed `plan` run; the run directory is relative to the round."""
    from planwright.data_paths import scenario_dir

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
    from planwright.data_paths import scenario_dir

    d = scenario_dir("fridge_recall")
    return [
        "execute", "--artifacts", "fridge_recall", "--world", str(d / "world.json"),
        "--mode", "replay", "--fixture", str(d / "exec_fixture.json"), "--out-dir", "execute",
    ]


def _round_plans_valid(ctx: Context, round_dir: Path) -> None:
    from planwright.ir import jsonio
    from planwright.pddl import parse_plan

    for scenario, code in PLAN_EXIT.items():
        if code != 0:
            continue
        run = round_dir / scenario
        problem = jsonio.problem_from_json(json.loads((run / "problem.json").read_text(encoding="utf-8")))
        plan = parse_plan((run / "plan.txt").read_text(encoding="utf-8"))
        ctx.check(plan_is_valid(problem, plan), f"{scenario}: invalid plan")


def replay(ctx: Context) -> ItemGen:
    """Rounds of the shipped scenarios through `planwright.cli.main`, in-process.

    Each round runs in a fresh directory and uses paths relative to it, so the
    run directories of every round must be identical to round 0's.
    """
    from planwright.cli import main
    from planwright.data_paths import scenario_dir
    from planwright.runs import normalized_tree

    rng = random.Random(f"replay:{ctx.seed}")
    recall_store = scenario_dir("fridge_recall") / "memory.jsonl"
    home = Path.cwd()
    reference = None
    for round_index in range(REPLAY_ROUNDS):
        round_dir = ctx.work / f"round-{round_index:03d}"
        round_dir.mkdir(parents=True)
        (round_dir / "fridge_recall").mkdir()
        shutil.copyfile(recall_store, round_dir / "fridge_recall" / "memory.jsonl")
        scenarios = list(PLAN_EXIT)
        rng.shuffle(scenarios)
        os.chdir(round_dir)
        try:
            for scenario in scenarios:
                code = yield partial(main, _plan_argv(scenario))
                ctx.check(code == PLAN_EXIT[scenario], f"plan {scenario}: exit {code}")
            code = yield partial(main, _execute_argv())
            ctx.check(code == 0, f"execute: exit {code}")
        finally:
            os.chdir(home)
        verdict = json.loads((round_dir / "execute" / "verdict.json").read_text(encoding="utf-8"))
        ctx.check(verdict.get("decision") == "goal-met", f"execute: verdict {verdict.get('decision')}")
        tree = normalized_tree(round_dir)
        if reference is None:
            reference = tree
            _round_plans_valid(ctx, round_dir)
        else:
            ctx.check(tree == reference, f"round {round_index}: run directories differ from round 0")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite-blind", 140, 5.5, suite_blind),
        Workload("scale-hadd", 2 * SCALE_PAIRS, 30.0, scale_hadd),
        Workload("replay", REPLAY_ROUNDS * (len(PLAN_EXIT) + 1), 3.75, replay),
    )
}
