#!/usr/bin/env python3
"""Generate the bundled benchmark problem sets.

Seven domains, twenty problems each. Each domain is defined by its shipped
``domain.pddl`` alone: the generators read it through
``planwright.domains.bundled_domain`` and emit it back unchanged, so the
drift test holds every shipped file to a parse/emit fixpoint. The problems
are generated from seeded random sources. Blocksworld and grippers instances
are kept small enough for exhaustive-search cross-checks; the other five
exist for codec coverage at realistic shapes.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planwright.domains import blocksworld_problem, bundled_domain, grippers_problem
from planwright.ir import And, Assignment, Atom, DomainModel, ObjectDecl, ProblemInstance, validate
from planwright.pddl import emit_domain, emit_problem, parse_domain, parse_problem

OUT = Path(__file__).resolve().parents[1] / "src" / "planwright" / "data" / "benchmarks"


def problem_name(domain: DomainModel, index: int) -> str:
    return f"{domain.name}-{index + 1:02d}"


# ------------------------------------------------------------------ barman


def barman_problem(domain: DomainModel, index: int, rng: random.Random) -> ProblemInstance:
    shots = rng.randint(2, 4)
    ingredients = rng.randint(2, 3)
    objects = [ObjectDecl("left", "hand"), ObjectDecl("right", "hand")]
    objects += [ObjectDecl(f"shot{i}", "shot") for i in range(1, shots + 1)]
    objects += [ObjectDecl(f"ing{i}", "ingredient") for i in range(1, ingredients + 1)]
    objects += [ObjectDecl(f"disp{i}", "dispenser") for i in range(1, ingredients + 1)]
    atoms = [Atom("handempty", ("left",)), Atom("handempty", ("right",))]
    for i in range(1, shots + 1):
        atoms += [Atom("ontable", (f"shot{i}",)), Atom("clean", (f"shot{i}",)), Atom("empty", (f"shot{i}",))]
    for i in range(1, ingredients + 1):
        atoms.append(Atom("dispenses", (f"disp{i}", f"ing{i}")))
    goal = And(
        tuple(
            Atom("contains", (f"shot{i}", f"ing{rng.randint(1, ingredients)}"))
            for i in range(1, min(shots, 2) + 1)
        )
    )
    return ProblemInstance(domain, tuple(objects), Assignment.create(atoms), goal, problem_name(domain, index))


# ---------------------------------------------------------------- floortile


def floortile_problem(domain: DomainModel, index: int, rng: random.Random) -> ProblemInstance:
    rows = rng.randint(2, 3)
    cols = rng.randint(2, 3)
    colors = ["white", "black"]
    tiles = [f"tile-{r}-{c}" for r in range(rows) for c in range(cols)]
    objects = [ObjectDecl("robot1", "robot")] + [ObjectDecl(t, "tile") for t in tiles]
    objects += [ObjectDecl(c, "color") for c in colors]
    atoms = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                atoms.append(Atom("up", (f"tile-{r}-{c}", f"tile-{r + 1}-{c}")))
            if c + 1 < cols:
                atoms.append(Atom("right", (f"tile-{r}-{c}", f"tile-{r}-{c + 1}")))
    start = tiles[0]
    atoms.append(Atom("robot-at", ("robot1", start)))
    atoms += [Atom("clear", (t,)) for t in tiles if t != start]
    atoms += [Atom("available-color", (c,)) for c in colors]
    atoms.append(Atom("robot-has", ("robot1", rng.choice(colors))))
    paint_target = tiles[-1]
    goal = And((Atom("painted", (paint_target, rng.choice(colors))),))
    return ProblemInstance(domain, tuple(objects), Assignment.create(atoms), goal, problem_name(domain, index))


# ------------------------------------------------------------------ storage


def storage_problem(domain: DomainModel, index: int, rng: random.Random) -> ProblemInstance:
    areas = rng.randint(3, 5)
    crates = rng.randint(1, 2)
    objects = [ObjectDecl("hoist1", "hoist")]
    objects += [ObjectDecl(f"area{i}", "area") for i in range(1, areas + 1)]
    objects += [ObjectDecl(f"crate{i}", "crate") for i in range(1, crates + 1)]
    atoms = [Atom("at", ("hoist1", "area1")), Atom("available", ("hoist1",))]
    for i in range(1, areas):
        atoms.append(Atom("connected", (f"area{i}", f"area{i + 1}")))
        atoms.append(Atom("connected", (f"area{i + 1}", f"area{i}")))
    crate_areas = rng.sample(range(2, areas + 1), crates)
    clear = set(range(2, areas + 1)) - set(crate_areas)
    for i, area in enumerate(crate_areas, start=1):
        atoms.append(Atom("in", (f"crate{i}", f"area{area}")))
    for area in sorted(clear):
        atoms.append(Atom("clear", (f"area{area}",)))
    goal = And(tuple(Atom("in", (f"crate{i}", f"area{rng.choice(sorted(clear) or [2])}")) for i in range(1, crates + 1)))
    return ProblemInstance(domain, tuple(objects), Assignment.create(atoms), goal, problem_name(domain, index))


# ------------------------------------------------------------------- termes


def termes_problem(domain: DomainModel, index: int, rng: random.Random) -> ProblemInstance:
    positions = rng.randint(3, 4)
    heights = 3
    objects = [ObjectDecl(f"pos-0-{i}", "position") for i in range(positions)]
    objects += [ObjectDecl(f"n{i}", "numb") for i in range(heights)]
    atoms = [Atom("at", ("pos-0-0",)), Atom("depot", ("pos-0-0",))]
    for i in range(positions - 1):
        atoms.append(Atom("neighbor", (f"pos-0-{i}", f"pos-0-{i + 1}")))
        atoms.append(Atom("neighbor", (f"pos-0-{i + 1}", f"pos-0-{i}")))
    for i in range(positions):
        atoms.append(Atom("height", (f"pos-0-{i}", "n0")))
    for i in range(heights - 1):
        atoms.append(Atom("succ", (f"n{i + 1}", f"n{i}")))
    target = rng.randint(1, positions - 1)
    goal = And((Atom("height", (f"pos-0-{target}", "n1")),))
    return ProblemInstance(domain, tuple(objects), Assignment.create(atoms), goal, problem_name(domain, index))


# ---------------------------------------------------------------- tyreworld


def tyreworld_problem(domain: DomainModel, index: int, rng: random.Random) -> ProblemInstance:
    hubs = rng.randint(1, 2)
    objects = [ObjectDecl("wrench1", "tool")]
    atoms = [Atom("is-wrench", ("wrench1",)), Atom("in-boot", ("wrench1",))]
    goal_terms = []
    for i in range(1, hubs + 1):
        objects += [
            ObjectDecl(f"hub{i}", "hub"),
            ObjectDecl(f"nut{i}", "nut"),
            ObjectDecl(f"flat{i}", "wheel"),
            ObjectDecl(f"spare{i}", "wheel"),
        ]
        atoms += [
            Atom("on-hub", (f"flat{i}", f"hub{i}")),
            Atom("tight", (f"nut{i}", f"hub{i}")),
            Atom("in-boot", (f"spare{i}",)),
        ]
        goal_terms += [
            Atom("on-hub", (f"spare{i}", f"hub{i}")),
            Atom("in-boot", (f"flat{i}",)),
        ]
    goal = And(tuple(goal_terms))
    return ProblemInstance(domain, tuple(objects), Assignment.create(atoms), goal, problem_name(domain, index))


# -------------------------------------------------------------- blocks/grip


BLOCK_SIZES = [3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6]


def random_towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    shuffled = blocks[:]
    rng.shuffle(shuffled)
    towers: list[list[str]] = []
    for block in shuffled:
        if not towers or rng.random() < 0.45:
            towers.append([block])
        else:
            rng.choice(towers).append(block)
    return towers


def gen_blocksworld(domain: DomainModel, index: int, rng: random.Random) -> ProblemInstance:
    blocks = [f"b{i}" for i in range(1, BLOCK_SIZES[index] + 1)]
    return blocksworld_problem(problem_name(domain, index), random_towers(rng, blocks), random_towers(rng, blocks))


def gen_grippers(domain: DomainModel, index: int, rng: random.Random) -> ProblemInstance:
    rooms = rng.randint(2, 3)
    robots = 1 if index < 12 else 2
    balls = rng.randint(2, 4)
    room_names = [f"room{i}" for i in range(1, rooms + 1)]
    ball_rooms = {f"ball{i}": rng.choice(room_names) for i in range(1, balls + 1)}
    goal_rooms = {ball: rng.choice(room_names) for ball in ball_rooms}
    robot_rooms = {f"robot{i}": rng.choice(room_names) for i in range(1, robots + 1)}
    return grippers_problem(problem_name(domain, index), rooms, robots, ball_rooms, goal_rooms, robot_rooms)


# Benchmark name -> factory of its problem `index` over the shipped domain.
GENERATORS = {
    "barman": barman_problem,
    "blocksworld": gen_blocksworld,
    "floortile": floortile_problem,
    "grippers": gen_grippers,
    "storage": storage_problem,
    "termes": termes_problem,
    "tyreworld": tyreworld_problem,
}


def _solvable(problem: ProblemInstance) -> bool:
    from planwright.planner import SolveConfig, ground, solve

    outcome = solve(ground(problem), SolveConfig("astar", "blind", node_budget=200_000, time_budget=30.0))
    return outcome.status == "plan"


def main() -> None:
    for name, problem_factory in sorted(GENERATORS.items()):
        directory = OUT / name
        directory.mkdir(parents=True, exist_ok=True)
        domain = bundled_domain(name)
        domain_text = emit_domain(domain)
        assert parse_domain(domain_text) == domain, name
        (directory / "domain.pddl").write_text(domain_text, encoding="utf-8")
        for index in range(20):
            # per-instance seeding keeps output stable; bump the seed until
            # the instance provably solves
            for attempt in range(50):
                rng = random.Random(f"planwright-{name}-{index}-{attempt}")
                problem = problem_factory(domain, index, rng)
                report = validate(problem)
                assert not report, (name, index, report)
                if _solvable(problem):
                    break
            else:
                raise RuntimeError(f"could not generate a solvable {name} instance {index}")
            text = emit_problem(problem)
            assert parse_problem(text, domain) == problem, (name, index)
            (directory / f"p{index + 1:02d}.pddl").write_text(text, encoding="utf-8")
        print(f"{name}: domain + 20 problems")


if __name__ == "__main__":
    main()
