"""The blocksworld and grippers domains and problem builders that the
benchmark workloads and the benchmark generator use.

A bundled benchmark domain is defined once, by its shipped
``data/benchmarks/<name>/domain.pddl``; ``bundled_domain`` reads it. The
problem builders are plain IR constructors.
"""
from __future__ import annotations

import functools

from .data_paths import benchmarks_root
from .ir import And, Assignment, Atom, DomainModel, ObjectDecl, ProblemInstance
from .pddl import parse_domain


@functools.cache
def bundled_domain(name: str) -> DomainModel:
    """The shipped ``data/benchmarks/<name>/domain.pddl``, parsed once per process."""
    path = benchmarks_root() / name / "domain.pddl"
    return parse_domain(path.read_text(encoding="utf-8"), filename=str(path))


def blocksworld_domain() -> DomainModel:
    return bundled_domain("blocksworld")


def blocksworld_problem(name: str, towers: list[list[str]], goal_towers: list[list[str]]) -> ProblemInstance:
    """Towers are listed bottom-up; every mentioned block is an object."""
    blocks = sorted({b for tower in towers for b in tower})
    atoms = [Atom("arm-empty")]
    for tower in towers:
        atoms.append(Atom("on-table", (tower[0],)))
        atoms.append(Atom("clear", (tower[-1],)))
        for below, above in zip(tower, tower[1:]):
            atoms.append(Atom("on", (above, below)))
    goal = []
    for tower in goal_towers:
        for below, above in zip(tower, tower[1:]):
            goal.append(Atom("on", (above, below)))
    return ProblemInstance(
        domain=blocksworld_domain(),
        objects=tuple(ObjectDecl(b, "block") for b in blocks),
        init=Assignment.create(atoms),
        goal=And(tuple(goal)),
        name=name,
    )


def grippers_domain() -> DomainModel:
    return bundled_domain("grippers")


def grippers_problem(
    name: str,
    rooms: int,
    robots: int,
    ball_rooms: dict[str, str],
    goal_rooms: dict[str, str],
    robot_rooms: dict[str, str] | None = None,
) -> ProblemInstance:
    objects = [ObjectDecl(f"room{i}", "room") for i in range(1, rooms + 1)]
    objects += [ObjectDecl(f"robot{i}", "robot") for i in range(1, robots + 1)]
    objects += [ObjectDecl(b, "ball") for b in sorted(ball_rooms)]
    atoms = []
    for i in range(1, robots + 1):
        robot = f"robot{i}"
        home = (robot_rooms or {}).get(robot, "room1")
        atoms.append(Atom("at-robby", (robot, home)))
        for side in ("l", "r"):
            grip = f"{side}gripper{i}"
            objects.append(ObjectDecl(grip, "gripper"))
            atoms.append(Atom("free", (robot, grip)))
    for ball, room in ball_rooms.items():
        atoms.append(Atom("at", (ball, room)))
    goal = And(tuple(Atom("at", (ball, room)) for ball, room in sorted(goal_rooms.items())))
    return ProblemInstance(
        domain=grippers_domain(),
        objects=tuple(objects),
        init=Assignment.create(atoms),
        goal=goal,
        name=name,
    )
