"""The domains and problems the test scenarios and benchmarks revolve around.

A bundled benchmark domain is defined once, by its shipped
``data/benchmarks/<name>/domain.pddl``; ``bundled_domain`` reads it. The
problem builders and the domains no PDDL file holds (grippers with a
battery, and the household domain, whose fluent descriptions PDDL cannot
carry) are plain IR constructors.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from .data_paths import benchmarks_root
from .ir import (
    ActionSchema,
    And,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    FluentDecl,
    Not,
    NumConst,
    NumFluent,
    NumericEffect,
    ObjectDecl,
    Parameter,
    ProblemInstance,
    SetEffect,
    TypeDecl,
)
from .pddl import parse_domain

P = Parameter


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


def battery_grippers_domain(move_cost: int = 5) -> DomainModel:
    """Grippers with a battery drain on movement: moving needs and consumes
    ``move_cost`` units, mirroring the battery adaptation scenario."""
    base = grippers_domain()
    battery = FluentDecl("battery_level", (P("?r", "robot"),), kind="numeric")
    move = base.action_map()["move"]
    new_move = ActionSchema(
        "move",
        move.parameters,
        And(
            (
                Atom("at-robby", ("?r", "?from")),
                Comparison(">=", NumFluent("battery_level", ("?r",)), NumConst(Fraction(move_cost))),
            )
        ),
        move.effects + (NumericEffect("decrease", NumFluent("battery_level", ("?r",)), NumConst(Fraction(move_cost))),),
    )
    actions = tuple(new_move if a.name == "move" else a for a in base.actions)
    return DomainModel("grippers-battery", base.types, base.fluents + (battery,), actions)


def household_domain() -> DomainModel:
    item, surface, container, heater = "item", "surface", "container", "heater"
    return DomainModel(
        name="household",
        types=(
            TypeDecl(item),
            TypeDecl(surface),
            TypeDecl(container),
            TypeDecl(heater, parent=container),
        ),
        fluents=(
            FluentDecl("is_open", (P("?c", container),), description="the container's door is open"),
            FluentDecl("inside", (P("?i", item), P("?c", container))),
            FluentDecl("on", (P("?i", item), P("?s", surface))),
            FluentDecl("holding", (P("?i", item),)),
            FluentDecl("hand_empty", ()),
            FluentDecl("is_heated", (P("?i", item),)),
        ),
        actions=(
            ActionSchema(
                "open",
                (P("?c", container),),
                Not(Atom("is_open", ("?c",))),
                (SetEffect(Atom("is_open", ("?c",))),),
            ),
            ActionSchema(
                "close",
                (P("?c", container),),
                Atom("is_open", ("?c",)),
                (SetEffect(Atom("is_open", ("?c",)), False),),
            ),
            ActionSchema(
                "take-from",
                (P("?i", item), P("?c", container)),
                And((Atom("inside", ("?i", "?c")), Atom("is_open", ("?c",)), Atom("hand_empty"))),
                (
                    SetEffect(Atom("holding", ("?i",))),
                    SetEffect(Atom("inside", ("?i", "?c")), False),
                    SetEffect(Atom("hand_empty"), False),
                ),
            ),
            ActionSchema(
                "put-in",
                (P("?i", item), P("?c", container)),
                And((Atom("holding", ("?i",)), Atom("is_open", ("?c",)))),
                (
                    SetEffect(Atom("inside", ("?i", "?c"))),
                    SetEffect(Atom("hand_empty")),
                    SetEffect(Atom("holding", ("?i",)), False),
                ),
            ),
            ActionSchema(
                "put-on",
                (P("?i", item), P("?s", surface)),
                Atom("holding", ("?i",)),
                (
                    SetEffect(Atom("on", ("?i", "?s"))),
                    SetEffect(Atom("hand_empty")),
                    SetEffect(Atom("holding", ("?i",)), False),
                ),
            ),
            ActionSchema(
                "heat",
                (P("?i", item), P("?h", heater)),
                Atom("inside", ("?i", "?h")),
                (SetEffect(Atom("is_heated", ("?i",))),),
            ),
        ),
    )


def household_problem(name: str = "warm-salmon", close_fridge_goal: bool = True) -> ProblemInstance:
    goal_terms: list = [
        Atom("on", ("salmon", "kitchentable")),
        Atom("is_heated", ("salmon",)),
    ]
    if close_fridge_goal:
        goal_terms.append(Not(Atom("is_open", ("fridge_305",))))
    return ProblemInstance(
        domain=household_domain(),
        objects=(
            ObjectDecl("fridge_305", "container"),
            ObjectDecl("microwave", "heater"),
            ObjectDecl("salmon", "item"),
            ObjectDecl("pie", "item"),
            ObjectDecl("kitchentable", "surface"),
            ObjectDecl("counter", "surface"),
        ),
        init=Assignment.create(
            [
                Atom("inside", ("salmon", "fridge_305")),
                Atom("on", ("pie", "counter")),
                Atom("hand_empty"),
            ]
        ),
        goal=And(tuple(goal_terms)),
        name=name,
    )
