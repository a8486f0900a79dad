"""Deterministic text-based household environment.

Stands in for a 3D simulator during executor runs: entity state, a small
skill vocabulary, generated observations, and an exact goal check. States
are immutable values; each skill application returns a result plus the new
state, and a failed skill returns the state unchanged.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Union

from .ir import And, Atom, Expression, Not, Or, jsonio

SKILLS = ("walk_to", "open", "close", "grab", "put_on", "put_in", "heat")

HANDS = 2


class UnknownEntityError(KeyError):
    pass


@dataclass(frozen=True)
class Location:
    kind: str  # "in" | "on" | "at" | "held" | "free"
    target: str = ""

    def describe(self) -> str:
        if self.kind == "held":
            return "held by the agent"
        if self.kind == "free":
            return "here"
        return f"{self.kind} {self.target}"


@dataclass(frozen=True)
class Entity:
    id: str
    cls: str  # item | surface | container | heater | room …
    location: Location = field(default_factory=lambda: Location("free"))
    is_open: bool = False
    is_heated: bool = False

    @property
    def openable(self) -> bool:
        return self.cls in ("container", "heater")

    @property
    def grabbable(self) -> bool:
        return self.cls == "item"


@dataclass(frozen=True)
class WorldState:
    entities: tuple[Entity, ...]
    agent_at: str = ""
    hands: tuple[Optional[str], ...] = (None,) * HANDS

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", tuple(sorted(self.entities, key=lambda e: e.id)))

    def entity(self, entity_id: str) -> Entity:
        for entity in self.entities:
            if entity.id == entity_id:
                return entity
        raise UnknownEntityError(entity_id)

    def with_entity(self, updated: Entity) -> "WorldState":
        return replace(self, entities=tuple(updated if e.id == updated.id else e for e in self.entities))

    def free_hand(self) -> Optional[int]:
        for i, content in enumerate(self.hands):
            if content is None:
                return i
        return None


@dataclass(frozen=True)
class SkillResult:
    success: bool
    observation: str
    delta: str = ""


def _reachable(state: WorldState, entity: Entity) -> bool:
    """The agent can touch what it walked to, and what sits on/in it
    (through an open lid)."""
    if entity.id == state.agent_at:
        return True
    loc = entity.location
    if loc.kind == "on" and loc.target == state.agent_at:
        return True
    if loc.kind == "at" and loc.target == state.agent_at:
        return True
    if loc.kind == "in" and loc.target == state.agent_at:
        return state.entity(loc.target).is_open
    return False


def apply_skill(state: WorldState, skill: str, args: tuple[str, ...]) -> tuple[SkillResult, WorldState]:
    if skill not in SKILLS:
        raise ValueError(f"unknown skill {skill!r}; available: {', '.join(SKILLS)}")
    for arg in args:
        state.entity(arg)  # raises UnknownEntityError
    handler = _HANDLERS[skill]
    return handler(state, *args)


def _fail(state: WorldState, text: str) -> tuple[SkillResult, WorldState]:
    return SkillResult(False, text), state


def _walk_to(state: WorldState, target: str) -> tuple[SkillResult, WorldState]:
    new = replace(state, agent_at=target)
    return SkillResult(True, f"You walk to the {target}.", f"agent_at={target}"), new


def _open(state: WorldState, target: str) -> tuple[SkillResult, WorldState]:
    entity = state.entity(target)
    if state.agent_at != target:
        return _fail(state, f"You are not next to the {target}; walk to it first.")
    if not entity.openable:
        return _fail(state, f"The {target} cannot be opened.")
    if entity.is_open:
        return _fail(state, f"The {target} is already open.")
    new = state.with_entity(replace(entity, is_open=True))
    return SkillResult(True, f"The {target} is now open.", f"is_open({target})=true"), new


def _close(state: WorldState, target: str) -> tuple[SkillResult, WorldState]:
    entity = state.entity(target)
    if state.agent_at != target:
        return _fail(state, f"You are not next to the {target}; walk to it first.")
    if not entity.openable:
        return _fail(state, f"The {target} cannot be closed.")
    if not entity.is_open:
        return _fail(state, f"The {target} is already closed.")
    new = state.with_entity(replace(entity, is_open=False))
    return SkillResult(True, f"The {target} is now closed.", f"is_open({target})=false"), new


def _grab(state: WorldState, target: str) -> tuple[SkillResult, WorldState]:
    entity = state.entity(target)
    if not entity.grabbable:
        return _fail(state, f"The {target} cannot be picked up.")
    if entity.location.kind == "held":
        return _fail(state, f"You are already holding the {target}.")
    if not _reachable(state, entity):
        container = entity.location
        if container.kind == "in" and not state.entity(container.target).is_open:
            return _fail(state, f"The {container.target} is closed.")
        return _fail(state, f"The {target} is out of reach; walk to it first.")
    hand = state.free_hand()
    if hand is None:
        return _fail(state, "Both hands are full.")
    hands = list(state.hands)
    hands[hand] = target
    new = replace(state.with_entity(replace(entity, location=Location("held"))), hands=tuple(hands))
    return SkillResult(True, f"You pick up the {target}.", f"holding({target})"), new


def _release(state: WorldState, target: str, location: Location, verb: str) -> tuple[SkillResult, WorldState]:
    entity = state.entity(target)
    if entity.location.kind != "held":
        return _fail(state, f"You are not holding the {target}.")
    hands = tuple(None if h == target else h for h in state.hands)
    new = replace(state.with_entity(replace(entity, location=location)), hands=hands)
    return SkillResult(True, f"You {verb} the {target} {location.describe()}.", f"{target}@{location.describe()}"), new


def _put_on(state: WorldState, target: str, surface: str) -> tuple[SkillResult, WorldState]:
    dest = state.entity(surface)
    if dest.cls not in ("surface",):
        return _fail(state, f"The {surface} is not a surface.")
    if state.agent_at != surface:
        return _fail(state, f"You are not next to the {surface}; walk to it first.")
    return _release(state, target, Location("on", surface), "place")


def _put_in(state: WorldState, target: str, container: str) -> tuple[SkillResult, WorldState]:
    dest = state.entity(container)
    if not dest.openable:
        return _fail(state, f"The {container} is not a container.")
    if state.agent_at != container:
        return _fail(state, f"You are not next to the {container}; walk to it first.")
    if not dest.is_open:
        return _fail(state, f"The {container} is closed.")
    return _release(state, target, Location("in", container), "put")


def _heat(state: WorldState, target: str) -> tuple[SkillResult, WorldState]:
    entity = state.entity(target)
    loc = entity.location
    if loc.kind != "in" or state.entity(loc.target).cls != "heater":
        return _fail(state, f"The {target} must be inside a heater to heat it.")
    if state.agent_at != loc.target:
        return _fail(state, f"You are not next to the {loc.target}; walk to it first.")
    new = state.with_entity(replace(entity, is_heated=True))
    return SkillResult(True, f"The {target} is heated.", f"is_heated({target})=true"), new


_HANDLERS = {
    "walk_to": _walk_to,
    "open": _open,
    "close": _close,
    "grab": _grab,
    "put_on": _put_on,
    "put_in": _put_in,
    "heat": _heat,
}


def describe_state(state: WorldState, agent_centric: bool = False) -> str:
    """Deterministic description covering every entity's location and
    salient properties; agent-centric mode keeps only co-located entities."""
    lines = []
    for entity in state.entities:
        if agent_centric and not (_reachable(state, entity) or entity.location.kind == "held"):
            continue
        notes = [entity.location.describe()]
        if entity.openable:
            notes.append("open" if entity.is_open else "closed")
        if entity.is_heated:
            notes.append("heated")
        lines.append(f"The {entity.id} ({entity.cls}) is {', '.join(notes)}.")
    if state.agent_at:
        lines.append(f"You are at the {state.agent_at}.")
    held = [h for h in state.hands if h]
    lines.append(f"You are holding: {', '.join(held) if held else 'nothing'}.")
    if not state.entities:
        return "Nothing here."
    return "\n".join(lines)


def check_goal(state: WorldState, goal: Expression) -> bool:
    """Exact evaluation of a goal expression over world properties."""
    if isinstance(goal, And):
        return all(check_goal(state, c) for c in goal.children)
    if isinstance(goal, Or):
        return any(check_goal(state, c) for c in goal.children)
    if isinstance(goal, Not):
        return not check_goal(state, goal.child)
    if isinstance(goal, Atom):
        return _check_atom(state, goal)
    raise ValueError(f"goal expression {goal!r} is not supported by the text world")


def _check_atom(state: WorldState, atom: Atom) -> bool:
    name, args = atom.fluent, atom.args
    if name == "is_open" and len(args) == 1:
        return state.entity(args[0]).is_open
    if name == "is_heated" and len(args) == 1:
        return state.entity(args[0]).is_heated
    if name == "on" and len(args) == 2:
        loc = state.entity(args[0]).location
        return loc.kind == "on" and loc.target == args[1]
    if name in ("in", "inside") and len(args) == 2:
        loc = state.entity(args[0]).location
        return loc.kind == "in" and loc.target == args[1]
    if name == "holding" and len(args) == 1:
        return state.entity(args[0]).location.kind == "held"
    if name == "at" and len(args) == 2:
        loc = state.entity(args[0]).location
        return loc.kind == "at" and loc.target == args[1]
    raise ValueError(f"goal references unknown world property {atom}")


# ---------------------------------------------------------------- fixtures


def state_to_json(state: WorldState) -> dict:
    return {
        "agent_at": state.agent_at,
        "hands": list(state.hands),
        "entities": [
            {
                "id": e.id,
                "class": e.cls,
                "location": {"kind": e.location.kind, "target": e.location.target},
                "is_open": e.is_open,
                "is_heated": e.is_heated,
            }
            for e in state.entities
        ],
    }


def _entity_from_json(data: Any) -> Entity:
    location = jsonio.field(data, "location", dict, {})
    return Entity(
        id=jsonio.field(data, "id", str),
        cls=jsonio.field(data, "class", str),
        location=Location(jsonio.field(location, "kind", str, "free"), jsonio.field(location, "target", str, "")),
        is_open=jsonio.field(data, "is_open", bool, False),
        is_heated=jsonio.field(data, "is_heated", bool, False),
    )


def state_from_json(data: Any) -> WorldState:
    hands = tuple(jsonio.field(data, "hands", list, [None] * HANDS))
    if not all(h is None or isinstance(h, str) for h in hands):
        raise jsonio.IRDecodeError("hands must hold entity ids or null")
    if len(hands) != HANDS:
        hands = (None,) * HANDS
    entities = tuple(_entity_from_json(e) for e in jsonio.field(data, "entities", list, []))
    return WorldState(entities, jsonio.field(data, "agent_at", str, ""), hands)


def load_world(path: Union[str, Path]) -> WorldState:
    return state_from_json(jsonio.read_object(Path(path).read_text(encoding="utf-8")))


def save_world(state: WorldState, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(state_to_json(state), indent=2) + "\n", encoding="utf-8")


def kitchen_fixture() -> WorldState:
    """The fridge-and-salmon kitchen used by the execution scenarios."""
    return WorldState(
        entities=(
            Entity("fridge_305", "container"),
            Entity("microwave", "heater"),
            Entity("salmon", "item", Location("in", "fridge_305")),
            Entity("pie", "item", Location("on", "counter")),
            Entity("kitchentable", "surface"),
            Entity("counter", "surface"),
        ),
        agent_at="kitchentable",
    )
