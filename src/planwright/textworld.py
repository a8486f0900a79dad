"""Deterministic text-based household environment.

Stands in for a 3D simulator during executor runs: entity state, a small
skill vocabulary, generated observations, and an exact goal check. States
are immutable values; each skill application returns a result plus the new
state, and a failed skill returns the state unchanged.
"""
from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union

from .gateway import ToolParam, ToolSchema
from .ir import And, Atom, Expression, Not, Or, jsonio
from .values import IRDecodeError, Value, replace, set_field

HANDS = 2


class UnknownEntityError(KeyError):
    pass


class Location(Value):
    kind: str  # "in" | "on" | "at" | "held" | "free"
    target: str = ""
    _json_kinds = {"kind": str, "target": str}
    _json_defaults = {"kind": "free"}

    def describe(self) -> str:
        if self.kind == "held":
            return "held by the agent"
        if self.kind == "free":
            return "here"
        return f"{self.kind} {self.target}"


class Entity(Value):
    id: str
    cls: str  # item | surface | container | heater | room …
    location: Location = Location("free")
    is_open: bool = False
    is_heated: bool = False
    # Read by position, so the JSON key "class" fills the field cls.
    _json_kinds = {"id": str, "class": str, "location": Location, "is_open": bool, "is_heated": bool}

    def json_items(self) -> list[tuple[str, Any]]:
        return [("class" if key == "cls" else key, value) for key, value in super().json_items()]

    @property
    def openable(self) -> bool:
        return self.cls in ("container", "heater")

    @property
    def grabbable(self) -> bool:
        return self.cls == "item"


class WorldState(Value):
    entities: tuple[Entity, ...]
    agent_at: str = ""
    hands: tuple[Optional[str], ...] = (None,) * HANDS
    _json_keys = ("agent_at", "hands", "entities")
    _json_kinds = {"entities": [Entity], "agent_at": str, "hands": [(str, type(None))]}
    _json_defaults = {"entities": ()}

    def __post_init__(self) -> None:
        set_field(self, "entities", tuple(sorted(self.entities, key=lambda e: e.id)))

    @classmethod
    def from_json(cls, data: Any) -> "WorldState":
        state = super().from_json(data)
        if len(state.hands) != HANDS:
            raise IRDecodeError(f"hands must hold exactly {HANDS} entries")
        return state

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


class SkillResult(Value):
    success: bool
    observation: str


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
    handler = SKILLS[skill][0]
    return handler(state, *args)


def _fail(state: WorldState, text: str) -> tuple[SkillResult, WorldState]:
    return SkillResult(False, text), state


def _walk_to(state: WorldState, target: str) -> tuple[SkillResult, WorldState]:
    new = replace(state, agent_at=target)
    return SkillResult(True, f"You walk to the {target}."), new


def _open(state: WorldState, target: str) -> tuple[SkillResult, WorldState]:
    entity = state.entity(target)
    if state.agent_at != target:
        return _fail(state, f"You are not next to the {target}; walk to it first.")
    if not entity.openable:
        return _fail(state, f"The {target} cannot be opened.")
    if entity.is_open:
        return _fail(state, f"The {target} is already open.")
    new = state.with_entity(replace(entity, is_open=True))
    return SkillResult(True, f"The {target} is now open."), new


def _close(state: WorldState, target: str) -> tuple[SkillResult, WorldState]:
    entity = state.entity(target)
    if state.agent_at != target:
        return _fail(state, f"You are not next to the {target}; walk to it first.")
    if not entity.openable:
        return _fail(state, f"The {target} cannot be closed.")
    if not entity.is_open:
        return _fail(state, f"The {target} is already closed.")
    new = state.with_entity(replace(entity, is_open=False))
    return SkillResult(True, f"The {target} is now closed."), new


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
    return SkillResult(True, f"You pick up the {target}."), new


def _release(state: WorldState, target: str, location: Location, verb: str) -> tuple[SkillResult, WorldState]:
    entity = state.entity(target)
    if entity.location.kind != "held":
        return _fail(state, f"You are not holding the {target}.")
    hands = tuple(None if h == target else h for h in state.hands)
    new = replace(state.with_entity(replace(entity, location=location)), hands=hands)
    return SkillResult(True, f"You {verb} the {target} {location.describe()}."), new


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
    return SkillResult(True, f"The {target} is heated."), new


# The skill vocabulary: name -> (handler, parameter names, description).
# The executor model sees each entry as a tool whose arguments are entity ids.
SKILLS = {
    "walk_to": (_walk_to, ("target",), "Walk next to the named entity."),
    "open": (_open, ("target",), "Open a container you are next to."),
    "close": (_close, ("target",), "Close a container you are next to."),
    "grab": (_grab, ("target",), "Pick up a reachable item with a free hand."),
    "put_on": (_put_on, ("target", "destination"), "Place a held item onto a surface you are next to."),
    "put_in": (_put_in, ("target", "destination"), "Put a held item into an open container you are next to."),
    "heat": (_heat, ("target",), "Heat an item that sits inside a heater you are next to."),
}

# What each skill argument names, shown to the executor model with the tool.
_ARGUMENT_DESCRIPTIONS = {
    "target": "Id of the entity the skill acts on.",
    "destination": "Id of the surface or container that receives the held item.",
}


def describe_state(state: WorldState) -> str:
    """Deterministic description covering every entity's location and
    salient properties."""
    lines = []
    for entity in state.entities:
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


class TextWorldEnv:
    """The executor's environment: a mutable handle over immutable world states.

    The only mutation path is `apply`, so every state change in a run maps
    to exactly one logged skill invocation.
    """

    tools = tuple(
        ToolSchema(name, description, tuple(ToolParam(p, _ARGUMENT_DESCRIPTIONS[p]) for p in params))
        for name, (_, params, description) in SKILLS.items()
    )

    def __init__(self, state: WorldState, goal: Expression):
        self.state = state
        self.goal = goal

    def describe(self) -> str:
        return describe_state(self.state)

    def apply(self, skill: str, arguments: dict) -> SkillResult:
        """Apply one skill call, taking its arguments in the table's parameter order."""
        params = SKILLS[skill][1] if skill in SKILLS else ()
        args = tuple(arguments[p] for p in params)
        try:
            result, new_state = apply_skill(self.state, skill, args)
        except KeyError as exc:
            return SkillResult(False, f"There is no entity called {exc.args[0]!r} here.")
        self.state = new_state
        return result

    def goal_satisfied(self) -> bool:
        return check_goal(self.state, self.goal)


# ---------------------------------------------------------------- fixtures


def load_world(path: Union[str, Path]) -> WorldState:
    return WorldState.from_json(jsonio.read_object(Path(path).read_text(encoding="utf-8")))
