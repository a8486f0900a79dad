"""Tool schemas the generator agents may invoke."""
from __future__ import annotations

from ..gateway import ToolParam, ToolSchema

MISSING_OR_INCORRECT_FLUENT = "missing_or_incorrect_fluent"
ACTION_MODIFICATION = "action_modification"
MISSING_OBJECTS = "missing_objects"
ASK_USER = "ask_user"
STORE_MEMORY = "store_memory"

FLUENT_TOOL = ToolSchema(
    MISSING_OR_INCORRECT_FLUENT,
    "Request the addition or modification of a fluent.",
    (
        ToolParam("fluent_name", "Name of the fluent to add or fix."),
        ToolParam("fluent_description", "What the fluent represents and why it is needed."),
    ),
)

ACTION_TOOL = ToolSchema(
    ACTION_MODIFICATION,
    "Requests modifications to an existing action.",
    (
        ToolParam("action_name", "Name of the action to modify."),
        ToolParam("change_description", "The required change to preconditions or effects."),
    ),
)

OBJECTS_TOOL = ToolSchema(
    MISSING_OBJECTS,
    "Requests the addition of objects required for the goal.",
    (
        ToolParam("object_type", "Declared type of the missing objects."),
        ToolParam("object_description", "Which objects are missing and why."),
    ),
)

ASK_USER_TOOL = ToolSchema(
    ASK_USER,
    "Ask the user one question about information the description does not provide.",
    (ToolParam("question", "The question to put to the user."),),
)

STORE_MEMORY_TOOL = ToolSchema(
    STORE_MEMORY,
    "Save a generalizable correction or instruction to long-term memory.",
    (ToolParam("summary", "Self-contained summary worth recalling for future tasks."),),
)

TOOLSETS: dict[str, tuple[ToolSchema, ...]] = {
    "domain": (STORE_MEMORY_TOOL,),
    "initial-state": (FLUENT_TOOL, ACTION_TOOL, ASK_USER_TOOL, STORE_MEMORY_TOOL),
    "goal": (FLUENT_TOOL, ACTION_TOOL, OBJECTS_TOOL, STORE_MEMORY_TOOL),
}
