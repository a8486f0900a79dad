"""Conversational wire types shared by all agents."""
from __future__ import annotations

from typing import Any, Optional

from ..values import Value, set_field

ROLE_SYSTEM = "system"
ROLE_USER = "user"
ROLE_ASSISTANT = "assistant"
ROLE_TOOL_RESULT = "tool-result"

ROLES = (ROLE_SYSTEM, ROLE_USER, ROLE_ASSISTANT, ROLE_TOOL_RESULT)

class MessageError(ValueError):
    """A message or request violates the conversational invariants."""


class ToolParam(Value):
    """One tool argument; every argument is a required string."""

    name: str
    description: str = ""
    type = "string"
    required = True
    _json_keys = ("name", "type", "required", "description")


class ToolSchema(Value):
    name: str
    description: str = ""
    parameters: tuple[ToolParam, ...] = ()

    def validate_arguments(self, arguments: dict[str, Any]) -> list[str]:
        """Return every schema problem with the given argument map."""
        problems = []
        known = [p.name for p in self.parameters]
        for name in known:
            if name not in arguments:
                problems.append(f"missing required argument {name!r}")
        for name, value in arguments.items():
            if name not in known:
                problems.append(f"unexpected argument {name!r}")
            elif not isinstance(value, str):
                problems.append(f"argument {name!r} must be string")
        return problems


class ToolCall(Value):
    id: str
    name: str
    arguments: dict[str, Any]
    _json_kinds = {"id": str, "name": str, "arguments": dict}
    _json_defaults = {"arguments": None}

    def __init__(self, id: str, name: str, arguments: Optional[dict[str, Any]] = None):
        set_field(self, "id", id)
        set_field(self, "name", name)
        set_field(self, "arguments", {} if arguments is None else arguments)


class AgentMessage(Value):
    role: str
    content: str
    tool_calls: tuple[ToolCall, ...]
    tool_call_id: Optional[str]
    _json_omit = {"tool_calls": (), "tool_call_id": None}
    _json_kinds = {"role": str, "content": str, "tool_calls": [ToolCall], "tool_call_id": (str, type(None))}
    _json_defaults = {"content": "", "tool_calls": (), "tool_call_id": None}

    def __init__(self, role: str, content: str = "", tool_calls: tuple[ToolCall, ...] = (), tool_call_id: Optional[str] = None):
        # Written out: replay builds one per message, the most of any value.
        set_field(self, "role", role)
        set_field(self, "content", content)
        set_field(self, "tool_calls", tuple(tool_calls))  # so no calls is always the omitted ()
        set_field(self, "tool_call_id", tool_call_id)


def system(content: str) -> AgentMessage:
    return AgentMessage(ROLE_SYSTEM, content)


def user(content: str) -> AgentMessage:
    return AgentMessage(ROLE_USER, content)


def assistant(content: str = "", tool_calls: tuple[ToolCall, ...] = ()) -> AgentMessage:
    return AgentMessage(ROLE_ASSISTANT, content, tool_calls)


def tool_result(call_id: str, content: str) -> AgentMessage:
    return AgentMessage(ROLE_TOOL_RESULT, content, tool_call_id=call_id)


class ChatRequest(Value):
    messages: tuple[AgentMessage, ...]
    tools: tuple[ToolSchema, ...] = ()

    def validate(self) -> None:
        if not self.messages or self.messages[0].role != ROLE_SYSTEM:
            raise MessageError("the first message must be a system message")
        seen_call_ids: set[str] = set()
        for msg in self.messages:
            if msg.role not in ROLES:
                raise MessageError(f"unknown role {msg.role!r}")
            if msg.tool_calls and msg.role != ROLE_ASSISTANT:
                raise MessageError("tool calls are only allowed on assistant messages")
            if msg.role == ROLE_TOOL_RESULT:
                if msg.tool_call_id is None or msg.tool_call_id not in seen_call_ids:
                    raise MessageError(f"tool result references unknown call id {msg.tool_call_id!r}")
            for call in msg.tool_calls:
                seen_call_ids.add(call.id)
        names = [t.name for t in self.tools]
        if len(names) != len(set(names)):
            raise MessageError("duplicate tool names in request")
