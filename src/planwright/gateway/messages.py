"""Conversational wire types shared by all agents."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..ir import jsonio

ROLE_SYSTEM = "system"
ROLE_USER = "user"
ROLE_ASSISTANT = "assistant"
ROLE_TOOL_RESULT = "tool-result"

ROLES = (ROLE_SYSTEM, ROLE_USER, ROLE_ASSISTANT, ROLE_TOOL_RESULT)

SCALAR_TYPES = {
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


class MessageError(ValueError):
    """A message or request violates the conversational invariants."""


@dataclass
class ToolParam:
    name: str
    type: str = "string"
    required: bool = True
    description: str = ""


@dataclass
class ToolSchema:
    name: str
    description: str = ""
    parameters: tuple[ToolParam, ...] = ()

    def validate_arguments(self, arguments: dict[str, Any]) -> list[str]:
        """Return every schema problem with the given argument map."""
        problems = []
        known = {p.name: p for p in self.parameters}
        for param in self.parameters:
            if param.required and param.name not in arguments:
                problems.append(f"missing required argument {param.name!r}")
        for name, value in arguments.items():
            param = known.get(name)
            if param is None:
                problems.append(f"unexpected argument {name!r}")
                continue
            expected = SCALAR_TYPES.get(param.type)
            if expected is None:
                problems.append(f"parameter {name!r} has unknown type {param.type!r}")
            elif not isinstance(value, expected) or (param.type != "boolean" and isinstance(value, bool)):
                problems.append(f"argument {name!r} must be {param.type}")
        return problems

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "parameters": [
                {"name": p.name, "type": p.type, "required": p.required, "description": p.description}
                for p in self.parameters
            ],
        }


@dataclass
class ToolCall:
    id: str
    name: str
    arguments: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "arguments": self.arguments}

    @staticmethod
    def from_json(data: Any) -> "ToolCall":
        return ToolCall(jsonio.field(data, "id", str), jsonio.field(data, "name", str), dict(jsonio.field(data, "arguments", dict, {})))


@dataclass
class AgentMessage:
    role: str
    content: str = ""
    tool_calls: tuple[ToolCall, ...] = ()
    tool_call_id: Optional[str] = None

    def to_json(self) -> dict:
        out: dict[str, Any] = {"role": self.role, "content": self.content}
        if self.tool_calls:
            out["tool_calls"] = [tc.to_json() for tc in self.tool_calls]
        if self.tool_call_id is not None:
            out["tool_call_id"] = self.tool_call_id
        return out

    @staticmethod
    def from_json(data: Any) -> "AgentMessage":
        return AgentMessage(
            role=jsonio.field(data, "role", str),
            content=jsonio.field(data, "content", str, ""),
            tool_calls=tuple(ToolCall.from_json(tc) for tc in jsonio.field(data, "tool_calls", list, [])),
            tool_call_id=jsonio.field(data, "tool_call_id", (str, type(None)), None),
        )


def system(content: str) -> AgentMessage:
    return AgentMessage(ROLE_SYSTEM, content)


def user(content: str) -> AgentMessage:
    return AgentMessage(ROLE_USER, content)


def assistant(content: str = "", tool_calls: tuple[ToolCall, ...] = ()) -> AgentMessage:
    return AgentMessage(ROLE_ASSISTANT, content, tool_calls)


def tool_result(call_id: str, content: str) -> AgentMessage:
    return AgentMessage(ROLE_TOOL_RESULT, content, tool_call_id=call_id)


@dataclass
class ChatRequest:
    messages: tuple[AgentMessage, ...]
    tools: tuple[ToolSchema, ...] = ()
    temperature: float = 0.0
    model: str = "default"

    def validate(self) -> None:
        if not self.messages or self.messages[0].role != ROLE_SYSTEM:
            raise MessageError("the first message must be a system message")
        if not 0.0 <= self.temperature <= 2.0:
            raise MessageError(f"temperature {self.temperature} outside [0, 2]")
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
