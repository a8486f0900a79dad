"""Single seam over chat-with-tools backends, with recording and replay."""
from __future__ import annotations

from typing import Optional

from ..values import Value
from .backends import Backend, BackendError, LiveBackend, ReplayBackend
from .embedding import Embedder, FixtureEmbedder, HashedBagOfWordsEmbedder
from .messages import (
    AgentMessage,
    ChatRequest,
    MessageError,
    ToolCall,
    ToolParam,
    ToolSchema,
    assistant,
    system,
    tool_result,
    user,
)
from .transcript import FingerprintMismatch, Transcript, TranscriptError, fingerprint


class ToolArgumentError(ValueError):
    """An assistant tool call failed schema validation.

    Raised to the calling agent so it can feed the problems back to the
    model instead of aborting the run.
    """

    def __init__(self, problems: list[str], response: AgentMessage):
        self.problems = problems
        self.response = response
        super().__init__("; ".join(problems))


class Gateway(Value):
    """Validates requests, dispatches to a backend, and optionally records.

    Every tool call handed back to a caller has passed schema validation
    against the tools offered in the request; invalid calls surface as
    `ToolArgumentError` for the agent's refinement loop. The recording, when
    enabled, captures the raw response before validation so a replay
    reproduces the same validation failure.
    """

    backend: Backend
    recording: Optional[Transcript] = None

    def chat(self, request: ChatRequest) -> AgentMessage:
        request.validate()
        response = self.backend.complete(request)
        if self.recording is not None:
            self.recording.append(fingerprint(request), response)
        tools = {t.name: t for t in request.tools}
        problems: list[str] = []
        for call in response.tool_calls:
            schema = tools.get(call.name)
            if schema is None:
                problems.append(f"unknown tool {call.name!r}")
                continue
            for issue in schema.validate_arguments(call.arguments):
                problems.append(f"tool {call.name}: {issue}")
        if problems:
            raise ToolArgumentError(problems, response)
        return response


__all__ = [
    "AgentMessage",
    "Backend",
    "BackendError",
    "ChatRequest",
    "Embedder",
    "FingerprintMismatch",
    "FixtureEmbedder",
    "Gateway",
    "HashedBagOfWordsEmbedder",
    "LiveBackend",
    "MessageError",
    "ReplayBackend",
    "ToolArgumentError",
    "ToolCall",
    "ToolParam",
    "ToolSchema",
    "Transcript",
    "TranscriptError",
    "assistant",
    "fingerprint",
    "system",
    "tool_result",
    "user",
]
