"""Structured pipeline event log, the run's inspectable transcript."""
from __future__ import annotations

from typing import Any, Optional

from ..values import Value, set_field


class PipelineEvent(Value):
    kind: str  # chat | tool-call | user-query | edit | memory-store | retrieval | critic | status
    agent: str
    data: dict[str, Any]

    def __init__(self, kind: str, agent: str = "", data: Optional[dict[str, Any]] = None):
        set_field(self, "kind", kind)
        set_field(self, "agent", agent)
        set_field(self, "data", {} if data is None else data)


class EventLog(list):
    """The run's events, in the order they happened."""

    def add(self, kind: str, agent: str = "", **data: Any) -> None:
        self.append(PipelineEvent(kind, agent, data))
