"""Structured pipeline event log, the run's inspectable transcript."""
from __future__ import annotations

from typing import Any, Optional

from ..values import Record


class PipelineEvent(Record):
    kind: str  # chat | tool-call | user-query | edit | memory-store | retrieval | critic | status
    agent: str
    data: dict[str, Any]

    def __init__(self, kind: str, agent: str = "", data: Optional[dict[str, Any]] = None):
        self.kind = kind
        self.agent = agent
        self.data = {} if data is None else data


class EventLog(list):
    """The run's events, in the order they happened."""

    def add(self, kind: str, agent: str = "", **data: Any) -> PipelineEvent:
        event = PipelineEvent(kind, agent, data)
        self.append(event)
        return event
