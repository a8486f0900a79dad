"""Structured pipeline event log, the run's inspectable transcript."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(eq=False)
class PipelineEvent:
    kind: str  # chat | tool-call | user-query | edit | memory-store | retrieval | critic | status
    agent: str = ""
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "agent": self.agent, "data": self.data}


class EventLog:
    def __init__(self) -> None:
        self.events: list[PipelineEvent] = []

    def add(self, kind: str, agent: str = "", **data: Any) -> PipelineEvent:
        event = PipelineEvent(kind, agent, data)
        self.events.append(event)
        return event

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.events]
