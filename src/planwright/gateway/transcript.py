"""Recorded chat transcripts: the determinism harness.

A transcript pairs each outgoing request's fingerprint with the response
that was served. Replaying consumes the pairs in order; a request whose
fingerprint differs from the recorded one means the code under test
diverged from the fixture, which is an error, not a fallback.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from ..ir import jsonio
from .messages import AgentMessage, ChatRequest


class TranscriptError(ValueError):
    pass


class FingerprintMismatch(TranscriptError):
    def __init__(self, position: int, detail: str):
        self.position = position
        super().__init__(f"replay diverged at exchange {position}: {detail}")


def fingerprint(request: ChatRequest) -> str:
    """Hash of the semantic request content: roles, texts, tool calls, and
    the tool schemas offered. Timestamps, model ids, and sampling settings
    are deliberately excluded so fixtures stay stable."""
    payload = {
        "messages": [m.to_json() for m in request.messages],
        "tools": [t.to_json() for t in request.tools],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Exchange:
    fingerprint: str
    response: AgentMessage


@dataclass
class Transcript:
    exchanges: list[Exchange] = field(default_factory=list)
    embeddings: dict[str, tuple] = field(default_factory=dict)

    def append(self, fp: str, response: AgentMessage) -> None:
        self.exchanges.append(Exchange(fp, response))

    def to_json(self) -> dict:
        return {
            "version": 1,
            "exchanges": [
                {"fingerprint": e.fingerprint, "response": e.response.to_json()}
                for e in self.exchanges
            ],
            "embeddings": {text: list(vec) for text, vec in sorted(self.embeddings.items())},
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def from_json(data: Any) -> "Transcript":
        version = jsonio.field(data, "version", int, None)
        if version != 1:
            raise TranscriptError(f"unsupported transcript version {version!r}")
        exchanges = []
        for entry in jsonio.field(data, "exchanges", list, []):
            # Replay is positional, so the same fingerprint may legitimately
            # recur when two identical requests happen at different points.
            exchanges.append(Exchange(jsonio.field(entry, "fingerprint", str), AgentMessage.from_json(jsonio.field(entry, "response", dict))))
        recorded = jsonio.field(data, "embeddings", dict, {})
        embeddings = {text: jsonio.tuple_of(recorded, text, (int, float)) for text in recorded}
        return Transcript(exchanges, embeddings)

    @staticmethod
    def load(path: Union[str, Path]) -> "Transcript":
        try:
            return Transcript.from_json(jsonio.read_object(Path(path).read_text(encoding="utf-8")))
        except jsonio.IRDecodeError as exc:
            raise TranscriptError(f"transcript {path} is malformed: {exc}") from exc
