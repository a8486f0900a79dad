"""Recorded chat transcripts: the determinism harness.

A transcript pairs each outgoing request's fingerprint with the response
that was served. Replaying consumes the pairs in order; a request whose
fingerprint differs from the recorded one means the code under test
diverged from the fixture, which is an error, not a fallback.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional, Union

from ..ir import jsonio
from ..values import Value, field, set_field
from .messages import AgentMessage, ChatRequest


class TranscriptError(ValueError):
    pass


class FingerprintMismatch(TranscriptError):
    def __init__(self, position: int, detail: str):
        self.position = position
        super().__init__(f"replay diverged at exchange {position}: {detail}")


def fingerprint(request: ChatRequest) -> str:
    """Hash of the semantic request content: roles, texts, tool calls, and
    the tool schemas offered. The model id and sampling temperature belong
    to the live backend, not the request, so fixtures never depend on them."""
    payload = {
        "messages": [m.to_json() for m in request.messages],
        "tools": [t.to_json() for t in request.tools],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Exchange(Value):
    fingerprint: str
    response: AgentMessage
    _json_kinds = {"fingerprint": str, "response": AgentMessage}


class Transcript(Value):
    """``exchanges`` is the one list of any value that is appended to in
    place: a recording gateway adds each exchange as it is served."""

    exchanges: list[Exchange]
    version = 1
    _json_keys = ("version", "exchanges")

    def __init__(self, exchanges: Optional[list[Exchange]] = None):
        set_field(self, "exchanges", [] if exchanges is None else exchanges)

    def append(self, fp: str, response: AgentMessage) -> None:
        self.exchanges.append(Exchange(fp, response))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(jsonio.dumps(self), encoding="utf-8")

    @classmethod
    def from_json(cls, data: Any) -> "Transcript":
        version = field(data, "version", int, None)
        if version != 1:
            raise TranscriptError(f"unsupported transcript version {version!r}")
        # Replay is positional, so the same fingerprint may legitimately
        # recur when two identical requests happen at different points.
        return cls(list(field(data, "exchanges", [Exchange], ())))

    @staticmethod
    def load(path: Union[str, Path]) -> "Transcript":
        try:
            return Transcript.from_json(jsonio.read_object(Path(path).read_text(encoding="utf-8")))
        except jsonio.IRDecodeError as exc:
            raise TranscriptError(f"transcript {path} is malformed: {exc}") from exc
