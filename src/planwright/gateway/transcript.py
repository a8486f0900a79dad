"""Recorded chat transcripts: the determinism harness.

A transcript pairs each outgoing request's fingerprint with the response
that was served. Replaying consumes the pairs in order; a request whose
fingerprint differs from the recorded one means the code under test
diverged from the fixture, which is an error, not a fallback.

A fingerprint is the SHA-256 of the request's canonical JSON, the same text
the fixtures were recorded with, computed by prefix (see `fingerprint`).
The hash is the interpreter's own (`sha256`), so no command loads OpenSSL.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from ..ir import jsonio
from ..values import Value, cached_on, field, set_field
from .messages import AgentMessage, ChatRequest


class TranscriptError(ValueError):
    pass


class FingerprintMismatch(TranscriptError):
    def __init__(self, position: int, detail: str):
        self.position = position
        self.detail = detail
        super().__init__(f"replay diverged at exchange {position}: {detail}")


def _canonical(value: Value) -> str:
    return json.dumps(value.to_json(), sort_keys=True, separators=(",", ":"))


_new_sha256: Any = None  # the constructor `sha256` imports on first use
_messages_open: Any = None  # the hash state after '{"messages":[', made on first use


def sha256(data: bytes = b"") -> Any:
    """A SHA-256 hash object holding ``data``, from the interpreter's own
    ``_sha2`` (3.12+) or ``_sha256`` (3.10, 3.11) module, imported on first
    use. Neither loads OpenSSL's ``libcrypto``; only an interpreter built
    without both falls back to `hashlib`, whose digests are the same."""
    global _new_sha256
    if _new_sha256 is None:
        try:
            from _sha2 import sha256 as _new_sha256
        except ImportError:
            try:
                from _sha256 import sha256 as _new_sha256
            except ImportError:
                from hashlib import sha256 as _new_sha256
    return _new_sha256(data)


def fingerprint(request: ChatRequest) -> str:
    """Hash of the semantic request content: roles, texts, tool calls, and
    the tool schemas offered. The model id and sampling temperature belong
    to the live backend, not the request, so fixtures never depend on them.

    The digest is the SHA-256 of the canonical JSON (sorted keys, no spaces)
    of ``{"messages": [...], "tools": [...]}``, computed by prefix. Each
    message keeps (`cached_on`'s way) the hash state before it and the state
    after it. A conversation resends its earlier messages with every
    request, so a message reached from the very state it was last hashed
    from reuses the state after it, and only the new messages are encoded
    and hashed. A kept state is only ever copied, never updated, and no tool
    call's arguments dict is changed once the call is built. Each tool
    schema's text is kept on it, as every request offers the same few."""
    global _messages_open
    state = _messages_open
    if state is None:
        state = _messages_open = sha256(b'{"messages":[')
    for message in request.messages:
        cache = vars(message)
        before, after = cache.get("_prefix_hash", (None, None))
        if before is not state:
            text = _canonical(message)
            after = state.copy()
            after.update((text if state is _messages_open else "," + text).encode("utf-8"))
            cache["_prefix_hash"] = (state, after)
        state = after
    tools = ",".join(cached_on(t, "_canonical_json", _canonical) for t in request.tools)
    final = state.copy()
    final.update(('],"tools":[' + tools + "]}").encode("utf-8"))
    return final.hexdigest()


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
