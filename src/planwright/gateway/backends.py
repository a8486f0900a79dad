"""Chat-completion backends: live HTTP and transcript replay.

The scripted stand-in for a model that fixtures are recorded from lives
with the scenario scripts, in ``scripts/scenarios.py``.
"""
from __future__ import annotations

import json
import os
from typing import Callable, Optional, Protocol

from ..ir import jsonio
from .messages import AgentMessage, ChatRequest, ToolCall
from .transcript import FingerprintMismatch, Transcript, fingerprint

HTTP_TIMEOUT_S = 120.0  # seconds any one socket operation of a request may block


class Backend(Protocol):
    def complete(self, request: ChatRequest) -> AgentMessage: ...


class BackendError(RuntimeError):
    pass


class ReplayBackend:
    """Serves recorded responses, verifying each request against its
    recorded fingerprint. A mismatch means the caller diverged from the
    fixture and is always an error."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript
        self.position = 0

    def complete(self, request: ChatRequest) -> AgentMessage:
        if self.position >= len(self.transcript.exchanges):
            raise FingerprintMismatch(self.position, "fixture has no further exchanges")
        exchange = self.transcript.exchanges[self.position]
        fp = fingerprint(request)
        if fp != exchange.fingerprint:
            raise FingerprintMismatch(
                self.position,
                f"expected fingerprint {exchange.fingerprint[:12]}…, request hashes to {fp[:12]}…",
            )
        self.position += 1
        return exchange.response


class LiveBackend:
    """OpenAI-style chat-completions over HTTP.

    The model id and sampling temperature are this endpoint's settings and
    go into every request it sends. The transport is injectable for tests;
    by default it POSTs JSON with the API key read from the environment.
    """

    def __init__(
        self,
        model: str,
        base_url: str = "https://api.openai.com/v1",
        temperature: float = 0.0,
        api_key_env: str = "PLANWRIGHT_API_KEY",
        transport: Optional[Callable[[str, dict, dict], dict]] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.api_key_env = api_key_env
        self.transport = transport or self._http_post

    def _http_post(self, url: str, headers: dict, payload: dict) -> dict:
        # Imported here so that replay and offline runs never load the HTTP stack.
        import http.client
        import urllib.request

        body = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(url, data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
                raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:  # URLError, a timeout, a reset connection, a body cut off
            raise BackendError(f"chat backend unreachable: {exc}") from exc
        try:
            return jsonio.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, jsonio.IRDecodeError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc

    def complete(self, request: ChatRequest) -> AgentMessage:
        """One exchange. The reply's ``choices[0].message``, its ``content`` (str
        or null) and ``tool_calls`` (list or null), and each call's ``function``,
        ``function.name`` and ``id`` (default ``call-N``) are read with
        `jsonio.field`; any other shape raises `BackendError`."""
        key = os.environ.get(self.api_key_env, "")
        if not key:
            raise BackendError(f"no API key in ${self.api_key_env}")
        payload = {
            "model": self.model,
            "temperature": self.temperature,
            "messages": [self._wire_message(m) for m in request.messages],
        }
        if request.tools:
            payload["tools"] = [
                {
                    "type": "function",
                    "function": {
                        "name": t.name,
                        "description": t.description,
                        "parameters": {
                            "type": "object",
                            "properties": {
                                p.name: {"type": "string", "description": p.description}
                                for p in t.parameters
                            },
                            "required": [p.name for p in t.parameters],
                        },
                    },
                }
                for t in request.tools
            ]
        headers = {"Content-Type": "application/json", "Authorization": f"Bearer {key}"}
        data = self.transport(f"{self.base_url}/chat/completions", headers, payload)
        calls = []
        try:
            choices = jsonio.field(data, "choices", list)
            message = jsonio.field(choices[0] if choices else {}, "message", dict)
            content = jsonio.field(message, "content", (str, type(None)), None)
            for tc in jsonio.field(message, "tool_calls", (list, type(None)), None) or ():
                function = jsonio.field(tc, "function", dict)
                name = jsonio.field(function, "name", str)
                call_id = jsonio.field(tc, "id", str, f"call-{len(calls)}")
                raw = function.get("arguments", "{}")
                try:
                    arguments = jsonio.loads(raw) if isinstance(raw, str) else raw
                except jsonio.IRDecodeError:
                    arguments = None
                # Anything but a JSON object reaches the agent as a schema failure.
                arguments = dict(arguments) if isinstance(arguments, dict) else {"_raw": raw}
                calls.append(ToolCall(call_id, name, arguments))
        except jsonio.IRDecodeError as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
        return AgentMessage("assistant", content or "", tuple(calls))

    @staticmethod
    def _wire_message(msg: AgentMessage) -> dict:
        if msg.role == "tool-result":
            return {"role": "tool", "content": msg.content, "tool_call_id": msg.tool_call_id}
        out: dict = {"role": msg.role, "content": msg.content}
        if msg.tool_calls:
            out["tool_calls"] = [
                {
                    "id": tc.id,
                    "type": "function",
                    "function": {"name": tc.name, "arguments": json.dumps(tc.arguments)},
                }
                for tc in msg.tool_calls
            ]
        return out
