from __future__ import annotations

import http.client
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from planwright.gateway import (
    AgentMessage,
    BackendError,
    ChatRequest,
    FingerprintMismatch,
    Gateway,
    HashedBagOfWordsEmbedder,
    LiveBackend,
    MessageError,
    ReplayBackend,
    ScriptedBackend,
    ToolArgumentError,
    ToolCall,
    ToolParam,
    ToolSchema,
    Transcript,
    assistant,
    fingerprint,
    system,
    tool_result,
    user,
)

from helpers import reference_fingerprint

FLUENT_TOOL = ToolSchema(
    "missing_or_incorrect_fluent",
    "Request the addition or modification of a fluent.",
    (
        ToolParam("fluent_name"),
        ToolParam("fluent_description"),
    ),
)


def simple_request(*extra, tools=()):
    return ChatRequest(messages=(system("You are a planner."),) + extra, tools=tuple(tools))


class TestChatRequest:
    def test_first_message_must_be_system(self):
        with pytest.raises(MessageError):
            ChatRequest(messages=(user("hi"),)).validate()

    def test_tool_result_must_reference_known_call(self):
        request = simple_request(tool_result("call-1", "ok"))
        with pytest.raises(MessageError):
            request.validate()

    def test_valid_tool_cycle(self):
        request = simple_request(
            user("add color"),
            assistant(tool_calls=(ToolCall("call-1", "missing_or_incorrect_fluent", {"fluent_name": "color", "fluent_description": "d"}),)),
            tool_result("call-1", "applied"),
            tools=[FLUENT_TOOL],
        )
        request.validate()


class TestGatewayChat:
    def test_scripted_tool_call_passthrough(self):
        call = ToolCall("call-1", "missing_or_incorrect_fluent", {"fluent_name": "color", "fluent_description": "block color"})
        gateway = Gateway(ScriptedBackend([assistant(tool_calls=(call,))]))
        response = gateway.chat(simple_request(user("go"), tools=[FLUENT_TOOL]))
        assert response.tool_calls == (call,)

    def test_missing_required_argument_lists_name(self):
        call = ToolCall("call-1", "missing_or_incorrect_fluent", {"fluent_description": "only description"})
        gateway = Gateway(ScriptedBackend([assistant(tool_calls=(call,))]))
        with pytest.raises(ToolArgumentError) as err:
            gateway.chat(simple_request(user("go"), tools=[FLUENT_TOOL]))
        assert any("fluent_name" in p for p in err.value.problems)

    def test_argument_problems_in_schema_order(self):
        problems = FLUENT_TOOL.validate_arguments({"fluent_name": 3, "extra": "x", "fluent_description": True})
        assert problems == [
            "argument 'fluent_name' must be string",
            "unexpected argument 'extra'",
            "argument 'fluent_description' must be string",
        ]
        assert FLUENT_TOOL.validate_arguments({}) == [
            "missing required argument 'fluent_name'",
            "missing required argument 'fluent_description'",
        ]

    def test_unknown_tool_rejected(self):
        call = ToolCall("call-1", "levitate", {})
        gateway = Gateway(ScriptedBackend([assistant(tool_calls=(call,))]))
        with pytest.raises(ToolArgumentError):
            gateway.chat(simple_request(user("go"), tools=[FLUENT_TOOL]))


class TestRecordReplay:
    def test_record_then_replay_round_trip(self):
        responses = [assistant("first"), assistant("second")]
        recording = Transcript()
        live = Gateway(ScriptedBackend(responses), recording=recording)
        r1 = simple_request(user("one"))
        r2 = simple_request(user("two"))
        assert live.chat(r1).content == "first"
        assert live.chat(r2).content == "second"

        replay = Gateway(ReplayBackend(recording))
        assert replay.chat(r1).content == "first"
        assert replay.chat(r2).content == "second"

    def test_replay_diverging_request_names_position(self):
        recording = Transcript()
        live = Gateway(ScriptedBackend([assistant("a"), assistant("b")]), recording=recording)
        live.chat(simple_request(user("one")))
        live.chat(simple_request(user("two")))

        replay = Gateway(ReplayBackend(recording))
        replay.chat(simple_request(user("one")))
        with pytest.raises(FingerprintMismatch) as err:
            replay.chat(simple_request(user("one"), user("EXTRA")))
        assert err.value.position == 1

    def test_replay_exhaustion_is_mismatch(self):
        replay = Gateway(ReplayBackend(Transcript()))
        with pytest.raises(FingerprintMismatch):
            replay.chat(simple_request(user("anything")))

    def test_transcript_file_round_trip(self, tmp_path):
        recording = Transcript()
        live = Gateway(ScriptedBackend([assistant("x")]), recording=recording)
        req = simple_request(user("one"))
        live.chat(req)
        path = tmp_path / "fixture.json"
        recording.save(path)
        loaded = Transcript.load(path)
        assert loaded.exchanges[0].fingerprint == fingerprint(req)
        assert Gateway(ReplayBackend(loaded)).chat(req).content == "x"

    def test_fixture_with_embeddings_key_still_loads(self, tmp_path):
        """Fixtures once carried an ``embeddings`` map; one that still does
        replays as before, and a saved transcript no longer writes the key."""
        recording = Transcript()
        req = simple_request(user("one"))
        Gateway(ScriptedBackend([assistant("x")]), recording=recording).chat(req)
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(recording.to_json() | {"embeddings": {"fridge": [0.5, 1]}}), encoding="utf-8")
        loaded = Transcript.load(path)
        assert Gateway(ReplayBackend(loaded)).chat(req).content == "x"
        loaded.save(path)
        assert "embeddings" not in json.loads(path.read_text(encoding="utf-8"))


class TestFingerprint:
    """`fingerprint` joins canonical texts kept on each message and schema;
    the hash must equal that of one dump of the whole request."""

    def test_every_shipped_request(self, monkeypatch, tmp_path):
        from planwright.gateway import backends

        from test_replay_golden import replay_round

        requests = []

        def recording(request):
            requests.append(request)
            return fingerprint(request)

        monkeypatch.setattr(backends, "fingerprint", recording)
        replay_round(tmp_path)
        assert len(requests) == 77  # the five plan replays and the execute
        for request in requests:
            assert fingerprint(request) == reference_fingerprint(request)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_generated_requests(self, data):
        text = st.text(max_size=12)
        arguments = st.dictionaries(text, st.one_of(text, st.integers(), st.booleans(), st.none(), st.lists(text, max_size=3)), max_size=4)
        calls = st.builds(ToolCall, text, text, st.one_of(st.none(), arguments))
        messages = st.builds(
            lambda role, content, tool_calls, call_id: AgentMessage(role, content, tuple(tool_calls), call_id),
            st.sampled_from(["system", "user", "assistant", "tool-result"]),
            text,
            st.lists(calls, max_size=2),
            st.one_of(st.none(), text),
        )
        tools = st.builds(ToolSchema, text, text, st.lists(st.builds(ToolParam, text, text), max_size=3).map(tuple))
        pool = data.draw(st.lists(messages, min_size=1, max_size=5))
        schemas = data.draw(st.lists(tools, max_size=3))
        # Requests that share message objects, as a conversation's do, each
        # hashed after the shared ones were cached by an earlier request.
        for end in range(1, len(pool) + 1):
            request = ChatRequest(tuple(pool[:end]), tuple(schemas))
            assert fingerprint(request) == reference_fingerprint(request)


class TestEmbedder:
    def test_self_similarity_is_one(self):
        v = HashedBagOfWordsEmbedder().embed("close the fridge goal")
        dot = sum(a * b for a, b in zip(v, v))
        assert math.isclose(dot / (math.sqrt(dot) * math.sqrt(dot)), 1.0)

    def test_disjoint_token_sets_orthogonal(self):
        emb = HashedBagOfWordsEmbedder()
        a = emb.embed("alpha beta gamma")
        b = emb.embed("delta epsilon zeta")
        buckets_a = {i for i, c in enumerate(a) if c}
        buckets_b = {i for i, c in enumerate(b) if c}
        if buckets_a & buckets_b:
            pytest.skip("hash collision between chosen tokens")
        assert sum(x * y for x, y in zip(a, b)) == 0

    def test_shared_tokens_positive(self):
        emb = HashedBagOfWordsEmbedder()
        a = emb.embed("close the fridge goal")
        b = emb.embed("fridge task")
        assert sum(x * y for x, y in zip(a, b)) > 0

    def test_deterministic_across_instances(self):
        assert HashedBagOfWordsEmbedder().embed("pack my bags") == HashedBagOfWordsEmbedder().embed("pack my bags")

    def test_deterministic_across_processes(self):
        from helpers import run_python

        probe = (
            "from planwright.gateway import HashedBagOfWordsEmbedder;"
            "print(HashedBagOfWordsEmbedder().embed('close the fridge goal'))"
        )
        runs = [run_python(probe) for _ in range(2)]
        assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr
        assert len({proc.stdout for proc in runs}) == 1


class TestLiveBackendWire:
    def test_wire_format_and_response_parsing(self):
        seen = {}

        def transport(url, headers, payload):
            seen["url"] = url
            seen["payload"] = payload
            return {
                "choices": [
                    {
                        "message": {
                            "content": None,
                            "tool_calls": [
                                {
                                    "id": "abc",
                                    "function": {
                                        "name": "missing_or_incorrect_fluent",
                                        "arguments": '{"fluent_name": "color", "fluent_description": "d"}',
                                    },
                                }
                            ],
                        }
                    }
                ]
            }

        backend = LiveBackend("gpt-4o", base_url="https://example.test/v1", transport=transport)
        gateway = Gateway(backend)
        import os

        os.environ["PLANWRIGHT_API_KEY"] = "test-key"
        try:
            response = gateway.chat(simple_request(user("add color"), tools=[FLUENT_TOOL]))
        finally:
            del os.environ["PLANWRIGHT_API_KEY"]
        assert seen["url"].endswith("/chat/completions")
        assert seen["payload"]["messages"][0]["role"] == "system"
        assert response.tool_calls[0].arguments["fluent_name"] == "color"
        assert seen["payload"]["tools"][0]["function"]["parameters"] == {
            "type": "object",
            "properties": {
                "fluent_name": {"type": "string", "description": ""},
                "fluent_description": {"type": "string", "description": ""},
            },
            "required": ["fluent_name", "fluent_description"],
        }

    @pytest.mark.parametrize(
        "tool_call",
        [
            {"id": "a", "function": {"name": "missing_or_incorrect_fluent", "arguments": "[1]"}},
            {"id": "a", "function": {"name": "missing_or_incorrect_fluent", "arguments": "5"}},
            {"id": "a", "function": {"name": "missing_or_incorrect_fluent", "arguments": '"s"'}},
            {"id": "a", "function": {"name": "missing_or_incorrect_fluent", "arguments": [1]}},
            {"id": "a", "function": {"name": "missing_or_incorrect_fluent", "arguments": "[" * 5000 + "]" * 5000}},
            {"id": "a", "function": {"name": "missing_or_incorrect_fluent", "arguments": '{"a": ' + "1" * 5000 + "}"}},
            {"id": "a"},
        ],
        ids=["list", "number", "string", "unencoded-list", "too-deep", "huge-int", "no-function"],
    )
    def test_tool_call_that_is_no_object_is_reported(self, monkeypatch, tool_call):
        """Arguments that are JSON but no object come back as ``_raw`` for the
        agent's correction loop, like unparseable text; a tool call with no
        function is a malformed response."""
        response = {"choices": [{"message": {"content": None, "tool_calls": [tool_call]}}]}
        monkeypatch.setenv("PLANWRIGHT_API_KEY", "test-key")
        gateway = Gateway(LiveBackend("gpt-4o", transport=lambda url, headers, payload: response))
        request = simple_request(user("add color"), tools=[FLUENT_TOOL])
        if "function" not in tool_call:
            with pytest.raises(BackendError, match="malformed backend response"):
                gateway.chat(request)
            return
        with pytest.raises(ToolArgumentError) as err:
            gateway.chat(request)
        assert err.value.response.tool_calls[0].arguments == {"_raw": tool_call["function"]["arguments"]}

    @pytest.mark.parametrize(
        "body",
        [
            ["x"],
            {"choices": "abc"},
            {"choices": [["message"]]},
            {"choices": [{"message": "hi"}]},
            {"choices": [{"message": {"content": 5}}]},
            {"choices": [{"message": {"content": None, "tool_calls": 5}}]},
            {"choices": [{"message": {"tool_calls": [{"id": 5, "function": {"name": "missing_or_incorrect_fluent"}}]}}]},
            {"choices": [{"message": {"tool_calls": [{"id": "c1", "function": {"name": 5}}]}}]},
            {"choices": []},
            {"choices": [{"message": {"content": "", "tool_calls": ""}}]},
            {"choices": [{"message": {"content": "", "tool_calls": 0}}]},
            {"choices": [{"message": {"content": "", "tool_calls": False}}]},
            {"choices": [{"message": {"content": "", "tool_calls": {}}}]},
        ],
        ids=[
            "body-list", "choices-string", "choice-list", "message-string", "content-number", "tool-calls-number",
            "tool-call-id-number", "tool-call-name-number", "choices-empty", "tool-calls-empty-string",
            "tool-calls-zero", "tool-calls-false", "tool-calls-empty-object",
        ],
    )
    def test_response_of_the_wrong_shape_is_reported(self, monkeypatch, body):
        """A body, choice or message that is no object, no choice at all,
        content that is neither a string nor null, tool calls that are
        neither a list nor null (falsy ones included), and a tool call whose
        id or name is no string are malformed responses: a recording of any
        of them could not be replayed."""
        monkeypatch.setenv("PLANWRIGHT_API_KEY", "test-key")
        gateway = Gateway(LiveBackend("gpt-4o", transport=lambda url, headers, payload: body))
        with pytest.raises(BackendError, match="malformed backend response"):
            gateway.chat(simple_request(user("add color"), tools=[FLUENT_TOOL]))

    @pytest.mark.parametrize(
        "body",
        [b"[" * 5000 + b"]" * 5000, b"<html>busy</html>", b'{"choices": "\xff"}', b'{"a": ' + b"1" * 5000 + b"}"],
        ids=["too-deep", "not-json", "not-utf-8", "huge-int"],
    )
    def test_http_body_that_cannot_be_parsed_is_reported(self, monkeypatch, body):
        """The default transport reads the response body through
        `jsonio.loads`, so a body nested too deep, no JSON at all, not UTF-8
        or with an integer past the interpreter's digit limit is a malformed
        response, not an exception from the parser."""
        import io
        import urllib.request

        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body))
        monkeypatch.setenv("PLANWRIGHT_API_KEY", "test-key")
        gateway = Gateway(LiveBackend("gpt-4o", base_url="https://example.test/v1"))
        with pytest.raises(BackendError, match="malformed backend response"):
            gateway.chat(simple_request(user("add color")))

    @pytest.mark.parametrize(
        "error",
        [TimeoutError("timed out"), ConnectionResetError("reset by peer"), http.client.IncompleteRead(b'{"cho')],
        ids=["timeout", "reset", "cut-off"],
    )
    def test_failed_read_is_reported(self, monkeypatch, error):
        """A read that times out, whose connection is reset or whose body is
        cut off is a `BackendError`, like an unreachable endpoint."""
        import urllib.request

        class Response:
            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def read(self):
                raise error

        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: Response())
        monkeypatch.setenv("PLANWRIGHT_API_KEY", "test-key")
        gateway = Gateway(LiveBackend("gpt-4o", base_url="https://example.test/v1"))
        with pytest.raises(BackendError, match="chat backend unreachable"):
            gateway.chat(simple_request(user("add color")))

    @pytest.mark.parametrize(
        "settings, expected",
        [({"model": "gpt-4o"}, ("gpt-4o", 0.0)), ({"model": "other", "temperature": 0.7}, ("other", 0.7))],
    )
    def test_model_and_temperature_come_from_the_backend(self, monkeypatch, settings, expected):
        """A request carries no sampling settings; every payload uses the backend's own."""
        payloads = []

        def transport(url, headers, payload):
            payloads.append(payload)
            return {"choices": [{"message": {"content": "ok"}}]}

        monkeypatch.setenv("PLANWRIGHT_API_KEY", "test-key")
        gateway = Gateway(LiveBackend(transport=transport, **settings))
        gateway.chat(simple_request(user("one")))
        gateway.chat(simple_request(user("two"), tools=[FLUENT_TOOL]))
        assert [(p["model"], p["temperature"]) for p in payloads] == [expected, expected]
