from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from planwright.agents import (
    AgentSession,
    CorrectionLimitReached,
    CriticVerdict,
    PipelineConfig,
    ScriptedUserChannel,
    TaskSpec,
    critic_review,
    run_pipeline,
)
from planwright.agents.critic import parse_score_payload
from planwright.agents.generation import parse_domain_artifact, parse_init_artifact, run_generation
from planwright.agents.pipeline import CALL_CEILING
from planwright.agents.prompts import load_prompt
from planwright.domains import blocksworld_domain
from planwright.gateway import (
    ChatRequest,
    Gateway,
    ReplayBackend,
    ToolCall,
    Transcript,
    assistant,
    fingerprint,
    system,
    user,
)
from planwright.ir import Atom, DomainModel, FluentDecl, Not, Parameter, TypeDecl, jsonio, validate
from planwright.memory import ProceduralStore
from planwright.pddl import emit_domain
from planwright.planner import SolveConfig, Valid, ground, solve, validate_plan
from planwright.runs import RunDirectory
from scenarios import (
    FRIDGE_MEMORY_SUMMARY,
    ScriptedBackend,
    always_failing_scenario,
    color_scenario,
    fridge_recall_scenario,
    fridge_store_scenario,
    ok_critic,
    record_scenario,
    size_tower_scenario,
)
from helpers import applied_requests, tool_calls

ASTAR = SolveConfig(strategy="astar", heuristic="blind")


def scripted_gateway(*responses):
    return Gateway(ScriptedBackend(list(responses)))


def null_resolver(origin, call):
    return "not handled in this test", False


class TestCritic:
    def test_accept_above_threshold(self):
        gw = scripted_gateway(assistant(json.dumps({"score": 0.95, "feedback": "fine"})))
        verdict = critic_review("candidate", 0.8, gw)
        assert verdict.accepted and verdict.score == 0.95

    def test_reject_below_threshold_forwards_feedback(self):
        gw = scripted_gateway(assistant(json.dumps({"score": 0.5, "feedback": "missing actions"})))
        verdict = critic_review("candidate", 0.8, gw)
        assert not verdict.accepted
        assert verdict.feedback == "missing actions"

    def test_unparsable_critic_output_is_rejection(self):
        gw = scripted_gateway(assistant("garbage, not json"))
        verdict = critic_review("candidate", 0.8, gw)
        assert not verdict.accepted
        assert verdict.feedback == "garbage, not json"

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_accept_iff_score_at_least_threshold(self, score, tau):
        gw = scripted_gateway(assistant(json.dumps({"score": score, "feedback": "x"})))
        verdict = critic_review("candidate", tau, gw)
        assert verdict.accepted == (score >= tau)

    def test_score_equal_to_threshold_accepts(self):
        gw = scripted_gateway(assistant(json.dumps({"score": 0.8, "feedback": ""})))
        assert critic_review("candidate", 0.8, gw).accepted

    def test_feedback_that_is_no_string_is_rejection(self):
        text = json.dumps({"score": 0.2, "feedback": None})
        assert parse_score_payload(text) is None
        verdict = critic_review("candidate", 0.8, scripted_gateway(assistant(text)))
        assert verdict == CriticVerdict(0.0, text, accepted=False)

    def test_fenced_verdict_is_read(self):
        assert parse_score_payload('```json\n{"score": 0.9}\n```') == (0.9, "")

    @pytest.mark.parametrize(
        "score",
        ["1" + "0" * 400, "NaN", "Infinity", "-Infinity", "1e400"],
        ids=["huge-int", "nan", "infinity", "minus-infinity", "float-overflow"],
    )
    def test_score_that_is_no_finite_number_is_rejection(self, score):
        text = '{"score": ' + score + ', "feedback": "x"}'
        assert parse_score_payload(text) is None
        verdict = critic_review("candidate", 0.8, scripted_gateway(assistant(text)))
        assert verdict == CriticVerdict(0.0, text, accepted=False)


class TestGenerateDomain:
    def domain_doc(self):
        return jsonio.dumps(blocksworld_domain()).rstrip("\n")

    def run(self, *responses, limit=10):
        from planwright.agents.events import EventLog

        session = AgentSession("domain", PipelineConfig(correction_limit=limit))
        gw = scripted_gateway(*responses)
        events = EventLog()
        outcome = run_generation(session, gw, "Domain description:\nblocksworld", parse_domain_artifact, null_resolver, events)
        return outcome, events

    def test_scripted_blocksworld(self):
        outcome, _ = self.run(assistant(self.domain_doc()), ok_critic())
        assert len(outcome.artifact.actions) == 4
        assert {a.name for a in outcome.artifact.actions} == {"pick-up", "put-down", "stack", "unstack"}

    def test_malformed_once_then_valid(self):
        outcome, events = self.run(assistant("not json"), assistant(self.domain_doc()), ok_critic())
        assert outcome.turns == 2
        assert outcome.artifact is not None
        [rejected] = [e for e in events if e.kind == "validation-error"]
        assert rejected.data["errors"] == ["cannot parse domain document: Expecting value: line 1 column 1 (char 0)"]

    def test_always_malformed_hits_limit_after_exactly_ten(self):
        with pytest.raises(CorrectionLimitReached) as err:
            self.run(*[assistant("not json")] * 12)
        assert err.value.turns == 10

    def test_invalid_tool_arguments_fed_back_then_recovered(self):
        bad_call = assistant("saving", (ToolCall("m1", "store_memory", {}),))  # missing summary
        outcome, events = self.run(bad_call, assistant(self.domain_doc()), ok_critic())
        assert outcome.artifact is not None
        assert outcome.turns == 2
        assert any(e.kind == "tool-error" for e in events)

    def test_critic_limit_uses_latest_response(self):
        reject = assistant(json.dumps({"score": 0.5, "feedback": "try harder"}))
        outcome, events = self.run(
            assistant(self.domain_doc()), reject,
            assistant(self.domain_doc()), reject,
            assistant(self.domain_doc()), reject,
        )
        assert outcome.critic_limit_hit
        assert outcome.critic_rejections == 3
        assert outcome.artifact is not None
        assert any(e.kind == "critic-limit" for e in events)


class TestArtifactParsers:
    """A reply that is not one well-typed JSON document raises IRDecodeError;
    the generation loop turns it into correction feedback."""

    PARSERS = {
        "domain": parse_domain_artifact,
        "initial-state": lambda content: parse_init_artifact(content, blocksworld_domain()),
    }

    @pytest.mark.parametrize(
        "role, content",
        [
            ("initial-state", "[]"),
            ("initial-state", json.dumps({"objects": [{"name": 5}]})),
            ("initial-state", json.dumps({"init": {"numerics": [{"fluent": "size", "args": ["b1"], "value": 2.5}]}})),
            ("domain", json.dumps({"name": "d", "types": [{"name": "block", "parent": []}]})),
        ],
        ids=["init-list", "object-name-int", "init-float-value", "type-parent-list"],
    )
    def test_malformed_document_raises_decode_error(self, role, content):
        with pytest.raises(jsonio.IRDecodeError):
            self.PARSERS[role](content)


class TestColorScenario:
    def test_complete_with_color_flow(self):
        result, transcript = record_scenario(color_scenario())
        assert result.status == "complete"
        domain = result.problem.domain
        assert "color" in domain.fluent_map()
        assert Atom("color", ("b1", "blue")) in result.problem.init.true_atoms
        calls = tool_calls(result.events, "missing_or_incorrect_fluent")
        assert calls and calls[0].data["arguments"]["fluent_name"] == "color"
        questions = [e for e in result.events if e.kind == "user-query"]
        assert [q.data["answer"] for q in questions] == ["blue", "red", "green"]
        assert validate(result.problem) == []

    def test_color_problem_solves(self):
        result, _ = record_scenario(color_scenario())
        outcome = solve(ground(result.problem), ASTAR)
        assert outcome.status == "plan"
        assert isinstance(validate_plan(result.problem, outcome.plan), Valid)

    def test_replay_reproduces_result_bytes(self):
        scenario = color_scenario()
        result, transcript = record_scenario(scenario)
        replays = []
        for _ in range(3):
            gw = Gateway(ReplayBackend(transcript))
            replay = run_pipeline(
                scenario.task,
                PipelineConfig(),
                gw,
                memory=ProceduralStore(clock=lambda: 0.0),
                user_channel=ScriptedUserChannel(scenario.answers),
            )
            replays.append(json.dumps(replay.to_json(), sort_keys=True))
        assert json.dumps(result.to_json(), sort_keys=True) == replays[0]
        assert len(set(replays)) == 1

    def test_result_document_writes_as_plain_json(self):
        result, _ = record_scenario(color_scenario())
        plain = result.to_json()
        assert jsonio.dumps(result) == json.dumps(plain, indent=2) + "\n"
        assert json.loads(json.dumps(plain)) == plain

    def test_directionality_of_requests(self):
        result, _ = record_scenario(color_scenario())
        assert result.requests
        for request in result.requests:
            assert request.origin in ("initial-state", "goal")


class TestFridgeScenarios:
    def test_store_phase_saves_memory(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        result, _ = record_scenario(fridge_store_scenario(), memory_path=path)
        assert result.status == "complete"
        stored = [e for e in result.events if e.kind == "memory-store"]
        assert stored and stored[0].data["summary"] == FRIDGE_MEMORY_SUMMARY
        assert path.exists()

    def test_blank_memory_summary_saves_nothing(self):
        """The tool schema takes any string, so a blank summary reaches the
        orchestrator; it stores nothing and tells the agent so."""
        requests = []

        class Capturing(ScriptedBackend):
            def complete(self, request):
                requests.append(request)
                return super().complete(request)

        scenario = fridge_store_scenario()
        responses = [
            assistant("Saving.", (ToolCall("call-mem-1", "store_memory", {"summary": "   "}),)) if r.tool_calls else r
            for r in scenario.responses
        ]
        memory = ProceduralStore(clock=lambda: 0.0)
        result = run_pipeline(scenario.task, PipelineConfig(), Gateway(Capturing(responses)), memory=memory)
        assert result.status == "complete"
        assert memory.entries == []
        assert not [e for e in result.events if e.kind == "memory-store"]
        answers = {m.content for r in requests for m in r.messages if m.tool_call_id == "call-mem-1"}
        assert answers == {"the summary is blank; nothing saved"}

    def test_recall_phase_appends_close_fridge_conjunct(self):
        result, _ = record_scenario(fridge_recall_scenario())
        assert result.status == "complete"
        goal = result.problem.goal
        assert Not(Atom("is_open", ("fridge_305",))) in goal.children
        retrievals = [e for e in result.events if e.kind == "retrieval" and e.agent == "goal"]
        assert retrievals and retrievals[0].data["hits"]
        assert retrievals[0].data["hits"][0]["score"] >= 0.35

    def test_recall_problem_solves(self):
        result, _ = record_scenario(fridge_recall_scenario())
        outcome = solve(ground(result.problem), ASTAR)
        assert outcome.status == "plan"
        assert len(outcome.plan.steps) == 8


class TestSizeTowerScenario:
    def test_domain_gains_numeric_stack_constraint(self):
        result, _ = record_scenario(size_tower_scenario())
        assert result.status == "complete"
        text = emit_domain(result.problem.domain)
        assert ":numeric-fluents" in text
        assert "(:functions (size ?b))" in text
        assert "(< (size ?b1) (size ?b2))" in text

    def test_tower_plan_respects_sizes(self):
        result, _ = record_scenario(size_tower_scenario())
        outcome = solve(ground(result.problem), ASTAR)
        assert outcome.status == "plan"
        verdict = validate_plan(result.problem, outcome.plan)
        assert isinstance(verdict, Valid)
        sizes = {t.args[0]: v for t, v in result.problem.init.numeric}
        for step in outcome.plan.steps:
            if step.name == "stack":
                assert sizes[step.args[0]] < sizes[step.args[1]]


class TestLimits:
    def test_always_failing_fixture(self):
        scenario = always_failing_scenario()
        result, _ = record_scenario(scenario)
        assert result.status == "correction-limit-reached"
        assert "correction limit" in result.error
        chats = [e for e in result.events if e.kind == "chat"]
        assert len(chats) == 10

    def test_global_ceiling_fails_closed(self):
        # With correction limits out of reach, only the ceiling stops a
        # domain agent that keeps calling a tool it was not offered.
        responses = [
            assistant("", (ToolCall(f"ask-{i}", "ask_user", {"question": "again?"}),))
            for i in range(100)
        ]
        task = TaskSpec("loop", "d", "i", "g")
        result = run_pipeline(
            task,
            PipelineConfig(correction_limit=100),
            Gateway(ScriptedBackend([assistant("nonsense")] * 10 + responses)),
            user_channel=ScriptedUserChannel(["yes"] * 200),
        )
        assert (result.status, result.failure_kind) == ("failed", "ceiling")
        assert result.gateway_calls == CALL_CEILING + 1

    def test_ceiling_during_an_edit_decision_leaves_the_request_unsettled(self, tmp_path, monkeypatch):
        """The ceiling trips while the domain editor is asked about the init
        agent's request, so `pipeline_result.json` holds the request with no
        outcome and no edit event."""
        monkeypatch.setattr("planwright.agents.pipeline.CALL_CEILING", 1)
        arguments = {"fluent_name": "color", "fluent_description": "the color of a block"}
        request = ToolCall("r1", "missing_or_incorrect_fluent", arguments)
        result = run_pipeline(
            TaskSpec("t", "", "blocks", "goal"),
            PipelineConfig(),
            scripted_gateway(assistant("", (request,))),
            provided_domain=blocksworld_domain(),
        )
        RunDirectory(tmp_path, "plan").write_json("pipeline_result.json", result)
        written = json.loads((tmp_path / "pipeline_result.json").read_text())
        assert (written["status"], written["gateway_calls"], written["error"]) == ("failed", 2, "gateway call ceiling of 1 exceeded")
        assert written["requests"] == [
            {"origin": "initial-state", "tool": "missing_or_incorrect_fluent", "arguments": arguments, "outcome": ""}
        ]
        assert [e["kind"] for e in written["events"]] == ["stage", "chat", "tool-call", "status"]

    def test_scenario_call_counts_stay_under_ceiling(self):
        for factory in (color_scenario, fridge_store_scenario, fridge_recall_scenario, size_tower_scenario):
            result, transcript = record_scenario(factory())
            assert result.gateway_calls <= CALL_CEILING
            assert len(transcript.exchanges) == result.gateway_calls


class TestInitAgentUpstreamRequests:
    def test_missing_ingredient_fluent_applied_then_regenerated(self):
        """Barman-style flow: the initial-state agent reports a missing
        fluent, the domain owner applies it, and the init stage regenerates
        against the extended domain."""
        domain = DomainModel(
            "mixology",
            types=(TypeDecl("shot"), TypeDecl("ingredient")),
            fluents=(FluentDecl("clean", (Parameter("?s", "shot"),)),),
            actions=(),
        )
        contains = {
            "name": "contains",
            "parameters": [{"name": "?s", "type": "shot"}, {"name": "?i", "type": "ingredient"}],
            "kind": "boolean",
            "description": "the shot holds the ingredient",
        }
        objects = [{"name": "shot1", "type": "shot"}, {"name": "gin", "type": "ingredient"}]
        init_with_contents = {
            "booleans": [
                {"op": "atom", "fluent": "clean", "args": ["shot1"]},
                {"op": "atom", "fluent": "contains", "args": ["shot1", "gin"]},
            ],
            "numerics": [],
        }
        responses = [
            assistant(
                "The cocktail contents cannot be expressed.",
                (ToolCall("c1", "missing_or_incorrect_fluent", {"fluent_name": "contains", "fluent_description": "shot contents"}),),
            ),
            assistant(json.dumps({"decision": "apply", "fluent": contains})),
            assistant(jsonio.dumps({"objects": objects, "init": init_with_contents}).rstrip("\n")),
            ok_critic(),
            assistant(jsonio.dumps({"goal": {"op": "atom", "fluent": "contains", "args": ["shot1", "gin"]}}).rstrip("\n")),
            ok_critic(),
        ]
        result = run_pipeline(
            TaskSpec("barman-ish", "", "shot1 is clean and already holds gin", "shot1 contains gin"),
            PipelineConfig(),
            Gateway(ScriptedBackend(responses)),
            provided_domain=domain,
        )
        assert result.status == "complete"
        assert "contains" in result.problem.domain.fluent_map()
        applied = applied_requests(result)
        assert len(applied) == 1
        assert applied[0].origin == "initial-state"
        assert applied[0].tool == "missing_or_incorrect_fluent"


class TestBenchmarkMode:
    def test_spurious_duplicate_fluent_rejected_and_run_completes(self):
        domain = blocksworld_domain()
        clear_decl = domain.fluent_map()["clear"].to_json()
        objects = [{"name": "b1", "type": "block"}]
        init = {
            "booleans": [
                {"op": "atom", "fluent": "arm-empty", "args": []},
                {"op": "atom", "fluent": "on-table", "args": ["b1"]},
                {"op": "atom", "fluent": "clear", "args": ["b1"]},
            ],
            "numerics": [],
        }
        responses = [
            assistant(
                "clear seems to be missing",
                (ToolCall("c1", "missing_or_incorrect_fluent", {"fluent_name": "clear", "fluent_description": "dup"}),),
            ),
            assistant(json.dumps({"decision": "apply", "fluent": clear_decl})),
            assistant(jsonio.dumps({"objects": objects, "init": init}).rstrip("\n")),
            ok_critic(),
            assistant(jsonio.dumps({"goal": {"op": "atom", "fluent": "on-table", "args": ["b1"]}}).rstrip("\n")),
            ok_critic(),
        ]
        result = run_pipeline(
            TaskSpec("bench", "", "one block on the table", "keep b1 on the table"),
            PipelineConfig(),
            Gateway(ScriptedBackend(responses)),
            provided_domain=domain,
        )
        assert result.status == "complete"
        assert result.problem.domain == domain  # unchanged
        assert result.requests[0].outcome.startswith("rejected")
        assert "duplicate" in result.requests[0].outcome


class TestGoalAgentObjectRequests:
    """The goal agent asks the initial-state agent for objects; the owner's
    reply is applied, or rejected without ending the run."""

    def run(self, call, owner_reply, goal, recording=None):
        objects = [{"name": "b1", "type": "block"}]
        init = {
            "booleans": [
                {"op": "atom", "fluent": "arm-empty", "args": []},
                {"op": "atom", "fluent": "on-table", "args": ["b1"]},
                {"op": "atom", "fluent": "clear", "args": ["b1"]},
            ],
            "numerics": [],
        }
        responses = [
            assistant(jsonio.dumps({"objects": objects, "init": init}).rstrip("\n")),
            ok_critic(),
            assistant("The goal needs another block.", (call,)),
            assistant(owner_reply),
            assistant(jsonio.dumps({"goal": goal}).rstrip("\n")),
            ok_critic(),
        ]
        return run_pipeline(
            TaskSpec("objects", "", "one block on the table", "two blocks on the table"),
            PipelineConfig(),
            Gateway(ScriptedBackend(responses), recording=recording),
            provided_domain=blocksworld_domain(),
        )

    def test_missing_objects_applied_then_goal_regenerated(self):
        call = ToolCall("o1", "missing_objects", {"object_type": "block", "object_description": "b2"})
        reply = json.dumps({"decision": "apply", "objects": [{"name": "b2", "type": "block"}]})
        transcript = Transcript()
        result = self.run(call, reply, {"op": "atom", "fluent": "on-table", "args": ["b2"]}, recording=transcript)
        assert result.status == "complete"
        # The fourth exchange is the object editor's decision; pin its request.
        owner_message = (
            "Current objects:\n"
            '[{"name": "b1", "type": "block"}]\n'
            "Declared types:\n"
            '["block", "object"]\n'
            "Request from the goal agent via missing_objects:\n"
            '{"object_description": "b2", "object_type": "block"}'
        )
        owner_request = ChatRequest(messages=(system(load_prompt("object_editor")), user(owner_message)))
        assert transcript.exchanges[3].fingerprint == fingerprint(owner_request)
        assert [o.name for o in result.problem.objects] == ["b1", "b2"]
        assert result.problem.goal == Atom("on-table", ("b2",))
        [applied] = applied_requests(result)
        assert (applied.origin, applied.tool) == ("goal", "missing_objects")

    @pytest.mark.parametrize(
        "call, reply, outcome",
        [
            (
                ToolCall("o1", "missing_objects", {"object_type": "block", "object_description": "b2"}),
                "[]",
                "rejected: owner response was not parseable",
            ),
            (
                ToolCall("o1", "missing_objects", {"object_type": "block", "object_description": "b2"}),
                '"apply"',
                "rejected: owner response was not parseable",
            ),
            (
                ToolCall("a1", "action_modification", {"action_name": "stack", "change_description": "x"}),
                json.dumps({"decision": "apply", "action": "stack", "effects": 5}),
                "rejected: malformed edit (",
            ),
        ],
        ids=["list", "string", "effects-not-a-list"],
    )
    def test_malformed_owner_reply_rejects_only_the_request(self, call, reply, outcome):
        result = self.run(call, reply, {"op": "atom", "fluent": "on-table", "args": ["b1"]})
        assert result.status == "complete"
        [request] = result.requests
        assert request.outcome.startswith(outcome)
        assert [e.data["outcome"] for e in result.events if e.kind == "edit"] == [request.outcome]
        assert result.problem.domain == blocksworld_domain()
        assert [o.name for o in result.problem.objects] == ["b1"]
