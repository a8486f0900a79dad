"""Orchestration of the three generator agents into one pipeline run.

Each stage (domain, initial state, goal) builds its task message and calls
`run_generation` with its artifact parser. Cross-agent changes flow strictly
upward as tool-mediated requests: a downstream agent asks, the owning
upstream agent decides, and the edit is applied through the IR's atomic edit
operation. One resolver settles all three request tools: the object editor
owns `missing_objects`, the domain editor the other two. After an applied
edit, only the artifacts downstream of the edited one regenerate. A global
gateway call ceiling backstops every loop; exceeding it fails the run closed.
"""
from __future__ import annotations

import json
from functools import partial
from typing import Any, Optional

from ..gateway import ChatRequest, Gateway, ToolCall, system, user
from ..ir import (
    AddObjects,
    AddOrModifyFluent,
    Applied,
    Assignment,
    DomainModel,
    Expression,
    FluentDecl,
    MalformedEditError,
    ModifyAction,
    ObjectDecl,
    ProblemInstance,
    apply_edit,
    jsonio,
    validate,
)
from ..memory import ProceduralStore
from ..values import Record
from .channel import InteractionError, RefusingUserChannel, UserChannel
from .config import PipelineConfig
from .events import EventLog
from .generation import (
    AgentSession,
    CorrectionLimitReached,
    parse_domain_artifact,
    parse_goal_artifact,
    parse_init_artifact,
    run_generation,
)
from .prompts import load_prompt
from .tools import ACTION_MODIFICATION, ASK_USER, MISSING_OBJECTS, MISSING_OR_INCORRECT_FLUENT, STORE_MEMORY

STATUS_COMPLETE = "complete"
STATUS_CORRECTION_LIMIT = "correction-limit-reached"
STATUS_FAILED = "failed"

CALL_CEILING = 60  # hard stop on gateway calls across all agents in one run
RETRIEVAL_K = 3
RETRIEVAL_THRESHOLD = 0.35


class CallCeilingExceeded(RuntimeError):
    pass


class GatewayMeter:
    """Counts gateway calls across the whole run and fails closed."""

    def __init__(self, gateway: Gateway, ceiling: int):
        self.gateway = gateway
        self.ceiling = ceiling
        self.calls = 0

    def chat(self, request: ChatRequest):
        self.calls += 1
        if self.calls > self.ceiling:
            raise CallCeilingExceeded(f"gateway call ceiling of {self.ceiling} exceeded")
        return self.gateway.chat(request)


class TaskSpec(Record):
    name: str
    domain_description: str = ""
    initial_state_description: str = ""
    goal_description: str = ""
    _json_kinds = dict.fromkeys(("name", "domain_description", "initial_state_description", "goal_description"), str)
    _json_defaults = {"name": "task"}


class UpstreamRequest(Record):
    origin: str
    tool: str
    arguments: dict[str, Any]
    outcome: str = ""


class PipelineResult(Record):
    problem: Optional[ProblemInstance]
    events: EventLog
    requests: list[UpstreamRequest]
    error: str
    gateway_calls: int
    failure_kind: str  # "" | correction-limit | interaction | ceiling | validation
    _json_keys = ("status", "problem", "requests", "gateway_calls", "error", "events")

    def __init__(
        self,
        problem: Optional[ProblemInstance],
        events: EventLog,
        requests: Optional[list[UpstreamRequest]] = None,
        error: str = "",
        gateway_calls: int = 0,
        failure_kind: str = "",
    ):
        self.problem = problem
        self.events = events
        self.requests = [] if requests is None else requests
        self.error = error
        self.gateway_calls = gateway_calls
        self.failure_kind = failure_kind

    @property
    def status(self) -> str:
        return _status(self.failure_kind)


class _RunState:
    def __init__(self, domain: Optional[DomainModel]):
        self.domain = domain
        self.objects: tuple[ObjectDecl, ...] = ()
        self.init: Assignment = Assignment()
        self.goal: Optional[Expression] = None
        self.extra_objects: tuple[ObjectDecl, ...] = ()


def run_pipeline(
    task: TaskSpec,
    config: PipelineConfig,
    gateway: Gateway,
    memory: Optional[ProceduralStore] = None,
    user_channel: Optional[UserChannel] = None,
    provided_domain: Optional[DomainModel] = None,
) -> PipelineResult:
    meter = GatewayMeter(gateway, CALL_CEILING)
    events = EventLog()
    requests: list[UpstreamRequest] = []
    channel = user_channel or RefusingUserChannel()
    state = _RunState(provided_domain)
    sessions = {role: AgentSession(role, config) for role in ("domain", "initial-state", "goal")}

    def retrieve_for(role: str, query: str) -> None:
        session = sessions[role]
        session.memory_note = None
        if memory is None or not memory.entries:
            return
        hits = memory.retrieve(query, k=RETRIEVAL_K, threshold=RETRIEVAL_THRESHOLD)
        events.add(
            "retrieval",
            role,
            hits=[{"summary": entry.summary, "score": score} for entry, score in hits],
        )
        if hits:
            note = "Relevant procedural memory:\n" + "\n".join(f"- {entry.summary}" for entry, _ in hits)
            session.memory_note = note

    def resolver(origin: str, call: ToolCall) -> tuple[str, bool]:
        if call.name == ASK_USER:
            question = str(call.arguments.get("question", ""))
            answer = channel.ask(question)
            events.add("user-query", origin, question=question, answer=answer)
            return answer, False
        if call.name == STORE_MEMORY:
            summary = str(call.arguments.get("summary", "")).strip()
            if memory is None:
                return "no memory store configured; nothing saved", False
            entry = memory.store(summary, source_agent=origin)
            events.add("memory-store", origin, summary=entry.summary)
            return "stored", False
        if call.name in (MISSING_OR_INCORRECT_FLUENT, ACTION_MODIFICATION, MISSING_OBJECTS):
            record = UpstreamRequest(origin, call.name, dict(call.arguments))
            requests.append(record)
            return _resolve_request(record)
        return f"tool {call.name} is not handled by the orchestrator", False

    def _settle(record: UpstreamRequest, outcome: str, applied: bool = False) -> tuple[str, bool]:
        record.outcome = outcome
        events.add("edit", record.origin, tool=record.tool, outcome=outcome)
        return outcome, applied

    def _resolve_request(record: UpstreamRequest) -> tuple[str, bool]:
        """Put ``record`` to the agent that owns what it would change: the
        object editor for ``missing_objects``, else the domain editor. Apply
        the edit the owner decides on, or record why nothing was applied."""
        adds_objects = record.tool == MISSING_OBJECTS
        if adds_objects:
            prompt_name = "object_editor"
            context = (
                "Current objects:\n"
                + json.dumps([{"name": o.name, "type": o.type} for o in state.objects])
                + "\nDeclared types:\n"
                + json.dumps([t.name for t in state.domain.types] + ["object"])
            )
        else:
            prompt_name = "domain_editor"
            context = "Current domain:\n" + jsonio.dumps(state.domain)
        content = (
            context
            + f"\nRequest from the {record.origin} agent via {record.tool}:\n"
            + json.dumps(record.arguments, sort_keys=True)
        )
        request = ChatRequest(messages=(system(load_prompt(prompt_name)), user(content)))
        try:
            data = jsonio.read_object(meter.chat(request).content)
            decision = jsonio.field(data, "decision", str, "")
            reason = jsonio.field(data, "reason", str, "owner declined the change")
        except jsonio.IRDecodeError:
            return _settle(record, "rejected: owner response was not parseable")
        if decision != "apply":
            return _settle(record, f"rejected: {reason}")
        try:
            if adds_objects:
                additions = jsonio.field(data, "objects", [ObjectDecl], ())
                edit = AddObjects(additions, provenance=record.origin)
            elif "fluent" in data:
                edit = AddOrModifyFluent(FluentDecl.from_json(data["fluent"]), provenance=record.origin)
            elif "action" in data:
                edit = ModifyAction.from_json(data, record.origin)
            else:
                return _settle(record, "rejected: owner response named no edit")
            result = apply_edit(state.domain, state.objects, edit)
        except (jsonio.IRDecodeError, MalformedEditError) as exc:
            return _settle(record, f"rejected: malformed edit ({exc})")
        if isinstance(result.outcome, Applied):
            # apply_edit hands back the part it left alone as the same object.
            state.domain, state.objects = result.domain, result.objects
            if adds_objects:
                state.extra_objects = state.extra_objects + edit.objects
            return _settle(record, f"applied: {result.outcome.detail}", applied=True)
        return _settle(record, f"rejected: {result.outcome.reason}: {result.outcome.message}")

    def stage_domain() -> None:
        retrieve_for("domain", task.domain_description)
        message = f"Domain description:\n{task.domain_description}"
        outcome = run_generation(sessions["domain"], meter, message, parse_domain_artifact, resolver, events)
        state.domain = outcome.artifact

    def stage_init() -> None:
        while True:
            retrieve_for("initial-state", task.initial_state_description)
            message = (
                "Current domain:\n"
                + jsonio.dumps(state.domain)
                + f"\nInitial state description:\n{task.initial_state_description}"
            )
            parse = partial(parse_init_artifact, domain=state.domain, extra_objects=state.extra_objects)
            outcome = run_generation(sessions["initial-state"], meter, message, parse, resolver, events)
            if outcome.restart:
                continue
            state.objects, state.init = outcome.artifact
            return

    def stage_goal() -> None:
        while True:
            domain, objects, init = state.domain, state.objects, state.init
            retrieve_for("goal", task.goal_description)
            message = (
                "Current domain:\n"
                + jsonio.dumps(domain)
                + "\nObjects:\n"
                + json.dumps([{"name": o.name, "type": o.type} for o in objects])
                + "\nInitial state:\n"
                + jsonio.dumps(init)
                + f"\nGoal description:\n{task.goal_description}"
            )
            parse = partial(parse_goal_artifact, domain=domain, objects=objects, init=init)
            outcome = run_generation(sessions["goal"], meter, message, parse, resolver, events)
            if outcome.restart:
                if state.domain is not domain:  # an applied domain edit
                    stage_init()
                continue
            state.goal = outcome.artifact
            return

    error = ""
    failure_kind = ""
    problem: Optional[ProblemInstance] = None
    try:
        if state.domain is None:
            stage_domain()
        else:
            events.add("stage", "domain", bypassed=True)
        stage_init()
        stage_goal()
        problem = ProblemInstance(state.domain, state.objects, state.init, state.goal, name=task.name)
        violations = validate(problem)
        if violations:
            failure_kind = "validation"
            error = "final problem failed validation: " + "; ".join(str(v) for v in violations)
            problem = None
    except CorrectionLimitReached as exc:
        failure_kind = "correction-limit"
        error = str(exc)
    except CallCeilingExceeded as exc:
        failure_kind = "ceiling"
        error = str(exc)
    except InteractionError as exc:
        failure_kind = "interaction"
        error = str(exc)

    events.add("status", "", status=_status(failure_kind), error=error)
    return PipelineResult(problem, events, requests, error, meter.calls, failure_kind)


def _status(failure_kind: str) -> str:
    if not failure_kind:
        return STATUS_COMPLETE
    return STATUS_CORRECTION_LIMIT if failure_kind == "correction-limit" else STATUS_FAILED
