"""Orchestration of the three generator agents into one pipeline run.

Cross-agent changes flow strictly upward as tool-mediated requests: a
downstream agent asks, the owning upstream agent decides, and the edit is
applied through the IR's atomic edit operation. After an applied edit, only
the artifacts downstream of the edited one regenerate. A global gateway
call ceiling backstops every loop; exceeding it fails the run closed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..gateway import ChatRequest, Gateway, ToolCall, system, user
from ..ir import (
    AddObjects,
    AddOrModifyFluent,
    Applied,
    Assignment,
    DomainModel,
    Expression,
    MalformedEditError,
    ObjectDecl,
    ProblemInstance,
    apply_edit,
    jsonio,
    validate,
)
from ..memory import ProceduralStore
from .channel import InteractionError, RefusingUserChannel, UserChannel
from .config import PipelineConfig
from .events import EventLog
from .generation import (
    AgentSession,
    CorrectionLimitReached,
    generate_domain,
    generate_goal,
    generate_initial_state,
)
from .prompts import load_prompt
from .tools import ACTION_MODIFICATION, ASK_USER, MISSING_OBJECTS, MISSING_OR_INCORRECT_FLUENT, STORE_MEMORY

STATUS_COMPLETE = "complete"
STATUS_CORRECTION_LIMIT = "correction-limit-reached"
STATUS_FAILED = "failed"


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

    def embed(self, text: str):
        return self.gateway.embed(text)


@dataclass
class TaskSpec:
    name: str
    domain_description: str
    initial_state_description: str
    goal_description: str

    @staticmethod
    def from_json(data: dict) -> "TaskSpec":
        return TaskSpec(
            name=jsonio.field(data, "name", str, "task"),
            domain_description=jsonio.field(data, "domain_description", str, ""),
            initial_state_description=jsonio.field(data, "initial_state_description", str, ""),
            goal_description=jsonio.field(data, "goal_description", str, ""),
        )


@dataclass
class UpstreamRequest:
    origin: str
    tool: str
    arguments: dict[str, Any]
    outcome: str = ""

    def to_json(self) -> dict:
        return {"origin": self.origin, "tool": self.tool, "arguments": self.arguments, "outcome": self.outcome}


@dataclass
class PipelineResult:
    status: str
    problem: Optional[ProblemInstance]
    events: EventLog
    requests: list[UpstreamRequest] = field(default_factory=list)
    error: str = ""
    gateway_calls: int = 0
    failure_kind: str = ""  # "" | correction-limit | interaction | ceiling | validation

    @property
    def applied_requests(self) -> list[UpstreamRequest]:
        return [r for r in self.requests if r.outcome.startswith("applied")]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "problem": jsonio.problem_to_json(self.problem) if self.problem is not None else None,
            "requests": [r.to_json() for r in self.requests],
            "gateway_calls": self.gateway_calls,
            "error": self.error,
            "events": self.events.to_json(),
        }


class _RunState:
    def __init__(self, domain: Optional[DomainModel]):
        self.domain = domain
        self.objects: tuple[ObjectDecl, ...] = ()
        self.init: Assignment = Assignment()
        self.goal: Optional[Expression] = None
        self.extra_objects: tuple[ObjectDecl, ...] = ()
        self.domain_changed = False


def run_pipeline(
    task: TaskSpec,
    config: PipelineConfig,
    gateway: Gateway,
    memory: Optional[ProceduralStore] = None,
    user_channel: Optional[UserChannel] = None,
    provided_domain: Optional[DomainModel] = None,
) -> PipelineResult:
    meter = GatewayMeter(gateway, config.call_ceiling)
    events = EventLog()
    requests: list[UpstreamRequest] = []
    channel = user_channel or RefusingUserChannel()
    state = _RunState(provided_domain)
    sessions = {
        role: AgentSession(config.agent(role))
        for role in ("domain", "initial-state", "goal")
    }

    def retrieve_for(role: str, query: str) -> None:
        session = sessions[role]
        session.memory_note = None
        if memory is None or not memory.entries:
            return
        hits = memory.retrieve(query, k=config.retrieval_k, threshold=config.retrieval_threshold)
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
        if call.name in (MISSING_OR_INCORRECT_FLUENT, ACTION_MODIFICATION):
            record = UpstreamRequest(origin, call.name, dict(call.arguments))
            requests.append(record)
            return _resolve_domain_request(record)
        if call.name == MISSING_OBJECTS:
            record = UpstreamRequest(origin, call.name, dict(call.arguments))
            requests.append(record)
            return _resolve_objects_request(record)
        return f"tool {call.name} is not handled by the orchestrator", False

    def _settle(record: UpstreamRequest, outcome: str, applied: bool = False) -> tuple[str, bool]:
        record.outcome = outcome
        events.add("edit", record.origin, tool=record.tool, outcome=outcome)
        return outcome, applied

    def _owner_decision(prompt_name: str, context: str, record: UpstreamRequest) -> tuple[Optional[dict], str]:
        """Put ``record`` to the owning agent. Returns its reply when it decided
        to apply the change, else None and the rejection to record."""
        content = (
            context
            + f"\nRequest from the {record.origin} agent via {record.tool}:\n"
            + json.dumps(record.arguments, sort_keys=True)
        )
        request = ChatRequest(
            messages=(system(load_prompt(prompt_name)), user(content)),
            temperature=config.temperature,
            model=config.model,
        )
        try:
            data = jsonio.read_object(meter.chat(request).content)
            decision = jsonio.field(data, "decision", str, "")
            reason = jsonio.field(data, "reason", str, "owner declined the change")
        except jsonio.IRDecodeError:
            return None, "rejected: owner response was not parseable"
        if decision != "apply":
            return None, f"rejected: {reason}"
        return data, ""

    def _resolve_domain_request(record: UpstreamRequest) -> tuple[str, bool]:
        context = "Current domain:\n" + jsonio.dumps(jsonio.domain_to_json(state.domain))
        data, rejection = _owner_decision("domain_editor", context, record)
        if data is None:
            return _settle(record, rejection)
        try:
            if "fluent" in data:
                edit = AddOrModifyFluent(jsonio.fluent_from_json(data["fluent"]), provenance=record.origin)
            elif "action" in data:
                edit = jsonio.modify_action_from_json(data, record.origin)
            else:
                return _settle(record, "rejected: owner response named no edit")
            result = apply_edit(state.domain, state.objects, edit)
        except (jsonio.IRDecodeError, MalformedEditError) as exc:
            return _settle(record, f"rejected: malformed edit ({exc})")
        if isinstance(result.outcome, Applied):
            state.domain = result.domain
            state.domain_changed = True
            return _settle(record, f"applied: {result.outcome.detail}", applied=True)
        return _settle(record, f"rejected: {result.outcome.reason}: {result.outcome.message}")

    def _resolve_objects_request(record: UpstreamRequest) -> tuple[str, bool]:
        context = (
            "Current objects:\n"
            + json.dumps([{"name": o.name, "type": o.type} for o in state.objects])
            + "\nDeclared types:\n"
            + json.dumps([t.name for t in state.domain.types] + ["object"])
        )
        data, rejection = _owner_decision("object_editor", context, record)
        if data is None:
            return _settle(record, rejection)
        try:
            additions = jsonio.objects_from_json(jsonio.field(data, "objects", list, []))
            result = apply_edit(state.domain, state.objects, AddObjects(additions, provenance=record.origin))
        except (jsonio.IRDecodeError, MalformedEditError) as exc:
            return _settle(record, f"rejected: malformed edit ({exc})")
        if isinstance(result.outcome, Applied):
            state.objects = result.objects
            state.extra_objects = state.extra_objects + additions
            return _settle(record, f"applied: {result.outcome.detail}", applied=True)
        return _settle(record, f"rejected: {result.outcome.reason}: {result.outcome.message}")

    def stage_domain() -> None:
        retrieve_for("domain", task.domain_description)
        outcome = generate_domain(
            task.domain_description,
            sessions["domain"],
            meter,
            resolver,
            events,
            model=config.model,
            temperature=config.temperature,
        )
        state.domain = outcome.artifact

    def stage_init() -> None:
        while True:
            state.domain_changed = False
            retrieve_for("initial-state", task.initial_state_description)
            outcome = generate_initial_state(
                state.domain,
                task.initial_state_description,
                sessions["initial-state"],
                meter,
                resolver,
                events,
                extra_objects=state.extra_objects,
                model=config.model,
                temperature=config.temperature,
            )
            if outcome.restart or state.domain_changed:
                continue
            state.objects, state.init = outcome.artifact
            return

    def stage_goal() -> None:
        while True:
            state.domain_changed = False
            retrieve_for("goal", task.goal_description)
            outcome = generate_goal(
                state.domain,
                state.objects,
                state.init,
                task.goal_description,
                sessions["goal"],
                meter,
                resolver,
                events,
                model=config.model,
                temperature=config.temperature,
            )
            if outcome.restart:
                if state.domain_changed:
                    stage_init()
                continue
            state.goal = outcome.artifact
            return

    status = STATUS_COMPLETE
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
            status = STATUS_FAILED
            failure_kind = "validation"
            error = "final problem failed validation: " + "; ".join(str(v) for v in violations)
            problem = None
    except CorrectionLimitReached as exc:
        status = STATUS_CORRECTION_LIMIT
        failure_kind = "correction-limit"
        error = str(exc)
    except CallCeilingExceeded as exc:
        status = STATUS_FAILED
        failure_kind = "ceiling"
        error = str(exc)
    except InteractionError as exc:
        status = STATUS_FAILED
        failure_kind = "interaction"
        error = str(exc)

    events.add("status", "", status=status, error=error)
    return PipelineResult(status, problem, events, requests, error, meter.calls, failure_kind)
