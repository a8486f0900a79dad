"""The shared generate-validate-reflect loop behind all three agents.

One generation turn is one gateway call asking the generator for output.
Machine-validation failures and critic rejections both consume turns; the
correction limit bounds the total turns per operation, and hitting it
raises `CorrectionLimitReached` with the last error attached. Critic
reviews are separate gateway calls and are bounded by the critic iteration
limit; once rejections exhaust it, the latest response is used as is.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol

from ..gateway import AgentMessage, ChatRequest, ToolArgumentError, ToolCall, system, tool_result, user
from ..ir import (
    Assignment,
    DomainModel,
    Expression,
    ObjectDecl,
    ProblemInstance,
    jsonio,
    validate,
    validate_domain,
)
from ..memory import ContextBuffer
from .config import AgentConfig
from .critic import critic_review
from .events import EventLog
from .tools import TOOLSETS

CRITIC_CRITERIA = "correctness, coherence, and completeness"


class CorrectionLimitReached(RuntimeError):
    def __init__(self, role: str, turns: int, last_error: str):
        self.role = role
        self.turns = turns
        self.last_error = last_error
        super().__init__(f"{role} agent hit its correction limit after {turns} turns: {last_error}")


class ToolResolver(Protocol):
    def __call__(self, origin: str, call: ToolCall) -> tuple[str, bool]:
        """Resolve a tool call; returns (result text, restart needed)."""


@dataclass
class GenerationOutcome:
    artifact: Any
    raw: str
    turns: int
    critic_rejections: int
    critic_limit_hit: bool
    restart: bool = False


class AgentSession:
    """An agent's running conversation: config, context buffer, memory note."""

    def __init__(self, config: AgentConfig):
        self.config = config
        self.buffer = ContextBuffer(system(config.system_prompt), config.context_capacity)
        self.memory_note: Optional[str] = None
        self.tools = TOOLSETS[config.role]

    def request_messages(self) -> tuple[AgentMessage, ...]:
        window = self.buffer.window()
        if self.memory_note:
            return (window[0], system(self.memory_note)) + tuple(window[1:])
        return tuple(window)


def run_generation(
    session: AgentSession,
    gateway,
    task_message: str,
    parse_artifact: Callable[[str], tuple[Any, list[str]]],
    resolver: ToolResolver,
    events: EventLog,
    model: str = "default",
    temperature: float = 0.0,
) -> GenerationOutcome:
    config = session.config
    role = config.role
    session.buffer.append(user(task_message))

    turns = 0
    rejections = 0
    last_error = "no output produced"

    while turns < config.correction_limit:
        request = ChatRequest(
            messages=session.request_messages(),
            tools=session.tools,
            temperature=temperature,
            model=model,
        )
        turns += 1
        try:
            response = gateway.chat(request)
        except ToolArgumentError as exc:
            last_error = str(exc)
            events.add("tool-error", role, problems=exc.problems)
            session.buffer.append(
                user("Your tool call failed validation: " + "; ".join(exc.problems) + ". Correct the call or answer directly.")
            )
            continue

        session.buffer.append(response)
        events.add(
            "chat",
            role,
            content=response.content,
            tool_calls=[tc.to_json() for tc in response.tool_calls],
        )

        if response.tool_calls:
            restart = False
            for call in response.tool_calls:
                events.add("tool-call", role, tool=call.name, arguments=dict(call.arguments), call_id=call.id)
                text, needs_restart = resolver(role, call)
                session.buffer.append(tool_result(call.id, text))
                restart = restart or needs_restart
            if restart:
                return GenerationOutcome(None, "", turns, rejections, False, restart=True)
            continue

        try:
            artifact, problems = parse_artifact(response.content)
        except jsonio.IRDecodeError as exc:
            artifact, problems = None, [f"cannot parse {role} document: {exc}"]
        if problems:
            last_error = "; ".join(problems)
            events.add("validation-error", role, errors=problems)
            session.buffer.append(
                user("Your output failed validation:\n- " + "\n- ".join(problems) + "\nResend the corrected full document.")
            )
            continue

        verdict = critic_review(
            response.content,
            CRITIC_CRITERIA,
            config.critic_threshold,
            gateway,
            model=model,
            temperature=temperature,
        )
        events.add("critic", role, score=verdict.score, accepted=verdict.accepted, feedback=verdict.feedback)
        if verdict.accepted:
            return GenerationOutcome(artifact, response.content, turns, rejections, False)
        rejections += 1
        if rejections >= config.critic_iterations:
            # Limit hit: proceed with the latest response as produced.
            events.add("critic-limit", role, rejections=rejections)
            return GenerationOutcome(artifact, response.content, turns, rejections, True)
        session.buffer.append(
            user(
                f"Reviewer feedback (score {verdict.score} below threshold {config.critic_threshold}):\n"
                f"{verdict.feedback}\nRevise and resend the full document."
            )
        )

    raise CorrectionLimitReached(role, turns, last_error)


# ------------------------------------------------------- artifact parsers


def parse_domain_artifact(content: str) -> tuple[Optional[DomainModel], list[str]]:
    domain = jsonio.domain_from_json(jsonio.read_object(content))
    problems = [str(v) for v in validate_domain(domain)]
    return (domain, problems) if not problems else (None, problems)


def parse_init_artifact(content: str, domain: DomainModel, extra_objects: tuple[ObjectDecl, ...] = ()) -> tuple[Optional[tuple[tuple[ObjectDecl, ...], Assignment]], list[str]]:
    data = jsonio.read_object(content)
    raw_objects = jsonio.objects_from_json(jsonio.field(data, "objects", list, []))
    init = jsonio.assignment_from_json(jsonio.field(data, "init", dict, {}))
    seen = {o.name for o in raw_objects}
    merged = raw_objects + tuple(o for o in extra_objects if o.name not in seen)
    probe = ProblemInstance(domain, merged, init)
    problems = [str(v) for v in validate(probe)]
    return ((probe.objects, init), problems) if not problems else (None, problems)


def parse_goal_artifact(
    content: str, domain: DomainModel, objects: tuple[ObjectDecl, ...], init: Assignment
) -> tuple[Optional[Expression], list[str]]:
    goal = jsonio.expression_from_json(jsonio.field(jsonio.read_object(content), "goal", dict))
    probe = ProblemInstance(domain, objects, init, goal)
    problems = [str(v) for v in validate(probe)]
    return (goal, problems) if not problems else (None, problems)


# ------------------------------------------------------- operation wrappers


def generate_domain(description, session, gateway, resolver, events, model="default", temperature=0.0) -> GenerationOutcome:
    message = f"Domain description:\n{description}"
    return run_generation(session, gateway, message, parse_domain_artifact, resolver, events, model, temperature)


def generate_initial_state(
    domain, description, session, gateway, resolver, events, extra_objects=(), model="default", temperature=0.0
) -> GenerationOutcome:
    message = (
        "Current domain:\n"
        + jsonio.dumps(jsonio.domain_to_json(domain))
        + f"\nInitial state description:\n{description}"
    )
    return run_generation(
        session,
        gateway,
        message,
        lambda content: parse_init_artifact(content, domain, extra_objects),
        resolver,
        events,
        model,
        temperature,
    )


def generate_goal(
    domain, objects, init, description, session, gateway, resolver, events, model="default", temperature=0.0
) -> GenerationOutcome:
    message = (
        "Current domain:\n"
        + jsonio.dumps(jsonio.domain_to_json(domain))
        + "\nObjects:\n"
        + json.dumps([{"name": o.name, "type": o.type} for o in objects])
        + "\nInitial state:\n"
        + jsonio.dumps(jsonio.assignment_to_json(init))
        + f"\nGoal description:\n{description}"
    )
    return run_generation(
        session,
        gateway,
        message,
        lambda content: parse_goal_artifact(content, domain, objects, init),
        resolver,
        events,
        model,
        temperature,
    )
