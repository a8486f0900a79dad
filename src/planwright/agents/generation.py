"""The shared generate-validate-reflect loop behind all three agents.

The pipeline's stages call `run_generation` directly, each with its own task
message and artifact parser. One generation turn is one gateway call asking
the generator for output. Machine-validation failures and critic rejections
both consume turns; the correction limit bounds the total turns per
operation, and hitting it raises `CorrectionLimitReached` with the last
error attached. Critic reviews are separate gateway calls and are bounded by
the critic iteration limit; once rejections exhaust it, the latest response
is used as is.
"""
from __future__ import annotations

from typing import Any, Callable, Optional

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
from ..ir.model import expression_from_json
from ..memory import ContextBuffer
from ..values import Record
from .config import PipelineConfig
from .critic import critic_review
from .events import EventLog
from .prompts import ROLE_PROMPTS, load_prompt
from .tools import TOOLSETS

CRITIC_CRITERIA = "correctness, coherence, and completeness"


class CorrectionLimitReached(RuntimeError):
    def __init__(self, role: str, turns: int, last_error: str):
        self.role = role
        self.turns = turns
        self.last_error = last_error
        super().__init__(f"{role} agent hit its correction limit after {turns} turns: {last_error}")


class GenerationOutcome(Record):
    artifact: Any
    turns: int
    critic_rejections: int
    critic_limit_hit: bool
    restart: bool = False


class AgentSession:
    """An agent's running conversation: role, loop limits, context buffer, memory note."""

    def __init__(self, role: str, config: PipelineConfig):
        self.role = role
        self.config = config
        self.buffer = ContextBuffer(system(load_prompt(ROLE_PROMPTS[role])))
        self.memory_note: Optional[str] = None
        self.tools = TOOLSETS[role]

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
    resolver: Callable[[str, ToolCall], tuple[str, bool]],
    events: EventLog,
) -> GenerationOutcome:
    """Run ``session`` on ``task_message`` until an artifact is accepted.
    ``resolver(role, call)`` settles each tool call and returns (result
    text, restart needed); a restart ends the run with no artifact."""
    config = session.config
    role = session.role
    session.buffer.append(user(task_message))

    turns = 0
    rejections = 0
    last_error = "no output produced"

    while turns < config.correction_limit:
        request = ChatRequest(messages=session.request_messages(), tools=session.tools)
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
                return GenerationOutcome(None, turns, rejections, False, restart=True)
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

        verdict = critic_review(response.content, CRITIC_CRITERIA, config.critic_threshold, gateway)
        events.add("critic", role, score=verdict.score, accepted=verdict.accepted, feedback=verdict.feedback)
        if verdict.accepted:
            return GenerationOutcome(artifact, turns, rejections, False)
        rejections += 1
        if rejections >= config.critic_iterations:
            # Limit hit: proceed with the latest response as produced.
            events.add("critic-limit", role, rejections=rejections)
            return GenerationOutcome(artifact, turns, rejections, True)
        session.buffer.append(
            user(
                f"Reviewer feedback (score {verdict.score} below threshold {config.critic_threshold}):\n"
                f"{verdict.feedback}\nRevise and resend the full document."
            )
        )

    raise CorrectionLimitReached(role, turns, last_error)


# ------------------------------------------------------- artifact parsers


def parse_domain_artifact(content: str) -> tuple[Optional[DomainModel], list[str]]:
    domain = DomainModel.from_json(jsonio.read_object(content))
    problems = [str(v) for v in validate_domain(domain)]
    return (domain, problems) if not problems else (None, problems)


def parse_init_artifact(content: str, domain: DomainModel, extra_objects: tuple[ObjectDecl, ...] = ()) -> tuple[Optional[tuple[tuple[ObjectDecl, ...], Assignment]], list[str]]:
    data = jsonio.read_object(content)
    raw_objects = jsonio.field(data, "objects", [ObjectDecl], ())
    init = jsonio.field(data, "init", Assignment, Assignment())
    seen = {o.name for o in raw_objects}
    merged = raw_objects + tuple(o for o in extra_objects if o.name not in seen)
    probe = ProblemInstance(domain, merged, init)
    problems = [str(v) for v in validate(probe)]
    return ((probe.objects, init), problems) if not problems else (None, problems)


def parse_goal_artifact(
    content: str, domain: DomainModel, objects: tuple[ObjectDecl, ...], init: Assignment
) -> tuple[Optional[Expression], list[str]]:
    goal = jsonio.field(jsonio.read_object(content), "goal", expression_from_json)
    probe = ProblemInstance(domain, objects, init, goal)
    problems = [str(v) for v in validate(probe)]
    return (goal, problems) if not problems else (None, problems)
