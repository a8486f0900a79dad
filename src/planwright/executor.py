"""Plan execution: a ReAct-style action executor plus a validator agent.

Each instruction is treated as a short-term sub-goal: the executor reasons,
invokes at most one environment skill per turn, observes, and repeats until
it declares the sub-goal done or the step budget runs out. After a full
pass the validator decides goal-met, retry with corrective feedback, or
abort. A goal-met verdict additionally requires the environment's own goal
check to pass, so an agreeable model cannot hallucinate success.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Protocol

from .abstraction import InstructionList
from .agents.pipeline import GatewayMeter
from .agents.prompts import load_prompt
from .gateway import (
    ChatRequest,
    Gateway,
    ToolArgumentError,
    ToolParam,
    ToolSchema,
    system,
    tool_result,
    user,
)
from .ir import jsonio
from .textworld import SkillResult


@dataclass(frozen=True)
class Skill:
    name: str
    parameters: tuple[tuple[str, str], ...]  # (name, scalar type)
    description: str

    def __post_init__(self) -> None:
        if not self.description:
            raise ValueError(f"skill {self.name} needs a description; it is the grounding surface")

    def to_tool_schema(self) -> ToolSchema:
        return ToolSchema(
            self.name,
            self.description,
            tuple(ToolParam(n, t) for n, t in self.parameters),
        )


class Environment(Protocol):
    def describe(self) -> str: ...
    def apply(self, skill: str, arguments: dict) -> SkillResult: ...
    def goal_satisfied(self) -> bool: ...
    def skills(self) -> tuple[Skill, ...]: ...


@dataclass
class StepRecord:
    instruction_index: int
    thought: str
    skill: Optional[str] = None
    arguments: Optional[dict] = None
    observation: Optional[str] = None
    success: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "instruction_index": self.instruction_index,
            "thought": self.thought,
            "skill": self.skill,
            "arguments": self.arguments,
            "observation": self.observation,
            "success": self.success,
        }

    def render(self) -> str:
        if self.skill is None:
            return f"step {self.instruction_index}: (reasoning) {self.thought}"
        status = "ok" if self.success else "FAILED"
        return f"step {self.instruction_index}: {self.skill}({json.dumps(self.arguments, sort_keys=True)}) {status}: {self.observation}"


@dataclass(frozen=True)
class StepOutcome:
    done: bool
    reason: str = ""


@dataclass
class ExecutionLog:
    records: list[StepRecord] = field(default_factory=list)
    status: str = "completed"  # completed | stopped-at-N

    def render(self) -> str:
        return "\n".join(r.render() for r in self.records) or "(no actions taken)"

    def to_json(self) -> dict:
        return {"status": self.status, "records": [r.to_json() for r in self.records]}


@dataclass(frozen=True)
class ValidatorVerdict:
    decision: str  # goal-met | retry | abort
    feedback: str = ""
    notification: str = ""

    def to_json(self) -> dict:
        return {"decision": self.decision, "feedback": self.feedback, "notification": self.notification}


def execute_step(
    instruction,
    env: Environment,
    gateway: Gateway,
    step_budget: int = 6,
    feedback: str = "",
    model: str = "default",
    temperature: float = 0.0,
) -> tuple[StepOutcome, list[StepRecord]]:
    """Run the ReAct loop for one instruction."""
    if step_budget < 1:
        raise ValueError("step budget must be >= 1")
    tools = tuple(s.to_tool_schema() for s in env.skills())
    skill_names = {s.name for s in env.skills()}
    body = f"Instruction: {instruction.text}\n\nCurrent environment state:\n{env.describe()}"
    if feedback:
        body = f"Corrective feedback from the validator: {feedback}\n\n{body}"
    messages = [system(load_prompt("action_executor")), user(body)]
    records: list[StepRecord] = []
    bad_tool_strikes = 0

    for _turn in range(step_budget):
        request = ChatRequest(tuple(messages), tools, temperature, model)
        try:
            response = gateway.chat(request)
        except ToolArgumentError as exc:
            unknown = [p for p in exc.problems if "unknown tool" in p]
            bad_tool_strikes += 1
            if bad_tool_strikes >= 2:
                reason = "unknown-skill" if unknown else "invalid-arguments"
                records.append(StepRecord(instruction.index, f"tool call rejected: {'; '.join(exc.problems)}"))
                return StepOutcome(False, reason), records
            messages.append(
                user(
                    "Your skill call was rejected: "
                    + "; ".join(exc.problems)
                    + f". Available skills: {', '.join(sorted(skill_names))}."
                )
            )
            continue

        messages.append(response)
        if not response.tool_calls:
            records.append(StepRecord(instruction.index, response.content))
            return StepOutcome(True), records

        call = response.tool_calls[0]
        ordered = {name: call.arguments.get(name) for name, _ in _skill_params(env, call.name)}
        result = env.apply(call.name, ordered)
        records.append(
            StepRecord(
                instruction.index,
                response.content,
                call.name,
                dict(call.arguments),
                result.observation,
                result.success,
            )
        )
        messages.append(tool_result(call.id, result.observation))
        for extra in response.tool_calls[1:]:
            messages.append(tool_result(extra.id, "ignored: one skill per turn"))

    return StepOutcome(False, "step budget exhausted"), records


def _skill_params(env: Environment, name: str):
    for skill in env.skills():
        if skill.name == name:
            return skill.parameters
    return ()


def execute_plan(
    instructions: InstructionList,
    env: Environment,
    gateway: Gateway,
    step_budget: int = 6,
    feedback: str = "",
    model: str = "default",
    temperature: float = 0.0,
) -> ExecutionLog:
    """Process instructions in order; stop at the first failed step."""
    if not env.skills():
        raise ValueError("environment exposes no skills")
    log = ExecutionLog()
    for instruction in instructions.items:
        outcome, records = execute_step(
            instruction, env, gateway, step_budget, feedback, model, temperature
        )
        log.records.extend(records)
        if not outcome.done:
            log.status = f"stopped-at-{instruction.index}"
            log.records.append(
                StepRecord(instruction.index, f"instruction abandoned: {outcome.reason}")
            )
            return log
    log.status = "completed"
    return log


def validate_execution(
    log: ExecutionLog,
    goal_text: str,
    env: Environment,
    gateway: Gateway,
    retry_budget: int,
    model: str = "default",
    temperature: float = 0.0,
) -> ValidatorVerdict:
    """Validator decision, with the environment's goal check gating goal-met."""
    body = (
        f"Goal condition:\n{goal_text}\n\nExecution log:\n{log.render()}"
        f"\n\nFinal environment state:\n{env.describe()}"
        f"\n\nRemaining retries: {retry_budget}"
    )
    request = ChatRequest(
        messages=(system(load_prompt("execution_validator")), user(body)),
        temperature=temperature,
        model=model,
    )
    response = gateway.chat(request)
    try:
        data = jsonio.read_object(response.content)
        decision = jsonio.field(data, "decision", str, "")
    except jsonio.IRDecodeError:
        data = {"feedback": f"validator answer was not parseable: {response.content}"}
        decision = "retry"

    env_ok = env.goal_satisfied()
    if decision == "goal-met":
        if env_ok:
            return ValidatorVerdict("goal-met")
        decision = "retry"
        data["feedback"] = "the environment goal check fails despite the reported success; re-execute"
    if decision == "retry":
        if retry_budget > 0:
            return ValidatorVerdict("retry", feedback=str(data.get("feedback", "try again")))
        return ValidatorVerdict("abort", notification="retry budget exhausted: " + str(data.get("feedback", "goal not met")))
    if decision == "abort":
        return ValidatorVerdict("abort", notification=str(data.get("notification", "execution aborted")))
    return ValidatorVerdict("abort", notification=f"validator returned unknown decision {decision!r}")


@dataclass
class ExecutionReport:
    log: ExecutionLog
    verdict: ValidatorVerdict
    passes: int
    gateway_calls: int

    def to_json(self) -> dict:
        return {
            "log": self.log.to_json(),
            "verdict": self.verdict.to_json(),
            "passes": self.passes,
            "gateway_calls": self.gateway_calls,
        }


def run_execution(
    instructions: InstructionList,
    env: Environment,
    gateway: Gateway,
    goal_text: str,
    step_budget: int = 6,
    retry_budget: int = 2,
    model: str = "default",
    temperature: float = 0.0,
) -> ExecutionReport:
    """Executor/validator loop: execute, validate, retry on feedback."""
    ceiling = (retry_budget + 1) * (max(len(instructions), 1) * step_budget + 1)
    meter = GatewayMeter(gateway, ceiling)
    feedback = ""
    passes = 0
    remaining = retry_budget
    combined = ExecutionLog()
    while True:
        passes += 1
        log = execute_plan(instructions, env, meter, step_budget, feedback, model, temperature)
        combined.records.extend(log.records)
        combined.status = log.status
        verdict = validate_execution(log, goal_text, env, meter, remaining, model, temperature)
        if verdict.decision != "retry":
            return ExecutionReport(combined, verdict, passes, meter.calls)
        remaining -= 1
        feedback = verdict.feedback
