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
from typing import Optional

from .abstraction import InstructionList
from .agents.prompts import load_prompt
from .gateway import (
    ChatRequest,
    Gateway,
    ToolArgumentError,
    system,
    tool_result,
    user,
)
from .ir import jsonio
from .textworld import TextWorldEnv
from .values import Value


class StepRecord(Value):
    instruction_index: int
    thought: str
    skill: Optional[str] = None
    arguments: Optional[dict] = None
    observation: Optional[str] = None
    success: Optional[bool] = None

    def render(self) -> str:
        if self.skill is None:
            return f"step {self.instruction_index}: (reasoning) {self.thought}"
        status = "ok" if self.success else "FAILED"
        return f"step {self.instruction_index}: {self.skill}({json.dumps(self.arguments, sort_keys=True)}) {status}: {self.observation}"


class StepOutcome(Value):
    done: bool
    reason: str = ""


class ExecutionLog(Value):
    records: tuple[StepRecord, ...] = ()
    status: str = "completed"  # completed | stopped-at-N
    _json_keys = ("status", "records")

    def render(self) -> str:
        return "\n".join(r.render() for r in self.records) or "(no actions taken)"


class ValidatorVerdict(Value):
    decision: str  # goal-met | retry | abort
    feedback: str = ""
    notification: str = ""


def execute_step(
    instruction,
    env: TextWorldEnv,
    gateway: Gateway,
    step_budget: int = 6,
    feedback: str = "",
) -> tuple[StepOutcome, list[StepRecord]]:
    """Run the ReAct loop for one instruction."""
    if step_budget < 1:
        raise ValueError("step budget must be >= 1")
    body = f"Instruction: {instruction.text}\n\nCurrent environment state:\n{env.describe()}"
    if feedback:
        body = f"Corrective feedback from the validator: {feedback}\n\n{body}"
    messages = [system(load_prompt("action_executor")), user(body)]
    records: list[StepRecord] = []
    bad_tool_strikes = 0

    for _turn in range(step_budget):
        try:
            response = gateway.chat(ChatRequest(tuple(messages), env.tools))
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
                    + f". Available skills: {', '.join(sorted(t.name for t in env.tools))}."
                )
            )
            continue

        messages.append(response)
        if not response.tool_calls:
            records.append(StepRecord(instruction.index, response.content))
            return StepOutcome(True), records

        call = response.tool_calls[0]
        result = env.apply(call.name, call.arguments)
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


def execute_plan(
    instructions: InstructionList,
    env: TextWorldEnv,
    gateway: Gateway,
    step_budget: int = 6,
    feedback: str = "",
) -> ExecutionLog:
    """Process instructions in order; stop at the first failed step."""
    records: list[StepRecord] = []
    status = "completed"
    for instruction in instructions.items:
        outcome, steps = execute_step(instruction, env, gateway, step_budget, feedback)
        records.extend(steps)
        if not outcome.done:
            status = f"stopped-at-{instruction.index}"
            records.append(StepRecord(instruction.index, f"instruction abandoned: {outcome.reason}"))
            break
    return ExecutionLog(tuple(records), status)


def validate_execution(
    log: ExecutionLog,
    goal_text: str,
    env: TextWorldEnv,
    gateway: Gateway,
    retry_budget: int,
) -> ValidatorVerdict:
    """Validator decision, with the environment's goal check gating goal-met."""
    body = (
        f"Goal condition:\n{goal_text}\n\nExecution log:\n{log.render()}"
        f"\n\nFinal environment state:\n{env.describe()}"
        f"\n\nRemaining retries: {retry_budget}"
    )
    response = gateway.chat(ChatRequest(messages=(system(load_prompt("execution_validator")), user(body))))
    try:
        data = jsonio.read_object(response.content)
        decision = jsonio.field(data, "decision", str, "")
        feedback = jsonio.field(data, "feedback", str, None)  # None when absent
        notification = jsonio.field(data, "notification", str, "execution aborted")
    except jsonio.IRDecodeError:
        decision, feedback = "retry", f"validator answer was not parseable: {response.content}"

    env_ok = env.goal_satisfied()
    if decision == "goal-met":
        if env_ok:
            return ValidatorVerdict("goal-met")
        decision = "retry"
        feedback = "the environment goal check fails despite the reported success; re-execute"
    if decision == "retry":
        if retry_budget > 0:
            return ValidatorVerdict("retry", feedback="try again" if feedback is None else feedback)
        return ValidatorVerdict("abort", notification="retry budget exhausted: " + ("goal not met" if feedback is None else feedback))
    if decision == "abort":
        return ValidatorVerdict("abort", notification=notification)
    return ValidatorVerdict("abort", notification=f"validator returned unknown decision {decision!r}")


class ExecutionReport(Value):
    log: ExecutionLog
    verdict: ValidatorVerdict
    passes: int


def run_execution(
    instructions: InstructionList,
    env: TextWorldEnv,
    gateway: Gateway,
    goal_text: str,
    step_budget: int = 6,
    retry_budget: int = 2,
) -> ExecutionReport:
    """Executor/validator loop: execute, validate, retry on feedback."""
    feedback = ""
    passes = 0
    remaining = retry_budget
    records: list[StepRecord] = []
    while True:
        passes += 1
        log = execute_plan(instructions, env, gateway, step_budget, feedback)
        records.extend(log.records)
        verdict = validate_execution(log, goal_text, env, gateway, remaining)
        if verdict.decision != "retry":
            return ExecutionReport(ExecutionLog(tuple(records), log.status), verdict, passes)
        remaining -= 1
        feedback = verdict.feedback
