"""Translation of structured plans into natural-language instructions.

The LLM path produces concise sentences and may elide internal parameters;
the deterministic fallback spaces out the action name and keeps every
argument. Either way the result is one instruction per plan step, in step
order, and each instruction retains its exact source step so downstream
consumers can always recover ground-truth arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .agents.prompts import load_prompt
from .gateway import ChatRequest, Gateway, system, user
from .ir import DomainModel, jsonio
from .planner import Plan, PlanStep


@dataclass(frozen=True)
class Instruction:
    index: int  # 1-based step number
    text: str
    step: PlanStep
    known_action: bool = True


@dataclass(frozen=True)
class InstructionList:
    items: tuple[Instruction, ...] = ()

    def __len__(self) -> int:
        return len(self.items)

    def render(self) -> str:
        """Numbered-list layout for human display."""
        return "\n".join(f"{i.index}. {i.text}" for i in self.items) + ("\n" if self.items else "")

    def to_json(self) -> dict:
        return {
            "instructions": [
                {
                    "index": i.index,
                    "text": i.text,
                    "step": {"name": i.step.name, "args": list(i.step.args)},
                    "known_action": i.known_action,
                }
                for i in self.items
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "InstructionList":
        items = []
        for entry in jsonio.field(data, "instructions", list, []):
            step = jsonio.field(entry, "step", dict)
            items.append(
                Instruction(
                    index=jsonio.field(entry, "index", int),
                    text=jsonio.field(entry, "text", str),
                    step=PlanStep(jsonio.field(step, "name", str), jsonio.tuple_of(step, "args", str, ())),
                    known_action=jsonio.field(entry, "known_action", bool, True),
                )
            )
        return InstructionList(tuple(items))


def fallback_instruction(step: PlanStep) -> str:
    verb = step.name.replace("-", " ").replace("_", " ").strip()
    verb = verb[:1].upper() + verb[1:]
    if step.args:
        return f"{verb} {' '.join(step.args)}."
    return f"{verb}."


def _fallback(plan: Plan, domain: DomainModel) -> InstructionList:
    known = domain.action_map()
    return InstructionList(
        tuple(
            Instruction(i + 1, fallback_instruction(step), step, known_action=step.name in known)
            for i, step in enumerate(plan.steps)
        )
    )


def _llm_request(plan: Plan, domain: DomainModel, model: str, temperature: float) -> ChatRequest:
    signatures = [
        f"{a.name}({', '.join(f'{p.name}: {p.type}' for p in a.parameters)})"
        for a in domain.actions
    ]
    body = (
        "Plan steps:\n"
        + "\n".join(f"{i + 1}. {step}" for i, step in enumerate(plan.steps))
        + "\n\nAction signatures:\n"
        + "\n".join(signatures)
    )
    return ChatRequest(
        messages=(system(load_prompt("plan_translator")), user(body)),
        temperature=temperature,
        model=model,
    )


def _parse_instructions(content: str, expected: int) -> Optional[list[str]]:
    try:
        items = jsonio.field(jsonio.read_object(content), "instructions", list)
    except jsonio.IRDecodeError:
        return None
    if len(items) != expected:
        return None
    texts = [str(t).strip() for t in items]
    if any(not t for t in texts):
        return None
    return texts


def translate_plan(
    plan: Plan,
    domain: DomainModel,
    gateway: Optional[Gateway] = None,
    model: str = "default",
    temperature: float = 0.0,
) -> InstructionList:
    """One instruction per step. The LLM gets one retry on a wrong-count or
    empty answer, then the deterministic fallback takes over; without a
    gateway the fallback is used directly."""
    if gateway is None or not plan.steps:
        return _fallback(plan, domain)
    known = domain.action_map()
    request = _llm_request(plan, domain, model, temperature)
    for attempt in range(2):
        response = gateway.chat(request)
        texts = _parse_instructions(response.content, len(plan.steps))
        if texts is not None:
            return InstructionList(
                tuple(
                    Instruction(i + 1, text, step, known_action=step.name in known)
                    for i, (text, step) in enumerate(zip(texts, plan.steps))
                )
            )
        if attempt == 0:
            note = user(
                f"Your answer must contain exactly {len(plan.steps)} nonempty instructions "
                "in a JSON document of the form {\"instructions\": [...]}. Resend."
            )
            request = ChatRequest(request.messages + (response, note), temperature=temperature, model=model)
    return _fallback(plan, domain)
